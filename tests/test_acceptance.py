"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the reported constants.
"""

import importlib.util
import random
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import freeprod
from freeprod import (
    components,
    contains,
    decompose,
    make_cyclic,
    parse_word,
    presentation,
    subgroup_graph,
    verify,
)
from freeprod.cli import load_problem
from freeprod.fingroup import (
    _group_word_to_letters,
    _schreier_walk,
    from_presentation,
    from_table,
    reidemeister_schreier,
)
from freeprod.lgraph import LabeledGraph, fold_all, pointed_iso
from freeprod.words import Letter, NormalWord, inverse_word, normal_to_word, normalize

from helpers import (
    OracleOverflow,
    all_normal_forms,
    cayley_graph,
    certify,
    coset_graph,
    loglog_slope,
    naive_random_fold,
    oracle_membership,
    random_labelled_graph,
    random_subgroups,
    random_word,
    rank_by_count,
    reference_certify,
    reference_decompose,
    set_basepoint,
    subgraph,
)


@pytest.fixture(scope="module")
def corpus(z2z3, z4z6):
    rng = random.Random(2024)
    out = []
    out += [(z2z3, gens) for gens in random_subgroups(rng, z2z3, 30, max_len=8)]
    out += [(z4z6, gens) for gens in random_subgroups(rng, z4z6, 25, max_len=8)]
    return out


def test_acceptance_worked_example(z2z3, psl2_words):
    start = time.perf_counter()
    sg = subgroup_graph(psl2_words, z2z3)
    d = decompose(sg)
    check = verify(d, sg)
    elapsed = time.perf_counter() - start

    assert len(d.factors) == 1
    f = d.factors[0]
    assert f.factor == 1, "the conjugated factor lies in the order-2 free factor"
    assert f.order == 2
    assert d.free_rank == 1
    assert check.ok, check.reason

    # the factor equals (ab^2)<a>(ab^2)^-1 as a subgroup
    target_gen = parse_word("a b^2 a b^-2 a^-1", z2z3)
    assert contains(sg, target_gen)
    reported = None
    group = z2z3.factor(1)
    for elem in sorted(f.subgroup):
        if elem != group.identity:
            inner = _group_word_to_letters(group.word_for(elem), 1)
            reported = f.conjugator + inner + inverse_word(f.conjugator)
    assert reported is not None
    target_sg = subgroup_graph([target_gen], z2z3)
    assert contains(target_sg, reported)

    assert elapsed < 1.0, f"worked example took {elapsed:.3f}s"
    print(f"\nACCEPTANCE worked-example: PASS ({elapsed * 1000:.0f} ms)")


def test_acceptance_presentation(z2z3, psl2_sg):
    pres = presentation(decompose(psl2_sg), z2z3)
    assert len(pres.generators) == 2
    assert len(pres.relators) == 1
    (rel,) = pres.relators
    syms = {s for s, _ in rel}
    assert len(syms) == 1
    assert len(rel) == 2 and all(sign == 1 for _, sign in rel)
    print("\nACCEPTANCE presentation: PASS (2 generators, one exponent-2 relator)")


def test_acceptance_membership_oracle(z2z3, z4z6):
    start = time.perf_counter()
    rng = random.Random(4096)
    cases = []
    for gens in random_subgroups(rng, z2z3, 14, max_len=8):
        cases.append((z2z3, gens, oracle_membership(gens, z2z3, query_len=6, work_len=16)))
    accepted = 0
    attempts = 0
    while accepted < 8 and attempts < 60:
        attempts += 1
        gens = random_subgroups(rng, z4z6, 1, max_len=8)[0]
        try:
            member = oracle_membership(gens, z4z6, query_len=6, work_len=8)
        except OracleOverflow:
            continue  # resampled: the bounded oracle cannot settle this one
        cases.append((z4z6, gens, member))
        accepted += 1
    assert accepted == 8, "could not assemble the second half of the corpus"
    assert len(cases) >= 20

    disagreements = 0
    queries = 0
    for pair, gens, member in cases:
        sg = subgroup_graph(gens, pair)
        for nf in all_normal_forms(pair, 6):
            want = nf in member
            got = contains(sg, normal_to_word(NormalWord(nf), pair))
            queries += 1
            if want != got:
                disagreements += 1
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    assert elapsed < 60.0, f"membership suite took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE membership-oracle: PASS "
        f"({len(cases)} subgroups, {queries} queries, 0 disagreements, {elapsed:.1f}s)"
    )


def test_acceptance_uniqueness(corpus):
    checked = 0
    for pair, gens in corpus:
        base = subgroup_graph(gens, pair)
        variants = []
        extra = gens + [gens[0] + gens[-1]]
        variants.append(extra)
        h0 = gens[0]
        conjugated = [h0] + [h0 + h + inverse_word(h0) for h in gens[1:]]
        variants.append(conjugated)
        variants.append([inverse_word(h) for h in gens])
        for alt in variants:
            other = subgroup_graph(alt, pair)
            assert pointed_iso(
                other.graph,
                other.graph.basepoint,
                base.graph,
                base.graph.basepoint,
            ), f"distinct graphs for equivalent generators {gens!r} vs {alt!r}"
        checked += 1
    print(f"\nACCEPTANCE uniqueness: PASS ({checked} subgroups x 4 generating sets)")


def test_acceptance_kurosh_roundtrip(corpus):
    for pair, gens in corpus:
        sg = subgroup_graph(gens, pair)
        # certification from the scan prune read agrees with a fresh scan
        ok, verdict = reference_certify(sg.graph, sg.graph.basepoint, pair)
        assert (sg.precover_ok, sg.reduced_ok, sg.reason) == (ok, verdict.ok, verdict.reason)
        d = decompose(sg)
        check = verify(d, sg)
        assert check.ok, check.reason
    print(f"\nACCEPTANCE kurosh-roundtrip: PASS ({len(corpus)} subgroups)")


def test_acceptance_reads_only_live_edges(corpus, monkeypatch):
    # a deleted half-edge has no endpoint (init and term read -1), so no
    # stage may read one
    reads = Counter()

    def live_only(name, fn):
        def wrapper(g, e):
            v = fn(g, e)
            assert v >= 0, f"{name} read deleted half-edge {e}"
            reads[name] += 1
            return v

        return wrapper

    for name in ("init", "term"):
        monkeypatch.setattr(LabeledGraph, name, live_only(name, getattr(LabeledGraph, name)))
    for pair, gens in corpus:
        sg = subgroup_graph(gens, pair)
        d = decompose(sg)
        assert verify(d, sg).ok
        presentation(d, pair)
    print(
        f"\nACCEPTANCE live-edge reads: PASS ({reads['init']} init and {reads['term']} "
        f"term reads over {len(corpus)} subgroups, none of a deleted edge)"
    )


def test_acceptance_freeness_criterion(corpus):
    free_count = 0
    for pair, gens in corpus:
        sg = subgroup_graph(gens, pair)
        d = decompose(sg)
        all_full_cayley = True
        for comp in components(sg.graph):
            piece = subgraph(sg.graph, comp.vertices, comp.edges, comp.min_vertex)
            full = cayley_graph(pair.factor(comp.factor), factor=comp.factor)
            iso = any(
                pointed_iso(piece, piece.basepoint, full, v) for v in full.vertices()
            )
            all_full_cayley = all_full_cayley and iso
        assert (len(d.factors) == 0) == all_full_cayley
        free_count += len(d.factors) == 0
    print(
        f"\nACCEPTANCE freeness: PASS ({len(corpus)} subgroups, {free_count} free)"
    )


def _conjugate_generator(rng, pair, length):
    """A conjugate w a w^-1 with w a random normal word of the given length.

    Uniformly random words collapse to tiny subgroups (often the whole
    group), whose graphs say nothing about growth; conjugates of a factor
    generator by long random normal words keep the graph genuinely large.
    """
    a = Letter(1, 0, 1)
    w = []
    factor = 2
    for _ in range(length):
        group = pair.factor(factor)
        elem = rng.randrange(1, group.order)
        w.extend(_group_word_to_letters(group.word_for(elem), factor))
        factor = 3 - factor
    w = tuple(w)
    return w + (a,) + inverse_word(w)


def test_acceptance_scaling(z2z3):
    rng = random.Random(777)
    sizes = [50, 100, 200, 400, 800]
    ratios = []
    times = []
    for m in sizes:
        gens = [
            _conjugate_generator(rng, z2z3, (m - 26) // 2),
            _conjugate_generator(rng, z2z3, 12),
        ]
        assert sum(len(g) for g in gens) == m
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            sg = subgroup_graph(gens, z2z3)
            best = min(best, time.perf_counter() - t0)
        assert sg.precover_ok and sg.reduced_ok
        ratios.append(sg.edge_count / m)
        times.append(best)
    c = max(ratios)
    slope = loglog_slope(sizes, times)
    assert c <= 10.0, f"edge/length ratio {c:.2f} is not a modest constant"
    assert slope <= 2.3, f"runtime log-log slope {slope:.2f} exceeds quadratic"
    print(
        f"\nACCEPTANCE scaling: PASS (C = {c:.2f}, ratios "
        f"{[f'{r:.2f}' for r in ratios]}, slope = {slope:.2f}, "
        f"times = {[f'{t * 1000:.0f}ms' for t in times]})"
    )


def test_acceptance_decompose_scaling(z2z3):
    rng = random.Random(777)
    sizes = [200, 400, 800, 1600]
    times = []
    for m in sizes:
        gens = [
            _conjugate_generator(rng, z2z3, (m - 26) // 2),
            _conjugate_generator(rng, z2z3, 12),
        ]
        sg = subgroup_graph(gens, z2z3)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            decompose(sg)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    slope = loglog_slope(sizes, times)
    assert slope <= 1.4, f"decompose log-log slope {slope:.2f} is not near linear"
    print(
        f"\nACCEPTANCE decompose-scaling: PASS (slope = {slope:.2f}, "
        f"times = {[f'{t * 1000:.0f}ms' for t in times]})"
    )


def _counted_within(module, name, counts, monkeypatch):
    """Wrap ``module.name`` so that the returned Counter collects what
    ``counts`` gains during its calls."""
    within = Counter()
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        before = counts.copy()
        try:
            return fn(*args, **kwargs)
        finally:
            within.update(counts - before)

    monkeypatch.setattr(module, name, wrapper)
    return within


def _random_words_ladder(tmp_path):
    """fpbench's random-words family (Z4*Z6, words of 200 letters corrected
    into a kernel, rng seed 5) at 2 to 32 words: the family where pruning
    has the most victims."""
    spec = importlib.util.spec_from_file_location(
        "fpbench_gen", Path(__file__).resolve().parents[1] / "fpbench" / "gen.py"
    )
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen   # dataclasses look their module up
    spec.loader.exec_module(gen)
    for count in (2, 4, 8, 16, 32):
        path = tmp_path / f"ladder-{count}.fp"
        path.write_text(gen.random_words_problem(random.Random(5), "ladder", count).text())
        yield load_problem(path)


def test_acceptance_prune_scaling(tmp_path, monkeypatch):
    # pruning reads the one scan after saturation and takes its victims
    # from a heap; a scan per victim made it quadratic on this ladder
    # (1.05 s at m = 6584)
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("components", "_covers"):
        monkeypatch.setattr(freeprod.precover, name, counted(name, getattr(freeprod.precover, name)))
    prune = _counted_within(freeprod.precover, "prune_redundant", counts, monkeypatch)
    real = freeprod.precover.prune_redundant
    spent = []

    def timed(*args):
        t0 = time.perf_counter()
        result = real(*args)
        spent.append(time.perf_counter() - t0)
        return result

    monkeypatch.setattr(freeprod.precover, "prune_redundant", timed)
    sizes, times = [], []
    for problem in _random_words_ladder(tmp_path):
        spent.clear()
        for _ in range(5):
            sg = subgroup_graph(problem.generators, problem.pair)
        assert sg.precover_ok and sg.reduced_ok
        sizes.append(sum(map(len, problem.generators)))
        times.append(min(spent))
    assert prune["components"] == prune["_covers"] == 0, (
        f"prune made {prune['components']} scans and {prune['_covers']} cover tests"
    )
    slope = loglog_slope(sizes, times)
    assert slope <= 1.4, f"prune log-log slope {slope:.2f} is not near linear"
    print(
        f"\nACCEPTANCE prune-scaling: PASS (slope = {slope:.2f}, m = {sizes}, "
        f"times = {[f'{t * 1000:.1f}ms' for t in times]})"
    )


def test_acceptance_work_counts(z2z3, monkeypatch):
    # counts of whole-graph scans, spanning trees and vertex letter checks on
    # the first seed-777 problem at m = 800: unlike the wall-time gates, host
    # speed cannot move them
    rng = random.Random(777)
    gens = [_conjugate_generator(rng, z2z3, (800 - 26) // 2), _conjugate_generator(rng, z2z3, 12)]
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # the modules import these by name, so every binding is wrapped
    for mod in (freeprod.lgraph, freeprod.fingroup, freeprod.precover, freeprod.kurosh):
        for name in ("components", "spanning_tree", "basic_step", "_covers", "_letters_at"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    # union-find walks: edge endpoints and the basepoint are kept at their
    # roots, so only fold's queue, where a merge can kill a queued id, needs one
    monkeypatch.setattr(LabeledGraph, "find", counted("find", LabeledGraph.find))
    for name in ("copy", "remove_edge"):
        monkeypatch.setattr(LabeledGraph, name, counted(name, getattr(LabeledGraph, name)))
    prune = _counted_within(freeprod.precover, "prune_redundant", counts, monkeypatch)
    fold = _counted_within(freeprod.precover, "fold_all", counts, monkeypatch)
    sg = subgroup_graph(gens, z2z3)
    build = counts.copy()
    covers = components(sg.graph)   # every component of a precover is a cover
    comps = len(covers)
    counts.clear()
    decompose(sg)
    # the bouquet is the one graph of the build: no stage copies it, and no
    # vertex id outside fold's queue needs a find
    assert build["copy"] == 0, f"{build['copy']} graph copies per build"
    assert build["find"] == fold["find"], (
        f"{build['find'] - fold['find']} of {build['find']} find calls per build outside fold_all"
    )
    # one scan in saturate, and one after it that prune and certification share
    assert build["components"] <= 2, f"{build['components']} component scans per build"
    assert prune["components"] == prune["_covers"] == 0, (
        f"prune made {prune['components']} scans and {prune['_covers']} cover tests"
    )
    # one cover test per component in saturate and one in certification
    assert build["_covers"] <= 2 * comps, (
        f"{build['_covers']} cover tests per build for {comps} components"
    )
    # decompose only reads the certified graph: mcc's scan is its one scan,
    # and Delta is the set of the covers' tree edges, not a working copy
    assert counts["components"] <= 1, f"{counts['components']} component scans per decompose"
    assert counts["copy"] == counts["remove_edge"] == 0, (
        f"decompose made {counts['copy']} graph copies and {counts['remove_edge']} edge deletions"
    )
    # decompose's tree from the basepoint and free_basis's; a basic step
    # keeps the tree of the cover test's walk
    assert counts["spanning_tree"] == 2, (
        f"{counts['spanning_tree']} spanning trees for {counts['basic_step']} basic steps"
    )
    # each cover is walked twice: by mcc's cover test and by its basic step
    cover_vertices = sum(len(c.vertices) for c in covers)
    assert counts["_letters_at"] <= 2 * cover_vertices, (
        f"{counts['_letters_at']} vertex letter checks per decompose for "
        f"{cover_vertices} cover vertices"
    )
    # every vertex id decompose passes is live
    assert counts["find"] == 0, f"{counts['find']} find calls per decompose"
    summary = (
        f"components {build['components']} per build, "
        f"{build['_covers']} cover tests per build for {comps} components, "
        f"{counts['components']} per decompose with {counts['copy']} copies and "
        f"{counts['remove_edge']} edge deletions; {counts['spanning_tree']} spanning trees "
        f"for {counts['basic_step']} basic steps; {counts['_letters_at']} letter checks "
        f"for {cover_vertices} cover vertices; {build['copy']} copies and "
        f"{build['find']} finds per build, all {fold['find']} in fold; "
        f"{counts['find']} finds per decompose"
    )
    # a trace starts at the live basepoint and reads live endpoints
    counts.clear()
    for w in gens:
        assert contains(sg, w)
    assert counts["find"] == 0, f"{counts['find']} find calls for {len(gens)} contains calls"
    print(
        f"\nACCEPTANCE work-counts: PASS ({summary}, {counts['find']} for "
        f"{len(gens)} contains calls)"
    )


def test_acceptance_rewrite_work_counts(monkeypatch):
    # graph queries made by Reidemeister-Schreier for the order-8 subgroup
    # of Z512: the relator a^512 read at 64 cosets must not walk the coset
    # graph letter by letter (that made 131,527 of these calls), and the
    # presentation is read off the coset table without building a graph
    group = make_cyclic(512, "a")
    sub = group.closure([64])
    half_edges = 2 * coset_graph(group, sub, factor=2).edge_count()
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("out_edge", "term", "find", "add_vertex", "add_edge"):
        monkeypatch.setattr(LabeledGraph, name, counted(name, getattr(LabeledGraph, name)))
    pres = reidemeister_schreier(group, sub, factor=2)
    built = counts["add_vertex"] + counts["add_edge"]
    calls = counts["out_edge"] + counts["term"] + counts["find"]
    assert pres.relators == (((pres.generators[0], 1),) * 8,)
    assert built == 0, f"Reidemeister-Schreier built a graph ({dict(counts)})"
    assert calls <= 8 * half_edges, (
        f"{calls} graph queries for {half_edges} coset graph half-edges ({dict(counts)})"
    )
    print(
        f"\nACCEPTANCE rewrite-work-counts: PASS ({calls} out_edge/term/find calls "
        f"for {half_edges} half-edges, bound {8 * half_edges}; {built} vertices "
        "and edges built)"
    )


def test_acceptance_factor_construction_scaling():
    # one quadratic pass per generator; an all-triples check is cubic
    sizes = [128, 256, 512, 1024]
    times = []
    for n in sizes:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            make_cyclic(n, "z")
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    slope = loglog_slope(sizes, times)
    assert slope <= 2.4, f"make_cyclic log-log slope {slope:.2f} exceeds quadratic"
    print(
        f"\nACCEPTANCE factor-construction-scaling: PASS (slope = {slope:.2f}, "
        f"times = {[f'{t * 1000:.0f}ms' for t in times]})"
    )


def test_acceptance_precover_gallery(z4z6):
    X, Y = Letter(1, 0, 1), Letter(2, 0, 1)

    def cycle(g, verts, letter):
        for k, v in enumerate(verts):
            g.add_edge(v, verts[(k + 1) % len(verts)], letter)

    # components that are not covers of Z4 fail the precover check
    bad = LabeledGraph()
    verts = [bad.add_vertex() for _ in range(6)]
    cycle(bad, verts, Y)
    tri = [verts[0], bad.add_vertex(), bad.add_vertex()]
    cycle(bad, tri, X)  # saturated 3-cycle, yet x^4 does not act trivially
    assert not certify(bad, z4z6)[0]

    # a two-component precover passes
    two = LabeledGraph()
    a, b = two.add_vertex(), two.add_vertex()
    cycle(two, [a, b], X)
    c, d = two.add_vertex(), two.add_vertex()
    cycle(two, [a, c, d], Y)
    assert certify(two, z4z6)[0]
    assert certify(two, z4z6)[1].ok   # based at a

    # a full Cayley component with one bichromatic vertex and trivial
    # stabilizer is redundant exactly for basepoints outside its interior
    g2 = LabeledGraph()
    ring = [g2.add_vertex() for _ in range(6)]
    cycle(g2, ring, Y)
    g2.add_edge(ring[0], ring[0], X)
    assert certify(g2, z4z6)[0]
    assert not certify(g2, z4z6)[1].ok   # based at ring[0]
    for v in ring[1:]:
        set_basepoint(g2, v)
        assert certify(g2, z4z6)[1].ok
    print("\nACCEPTANCE precover-gallery: PASS")


def test_acceptance_property_suites(z2z3, z4z6):
    counts = {}
    rng = random.Random(31337)

    # fold idempotence and order independence
    n_fold = 300
    for _ in range(n_fold):
        g = random_labelled_graph(rng)
        folded = fold_all(g.copy())   # fold_all edits its graph
        assert folded.is_well_labelled()
        once = folded.copy()
        again = fold_all(folded)
        assert pointed_iso(once, once.basepoint, again, again.basepoint)
        ref = naive_random_fold(g, rng)
        assert pointed_iso(once, once.basepoint, ref, ref.basepoint)
    counts["fold"] = n_fold

    # normalize idempotence and alternation
    n_norm = 450
    for k in range(n_norm):
        pair = z2z3 if k % 2 else z4z6
        w = random_word(rng, pair, 12)
        nf = normalize(w, pair)
        for (i, e), (j, _) in zip(nf.syllables, nf.syllables[1:]):
            assert i != j
        for i, e in nf.syllables:
            assert e != pair.factor(i).identity
        assert normalize(normal_to_word(nf, pair), pair) == nf
    counts["normalize"] = n_norm

    # Schreier orbit-stabilizer counting on random covers
    groups = [
        make_cyclic(4, "x"),
        make_cyclic(6, "y"),
        make_cyclic(12, "z"),
        from_table([[i ^ j for j in range(4)] for i in range(4)], [("u", 1), ("v", 2)]),
        from_presentation(["s", "t"], ["s^2", "t^3", "s t s t"], cap=64),
    ]
    n_schreier = 150
    for _ in range(n_schreier):
        group = rng.choice(groups)
        seed = [rng.randrange(group.order) for _ in range(rng.randint(1, 2))]
        sub = group.closure(seed)
        cg = coset_graph(group, sub)
        v = rng.choice(cg.vertices())
        stab = _schreier_walk(cg, v, group, components(cg)[0])[0]
        assert len(stab) * cg.vertex_count() == group.order
    counts["schreier"] = n_schreier

    # rank formula on random decompositions
    n_rank = 150
    for k in range(n_rank):
        pair = z2z3 if k % 2 else z4z6
        gens = random_subgroups(rng, pair, 1, max_len=6)[0]
        sg = subgroup_graph(gens, pair)
        d = decompose(sg)
        assert d.free_rank == rank_by_count(sg)
        assert list(d.free_basis) == reference_decompose(sg)[1]
    counts["rank"] = n_rank

    total = sum(counts.values())
    assert total >= 1000
    print(f"\nACCEPTANCE property-suites: PASS ({total} randomized cases: {counts})")
