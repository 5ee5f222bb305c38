import random
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import freeprod

from freeprod import (
    FactorPair,
    components,
    contains,
    from_presentation,
    index_if_finite,
    make_cyclic,
    parse_word,
    subgroup_graph,
)
from freeprod.fingroup import _append_cayley, _schreier_walk
from freeprod.kurosh import basic_step
from freeprod.lgraph import LabeledGraph, bouquet, cut_hairs, dump, fold_all, pointed_iso
from freeprod.precover import (
    _cover_defect,
    component_is_cover,
    prune_redundant,
    saturate,
)
from freeprod.words import Letter

from helpers import (
    all_normal_forms,
    cayley_graph,
    certify,
    coset_graph,
    half_edges,
    oracle_membership,
    random_subgroups,
    reference_components,
    reference_cover_defect,
    reference_certify,
    reference_index_if_finite,
    reference_prune,
    reference_saturate,
    reference_stabilizer,
    scan,
    set_basepoint,
    subgraph,
)

X = Letter(1, 0, 1)
Y = Letter(2, 0, 1)


def _cycle(g, verts, letter):
    for k, v in enumerate(verts):
        g.add_edge(v, verts[(k + 1) % len(verts)], letter)


def _gallery_gamma2(z4z6):
    """Full 6-cycle of y with an x-loop at one vertex w (vertex 0)."""
    g = LabeledGraph()
    verts = [g.add_vertex() for _ in range(6)]
    _cycle(g, verts, Y)
    g.add_edge(verts[0], verts[0], X)
    return g, verts


def test_saturate_fixpoint_on_precover(z4z6):
    g, _ = _gallery_gamma2(z4z6)
    h = saturate(g, z4z6)
    assert pointed_iso(g, g.basepoint, h, h.basepoint)


def test_saturate_completes_single_edge(z2z3):
    g = LabeledGraph()
    u, v = g.add_vertex(), g.add_vertex()
    g.add_edge(u, v, Letter(1, 0, 1))
    h = saturate(g, z2z3)
    assert h.vertex_count() == 2 and h.edge_count() == 2
    ok, verdict = certify(h, h.basepoint, z2z3)
    assert ok, verdict.reason


def test_saturate_repairs_unbased_cycle(z4z6):
    # a 3-cycle of x-edges is saturated but not a coset graph of Z4
    g = LabeledGraph()
    verts = [g.add_vertex() for _ in range(3)]
    _cycle(g, verts, X)
    assert not certify(g, g.basepoint, z4z6)[0]
    h = saturate(g, z4z6)
    ok, verdict = certify(h, h.basepoint, z4z6)
    assert ok, verdict.reason
    # x^3 generates Z4, so everything collapses to the one-coset graph
    assert h.vertex_count() == 1 and h.edge_count() == 1


def test_prune_collapses_lone_cayley(z2z3):
    g = cayley_graph(make_cyclic(2, "a"))
    h = prune_redundant(g, g.basepoint, z2z3, scan(g, z2z3))
    assert h.vertex_count() == 1 and h.edge_count() == 0


def test_prune_is_fixpoint_on_reduced(z2z3, psl2_sg):
    h = prune_redundant(psl2_sg.graph, psl2_sg.graph.basepoint, z2z3, scan(psl2_sg.graph, z2z3))
    assert pointed_iso(
        h, h.basepoint, psl2_sg.graph, psl2_sg.graph.basepoint
    )


def test_prune_depends_on_basepoint(z4z6):
    g, verts = _gallery_gamma2(z4z6)
    # basepoint at the bichromatic vertex: the y-component is redundant
    set_basepoint(g, verts[0])
    h = prune_redundant(g, verts[0], z4z6, scan(g, z4z6))
    assert h.vertex_count() == 1 and h.edge_count() == 1
    # basepoint at a monochromatic y-vertex: nothing to prune
    g2, verts2 = _gallery_gamma2(z4z6)
    set_basepoint(g2, verts2[3])
    h2 = prune_redundant(g2, verts2[3], z4z6, scan(g2, z4z6))
    assert pointed_iso(h2, h2.basepoint, g2, g2.basepoint)


def test_subgroup_graph_trivial(z2z3):
    sg = subgroup_graph([], z2z3)
    assert sg.vertex_count == 1 and sg.edge_count == 0
    assert sg.precover_ok and sg.reduced_ok


def test_subgroup_graph_psl2_shape(z2z3, psl2_sg):
    assert psl2_sg.vertex_count == 6
    assert psl2_sg.edge_count == 11
    assert len(components(psl2_sg.graph)) == 5
    assert psl2_sg.precover_ok and psl2_sg.reduced_ok
    assert sum(map(len, psl2_sg.generators)) == 10


def test_subgroup_graph_single_generator(z2z3):
    sg = subgroup_graph([parse_word("a", z2z3)], z2z3)
    # the one-coset graph of Z2: a single vertex with an a-loop
    assert sg.vertex_count == 1 and sg.edge_count == 1
    assert contains(sg, parse_word("a", z2z3))


def test_is_precover_gallery(z4z6):
    # one full Cayley(Z4) component alone
    g1 = cayley_graph(make_cyclic(4, "x"))
    assert certify(g1, g1.basepoint, z4z6)[0]

    # two components sharing one vertex
    g2, _ = _gallery_gamma2(z4z6)
    assert certify(g2, g2.basepoint, z4z6)[0]

    # x-components that are not covers: an attached 3-cycle of x-edges
    g3 = LabeledGraph()
    verts = [g3.add_vertex() for _ in range(6)]
    _cycle(g3, verts, Y)
    tri = [verts[0], g3.add_vertex(), g3.add_vertex()]
    _cycle(g3, tri, X)
    bad = certify(g3, g3.basepoint, z4z6)[1]
    assert not bad.ok and "not a cover" in bad.reason

    # an unsaturated x-edge also fails, with a witness
    g3b = LabeledGraph()
    verts = [g3b.add_vertex() for _ in range(6)]
    _cycle(g3b, verts, Y)
    g3b.add_edge(verts[0], g3b.add_vertex(), X)
    bad2 = certify(g3b, g3b.basepoint, z4z6)[1]
    assert not bad2.ok and "not saturated" in bad2.reason

    # a 2-cycle x-cover plus a 3-cycle y-cover, glued at one vertex
    g4 = LabeledGraph()
    a, b = g4.add_vertex(), g4.add_vertex()
    _cycle(g4, [a, b], X)
    c, d = g4.add_vertex(), g4.add_vertex()
    _cycle(g4, [a, c, d], Y)
    assert certify(g4, g4.basepoint, z4z6)[0]

    # single vertex, no edges: the empty precover
    point = LabeledGraph()
    point.add_vertex()
    assert certify(point, point.basepoint, z4z6)[0]


def test_is_reduced_precover_gallery(z4z6):
    g1 = cayley_graph(make_cyclic(4, "x"))
    for v in list(g1.vertices()):
        assert not certify(g1, v, z4z6)[1].ok

    g2, verts = _gallery_gamma2(z4z6)
    assert not certify(g2, verts[0], z4z6)[1].ok
    for v in verts[1:]:
        assert certify(g2, v, z4z6)[1].ok

    g4 = LabeledGraph()
    a, b = g4.add_vertex(), g4.add_vertex()
    _cycle(g4, [a, b], X)
    c, d = g4.add_vertex(), g4.add_vertex()
    _cycle(g4, [a, c, d], Y)
    for v in (a, b, c, d):
        assert certify(g4, v, z4z6)[1].ok

    point = LabeledGraph()
    point.add_vertex()
    assert certify(point, 0, z4z6)[1].ok


def test_contains_psl2_examples(z2z3, psl2_sg):
    assert contains(psl2_sg, parse_word("a b a^-1 b^-1", z2z3))
    assert contains(psl2_sg, parse_word("b a b a b a", z2z3))
    assert contains(psl2_sg, ())
    assert not contains(psl2_sg, parse_word("b", z2z3))
    assert not contains(psl2_sg, parse_word("a", z2z3))
    # conjugate of a by ab^2 lies in H
    assert contains(psl2_sg, parse_word("a b^2 a b^-2 a^-1", z2z3))


def test_contains_vs_oracle_small(z2z3, psl2_sg, psl2_words):
    member = oracle_membership(psl2_words, z2z3, query_len=6, work_len=16)
    from freeprod.words import NormalWord, normal_to_word

    for nf in all_normal_forms(z2z3, 6):
        w = normal_to_word(NormalWord(nf), z2z3)
        assert contains(psl2_sg, w) == (nf in member), nf


def test_index_examples(z2z3, psl2_sg):
    whole = subgroup_graph([parse_word("a", z2z3), parse_word("b", z2z3)], z2z3)
    assert index_if_finite(whole) == 1
    only_a = subgroup_graph([parse_word("a", z2z3)], z2z3)
    assert index_if_finite(only_a) is None
    # the worked example has an unsaturated vertex, hence infinite index
    assert index_if_finite(psl2_sg) is None
    two = subgroup_graph([parse_word("b", z2z3), parse_word("a b a^-1", z2z3)], z2z3)
    assert index_if_finite(two) == 2


def test_index_count_agrees_with_letter_scan(z2z3, z4z6):
    rng = random.Random(0)
    finite = 0
    for pair in (z2z3, z4z6):
        for gens in random_subgroups(rng, pair, 150, n_gens=(1, 4), max_len=4):
            sg = subgroup_graph(gens, pair)
            index = index_if_finite(sg)
            assert index == reference_index_if_finite(sg), gens
            finite += index is not None
    assert finite > 0


def test_pipeline_certifies_random_corpus(z2z3, z4z6):
    rng = random.Random(20)
    for pair in (z2z3, z4z6):
        for gens in random_subgroups(rng, pair, 12, max_len=6):
            sg = subgroup_graph(gens, pair)
            assert sg.precover_ok and sg.reduced_ok
            for w in gens:
                assert contains(sg, w)


def test_partial_cancellation_generator(z2z3):
    # a b b^-1 generates the same subgroup as a; the folded loop leaves a
    # hair that must be cut
    sg = subgroup_graph([parse_word("a b b^-1", z2z3)], z2z3)
    other = subgroup_graph([parse_word("a", z2z3)], z2z3)
    assert pointed_iso(
        sg.graph, sg.graph.basepoint, other.graph, other.graph.basepoint
    )


@pytest.fixture(scope="module")
def klein_s3():
    klein = from_presentation(["u", "v"], ["u^2", "v^2", "u v u^-1 v^-1"], cap=32)
    s3 = from_presentation(["s", "t"], ["s^2", "t^3", "s t s t"], cap=32)
    return FactorPair(klein, s3)


def test_multigenerator_factors_membership(klein_s3):
    # both factors need several generators; membership must still agree
    # with the closure oracle
    rng = random.Random(71)
    for gens in random_subgroups(rng, klein_s3, 6, max_len=6):
        sg = subgroup_graph(gens, klein_s3)
        assert sg.precover_ok and sg.reduced_ok
        member = oracle_membership(gens, klein_s3, query_len=4, work_len=7)
        from freeprod.words import NormalWord, normal_to_word

        for nf in all_normal_forms(klein_s3, 4):
            got = contains(sg, normal_to_word(NormalWord(nf), klein_s3))
            assert got == (nf in member), (gens, nf)


def test_multigenerator_factors_decomposition(klein_s3):
    from freeprod import decompose, verify

    rng = random.Random(73)
    for gens in random_subgroups(rng, klein_s3, 6, max_len=6):
        sg = subgroup_graph(gens, klein_s3)
        d = decompose(sg)
        assert verify(d, sg).ok


def test_whole_group_membership_multigen(klein_s3):
    gens = [parse_word(t, klein_s3) for t in ("u", "v", "s", "t")]
    sg = subgroup_graph(gens, klein_s3)
    assert index_if_finite(sg) == 1
    assert contains(sg, parse_word("u v s t^-1 u", klein_s3))


def test_prune_cascades_through_chained_components(z2z3):
    # an outer full-Cayley component shields an inner one; removing the
    # outer one exposes the inner one, which must then go too
    g = LabeledGraph()
    v0, p, q = g.add_vertex(), g.add_vertex(), g.add_vertex()
    g.add_edge(v0, v0, Letter(1, 0, 1))      # a-loop: the real content
    for s, t in [(v0, p), (p, q), (q, v0)]:
        g.add_edge(s, t, Letter(2, 0, 1))    # full Cayley(Z3) through v0
    r = g.add_vertex()
    g.add_edge(p, r, Letter(1, 0, 1))        # full Cayley(Z2) hanging off p
    g.add_edge(r, p, Letter(1, 0, 1))
    assert certify(g, g.basepoint, z2z3)[0]
    h = prune_redundant(g, v0, z2z3, scan(g, z2z3))
    assert h.vertices() == [v0]
    assert h.edge_count() == 1
    assert certify(h, v0, z2z3)[1].ok


def test_is_precover_rejects_disconnected(z2z3):
    g = LabeledGraph()
    g.add_vertex()
    v = g.add_vertex()
    g.add_edge(v, v, Letter(1, 0, 1))
    res = certify(g, g.basepoint, z2z3)[1]
    assert not res.ok and "connected" in res.reason


# factors for the cover property test, each paired with a Z2 it never uses
_COVER_PAIRS = {
    name: FactorPair(group, make_cyclic(2, "z"))
    for name, group in {
        "Z2": make_cyclic(2, "a"),
        "Z4": make_cyclic(4, "a"),
        "Z6": make_cyclic(6, "a"),
        "Klein": from_presentation(["u", "v"], ["u^2", "v^2", "u v u^-1 v^-1"], cap=32),
        "S3": from_presentation(["s", "t"], ["s^2", "t^3", "s t s t"], cap=32),
        "D4": from_presentation(["r", "f"], ["r^4", "f^2", "f r f r"], cap=32),
    }.items()
}


def _is_coset_graph(g, comp, pair):
    """Reference cover test: compare against the coset graph of the loop
    subgroup by a pointed isomorphism walk."""
    group = pair.factor(comp.factor)
    v = comp.min_vertex
    stab = _schreier_walk(g, v, group, comp)[0]
    expected = coset_graph(group, stab, factor=comp.factor)
    piece = subgraph(g, comp.vertices, comp.edges, v)
    return pointed_iso(piece, piece.basepoint, expected, expected.basepoint)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cover_count_agrees_with_coset_graph_isomorphism(data):
    # one random permutation per generator makes every component saturated
    # and well-labelled; the component of vertex 0 may or may not be a cover
    pair = _COVER_PAIRS[data.draw(st.sampled_from(sorted(_COVER_PAIRS)))]
    group = pair.factor1
    n = data.draw(st.integers(1, 2 * group.order))
    g = LabeledGraph()
    for _ in range(n):
        g.add_vertex()
    for gi in range(len(group.generators)):
        for v, w in enumerate(data.draw(st.permutations(range(n)))):
            g.add_edge(v, w, Letter(1, gi, 1))
    comp = next(c for c in components(g) if 0 in c.vertices)
    assert component_is_cover(g, comp, pair) == _is_coset_graph(g, comp, pair)


_READ_PAIRS = {
    "Z2*Z3": FactorPair(make_cyclic(2, "a"), make_cyclic(3, "b")),
    "Z4*Z6": FactorPair(make_cyclic(4, "x"), make_cyclic(6, "y")),
}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_pass_readers_agree_with_references(data):
    # a graph from some stage of the pipeline, then a few edges deleted so
    # that components split and covers lose letters
    pair = _READ_PAIRS[data.draw(st.sampled_from(sorted(_READ_PAIRS)))]
    word = st.lists(st.sampled_from(pair.all_letters()), min_size=1, max_size=8)
    gens = data.draw(st.lists(word, min_size=1, max_size=4))
    stage = data.draw(st.sampled_from(("folded", "hair-cut", "saturated", "pruned")))
    g = fold_all(bouquet([tuple(w) for w in gens], pair))
    if stage != "folded":
        g = cut_hairs(g)
    if stage in ("saturated", "pruned"):
        g = saturate(g, pair)
    if stage == "pruned":
        g = prune_redundant(g, g.basepoint, pair, scan(g, pair))
    edges = g.edges()
    dead = data.draw(st.lists(st.sampled_from(edges), unique=True, max_size=3)) if edges else []
    for e in dead:
        g.remove_edge(data.draw(st.sampled_from((e, e ^ 1))))
    before = dump(g, pair)
    for e in dead:
        g.remove_edge(e)
        g.remove_edge(e ^ 1)
    assert dump(g, pair) == before
    halves = sorted(e for v in g.vertices() for e in half_edges(g, v))
    assert halves == sorted(h for e in g.edges() for h in (e, e ^ 1))

    comps = components(g)
    assert comps == reference_components(g)
    for comp in comps:
        why = _cover_defect(g, comp, pair)
        assert why == reference_cover_defect(g, comp, pair)
        if why is not None and "not saturated" in why:
            continue
        group = pair.factor(comp.factor)
        for v in comp.vertices:
            stab, tree = reference_stabilizer(g, v, group, comp)
            assert _schreier_walk(g, v, group, comp)[0] == stab
            if why is None:
                assert basic_step(g, comp, v, pair) == (stab, tree)


_SATURATE_PAIRS = {
    **_READ_PAIRS,
    "S3*Z4": FactorPair(_COVER_PAIRS["S3"].factor1, make_cyclic(4, "x")),
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_pass_saturate_matches_the_fixpoint_loop(data):
    # a random connected labelled graph over the pair's letters, folded and
    # hair-cut: one gluing pass must already leave a precover
    pair = _SATURATE_PAIRS[data.draw(st.sampled_from(sorted(_SATURATE_PAIRS)))]
    letter = st.sampled_from(pair.all_letters())
    n = data.draw(st.integers(1, 8))
    g = LabeledGraph()
    for _ in range(n):
        g.add_vertex()
    for v in range(1, n):
        g.add_edge(data.draw(st.integers(0, v - 1)), v, data.draw(letter))
    vertex = st.integers(0, n - 1)
    for u, v, l in data.draw(st.lists(st.tuples(vertex, vertex, letter), max_size=8)):
        g.add_edge(u, v, l)
    g = cut_hairs(fold_all(g))
    h = saturate(g, pair)
    assert certify(h, h.basepoint, pair)[0]
    assert dump(h, pair) == dump(reference_saturate(g, pair), pair)


def _draw_graph(data, pair):
    """A random connected labelled graph over the pair's letters, folded
    and hair-cut."""
    letter = st.sampled_from(pair.all_letters())
    n = data.draw(st.integers(1, 8))
    g = LabeledGraph()
    for _ in range(n):
        g.add_vertex()
    for v in range(1, n):
        g.add_edge(data.draw(st.integers(0, v - 1)), v, data.draw(letter))
    vertex = st.integers(0, n - 1)
    for u, v, l in data.draw(st.lists(st.tuples(vertex, vertex, letter), max_size=8)):
        g.add_edge(u, v, l)
    return cut_hairs(fold_all(g))


def _hang_cayley_graphs(data, g, pair):
    """Glue full factor Cayley graphs, each by its identity, onto vertices
    with no edge of that factor: chains of redundant components."""
    for _ in range(data.draw(st.integers(0, 6))):
        v = data.draw(st.sampled_from(g.vertices()))
        factor = data.draw(st.sampled_from((1, 2)))
        if any(g.label(e).factor == factor for e in half_edges(g, v)):
            continue
        group = pair.factor(factor)
        g._union(v, _append_cayley(g, group, factor) + group.identity)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_prune_matches_the_rescanning_loop(data):
    # the heap of victims, fed by the one scan, drops the same components
    # in the same order as scanning again after every victim; unsaturated
    # graphs keep their non-covers
    pair = _SATURATE_PAIRS[data.draw(st.sampled_from(sorted(_SATURATE_PAIRS)))]
    g = _draw_graph(data, pair)
    if data.draw(st.booleans()):
        g = saturate(g, pair)
    _hang_cayley_graphs(data, g, pair)
    v0 = data.draw(st.sampled_from(g.vertices()))
    h = prune_redundant(g, v0, pair, scan(g, pair))
    want = reference_prune(g, v0, pair)
    event("pruned" if h.vertex_count() < g.vertex_count() else "nothing pruned")
    assert dump(h, pair) == dump(want, pair)
    assert h.vertices() == want.vertices()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_certification_matches_the_fresh_scan(data):
    # subgroup_graph certifies from the records of the scan that prune
    # read; a fresh scan of the final graph must give the same verdict,
    # also with a stage skipped or an edge deleted after pruning
    pair = _SATURATE_PAIRS[data.draw(st.sampled_from(sorted(_SATURATE_PAIRS)))]
    word = st.lists(st.sampled_from(pair.all_letters()), min_size=1, max_size=8)
    gens = [tuple(w) for w in data.draw(st.lists(word, max_size=4))]
    variant = data.draw(st.sampled_from(("pipeline", "saturate", "prune", "edge deleted")))
    real = freeprod.precover.prune_redundant

    def damaged(g, *rest):
        h = real(g, *rest)
        if h.edges():
            h.remove_edge(data.draw(st.sampled_from(h.edges())))
        return h

    stage, skip = {
        "pipeline": ("saturate", saturate),
        "saturate": ("saturate", lambda g, *rest: g),
        "prune": ("prune_redundant", lambda g, *rest: g),
        "edge deleted": ("prune_redundant", damaged),
    }[variant]
    with mock.patch.object(freeprod.precover, stage, skip):
        sg = subgroup_graph(gens, pair)
    ok, verdict = reference_certify(sg.graph, sg.graph.basepoint, pair)
    event(f"{variant}: precover {ok}, reduced {verdict.ok}")
    assert (sg.precover_ok, sg.reduced_ok) == (ok, verdict.ok)
    if variant == "edge deleted" and not ok:
        assert sg.reason is not None   # the fresh scan names the split component
    else:
        assert sg.reason == verdict.reason


def test_certification_reads_bichromatic_vertices_again(z2z3, monkeypatch):
    # <a, b a b^-1> is a b-triangle with an a-loop at two of its vertices.
    # Deleting the loop away from the basepoint after pruning leaves the
    # triangle touching the rest of the graph at the basepoint alone, so
    # its bichromatic vertices must be read again to find it redundant
    a, b = Letter(1, 0, 1), Letter(2, 0, 1)
    real = freeprod.precover.prune_redundant

    def damaged(g, *rest):
        h = real(g, *rest)
        v = h.term(h.out_edge(h.basepoint, b))
        h.remove_edge(h.out_edge(v, a))
        return h

    monkeypatch.setattr(freeprod.precover, "prune_redundant", damaged)
    sg = subgroup_graph([(a,), (b, a, b.inverse())], z2z3)
    assert sg.precover_ok and not sg.reduced_ok
    assert sg.reason == "component 1 (factor 2) is redundant"
    assert reference_certify(sg.graph, sg.graph.basepoint, z2z3)[1].reason == sg.reason


def test_a_doubled_letter_after_saturation_fails_certification(z2z3, monkeypatch):
    # the scan after saturation tests covers before certification checks
    # the labels; a doubled letter is a certification failure, not a raise
    real = freeprod.precover.saturate

    def doubled(g, pair):
        h = real(g, pair)
        h.add_edge(h.basepoint, h.basepoint, Letter(1, 0, 1))
        return h

    monkeypatch.setattr(freeprod.precover, "saturate", doubled)
    sg = subgroup_graph([parse_word("a", z2z3)], z2z3)
    assert not sg.precover_ok and sg.reason == "graph is not well-labelled"
