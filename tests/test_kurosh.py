import dataclasses
import os
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freeprod
from freeprod import (
    FactorPair,
    InvariantError,
    components,
    contains,
    decompose,
    from_presentation,
    make_cyclic,
    parse_word,
    presentation,
    subgroup_graph,
    verify,
)
from freeprod.kurosh import _emitted_words, basic_step, free_basis, mcc
from freeprod.lgraph import LabeledGraph, bouquet, dump, fold_all, pointed_iso, spanning_tree, trace
from freeprod.precover import SubgroupGraph
from freeprod.words import Letter, normalize

from helpers import (
    cayley_graph,
    equal_in_G,
    half_edges,
    random_subgroups,
    rank_by_count,
    reference_components,
    reference_cover_defect,
    reference_decompose,
    subgraph,
    syllable_length,
)

X = Letter(1, 0, 1)
Y = Letter(2, 0, 1)

def test_mcc_trivial(z2z3):
    sg = subgroup_graph([], z2z3)
    assert mcc(sg.graph, z2z3) == []


def test_mcc_is_the_cover_filter(z2z3, z4z6):
    # folded bouquets hold covers and non-covers side by side; mcc keeps
    # exactly the covers, in components() order, by independent checks
    rng = random.Random(71)
    kept = dropped = 0
    for pair in (z2z3, z4z6):
        for gens in random_subgroups(rng, pair, 30, max_len=8):
            g = fold_all(bouquet(gens))
            comps = reference_components(g)
            want = [c for c in comps if reference_cover_defect(g, c, pair) is None]
            assert mcc(g, pair) == want, gens
            kept += len(want)
            dropped += len(comps) - len(want)
    assert kept and dropped


def test_mcc_ignores_trees(z4z6):
    # a path x y x^2 y^-1: every one-colour component is a tree, so none
    # is a cover
    g = LabeledGraph()
    verts = [g.add_vertex() for _ in range(6)]
    letters = [X, Y, X, X, Y.inverse()]
    for k, letter in enumerate(letters):
        g.add_edge(verts[k], verts[k + 1], letter)
    comps = components(g)
    assert [len(c.edges) for c in comps] == [1, 1, 2, 1]
    assert mcc(g, z4z6) == []


def test_basic_step_component_at_basepoint(z2z3, psl2_sg):
    g = psl2_sg.graph
    before = dump(g, z2z3)
    comp = next(c for c in mcc(g, z2z3) if g.basepoint in c.vertices)
    stab, tree = basic_step(g, comp, g.basepoint, z2z3)
    # the basepoint component of the worked example is a full 2-cycle:
    # trivial loop subgroup, so only its spanning tree is kept
    assert stab == frozenset({z2z3.factor(comp.factor).identity})
    assert tree < set(comp.edges) and len(tree) == len(comp.vertices) - 1
    assert dump(g, z2z3) == before


def test_basic_step_extracts_conjugated_factor(z2z3, psl2_sg):
    d = decompose(psl2_sg)
    assert len(d.factors) == 1
    f = d.factors[0]
    assert f.factor == 1 and f.order == 2
    # conjugator is ab^2 up to equality in the free product
    conj = parse_word("a b^2", z2z3)
    assert equal_in_G(f.conjugator, conj, z2z3)
    assert f.conjugator_nf.syllables == ((1, 1), (2, 2))


def test_basic_step_validates_inputs(z2z3, psl2_sg):
    g = psl2_sg.graph
    order = mcc(g, z2z3)
    comp = order[0]
    outside = next(v for v in g.vertices() if v not in comp.vertices)
    with pytest.raises(ValueError):
        basic_step(g, comp, outside, z2z3)
    assert g.edge_count() == psl2_sg.graph.edge_count()


def test_decompose_trivial(z2z3):
    sg = subgroup_graph([], z2z3)
    d = decompose(sg)
    assert d.factors == () and d.free_basis == ()
    assert verify(d, sg).ok


def test_decompose_psl2_subgroup(z2z3, psl2_sg):
    d = decompose(psl2_sg)
    assert len(d.factors) == 1
    assert d.factors[0].order == 2 and d.factors[0].factor == 1
    assert d.free_rank == 1
    assert verify(d, psl2_sg).ok


def test_decompose_single_factor_generator(z2z3):
    sg = subgroup_graph([parse_word("a", z2z3)], z2z3)
    d = decompose(sg)
    assert len(d.factors) == 1
    f = d.factors[0]
    assert f.conjugator == () and f.factor == 1 and f.order == 2
    assert d.free_rank == 0
    assert verify(d, sg).ok


def test_decompose_whole_group(z2z3):
    sg = subgroup_graph([parse_word("a", z2z3), parse_word("b", z2z3)], z2z3)
    d = decompose(sg)
    assert sorted((f.factor, f.order) for f in d.factors) == [(1, 2), (2, 3)]
    assert d.free_rank == 0
    assert verify(d, sg).ok


def test_free_basis_tree_and_loop(z2z3):
    g = bouquet([parse_word("a b", z2z3)])
    g = fold_all(g)
    # both monochromatic components are single edges, hence trees
    basis = free_basis(g, g.basepoint, set(g.edges()))
    assert len(basis) == 1 and len(basis[0]) == 2
    # without the a-edge the b-edge is a tree on its own
    b_edge = next(e for e in g.edges() if g.label(e).factor == 2)
    assert free_basis(g, g.basepoint, {b_edge}) == []

    tree = bouquet([])
    assert free_basis(tree, tree.basepoint, set()) == []


def test_decompose_rejects_an_edge_outside_every_cover(z4z6):
    # a lone x-edge is a tree but no cover: no basic step reads it, so it
    # is no part of Delta and the edge count refuses the graph
    g = LabeledGraph()
    g.add_edge(g.add_vertex(), g.add_vertex(), X)
    with pytest.raises(InvariantError, match="non-tree"):
        decompose(SubgroupGraph(g, z4z6, (), precover_ok=False, reduced_ok=False))


def test_free_basis_psl2_delta(z2z3, psl2_sg):
    # Delta replaces each cover of the worked example by its tree
    d = decompose(psl2_sg)
    assert d.free_rank == rank_by_count(psl2_sg) == 1
    assert list(d.free_basis) == reference_decompose(psl2_sg)[1]


def test_presentation_trivial(z2z3):
    sg = subgroup_graph([], z2z3)
    pres = presentation(decompose(sg), z2z3)
    assert pres.generators == () and pres.relators == ()


def test_presentation_psl2_subgroup(z2z3, psl2_sg):
    pres = presentation(decompose(psl2_sg), z2z3)
    assert len(pres.generators) == 2
    assert len(pres.relators) == 1
    (rel,) = pres.relators
    assert rel == ((pres.generators[1], 1), (pres.generators[1], 1))
    assert not pres.fallback


def test_presentation_cube_relator(z2z3):
    sg = subgroup_graph([parse_word("b", z2z3)], z2z3)
    pres = presentation(decompose(sg), z2z3)
    assert len(pres.generators) == 1
    (rel,) = pres.relators
    assert rel == ((pres.generators[0], 1),) * 3


def test_verify_detects_corruption(z2z3, psl2_sg):
    d = decompose(psl2_sg)
    good = d.factors[0]
    bad = dataclasses.replace(good, conjugator=parse_word("b", z2z3) + good.conjugator)
    d_bad = dataclasses.replace(d, factors=(bad,))
    assert not verify(d_bad, psl2_sg).ok
    # a dropped factor or basis word: every emitted word still lies in the
    # subgroup, so only the rebuild can tell
    assert len(d.factors) == 1 and len(d.free_basis) == 1
    for d_bad in (dataclasses.replace(d, factors=()), dataclasses.replace(d, free_basis=())):
        assert all(contains(psl2_sg, w) for w in _emitted_words(d_bad, z2z3))
        assert not verify(d_bad, psl2_sg).ok


def test_factor_count_and_rank_formula(z2z3, z4z6):
    rng = random.Random(31)
    for pair in (z2z3, z4z6):
        for gens in random_subgroups(rng, pair, 10, max_len=6):
            sg = subgroup_graph(gens, pair)
            d = decompose(sg)
            assert len(d.factors) <= len(mcc(sg.graph, pair))
            assert d.free_rank == rank_by_count(sg)
            assert verify(d, sg).ok


def test_freeness_criterion_matches_structure(z2z3, z4z6):
    rng = random.Random(47)
    for pair in (z2z3, z4z6):
        for gens in random_subgroups(rng, pair, 10, max_len=6):
            sg = subgroup_graph(gens, pair)
            d = decompose(sg)
            all_full = True
            for comp in components(sg.graph):
                piece = subgraph(sg.graph, comp.vertices, comp.edges, comp.min_vertex)
                full = cayley_graph(pair.factor(comp.factor), factor=comp.factor)
                ok = False
                for v in full.vertices():
                    if pointed_iso(piece, piece.basepoint, full, v):
                        ok = True
                        break
                all_full = all_full and ok
            assert (len(d.factors) == 0) == all_full


def test_basis_words_are_normal_loops(z2z3, z4z6):
    rng = random.Random(53)
    for pair in (z2z3, z4z6):
        for gens in random_subgroups(rng, pair, 8, max_len=6):
            sg = subgroup_graph(gens, pair)
            d = decompose(sg)
            for w in d.free_basis:
                assert syllable_length(normalize(w, pair)) > 0
                # each maximal one-color run of the loop is an unclosed
                # path in the certified graph
                bp = sg.graph.basepoint
                cur = bp
                k = 0
                while k < len(w):
                    j = k
                    while j < len(w) and w[j].factor == w[k].factor:
                        j += 1
                    t = trace(sg.graph, cur, w[k:j])
                    assert t is not None and t != cur
                    cur = t
                    k = j
                assert cur == bp


def test_factor_count_equals_mcc_minus_trivial_markers(z2z3, z4z6):
    # independent marker count: a cover component contributes no factor
    # exactly when its loop subgroup is trivial, a basepoint-free property
    from freeprod.fingroup import _schreier_walk

    rng = random.Random(61)
    for pair in (z2z3, z4z6):
        for gens in random_subgroups(rng, pair, 8, max_len=6):
            sg = subgroup_graph(gens, pair)
            order = mcc(sg.graph, pair)
            d = decompose(sg)
            trivial = 0
            for comp in order:
                group = pair.factor(comp.factor)
                stab = _schreier_walk(sg.graph, comp.min_vertex, group, comp)[0]
                trivial += stab == frozenset({group.identity})
            assert len(d.factors) == len(order) - trivial
            assert (len(d.factors) == len(order)) == (trivial == 0)


_ORDER_PAIRS = (
    FactorPair(make_cyclic(2, "a"), make_cyclic(3, "b")),
    FactorPair(make_cyclic(4, "x"), make_cyclic(6, "y")),
    FactorPair(from_presentation(("s", "t"), ["s^2", "t^3", "s t s t"]), make_cyclic(4, "r")),
)


@st.composite
def _subgroups(draw):
    pair = draw(st.sampled_from(_ORDER_PAIRS))
    word = st.lists(st.sampled_from(pair.all_letters()), max_size=10).map(tuple)
    return pair, draw(st.lists(word, min_size=1, max_size=4))


@settings(max_examples=200, deadline=None)
@given(_subgroups())
def test_factors_are_listed_in_bfs_order(case):
    # basepoint ranks in the BFS order of the tree from the basepoint
    # never decrease down the list, factor 1 comes first at a shared
    # basepoint, and so conjugator lengths never decrease
    pair, gens = case
    sg = subgroup_graph(gens, pair)
    d = decompose(sg)
    tree = spanning_tree(sg.graph, sg.graph.basepoint, None)
    rank = {v: i for i, v in enumerate(tree.order)}
    keys = [(rank[f.basepoint], f.factor) for f in d.factors]
    assert keys == sorted(set(keys))
    lengths = [len(f.conjugator) for f in d.factors]
    assert lengths == sorted(lengths)


@settings(max_examples=300, deadline=None)
@given(_subgroups())
def test_decompose_matches_the_working_copy_reading(case):
    # reading Delta as the covers' kept tree edges gives the factors and
    # the free basis of deleting every other cover edge from a copy, and
    # the certified graph is left as it was
    pair, gens = case
    sg = subgroup_graph(gens, pair)
    before = dump(sg.graph, pair)
    d = decompose(sg)
    assert dump(sg.graph, pair) == before
    factors, basis, delta = reference_decompose(sg)
    assert [(f.conjugator, f.factor, f.subgroup, f.basepoint) for f in d.factors] == factors
    assert list(d.free_basis) == basis
    assert d.free_rank == delta.edge_count() - delta.vertex_count() + 1 == rank_by_count(sg)


def test_factor_at_the_basepoint_is_listed_first(z2z3):
    # two conjugate copies of Z3: the unconjugated one sits at the
    # basepoint and comes first, although its cover's smallest vertex
    # is not the basepoint's
    gens = [parse_word(t, z2z3) for t in ("b", "a b^-1 a^-1 b^2 b^-1 a^2")]
    sg = subgroup_graph(gens, z2z3)
    d = decompose(sg)
    assert [(f.factor, f.order, f.conjugator) for f in d.factors] == [
        (2, 3, ()),
        (2, 3, parse_word("a", z2z3)),
    ]
    assert d.free_rank == 0
    assert verify(d, sg).ok


def _distances(g, source):
    """Plain BFS distances from ``source``, labels ignored."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for e in half_edges(g, v):
            w = g.term(e)
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def _check_conjugators(sg):
    # every conjugator reads a path in the certified graph that reaches
    # its component as early as any path can
    g = sg.graph
    bp = g.basepoint
    dist = _distances(g, bp)
    d = decompose(sg)
    for f in d.factors:
        comp = next(
            c for c in components(g) if c.factor == f.factor and f.basepoint in c.vertices
        )
        assert trace(g, bp, f.conjugator) == f.basepoint
        assert len(f.conjugator) == min(dist[v] for v in comp.vertices)
    assert verify(d, sg).ok


def test_conjugators_are_shortest_paths(z2z3, z4z6):
    rng = random.Random(67)
    for pair in (z2z3, z4z6):
        for gens in random_subgroups(rng, pair, 40, max_len=10):
            _check_conjugators(subgroup_graph(gens, pair))


def test_conjugator_through_a_cycle_of_components(z4z6):
    # the x-square at the basepoint and a y-hexagon meet at x and at x^-1,
    # three y-steps apart; the x-digon hanging one y-step past x^-1 is two
    # letters away that way, three the way the hexagon is entered first
    gens = [parse_word(t, z4z6) for t in ("x y^3 x", "x^-1 y^3 x^-1", "x^-1 y x^2 y^-1 x")]
    sg = subgroup_graph(gens, z4z6)
    (f,) = decompose(sg).factors
    assert f.conjugator == parse_word("x^-1 y", z4z6)
    _check_conjugators(sg)


def test_decompose_structured_z4z6(z4z6):
    cases = [
        # generators, expected (factor, order) multiset, expected rank
        ("x^2", [(1, 2)], 0),
        ("y^2", [(2, 3)], 0),
        ("x y", [], 1),
        ("x^2, y^3", [(1, 2), (2, 2)], 0),
        ("x, y", [(1, 4), (2, 6)], 0),
    ]
    for text, factors, rank in cases:
        gens = [parse_word(t.strip(), z4z6) for t in text.split(",")]
        sg = subgroup_graph(gens, z4z6)
        d = decompose(sg)
        assert sorted((f.factor, f.order) for f in d.factors) == factors, text
        assert d.free_rank == rank, text
        assert verify(d, sg).ok, text


def test_decompose_rejects_a_non_cover(z4z6):
    # a saturated x-3-cycle is no cover of Z4, so no basic step removes it
    g = LabeledGraph()
    verts = [g.add_vertex() for _ in range(3)]
    for k, v in enumerate(verts):
        g.add_edge(v, verts[(k + 1) % 3], Letter(1, 0, 1))
    sg = SubgroupGraph(g, z4z6, (), precover_ok=False, reduced_ok=False)
    with pytest.raises(InvariantError, match="non-tree"):
        decompose(sg)


_X_TRIANGLE_UNDER_O = """
from freeprod import FactorPair, InvariantError, decompose, make_cyclic
from freeprod.lgraph import LabeledGraph
from freeprod.precover import SubgroupGraph
from freeprod.words import Letter
pair = FactorPair(make_cyclic(4, "x"), make_cyclic(6, "y"))
g = LabeledGraph()
vs = [g.add_vertex() for _ in range(3)]
for k in range(3):
    g.add_edge(vs[k], vs[(k + 1) % 3], Letter(1, 0, 1))
try:
    decompose(SubgroupGraph(g, pair, (), False, False))
except InvariantError:
    print("InvariantError")
"""


def test_decompose_invariants_survive_optimize():
    # the same graph as above, in an interpreter that strips asserts
    src = str(Path(freeprod.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _X_TRIANGLE_UNDER_O],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stdout.strip() == "InvariantError", proc.stderr
