import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freeprod
from freeprod import FactorPair, components, decompose, make_cyclic, parse_word, subgroup_graph
from freeprod.lgraph import (
    LabeledGraph,
    bouquet,
    cut_hairs,
    dump,
    fold_all,
    pointed_iso,
    spanning_tree,
    to_dot,
    trace,
)
from freeprod.precover import prune_redundant, saturate
from freeprod.words import Letter

from helpers import cayley_graph, classify_vertices, half_edges, scan, set_basepoint, stuck_at

A = Letter(1, 0, 1)
B = Letter(2, 0, 1)


def test_bouquet_empty():
    g = bouquet([], None)
    assert g.vertex_count() == 1 and g.edge_count() == 0


def test_bouquet_two_loops(z2z3, psl2_words):
    g = bouquet(psl2_words, z2z3)
    assert g.vertex_count() == 1 + 3 + 5
    assert g.edge_count() == 10
    assert g.degree(g.basepoint) == 4  # both ends of both loops


def test_bouquet_single_letter():
    g = bouquet([(A,)], None)
    assert g.vertex_count() == 1 and g.edge_count() == 1
    e = g.edges()[0]
    assert g.init(e) == g.term(e) == g.basepoint


def test_fold_two_parallel_edges():
    g = LabeledGraph()
    v0, u, w = g.add_vertex(), g.add_vertex(), g.add_vertex()
    g.add_edge(v0, u, A)
    g.add_edge(v0, w, A)
    h = fold_all(g)
    assert h.vertex_count() == 2 and h.edge_count() == 1
    assert h.is_well_labelled()


def test_fold_idempotent(z2z3, psl2_words):
    g = fold_all(bouquet(psl2_words, z2z3))
    again = fold_all(g)
    assert pointed_iso(g, g.basepoint, again, again.basepoint)
    assert g.is_well_labelled()


def test_fold_double_loop():
    g = bouquet([(A,), (A,)], None)
    h = fold_all(g)
    assert h.vertex_count() == 1 and h.edge_count() == 1


def test_cut_hairs_removes_dangling_edge():
    g = LabeledGraph()
    v0, u = g.add_vertex(), g.add_vertex()
    g.add_edge(v0, v0, B)  # keep something at the basepoint
    g.add_edge(v0, u, A)   # the hair
    h = cut_hairs(g)
    assert h.vertex_count() == 1 and h.edge_count() == 1
    assert h.label(h.edges()[0]) == B


def test_cut_hairs_noop_on_hairless(z2z3):
    g = cayley_graph(make_cyclic(3, "b"), factor=2)
    h = cut_hairs(g)
    assert pointed_iso(g, g.basepoint, h, h.basepoint)


def test_cut_hairs_path_collapses_to_basepoint():
    g = LabeledGraph()
    v0, u, w = g.add_vertex(), g.add_vertex(), g.add_vertex()
    g.add_edge(v0, u, A)
    g.add_edge(u, w, B)
    h = cut_hairs(g)
    assert h.vertices() == [v0] and h.edge_count() == 0


def test_trace_empty_word():
    g = bouquet([(A,)], None)
    assert trace(g, g.basepoint, ()) == g.basepoint


def test_trace_relator_loops_on_cayley():
    g = cayley_graph(make_cyclic(3, "b"), factor=2)
    for v in g.vertices():
        assert trace(g, v, (B, B, B)) == v


def test_trace_on_subgroup_graph(z2z3, psl2_sg):
    w = parse_word("a b a^-1 b^-1", z2z3)
    bp = psl2_sg.graph.basepoint
    assert trace(psl2_sg.graph, bp, w) == bp


def test_trace_stuck_position():
    g = bouquet([(A,)], None)
    assert trace(g, g.basepoint, (A, B, A)) is None
    assert stuck_at(g, g.basepoint, (A, B, A)) == 1


def test_components_two_letter_loop(z2z3):
    g = fold_all(bouquet([parse_word("a b", z2z3)], z2z3))
    comps = components(g)
    assert len(comps) == 2
    assert {c.factor for c in comps} == {1, 2}
    for c in comps:
        assert len(c.edges) == 1
        assert c.vb == c.vertices  # both endpoints see both colors
    assert set(classify_vertices(g).values()) == {"VB"}


def test_components_cayley_is_single(z2z3):
    g = cayley_graph(make_cyclic(6, "y"), factor=2)
    comps = components(g)
    assert len(comps) == 1
    assert comps[0].vb == frozenset()
    assert comps[0].vertices - comps[0].vb == frozenset(g.vertices())


def test_components_isolated_vertex():
    g = LabeledGraph()
    g.add_vertex()
    assert components(g) == []
    assert classify_vertices(g) == {0: "isolated"}


def test_spanning_tree_shapes():
    g = bouquet([], None)
    t = spanning_tree(g, g.basepoint, None)
    assert t.geo_edges == frozenset() and t.order == [g.basepoint]

    g3 = cayley_graph(make_cyclic(3, "b"), factor=2)
    t3 = spanning_tree(g3, 0, None)
    assert len(t3.geo_edges) == 2
    assert len([e for e in g3.edges() if e not in t3.geo_edges]) == 1

    g6 = cayley_graph(make_cyclic(6, "y"), factor=2)
    assert len(spanning_tree(g6, 0, None).geo_edges) == 5
    # an edge set confines the tree to the edges it names
    assert spanning_tree(g3, 0, t3.geo_edges).geo_edges == t3.geo_edges
    path = spanning_tree(g6, 0, set(g6.edges()) - {g6.out_edge(0, B) & ~1})
    assert len(path.geo_edges) == 5 and len(path.word_to(1)) == 5
    alone = spanning_tree(g6, 0, set())
    assert alone.geo_edges == frozenset() and alone.order == [0]


def test_pointed_iso_basic():
    g = cayley_graph(make_cyclic(4, "x"))
    assert pointed_iso(g, g.basepoint, g, g.basepoint)
    h = cayley_graph(make_cyclic(6, "y"))
    assert not pointed_iso(g, g.basepoint, h, h.basepoint)


def test_pointed_iso_same_subgroup_different_generators(z2z3, psl2_words, psl2_sg):
    h1, h2 = psl2_words
    other = subgroup_graph([h2, h1 + h2], z2z3)
    assert pointed_iso(
        other.graph, other.graph.basepoint, psl2_sg.graph, psl2_sg.graph.basepoint
    )


def test_to_dot_single_vertex():
    g = bouquet([], None)
    text = to_dot(g)
    assert text.startswith("digraph")
    assert "doublecircle" in text
    assert "->" not in text


def test_to_dot_cayley_z2(z2z3):
    g = cayley_graph(make_cyclic(2, "a"))
    text = to_dot(g, z2z3)
    nodes = [l for l in text.splitlines() if "shape=" in l]
    arrows = [l for l in text.splitlines() if "->" in l]
    assert len(nodes) == 2
    assert len(arrows) == 2  # a 2-cycle: one arrow per geometric edge
    assert all('label="a"' in l for l in arrows)


def test_to_dot_psl2_graph(z2z3, psl2_sg):
    text = to_dot(psl2_sg.graph, z2z3)
    nodes = [l for l in text.splitlines() if "shape=" in l]
    assert len(nodes) == psl2_sg.vertex_count
    assert "color=blue" in text and "color=red" in text
    assert text == to_dot(psl2_sg.graph, z2z3)  # deterministic


def test_dump_deterministic(z2z3, psl2_sg):
    d = dump(psl2_sg.graph, z2z3)
    assert d == dump(psl2_sg.graph, z2z3)
    assert len(d.splitlines()) == psl2_sg.edge_count


from helpers import naive_random_fold as _naive_random_fold
from helpers import random_labelled_graph as _random_graph


def test_fold_order_independence():
    rng = random.Random(99)
    for _ in range(120):
        g = _random_graph(rng)
        ours = fold_all(g)
        ref = _naive_random_fold(g, rng)
        assert ours.is_well_labelled() and ref.is_well_labelled()
        assert pointed_iso(ours, ours.basepoint, ref, ref.basepoint)


_LETTERS = [A, A.inverse(), B, B.inverse()]


@st.composite
def _labelled_graphs(draw):
    """A connected labelled graph: a random tree plus random extra edges."""
    n = draw(st.integers(1, 8))
    g = LabeledGraph()
    for _ in range(n):
        g.add_vertex()
    letter = st.sampled_from(_LETTERS)
    for v in range(1, n):
        g.add_edge(draw(st.integers(0, v - 1)), v, draw(letter))
    vertex = st.integers(0, n - 1)
    for u, v, l in draw(st.lists(st.tuples(vertex, vertex, letter), max_size=10)):
        g.add_edge(u, v, l)
    return g


@settings(max_examples=300, deadline=None)
@given(_labelled_graphs(), st.randoms(use_true_random=False))
def test_fold_order_independence_property(g, rng):
    ours = fold_all(g)
    ref = _naive_random_fold(g, rng)
    assert ours.is_well_labelled() and ref.is_well_labelled()
    assert pointed_iso(ours, ours.basepoint, ref, ref.basepoint)


@settings(max_examples=300, deadline=None)
@given(_labelled_graphs(), st.data())
def test_counts_agree_with_the_lists(g, data):
    # folding merges vertices and drops edges, hair cutting kills both, and
    # a few more deletions leave deleted edge ids behind
    g = fold_all(g)
    if data.draw(st.booleans()):
        g = cut_hairs(g)
    edges = g.edges()
    for e in data.draw(st.lists(st.sampled_from(edges), unique=True, max_size=3)) if edges else []:
        g.remove_edge(e)
    for v in g.vertices():
        if v != g.basepoint and g.degree(v) == 0:
            g.remove_vertex(v)
    assert g.vertex_count() == len(g.vertices())
    assert g.edge_count() == len(g.edges())


def test_removed_elements_keep_no_state():
    g = LabeledGraph()
    u, v, w = (g.add_vertex() for _ in range(3))
    e = g.add_edge(u, v, A)
    f = g.add_edge(v, w, B)
    g.remove_edge(f)
    assert g.edges() == [e] and g.edge_count() == 1
    assert (g.init(f), g.term(f), g.init(f ^ 1)) == (-1, -1, -1)
    g.remove_edge(f ^ 1)   # deleting it again changes nothing
    assert half_edges(g, v) == [e ^ 1]
    g.remove_vertex(w)
    assert g.vertices() == [u, v] and g.vertex_count() == 2
    with pytest.raises(KeyError):
        g.add_edge(u, w, A)
    with pytest.raises(KeyError):
        g.degree(w)
    assert g.edges() == [e]   # the refused edge left nothing behind


def test_tree_words_survive_deleting_tree_edges():
    # the tree keeps its own words: deleting the edges it was built from
    # changes no word
    g = cayley_graph(make_cyclic(6, "y"), factor=2)
    tree = spanning_tree(g, 0, None)
    words = {v: tree.word_to(v) for v in tree.order}
    for v, word in words.items():
        assert trace(g, 0, word) == v
    assert len(words[3]) == 3
    for e in g.edges():
        g.remove_edge(e)
    assert {v: tree.word_to(v) for v in tree.order} == words


_INVARIANT_PAIRS = {
    "Z2*Z3": FactorPair(make_cyclic(2, "a"), make_cyclic(3, "b")),
    "Z4*Z6": FactorPair(make_cyclic(4, "x"), make_cyclic(6, "y")),
}


def _assert_endpoints_at_roots(g):
    """Every vertex with a list is a root, every listed half-edge starts
    there, and a half-edge in no list has no endpoint."""
    listed = set()
    for v, hs in g._out.items():
        assert g.find(v) == v, f"merged vertex {v} keeps a list"
        for h in hs:
            assert g._einit[h] == v, f"half-edge {h} in the list of {v} starts elsewhere"
            listed.add(h)
    for h, u in enumerate(g._einit):
        assert (h in listed) == (u >= 0), f"half-edge {h} (from {u}) is listed iff live"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_live_edges_start_at_roots_through_the_pipeline(data):
    pair = _INVARIANT_PAIRS[data.draw(st.sampled_from(sorted(_INVARIANT_PAIRS)))]
    word = st.lists(st.sampled_from(pair.all_letters()), min_size=1, max_size=8)
    gens = [tuple(w) for w in data.draw(st.lists(word, min_size=1, max_size=4))]
    g = bouquet(gens, pair)
    _assert_endpoints_at_roots(g)
    prune = lambda g: prune_redundant(g, g.basepoint, pair, scan(g, pair))
    for stage in (fold_all, cut_hairs, lambda g: saturate(g, pair), prune):
        g = stage(g)
        _assert_endpoints_at_roots(g)
    # decompose only reads the certified graph
    sg = subgroup_graph(gens, pair)
    before = (dump(sg.graph, pair), sg.graph.vertices(), sg.graph.basepoint)
    decompose(sg)
    assert (dump(sg.graph, pair), sg.graph.vertices(), sg.graph.basepoint) == before
    _assert_endpoints_at_roots(sg.graph)


def test_pointed_iso_is_equivalence():
    rng = random.Random(5)
    for _ in range(60):
        g = fold_all(_random_graph(rng))
        # an isomorphic copy built with shuffled construction order
        verts = g.vertices()
        perm = verts[:]
        rng.shuffle(perm)
        vmap = dict(zip(verts, perm))
        h = LabeledGraph()
        for _ in range(len(verts)):
            h.add_vertex()
        pos = {p: i for i, p in enumerate(sorted(perm))}
        edges = sorted(g.edges(), key=lambda e: vmap[g.init(e)])
        for e in edges:
            h.add_edge(pos[vmap[g.init(e)]], pos[vmap[g.term(e)]], g.label(e))
        set_basepoint(h, pos[vmap[g.basepoint]])
        assert pointed_iso(g, g.basepoint, g, g.basepoint)
        assert pointed_iso(g, g.basepoint, h, h.basepoint)
        assert pointed_iso(h, h.basepoint, g, g.basepoint)


def test_fold_then_pipeline_matches_pipeline(z2z3):
    # membership through the pipeline is unchanged by pre-folding the bouquet
    from freeprod.precover import prune_redundant, saturate

    rng = random.Random(11)
    letters = z2z3.all_letters()
    for _ in range(20):
        gens = [
            tuple(rng.choice(letters) for _ in range(rng.randint(1, 6)))
            for _ in range(rng.randint(1, 3))
        ]
        sg = subgroup_graph(gens, z2z3)
        g = fold_all(fold_all(bouquet(gens, z2z3)))  # pre-folded start
        g = cut_hairs(g)
        g = saturate(g, z2z3)
        g = prune_redundant(g, g.basepoint, z2z3, scan(g, z2z3))
        assert pointed_iso(g, g.basepoint, sg.graph, sg.graph.basepoint)


def test_dump_golden_cayley_z3(z2z3):
    g = cayley_graph(make_cyclic(3, "b"), factor=2)
    assert dump(g, z2z3) == "0 b -> 1\n1 b -> 2\n2 b -> 0\n"


_INVARIANTS_UNDER_O = """
import freeprod
from freeprod import InvariantError
from freeprod.lgraph import LabeledGraph
from freeprod.words import Letter

def attempt(f):
    try:
        f()
    except InvariantError:
        print("InvariantError")

attempt(lambda: LabeledGraph().basepoint)
g = LabeledGraph()
g.add_edge(g.add_vertex(), g.add_vertex(), Letter(1, 0, 1))
attempt(lambda: g.remove_vertex(0))
print(freeprod.InvariantError is freeprod.precover.InvariantError is freeprod.lgraph.InvariantError)
"""


def test_invariants_survive_optimize():
    # an empty graph's basepoint and a vertex removed with a live edge, in
    # an interpreter that strips asserts
    src = str(Path(freeprod.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _INVARIANTS_UNDER_O],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stdout.split() == ["InvariantError"] * 2 + ["True"], proc.stderr
