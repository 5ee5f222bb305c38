"""The folding pipeline: build, certify and query subgroup graphs.

The pipeline turns a generating set into the unique reduced precover
determining the subgroup: wedge the generators into a bouquet, fold and cut
hairs, complete every monochromatic component to a cover of its factor by
gluing factor Cayley graphs, then discard redundant components.  Membership
of a word then reduces to tracing its normal form as a loop at the basepoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .fingroup import FactorPair, _append_cayley, schreier_stabilizer
from .lgraph import (
    InvariantError,  # re-exported: the one class every layer raises
    LabeledGraph,
    MonoComponent,
    bouquet,
    components,
    cut_hairs,
    fold_all,
    trace,
)
from .words import Word, normal_to_word, normalize


class Verdict(NamedTuple):
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _covers(g: LabeledGraph, comp: MonoComponent, pair: FactorPair) -> bool:
    """The counting test for a saturated monochromatic component; raises
    ValueError from ``schreier_stabilizer`` when it is not saturated.

    One pass of ``schreier_stabilizer`` checks saturation and reads the
    loop subgroup.  Saturation alone is not enough: a component can be
    saturated yet fail to be based on the factor (a cycle of the wrong
    length, say).  Let S be the loop subgroup at a vertex v and t_u the
    element read along the spanning tree path from v to u.  Every edge
    u -x-> w has t_u x t_w^-1 in S, so u -> S t_u maps the saturated,
    well-labelled component onto the coset graph of S, bijectively on the
    edges at each vertex: a covering of degree |V| / [G:S].  The component
    is the coset graph exactly when that degree is one, that is when
    |V| * |S| = |G|.
    """
    group = pair.factor(comp.factor)
    stab = schreier_stabilizer(g, comp.min_vertex, group, within=comp)
    return len(comp.vertices) * len(stab) == group.order


def _cover_defect(g: LabeledGraph, comp: MonoComponent, pair: FactorPair) -> str | None:
    """Why a monochromatic component is not a cover of its factor, or None
    (the test is ``_covers``; a sorted scan names a missing letter)."""
    try:
        if _covers(g, comp, pair):
            return None
    except ValueError:
        for v in sorted(comp.vertices):
            for letter in pair.letters(comp.factor):
                if g.out_edge(v, letter) is None:
                    return (
                        f"is not saturated: vertex {v} has no edge labelled "
                        f"{pair.letter_name(letter)}"
                    )
        raise
    return "is saturated but is not a cover"


def component_is_cover(g: LabeledGraph, comp: MonoComponent, pair: FactorPair) -> bool:
    """Whether a monochromatic component is a coset Cayley graph of its
    factor (see ``_covers`` for the counting test)."""
    try:
        return _covers(g, comp, pair)
    except ValueError:
        return False


def saturate(g: LabeledGraph, pair: FactorPair) -> LabeledGraph:
    """Complete every monochromatic component of a folded graph to a cover
    of its factor in one pass: glue a copy of the factor's Cayley graph
    along the lowest edge of each non-cover (identity onto the edge's
    initial vertex), then fold once.

    The copy is saturated, so the fold drags all of the connected
    component C into it: C ends up in a quotient of Cayley(G).  A
    well-labelled, label-preserving quotient of Cayley(G) is the coset
    graph of {g : g ~ 1}, because the identification is a right
    congruence.  After the fold each component is made of images of such
    pieces and of former covers, so every letter permutes its vertices and
    every relator reads a closed path from each of them: it is a cover.
    ``subgroup_graph``'s certification is the one check of this argument.
    """
    h = g.copy()
    bad = [comp for comp in components(h) if not component_is_cover(h, comp, pair)]
    seeds = []
    for comp in bad:
        e = comp.edges[0]
        group = pair.factor(comp.factor)
        base = _append_cayley(h, group, comp.factor)
        # identify the copy's identity with the edge's initial vertex and
        # the two copies of the edge; folding finishes the identification
        seeds.append(h._union(h.init(e), base + group.identity))
        seeds.append(h._union(h.term(e), h.find(base + pair.letter_element(h.label(e)))))
    h._fold_inplace(seeds=seeds)
    return h


def _redundant(comp: MonoComponent, v0: int, pair: FactorPair) -> bool:
    """The redundancy rule, for a component known to be a cover: a full
    factor Cayley graph (a cover with |G| vertices) that touches the rest
    of the graph in at most one vertex, without the basepoint among its
    monochromatic vertices."""
    return (
        len(comp.vertices) == pair.factor(comp.factor).order
        and len(comp.vb) <= 1
        and (v0 not in comp.vertices or v0 in comp.vb)
    )


def _collapses(g: LabeledGraph, comps: list[MonoComponent], pair: FactorPair) -> bool:
    """Whether the whole graph is one full factor Cayley graph, which
    collapses to the basepoint; for a component known to be a cover.  A
    lone component has no bichromatic vertices."""
    return (
        len(comps) == 1
        and comps[0].vertices == frozenset(g.vertices())
        and len(comps[0].vertices) == pair.factor(comps[0].factor).order
    )


def prune_redundant(g: LabeledGraph, v0: int, pair: FactorPair) -> LabeledGraph:
    """Drop redundant components of a precover, keeping attaching vertices.

    A component is redundant when it is a full factor Cayley graph (trivial
    loop subgroup), touches the rest of the graph in at most one vertex and
    does not carry the basepoint among its monochromatic vertices.  If what
    remains is a lone factor Cayley graph with no bichromatic vertices, the
    whole graph collapses to the basepoint: it determines the trivial
    subgroup.
    """
    h = g.copy()
    v0 = h.find(v0)
    while True:
        comps = components(h)
        victim = next(
            (c for c in comps if _redundant(c, v0, pair) and component_is_cover(h, c, pair)),
            None,
        )
        if victim is None:
            break
        keep = set(victim.vb)
        for e in victim.edges:
            h.remove_edge(e)
        for v in sorted(victim.vertices):
            if v not in keep:
                h.remove_vertex(v)
    if _collapses(h, comps, pair) and component_is_cover(h, comps[0], pair):
        for e in comps[0].edges:
            h.remove_edge(e)
        for v in sorted(comps[0].vertices):
            if v != v0:
                h.remove_vertex(v)
    return h


@dataclass
class SubgroupGraph:
    """A labelled graph certified as the reduced precover of a subgroup."""

    graph: LabeledGraph
    pair: FactorPair
    generators: tuple[Word, ...]
    total_length: int
    precover_ok: bool
    reduced_ok: bool
    reason: str | None = None   # why the first failed check (precover, reduced) failed

    @property
    def vertex_count(self) -> int:
        return self.graph.vertex_count()

    @property
    def edge_count(self) -> int:
        return self.graph.edge_count()


def subgroup_graph(gens, pair: FactorPair) -> SubgroupGraph:
    """Run the full pipeline on a generating set and certify the result."""
    gens = tuple(tuple(w) for w in gens)
    g = bouquet(gens, pair)
    g = cut_hairs(fold_all(g))
    g = saturate(g, pair)
    g = prune_redundant(g, g.basepoint, pair)
    comps = components(g)
    pre = _precover(g, comps, pair)
    red = _reduced(g, comps, g.basepoint, pair) if pre.ok else pre
    return SubgroupGraph(
        graph=g,
        pair=pair,
        generators=gens,
        total_length=sum(len(w) for w in gens),
        precover_ok=pre.ok,
        reduced_ok=red.ok,
        reason=red.reason,
    )


def is_precover(g: LabeledGraph, pair: FactorPair) -> Verdict:
    """Check that every monochromatic component is a cover of its factor."""
    return _precover(g, components(g), pair)


def _precover(g: LabeledGraph, comps: list[MonoComponent], pair: FactorPair) -> Verdict:
    if not g.is_well_labelled():
        return Verdict(False, "graph is not well-labelled")
    if g.vertices() and not g.is_connected():
        return Verdict(False, "graph is not connected")
    for k, comp in enumerate(comps):
        why = _cover_defect(g, comp, pair)
        if why is not None:
            return Verdict(False, f"component {k} (factor {comp.factor}) {why}")
    return Verdict(True)


def is_reduced_precover(g: LabeledGraph, v0: int, pair: FactorPair) -> Verdict:
    """Check the no-redundant-components condition on a precover."""
    comps = components(g)
    pre = _precover(g, comps, pair)
    if not pre.ok:
        return Verdict(False, f"not a precover: {pre.reason}")
    return _reduced(g, comps, v0, pair)


def _reduced(g: LabeledGraph, comps: list[MonoComponent], v0: int, pair: FactorPair) -> Verdict:
    """The no-redundant-components condition on a certified precover."""
    v0 = g.find(v0)
    for k, comp in enumerate(comps):
        if _redundant(comp, v0, pair):
            return Verdict(False, f"component {k} (factor {comp.factor}) is redundant")
    if _collapses(g, comps, pair):
        return Verdict(False, "whole graph is a lone factor Cayley graph; it collapses to the basepoint")
    return Verdict(True)


def contains(sg: SubgroupGraph, w: Word) -> bool:
    """Membership of a word in the subgroup the graph determines.

    The normal form is rendered syllable by syllable and traced from the
    basepoint; the word is a member exactly when the trace closes up there.
    The components crossed are covers, so any representative word of a
    syllable traces to the same vertex.
    """
    nw = normalize(w, sg.pair)
    if not nw:
        return True
    path = normal_to_word(nw, sg.pair)
    t = trace(sg.graph, sg.graph.basepoint, path)
    return t.vertex == sg.graph.basepoint


def index_if_finite(sg: SubgroupGraph) -> int | None:
    """Subgroup index when the graph is fully saturated, else None.

    A fully saturated reduced precover is the whole coset Cayley graph, so
    its vertex count is the index; an unsaturated vertex means the index is
    infinite.  The graph is well-labelled, so a vertex carries each letter
    at most once, and it carries every letter exactly when its degree is
    the number of letters.
    """
    g, nletters = sg.graph, len(sg.pair.all_letters())
    verts = g.vertices()
    return len(verts) if all(g.degree(v) == nletters for v in verts) else None
