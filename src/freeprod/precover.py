"""The folding pipeline: build, certify and query subgroup graphs.

The pipeline turns a generating set into the unique reduced precover
determining the subgroup: wedge the generators into a bouquet, fold and cut
hairs, complete every monochromatic component to a cover of its factor by
gluing factor Cayley graphs, then discard redundant components.  The
bouquet is the only graph of the build: each stage edits it in place and
returns it, and the graph carries its basepoint.  One scan of the
saturated graph feeds both pruning and certification.  Membership
of a word then reduces to tracing its normal form as a loop at the basepoint.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Collection, NamedTuple

from .fingroup import FactorPair, _append_cayley, _schreier_walk
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


Record = tuple[MonoComponent, str | None]   # a component and why it is no cover, or None


class Verdict(NamedTuple):
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _covers(g: LabeledGraph, comp: MonoComponent, pair: FactorPair) -> bool:
    """The counting test for a saturated monochromatic component; raises
    ValueError from ``_schreier_walk`` when it is not saturated.

    One pass of ``_schreier_walk`` checks saturation and reads the loop
    subgroup.  Saturation alone is not enough: a component can be
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
    stab = _schreier_walk(g, comp.min_vertex, group, comp)[0]
    return len(comp.vertices) * len(stab) == group.order


def _cover_defect(g: LabeledGraph, comp: MonoComponent, pair: FactorPair) -> str | None:
    """Why a monochromatic component is not a cover of its factor, or None
    (the test is ``_covers``; a sorted scan names a missing letter, else
    one is doubled)."""
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
        return "is not well-labelled"
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
    of its factor in one pass, in place: glue a copy of the factor's
    Cayley graph along the lowest edge of each non-cover (identity onto
    the edge's initial vertex), then fold once.  Returns ``g``.

    The copy is saturated, so the fold drags all of the connected
    component C into it: C ends up in a quotient of Cayley(G).  A
    well-labelled, label-preserving quotient of Cayley(G) is the coset
    graph of {g : g ~ 1}, because the identification is a right
    congruence.  After the fold each component is made of images of such
    pieces and of former covers, so every letter permutes its vertices and
    every relator reads a closed path from each of them: it is a cover.
    ``subgroup_graph``'s certification is the one check of this argument.
    """
    bad = [comp for comp in components(g) if not component_is_cover(g, comp, pair)]
    seeds = []
    for comp in bad:
        e = comp.edges[0]
        group = pair.factor(comp.factor)
        base = _append_cayley(g, group, comp.factor)
        # identify the copy's identity with the edge's initial vertex and
        # the two copies of the edge; folding finishes the identification.
        # A fresh vertex never wins a merge (smaller class or larger id),
        # and no generator is the identity, so both ids are still live
        seeds.append(g._union(g.init(e), base + group.identity))
        seeds.append(g._union(g.term(e), base + pair.letter_element(g.label(e))))
    return fold_all(g, seeds)


def _redundant(comp: MonoComponent, vb: Collection[int], v0: int, pair: FactorPair) -> bool:
    """The redundancy rule, for a cover with bichromatic vertices ``vb``: a
    full factor Cayley graph (|G| vertices) that touches the rest of the
    graph in at most one vertex, without the basepoint among its
    monochromatic vertices."""
    return (
        len(comp.vertices) == pair.factor(comp.factor).order
        and len(vb) <= 1
        and (v0 not in comp.vertices or v0 in vb)
    )


def _collapses(g: LabeledGraph, comp: MonoComponent, pair: FactorPair) -> bool:
    """Whether a lone component, known to be a cover, is the whole graph
    and a full factor Cayley graph, which collapses to the basepoint."""
    return (
        comp.vertices == frozenset(g.vertices())
        and len(comp.vertices) == pair.factor(comp.factor).order
    )


def prune_redundant(g: LabeledGraph, pair: FactorPair, records: list[Record]) -> LabeledGraph:
    """Drop redundant components of a precover in place, keeping attaching
    vertices; returns ``g``.

    A component is redundant when it is a full factor Cayley graph (trivial
    loop subgroup), touches the rest of the graph in at most one vertex and
    does not carry ``g``'s basepoint among its monochromatic vertices.  If
    what remains is a lone factor Cayley graph with no bichromatic
    vertices, the whole graph collapses to the basepoint: it determines
    the trivial subgroup.

    ``records`` is the scan of ``g`` with each cover defect.  Removing a
    victim attached at w only stops w from being bichromatic in the one
    component of the other colour at w, so a heap of record indices takes
    the victims in ``components()`` order with no other scan; the rule is
    tested again at each pop, since the basepoint can leave a vb.
    """
    v0 = g.basepoint
    vb = [set(comp.vb) for comp, _ in records]
    at = {(v, comp.factor): k for k, (comp, _) in enumerate(records) for v in comp.vb}

    def redundant(k: int) -> bool:
        return records[k][1] is None and _redundant(records[k][0], vb[k], v0, pair)

    heap = [k for k in range(len(records)) if redundant(k)]   # sorted, so a heap
    gone: set[int] = set()
    while heap:
        k = heapq.heappop(heap)
        if k in gone or not redundant(k):
            continue
        gone.add(k)
        victim = records[k][0]
        for e in victim.edges:
            g.remove_edge(e)
        for v in victim.vertices - vb[k]:
            g.remove_vertex(v)
        for w in vb[k]:
            other = at[(w, 3 - victim.factor)]
            vb[other].discard(w)
            if redundant(other):
                heapq.heappush(heap, other)
    rest = [rec for k, rec in enumerate(records) if k not in gone]
    if len(rest) == 1 and rest[0][1] is None and _collapses(g, rest[0][0], pair):
        for e in rest[0][0].edges:
            g.remove_edge(e)
        for v in rest[0][0].vertices - {v0}:
            g.remove_vertex(v)
    return g


@dataclass
class SubgroupGraph:
    """A labelled graph certified as the reduced precover of a subgroup."""

    graph: LabeledGraph
    pair: FactorPair
    generators: tuple[Word, ...]
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
    g = saturate(cut_hairs(fold_all(bouquet(gens))), pair)
    records = [(comp, _cover_defect(g, comp, pair)) for comp in components(g)]
    g = prune_redundant(g, pair, records)
    precover_ok, verdict = _certify(g, records, pair)
    return SubgroupGraph(
        graph=g,
        pair=pair,
        generators=gens,
        precover_ok=precover_ok,
        reduced_ok=verdict.ok,
        reason=verdict.reason,
    )


def _certify(g: LabeledGraph, records: list[Record], pair: FactorPair) -> tuple[bool, Verdict]:
    """Whether a pruned graph is a precover, and the verdict on it as a
    reduced one at its basepoint, from the records pruning read.  A record
    with no live edge was pruned; one with all of them survives, in
    ``components()`` order, and only its bichromatic vertices are read
    again; one that lost only some of them fails."""
    if not g.is_well_labelled():
        return False, Verdict(False, "graph is not well-labelled")
    if g.vertices() and not g.is_connected():
        return False, Verdict(False, "graph is not connected")
    einit, out, label = g._einit, g._out, g._elabel
    kept: list[tuple[MonoComponent, list[int]]] = []   # survivors and their vb
    for comp, why in records:
        live = sum(einit[e] >= 0 for e in comp.edges)
        if not live:
            continue
        if live < len(comp.edges):
            why = "lost some of its edges after the scan"
        if why is not None:
            return False, Verdict(False, f"component {len(kept)} (factor {comp.factor}) {why}")
        f = comp.factor
        kept.append((comp, [v for v in comp.vb if any(label[e].factor != f for e in out[v])]))
    v0 = g.basepoint
    for k, (comp, vb) in enumerate(kept):
        if _redundant(comp, vb, v0, pair):
            return True, Verdict(False, f"component {k} (factor {comp.factor}) is redundant")
    if len(kept) == 1 and _collapses(g, kept[0][0], pair):
        return True, Verdict(False, "whole graph is a lone factor Cayley graph; it collapses to the basepoint")
    return True, Verdict(True)


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
    return trace(sg.graph, sg.graph.basepoint, path) == sg.graph.basepoint


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
