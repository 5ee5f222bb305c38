"""Reading a Kurosh decomposition off a subgroup graph.

Each cover component contributes one conjugate of a factor subgroup: replace
the component by a spanning tree and record the loop subgroup at its
basepoint, conjugated by the label of an approach path from the graph
basepoint.  Once every component is a tree the residual graph determines a
free group, whose basis is read off the non-tree edges of a spanning tree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .fingroup import (
    FactorPair,
    Presentation,
    _group_word_to_letters,
    reidemeister_schreier,
    schreier_stabilizer,
)
from .lgraph import (
    LabeledGraph,
    MonoComponent,
    components,
    pointed_iso,
    spanning_tree,
    trace,
)
from .precover import (
    InvariantError,
    SubgroupGraph,
    Verdict,
    component_is_cover,
    contains,
    subgroup_graph,
)
from .words import NormalWord, Word, free_reduce, inverse_word, letter_key, normalize


@dataclass(frozen=True)
class ConjugatedFactor:
    """One Kurosh factor: conjugator * (subgroup of a free factor) * conjugator^-1."""

    conjugator: Word
    conjugator_nf: NormalWord
    factor: int
    subgroup: frozenset[int]
    component: int
    basepoint: int

    @property
    def order(self) -> int:
        return len(self.subgroup)


@dataclass
class KuroshDecomposition:
    factors: tuple[ConjugatedFactor, ...]
    free_basis: tuple[Word, ...]
    delta: LabeledGraph
    presentation: Presentation | None = None

    @property
    def free_rank(self) -> int:
        return len(self.free_basis)


def mcc(g: LabeledGraph, pair: FactorPair) -> list[MonoComponent]:
    """Cover components, ordered for the decomposition loop.

    The component holding the basepoint comes first; the rest follow in BFS
    order over the adjacency through shared (bichromatic) vertices, so that
    consecutive components touch whenever possible.  Components reachable
    only through tree territory start fresh BFS islands.
    """
    covers = [c for c in components(g) if component_is_cover(g, c, pair)]
    if not covers:
        return []
    ordered: list[MonoComponent] = []
    seen: set[MonoComponent] = set()

    def bfs(seed: MonoComponent) -> None:
        queue = deque([seed])
        seen.add(seed)
        while queue:
            c = queue.popleft()
            ordered.append(c)
            nbrs = [d for d in covers if d not in seen and (d.vertices & c.vertices)]
            nbrs.sort(key=lambda d: (d.min_vertex, d.factor))
            for d in nbrs:
                seen.add(d)
                queue.append(d)

    bp = g.basepoint
    starts = sorted(
        (c for c in covers if bp in c.vertices), key=lambda c: (c.factor, c.min_vertex)
    )
    if starts:
        bfs(starts[0])
    while len(ordered) < len(covers):
        rest = sorted(
            (c for c in covers if c not in seen), key=lambda c: (c.min_vertex, c.factor)
        )
        bfs(rest[0])
    return ordered


def _approach(g: LabeledGraph, targets: frozenset[int]) -> tuple[int, Word]:
    """Shortest freely reduced path from the basepoint into a vertex set.

    BFS in letter order; the first vertex of the set that is reached becomes
    the component basepoint, which guarantees the path meets the component
    only there.
    """
    bp = g.basepoint
    if bp in targets:
        return bp, ()
    prev: dict[int, int] = {}
    seen = {bp}
    queue = deque([bp])
    while queue:
        v = queue.popleft()
        out = sorted(g.half_edges(v), key=lambda e: (letter_key(g.label(e)), e))
        for e in out:
            w = g.term(e)
            if w in seen:
                continue
            seen.add(w)
            prev[w] = e
            if w in targets:
                path = []
                cur = w
                while cur != bp:
                    e2 = prev[cur]
                    path.append(g.label(e2))
                    cur = g.init(e2)
                path.reverse()
                return w, tuple(path)
            queue.append(w)
    raise ValueError("component is not reachable from the basepoint")


def basic_step(
    g: LabeledGraph,
    c: MonoComponent,
    v: int,
    approach: Word,
    pair: FactorPair,
    component_id: int = 0,
) -> tuple[ConjugatedFactor | None, LabeledGraph]:
    """Extract one conjugated factor and replace the component by its tree.

    Returns None in place of a factor when the loop subgroup at ``v`` is
    trivial (the component was a full Cayley graph); its spanning tree still
    stays behind and feeds the free rank.
    """
    v = g.find(v)
    if v not in c.vertices:
        raise ValueError(f"vertex {v} is not in the component")
    t = trace(g, g.basepoint, approach)
    if t.vertex != v:
        raise ValueError("approach path does not lead to the component basepoint")
    group = pair.factor(c.factor)
    stab = schreier_stabilizer(g, v, group, within=c)
    tree = spanning_tree(g, v, within=c)
    h = g.copy()
    for e in c.edges:
        if e not in tree.geo_edges:
            h.remove_edge(e)
    if stab == frozenset({group.identity}):
        return None, h
    factor = ConjugatedFactor(
        conjugator=approach,
        conjugator_nf=normalize(approach, pair),
        factor=c.factor,
        subgroup=stab,
        component=component_id,
        basepoint=v,
    )
    return factor, h


def free_basis(delta: LabeledGraph, v0: int) -> list[Word]:
    """Free basis words of the subgroup a tree-component graph determines.

    One word per non-tree geometric edge of a spanning tree: tree path in,
    the edge, tree path back.  The rank is |E| - |V| + 1.
    """
    for comp in components(delta):
        if len(comp.edges) != len(comp.vertices) - 1:
            raise ValueError("all monochromatic components must be trees")
    tree = spanning_tree(delta, delta.find(v0))
    basis: list[Word] = []
    for e in delta.edges():
        if e in tree.geo_edges:
            continue
        h = delta.positive_half(e)
        w = (
            tree.word_to(delta, delta.init(h))
            + (delta.label(h),)
            + inverse_word(tree.word_to(delta, delta.term(h)))
        )
        basis.append(free_reduce(w))
    return basis


def decompose(sg: SubgroupGraph) -> KuroshDecomposition:
    """Full decomposition of the subgroup a certified graph determines."""
    pair = sg.pair
    v0 = sg.graph.basepoint
    g = sg.graph.copy()
    order = mcc(g, pair)
    factors: list[ConjugatedFactor] = []
    for k, comp in enumerate(order):
        v, approach = _approach(g, comp.vertices)
        fac, g = basic_step(g, comp, v, approach, pair, component_id=k)
        if fac is not None:
            factors.append(fac)
    delta = g
    for comp in components(delta):
        if len(comp.edges) != len(comp.vertices) - 1:
            raise InvariantError("a non-tree monochromatic component survived the basic steps")
    basis = free_basis(delta, v0)
    d = KuroshDecomposition(tuple(factors), tuple(basis), delta)

    for f in d.factors:
        group = pair.factor(f.factor)
        if f.subgroup == frozenset({group.identity}):
            raise InvariantError("a trivial subgroup was recorded as a factor")
        if f.conjugator_nf and f.conjugator_nf.syllables[-1][0] == f.factor:
            raise InvariantError("a conjugator ends in its own factor")
        for elem in sorted(f.subgroup):
            if elem == group.identity:
                continue
            if not contains(sg, _conjugated_word(f, elem, pair)):
                raise InvariantError("factor generator fell outside the subgroup")
    for w in d.free_basis:
        if not contains(sg, w):
            raise InvariantError("basis word fell outside the subgroup")
    return d


def _conjugated_word(f: ConjugatedFactor, elem: int, pair: FactorPair) -> Word:
    group = pair.factor(f.factor)
    inner = _group_word_to_letters(group.word_for(elem), f.factor)
    return free_reduce(f.conjugator + inner + inverse_word(f.conjugator))


def presentation(d: KuroshDecomposition, pair: FactorPair) -> Presentation:
    """Presentation of the subgroup: basis symbols are free, each factor
    contributes its Schreier presentation with conjugated aliases."""
    syms: list[str] = []
    aliases: dict[str, Word] = {}
    relators: list[tuple[tuple[str, int], ...]] = []
    fallback = False

    def fresh() -> str:
        name = f"e{len(syms) + 1}"
        syms.append(name)
        return name

    for w in d.free_basis:
        aliases[fresh()] = w
    for f in d.factors:
        group = pair.factor(f.factor)
        inner = reidemeister_schreier(group, f.subgroup, factor=f.factor)
        fallback = fallback or inner.fallback
        renamed: dict[str, str] = {}
        for s in inner.generators:
            t = fresh()
            renamed[s] = t
            aliases[t] = free_reduce(
                f.conjugator + inner.aliases[s] + inverse_word(f.conjugator)
            )
        for rel in inner.relators:
            relators.append(tuple((renamed[s], sign) for s, sign in rel))
    return Presentation(tuple(syms), tuple(relators), aliases, fallback=fallback)


def verify(d: KuroshDecomposition, sg: SubgroupGraph) -> Verdict:
    """Roundtrip check: the decomposition regenerates the same subgroup.

    Rebuilds a generating set from the factors and the basis, reruns the
    pipeline and compares reduced precovers; uniqueness of the reduced
    precover makes pointed isomorphism equivalent to subgroup equality.
    """
    pair = sg.pair
    words: list[Word] = []
    for f in d.factors:
        group = pair.factor(f.factor)
        for elem in sorted(f.subgroup):
            if elem == group.identity:
                continue
            words.append(_conjugated_word(f, elem, pair))
    words.extend(d.free_basis)
    for w in words:
        if not contains(sg, w):
            return Verdict(False, "an emitted generator lies outside the subgroup")
    rebuilt = subgroup_graph(words, pair)
    if not pointed_iso(
        rebuilt.graph, rebuilt.graph.basepoint, sg.graph, sg.graph.basepoint
    ):
        return Verdict(False, "rebuilt reduced precover is not isomorphic")
    return Verdict(True)
