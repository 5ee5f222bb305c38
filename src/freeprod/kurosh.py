"""Reading a Kurosh decomposition off a subgroup graph.

One breadth-first spanning tree from the basepoint, built before anything
is deleted, fixes every conjugator: the first vertex of a cover component
in the tree's BFS order is the component's basepoint, and the tree word to
it is the conjugator.  Each cover component is then read by one walk from
its basepoint, the same walk that tests covers: it yields the loop
subgroup (a factor when non-trivial) and a spanning tree of the component,
which replaces the component in place on one working copy of the graph.
Once every component is a tree the residual graph determines a free
group, whose basis is read off the non-tree edges of a spanning tree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .fingroup import (
    FactorPair,
    Presentation,
    _group_word_to_letters,
    _schreier_walk,
    reidemeister_schreier,
)
from .lgraph import (
    InvariantError,
    LabeledGraph,
    MonoComponent,
    components,
    pointed_iso,
    spanning_tree,
)
from .precover import (
    SubgroupGraph,
    Verdict,
    component_is_cover,
    contains,
    subgroup_graph,
)
from .words import NormalWord, Word, free_reduce, inverse_word, normalize


@dataclass(frozen=True)
class ConjugatedFactor:
    """One Kurosh factor: conjugator * (subgroup of a free factor) * conjugator^-1."""

    conjugator: Word
    conjugator_nf: NormalWord
    factor: int
    subgroup: frozenset[int]
    basepoint: int

    @property
    def order(self) -> int:
        return len(self.subgroup)


@dataclass
class KuroshDecomposition:
    factors: tuple[ConjugatedFactor, ...]
    free_basis: tuple[Word, ...]
    delta: LabeledGraph

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
    at: dict[int, list[int]] = {}   # vertex -> indices of the covers holding it
    for i, c in enumerate(covers):
        for v in c.vertices:
            at.setdefault(v, []).append(i)
    ordered: list[MonoComponent] = []
    seen = [False] * len(covers)

    def bfs(seed: int) -> None:
        queue = deque([seed])
        seen[seed] = True
        while queue:
            c = covers[queue.popleft()]
            ordered.append(c)
            nbrs = {i for v in c.vb for i in at[v] if not seen[i]}
            for i in sorted(nbrs, key=lambda i: (covers[i].min_vertex, covers[i].factor)):
                seen[i] = True
                queue.append(i)

    starts = sorted(at.get(g.basepoint, ()), key=lambda i: covers[i].factor)
    if starts:
        bfs(starts[0])
    for i in range(len(covers)):   # components() sorts by (min_vertex, factor)
        if not seen[i]:
            bfs(i)
    return ordered


def basic_step(g: LabeledGraph, c: MonoComponent, v: int, pair: FactorPair) -> frozenset[int]:
    """Replace a cover component by its spanning tree at ``v``, in place.

    The cover test's walk (``fingroup._schreier_walk``) reads the loop
    subgroup at ``v`` and the breadth-first tree in letter order; the
    component's other edges are then deleted from ``g``.  The subgroup is
    trivial when the component was a full Cayley graph; the tree still
    stays behind and feeds the free rank.
    """
    stab, tree = _schreier_walk(g, v, pair.factor(c.factor), c)
    for e in c.edges:
        if e not in tree:
            g.remove_edge(e)
    return stab


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
            tree.word_to(delta.init(h))
            + (delta.label(h),)
            + inverse_word(tree.word_to(delta.term(h)))
        )
        basis.append(free_reduce(w))
    return basis


def decompose(sg: SubgroupGraph) -> KuroshDecomposition:
    """Full decomposition of the subgroup a certified graph determines,
    read off one spanning tree as the module docstring describes."""
    pair = sg.pair
    g = sg.graph.copy()
    tree = spanning_tree(g, g.basepoint)
    rank = {v: i for i, v in enumerate(tree.order)}
    factors: list[ConjugatedFactor] = []
    for comp in mcc(g, pair):
        reached = [u for u in comp.vertices if u in rank]
        if not reached:
            raise InvariantError("component is not reachable from the basepoint")
        v = min(reached, key=rank.__getitem__)
        stab = basic_step(g, comp, v, pair)
        if len(stab) == 1:
            continue
        conjugator = tree.word_to(v)
        nf = normalize(conjugator, pair)
        if nf and nf.syllables[-1][0] == comp.factor:
            raise InvariantError("a conjugator ends in its own factor")
        factors.append(
            ConjugatedFactor(
                conjugator=conjugator,
                conjugator_nf=nf,
                factor=comp.factor,
                subgroup=stab,
                basepoint=v,
            )
        )
    try:
        basis = free_basis(g, sg.graph.basepoint)
    except ValueError as exc:
        raise InvariantError(f"a non-tree component survived the basic steps: {exc}") from exc
    d = KuroshDecomposition(tuple(factors), tuple(basis), g)
    if not all(contains(sg, w) for w in _emitted_words(d, pair)):
        raise InvariantError("an emitted generator fell outside the subgroup")
    return d


def _emitted_words(d: KuroshDecomposition, pair: FactorPair) -> list[Word]:
    """The generating set a decomposition stands for: every non-identity
    element of each factor subgroup, conjugated, then the free basis."""
    words: list[Word] = []
    for f in d.factors:
        group = pair.factor(f.factor)
        back = inverse_word(f.conjugator)
        for elem in sorted(f.subgroup):
            if elem == group.identity:
                continue
            inner = _group_word_to_letters(group.word_for(elem), f.factor)
            words.append(free_reduce(f.conjugator + inner + back))
    words.extend(d.free_basis)
    return words


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
        back = inverse_word(f.conjugator)
        renamed: dict[str, str] = {}
        for s in inner.generators:
            t = fresh()
            renamed[s] = t
            aliases[t] = free_reduce(f.conjugator + inner.aliases[s] + back)
        for rel in inner.relators:
            relators.append(tuple((renamed[s], sign) for s, sign in rel))
    return Presentation(tuple(syms), tuple(relators), aliases, fallback=fallback)


def verify(d: KuroshDecomposition, sg: SubgroupGraph) -> Verdict:
    """Roundtrip check: the decomposition regenerates the same subgroup.

    Rebuilds a generating set from the factors and the basis, reruns the
    pipeline and compares reduced precovers; uniqueness of the reduced
    precover makes pointed isomorphism equivalent to subgroup equality
    (so every emitted word lies in the subgroup, with no separate trace).
    """
    rebuilt = subgroup_graph(_emitted_words(d, sg.pair), sg.pair)
    if not pointed_iso(
        rebuilt.graph, rebuilt.graph.basepoint, sg.graph, sg.graph.basepoint
    ):
        return Verdict(False, "rebuilt reduced precover is not isomorphic")
    return Verdict(True)
