"""Reading a Kurosh decomposition off a subgroup graph.

The certified graph is only read.  One breadth-first spanning tree from
the basepoint fixes every conjugator: the first vertex of a cover
component in the tree's BFS order is the component's basepoint, and the
tree word to it is the conjugator.  The covers are read in that order,
factor 1 first at a shared basepoint, so the factors are listed in BFS
order of their basepoints and conjugator lengths never decrease down the
list.  Each cover component is read by one walk from its basepoint, the
same walk that tests covers: it yields the loop subgroup (a factor when
non-trivial) and a spanning tree of the component.  The kept tree edges
are the graph Delta, whose free group's basis is read off one spanning
tree of them; a count of the covers' edges checks that Delta has no
other one-colour component.
"""

from __future__ import annotations

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

    @property
    def free_rank(self) -> int:
        return len(self.free_basis)


def mcc(g: LabeledGraph, pair: FactorPair) -> list[MonoComponent]:
    """The cover components of ``g``, in ``components()`` order."""
    return [c for c in components(g) if component_is_cover(g, c, pair)]


def basic_step(
    g: LabeledGraph, c: MonoComponent, v: int, pair: FactorPair
) -> tuple[frozenset[int], set[int]]:
    """The loop subgroup of a cover component at ``v`` and the direct ids
    of the edges of its spanning tree from ``v``, which stands for the
    component in Delta.  Both come from the cover test's walk
    (``fingroup._schreier_walk``); the subgroup is trivial when the
    component is a full Cayley graph, and the tree still feeds the rank."""
    return _schreier_walk(g, v, pair.factor(c.factor), c)


def free_basis(g: LabeledGraph, v0: int, tree_edges: set[int]) -> list[Word]:
    """Free basis words of the subgroup that the edges ``tree_edges`` of
    ``g`` determine, each of their one-colour components being a tree: one
    word per kept edge outside a spanning tree of them, in id order, made
    of the tree path in, the edge and the tree path back."""
    tree = spanning_tree(g, v0, tree_edges)
    basis: list[Word] = []
    for e in sorted(tree_edges - tree.geo_edges):
        h = g.positive_half(e)
        w = tree.word_to(g.init(h)) + (g.label(h),) + inverse_word(tree.word_to(g.term(h)))
        basis.append(free_reduce(w))
    return basis


def decompose(sg: SubgroupGraph) -> KuroshDecomposition:
    """Full decomposition of the subgroup a certified graph determines,
    read off one spanning tree as the module docstring describes."""
    pair, g = sg.pair, sg.graph
    tree = spanning_tree(g, g.basepoint, None)
    covers = mcc(g, pair)
    at: dict[int, list[int]] = {}   # vertex -> the covers through it, factor 1 first
    for i in sorted(range(len(covers)), key=lambda i: covers[i].factor):
        for u in covers[i].vertices:
            at.setdefault(u, []).append(i)
    unread = set(range(len(covers)))
    factors: list[ConjugatedFactor] = []
    kept: set[int] = set()   # Delta: the edges of the covers' trees
    for v in tree.order:
        for i in at.get(v, ()):
            if i not in unread:
                continue
            unread.remove(i)
            comp = covers[i]
            stab, comp_tree = basic_step(g, comp, v, pair)
            kept |= comp_tree
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
    if unread:
        raise InvariantError("component is not reachable from the basepoint")
    # the covers share no edge, so they hold every edge of g exactly when
    # their edge counts add up; then Delta is made of the covers' trees alone
    loose = g.edge_count() - sum(len(c.edges) for c in covers)
    if loose:
        raise InvariantError(
            f"a non-tree component survived the basic steps: {loose} edges lie in no cover"
        )
    d = KuroshDecomposition(tuple(factors), tuple(free_basis(g, g.basepoint, kept)))
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
