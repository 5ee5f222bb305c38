"""Pointed labelled graphs with involutive edges, folding and friends.

Edges are stored as paired half-edges: ids 2k and 2k+1 are reverses of each
other and carry inverse labels.  Vertices live in a union-find so that
folding (identifying two edges with the same initial vertex and label)
is a sequence of cheap merges.  Ids are never reused, so they stay stable
across the whole pipeline, but a removed element keeps no state: a vertex
exists exactly when it has an adjacency list (merging or deleting it drops
the list), and a deleted half-edge leaves its list and has no endpoint
(``init`` reads -1).  Each union rewrites the endpoint of every half-edge it
moves to the survivor, and moves the basepoint with it, so every vertex id
the graph hands out is live.  Every method takes live vertex ids only: a
merged id is dead like a removed one and raises ``KeyError``.  ``find``
serves fold's queue alone, where a later merge can kill a queued id.

The build edits one graph: ``fold_all``, ``cut_hairs`` and the precover
stages change the graph they are given and return it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection, Iterable

from .words import Letter, Word, letter_key

if TYPE_CHECKING:
    from .fingroup import FactorPair


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug, not a bad input."""


class LabeledGraph:
    def __init__(self) -> None:
        self._parent: list[int] = []
        self._csize: list[int] = []
        self._einit: list[int] = []      # -1 once the half-edge is deleted
        self._elabel: list[Letter] = []
        self._out: dict[int, list[int]] = {}
        self._base: int | None = None

    # -- construction ---------------------------------------------------

    def add_vertex(self) -> int:
        v = len(self._parent)
        self._parent.append(v)
        self._csize.append(1)
        self._out[v] = []
        if self._base is None:
            self._base = v
        return v

    def add_edge(self, u: int, v: int, letter: Letter) -> int:
        """Add a geometric edge u -> v with the given letter.

        Returns the id of the direct half-edge; its reverse is id+1.  A
        dead endpoint has no list: that is a KeyError, before any change.
        """
        out_u, out_v = self._out[u], self._out[v]
        e = len(self._einit)
        self._einit.extend((u, v))
        self._elabel.extend((letter, letter.inverse()))
        out_u.append(e)
        out_v.append(e + 1)
        return e

    def copy(self) -> "LabeledGraph":
        g = LabeledGraph()
        g._parent = list(self._parent)
        g._csize = list(self._csize)
        g._einit = list(self._einit)
        g._elabel = list(self._elabel)
        g._out = {v: list(es) for v, es in self._out.items()}
        g._base = self._base
        return g

    # -- vertex union-find ------------------------------------------------

    def find(self, v: int) -> int:
        """The live vertex a vertex id was merged into.  Only fold's queue
        needs it: edge endpoints and the basepoint are kept at their roots."""
        root = v
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[v] != root:
            self._parent[v], v = root, self._parent[v]
        return root

    def _union(self, a: int, b: int) -> int:
        """Merge two live vertices and return the survivor; a dead one is a
        KeyError, before any change."""
        out_a, out_b = self._out[a], self._out[b]
        if a == b:
            return a
        # survivor: larger class, ties to the smaller id (deterministic)
        if (self._csize[a], -a) < (self._csize[b], -b):
            a, b, out_a, out_b = b, a, out_b, out_a
        self._parent[b] = a
        self._csize[a] += self._csize[b]
        del self._out[b]
        einit = self._einit
        for h in out_b:
            einit[h] = a
        out_a.extend(out_b)
        if self._base == b:
            self._base = a
        return a

    # -- basic queries ----------------------------------------------------

    @property
    def basepoint(self) -> int:
        if self._base is None:
            raise InvariantError("graph has no vertices")
        return self._base

    def vertices(self) -> list[int]:
        return sorted(self._out)

    def edges(self) -> list[int]:
        """Live geometric edges, as direct half-edge ids."""
        einit = self._einit
        return [e for e in range(0, len(einit), 2) if einit[e] >= 0]

    def init(self, e: int) -> int:
        """Initial vertex of a half-edge, or -1 once it is deleted."""
        return self._einit[e]

    def term(self, e: int) -> int:
        """Terminal vertex of a half-edge, or -1 once it is deleted."""
        return self._einit[e ^ 1]

    def label(self, e: int) -> Letter:
        return self._elabel[e]

    def positive_half(self, e: int) -> int:
        """The half of e's geometric edge whose label has positive sign."""
        return e if self._elabel[e].sign > 0 else e ^ 1

    def degree(self, v: int) -> int:
        return len(self._out[v])

    def out_edge(self, v: int, letter: Letter) -> int | None:
        for e in self._out[v]:
            if self._elabel[e] == letter:
                return e
        return None

    def vertex_count(self) -> int:
        return len(self._out)

    def edge_count(self) -> int:
        """Every live half-edge sits in exactly one adjacency list."""
        return sum(map(len, self._out.values())) // 2

    def is_well_labelled(self) -> bool:
        for v in self.vertices():
            seen = set()
            for e in self._out[v]:
                l = self._elabel[e]
                if l in seen:
                    return False
                seen.add(l)
        return True

    def is_connected(self) -> bool:
        verts = self.vertices()
        if not verts:
            return False
        einit = self._einit
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            v = stack.pop()
            for e in self._out[v]:
                w = einit[e ^ 1]
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(verts)

    # -- deletion ---------------------------------------------------------

    def remove_edge(self, e: int) -> None:
        """Delete e's geometric edge: both halves leave their lists and lose
        their endpoints; a deleted edge is left alone.  ``list.remove`` keeps
        the other half-edges in order, so fold order and ids stay put."""
        einit = self._einit
        if einit[e] < 0:
            return
        for h in (e & ~1, e | 1):
            self._out[einit[h]].remove(h)
            einit[h] = -1

    def remove_vertex(self, v: int) -> None:
        """Delete a vertex and its adjacency list; its edges must already be gone."""
        if self.degree(v):
            raise InvariantError("removing a vertex with live edges")
        del self._out[v]


@dataclass(frozen=True)
class MonoComponent:
    """Maximal connected one-color subgraph with at least one edge."""

    factor: int
    vertices: frozenset[int]
    edges: tuple[int, ...]       # direct half-edge ids, sorted
    vb: frozenset[int]           # bichromatic vertices of the component

    @property
    def min_vertex(self) -> int:
        return min(self.vertices)


@dataclass
class SpanningTree:
    """A spanning tree as it was built: its words do not read the graph,
    which may lose edges or vertices afterwards."""

    root: int
    geo_edges: frozenset[int]                 # direct ids of tree edges
    parent: dict[int, tuple[int, Letter]]     # vertex -> (tree parent, letter in)
    order: list[int]                          # vertices in BFS order

    def word_to(self, v: int) -> Word:
        """The tree word from the root to the vertex ``v``."""
        word: list[Letter] = []
        parent = self.parent
        while v != self.root:
            v, letter = parent[v]
            word.append(letter)
        word.reverse()
        return tuple(word)


def bouquet(gens: Iterable[Word]) -> LabeledGraph:
    """A wedge of loops at a fresh basepoint, one loop per nonempty word."""
    g = LabeledGraph()
    v0 = g.add_vertex()
    for word in gens:
        if not word:
            continue
        cur = v0
        for letter in word[:-1]:
            nxt = g.add_vertex()
            g.add_edge(cur, nxt, letter)
            cur = nxt
        g.add_edge(cur, v0, word[-1])
    return g


def fold_all(g: LabeledGraph, seeds: Iterable[int] | None = None) -> LabeledGraph:
    """Fold ``g`` in place to a well-labelled quotient and return it;
    confluent, so order never matters.  The queue starts at every vertex,
    or at the live vertices ``seeds``, where gluing may have made two
    edges share a label."""
    out, label, einit = g._out, g._elabel, g._einit
    queue = deque(g.vertices() if seeds is None else seeds)
    queued = set(queue)
    while queue:
        v = queue.popleft()
        queued.discard(v)
        v = g.find(v)   # a merge after v was queued may have killed it
        folded = True
        while folded:
            folded = False
            slots: dict[Letter, int] = {}
            for e in out[v]:   # the scan stops at the first fold
                l = label[e]
                other = slots.get(l)
                if other is None:
                    slots[l] = e
                    continue
                # fold e onto other: identify terminal vertices, drop e
                t1, t2 = einit[other ^ 1], einit[e ^ 1]
                g.remove_edge(e)
                if t1 != t2:
                    r = g._union(t1, t2)
                    if v in (t1, t2):   # v may have lost the merge
                        v = r
                    if r not in queued:
                        queue.append(r)
                        queued.add(r)
                folded = True
                break
    return g


def cut_hairs(g: LabeledGraph) -> LabeledGraph:
    """Iteratively remove edges hanging off degree-1 vertices, in place;
    returns ``g``.

    The basepoint is exempt even at degree 1, since removing it would
    change the subgroup the graph determines.
    """
    bp = g.basepoint
    out = g._out   # nothing merges here: a queued id is live until removed
    queue = deque(v for v in g.vertices() if v != bp and len(out[v]) == 1)
    while queue:
        v = queue.popleft()
        if v not in out or v == bp or len(out[v]) != 1:
            continue
        e = out[v][0]
        w = g.term(e)
        g.remove_edge(e)
        g.remove_vertex(v)
        if w != bp:   # w ends a live edge, so it has a list
            d = len(out[w])
            if d == 1:
                queue.append(w)
            elif d == 0:
                g.remove_vertex(w)
    return g


def trace(g: LabeledGraph, v: int, w: Word) -> int | None:
    """The vertex reached by reading ``w`` from ``v`` along uniquely
    labelled edges, or None when some letter cannot be read."""
    out, label, einit = g._out, g._elabel, g._einit
    cur = v
    for letter in w:
        for e in out[cur]:
            if label[e] == letter:
                cur = einit[e ^ 1]
                break
        else:
            return None
    return cur


def components(g: LabeledGraph) -> list[MonoComponent]:
    """Monochromatic components, ordered by (smallest vertex, factor): walks
    start at the vertices in increasing order and mark bichromatic vertices."""
    out, label, einit = g._out, g._elabel, g._einit
    seen: dict[int, set[int]] = {1: set(), 2: set()}
    comps: list[MonoComponent] = []
    for start in g.vertices():
        for factor in (1, 2):
            if start in seen[factor] or all(label[e].factor != factor for e in out[start]):
                continue
            verts = {start}
            geo: set[int] = set()
            vb: set[int] = set()
            stack = [start]
            while stack:
                v = stack.pop()
                for e in out[v]:
                    if label[e].factor != factor:
                        vb.add(v)
                        continue
                    geo.add(e & ~1)
                    w = einit[e ^ 1]
                    if w not in verts:
                        verts.add(w)
                        stack.append(w)
            seen[factor] |= verts
            comps.append(
                MonoComponent(
                    factor=factor,
                    vertices=frozenset(verts),
                    edges=tuple(sorted(geo)),
                    vb=frozenset(vb),
                )
            )
    return comps


def spanning_tree(g: LabeledGraph, root: int, edges: Collection[int] | None) -> SpanningTree:
    """BFS spanning tree over the geometric edges with direct ids in
    ``edges`` (all of them for None), expanding edges in letter order for
    determinism."""
    out, label, einit = g._out, g._elabel, g._einit
    parent: dict[int, tuple[int, Letter]] = {}
    geo: set[int] = set()
    order = [root]
    seen = {root}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        hs = out[v] if edges is None else [e for e in out[v] if e & ~1 in edges]
        for e in sorted(hs, key=lambda e: (letter_key(label[e]), e)):
            w = einit[e ^ 1]
            if w in seen:
                continue
            seen.add(w)
            parent[w] = (v, label[e])
            geo.add(e & ~1)
            order.append(w)
            queue.append(w)
    return SpanningTree(root=root, geo_edges=frozenset(geo), parent=parent, order=order)


def pointed_iso(g1: LabeledGraph, v1: int, g2: LabeledGraph, v2: int) -> bool:
    """Whether the pointed graphs are isomorphic as labelled graphs.

    Well-labelledness makes the isomorphism unique if it exists, so a
    simultaneous traversal from the basepoints decides it in linear time.
    """
    out1, label1, einit1 = g1._out, g1._elabel, g1._einit
    out2, label2, einit2 = g2._out, g2._elabel, g2._einit
    fwd: dict[int, int] = {v1: v2}
    bwd: dict[int, int] = {v2: v1}
    queue = deque([v1])
    while queue:
        a = queue.popleft()
        b = fwd[a]
        outs1: dict[Letter, int] = {}
        for e in out1[a]:
            l = label1[e]
            if l in outs1:
                raise ValueError("first graph is not well-labelled")
            outs1[l] = einit1[e ^ 1]
        outs2: dict[Letter, int] = {}
        for e in out2[b]:
            l = label2[e]
            if l in outs2:
                raise ValueError("second graph is not well-labelled")
            outs2[l] = einit2[e ^ 1]
        if set(outs1) != set(outs2):
            return False
        for l in sorted(outs1, key=letter_key):
            ta, tb = outs1[l], outs2[l]
            if ta in fwd:
                if fwd[ta] != tb:
                    return False
            elif tb in bwd:
                return False
            else:
                fwd[ta] = tb
                bwd[tb] = ta
                queue.append(ta)
    return len(fwd) == g1.vertex_count() == g2.vertex_count()


def _positive_arrows(g: LabeledGraph) -> list[tuple[int, Letter, int, int]]:
    arrows = []
    for e in g.edges():
        p = g.positive_half(e)
        arrows.append((g.init(p), g.label(p), g.term(p), p))
    arrows.sort(key=lambda a: (a[0], letter_key(a[1]), a[2], a[3]))
    return arrows


def to_dot(g: LabeledGraph, pair: "FactorPair | None" = None) -> str:
    """Deterministic DOT rendering: one arrow per geometric edge."""
    colors = {1: "blue", 2: "red"}
    lines = ["digraph subgroup_graph {", "  rankdir=LR;"]
    bp = g.basepoint
    for v in g.vertices():
        shape = "doublecircle" if v == bp else "circle"
        lines.append(f"  v{v} [shape={shape}];")
    for u, letter, w, _ in _positive_arrows(g):
        if pair is not None:
            name = pair.letter_name(letter)
        else:
            name = f"{letter.factor}.{letter.gen}"
        lines.append(f'  v{u} -> v{w} [label="{name}", color={colors[letter.factor]}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dump(g: LabeledGraph, pair: "FactorPair | None" = None) -> str:
    """One line per geometric edge: ``vertex label -> vertex``."""
    lines = []
    for u, letter, w, _ in _positive_arrows(g):
        name = pair.letter_name(letter) if pair is not None else f"{letter.factor}.{letter.gen}"
        lines.append(f"{u} {name} -> {w}")
    return "\n".join(lines) + ("\n" if lines else "")
