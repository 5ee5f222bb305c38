"""Finite factor groups, their (coset) Cayley graphs and subgroup machinery.

Groups are multiplication tables over element ids 0..order-1 with a labelled
generating set.  Tables are validated exhaustively at construction: two-sided
identity, two-sided inverses, associativity (with a witness triple on
failure) and the generating property.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass, field
from .lgraph import InvariantError, LabeledGraph, MonoComponent, SpanningTree, spanning_tree
from .words import Letter, Word, WordSyntaxError, _tokens, free_reduce, inverse_word

DEFAULT_CAP = 4096

GroupWord = tuple[tuple[int, int], ...]  # (generator index, sign) pairs


class GroupValidationError(ValueError):
    pass


class CapExceededError(RuntimeError):
    pass


def parse_group_word(text: str, labels: tuple[str, ...]) -> GroupWord:
    """Parse a word over a single group's own generator labels."""
    out: list[tuple[int, int]] = []
    for name, exp, col in _tokens(text):
        try:
            gi = labels.index(name)
        except ValueError:
            raise WordSyntaxError(f"unknown generator {name!r}", col) from None
        sign = 1 if exp > 0 else -1
        out.extend([(gi, sign)] * abs(exp))
    return tuple(out)


class FiniteGroup:
    def __init__(
        self,
        table,
        generators,
        relators: tuple[GroupWord, ...] | None = None,
        cap: int = DEFAULT_CAP,
    ):
        self._table = tuple(tuple(int(x) for x in row) for row in table)
        self.order = len(self._table)
        self.generators: tuple[tuple[str, int], ...] = tuple(
            (str(label), int(e)) for label, e in generators
        )
        self.relators = None if relators is None else tuple(tuple(r) for r in relators)
        self._word_cache: dict[int, GroupWord] | None = None
        if self.order == 0:
            raise GroupValidationError("empty multiplication table")
        if self.order > cap:
            raise GroupValidationError(f"group order {self.order} exceeds cap {cap}")
        self._validate()

    # -- validation -------------------------------------------------------

    def _validate(self) -> None:
        n = self.order
        for row in self._table:
            if len(row) != n:
                raise GroupValidationError("multiplication table is not square")
            for x in row:
                if not 0 <= x < n:
                    raise GroupValidationError(f"table entry {x} out of range")

        identity = None
        for e in range(n):
            if all(self._table[e][x] == x for x in range(n)) and all(
                self._table[x][e] == x for x in range(n)
            ):
                identity = e
                break
        if identity is None:
            raise GroupValidationError("table has no two-sided identity")
        self.identity = identity

        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if self._table[a][b] == identity and self._table[b][a] == identity:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise GroupValidationError(f"element {a} has no two-sided inverse")
        self._inv = tuple(inv)

        t = np.array(self._table, dtype=np.int64)
        for a in range(n):
            left = t[t[a], :]   # (a*b)*c
            right = t[a][t]     # a*(b*c)
            if not np.array_equal(left, right):
                b, c = map(int, np.argwhere(left != right)[0])
                raise GroupValidationError(
                    f"associativity fails at triple ({a}, {b}, {c})"
                )

        labels = [label for label, _ in self.generators]
        if len(set(labels)) != len(labels):
            raise GroupValidationError("generator labels are not pairwise distinct")
        for label, img in self.generators:
            if not 0 <= img < n:
                raise GroupValidationError(f"generator {label!r} image out of range")
            if img == identity:
                raise GroupValidationError(f"generator {label!r} maps to the identity")
        gen_images = [img for _, img in self.generators]
        if len(self.closure(gen_images)) != n:
            raise GroupValidationError("generators do not generate the group")

        if self.relators:
            for r in self.relators:
                if self.evaluate(r) != identity:
                    raise GroupValidationError(
                        f"relator {r} does not hold in the group"
                    )

    # -- arithmetic ---------------------------------------------------------

    def mult(self, a: int, b: int) -> int:
        return self._table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def evaluate(self, w: GroupWord) -> int:
        x = self.identity
        for gi, sign in w:
            img = self.generators[gi][1]
            x = self.mult(x, img if sign > 0 else self._inv[img])
        return x

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.generators)

    def closure(self, elems) -> frozenset[int]:
        """Subgroup generated by ``elems`` (finite, so products suffice)."""
        sub = {self.identity}
        frontier = [self.identity]
        gens = list(elems)
        while frontier:
            x = frontier.pop()
            for e in gens:
                y = self.mult(x, e)
                if y not in sub:
                    sub.add(y)
                    frontier.append(y)
        return frozenset(sub)

    def is_subgroup(self, sub) -> bool:
        sub = set(sub)
        if self.identity not in sub:
            return False
        return all(self.mult(a, b) in sub for a in sub for b in sub)

    def word_for(self, elem: int) -> GroupWord:
        """Shortest generator word for an element, by BFS from the identity."""
        if self._word_cache is None:
            cache: dict[int, GroupWord] = {self.identity: ()}
            queue = [self.identity]
            while queue:
                nxt: list[int] = []
                for x in queue:
                    for gi, (_, img) in enumerate(self.generators):
                        for sign in (1, -1):
                            y = self.mult(x, img if sign > 0 else self._inv[img])
                            if y not in cache:
                                cache[y] = cache[x] + ((gi, sign),)
                                nxt.append(y)
                queue = nxt
            self._word_cache = cache
        return self._word_cache[elem]

    def __repr__(self) -> str:
        gens = ",".join(label for label, _ in self.generators)
        return f"FiniteGroup(order={self.order}, generators=[{gens}])"


def make_cyclic(n: int, label: str) -> FiniteGroup:
    """Cyclic group of order n with one generator mapping to 1 mod n.

    The trivial group (n = 1) carries no generators and no relators, since
    a generator may not map to the identity.
    """
    if n < 1:
        raise GroupValidationError("cyclic group order must be at least 1")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    if n == 1:
        return FiniteGroup(table, (), relators=())
    relator: GroupWord = tuple(((0, 1),) * n)
    return FiniteGroup(table, ((label, 1 % n),), relators=(relator,))


def from_table(table, generators, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Validated group from a raw multiplication table; no relators attached."""
    return FiniteGroup(table, generators, relators=None, cap=cap)


def from_presentation(labels, relators, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Enumerate the group presented by ``labels`` and ``relators``.

    A plain define/scan/merge coset enumeration over the trivial subgroup,
    bounded by ``cap`` on the number of cosets ever created.  If the group
    does not close within the bound (it may be infinite or just large),
    CapExceededError is raised.  Elements are numbered by BFS from the
    identity in label order, so the numbering is reproducible.
    """
    labels = tuple(str(l) for l in labels)
    parsed: list[GroupWord] = []
    for r in relators:
        parsed.append(parse_group_word(r, labels) if isinstance(r, str) else tuple(r))
    mult, images = _enumerate_presentation(labels, parsed, cap)
    gens = tuple((labels[gi], images[gi]) for gi in range(len(labels)))
    return FiniteGroup(mult, gens, relators=tuple(parsed), cap=cap)


def _enumerate_presentation(
    labels: tuple[str, ...], parsed: list[GroupWord], cap: int
) -> tuple[list[list[int]], list[int]]:
    """Raw bounded enumeration: multiplication table plus generator images."""
    nl = len(labels)
    # letters: 2*gi for the generator, 2*gi+1 for its inverse
    rel_letters = [
        [2 * gi + (0 if sign > 0 else 1) for gi, sign in r] for r in parsed
    ]

    table: list[list[int | None]] = [[None] * (2 * nl)]
    rep = [0]

    def find(a: int) -> int:
        root = a
        while rep[root] != root:
            root = rep[root]
        while rep[a] != root:
            rep[a], a = root, rep[a]
        return root

    def define(a: int, x: int) -> int:
        if len(table) >= cap:
            raise CapExceededError(
                f"coset enumeration exceeded cap {cap}; "
                "the presented group may be infinite or just large"
            )
        b = len(table)
        table.append([None] * (2 * nl))
        rep.append(b)
        table[a][x] = b
        table[b][x ^ 1] = a
        return b

    def join(a: int, b: int) -> None:
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            rep[b] = a
            for x in range(2 * nl):
                t = table[b][x]
                if t is None:
                    continue
                u = table[a][x]
                if u is None:
                    table[a][x] = t
                else:
                    stack.append((t, u))

    def step(a: int, x: int) -> int | None:
        t = table[find(a)][x]
        return None if t is None else find(t)

    def connect(a: int, x: int, b: int) -> None:
        a, b = find(a), find(b)
        t = table[a][x]
        if t is not None and find(t) != b:
            join(t, b)
            return
        table[a][x] = b
        a, b = find(a), find(b)
        t = table[b][x ^ 1]
        if t is not None and find(t) != a:
            join(t, a)
        else:
            table[b][x ^ 1] = a

    def scan(alpha: int, word: list[int]) -> bool:
        """Scan a relator at a coset, filling and merging; True if anything changed."""
        changed = False
        while True:
            alpha = find(alpha)
            f, i = alpha, 0
            while i < len(word):
                nxt = step(f, word[i])
                if nxt is None:
                    break
                f, i = nxt, i + 1
            if i == len(word):
                if f != alpha:
                    join(f, alpha)
                    return True
                return changed
            b, j = alpha, len(word) - 1
            while j > i:
                nxt = step(b, word[j] ^ 1)
                if nxt is None:
                    break
                b, j = nxt, j - 1
            if j == i:
                connect(f, word[i], b)
                return True
            define(f, word[i])
            changed = True

    while True:
        changed = False
        alpha = 0
        while alpha < len(table):
            if find(alpha) != alpha:
                alpha += 1
                continue
            for word in rel_letters:
                if word and scan(alpha, word):
                    changed = True
                if find(alpha) != alpha:
                    break
            if find(alpha) == alpha:
                for x in range(2 * nl):
                    if step(alpha, x) is None:
                        define(alpha, x)
                        changed = True
            alpha += 1
        if not changed:
            break

    # deterministic numbering: BFS from the identity coset over the
    # positive letters in label order (they reach everything in a finite group)
    start = find(0)
    number = {start: 0}
    bfs = [start]
    words: dict[int, list[int]] = {start: []}
    qi = 0
    while qi < len(bfs):
        c = bfs[qi]
        qi += 1
        for gi in range(nl):
            t = step(c, 2 * gi)
            if t is not None and t not in number:
                number[t] = len(bfs)
                words[t] = words[c] + [gi]
                bfs.append(t)
    live = [c for c in range(len(table)) if find(c) == c]
    if len(number) != len(live):
        raise GroupValidationError("generators do not reach every element")

    n = len(live)
    mult = [[0] * n for _ in range(n)]
    for a in live:
        for b in live:
            cur = a
            for gi in words[b]:
                cur = step(cur, 2 * gi)
            mult[number[a]][number[b]] = number[cur]
    images = [number[step(start, 2 * gi)] for gi in range(nl)]
    return mult, images


def cayley_graph(group: FiniteGroup, factor: int = 1) -> LabeledGraph:
    """Cayley graph on element ids, basepoint at the identity.

    ``factor`` tags the edge letters so the graph can be glued into a
    two-colored graph over a FactorPair alphabet.
    """
    g = LabeledGraph()
    for _ in range(group.order):
        g.add_vertex()
    g.set_basepoint(group.identity)
    for v in range(group.order):
        for gi, (_, img) in enumerate(group.generators):
            g.add_edge(v, group.mult(v, img), Letter(factor, gi, 1))
    return g


def coset_graph(group: FiniteGroup, sub, factor: int = 1) -> LabeledGraph:
    """Relative Cayley graph on the right cosets of ``sub``."""
    sub = frozenset(sub)
    if not group.is_subgroup(sub):
        raise GroupValidationError("subgroup set is not closed under the group operations")
    coset_of = [None] * group.order
    reps: list[int] = []
    for e in range(group.order):
        if coset_of[e] is None:
            cid = len(reps)
            reps.append(e)
            for s in sub:
                coset_of[group.mult(s, e)] = cid
    g = LabeledGraph()
    for _ in reps:
        g.add_vertex()
    g.set_basepoint(coset_of[group.identity])
    for c, r in enumerate(reps):
        for gi, (_, img) in enumerate(group.generators):
            g.add_edge(c, coset_of[group.mult(r, img)], Letter(factor, gi, 1))
    return g


def _tree_elements(
    g: LabeledGraph, tree: SpanningTree, group: FiniteGroup
) -> dict[int, int]:
    """Evaluate every tree path as a group element, walking in BFS order."""
    elem = {tree.root: group.identity}
    for v in tree.order[1:]:
        e = tree.parent_edge[v]
        letter = g.label(e)
        img = group.generators[letter.gen][1]
        x = img if letter.sign > 0 else group.inv(img)
        elem[v] = group.mult(elem[g.init(e)], x)
    return elem


def schreier_stabilizer(
    c: LabeledGraph,
    v: int,
    group: FiniteGroup,
    within: MonoComponent | None = None,
) -> frozenset[int]:
    """The subgroup of ``group`` read along loops at ``v`` in a cover.

    Standard Schreier generators over a spanning tree: one element
    t_u * x * t_w^-1 per non-tree edge, closed under the group operations.
    The graph (or the selected component) must be saturated.
    """
    v = c.find(v)
    if within is not None:
        verts = within.vertices
        scope = set(within.edges)
    else:
        verts = frozenset(c.vertices())
        scope = set(c.edges())
    if v not in verts:
        raise ValueError(f"vertex {v} is not in the cover")
    nletters = 2 * len(group.generators)
    for u in sorted(verts):
        live = [e for e in c.half_edges(u) if (e & ~1) in scope]
        if len(live) != nletters or len({c.label(e) for e in live}) != nletters:
            raise ValueError(f"cover is not saturated at vertex {u}")
    tree = spanning_tree(c, v, within)
    elem = _tree_elements(c, tree, group)
    gens = []
    for e in sorted(scope):
        if e in tree.geo_edges:
            continue
        letter = c.label(e)
        img = group.generators[letter.gen][1]
        x = img if letter.sign > 0 else group.inv(img)
        s = group.mult(group.mult(elem[c.init(e)], x), group.inv(elem[c.term(e)]))
        gens.append(s)
    return group.closure(gens)


@dataclass(frozen=True)
class Presentation:
    """A presentation on fresh symbols, each aliased to a word over the
    free-product alphabet.  ``fallback`` marks the multiplication-table
    presentation emitted when the ambient group carries no relators."""

    generators: tuple[str, ...]
    relators: tuple[tuple[tuple[str, int], ...], ...]
    aliases: dict[str, Word] = field(default_factory=dict)
    fallback: bool = False

    def __post_init__(self):
        declared = set(self.generators)
        for r in self.relators:
            for sym, _ in r:
                if sym not in declared:
                    raise ValueError(f"relator uses undeclared symbol {sym!r}")


def format_symbol_word(rel: tuple[tuple[str, int], ...]) -> str:
    tokens = []
    i = 0
    while i < len(rel):
        j = i
        while j < len(rel) and rel[j] == rel[i]:
            j += 1
        sym, sign = rel[i]
        exp = (j - i) * sign
        tokens.append(sym if exp == 1 else f"{sym}^{exp}")
        i = j
    return " ".join(tokens)


def _group_word_to_letters(w: GroupWord, factor: int) -> Word:
    return tuple(Letter(factor, gi, sign) for gi, sign in w)


def reidemeister_schreier(
    group: FiniteGroup, sub, factor: int = 1, prefix: str = "s"
) -> Presentation:
    """Presentation of a subgroup of a finite group on Schreier generators.

    Relators of the ambient group are rewritten over the coset graph of the
    subgroup.  If the ambient group carries no relators, a multiplication
    table presentation of the subgroup is returned instead, flagged as a
    fallback.
    """
    sub = frozenset(sub)
    if not group.is_subgroup(sub):
        raise GroupValidationError("subgroup set is not closed under the group operations")
    if sub == {group.identity}:
        return Presentation((), (), {})

    if not group.relators:
        members = [x for x in sorted(sub) if x != group.identity]
        syms = {x: f"{prefix}{k + 1}" for k, x in enumerate(members)}
        relators = []
        for a in members:
            for b in members:
                c = group.mult(a, b)
                rel = [(syms[a], 1), (syms[b], 1)]
                if c != group.identity:
                    rel.append((syms[c], -1))
                relators.append(tuple(rel))
        aliases = {
            syms[x]: _group_word_to_letters(group.word_for(x), factor)
            for x in members
        }
        return Presentation(
            tuple(syms[x] for x in members), tuple(relators), aliases, fallback=True
        )

    cg = coset_graph(group, sub, factor=factor)
    tree = spanning_tree(cg, cg.basepoint)
    elem = _tree_elements(cg, tree, group)

    sym_of: dict[int, str] = {}
    aliases: dict[str, Word] = {}
    order: list[str] = []
    for e in sorted(cg.edges()):
        if e in tree.geo_edges:
            continue
        name = f"{prefix}{len(order) + 1}"
        sym_of[e] = name
        order.append(name)
        alias = (
            tree.word_to(cg, cg.init(e))
            + (cg.label(e),)
            + inverse_word(tree.word_to(cg, cg.term(e)))
        )
        aliases[name] = free_reduce(alias)

    def rewrite(start: int, relator: GroupWord) -> tuple[tuple[str, int], ...]:
        out: list[tuple[str, int]] = []
        cur = start
        for gi, sign in relator:
            e = cg.out_edge(cur, Letter(factor, gi, sign))
            if e is None:
                raise InvariantError("a coset graph is not saturated")
            geo = e & ~1
            if geo not in tree.geo_edges:
                # symbol orientation follows the stored direct half
                out.append((sym_of[geo], 1 if e == geo else -1))
            cur = cg.term(e)
        # free reduction over symbols
        red: list[tuple[str, int]] = []
        for t in out:
            if red and red[-1] == (t[0], -t[1]):
                red.pop()
            else:
                red.append(t)
        return tuple(red)

    relators: list[tuple[tuple[str, int], ...]] = []
    seen = set()
    for c in range(cg.vertex_count()):
        for r in group.relators:
            rel = rewrite(c, r)
            if rel and rel not in seen:
                seen.add(rel)
                relators.append(rel)
    return Presentation(tuple(order), tuple(relators), aliases)


class FactorPair:
    """The two factor groups and the disjoint union of their alphabets."""

    def __init__(self, factor1: FiniteGroup, factor2: FiniteGroup):
        clash = set(factor1.labels()) & set(factor2.labels())
        if clash:
            raise GroupValidationError(
                f"factor generator labels are not disjoint: {sorted(clash)}"
            )
        self._factors = (factor1, factor2)
        self._by_name: dict[str, Letter] = {}
        for i, g in enumerate(self._factors, start=1):
            for gi, (label, _) in enumerate(g.generators):
                self._by_name[label] = Letter(i, gi, 1)

    @property
    def factor1(self) -> FiniteGroup:
        return self._factors[0]

    @property
    def factor2(self) -> FiniteGroup:
        return self._factors[1]

    def factor(self, i: int) -> FiniteGroup:
        return self._factors[i - 1]

    def resolve(self, name: str) -> Letter | None:
        return self._by_name.get(name)

    def letter_name(self, letter: Letter) -> str:
        name = self.factor(letter.factor).generators[letter.gen][0]
        return name if letter.sign > 0 else f"{name}^-1"

    def letter_element(self, letter: Letter) -> int:
        group = self.factor(letter.factor)
        img = group.generators[letter.gen][1]
        return img if letter.sign > 0 else group.inv(img)

    def letters(self, i: int) -> tuple[Letter, ...]:
        gens = self.factor(i).generators
        return tuple(
            Letter(i, gi, sign) for gi in range(len(gens)) for sign in (1, -1)
        )

    def all_letters(self) -> tuple[Letter, ...]:
        return self.letters(1) + self.letters(2)

    def __repr__(self) -> str:
        return f"FactorPair({self.factor1!r}, {self.factor2!r})"
