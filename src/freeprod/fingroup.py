"""Finite factor groups, Cayley copies, Schreier walks and presentations.

Groups are multiplication tables over element ids 0..order-1 with a labelled
generating set.  Every table is validated at construction, in time quadratic
in the order per generator: int entries in range, a two-sided identity, two-sided
inverses, int generator images that generate, then Light's associativity test
(with a witness triple on failure), which checks (a*b)*g == a*(b*g) only for
the generators g.  That suffices once the generators generate, as
``FiniteGroup._validate`` explains.  Every generator label must be a word
token a word can name, relator letters must name a generator with sign 1
or -1, and every relator must hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from .lgraph import InvariantError, LabeledGraph, MonoComponent
from .words import Letter, Word, WordSyntaxError, _tokens

DEFAULT_CAP = 4096

GroupWord = tuple[tuple[int, int], ...]  # (generator index, sign) pairs


class GroupValidationError(ValueError):
    pass


class GeneratorError(GroupValidationError):
    """A generator label or generator image is invalid."""


class RelatorError(GroupValidationError):
    """A relator names no generator or does not hold."""


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


def _check_labels(labels) -> None:
    """Refuse generator labels that no word can name, each one that the word
    tokenizer does not read back as itself with exponent 1, and labels
    that are not pairwise distinct."""
    for label in labels:
        try:
            named = [(name, exp) for name, exp, _ in _tokens(label)] == [(label, 1)]
        except WordSyntaxError:
            named = False
        if not named:
            raise GeneratorError(f"generator label {label!r} is not a word token")
    if len(set(labels)) != len(labels):
        raise GeneratorError("generator labels are not pairwise distinct")


class FiniteGroup:
    def __init__(
        self,
        table,
        generators,
        relators: tuple[GroupWord, ...] | None = None,
        cap: int = DEFAULT_CAP,
    ):
        self.order = len(table)
        if self.order == 0:
            raise GroupValidationError("empty multiplication table")
        if self.order > cap:
            raise GroupValidationError(f"group order {self.order} exceeds cap {cap}")
        self._table = tuple(tuple(row) for row in table)
        self.generators: tuple[tuple[str, int], ...] = tuple(
            (str(label), e) for label, e in generators
        )
        self.relators = None if relators is None else tuple(tuple(r) for r in relators)
        self._word_cache: dict[int, GroupWord] | None = None
        self._validate()

    # -- validation -------------------------------------------------------

    def _validate(self) -> None:
        """Check that the table is a group generated by the generators.

        Associativity is Light's test: (a*b)*g == a*(b*g) for all a, b and
        each generator g only.  The elements c with (a*b)*c == a*(b*c) for
        all a, b contain the identity and the generators, and are closed
        under products: (a*b)*(c*g) = ((a*b)*c)*g = (a*(b*c))*g
        = a*((b*c)*g) = a*(b*(c*g)).  ``closure`` reaches every element as
        a left-normed product of generators from the identity, so once the
        generating check has passed, those elements are the whole group.
        """
        n, t = self.order, self._table
        for row in t:
            if len(row) != n:
                raise GroupValidationError("multiplication table is not square")
            if set(map(type, row)) != {int}:
                x = next(x for x in row if type(x) is not int)
                raise GroupValidationError(f"table entry {x!r} is not an int")
            if min(row) < 0 or max(row) >= n:
                x = next(x for x in row if not 0 <= x < n)
                raise GroupValidationError(f"table entry {x} out of range")

        identity = None
        for e in range(n):
            if all(t[e][x] == x for x in range(n)) and all(t[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise GroupValidationError("table has no two-sided identity")
        self.identity = identity

        inv = []
        for a, row in enumerate(t):
            b = row.index(identity) if identity in row else None
            if b is None or t[b][a] != identity:
                raise GroupValidationError(f"element {a} has no two-sided inverse")
            inv.append(b)
        self._inv = tuple(inv)

        labels = self.labels()
        _check_labels(labels)
        for label, img in self.generators:
            if type(img) is not int or not 0 <= img < n:
                raise GeneratorError(
                    f"generator {label!r} image {img!r} is not an int in range"
                )
            if img == identity:
                raise GeneratorError(f"generator {label!r} maps to the identity")
        gen_images = [img for _, img in self.generators]
        if len(self.closure(gen_images)) != n:
            raise GeneratorError("generators do not generate the group")

        for g in dict.fromkeys(gen_images):
            col = tuple(row[g] for row in t)  # col[x] = x*g
            for a, row in enumerate(t):
                left = list(map(col.__getitem__, row))    # (a*b)*g
                right = list(map(row.__getitem__, col))   # a*(b*g)
                if left != right:
                    b = next(b for b in range(n) if left[b] != right[b])
                    raise GroupValidationError(
                        f"associativity fails at triple ({a}, {b}, {g})"
                    )

        for r in self.relators or ():
            for gi, sign in r:
                if type(gi) is not int or not 0 <= gi < len(labels):
                    raise RelatorError(f"relator {r} names no generator {gi!r}")
                if type(sign) is not int or sign not in (1, -1):
                    raise RelatorError(f"relator {r} has sign {sign!r}, not 1 or -1")
            if self.evaluate(r) != identity:
                raise RelatorError(f"relator {r} does not hold in the group")

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
    row = list(range(n))
    table = [row[i:] + row[:i] for i in range(n)]  # i + j mod n
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
    _check_labels(labels)
    parsed: list[GroupWord] = []
    for r in relators:
        parsed.append(parse_group_word(r, labels) if isinstance(r, str) else tuple(r))
    mult, images = _enumerate_presentation(labels, parsed, cap)
    gens = tuple((labels[gi], images[gi]) for gi in range(len(labels)))
    return FiniteGroup(mult, gens, relators=tuple(parsed), cap=cap)


def _enumerate_presentation(
    labels: tuple[str, ...], parsed: list[GroupWord], cap: int
) -> tuple[list[list[int]], list[int]]:
    """Raw bounded enumeration: multiplication table plus generator images.

    One Hasse-Lindsay-Todd pass in coset order: each coset still live at
    its turn has every relator scanned at it (defining and merging until
    the relator closes there), then every missing letter defined.  Later
    definitions and merges keep both properties.  A merge keeps the smaller
    coset, so a live coset behind the pass has had its turn; the survivor's
    row is the union of both rows, and a closed relator path stays closed.
    After the pass every live coset has a full row and closes every
    relator, so a second pass would change nothing, and a row with a gap
    is a bug.
    """
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

    def scan(alpha: int, word: list[int]) -> None:
        """Scan a relator at a coset, defining and merging until it closes there."""
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
                return
            b, j = alpha, len(word) - 1
            while j > i:
                nxt = step(b, word[j] ^ 1)
                if nxt is None:
                    break
                b, j = nxt, j - 1
            if j == i:
                connect(f, word[i], b)
                return
            define(f, word[i])

    alpha = 0
    while alpha < len(table):   # grows as cosets are defined
        if find(alpha) == alpha:
            for word in rel_letters:
                if word:
                    scan(alpha, word)
                if find(alpha) != alpha:
                    break
            else:
                for x in range(2 * nl):
                    if step(alpha, x) is None:
                        define(alpha, x)
        alpha += 1
    live = [c for c in range(len(table)) if find(c) == c]
    if any(None in table[c] for c in live):
        raise InvariantError("coset enumeration left a live coset with an undefined letter")

    # deterministic numbering: BFS from the identity coset over the
    # positive letters in label order (they reach everything in a finite group)
    start = find(0)
    number = {start: 0}
    bfs = [start]
    tree: list[tuple[int, int]] = []  # (parent number, generator) of bfs[1:]
    qi = 0
    while qi < len(bfs):
        c = bfs[qi]
        qi += 1
        for gi in range(nl):
            t = step(c, 2 * gi)
            if t not in number:
                number[t] = len(bfs)
                tree.append((number[c], gi))
                bfs.append(t)
    if len(number) != len(live):
        raise GeneratorError("generators do not reach every element")

    # the table column by column along the BFS tree: a*(b*g) = (a*b)*g,
    # where x*g is one step of the complete coset table
    right = [[number[step(c, 2 * gi)] for c in bfs] for gi in range(nl)]
    cols = [list(range(len(bfs)))]
    for parent, gi in tree:
        cols.append(list(map(right[gi].__getitem__, cols[parent])))
    mult = [list(row) for row in zip(*cols)]
    images = [right[gi][0] for gi in range(nl)]
    return mult, images


def _append_cayley(g: LabeledGraph, group: FiniteGroup, factor: int) -> int:
    """Append a copy of the Cayley graph to ``g``; element x becomes vertex base + x."""
    base = g.add_vertex()
    for _ in range(group.order - 1):
        g.add_vertex()
    for v in range(group.order):
        for gi, (_, img) in enumerate(group.generators):
            g.add_edge(base + v, base + group.mult(v, img), Letter(factor, gi, 1))
    return base


def _right_cosets(group: FiniteGroup, sub: frozenset[int]) -> tuple[list[int], list[int]]:
    """The right cosets S*e of a subgroup, numbered by their smallest
    element: the coset of each element, and each coset's smallest element."""
    coset_of = [-1] * group.order
    reps: list[int] = []
    for e in range(group.order):
        if coset_of[e] < 0:
            for s in sub:
                coset_of[group.mult(s, e)] = len(reps)
            reps.append(e)
    return coset_of, reps


def _letters_at(g: LabeledGraph, u: int, factor: int, nletters: int) -> list[int]:
    """The half-edges of ``factor`` at the live vertex ``u`` in letter
    order: slot 2*gen + (sign < 0) holds the edge with that letter.
    Raises unless every slot holds exactly one edge."""
    label = g._elabel
    slots: list[int | None] = [None] * nletters
    for e in g._out[u]:
        f, gen, sign = label[e]
        if f != factor:
            continue
        k = 2 * gen + (sign < 0)
        if k >= nletters or slots[k] is not None:
            raise ValueError(f"cover is not saturated at vertex {u}")
        slots[k] = e
    if None in slots:
        raise ValueError(f"cover is not saturated at vertex {u}")
    return slots


def _schreier_walk(
    c: LabeledGraph, v: int, group: FiniteGroup, within: MonoComponent
) -> tuple[frozenset[int], set[int]]:
    """The loop subgroup at ``v`` in the component ``within`` and the
    direct ids of the edges of its breadth-first spanning tree from ``v``.

    One pass checks each vertex's letters as it is dequeued, expands its
    edges in letter order and evaluates the tree elements t_u.  The
    Schreier rule then closes t_u * x * t_w^-1 over the non-tree edges
    u -x-> w.  A component is connected, so the pass reaches all of it;
    it must be saturated.  ``kurosh.basic_step`` returns both.
    """
    if v not in within.vertices:
        raise ValueError(f"vertex {v} is not in the cover")
    nletters = 2 * len(group.generators)
    mult, einit = group.mult, c._einit
    # the element of each letter slot: 2*gen for the generator, +1 its inverse
    slot_elems = [x for _, img in group.generators for x in (img, group.inv(img))]
    elem = {v: group.identity}
    via: dict[int, int] = {}   # the tree half-edge entering each vertex but v
    gens: set[int] = set()
    queue = [v]
    for u in queue:
        for e, x in zip(_letters_at(c, u, within.factor, nletters), slot_elems):
            w = einit[e ^ 1]
            if w not in elem:
                elem[w] = mult(elem[u], x)
                via[w] = e
                queue.append(w)
            elif e ^ 1 != via.get(u):
                gens.add(mult(mult(elem[u], x), group.inv(elem[w])))
    gens.discard(group.identity)
    return group.closure(gens), {e & ~1 for e in via.values()}


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


def _group_word_to_letters(w: GroupWord, factor: int) -> Word:
    return tuple(Letter(factor, gi, sign) for gi, sign in w)


def reidemeister_schreier(group: FiniteGroup, sub, factor: int = 1) -> Presentation:
    """Presentation of a subgroup of a finite group on Schreier generators.

    The right cosets S*e, numbered by their smallest element
    (``_right_cosets``), form a table, not a graph: row c, column
    2*gi + (sign < 0) holds the coset that letter leads to from c and the
    symbol it crosses, (name, +-1), or None on a tree edge.  Right
    multiplication permutes the cosets, so every row is full by
    construction.  One breadth-first pass from the identity's coset, in
    column order, fixes the Schreier tree and each coset's tree word and
    its inverse.  Each non-tree edge c -gi-> c*g, in (coset, generator)
    order, is a symbol aliased to word(c) gi word(c*g)^-1, which is
    reduced: a tree word ends in gi^-1 at c, or in gi at c*g, only along
    this edge.  Each relator, as column indices, is read from every coset
    with the symbol free reduction on the way, in O(index * sum |relator|)
    list steps.  A group without relators gets a multiplication table
    presentation instead, flagged as a fallback.
    """
    sub = frozenset(sub)
    if not group.is_subgroup(sub):
        raise GroupValidationError("subgroup set is not closed under the group operations")
    if sub == {group.identity}:
        return Presentation((), (), {})

    if not group.relators:
        members = [x for x in sorted(sub) if x != group.identity]
        syms = {x: f"s{k + 1}" for k, x in enumerate(members)}
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

    coset_of, reps = _right_cosets(group, sub)
    slot_elems = [x for _, img in group.generators for x in (img, group.inv(img))]
    step = [[(coset_of[group.mult(r, x)], None) for x in slot_elems] for r in reps]
    letters = [Letter(factor, gi, sign) for gi in range(len(group.generators)) for sign in (1, -1)]

    root = coset_of[group.identity]
    word: dict[int, Word] = {root: ()}
    inverse: dict[int, Word] = {root: ()}
    tree: set[tuple[int, int]] = set()   # (coset, positive column) of each tree edge
    queue = [root]
    for c in queue:
        for col, (t, _) in enumerate(step[c]):
            if t not in word:
                word[t] = word[c] + (letters[col],)
                inverse[t] = (letters[col ^ 1],) + inverse[c]
                tree.add((t, col ^ 1) if col & 1 else (c, col))
                queue.append(t)

    aliases: dict[str, Word] = {}
    for c, row in enumerate(step):
        for col in range(0, len(row), 2):
            t = row[col][0]
            if (c, col) not in tree:
                name = f"s{len(aliases) + 1}"
                aliases[name] = word[c] + (letters[col],) + inverse[t]
                row[col] = (t, (name, 1))
                step[t][col + 1] = (c, (name, -1))

    def rewrite(cur: int, cols: list[int]) -> tuple[tuple[str, int], ...]:
        red: list[tuple[str, int]] = []   # freely reduced as it is read
        for col in cols:
            cur, sym = step[cur][col]
            if sym is not None:
                if red and red[-1] == (sym[0], -sym[1]):
                    red.pop()
                else:
                    red.append(sym)
        return tuple(red)

    relator_cols = [[2 * gi + (sign < 0) for gi, sign in r] for r in group.relators]
    relators: list[tuple[tuple[str, int], ...]] = []
    seen = set()
    for c in range(len(step)):
        for cols in relator_cols:
            rel = rewrite(c, cols)
            if rel and rel not in seen:
                seen.add(rel)
                relators.append(rel)
    return Presentation(tuple(aliases), tuple(relators), aliases)


class FactorPair:
    """The two factor groups and the disjoint union of their alphabets."""

    def __init__(self, factor1: FiniteGroup, factor2: FiniteGroup):
        clash = set(factor1.labels()) & set(factor2.labels())
        if clash:
            raise GeneratorError(
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
