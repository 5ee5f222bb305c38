"""Seeded problem generators and reference answers for the freeprod benchmark.

Everything here is independent of the library under test: the groups are
modelled as integers mod n or as permutations, words are token lists, and
every expected answer follows from how the input was constructed.  The
library only ever sees the problem files these generators write.

Two workloads, each chosen to load different layers:

* ``conjugates`` -- Z2*Z3, problems of two long conjugates ``w a w^-1``
  (m = 400 letters).  Exists for the Kurosh layer: decompose dominates, the
  build is dominated by cover
  checks in saturate/certify, and factor construction and fold are
  negligible, so a change to ``fingroup`` tables or to fold should leave it
  unchanged.
* ``large-factors`` -- factors of order in the hundreds, one problem per
  factor kind (a ``table`` file, a ``presentation`` and a large ``cyclic``).
  Exists for ``fingroup``: table validation and coset enumeration dominate
  set-up, glued Cayley copies make cover checks large, ``present`` runs
  Reidemeister-Schreier, and ``verify`` rebuilds from every factor element.
  Its membership queries load nothing in particular.

Both run ``freeprod`` child processes as well, so interpreter start, imports
and argument parsing are measured on each.  There is no workload of small
CLI calls alone: within a fixed time for all runs, two workloads get longer
runs than three, and on a shared machine run length is what keeps the
figures steady.

A fourth family, ``random_words_problem`` (random words in Z4*Z6 corrected
into the kernel of a map onto S6, where prune does most of the build), is
only a size ladder of the traced run: as a workload its figures moved too
much from seed to seed, since what prune removes depends on the words.

A construction with a known Kurosh answer (used by ``large-factors``): the
subgroup is generated by conjugates ``w g w^-1`` of non-identity factor
elements ``g`` plus loop words ``r``.  Every conjugator and loop word
is an alternating normal word whose first syllable lies in factor 2 and is
distinct from every other first syllable; a conjugator's last syllable lies
in the factor other than ``g``'s, and a loop word ends in factor 1 with a
last syllable distinct from every other loop word's.  The reduced precover
is then a tree of components: the factor-2 Cayley graph at the basepoint
(and the factor-1 one, if there are loop words), one full Cayley copy per
inner syllable, and the coset graph of ``<g>`` at the end of each conjugate.
Each loop word closes one cycle.  So the Kurosh factors are the ``<g>`` and
the free rank is the number of loop words, and the vertex, edge and
component counts of the precover follow by counting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("conjugates", "large-factors")


# -- groups ---------------------------------------------------------------


class Group:
    """A finite group given by elements, a product and named generators."""

    def __init__(self, gens: dict[str, object], identity, mul):
        self.gens = dict(gens)
        self.identity = identity
        self.mul = mul
        order: list = [identity]
        words = {identity: ()}
        # BFS in generator order, positive letter before inverse: the order the
        # library uses for shortest words, so rendered normal forms match its
        # records.
        inv = {name: self._inverse_of(g) for name, g in self.gens.items()}
        self.inv_gen = inv
        i = 0
        while i < len(order):
            x = order[i]
            i += 1
            for name, g in self.gens.items():
                for sign, img in ((1, g), (-1, inv[name])):
                    y = mul(x, img)
                    if y not in words:
                        words[y] = words[x] + ((name, sign),)
                        order.append(y)
        self.elements = order
        self.words = words

    def _inverse_of(self, g):
        x = g
        prev = self.identity
        while x != self.identity:
            prev = x
            x = self.mul(x, g)
        return prev

    @property
    def order(self) -> int:
        return len(self.elements)

    def inverse(self, x):
        # x^-1 = x^(k-1) for an element of order k
        return self.power(x, self.element_order(x) - 1)

    def power(self, x, k: int):
        y = self.identity
        for _ in range(k):
            y = self.mul(y, x)
        return y

    def element_order(self, x) -> int:
        k, y = 1, x
        while y != self.identity:
            y = self.mul(y, x)
            k += 1
        return k

    def evaluate(self, tokens) -> object:
        x = self.identity
        for name, exp in tokens:
            g = self.gens[name] if exp > 0 else self.inv_gen[name]
            for _ in range(abs(exp)):
                x = self.mul(x, g)
        return x



def cyclic(n: int, name: str) -> Group:
    return Group({name: 1 % n}, 0, lambda a, b: (a + b) % n)


def _perm_mul(p, q):
    return tuple(q[i] for i in p)


def perm_group(gens: dict[str, tuple[int, ...]]) -> Group:
    degree = len(next(iter(gens.values())))
    return Group(gens, tuple(range(degree)), _perm_mul)


def s5() -> Group:
    return perm_group({"s": (1, 0, 2, 3, 4), "t": (1, 2, 3, 4, 0)})


S5_RELATORS = "s^2, t^5, s t s t s t s t, s t^-1 s t s t^-1 s t s t^-1 s t"


def psl27() -> Group:
    return perm_group({"x": (1, 0, 3, 2, 4, 5, 6), "y": (5, 6, 2, 1, 0, 4, 3)})


PSL27_RELATORS = "x^2, y^3, " + ", ".join(
    [" ".join(["x y"] * 7), " ".join(["x y x y^-1"] * 4)]
)


def parse_tokens(text: str) -> list[tuple[str, int]]:
    out = []
    for tok in text.split():
        name, _, exp = tok.partition("^")
        out.append((name, int(exp) if exp else 1))
    return out


def render_tokens(tokens) -> str:
    """Render tokens, merging runs of one generator like the library does."""
    merged: list[list] = []
    for name, exp in tokens:
        if merged and merged[-1][0] == name and (merged[-1][1] > 0) == (exp > 0):
            merged[-1][1] += exp
        else:
            merged.append([name, exp])
    return " ".join(n if e == 1 else f"{n}^{e}" for n, e in merged)


# -- factor pairs and words -------------------------------------------------


@dataclass
class Factor:
    group: Group
    kind: str          # "cyclic", "table" or "presentation"
    spec: str          # the text after "type = "
    relators: str = ""

    def syllable_tokens(self, elem) -> list[tuple[str, int]]:
        return [(name, sign) for name, sign in self.group.words[elem]]

    def factor_of(self, name: str) -> bool:
        return name in self.group.gens


@dataclass
class Pair:
    f1: Factor
    f2: Factor

    def factor(self, i: int) -> Factor:
        return self.f1 if i == 1 else self.f2

    def which(self, name: str) -> int:
        return 1 if self.f1.factor_of(name) else 2

    def normal_form(self, tokens) -> list[tuple[int, object]]:
        """Reference free-product normal form: (factor, non-identity element)."""
        stack: list[tuple[int, object]] = []
        for name, exp in tokens:
            i = self.which(name)
            g = self.factor(i).group
            e = g.evaluate([(name, exp)])
            if stack and stack[-1][0] == i:
                merged = g.mul(stack[-1][1], e)
                stack.pop()
                if merged != g.identity:
                    stack.append((i, merged))
            elif e != g.identity:
                stack.append((i, e))
        return stack

    def syllables_to_tokens(self, sylls) -> list[tuple[str, int]]:
        out = []
        for i, elem in sylls:
            out.extend(self.factor(i).syllable_tokens(elem))
        return out


def inverse_tokens(tokens):
    return [(name, -exp) for name, exp in reversed(tokens)]


# -- problems -----------------------------------------------------------------


@dataclass
class Problem:
    """One problem file plus everything the benchmark knows about it."""

    name: str
    pair: Pair
    generators: list[list[tuple[str, int]]]
    # reference homomorphism: generator name -> element of ``target``
    phi: dict[str, object]
    target: Group
    expect_factors: list[tuple[int, int]] | None = None  # sorted (factor, order)
    expect_free_rank: int | None = None
    expect_counts: dict[str, int] | None = None  # vertices, edges, components
    extra_files: dict[str, str] = field(default_factory=dict)

    def phi_of(self, tokens):
        return phi_eval(self.phi, self.target, tokens)

    def text(self) -> str:
        lines = []
        for k, f in ((1, self.pair.f1), (2, self.pair.f2)):
            lines.append(f"[factor{k}]")
            lines.append(f"type = {f.spec}")
            if f.kind == "table":
                gens = ", ".join(
                    f"{name}:{f.group.elements.index(g)}" for name, g in f.group.gens.items()
                )
            else:
                gens = ", ".join(f.group.gens)
            lines.append(f"generators = {gens}")
            if f.relators:
                lines.append(f"relators = {f.relators}")
            lines.append("")
        lines.append("[subgroup]")
        lines.append("generators = " + ", ".join(render_tokens(w) for w in self.generators))
        return "\n".join(lines) + "\n"


def table_file(group: Group) -> str:
    """Multiplication table over BFS element ids, in the documented format."""
    index = {x: k for k, x in enumerate(group.elements)}
    rows = [str(group.order)]
    for a in group.elements:
        rows.append(" ".join(str(index[group.mul(a, b)]) for b in group.elements))
    return "\n".join(rows) + "\n"


def _random_element(rng: random.Random, g: Group):
    return g.elements[rng.randrange(1, g.order)]


def known_answer_problem(
    rng: random.Random,
    name: str,
    pair: Pair,
    conj_targets: list[tuple[int, object]],
    loop_count: int,
    syllables: int,
    phi: dict[str, object],
    target: Group,
    syllable_ok=lambda i, e: True,
) -> Problem:
    """The tree-of-components construction described in the module docstring.

    ``conj_targets`` are the (factor, element) pairs to conjugate; every
    generator lies in the kernel of ``phi``.  Conjugators have ``syllables``
    syllables (one more where the parity rule needs it) and loop words two
    more, so the shape of the precover, and with it the cost of the build,
    is the same for every seed; only the syllable elements are random.
    ``syllable_ok`` restricts the elements used for inner syllables.
    """
    g1, g2 = pair.f1.group, pair.f2.group
    branches = len(conj_targets) + loop_count
    if branches > g2.order - 1 or loop_count > g1.order - 1:
        raise ValueError("not enough distinct first/last syllables")
    firsts = rng.sample([e for e in g2.elements[1:] if syllable_ok(2, e)], branches)
    lasts = rng.sample(g1.elements[1:], loop_count)

    def pick(i):
        g = pair.factor(i).group
        while True:
            e = _random_element(rng, g)
            if syllable_ok(i, e):
                return e

    def alternating(first, length, first_factor=2):
        sylls = [(first_factor, first)]
        i = first_factor
        for _ in range(length - 1):
            i = 3 - i
            sylls.append((i, pick(i)))
        return sylls

    gens = []
    counts = {"vertices": g2.order, "edges": g2.order * len(g2.gens), "components": 1}
    if loop_count:
        counts["vertices"] += g1.order - 1
        counts["edges"] += g1.order * len(g1.gens)
        counts["components"] += 1
    factors = []
    for k, (fi, g) in enumerate(conj_targets):
        length = syllables
        # last syllable in the other factor: factor 2 at odd positions
        if (length % 2 == 1) != (fi == 1):
            length += 1
        w = alternating(firsts[k], length)
        tokens = pair.syllables_to_tokens(w)
        inner = pair.factor(fi).syllable_tokens(g)
        gens.append(tokens + inner + inverse_tokens(tokens))
        grp = pair.factor(fi).group
        ordg = grp.element_order(g)
        factors.append((fi, ordg))
        for j, _ in w[1:]:
            fj = pair.factor(j).group
            counts["vertices"] += fj.order - 1
            counts["edges"] += fj.order * len(fj.gens)
            counts["components"] += 1
        counts["vertices"] += grp.order // ordg - 1
        counts["edges"] += grp.order // ordg * len(grp.gens)
        counts["components"] += 1
    for k in range(loop_count):
        length = max(4, syllables + 2)
        if length % 2:
            length += 1  # start in factor 2, end in factor 1
        while True:
            w = alternating(firsts[len(conj_targets) + k], length)
            w[-1] = (1, lasts[k])
            # correct the last factor-2 syllable so that phi(r) = 1
            head = pair.syllables_to_tokens(w[:-2])
            tail = pair.syllables_to_tokens(w[-1:])
            need = target.mul(target.inverse(phi_eval(phi, target, head)),
                              target.inverse(phi_eval(phi, target, tail)))
            fix = _solve(pair.f2.group, phi, target, need)
            if fix is None or fix == g2.identity or not syllable_ok(2, fix):
                continue
            w[-2] = (2, fix)
            break
        gens.append(pair.syllables_to_tokens(w))
        for j, _ in w[1:-1]:
            fj = pair.factor(j).group
            counts["vertices"] += fj.order - 1
            counts["edges"] += fj.order * len(fj.gens)
            counts["components"] += 1
        # the last inner copy closes onto the factor-1 graph at the basepoint
        counts["vertices"] -= 1
    prob = Problem(
        name=name,
        pair=pair,
        generators=gens,
        phi=phi,
        target=target,
        expect_factors=sorted(factors),
        expect_free_rank=loop_count,
        expect_counts=counts,
    )
    for w in gens:
        if prob.phi_of(w) != target.identity:
            raise AssertionError("generator outside the kernel of phi")
    return prob


def phi_eval(phi, target, tokens):
    """Image of a token word under a homomorphism given on generators."""
    x = target.identity
    for name, exp in tokens:
        g = phi[name]
        if exp < 0:
            g = target.inverse(g)
        for _ in range(abs(exp)):
            x = target.mul(x, g)
    return x


def _solve(group: Group, phi, target: Group, need):
    """A non-identity element of ``group`` whose image under ``phi`` is ``need``."""
    for e in group.elements[1:]:
        if phi_eval(phi, target, [(n, s) for n, s in group.words[e]]) == need:
            return e
    return None


# -- workloads ------------------------------------------------------------------


@dataclass
class Workload:
    """Problem files, membership queries and CLI calls with expected answers."""

    name: str
    seed: int
    problems: list[Problem]
    # (problem index, word tokens, expected membership)
    queries: list[tuple[int, list[tuple[str, int]], bool]]
    # (command, problem index, check of its record); every call exits 0
    cli: list[tuple[str, int, dict]]


# Letters per membership query.  ``contains`` costs about one step per
# letter, so a fixed length makes a query cost the same for every seed; 400
# is the input length of a conjugates problem, so there a member is exactly
# each generator once.
QUERY_LETTERS = 400


def _queries(rng, probs, per_problem: int):
    """One member per three non-members for each problem, shuffled.

    A member is a product of random generators, each with a random sign and
    none twice in a row (in Z2*Z3 a conjugate of ``a`` squares to 1), until
    it has QUERY_LETTERS letters.  Each is followed by three random words
    with phi(w) != 1 of its length, so every query pays the same
    normalisation.  A member traces its whole path and a non-member falls
    off the graph after a few steps: on conjugates members took about
    1100 us and non-members about 300 us, with no overlap.  Half and half
    put the median in the gap between the two, where it moved by a fifth
    from seed to seed; at one in four the median lies among the
    non-members (normalisation) and the tail among the members (trace).
    """
    out = []
    for pi, prob in enumerate(probs):
        names = list(prob.pair.f1.group.gens) + list(prob.pair.f2.group.gens)
        for _ in range(per_problem // 4):
            w, last = [], None
            while len(w) < QUERY_LETTERS:
                k = rng.choice([k for k in range(len(prob.generators)) if k != last])
                g = prob.generators[k]
                w.extend(g if rng.random() < 0.5 else inverse_tokens(g))
                last = k
            out.append((pi, w, True))
            while len(out) % 4:   # three non-members
                x = [(rng.choice(names), rng.choice((1, -1))) for _ in range(len(w))]
                if prob.phi_of(x) != prob.target.identity:
                    out.append((pi, x, False))
    rng.shuffle(out)
    return out


def _kurosh_check(prob: Problem) -> dict:
    return {"kind": "kurosh", "factors": prob.expect_factors, "free_rank": prob.expect_free_rank}


def schreier_generators(prob: Problem, factors, free_rank: int) -> int:
    """Generators of the presentation: the free rank plus, per factor
    subgroup, |E| - |V| + 1 of its coset graph, |V| being its index."""
    total = free_rank
    for i, order in factors:
        grp = prob.pair.factor(i).group
        index = grp.order // order
        total += index * len(grp.gens) - index + 1
    return total


def _present_check(prob: Problem) -> dict:
    return {"kind": "present",
            "generators": schreier_generators(prob, prob.expect_factors, prob.expect_free_rank)}


def conjugates_problem(rng, name: str, m: int) -> Problem:
    """Two conjugates of ``a`` in Z2*Z3 of total length ``m``.

    The family of the library's scaling acceptance test.  Two distinct
    conjugates of the involution generate Z2*Z2, so the Kurosh answer is
    two order-2 factors from factor 1 and free rank 0.  phi: a -> 0, b -> 1
    mod 3 kills the subgroup, so words with nonzero b-sum are non-members.
    """
    pair = Pair(Factor(cyclic(2, "a"), "cyclic", "cyclic 2"),
                Factor(cyclic(3, "b"), "cyclic", "cyclic 3"))

    def conj(length):
        sylls, factor = [], 2
        for _ in range(length):
            sylls.append((factor, _random_element(rng, pair.factor(factor).group)))
            factor = 3 - factor
        w = pair.syllables_to_tokens(sylls)
        return w + [("a", 1)] + inverse_tokens(w)

    gens = [conj((m - 26) // 2), conj(12)]
    if pair.normal_form(gens[0] + inverse_tokens(gens[1])) == []:
        raise AssertionError("the two conjugates coincide")
    return Problem(name, pair, gens, {"a": 0, "b": 1}, cyclic(3, "b"),
                   expect_factors=[(1, 2), (1, 2)], expect_free_rank=0)


def conjugates(seed: int, m: int = 400, count: int = 3) -> Workload:
    """``count`` independent problems of length ``m``: each operation is
    short enough to repeat many times in a run, and summing over problems
    evens out what one seed's words happen to cost.  Queries and the CLI
    use the first problem."""
    rng = random.Random(seed)
    probs = [conjugates_problem(rng, f"conjugates-{k}", m) for k in range(count)]
    queries = _queries(rng, probs[:1], 400)
    cli = [("kurosh", 0, _kurosh_check(probs[0]))]
    return Workload("conjugates", seed, probs, queries, cli)


def _large_problem(rng, name, f1: Factor, f2: Factor, orders1, kernel_order) -> Problem:
    """Known-answer problem over a big factor 1 and a cyclic factor 2.

    phi kills factor 1 and sends factor 2 onto Z8, so conjugates of factor-1
    elements and of factor-2 powers divisible by 8 lie in its kernel.  The
    orders of the conjugated elements are fixed, so the work verify does
    (one word per factor element) is the same for every seed; the factor-2
    element conjugated is ``z^(n/kernel_order)`` itself.
    """
    g1, g2 = f1.group, f2.group
    (zname,) = g2.gens
    by_order: dict[int, list] = {}
    for e in g1.elements[1:]:
        by_order.setdefault(g1.element_order(e), []).append(e)
    targets = [(1, rng.choice(by_order[k])) for k in orders1]
    targets.append((2, g2.power(g2.gens[zname], g2.order // kernel_order)))
    phi = {n: 0 for n in g1.gens}
    phi[zname] = 1
    pair = Pair(f1, f2)
    # factor-2 syllables of at most 8 letters: a z^k with k up to n/2 would
    # make the word length, and the cost of every query, depend on the seed
    return known_answer_problem(rng, name, pair, targets, 1, 1, phi, cyclic(8, "z"),
                                syllable_ok=lambda i, e: i == 1 or len(g2.words[e]) <= 8)


def large_factors(seed: int) -> Workload:
    """S5 as a table file times Z512, and PSL(2,7) as a presentation times Z256."""
    rng = random.Random(seed)
    s5g, pslg = s5(), psl27()
    if s5g.order != 120 or pslg.order != 168:
        raise AssertionError("reference permutation groups have the wrong order")
    for grp, rels in ((s5g, S5_RELATORS), (pslg, PSL27_RELATORS)):
        for r in rels.split(","):
            if grp.evaluate(parse_tokens(r)) != grp.identity:
                raise AssertionError(f"relator {r} fails")
    p0 = _large_problem(
        rng, "s5-z512",
        Factor(s5g, "table", "table s5.tbl", S5_RELATORS),
        Factor(cyclic(512, "z"), "cyclic", "cyclic 512"),
        orders1=(2, 5), kernel_order=8,
    )
    p0.extra_files["s5.tbl"] = table_file(s5g)
    p1 = _large_problem(
        rng, "psl27-z256",
        Factor(pslg, "presentation", "presentation", PSL27_RELATORS),
        Factor(cyclic(256, "w"), "cyclic", "cyclic 256"),
        orders1=(3, 7), kernel_order=8,
    )
    probs = [p0, p1]
    # queries on one problem only: two problems' latency modes side by side
    # would put the median on the edge between them
    queries = _queries(rng, [p0], 400)
    # one kind of call, so the CLI latency distribution has a single mode
    cli = [("present", 1, _present_check(p1))]
    return Workload("large-factors", seed, probs, queries, cli)


RANDOM_WORDS_PHI = {"x": (1, 2, 3, 0, 4, 5), "y": (4, 0, 5, 3, 1, 2)}


def random_words_problem(rng, name: str, count: int, length: int = 200) -> Problem:
    """``count`` random words in Z4*Z6, each corrected into the kernel of phi.

    phi maps onto S6 and is injective on both factors, so the subgroup meets
    no conjugate of a factor: the decomposition has no factors.
    """
    pair = Pair(Factor(cyclic(4, "x"), "cyclic", "cyclic 4"),
                Factor(cyclic(6, "y"), "cyclic", "cyclic 6"))
    target = perm_group(RANDOM_WORDS_PHI)
    if target.order != 720:
        raise AssertionError("phi is not onto S6")
    gens = []
    for _ in range(count):
        w = [(rng.choice("xy"), rng.choice((1, -1))) for _ in range(length)]
        need = target.inverse(phi_eval(RANDOM_WORDS_PHI, target, w))
        w += list(target.words[need])
        gens.append(w)
    return Problem(name, pair, gens, RANDOM_WORDS_PHI, target,
                   expect_factors=[], expect_free_rank=None)


BUILDERS = {
    "conjugates": conjugates,
    "large-factors": large_factors,
}


def write(work: Workload, root: Path) -> list[Path]:
    """Write every problem file (and table file) under ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    paths = []
    for prob in work.problems:
        for fname, text in prob.extra_files.items():
            (root / fname).write_text(text)
        path = root / f"{prob.name}.fp"
        path.write_text(prob.text())
        paths.append(path)
    return paths
