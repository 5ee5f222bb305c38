"""Shared test machinery: independent oracles, random corpora and the
small graph and word utilities only the tests use.

The oracles here deliberately avoid the library's graph pipeline.  Normal
form arithmetic is reimplemented from scratch on syllable tuples, and
membership is decided by closing the generating set under multiplication
inside a bounded ball of normal forms.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterable

from freeprod import FactorPair
from freeprod.lgraph import LabeledGraph
from freeprod.words import Letter, NormalWord, Word, free_reduce, inverse_word, normalize

Syllables = tuple[tuple[int, int], ...]


def nf_of_word(w: Word, pair: FactorPair) -> Syllables:
    """Normal form of a word, recomputed by repeated scanning (no stack)."""
    syl = [(l.factor, pair.letter_element(l)) for l in w]
    changed = True
    while changed:
        changed = False
        for k in range(len(syl) - 1):
            if syl[k][0] == syl[k + 1][0]:
                group = pair.factor(syl[k][0])
                merged = group.mult(syl[k][1], syl[k + 1][1])
                syl[k : k + 2] = [] if merged == group.identity else [(syl[k][0], merged)]
                changed = True
                break
        if not changed:
            for k, (i, e) in enumerate(syl):
                if e == pair.factor(i).identity:
                    del syl[k]
                    changed = True
                    break
    return tuple(syl)


def nf_mult(x: Syllables, y: Syllables, pair: FactorPair) -> Syllables:
    """Product of two normal forms.  Both alternate, so syllables meet only
    where x ends and y begins: cancel there until a merge survives or the
    factors differ, then join the untouched slices."""
    i, j = len(x), 0
    while i and j < len(y) and x[i - 1][0] == y[j][0]:
        factor = y[j][0]
        group = pair.factor(factor)
        merged = group.mult(x[i - 1][1], y[j][1])
        if merged != group.identity:
            return x[: i - 1] + ((factor, merged),) + y[j + 1 :]
        i, j = i - 1, j + 1
    return x[:i] + y[j:]


def nf_inverse(x: Syllables, pair: FactorPair) -> Syllables:
    return tuple((i, pair.factor(i).inv(e)) for i, e in reversed(x))


def all_normal_forms(pair: FactorPair, max_len: int) -> list[Syllables]:
    """Every normal form of syllable length at most max_len."""
    out: list[Syllables] = [()]
    nonid = {
        i: [e for e in range(pair.factor(i).order) if e != pair.factor(i).identity]
        for i in (1, 2)
    }
    frontier: list[Syllables] = [()]
    for _ in range(max_len):
        nxt: list[Syllables] = []
        for nf in frontier:
            for i in (1, 2):
                if nf and nf[-1][0] == i:
                    continue
                for e in nonid[i]:
                    nxt.append(nf + ((i, e),))
        out.extend(nxt)
        frontier = nxt
    return out


class OracleOverflow(Exception):
    pass


def closure_members(
    gens: list[Word],
    pair: FactorPair,
    work_len: int,
    size_guard: int = 400_000,
) -> set[Syllables]:
    """All subgroup elements reachable inside the work_len syllable ball.

    Closure under right multiplication by the generators and their inverses,
    starting from the identity.  Raises OracleOverflow when the ball-bounded
    closure grows beyond the guard.
    """
    steps: list[Syllables] = []
    for w in gens:
        nf = nf_of_word(w, pair)
        steps.append(nf)
        steps.append(nf_inverse(nf, pair))
    seen: set[Syllables] = {()}
    frontier: list[Syllables] = [()]
    while frontier:
        cur = frontier.pop()
        for s in steps:
            nxt = nf_mult(cur, s, pair)
            if len(nxt) <= work_len and nxt not in seen:
                if len(seen) >= size_guard:
                    raise OracleOverflow
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def oracle_membership(
    gens: list[Word], pair: FactorPair, query_len: int, work_len: int
) -> set[Syllables]:
    """Membership set for all queries up to query_len, checked for stability.

    The closure is computed at work_len and work_len + 1; the query slice
    must agree, otherwise the bound was too tight for this subgroup.
    """
    a = closure_members(gens, pair, work_len)
    b = closure_members(gens, pair, work_len + 1)
    slice_a = {nf for nf in a if len(nf) <= query_len}
    slice_b = {nf for nf in b if len(nf) <= query_len}
    if slice_a != slice_b:
        raise OracleOverflow("closure not stable; raise work_len")
    return slice_a


def random_word(rng: random.Random, pair: FactorPair, max_len: int) -> Word:
    letters = pair.all_letters()
    n = rng.randint(1, max_len)
    return tuple(rng.choice(letters) for _ in range(n))


def random_subgroups(
    rng: random.Random,
    pair: FactorPair,
    count: int,
    n_gens=(2, 4),
    max_len: int = 8,
) -> list[list[Word]]:
    out = []
    for _ in range(count):
        k = rng.randint(*n_gens)
        out.append([random_word(rng, pair, max_len) for _ in range(k)])
    return out


def subgroups_of(group) -> list[frozenset[int]]:
    """All subgroups, as closures of generating sets of size at most 3."""
    elems = range(group.order)
    found = {frozenset({group.identity})}
    for k in (1, 2, 3):
        for combo in itertools.combinations(elems, k):
            found.add(group.closure(combo))
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def groups_isomorphic(g1, g2) -> bool:
    """Brute-force isomorphism test via generator images.

    Two finite groups of equal order are isomorphic iff some assignment of
    images to g1's generators satisfies g1's relators and generates g2
    (a surjective homomorphism between equal finite orders is bijective).
    Requires g1 to carry relators.
    """
    if g1.order != g2.order:
        return False
    assert g1.relators is not None
    ngens = len(g1.generators)
    if ngens == 0:
        return g2.order == 1
    for images in itertools.product(range(g2.order), repeat=ngens):

        def ev(word):
            x = g2.identity
            for gi, sign in word:
                img = images[gi]
                x = g2.mult(x, img if sign > 0 else g2.inv(img))
            return x

        if all(ev(r) == g2.identity for r in g1.relators):
            if len(g2.closure(images)) == g2.order:
                return True
    return False


def table_invariant(table, identity=None):
    """Complete isomorphism invariant for groups of order below 16:
    the multiset of element orders together with commutativity."""
    n = len(table)
    if identity is None:
        identity = next(
            e for e in range(n) if all(table[e][x] == x for x in range(n))
        )
    orders = []
    for a in range(n):
        k, cur = 1, a
        while cur != identity:
            cur = table[cur][a]
            k += 1
        orders.append(k)
    abelian = all(table[a][b] == table[b][a] for a in range(n) for b in range(n))
    return (n, tuple(sorted(orders)), abelian)


def random_labelled_graph(rng: random.Random, max_v: int = 7, max_e: int = 14):
    """Connected random labelled graph: a random tree plus extra edges."""
    letters = [Letter(1, 0, 1), Letter(1, 0, -1), Letter(2, 0, 1), Letter(2, 0, -1)]
    g = LabeledGraph()
    n = rng.randint(1, max_v)
    for _ in range(n):
        g.add_vertex()
    for v in range(1, n):
        g.add_edge(rng.randrange(v), v, rng.choice(letters))
    for _ in range(rng.randint(0, max_e - n + 1)):
        g.add_edge(rng.randrange(n), rng.randrange(n), rng.choice(letters))
    return g


def naive_random_fold(g, rng: random.Random):
    """Reference folding: pick any foldable pair at random until none remain.

    It keeps its own union-find on a dict over the input's vertices and
    its own list of arrows, so it shares no merging code with the library,
    and returns a fresh graph on the classes (numbered in order of their
    smallest vertex)."""
    parent = {v: v for v in g.vertices()}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    arrows = [(g.init(e), g.label(e), g.term(e)) for e in g.edges()]
    while True:
        seen = {}
        candidates = []   # (terminal of the kept half-edge, arrow to drop, its terminal)
        for k, (u, l, w) in enumerate(arrows):
            for key, end in (((find(u), l), find(w)), ((find(w), l.inverse()), find(u))):
                if key in seen:
                    candidates.append((seen[key], k, end))
                else:
                    seen[key] = end
        if not candidates:
            break
        t1, k, t2 = candidates[rng.randrange(len(candidates))]
        del arrows[k]
        if t1 != t2:
            parent[t2] = t1
    classes = {}
    for v in sorted(parent):
        classes.setdefault(find(v), len(classes))
    h = LabeledGraph()
    for _ in classes:
        h.add_vertex()
    for u, l, w in arrows:
        h.add_edge(classes[find(u)], classes[find(w)], l)
    set_basepoint(h, classes[find(g.basepoint)])
    return h


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    sxy = sum((x - mx) * (y - my) for x, y in zip(lx, ly))
    sxx = sum((x - mx) ** 2 for x in lx)
    return sxy / sxx


def associativity_failure(table) -> tuple[int, int, int] | None:
    """First triple (a, b, c) with (ab)c != a(bc), over all n^3 triples."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    return (a, b, c)
    return None


def is_group_generated_by(table, images) -> bool:
    """Reference for table validation: the table is a group (identity,
    inverses, associativity over every triple), and the images are
    non-identity elements that generate it."""
    n = len(table)
    if any(len(row) != n or not all(0 <= x < n for x in row) for row in table):
        return False
    ids = [e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))]
    if not ids:
        return False
    e = ids[0]
    if not all(any(table[a][b] == e == table[b][a] for b in range(n)) for a in range(n)):
        return False
    if associativity_failure(table) is not None:
        return False
    if e in images:
        return False
    reached, frontier = {e}, [e]
    while frontier:
        x = frontier.pop()
        for g in images:
            y = table[x][g]
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return len(reached) == n


def reference_components(g):
    """Monochromatic components as first written: tag every vertex with its
    colours in one pass, then walk each factor's components separately."""
    from freeprod.lgraph import MonoComponent

    colours = {v: {g.label(e).factor for e in half_edges(g, v)} for v in g.vertices()}
    comps = []
    for factor in (1, 2):
        seen = set()
        for start in g.vertices():
            if start in seen or factor not in colours[start]:
                continue
            verts, geo, stack = {start}, set(), [start]
            while stack:
                v = stack.pop()
                for e in half_edges(g, v):
                    if g.label(e).factor != factor:
                        continue
                    geo.add(e & ~1)
                    w = g.term(e)
                    if w not in verts:
                        verts.add(w)
                        stack.append(w)
            seen |= verts
            vb = frozenset(v for v in verts if len(colours[v]) == 2)
            comps.append(MonoComponent(factor, frozenset(verts), tuple(sorted(geo)), vb))
    comps.sort(key=lambda c: (c.min_vertex, c.factor))
    return comps


def reference_stabilizer(g, v, group, comp=None):
    """Loop subgroup at v and the direct ids of its spanning tree's edges,
    as first written: check every vertex's letters in sorted order, build a
    BFS spanning tree expanding edges in letter order, then close the
    Schreier generators of the non-tree edges."""
    v = g.find(v)
    verts = comp.vertices if comp is not None else frozenset(g.vertices())
    scope = set(comp.edges) if comp is not None else set(g.edges())
    if v not in verts:
        raise ValueError(f"vertex {v} is not in the cover")
    nletters = 2 * len(group.generators)
    for u in sorted(verts):
        live = [e for e in half_edges(g, u) if (e & ~1) in scope]
        if len(live) != nletters or len({g.label(e) for e in live}) != nletters:
            raise ValueError(f"cover is not saturated at vertex {u}")

    def element(letter):
        img = group.generators[letter.gen][1]
        return img if letter.sign > 0 else group.inv(img)

    elem, tree, queue = {v: group.identity}, set(), [v]
    for u in queue:
        out = sorted(
            (e for e in half_edges(g, u) if (e & ~1) in scope),
            key=lambda e: (g.label(e).factor, g.label(e).gen, -g.label(e).sign, e),
        )
        for e in out:
            w = g.term(e)
            if w not in elem:
                elem[w] = group.mult(elem[u], element(g.label(e)))
                tree.add(e & ~1)
                queue.append(w)
    gens = [
        group.mult(group.mult(elem[g.init(e)], element(g.label(e))), group.inv(elem[g.term(e)]))
        for e in sorted(scope)
        if e not in tree
    ]
    return group.closure(gens), frozenset(tree)


def reference_cover_defect(g, comp, pair):
    """Why a component is not a cover, as first written: a sorted scan for
    a missing letter, then the count |V| * |S| = |G|."""
    for v in sorted(comp.vertices):
        for letter in pair.letters(comp.factor):
            if g.out_edge(v, letter) is None:
                return f"is not saturated: vertex {v} has no edge labelled {pair.letter_name(letter)}"
    group = pair.factor(comp.factor)
    stab, _ = reference_stabilizer(g, comp.min_vertex, group, comp)
    if len(comp.vertices) * len(stab) != group.order:
        return "is saturated but is not a cover"
    return None


def reference_saturate(g, pair: FactorPair):
    """Saturation as first written: glue a Cayley copy onto every component
    that is not a cover, fold, and repeat until every component is one."""
    from freeprod import InvariantError, components
    from freeprod.precover import component_is_cover

    h = g.copy()
    sweeps = 0
    comps = components(h)
    limit = len(comps) + 2
    while True:
        bad = [comp for comp in comps if not component_is_cover(h, comp, pair)]
        if not bad:
            return h
        sweeps += 1
        if sweeps > limit:
            raise InvariantError("saturation did not converge")
        seeds = []
        for comp in bad:
            e = comp.edges[0]
            group = pair.factor(comp.factor)
            base = len(h._parent)
            for _ in range(group.order):
                h.add_vertex()
            for v in range(group.order):
                for gi, (_, img) in enumerate(group.generators):
                    h.add_edge(base + v, base + group.mult(v, img), Letter(comp.factor, gi, 1))
            seeds.append(h._union(h.init(e), base + group.identity))
            seeds.append(h._union(h.term(e), h.find(base + pair.letter_element(h.label(e)))))
        h._fold_inplace(seeds=seeds)
        comps = components(h)


def cayley_graph(group, factor: int = 1) -> LabeledGraph:
    """The factor's Cayley graph on element ids, basepoint at the identity:
    the copy ``saturate`` glues, standing alone.  ``factor`` tags the edge
    letters so the graph can sit in a two-coloured graph."""
    from freeprod.fingroup import _append_cayley

    g = LabeledGraph()
    _append_cayley(g, group, factor)
    set_basepoint(g, group.identity)
    return g


def coset_graph(group, sub, factor: int = 1) -> LabeledGraph:
    """Relative Cayley graph on the right cosets S*e of a subgroup, numbered
    by their smallest element, basepoint at the subgroup itself."""
    from freeprod.fingroup import _right_cosets

    sub = frozenset(sub)
    assert group.is_subgroup(sub), "not a subgroup"
    coset_of, reps = _right_cosets(group, sub)
    g = LabeledGraph()
    for _ in reps:
        g.add_vertex()
    set_basepoint(g, coset_of[group.identity])
    for c, r in enumerate(reps):
        for gi, (_, img) in enumerate(group.generators):
            g.add_edge(c, coset_of[group.mult(r, img)], Letter(factor, gi, 1))
    return g


def scan(g, pair: FactorPair):
    """The records ``subgroup_graph`` reads after saturation: every
    monochromatic component with its cover defect, in ``components()``
    order."""
    from freeprod import components
    from freeprod.precover import _cover_defect

    return [(comp, _cover_defect(g, comp, pair)) for comp in components(g)]


def certify(g, v0, pair: FactorPair):
    """The library's certification of a graph from a fresh ``scan``:
    whether it is a precover, and the verdict on it as a reduced one."""
    from freeprod.precover import _certify

    return _certify(g, scan(g, pair), v0, pair)


def reference_prune(g, v0, pair: FactorPair):
    """Pruning as first written: scan the whole graph, drop the first
    redundant cover in ``components()`` order, and scan again until none is
    left; then collapse a lone full Cayley graph to the basepoint."""
    from freeprod import components
    from freeprod.precover import component_is_cover

    def full(comp):
        return len(comp.vertices) == pair.factor(comp.factor).order

    h = g.copy()
    v0 = h.find(v0)
    while True:
        comps = components(h)
        victim = next(
            (
                c for c in comps
                if full(c) and len(c.vb) <= 1 and (v0 not in c.vertices or v0 in c.vb)
                and component_is_cover(h, c, pair)
            ),
            None,
        )
        if victim is None:
            break
        for e in victim.edges:
            h.remove_edge(e)
        for v in sorted(victim.vertices):
            if v not in victim.vb:
                h.remove_vertex(v)
    if (
        len(comps) == 1
        and comps[0].vertices == frozenset(h.vertices())
        and full(comps[0])
        and component_is_cover(h, comps[0], pair)
    ):
        for e in comps[0].edges:
            h.remove_edge(e)
        for v in sorted(comps[0].vertices):
            if v != v0:
                h.remove_vertex(v)
    return h


def reference_certify(g, v0, pair: FactorPair):
    """Certification as first written, from a fresh scan of the graph:
    whether it is a precover, and the verdict on it as a reduced one."""
    from freeprod import components
    from freeprod.precover import Verdict, _cover_defect

    if not g.is_well_labelled():
        pre = Verdict(False, "graph is not well-labelled")
    elif g.vertices() and not g.is_connected():
        pre = Verdict(False, "graph is not connected")
    else:
        pre = Verdict(True)
        comps = components(g)
        for k, comp in enumerate(comps):
            why = _cover_defect(g, comp, pair)
            if why is not None:
                pre = Verdict(False, f"component {k} (factor {comp.factor}) {why}")
                break
    if not pre.ok:
        return False, pre
    v0 = g.find(v0)
    for k, comp in enumerate(comps):
        if (
            len(comp.vertices) == pair.factor(comp.factor).order
            and len(comp.vb) <= 1
            and (v0 not in comp.vertices or v0 in comp.vb)
        ):
            return True, Verdict(False, f"component {k} (factor {comp.factor}) is redundant")
    if (
        len(comps) == 1
        and comps[0].vertices == frozenset(g.vertices())
        and len(comps[0].vertices) == pair.factor(comps[0].factor).order
    ):
        return True, Verdict(
            False, "whole graph is a lone factor Cayley graph; it collapses to the basepoint"
        )
    return True, pre


def reference_reidemeister_schreier(group, sub, factor: int = 1):
    """Reidemeister-Schreier rewriting as first written, for a group with
    relators: every relator letter is one ``out_edge`` walk step in the
    coset graph, and the symbol word is freely reduced afterwards."""
    from freeprod import InvariantError
    from freeprod.fingroup import Presentation
    from freeprod.lgraph import spanning_tree
    from freeprod.words import free_reduce, inverse_word

    sub = frozenset(sub)
    if sub == {group.identity}:
        return Presentation((), (), {})
    cg = coset_graph(group, sub, factor=factor)
    tree = spanning_tree(cg, cg.basepoint, None)
    sym_of, aliases, order = {}, {}, []
    for e in sorted(cg.edges()):
        if e in tree.geo_edges:
            continue
        name = f"s{len(order) + 1}"
        sym_of[e] = name
        order.append(name)
        alias = (
            tree.word_to(cg.init(e))
            + (cg.label(e),)
            + inverse_word(tree.word_to(cg.term(e)))
        )
        aliases[name] = free_reduce(alias)

    def rewrite(start, relator):
        out, cur = [], start
        for gi, sign in relator:
            e = cg.out_edge(cur, Letter(factor, gi, sign))
            if e is None:
                raise InvariantError("a coset graph is not saturated")
            geo = e & ~1
            if geo not in tree.geo_edges:
                out.append((sym_of[geo], 1 if e == geo else -1))
            cur = cg.term(e)
        red = []
        for t in out:
            if red and red[-1] == (t[0], -t[1]):
                red.pop()
            else:
                red.append(t)
        return tuple(red)

    relators, seen = [], set()
    for c in range(cg.vertex_count()):
        for r in group.relators:
            rel = rewrite(c, r)
            if rel and rel not in seen:
                seen.add(rel)
                relators.append(rel)
    return Presentation(tuple(order), tuple(relators), aliases)


def reference_free_reduce(w: Word) -> Word:
    """Free reduction as first written: build each letter's inverse."""
    out: list[Letter] = []
    for letter in w:
        if out and out[-1] == letter.inverse():
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def reference_enumerate_presentation(labels, parsed, cap: int):
    """Coset enumeration as first written: the whole define/scan/merge pass
    repeats until a pass changes nothing; same numbering and errors."""
    from freeprod import CapExceededError, GroupValidationError

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
    tree: list[tuple[int, int]] = []  # (parent number, generator) of bfs[1:]
    qi = 0
    while qi < len(bfs):
        c = bfs[qi]
        qi += 1
        for gi in range(nl):
            t = step(c, 2 * gi)
            if t is not None and t not in number:
                number[t] = len(bfs)
                tree.append((number[c], gi))
                bfs.append(t)
    live = [c for c in range(len(table)) if find(c) == c]
    if len(number) != len(live):
        raise GroupValidationError("generators do not reach every element")

    # the table column by column along the BFS tree: a*(b*g) = (a*b)*g,
    # where x*g is one step of the complete coset table
    right = [[number[step(c, 2 * gi)] for c in bfs] for gi in range(nl)]
    cols = [list(range(len(bfs)))]
    for parent, gi in tree:
        cols.append(list(map(right[gi].__getitem__, cols[parent])))
    mult = [list(row) for row in zip(*cols)]
    images = [right[gi][0] for gi in range(nl)]
    return mult, images


def reference_index_if_finite(sg):
    """Subgroup index as first written: scan every vertex for every letter."""
    letters = sg.pair.all_letters()
    for v in sg.graph.vertices():
        for letter in letters:
            if sg.graph.out_edge(v, letter) is None:
                return None
    return sg.graph.vertex_count()


def set_basepoint(g: LabeledGraph, v: int) -> None:
    """Move the basepoint of a hand-built graph to the vertex ``v``."""
    g._base = g.find(v)


def half_edges(g: LabeledGraph, v: int) -> list[int]:
    """The half-edges leaving the vertex ``v``, in adjacency order."""
    return list(g._out[g.find(v)])


def stuck_at(g: LabeledGraph, v: int, w: Word) -> int | None:
    """The index of the first letter of ``w`` that cannot be read from
    ``v``, or None when the whole word reads."""
    cur = g.find(v)
    for i, letter in enumerate(w):
        e = g.out_edge(cur, letter)
        if e is None:
            return i
        cur = g.term(e)
    return None


def rank_by_count(sg) -> int:
    """The free rank of Delta by counting: each cover gives up its
    |E_c| - |V_c| + 1 non-tree edges, the rest of the graph keeps all."""
    from freeprod.kurosh import mcc

    g = sg.graph
    lost = sum(len(c.edges) - len(c.vertices) + 1 for c in mcc(g, sg.pair))
    return g.edge_count() - g.vertex_count() + 1 - lost


def reference_decompose(sg):
    """Kurosh factors and free basis as first read: each basic step deletes
    its cover's non-tree edges from a working copy of the graph, a scan
    checks that every one-colour component of what remains (Delta) is a
    tree, and the basis is read off a spanning tree of Delta.  Returns the
    factors as (conjugator, factor, subgroup, basepoint) tuples, the basis
    and Delta."""
    from freeprod.fingroup import _schreier_walk
    from freeprod.kurosh import mcc
    from freeprod.lgraph import components, spanning_tree

    pair = sg.pair
    g = sg.graph.copy()
    tree = spanning_tree(g, g.basepoint, None)
    covers = mcc(g, pair)
    at: dict[int, list[int]] = {}
    for i in sorted(range(len(covers)), key=lambda i: covers[i].factor):
        for u in covers[i].vertices:
            at.setdefault(u, []).append(i)
    unread = set(range(len(covers)))
    factors = []
    for v in tree.order:
        for i in at.get(v, ()):
            if i not in unread:
                continue
            unread.remove(i)
            comp = covers[i]
            stab, kept = _schreier_walk(g, v, pair.factor(comp.factor), comp)
            for e in comp.edges:
                if e not in kept:
                    g.remove_edge(e)
            if len(stab) > 1:
                factors.append((tree.word_to(v), comp.factor, stab, v))
    assert not unread, "a cover is not reachable from the basepoint"
    for comp in components(g):
        assert len(comp.edges) == len(comp.vertices) - 1, "a non-tree component survived"
    delta_tree = spanning_tree(g, g.basepoint, None)
    basis = []
    for e in g.edges():
        if e in delta_tree.geo_edges:
            continue
        h = g.positive_half(e)
        w = (
            delta_tree.word_to(g.init(h))
            + (g.label(h),)
            + inverse_word(delta_tree.word_to(g.term(h)))
        )
        basis.append(free_reduce(w))
    return factors, basis, g


def classify_vertices(g: LabeledGraph) -> dict[int, str]:
    """Tag every live vertex as VM1, VM2, VB or isolated."""
    out: dict[int, str] = {}
    for v in g.vertices():
        colors = {g.label(e).factor for e in half_edges(g, v)}
        if not colors:
            out[v] = "isolated"
        elif len(colors) == 2:
            out[v] = "VB"
        else:
            out[v] = f"VM{colors.pop()}"
    return out


def subgraph(
    g: LabeledGraph,
    vertices: Iterable[int],
    edges: Iterable[int],
    basepoint: int,
) -> LabeledGraph:
    """Standalone copy of a subgraph, vertices renumbered in sorted order."""
    vmap = {v: i for i, v in enumerate(sorted(g.find(v) for v in vertices))}
    h = LabeledGraph()
    for _ in vmap:
        h.add_vertex()
    for e in sorted(set(e & ~1 for e in edges)):
        h.add_edge(vmap[g.init(e)], vmap[g.term(e)], g.label(e))
    set_basepoint(h, vmap[g.find(basepoint)])
    return h


def syllable_length(nw: NormalWord) -> int:
    return len(nw.syllables)


def equal_in_G(w1: Word, w2: Word, pair: FactorPair) -> bool:
    """True iff the two words represent the same element of the free product."""
    return not normalize(w1 + inverse_word(w2), pair)
