import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freeprod
from freeprod import (
    CapExceededError,
    FiniteGroup,
    GroupValidationError,
    components,
    from_presentation,
    from_table,
    make_cyclic,
)
from freeprod.fingroup import _schreier_walk, reidemeister_schreier
from freeprod.lgraph import pointed_iso, trace
from freeprod.words import Letter

from helpers import (
    cayley_graph,
    coset_graph,
    groups_isomorphic,
    is_group_generated_by,
    reference_enumerate_presentation,
    reference_reidemeister_schreier,
    subgroups_of,
    table_invariant,
)

KLEIN = [[i ^ j for j in range(4)] for i in range(4)]


def _sample_groups():
    return [
        make_cyclic(2, "a"),
        make_cyclic(3, "b"),
        make_cyclic(4, "x"),
        make_cyclic(6, "y"),
        from_table(KLEIN, [("x", 1), ("y", 2)]),
        from_presentation(["a", "b"], ["a^2", "b^3", "a b a b"], cap=64),  # S3
        make_cyclic(12, "z"),
    ]


def test_make_cyclic_trivial():
    g = make_cyclic(1, "a")
    assert g.order == 1 and g.generators == () and g.relators == ()


def test_make_cyclic_small():
    g = make_cyclic(2, "a")
    assert g.mult(1, 1) == g.identity
    y = make_cyclic(6, "y")
    x = y.generators[0][1]
    powers = {y.identity}
    cur = y.identity
    for _ in range(6):
        cur = y.mult(cur, x)
        powers.add(cur)
    assert len(powers) == 6 and cur == y.identity


def test_make_cyclic_rejects_zero():
    with pytest.raises(GroupValidationError):
        make_cyclic(0, "a")


def test_from_table_klein():
    g = from_table(KLEIN, [("x", 1), ("y", 2)])
    assert g.order == 4
    assert all(g.mult(v, v) == g.identity for v in range(4))


def test_from_table_associativity_witness():
    bad = [list(r) for r in KLEIN]
    bad[1][2] = 0  # identity/inverse checks still pass, associativity breaks
    with pytest.raises(GroupValidationError, match="associativity.*triple"):
        from_table(bad, [("x", 1), ("y", 2)])


def test_cap_is_checked_before_any_row_is_read():
    class Unreadable:
        def __iter__(self):
            raise AssertionError("a row was read before the cap check")

    with pytest.raises(GroupValidationError, match="exceeds cap 3"):
        FiniteGroup([Unreadable()] * 4, [("x", 1)], cap=3)


def _generated_table(gens, mul, identity):
    """Multiplication table of the group ``gens`` generate under ``mul``,
    elements numbered by BFS from the identity, plus the generator ids."""
    elems, index = [identity], {identity: 0}
    for x in elems:
        for g in gens:
            y = mul(x, g)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
    return [[index[mul(a, b)] for b in elems] for a in elems], [index[g] for g in gens]


def _perm_mul(p, q):
    return tuple(q[i] for i in p)


def _quaternion_mul(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


# tables built without the library, each with a standard generating set
_SMALL_GROUPS = {
    **{f"Z{n}": _generated_table([1], lambda a, b, n=n: (a + b) % n, 0) for n in range(2, 7)},
    "Klein": _generated_table([(1, 0), (0, 1)], lambda a, b: (a[0] ^ b[0], a[1] ^ b[1]), (0, 0)),
    "S3": _generated_table([(1, 0, 2), (1, 2, 0)], _perm_mul, (0, 1, 2)),
    "D4": _generated_table([(1, 2, 3, 0), (0, 3, 2, 1)], _perm_mul, (0, 1, 2, 3)),
    "Q8": _generated_table([(0, 1, 0, 0), (0, 0, 1, 0)], _quaternion_mul, (1, 0, 0, 0)),
}


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_table_validation_agrees_with_exhaustive_reference(data):
    # one or two entries set to a random value (possibly the one already
    # there), and either the standard generators or a random set of ids
    table, standard = _SMALL_GROUPS[data.draw(st.sampled_from(sorted(_SMALL_GROUPS)))]
    n = len(table)
    table = [list(row) for row in table]
    entry = st.integers(0, n - 1)
    for _ in range(data.draw(st.integers(1, 2))):
        table[data.draw(entry)][data.draw(entry)] = data.draw(entry)
    images = data.draw(
        st.one_of(st.just(standard), st.lists(entry, min_size=1, max_size=3, unique=True))
    )
    gens = [(f"g{k}", img) for k, img in enumerate(images)]
    try:
        from_table(table, gens)
    except GroupValidationError as exc:
        assert not is_group_generated_by(table, images), str(exc)
        witness = re.search(r"triple \((\d+), (\d+), (\d+)\)", str(exc))
        if witness:
            a, b, c = map(int, witness.groups())
            assert table[table[a][b]][c] != table[a][table[b][c]]
    else:
        assert is_group_generated_by(table, images)


_IMPORTS_OF_FREEPROD = """
import sys
before = set(sys.modules)
import freeprod
new = {m.partition(".")[0] for m in set(sys.modules) - before}
print(sorted(new - set(sys.stdlib_module_names) - {"freeprod"}))
"""


def test_import_pulls_in_only_the_standard_library():
    # the runtime has no dependencies: no array library comes in with it
    src = str(Path(freeprod.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORTS_OF_FREEPROD],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stdout.strip() == "[]", proc.stdout + proc.stderr


def test_from_table_nongenerating():
    z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    with pytest.raises(GroupValidationError, match="do not generate"):
        from_table(z4, [("x", 2)])


def test_from_table_identity_generator():
    z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    with pytest.raises(GroupValidationError, match="identity"):
        from_table(z4, [("x", 0), ("y", 1)])


def test_from_presentation_cyclic():
    assert from_presentation(["a"], ["a^2"], cap=16).order == 2
    assert from_presentation(["b"], ["b^3"], cap=16).order == 3
    g = from_presentation(["y"], ["y^6"], cap=32)
    assert g.order == 6
    # BFS numbering in label order: the generator lands on element 1
    assert g.generators[0][1] == 1


def test_from_presentation_cap_exceeded():
    with pytest.raises(CapExceededError):
        from_presentation(["a"], [], cap=16)


def test_from_presentation_bigger_groups():
    s3 = from_presentation(["a", "b"], ["a^2", "b^3", "a b a b"], cap=64)
    assert s3.order == 6
    klein = from_presentation(["a", "b"], ["a^2", "b^2", "a b a^-1 b^-1"], cap=64)
    assert klein.order == 4
    q8 = from_presentation(["a", "b"], ["a^4", "a^2 b^-2", "b^-1 a b a"], cap=128)
    assert q8.order == 8
    assert groups_isomorphic(klein, from_table(KLEIN, [("x", 1), ("y", 2)]))


def test_group_axioms_exhaustive():
    for g in _sample_groups():
        for u in range(g.order):
            assert g.mult(u, g.inv(u)) == g.identity
            for v in range(g.order):
                assert g.mult(g.identity, v) == v


def test_cayley_graph_shapes():
    g2 = cayley_graph(make_cyclic(2, "a"))
    assert g2.vertex_count() == 2 and g2.edge_count() == 2  # one edge pair, a 2-cycle
    g3 = cayley_graph(make_cyclic(3, "b"), factor=2)
    assert g3.vertex_count() == 3 and g3.edge_count() == 3
    g6 = cayley_graph(make_cyclic(6, "y"), factor=2)
    assert g6.vertex_count() == 6 and g6.edge_count() == 6


def test_cayley_graph_is_saturated_and_based():
    # every letter readable everywhere; every trivial word traces a loop
    for group in [make_cyclic(6, "y"), from_table(KLEIN, [("x", 1), ("y", 2)]),
                  from_presentation(["a", "b"], ["a^4", "a^2 b^-2", "b^-1 a b a"], cap=128)]:
        g = cayley_graph(group)
        letters = [Letter(1, gi, s) for gi in range(len(group.generators)) for s in (1, -1)]
        for v in g.vertices():
            for letter in letters:
                assert g.out_edge(v, letter) is not None
        for n in range(7):
            for word in itertools.product(letters, repeat=n):
                val = group.identity
                for l in word:
                    img = group.generators[l.gen][1]
                    val = group.mult(val, img if l.sign > 0 else group.inv(img))
                if val == group.identity:
                    for v in g.vertices():
                        assert trace(g, v, word).vertex == v


def test_coset_graph_examples():
    z6 = make_cyclic(6, "y")
    whole = coset_graph(z6, range(6))
    assert whole.vertex_count() == 1 and whole.edge_count() == 1

    # brute-force coset partition as the oracle for the vertex count
    sub = frozenset({0, 2, 4})
    cosets = {frozenset(z6.mult(s, g) for s in sub) for g in range(6)}
    assert len(cosets) == 2
    half = coset_graph(z6, sub)
    assert half.vertex_count() == 2

    z2 = make_cyclic(2, "a")
    triv = coset_graph(z2, {z2.identity})
    assert pointed_iso(triv, triv.basepoint, cayley_graph(z2), z2.identity)


def _stabilizer(g, v, group):
    # a Cayley or coset graph is one component
    return _schreier_walk(g, v, group, components(g)[0])[0]


def test_schreier_stabilizer_examples():
    z6 = make_cyclic(6, "y")
    cg = cayley_graph(z6)
    for v in cg.vertices():
        assert _stabilizer(cg, v, z6) == frozenset({z6.identity})
    whole = coset_graph(z6, range(6))
    assert _stabilizer(whole, whole.basepoint, z6) == frozenset(range(6))
    half = coset_graph(z6, {0, 3})
    assert _stabilizer(half, half.basepoint, z6) == frozenset({0, 3})


def test_schreier_stabilizer_requires_saturation():
    from freeprod.lgraph import LabeledGraph

    z6 = make_cyclic(6, "y")
    g = LabeledGraph()
    u, v = g.add_vertex(), g.add_vertex()
    g.add_edge(u, v, Letter(1, 0, 1))
    with pytest.raises(ValueError, match="saturated"):
        _stabilizer(g, u, z6)


def test_orbit_stabilizer_exhaustive():
    for group in _sample_groups():
        for sub in subgroups_of(group):
            cg = coset_graph(group, sub)
            for v in cg.vertices():
                stab = _stabilizer(cg, v, group)
                assert len(stab) * cg.vertex_count() == group.order
            assert _stabilizer(cg, cg.basepoint, group) == sub


def _presented_from(pres):
    sym_index = {s: k for k, s in enumerate(pres.generators)}
    relators = [
        tuple((sym_index[s], sign) for s, sign in rel) for rel in pres.relators
    ]
    return from_presentation(pres.generators, relators, cap=256)


def _subgroup_as_group(group, sub):
    elems = sorted(sub)
    index = {e: k for k, e in enumerate(elems)}
    table = [[index[group.mult(a, b)] for b in elems] for a in elems]
    gens = [(f"g{k}", index[e]) for k, e in enumerate(elems) if e != group.identity]
    return FiniteGroup(table, gens)


def test_reidemeister_schreier_z6_even_subgroup():
    z6 = make_cyclic(6, "y")
    pres = reidemeister_schreier(z6, {0, 2, 4})
    assert not pres.fallback
    assert len(pres.generators) == 1
    assert len(pres.relators) == 1 and len(pres.relators[0]) == 3
    assert groups_isomorphic(_presented_from(pres), make_cyclic(3, "c"))


def test_reidemeister_schreier_whole_z2():
    z2 = make_cyclic(2, "a")
    pres = reidemeister_schreier(z2, {0, 1})
    assert len(pres.generators) == 1
    assert pres.relators == (((pres.generators[0], 1), (pres.generators[0], 1)),)


def test_reidemeister_schreier_trivial_subgroup():
    z6 = make_cyclic(6, "y")
    pres = reidemeister_schreier(z6, {0})
    assert pres.generators == () and pres.relators == ()


def test_reidemeister_schreier_fallback():
    klein = from_table(KLEIN, [("x", 1), ("y", 2)])  # no relators known
    pres = reidemeister_schreier(klein, {0, 1})
    assert pres.fallback
    assert groups_isomorphic(_presented_from(pres), make_cyclic(2, "c"))


def test_reidemeister_schreier_checks_the_subgroup_once(monkeypatch):
    # one check at the top, before the relators and fallback branches part;
    # a non-subgroup is refused on both
    calls = []
    check = FiniteGroup.is_subgroup

    def counted(self, sub):
        calls.append(sub)
        return check(self, sub)

    monkeypatch.setattr(FiniteGroup, "is_subgroup", counted)
    z6 = make_cyclic(6, "y")
    klein = from_table(KLEIN, [("x", 1), ("y", 2)])  # no relators known
    for group, sub, bad in ((z6, {0, 3}, {0, 2}), (klein, {0, 1}, {0, 1, 2})):
        calls.clear()
        reidemeister_schreier(group, sub)
        assert len(calls) == 1
        with pytest.raises(GroupValidationError, match="not closed"):
            reidemeister_schreier(group, bad)


def test_reidemeister_schreier_roundtrip_all_subgroups():
    # Schreier presentations may carry generators whose value is the
    # identity (relators kill them), which from_presentation rejects by
    # design, so the raw enumeration is compared instead.
    from freeprod.fingroup import _enumerate_presentation

    for group in _sample_groups():
        if not group.relators:
            continue
        for sub in subgroups_of(group):
            if sub == {group.identity}:
                continue
            pres = reidemeister_schreier(group, sub)
            sym_index = {s: k for k, s in enumerate(pres.generators)}
            relators = [
                tuple((sym_index[s], sign) for s, sign in rel) for rel in pres.relators
            ]
            table, _ = _enumerate_presentation(pres.generators, relators, cap=256)
            target = _subgroup_as_group(group, sub)
            assert table_invariant(table) == table_invariant(
                target._table, target.identity
            )


def _enumerated(enumerate_, labels, relators, cap):
    """What an enumerator returns, or the type and message of its error."""
    try:
        return enumerate_(labels, relators, cap)
    except (CapExceededError, GroupValidationError) as exc:
        return type(exc), str(exc)


def _power(word, n):
    return " ".join([word] * n)


_NAMED_PRESENTATIONS = [
    (["a", "b"], ["a^2", "b^3", _power("a b", 7), _power("a b a b^-1", 4)]),   # PSL(2,7)
    (["a", "b"], ["a^2", "b^3", _power("a b", 5)]),                            # A5
    (["a", "b"], ["a^2", "b^3", _power("a b", 4)]),                            # S4
    (["i", "j"], ["i^4", "i^2 j^-2", "j^-1 i j i"]),                           # Q8
    (["r", "s"], ["r^7", "s^2", "s r s r"]),                                   # D7
    (["z"], ["z^64"]),
    (["a", "b"], ["a^2", "b^2", _power("a b", 3), "a^3"]),   # collapses to Z1
    (["a", "b"], ["a^2", "b^3"]),                            # infinite: the cap
]


@pytest.mark.parametrize("labels, relators", _NAMED_PRESENTATIONS)
def test_one_pass_enumeration_matches_reference_named(labels, relators):
    from freeprod.fingroup import _enumerate_presentation, parse_group_word

    parsed = [parse_group_word(r, tuple(labels)) for r in relators]
    ours = _enumerated(_enumerate_presentation, labels, parsed, 1024)
    assert ours == _enumerated(reference_enumerate_presentation, labels, parsed, 1024)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_pass_enumeration_matches_reference(data):
    # random relator sets: the one-pass table, or its error, is the
    # fixpoint loop's
    from freeprod.fingroup import _enumerate_presentation

    nl = data.draw(st.integers(1, 3))
    letter = st.tuples(st.integers(0, nl - 1), st.sampled_from([1, -1]))
    relators = data.draw(st.lists(st.lists(letter, max_size=8).map(tuple), max_size=4))
    labels = tuple(f"g{i}" for i in range(nl))
    ours = _enumerated(_enumerate_presentation, labels, relators, 64)
    assert ours == _enumerated(reference_enumerate_presentation, labels, relators, 64)


def _fields(pres):
    return pres.generators, pres.relators, pres.aliases, pres.fallback


def test_reidemeister_schreier_matches_reference_all_subgroups():
    for group in _sample_groups():
        if not group.relators:
            continue
        for sub in subgroups_of(group):
            for factor in (1, 2):
                assert _fields(reidemeister_schreier(group, sub, factor=factor)) == _fields(
                    reference_reidemeister_schreier(group, sub, factor=factor)
                )


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 600), st.data())
def test_reidemeister_schreier_matches_reference_cyclic(n, data):
    group = make_cyclic(n, "a")
    sub = group.closure([data.draw(st.integers(0, n - 1), label="subgroup generator")])
    assert _fields(reidemeister_schreier(group, sub, factor=2)) == _fields(
        reference_reidemeister_schreier(group, sub, factor=2)
    )


@pytest.fixture(scope="module")
def non_abelian():
    return [
        from_presentation(["s", "t"], ["s^2", "t^3", "s t s t s t s t s t"]),  # A5
        # S5 and PSL(2,7) with the relators of the large-factors benchmark workload
        from_presentation(
            ["s", "t"], ["s^2", "t^5", "s t s t s t s t", "s t^-1 s t s t^-1 s t s t^-1 s t"]
        ),
        from_presentation(
            ["x", "y"], ["x^2", "y^3", " ".join(["x y"] * 7), " ".join(["x y x y^-1"] * 4)]
        ),
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2), st.integers(1, 2), st.data())
def test_reidemeister_schreier_matches_reference_non_abelian(non_abelian, which, factor, data):
    group = non_abelian[which]
    seeds = data.draw(st.lists(st.integers(0, group.order - 1), min_size=1, max_size=2))
    sub = group.closure(seeds)
    assert _fields(reidemeister_schreier(group, sub, factor=factor)) == _fields(
        reference_reidemeister_schreier(group, sub, factor=factor)
    )


_Z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]


@pytest.mark.parametrize(
    "generators, relators, message",
    [
        ([("x", 1)], (((0, 1),) * 4, ((0, 1), (0, 0))), "sign 0"),
        ([("x", 1)], (((0, 1),) * 4, ((1, 1),)), "no generator 1"),
        ([("x", 1)], (((-1, 1),) * 4,), "no generator -1"),
        ([("x", 1.9)], None, "not an int"),
        ([("x", "1")], None, "not an int"),
    ],
)
def test_group_rejects_bad_relator_letters_and_generator_images(generators, relators, message):
    # a sign-0 letter read as an inverse by evaluate but as positive by
    # the Schreier rewrite; an index past (or before) the generators; an
    # image that int() would have rounded or parsed
    with pytest.raises(GroupValidationError, match=message):
        FiniteGroup(_Z4, generators, relators=relators)


@pytest.mark.parametrize("label", ["a^2", "a^1", "x y", "", " a", "a^x", "^a", "a^\u0661"])
def test_labels_no_word_can_name_are_refused(label):
    # a label must read back through the word tokenizer as itself with
    # exponent 1, or no word could refer to its generator
    with pytest.raises(GroupValidationError, match="is not a word token"):
        make_cyclic(3, label)
    with pytest.raises(GroupValidationError, match="is not a word token"):
        from_table(_Z4, [("b", 1), (label, 2)])
    # checked before enumeration: this presentation is infinite
    with pytest.raises(GroupValidationError, match="is not a word token"):
        from_presentation((label, "d"), ["d^2"], cap=16)


def test_word_token_labels_are_accepted():
    for label in ("a", "x1", "g_2", "A'", "-"):
        assert make_cyclic(2, label).labels() == (label,)


@pytest.mark.parametrize("bad", ["1", 1.5, 1.0, None])
def test_table_rejects_non_int_entries(bad):
    table = [[0, 1], [1, 0]]
    table[1][0] = bad
    with pytest.raises(GroupValidationError, match="not an int"):
        from_table(table, [("a", 1)])


def test_two_generators_same_image_allowed():
    # parallel edges with distinct labels keep the Cayley graph well-labelled
    z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    g = from_table(z4, [("x", 1), ("w", 1)])
    cg = cayley_graph(g)
    assert cg.is_well_labelled()
    assert cg.edge_count() == 8
