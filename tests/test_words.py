import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeprod import (
    Letter,
    WordSyntaxError,
    free_reduce,
    inverse_word,
    normal_to_word,
    normalize,
    parse_word,
    render_word,
)

from freeprod.fingroup import parse_group_word
from freeprod.words import MAX_WORD_LETTERS

from helpers import equal_in_G, nf_mult, nf_of_word, random_word, reference_free_reduce, syllable_length


def test_parse_empty(z2z3):
    assert parse_word("", z2z3) == ()
    assert parse_word("   ", z2z3) == ()


def test_parse_commutator(z2z3):
    w = parse_word("a b a^-1 b^-1", z2z3)
    assert len(w) == 4
    assert w == (Letter(1, 0, 1), Letter(2, 0, 1), Letter(1, 0, -1), Letter(2, 0, -1))


def test_parse_power_expansion(z2z3):
    w = parse_word("b^-2", z2z3)
    assert w == (Letter(2, 0, -1), Letter(2, 0, -1))
    assert parse_word("b^3", z2z3) == (Letter(2, 0, 1),) * 3


def test_word_bound_applies_before_expansion(z2z3):
    with pytest.raises(WordSyntaxError, match="longer than") as info:
        parse_word("a b^100000000000", z2z3)
    assert info.value.column == 3
    with pytest.raises(WordSyntaxError, match="longer than") as info:
        parse_group_word("x x^-100000000000", ("x",))
    assert info.value.column == 3
    # the running count decides, at the token that crosses the bound
    half = MAX_WORD_LETTERS // 2
    assert len(parse_word(f"a^{half} b^-{half}", z2z3)) == MAX_WORD_LETTERS
    text = f"a^{half} b^-{half} a"
    with pytest.raises(WordSyntaxError, match="longer than") as info:
        parse_word(text, z2z3)
    assert info.value.column == len(text)


def test_parse_errors(z2z3):
    with pytest.raises(WordSyntaxError):
        parse_word("c", z2z3)
    with pytest.raises(WordSyntaxError):
        parse_word("a^x", z2z3)
    with pytest.raises(WordSyntaxError):
        parse_word("a^0", z2z3)
    err = None
    try:
        parse_word("a b q", z2z3)
    except WordSyntaxError as exc:
        err = exc
    assert err is not None and err.column == 5


def test_render_roundtrip(z2z3):
    for text in ["", "a", "b^-2", "a b a^-1 b^-1", "b a b a b a"]:
        w = parse_word(text, z2z3)
        assert parse_word(render_word(w, z2z3), z2z3) == w


def test_free_reduce_cancellation(z2z3):
    a = Letter(1, 0, 1)
    b = Letter(2, 0, 1)
    assert free_reduce((a, a.inverse())) == ()
    # a b b^-1 a reduces to a a, which is freely reduced even though a^2 = 1
    assert free_reduce((a, b, b.inverse(), a)) == (a, a)
    reduced = (a, b, a, b.inverse())
    assert free_reduce(reduced) == reduced


def test_normalize_examples(z2z3):
    assert not normalize(parse_word("a a", z2z3), z2z3)
    nf = normalize(parse_word("b^4", z2z3), z2z3)
    assert nf.syllables == ((2, 1),)
    nf = normalize(parse_word("a b b^-1 a b", z2z3), z2z3)
    assert nf.syllables == nf_of_word(parse_word("a b b^-1 a b", z2z3), z2z3)
    assert nf.syllables == ((2, 1),)


def test_syllable_length(z2z3):
    assert syllable_length(normalize((), z2z3)) == 0
    assert syllable_length(normalize(parse_word("a b a", z2z3), z2z3)) == 3
    assert syllable_length(normalize(parse_word("b a b a b a", z2z3), z2z3)) == 6


def test_equal_in_G(z2z3):
    a = parse_word("a", z2z3)
    assert equal_in_G(a, a, z2z3)
    w1 = parse_word("a b a^-1", z2z3)
    w2 = parse_word("a b^2 a", z2z3)
    assert not equal_in_G(w1, w2, z2z3)
    assert equal_in_G(parse_word("b^3", z2z3), (), z2z3)


def _all_words(pair, max_len):
    letters = pair.all_letters()
    for n in range(max_len + 1):
        yield from itertools.product(letters, repeat=n)


def test_normalize_exhaustive_agrees_with_oracle(z2z3):
    # scan-based recomputation is the oracle for the stack-based normalize
    for w in _all_words(z2z3, 5):
        assert normalize(w, z2z3).syllables == nf_of_word(w, z2z3)


def _nf_mult_by_syllables(x, y, pair):
    """The oracle's product as first written: push y's syllables one by one."""
    out = list(x)
    for i, e in y:
        group = pair.factor(i)
        if out and out[-1][0] == i:
            merged = group.mult(out[-1][1], e)
            out.pop()
            if merged != group.identity:
                out.append((i, merged))
        else:
            out.append((i, e))
    return tuple(out)


def test_oracle_product_agrees_with_the_syllable_loop(z2z3, z4z6):
    rng = random.Random(12)
    for pair in (z2z3, z4z6):
        for _ in range(2000):
            w1, w2 = random_word(rng, pair, 12), random_word(rng, pair, 12)
            if rng.random() < 0.5:
                w2 = inverse_word(w1)[: rng.randint(0, len(w1))] + w2   # cancels into w1
            x, y = nf_of_word(w1, pair), nf_of_word(w2, pair)
            want = _nf_mult_by_syllables(x, y, pair)
            assert nf_mult(x, y, pair) == want == nf_of_word(w1 + w2, pair)


def test_normalize_idempotent_and_alternating(z2z3):
    checked = 0
    for w in _all_words(z2z3, 8):
        nf = normalize(w, z2z3)
        for (i, e), (j, _) in zip(nf.syllables, nf.syllables[1:]):
            assert i != j
        for i, e in nf.syllables:
            assert e != z2z3.factor(i).identity
        rendered = normal_to_word(nf, z2z3)
        assert normalize(rendered, z2z3) == nf
        checked += 1
    assert checked > 80_000


def test_equality_is_congruence(z2z3):
    rng = random.Random(7)
    letters = z2z3.all_letters()

    def rand_word():
        return tuple(rng.choice(letters) for _ in range(rng.randint(0, 6)))

    for _ in range(200):
        u, v, w = rand_word(), rand_word(), rand_word()
        assert equal_in_G(u, u, z2z3)
        if equal_in_G(u, v, z2z3):
            assert equal_in_G(v, u, z2z3)
            assert equal_in_G(u + w, v + w, z2z3)
            assert equal_in_G(w + u, w + v, z2z3)
        if equal_in_G(u, v, z2z3) and equal_in_G(v, w, z2z3):
            assert equal_in_G(u, w, z2z3)
        assert equal_in_G(u + inverse_word(u), (), z2z3)


_LETTERS = st.builds(Letter, st.sampled_from((1, 2)), st.sampled_from((0, 1)), st.sampled_from((1, -1)))


@settings(max_examples=300, deadline=None)
@given(st.lists(_LETTERS, max_size=60))
def test_free_reduce_matches_reference(w):
    # two factors with two generators each: small enough to cancel often
    w = tuple(w)
    got = free_reduce(w)
    assert got == reference_free_reduce(w)
    assert all(type(l) is Letter for l in got)
