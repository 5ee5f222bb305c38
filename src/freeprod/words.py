"""Words over the two-colored alphabet of a free product, and their normal forms.

A letter is a generator of one of the two factor groups, or the inverse of
one.  Words are plain tuples of letters and may be unreduced.  A normal word
is the canonical alternating form: a sequence of non-identity factor elements
in which consecutive entries come from different factors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, NamedTuple

if TYPE_CHECKING:
    from .fingroup import FactorPair


class WordSyntaxError(ValueError):
    """Raised for malformed word text; carries the column of the bad token."""

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


class Letter(NamedTuple):
    factor: int  # 1 or 2
    gen: int     # index into the factor's generator list
    sign: int    # +1 or -1

    def inverse(self) -> "Letter":
        return Letter(self.factor, self.gen, -self.sign)


Word = tuple[Letter, ...]


def letter_key(letter: Letter) -> tuple[int, int, int]:
    """Canonical letter order: by factor, then generator, positive first."""
    return (letter.factor, letter.gen, 0 if letter.sign > 0 else 1)


def inverse_word(w: Word) -> Word:
    return tuple(l.inverse() for l in reversed(w))


@dataclass(frozen=True)
class NormalWord:
    """Alternating sequence of (factor index, non-identity element id)."""

    syllables: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.syllables)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.syllables)

    def __bool__(self) -> bool:
        return bool(self.syllables)


_TOKEN = re.compile(r"\S+")

# Most letters one word may expand to; checked token by token before any
# power is expanded, so ``a^K`` cannot allocate K letters first.
MAX_WORD_LETTERS = 1 << 20


def _tokens(text: str) -> list[tuple[str, int, int]]:
    """Split word text into (name, exponent, column) triples."""
    out = []
    letters = 0
    for m in _TOKEN.finditer(text):
        tok = m.group()
        col = m.start() + 1
        name, sep, exp_text = tok.partition("^")
        if not name:
            raise WordSyntaxError(f"malformed token {tok!r}", col)
        if sep:
            try:
                exp = int(exp_text)
            except ValueError:
                raise WordSyntaxError(f"malformed exponent in {tok!r}", col) from None
            if exp == 0:
                raise WordSyntaxError(f"zero exponent in {tok!r}", col)
        else:
            exp = 1
        letters += abs(exp)
        if letters > MAX_WORD_LETTERS:
            raise WordSyntaxError(f"word longer than {MAX_WORD_LETTERS} letters", col)
        out.append((name, exp, col))
    return out


def parse_word(text: str, pair: "FactorPair") -> Word:
    """Parse whitespace-separated tokens ``name`` or ``name^k`` into a word.

    Powers are expanded letter by letter; negative powers become inverse
    letters.  Empty text gives the empty word.  A word of more than
    ``MAX_WORD_LETTERS`` letters is refused at the token that crosses the
    bound, before anything is expanded.
    """
    letters: list[Letter] = []
    for name, exp, col in _tokens(text):
        letter = pair.resolve(name)
        if letter is None:
            raise WordSyntaxError(f"unknown generator {name!r}", col)
        if exp < 0:
            letter = letter.inverse()
            exp = -exp
        letters.extend([letter] * exp)
    return tuple(letters)


def format_symbol_word(rel: tuple[tuple[str, int], ...]) -> str:
    """Render (name, +-1) pairs with runs compressed to ``name^k`` tokens."""
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


def render_word(w: Word, pair: "FactorPair") -> str:
    """Inverse of parse_word, with runs compressed to ``name^k`` tokens.
    Generator labels are distinct, so runs of equal (label, sign) pairs are
    runs of equal letters."""
    return format_symbol_word(
        tuple((pair.factor(l.factor).generators[l.gen][0], l.sign) for l in w)
    )


def free_reduce(w: Word) -> Word:
    """Cancel adjacent letter/inverse pairs until none remain."""
    out: list[Letter] = []
    for letter in w:
        factor, gen, sign = letter
        if out and out[-1] == (factor, gen, -sign):   # a plain tuple equals its Letter
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def normalize(w: Word, pair: "FactorPair") -> NormalWord:
    """Normal form of the element represented by ``w``.

    Maximal same-factor runs are evaluated in their factor group, identity
    syllables are dropped, and newly adjacent same-factor syllables merge,
    all the way to a fixpoint (a single left-to-right pass over a stack of
    syllables reaches it).
    """
    stack: list[tuple[int, int]] = []
    for letter in w:
        i = letter.factor
        group = pair.factor(i)
        e = pair.letter_element(letter)
        if stack and stack[-1][0] == i:
            merged = group.mult(stack[-1][1], e)
            stack.pop()
            if merged != group.identity:
                stack.append((i, merged))
        elif e != group.identity:
            stack.append((i, e))
    return NormalWord(tuple(stack))


def normal_to_word(nw: NormalWord, pair: "FactorPair") -> Word:
    """Render a normal word back to letters, one shortest word per syllable."""
    letters: list[Letter] = []
    for i, elem in nw:
        group = pair.factor(i)
        letters.extend(Letter(i, gi, sign) for gi, sign in group.word_for(elem))
    return tuple(letters)
