"""Text grammar for words and elements.

::

    element  := rank ':' linear
    linear   := term (('+'|'-') term)*
    term     := [coeff '*'] word
    coeff    := rational | '(' rational ('+'|'-') rational 'i' ')'
    word     := '1' | gterm ('*' gterm)*
    gterm    := 'g' INT ('^' SIGNED_INT)?
    rank     := 'F' (INT | 'inf')
    rational := ['-'] INT ['/' INT]

Whitespace may separate tokens.  Printing (`str` on the element types) emits
canonical forms that parse back to equal values; a leading negative real
coefficient is printed explicitly (``-1*g1``) so output stays inside the
grammar.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraElement
from .scalars import ONE, QI
from .words import INFINITE, Rank, ReducedWord, Syllable, _as_rank, _rank, reduce, unit

__all__ = ["ParseError", "parse_rank", "parse_word", "parse_element"]


class ParseError(ValueError):
    """Syntax or range error, carrying the 0-based offset of the failure."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise ParseError(f"expected {ch!r}", self.pos)

    def match_word(self, word: str) -> bool:
        self.skip_ws()
        if self.text.startswith(word, self.pos):
            self.pos += len(word)
            return True
        return False

    def read_uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return int(self.text[start : self.pos])

    def read_int(self) -> int:
        self.skip_ws()
        sign = -1 if self.take("-") else 1
        return sign * self.read_uint()

    def read_rational(self) -> Fraction:
        num = self.read_int()
        if self.take("/"):
            den = self.read_uint()
            if den == 0:
                raise ParseError("zero denominator", self.pos)
            return Fraction(num, den)
        return Fraction(num)

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_rank(sc: _Scanner) -> Rank:
    sc.skip_ws()
    if not sc.take("F"):
        raise ParseError("expected a rank like 'F4' or 'Finf'", sc.pos)
    if sc.match_word("inf"):
        return INFINITE
    return _rank(sc.read_uint())


def parse_rank(text: str) -> Rank:
    sc = _Scanner(text)
    rank = _parse_rank(sc)
    if not sc.at_end():
        raise ParseError("trailing input after rank", sc.pos)
    return rank


def _parse_gterm(sc: _Scanner, ambient: Rank) -> Syllable:
    sc.skip_ws()
    start = sc.pos
    if not sc.take("g"):
        raise ParseError("expected a generator like 'g2'", sc.pos)
    idx = sc.read_uint()
    if not ambient.allows(idx):
        raise ParseError(f"generator index {idx} out of range for {ambient}", start)
    exp = sc.read_int() if sc.take("^") else 1
    if exp == 0:
        raise ParseError("zero exponent", start)
    return Syllable(idx, exp)


def _parse_word(sc: _Scanner, ambient: Rank) -> ReducedWord:
    if sc.peek() == "1":
        sc.take("1")
        return unit(ambient)
    sylls = [_parse_gterm(sc, ambient)]
    while True:
        save = sc.pos
        if not sc.take("*"):
            break
        if sc.peek() != "g":
            # the '*' belonged to an enclosing context
            sc.pos = save
            break
        sylls.append(_parse_gterm(sc, ambient))
    return reduce(ambient, sylls)


def parse_word(text: str, ambient: Rank | int) -> ReducedWord:
    """Parse a word like ``g1*g2^-1`` over the given ambient rank."""
    ambient = _as_rank(ambient)
    sc = _Scanner(text)
    w = _parse_word(sc, ambient)
    if not sc.at_end():
        raise ParseError("trailing input after word", sc.pos)
    return w


def _parse_coeff(sc: _Scanner) -> QI:
    if sc.take("("):
        re = sc.read_rational()
        sc.skip_ws()
        if sc.take("+"):
            sign = 1
        elif sc.take("-"):
            sign = -1
        else:
            raise ParseError("expected '+' or '-' in complex coefficient", sc.pos)
        im = sc.read_rational()
        sc.expect("i")
        sc.expect(")")
        return QI(re, sign * im)
    return QI(sc.read_rational())


def _parse_term(sc: _Scanner, ambient: Rank) -> tuple[ReducedWord, QI]:
    ch = sc.peek()
    if ch == "(" or ch == "-" or ch.isdigit():
        save = sc.pos
        coeff = _parse_coeff(sc)
        if sc.take("*"):
            return _parse_word(sc, ambient), coeff
        # a bare '1' is the unit word, not a coefficient
        if coeff == ONE and sc.text[save:sc.pos].strip() == "1":
            return unit(ambient), ONE
        raise ParseError("expected '*' after coefficient", sc.pos)
    return _parse_word(sc, ambient), ONE


def parse_element(text: str) -> AlgebraElement:
    """Parse an element like ``F4: 2*g1*g2^-1 - g3`` with exact scalars."""
    sc = _Scanner(text)
    ambient = _parse_rank(sc)
    sc.expect(":")
    if sc.peek() == "0":
        # a lone '0' is the zero element; otherwise it starts a coefficient
        save = sc.pos
        sc.take("0")
        if sc.at_end():
            return AlgebraElement.zero(ambient)
        sc.pos = save
    terms: list[tuple[ReducedWord, QI]] = []
    w, c = _parse_term(sc, ambient)
    terms.append((w, c))
    while not sc.at_end():
        if sc.take("+"):
            sign = ONE
        elif sc.take("-"):
            sign = -ONE
        else:
            raise ParseError("expected '+' or '-' between terms", sc.pos)
        w, c = _parse_term(sc, ambient)
        terms.append((w, sign * c))
    return AlgebraElement(ambient, terms)
