"""Seeded random corpora shared by the verification suites and the tests."""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import AlgebraElement
from .bialgebra import DirectSumElement
from .scalars import QI
from .words import Rank, ReducedWord, Syllable, _as_rank, _syllable

__all__ = [
    "random_reduced_word",
    "random_exact_scalar",
    "random_algebra_element",
    "random_direct_sum",
]


def random_reduced_word(
    rng: random.Random, ambient: Rank | int, max_len: int, max_gen: int | None = None
) -> ReducedWord:
    """A uniformly-lengthed non-backtracking random walk, hence exactly
    reduced.  For infinite rank a generator cutoff is required."""
    ambient = _as_rank(ambient)
    span = max_gen if ambient.is_infinite else ambient.n
    if span is None:
        raise ValueError("infinite rank needs max_gen")
    length = rng.randint(0, max_len)
    sylls: list[Syllable] = []
    for _ in range(length):
        while True:
            g = rng.randint(1, span)
            e = rng.choice((1, -1))
            if not sylls:
                break
            last = sylls[-1]
            if last.gen != g or (last.exp > 0) == (e > 0):
                break
        if sylls and sylls[-1].gen == g:
            sylls[-1] = _syllable(g, sylls[-1].exp + e)
        else:
            sylls.append(_syllable(g, e))
    return ReducedWord._new(ambient, tuple(sylls))


def random_exact_scalar(rng: random.Random) -> QI:
    """A small nonzero Gaussian rational: numerators in -3..3, denominators
    1 or 2."""
    while True:
        re = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        im = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if re or im:
            return QI(re, im)


def random_algebra_element(
    rng: random.Random, n: int, max_len: int = 5, max_terms: int = 3
) -> AlgebraElement:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        w = random_reduced_word(rng, n, max_len)
        terms[w] = random_exact_scalar(rng)
    return AlgebraElement(n, terms)


def random_direct_sum(
    rng: random.Random,
    max_rank: int = 12,
    max_len: int = 5,
    max_terms: int = 3,
    parts: int = 2,
) -> DirectSumElement:
    comps = []
    for _ in range(parts):
        n = rng.randint(1, max_rank)
        comps.append((n, random_algebra_element(rng, n, max_len, max_terms)))
    return DirectSumElement(comps)
