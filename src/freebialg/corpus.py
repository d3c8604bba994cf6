"""Seeded random corpora shared by the verification suites and the tests."""

from __future__ import annotations

import random

from .algebra import AlgebraElement
from .bialgebra import DirectSumElement
from .scalars import QI
from .words import Rank, ReducedWord, Syllable, _check_count, _rank, _syllable

__all__ = [
    "random_reduced_word",
    "random_exact_scalar",
    "random_algebra_element",
    "random_direct_sum",
]


def _randint(rng: random.Random, a: int, b: int) -> int:
    """``Random.randint(a, b)``'s value and stream for a ``random.Random``, in
    one frame: CPython's ``_randbelow_with_getrandbits`` on ``getrandbits``."""
    n = b - a + 1
    if n < 1:
        raise ValueError(f"empty range for randint({a}, {b})")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return a + r


def random_reduced_word(
    rng: random.Random, ambient: Rank | int, max_len: int, max_gen: int | None = None
) -> ReducedWord:
    """A uniformly-lengthed non-backtracking random walk, hence exactly
    reduced.  For infinite rank a generator cutoff is required."""
    ambient = _rank(ambient)
    _check_count("max_len", max_len, 0)
    span = ambient.n
    if span is None:
        if max_gen is None:
            raise ValueError("infinite rank needs max_gen")
        _check_count("max_gen", max_gen, 1)
        span = max_gen
    length = _randint(rng, 0, max_len)
    sylls: list[Syllable] = []
    for _ in range(length):
        while True:
            g = _randint(rng, 1, span)
            e = (1, -1)[_randint(rng, 0, 1)]  # as ``choice((1, -1))`` indexes
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
    """A small nonzero Gaussian rational ``a/d + (b/e)i``: numerators in
    -3..3, denominators 1 or 2, drawn in the order ``a, d, b, e``."""
    while True:
        a, d = _randint(rng, -3, 3), _randint(rng, 1, 2)
        b, e = _randint(rng, -3, 3), _randint(rng, 1, 2)
        if a or b:
            return QI._new(a * e, b * d, d * e)


def random_algebra_element(
    rng: random.Random, n: int, max_len: int = 5, max_terms: int = 3
) -> AlgebraElement:
    """Up to ``max_terms`` words of length at most ``max_len``, each with a
    :func:`random_exact_scalar`; a word drawn again keeps its later scalar."""
    ambient = _rank(n)
    _check_count("max_terms", max_terms, 1)
    terms = {}
    for _ in range(_randint(rng, 1, max_terms)):
        w = random_reduced_word(rng, ambient, max_len)
        terms[w] = random_exact_scalar(rng)
    # the words are built reduced and the scalars are nonzero
    return AlgebraElement._wrap(ambient, terms, True)


def random_direct_sum(
    rng: random.Random,
    max_rank: int = 12,
    max_len: int = 5,
    max_terms: int = 3,
    parts: int = 2,
) -> DirectSumElement:
    """The sum of ``parts`` :func:`random_algebra_element` draws, each of a
    rank drawn in ``1..max_rank``; parts of one rank merge."""
    _check_count("max_rank", max_rank, 1)
    _check_count("parts", parts, 0)
    pairs = []
    for _ in range(parts):
        n = _randint(rng, 1, max_rank)
        pairs.extend(random_algebra_element(rng, n, max_len, max_terms).terms.items())
    return DirectSumElement._merged(DirectSumElement._space, pairs, True)
