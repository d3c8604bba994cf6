"""The seeded corpora: one draw helper with ``random.Random.randint``'s exact
stream, and corpus functions that draw the same elements as the
``randint``/``choice`` and public-constructor code they replaced."""

from __future__ import annotations

import random

import pytest

from freebialg.algebra import AlgebraElement
from freebialg.bialgebra import DirectSumElement
from freebialg.corpus import (
    _randint,
    random_algebra_element,
    random_direct_sum,
    random_reduced_word,
)
from freebialg.scalars import QI
from freebialg.words import INFINITE, ReducedWord, Syllable, _rank, _syllable

SEEDS = range(240)

# widths 1, 2 and 3, each side of the powers of two, negative and large bounds
RANGES = [
    (0, 0), (5, 5), (-4, -4), (0, 1), (1, 2), (-1, 0), (-3, 3), (-2, 2), (1, 3), (1, 4),
    (1, 6), (1, 12), (2, 3), (1, 24), (0, 7), (0, 8), (-8, 8), (-100, -37), (0, 2**31),
    (-(2**40), 2**40 + 3), (7, 7 + 2**64),
]


# -- the corpus as it was built with ``randint``, ``choice`` and public constructors --


def reference_word(rng, ambient, max_len, max_gen=None):
    ambient = _rank(ambient)
    span = ambient.n if ambient.n is not None else max_gen
    sylls: list[Syllable] = []
    for _ in range(rng.randint(0, max_len)):
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


def reference_scalar(rng):
    while True:
        a, d = rng.randint(-3, 3), rng.randint(1, 2)
        b, e = rng.randint(-3, 3), rng.randint(1, 2)
        if a or b:
            return QI._new(a * e, b * d, d * e)


def reference_element(rng, n, max_len=5, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        w = reference_word(rng, n, max_len)
        terms[w] = reference_scalar(rng)
    return AlgebraElement(n, terms)


def reference_direct_sum(rng, max_rank=12, max_len=5, max_terms=3, parts=2):
    comps = []
    for _ in range(parts):
        n = rng.randint(1, max_rank)
        comps.append((n, reference_element(rng, n, max_len, max_terms)))
    return DirectSumElement(comps), comps


def assert_same_element(got, want):
    assert type(got) is type(want) and got.space == want.space and got.exact is want.exact
    assert list(got.terms.items()) == list(want.terms.items())
    for (w, c), (v, d) in zip(got.terms.items(), want.terms.items()):
        assert type(w) is type(v) is ReducedWord and type(c) is type(d) is QI
        assert (c._a, c._b, c._d) == (d._a, d._b, d._d)
    assert got.to_json() == want.to_json()


def pair(seed):
    return random.Random(seed), random.Random(seed)


# -- the draw helper ------------------------------------------------------------------------


@pytest.mark.parametrize("a, b", RANGES)
def test_randint_is_random_randint(a, b):
    """The value and the generator state after each draw equal those of
    ``random.Random.randint`` on the same seed."""
    for seed in SEEDS:
        rng, old = pair(seed)
        for _ in range(5):
            assert _randint(rng, a, b) == old.randint(a, b)
            assert rng.getstate() == old.getstate()


def test_randint_refuses_an_empty_range_before_any_draw():
    """A bit-drawing loop over no values would never end: ``getrandbits(0)``
    is 0, and ``0 >= 0`` holds for ever."""
    rng = random.Random(1)
    state = rng.getstate()
    for a, b in ((1, 0), (0, -1), (5, 2)):
        with pytest.raises(ValueError, match=rf"^empty range for randint\({a}, {b}\)$"):
            _randint(rng, a, b)
    assert rng.getstate() == state


# -- the corpus functions against their reference copies ------------------------------------


WORD_CASES = [
    (1, 0, None), (1, 6, None), (2, 5, None), (4, 6, None), (12, 5, None), (24, 1, None),
    (INFINITE, 4, 3), (INFINITE, 6, 1), (INFINITE, 0, 5),
]


@pytest.mark.parametrize("ambient, max_len, max_gen", WORD_CASES)
def test_random_reduced_word_draws_the_randint_corpus(ambient, max_len, max_gen):
    for seed in SEEDS:
        rng, old = pair(seed)
        for _ in range(4):
            got = random_reduced_word(rng, ambient, max_len, max_gen)
            want = reference_word(old, ambient, max_len, max_gen)
            assert got == want and got.syllables == want.syllables
            assert rng.getstate() == old.getstate()


@pytest.mark.parametrize("n, max_len, max_terms", [(1, 0, 1), (1, 1, 4), (2, 0, 3), (3, 5, 3), (12, 5, 1), (4, 2, 6)])
def test_random_algebra_element_draws_the_public_construction(n, max_len, max_terms):
    """Words, their order, scalars and the stream match; ``max_len=0`` draws
    the unit word every time, so repeated words keep their first place."""
    for seed in SEEDS:
        rng, old = pair(seed)
        for _ in range(3):
            got = random_algebra_element(rng, n, max_len, max_terms)
            assert_same_element(got, reference_element(old, n, max_len, max_terms))
            assert rng.getstate() == old.getstate()


@pytest.mark.parametrize(
    "kwargs, shared",
    [
        ({}, False),
        ({"max_rank": 6, "max_len": 3}, False),
        ({"max_rank": 1, "max_len": 1, "max_terms": 3, "parts": 4}, True),
        ({"max_rank": 2, "max_len": 0, "max_terms": 2, "parts": 3}, True),
        ({"max_rank": 3, "parts": 0}, False),
        ({"max_rank": 1, "parts": 1, "max_terms": 1}, False),
    ],
    ids=["default", "unitization", "one-rank", "unit-words", "no-parts", "one-part"],
)
def test_random_direct_sum_draws_the_public_construction(kwargs, shared):
    """Equal to the sum built from components, also where two parts share a
    rank and their terms merge or cancel; the ``shared`` corpora are narrow
    enough that both happen, and the test counts that they did."""
    merged = cancelled = 0
    for seed in SEEDS:
        rng, old = pair(seed)
        for _ in range(3):
            got = random_direct_sum(rng, **kwargs)
            want, comps = reference_direct_sum(old, **kwargs)
            assert_same_element(got, want)
            assert rng.getstate() == old.getstate()
            drawn: dict = {}
            for _, el in comps:
                for w, c in el.terms.items():
                    drawn.setdefault(w, []).append(c)
            sums = [sum(cs, QI(0)) for cs in drawn.values() if len(cs) > 1]
            merged += sum(map(bool, sums))
            cancelled += len(sums) - sum(map(bool, sums))
    if shared:
        assert merged and cancelled


def test_corpus_counts_are_refused_before_any_draw():
    rng = random.Random(3)
    state = rng.getstate()
    refusals = [
        (lambda: random_algebra_element(rng, 2, 3, 0), "^max_terms must be positive$"),
        (lambda: random_algebra_element(rng, 2, 3, 1.0), r"^max_terms must be an int, got 1\.0$"),
        (lambda: random_direct_sum(rng, max_rank=0), "^max_rank must be positive$"),
        (lambda: random_direct_sum(rng, parts=-1), "^parts must be nonnegative$"),
        (lambda: random_direct_sum(rng, max_rank=True), "^max_rank must be an int, got True$"),
    ]
    for call, message in refusals:
        with pytest.raises(ValueError, match=message):
            call()
        assert rng.getstate() == state
    # a direct sum passes ``max_terms`` on, checked once a part's rank is drawn
    with pytest.raises(ValueError, match="^max_terms must be positive$"):
        random_direct_sum(rng, max_terms=0)
    assert random_direct_sum(rng, max_terms=0, parts=0) == DirectSumElement.zero()
