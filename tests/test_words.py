"""Word-level tests: normal forms, the rank-splitting maps, and the witness
constructions.

The reduction oracle used throughout is an independent letter-level
implementation (plain signed integers, no run-length encoding); frozen
expected values below were computed with it or by hand reduction.
"""

import copy
import dataclasses
import doctest
import importlib
import inspect
import pickle
import pkgutil
import random
import re
import types
import weakref

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import freebialg
from freebialg import reps as R
from freebialg import words as W
from freebialg.algebra import AlgebraElement
from freebialg.bialgebra import coaction
from freebialg.corpus import random_reduced_word
from freebialg.text import parse_word
from freebialg.words import INFINITE, Rank, ReducedWord


# -- independent letter-level oracle ------------------------------------------


def letters_of(pairs):
    out = []
    for g, e in pairs:
        step = 1 if e > 0 else -1
        out.extend([g * step] * abs(e))
    return out


def oracle_reduce(letters):
    """Stack cancellation on signed generator integers."""
    stack = []
    for x in letters:
        if x == 0:
            continue
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return stack


def to_letter_list(w: ReducedWord):
    return letters_of(w.syllables)


syllable_lists = st.lists(
    st.tuples(st.integers(1, 4), st.integers(-3, 3)), max_size=10
)


# -- reduce --------------------------------------------------------------------


def test_reduce_examples():
    assert str(W.reduce(2, [(1, 1), (2, 1), (2, -1), (1, 1)])) == "g1^2"
    assert W.reduce(2, [(1, 1), (1, -1)]).is_unit
    assert str(W.reduce(3, [(2, 2), (2, -1), (3, 1)])) == "g2*g3"


def test_reduce_rejects_out_of_range():
    with pytest.raises(ValueError):
        W.reduce(2, [(3, 1)])
    with pytest.raises(ValueError):
        W.gen(2, 0)


@given(syllable_lists)
def test_reduce_matches_letter_oracle(pairs):
    w = W.reduce(4, pairs)
    assert to_letter_list(w) == oracle_reduce(letters_of(pairs))


@given(syllable_lists)
def test_reduce_idempotent(pairs):
    w = W.reduce(4, pairs)
    assert W.reduce(4, w.syllables) == w


@given(syllable_lists, st.integers(1, 9))
def test_reduce_confluent_under_reassociation(pairs, cut):
    # reducing the halves first then concatenating gives the same normal form
    cut = min(cut, len(pairs))
    left = W.reduce(4, pairs[:cut])
    right = W.reduce(4, pairs[cut:])
    assert W.multiply(left, right) == W.reduce(4, pairs)


# -- multiply / inverse ---------------------------------------------------------


def test_multiply_examples():
    g1, g2 = W.gen(2, 1), W.gen(2, 2)
    assert (g1 * g2 * (g1 * g2).inverse()).is_unit
    assert g1 * W.unit(2) == g1
    assert str((g1 * g2) * (g2 * g1)) == "g1*g2^2*g1"


def test_multiply_ambient_mismatch():
    with pytest.raises(ValueError):
        W.multiply(W.gen(2, 1), W.gen(3, 1))


def test_inverse_examples():
    assert W.unit(2).inverse().is_unit
    assert str(W.gen(2, 1).inverse()) == "g1^-1"
    w = W.reduce(2, [(1, 1), (2, -2)])
    assert str(w.inverse()) == "g2^2*g1^-1"
    assert w.inverse().inverse() == w


@given(syllable_lists, syllable_lists, syllable_lists)
def test_multiply_associative(p1, p2, p3):
    a, b, c = (W.reduce(4, p) for p in (p1, p2, p3))
    assert (a * b) * c == a * (b * c)


@given(syllable_lists)
def test_inverse_law(pairs):
    w = W.reduce(4, pairs)
    assert (w * w.inverse()).is_unit
    assert (w.inverse() * w).is_unit


def test_pow():
    g = W.gen(2, 1)
    assert g**3 == W.gen(2, 1, 3)
    assert g**-2 == W.gen(2, 1, -2)
    assert (g**0).is_unit


# -- phi -------------------------------------------------------------------------


def test_phi_kernel_word_maps_to_unit_pair():
    z = W.reduce(4, [(1, 1), (2, -1), (4, 1), (3, -1)])
    p, q = W.phi(2, 2, z)
    assert p.is_unit and q.is_unit


def test_phi_generator_examples():
    p, q = W.phi(2, 3, W.gen(6, 5))
    assert (str(p), str(q)) == ("g2", "g2")
    p, q = W.phi(2, 2, W.reduce(4, [(1, 1), (4, 1)]))
    assert (str(p), str(q)) == ("g1*g2", "g1*g2")


def test_phi_ambient_mismatch():
    with pytest.raises(ValueError):
        W.phi(2, 2, W.gen(6, 1))


def test_phi_homomorphism_seeded():
    rng = random.Random(0)
    for _ in range(500):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        z1 = random_reduced_word(rng, n * m, 6)
        z2 = random_reduced_word(rng, n * m, 6)
        p, q = W.phi(n, m, z1 * z2)
        p1, q1 = W.phi(n, m, z1)
        p2, q2 = W.phi(n, m, z2)
        assert p == p1 * p2 and q == q1 * q2


def test_phi_coassociative_on_generators():
    # oracle: direct three-way index decomposition k = ml(i-1) + l(j-1) + r
    for n, m, l in [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3)]:
        for k in range(1, n * m * l + 1):
            i, rem = divmod(k - 1, m * l)
            j, r = divmod(rem, l)
            expected = (i + 1, j + 1, r + 1)

            u, v = W.phi(n, m * l, W.gen(n * m * l, k))
            v1, v2 = W.phi(m, l, v)
            route1 = (u.syllables[0].gen, v1.syllables[0].gen, v2.syllables[0].gen)

            s, t = W.phi(n * m, l, W.gen(n * m * l, k))
            s1, s2 = W.phi(n, m, s)
            route2 = (s1.syllables[0].gen, s2.syllables[0].gen, t.syllables[0].gen)

            assert route1 == expected == route2


def test_phi_inf_examples():
    p, q = W.phi_inf(2, W.gen(INFINITE, 5))
    assert (str(p), str(q)) == ("g3", "g1") and p.ambient is INFINITE
    p, q = W.phi_inf(3, W.gen(INFINITE, 2))
    assert (str(p), str(q)) == ("g1", "g2")
    p, q = W.phi_inf(4, W.unit(INFINITE))
    assert p.is_unit and q.is_unit


def test_phi_inf_requires_infinite_ambient():
    with pytest.raises(ValueError):
        W.phi_inf(2, W.gen(4, 1))


def split_by_letters(z, m, left_rank, right_rank):
    """The splitting map letter by letter: each ``g_k^{+-1}`` with
    ``k = m*(i-1) + j`` goes to ``(g_i^{+-1}, g_j^{+-1})``, and each slot is
    reduced on its own."""
    pairs = [divmod(g - 1, m) + (e,) for g, e in z.letters()]
    left = W.reduce(left_rank, [(i + 1, e) for i, _, e in pairs])
    right = W.reduce(right_rank, [(j + 1, e) for _, j, e in pairs])
    return left.syllables, right.syllables


# generator indices and exponents reach past the shared syllable table
SPLIT_RANK, SPLIT_EXP = 2 * W._TABLE_GENS + 12, W._TABLE_EXP + 4


@st.composite
def split_cases(draw):
    """``(n, m, z)`` with ``z`` a word of rank ``n*m <= SPLIT_RANK``."""
    k = draw(st.integers(1, SPLIT_RANK))
    n = draw(st.sampled_from([d for d in range(1, k + 1) if k % d == 0]))
    exps = st.integers(-SPLIT_EXP, SPLIT_EXP)
    pairs = draw(st.lists(st.tuples(st.integers(1, k), exps), max_size=10))
    return n, k // n, W.reduce(k, pairs)


# merges and cancellations in both slots: under phi(2, 2, .) the generators
# g1, g2, g3, g4 go to (g1, g1), (g1, g2), (g2, g1), (g2, g2)
@example((2, 2, W.reduce(4, [(1, 1), (2, 1)])))
@example((2, 2, W.reduce(4, [(1, 2), (2, -1), (4, 1), (3, -2)])))
@example((2, 2, W.reduce(4, [(1, 1), (4, 1), (2, -1), (3, -1), (1, 1)])))
@example((2, 2, W.kernel_witness(2, 2, 1, 2, 1, 2)))
@example((2, 3, W.reduce(6, [(5, 2), (4, -2), (1, 1), (3, -1)])))
@example((1, 30, W.reduce(30, [(30, 9), (25, -12), (2, 5)])))
@example((30, 1, W.reduce(30, [(30, 9), (25, -12), (30, 4)])))
@example((2, 2, W.reduce(4, [(1, 8), (2, 1), (3, -9), (4, -1)])))
# g3*g4^-1 cancels in the first slot and g4^-1*g2 in the second: each slot
# reopens the syllable below, and the first merges it with the next one
@example((2, 2, W.reduce(4, [(1, 1), (3, 1), (4, -1), (2, 1)])))
# the last table entries of m = 2 and m = 24, the first past them, and m = 25
@example((30, 2, W.reduce(60, [(48, 1), (49, -1), (47, 2), (50, 1)])))
@example((2, 24, W.reduce(48, [(48, 3), (47, -1), (24, 2), (25, 1)])))
@example((2, 25, W.reduce(50, [(50, 1), (25, -2), (26, 1), (1, 1)])))
@given(split_cases())
def test_phi_matches_the_letter_split(case):
    n, m, z = case
    p, q = W.phi(n, m, z)
    assert (p.syllables, q.syllables) == split_by_letters(z, m, n, m)


def test_split_reopens_the_syllable_below_a_cancellation():
    z = W.reduce(4, [(1, 1), (3, 1), (4, -1), (2, 1)])
    assert str(z) == "g1*g3*g4^-1*g2"
    assert W.phi(2, 2, z) == (W.gen(2, 1, 2), W.gen(2, 1, 2))


def test_split_table_has_a_fixed_size():
    # rows for m <= _TABLE_GENS only, each of the k = m*(i-1) + j with i <= _TABLE_GENS
    assert len(W._SPLITS) == W._TABLE_GENS + 1
    for m in range(1, W._TABLE_GENS + 1):
        assert W._SPLITS[m][1:] == [(k // m + 1, k % m + 1) for k in range(m * W._TABLE_GENS)]
    size = [len(row) for row in W._SPLITS]
    # a generator or an m far past the table takes divmod and leaves the table as it was
    p, q = W.phi_inf(2, W.gen(INFINITE, 10**12))
    assert (p, q) == (W.gen(INFINITE, 5 * 10**11), W.gen(2, 2))
    p, q = W.phi_inf(3, W.gen(INFINITE, 10**12, -7))
    assert (p, q) == (W.gen(INFINITE, (10**12 - 1) // 3 + 1, -7), W.gen(3, 1, -7))
    p, q = W.phi(10**6, 10**6, W.gen(10**12, 10**12 - 1))
    assert (p, q) == (W.gen(10**6, 10**6), W.gen(10**6, 10**6 - 1))
    assert [len(row) for row in W._SPLITS] == size


@st.composite
def words_of_rank_up_to_60(draw):
    n = draw(st.integers(1, SPLIT_RANK))
    exps = st.integers(-SPLIT_EXP, SPLIT_EXP)
    pairs = draw(st.lists(st.tuples(st.integers(1, n), exps), max_size=10))
    return W.reduce(n, pairs)


@example(W.reduce(4, [(1, 1), (3, 1), (4, -1), (2, 1)]))
@example(W.unit(60))
@given(words_of_rank_up_to_60())
def test_splittings_are_phi_over_every_factor_pair(w):
    from freebialg.bialgebra import _splittings, factor_pairs

    assert _splittings(w) == [W.phi(m, l, w) for m, l in factor_pairs(w.ambient.n)]


# ranks, ambients and word arguments that phi refuses, each with another check to fail
PHI_REFUSALS = [
    (2.0, 2, W.gen(4, 1)),
    (2, 2.0, W.gen(4, 1)),
    (None, 2, W.gen(4, 1)),
    (2, None, W.gen(4, 1)),
    (Rank(2), 2, W.gen(4, 1)),
    (True, 4, W.gen(4, 1)),
    (-1, -4, W.gen(4, 1)),
    (0, 2, W.gen(4, 1)),
    (2, 2, W.gen(6, 1)),
    (2, 3, W.gen(INFINITE, 1)),
    (2, 2, "g2"),
    (2, 2, None),
]


@pytest.mark.parametrize("n, m, z", PHI_REFUSALS)
def test_pullback_labels_keep_the_refusals_of_phi(n, m, z):
    with pytest.raises((ValueError, TypeError)) as want:
        W.phi(n, m, z)
    with pytest.raises(want.type) as got:
        R._pullback_label(n, m, 1, 1, z)
    assert str(got.value) == str(want.value)
    # the indicator checks each rank with its index first, naming a bad rank as phi does
    ranks_ok = all(type(r) is int and r > 0 for r in (n, m))
    with pytest.raises(want.type if ranks_ok else ValueError) as got:
        R.f_pullback_eval(n, 1, m, 1, z)
    if ranks_ok:
        assert str(got.value) == str(want.value)
    else:
        assert str(got.value).startswith("finite rank must be a positive integer, got ")


# infinite-rank words over the first SPLIT_RANK generators
@example([(1, 1), (2, 1), (4, -1), (3, -1)], 2)
@example([(5, 2), (1, -1), (3, 1)], 2)
@example([(50, 9), (26, -12), (2, 3)], 2)
@given(
    st.lists(
        st.tuples(st.integers(1, SPLIT_RANK), st.integers(-SPLIT_EXP, SPLIT_EXP)), max_size=10
    ),
    st.integers(1, 4),
)
def test_phi_inf_matches_the_letter_split(pairs, n):
    z = W.reduce(INFINITE, pairs)
    p, q = W.phi_inf(n, z)
    assert (p.syllables, q.syllables) == split_by_letters(z, n, INFINITE, n)


def test_splitting_maps_validate_ranks():
    z = W.gen(4, 1)
    for call in (
        lambda: W.phi(2.0, 2, z),
        lambda: W.phi(2, 2.0, z),
        lambda: W.phi_inf(2.0, W.gen(INFINITE, 1)),
    ):
        with pytest.raises(ValueError, match="finite rank must be a positive integer"):
            call()


def test_splitting_maps_name_a_rank_with_no_product():
    from freebialg.algebra import varphi_alg

    z = W.gen(4, 1)
    a = AlgebraElement.from_word(z)
    for bad in (None, Rank(2)):
        msg = f"^finite rank must be a positive integer, got {re.escape(repr(bad))}$"
        for call in (
            lambda: W.phi(bad, 2, z),
            lambda: W.phi(2, bad, z),
            lambda: varphi_alg(bad, 2, a),
            lambda: varphi_alg(2, bad, a),
        ):
            with pytest.raises(ValueError, match=msg):
                call()
    # a rank that has a product is still named as a rank, ahead of the word
    with pytest.raises(ValueError, match="^finite rank must be a positive integer, got 0$"):
        W.phi(0, 2, z)


def test_one_rank_normaliser():
    """``_rank`` passes a ``Rank`` through and interns an int; where the rank
    must be given as an int, a ``Rank`` and ``None`` are refused by name."""
    from freebialg.algebra import standard_delta_compat_check, varphi_inf_alg

    for r in (Rank(2), INFINITE):
        assert W._rank(r) is r
    assert W._rank(2) is W._rank(Rank(2).n) is W.gen(2, 1).ambient
    assert W.gen(Rank(3), 2) == W.gen(3, 2) and W.unit(Rank(3)) == W.unit(3)
    zero_inf = AlgebraElement.zero(INFINITE)
    for bad in (Rank(2), INFINITE, None):
        msg = f"^finite rank must be a positive integer, got {re.escape(repr(bad))}$"
        for call in (
            lambda: W._finite_rank(bad),
            lambda: W.ball_size(bad, 1),
            # the unit word has no letter to split, so only the check refuses it
            lambda: W.phi_inf(bad, W.unit(INFINITE)),
            lambda: varphi_inf_alg(bad, zero_inf),
            lambda: standard_delta_compat_check(bad, 2, AlgebraElement.zero(4)),
        ):
            with pytest.raises(ValueError, match=msg):
                call()


# -- kernel witness ---------------------------------------------------------------


def test_kernel_witness_examples():
    assert str(W.kernel_witness(2, 2, 1, 2, 1, 2)) == "g1*g2^-1*g4*g3^-1"
    assert W.kernel_witness(2, 2, 1, 1, 1, 2).is_unit
    assert str(W.kernel_witness(2, 3, 1, 2, 2, 3)) == "g2*g3^-1*g6*g5^-1"


def test_kernel_witness_full_grid():
    for n in (2, 3):
        for m in (2, 3):
            for i in range(1, n + 1):
                for l in range(1, n + 1):
                    for j in range(1, m + 1):
                        for k in range(1, m + 1):
                            w = W.kernel_witness(n, m, i, l, j, k)
                            p, q = W.phi(n, m, w)
                            assert p.is_unit and q.is_unit
                            assert w.is_unit == (i == l or j == k)


def test_kernel_witness_range_check():
    with pytest.raises(ValueError):
        W.kernel_witness(2, 2, 3, 1, 1, 2)


def test_kernel_witness_column_range_check():
    # each index is checked against its own rank, which is checked first;
    # True == 1, but it is no generator index in any of the four slots
    for args, error in (
        ((2, 2, 1, 2, 3, 1), "generator index 3 out of range for F2"),
        ((2, 2, 1, 2, 1, 0), "generator index 0 out of range for F2"),
        ((2, 2, 1, 2, 1, True), "generator index True out of range for F2"),
        ((2, 2, 1, 2, True, 2), "generator index True out of range for F2"),
        ((2, 2, 1, 2, 1, 2.0), "generator index 2.0 out of range for F2"),
        ((2, 2, True, 2, 1, 2), "generator index True out of range for F2"),
        ((2, 2, 1, True, 1, 2), "generator index True out of range for F2"),
        ((2, 0, 1, 2, 1, 1), "finite rank must be a positive integer, got 0"),
        ((2.0, 2, 1, 2, 1, 1), "finite rank must be a positive integer, got 2.0"),
        ((None, 2, 1, 2, 1, 1), "finite rank must be a positive integer, got None"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            W.kernel_witness(*args)


# -- lifts -------------------------------------------------------------------------


def test_lift_first_examples():
    y, z = W.lift_first(W.reduce(2, [(2, 1), (1, -1)]), 2)
    assert y.is_unit and str(z) == "g3*g1^-1"
    y, z = W.lift_first(W.unit(2), 3)
    assert y.is_unit and z.is_unit
    y, z = W.lift_first(W.gen(2, 1, 3), 2)
    assert str(y) == "g1^3" and str(z) == "g1^3"


def test_lift_second_examples():
    x, z = W.lift_second(W.gen(2, 2), 2)
    assert str(x) == "g1" and str(z) == "g2"
    x, z = W.lift_second(W.unit(3), 2)
    assert x.is_unit and z.is_unit
    x, z = W.lift_second(W.reduce(2, [(1, 1), (2, -1)]), 2)
    assert x.is_unit and str(z) == "g1*g2^-1"


def test_lift_posts_on_balls():
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for x in W.enumerate_ball(n, 3):
                y, z = W.lift_first(x, m)
                assert W.phi(n, m, z) == (x, y)
                assert all(s.gen == 1 for s in y.syllables)
            for y in W.enumerate_ball(m, 3):
                x, z = W.lift_second(y, n)
                assert W.phi(n, m, z) == (x, y)
                assert all(s.gen == 1 for s in x.syllables)


def test_trusted_lifts_match_their_reduce_form():
    # the lifts build their words without reduce, since each letter map is
    # injective on generators; reduce of the same letters must agree
    rng = random.Random(7)
    for _ in range(400):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        i, j = rng.randint(1, n), rng.randint(1, m)
        x = random_reduced_word(rng, n, 6)
        y = random_reduced_word(rng, m, 6)
        first = W.reduce(n * m, [(m * (g - 1) + 1, e) for g, e in x.syllables])
        assert W.lift_first(x, m)[1] == first
        assert W.lift_second(y, n)[1] == W.reduce(n * m, y.syllables)
        xp, zp = W.cancellation_witness_left(x, y)
        tail = W.reduce(n * m, [(m * (g - 1) + j, e) for g, e in xp.syllables])
        assert W.cyclicity_witness(n, m, i, j, x, y) == W.multiply(zp, tail)


@pytest.mark.parametrize("bad", [0, -2, 1.5, 2.0, None])
def test_lifts_reject_bad_ranks(bad):
    # the error names the rank argument, not the product rank formed from it
    msg = f"^{re.escape(f'finite rank must be a positive integer, got {bad}')}$"
    with pytest.raises(ValueError, match=msg):
        W.lift_first(W.gen(2, 1), bad)
    with pytest.raises(ValueError, match=msg):
        W.lift_second(W.gen(2, 1), bad)


def test_witness_constructions_refuse_infinite_rank():
    x, y = W.gen(INFINITE, 1), W.gen(2, 1)
    for lift in (W.lift_first, W.lift_second):
        with pytest.raises(ValueError, match="lift requires a finite-rank word"):
            lift(x, 2)
    for witness in (W.cancellation_witness_left, W.cancellation_witness_right):
        for pair in ((x, y), (y, x), (x, x)):
            with pytest.raises(ValueError, match="cancellation witnesses require finite ranks"):
                witness(*pair)


# -- cancellation witnesses ----------------------------------------------------------


def _witness_posts_hold(x, y, n, m):
    xp, z = W.cancellation_witness_left(x, y)
    p, q = W.phi(n, m, z)
    if not (W.multiply(p, xp) == x and q == y):
        return False
    yp, z2 = W.cancellation_witness_right(x, y)
    p2, q2 = W.phi(n, m, z2)
    return p2 == x and W.multiply(q2, yp) == y


def test_cancellation_witness_examples():
    xp, z = W.cancellation_witness_left(W.gen(2, 1), W.gen(2, 2))
    assert xp.is_unit and str(z) == "g2"
    xp, z = W.cancellation_witness_left(W.unit(2), W.unit(2))
    assert xp.is_unit and z.is_unit
    xp, z = W.cancellation_witness_left(W.gen(2, 2), W.gen(2, 1))
    assert str(xp) == "g1^-1*g2" and str(z) == "g1"

    yp, z = W.cancellation_witness_right(W.gen(2, 2), W.gen(2, 1))
    assert yp.is_unit and str(z) == "g3"
    yp, z = W.cancellation_witness_right(W.gen(2, 1, 2), W.gen(2, 2))
    assert str(yp) == "g1^-2*g2" and str(z) == "g1^2"


def test_cancellation_witnesses_exhaustive_small():
    # full product wherever the pair count stays tractable, radius 4
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            ball_n = W.enumerate_ball(n, 4)
            ball_m = W.enumerate_ball(m, 4)
            if len(ball_n) * len(ball_m) <= 30000:
                for x in ball_n:
                    for y in ball_m:
                        assert _witness_posts_hold(x, y, n, m)


def test_cancellation_witnesses_sampled_rank3():
    # seeded sample of the larger radius-4 products
    rng = random.Random(1)
    for n, m in ((2, 3), (3, 2), (3, 3)):
        ball_n = W.enumerate_ball(n, 4)
        ball_m = W.enumerate_ball(m, 4)
        for _ in range(8000):
            x = ball_n[rng.randrange(len(ball_n))]
            y = ball_m[rng.randrange(len(ball_m))]
            assert _witness_posts_hold(x, y, n, m)


# -- cyclicity witness -----------------------------------------------------------------


def test_cyclicity_witness_examples():
    z = W.cyclicity_witness(2, 2, 1, 2, W.gen(2, 2), W.gen(2, 1))
    assert str(z) == "g1*g2^-1*g4"
    assert W.phi(2, 2, z) == (W.gen(2, 2), W.gen(2, 1))

    assert W.cyclicity_witness(2, 2, 1, 1, W.unit(2), W.unit(2)).is_unit

    z = W.cyclicity_witness(2, 2, 1, 1, W.gen(2, 1), W.gen(2, 1))
    assert str(z) == "g1"
    assert W.phi(2, 2, z) == (W.gen(2, 1), W.gen(2, 1))


def test_cyclicity_witness_posts_seeded():
    rng = random.Random(2)
    for _ in range(400):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        i, j = rng.randint(1, n), rng.randint(1, m)
        x = random_reduced_word(rng, n, 4)
        y = random_reduced_word(rng, m, 4)
        z = W.cyclicity_witness(n, m, i, j, x, y)
        p, q = W.phi(n, m, z)
        assert p == x
        # second slot lands in the right coset y<g_j>
        rest = W.multiply(y.inverse(), q)
        assert rest.is_unit or (len(rest.syllables) == 1 and rest.syllables[0].gen == j)


def test_cyclicity_witness_refusals():
    x = W.gen(2, 1)
    for i, j in ((0, 1), (3, 1), (1, 0), (1, 3), (1, 2.0), (True, 1), (1, True)):
        bad = i if type(i) is not int or not 1 <= i <= 2 else j
        with pytest.raises(ValueError, match=f"^generator index {bad} out of range for F2$"):
            W.cyclicity_witness(2, 2, i, j, x, x)
    # a bad rank is reported as such, ahead of the indices and the ambients
    for n, m in ((2.5, 2), (2, True), (None, 2), (0, 2)):
        msg = f"^finite rank must be a positive integer, got {n if n != 2 else m}$"
        with pytest.raises(ValueError, match=msg):
            W.cyclicity_witness(n, m, 1, 1, x, x)
    for pair in ((W.gen(3, 1), x), (x, W.gen(3, 1))):
        with pytest.raises(ValueError, match="ambient mismatch with declared ranks"):
            W.cyclicity_witness(2, 2, 1, 1, *pair)


# -- fused witnesses against their three-step constructions -----------------------------
#
# The lifts and witnesses build their words straight from syllables.  Each
# reference below builds the same word the long way: ``gen``, then
# ``inverse``, then ``multiply``, and the cyclicity witness through the left
# cancellation witness.


def _exp_sum(w):
    return sum(e for _, e in w.syllables)


def _ref_lift_first(x, m):
    n = x.ambient.n
    z = W.reduce(n * m, [(m * (g - 1) + 1, e) for g, e in x.syllables])
    return W.gen(m, 1, _exp_sum(x)), z


def _ref_lift_second(y, n):
    m = y.ambient.n
    return W.gen(n, 1, _exp_sum(y)), W.reduce(n * m, y.syllables)


def _ref_cancellation_left(x, y):
    x2, z = _ref_lift_second(y, x.ambient.n)
    return W.multiply(W.inverse(x2), x), z


def _ref_cancellation_right(x, y):
    y2, z = _ref_lift_first(x, y.ambient.n)
    return W.multiply(W.inverse(y2), y), z


def _ref_cyclicity_witness(n, m, i, j, x, y):
    xp, zp = _ref_cancellation_left(x, y)
    tail = W.reduce(n * m, [(m * (g - 1) + j, e) for g, e in xp.syllables])
    return W.multiply(zp, tail)


def _assert_words_match(got, want):
    assert got == want
    for w in got:
        assert all(type(s) is W.Syllable and s.exp for s in w.syllables), w


def _assert_lifts_match(x, k):
    """The lifts of ``x`` through either slot, beside a rank-``k`` factor."""
    _assert_words_match(
        [*W.lift_first(x, k), *W.lift_second(x, k)],
        [*_ref_lift_first(x, k), *_ref_lift_second(x, k)],
    )


def _assert_witnesses_match(x, y, js=None):
    """Both cancellation witnesses of ``(x, y)``, and the cyclicity witness
    for each ``j`` in ``js``, every ``j`` by default."""
    n, m = x.ambient.n, y.ambient.n
    got = [*W.cancellation_witness_left(x, y), *W.cancellation_witness_right(x, y)]
    want = [*_ref_cancellation_left(x, y), *_ref_cancellation_right(x, y)]
    for j in js or range(1, m + 1):
        i = 1 + (j + x.letter_length) % n
        got.append(W.cyclicity_witness(n, m, i, j, x, y))
        want.append(_ref_cyclicity_witness(n, m, i, j, x, y))
    _assert_words_match(got, want)


def _assert_fused_match(x, y):
    _assert_lifts_match(x, y.ambient.n)
    _assert_lifts_match(y, x.ambient.n)
    _assert_witnesses_match(x, y)


def test_fused_witnesses_match_on_radius3_balls():
    # every pair, with the column j of the cyclicity witness cycling
    balls = {n: W.enumerate_ball(n, 3) for n in (1, 2, 3)}
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for x in balls[n]:
                _assert_lifts_match(x, m)
            for a, x in enumerate(balls[n]):
                for b, y in enumerate(balls[m]):
                    _assert_witnesses_match(x, y, (1 + (a + b) % m,))


def test_fused_witnesses_match_past_the_syllable_table():
    # exponents past +-EXPS and generators past GENS, in either slot and
    # in the product rank
    rng = random.Random(17)
    ranks = (1, 2, 5, W._TABLE_GENS + 2, 30)
    past = 0
    for _ in range(600):
        n, m = rng.choice(ranks), rng.choice(ranks)
        x, y = (
            W.reduce(r, [(rng.randint(1, r), rng.randint(-20, 20)) for _ in range(rng.randint(0, 4))])
            for r in (n, m)
        )
        _assert_fused_match(x, y)
        sylls = x.syllables + y.syllables
        past += any(abs(e) > W._TABLE_EXP or g > W._TABLE_GENS for g, e in sylls)
    assert past > 300


@pytest.mark.parametrize(
    "x, y, xp, z",
    [
        # s = 0: x passes through
        ("g2*g1^3", "g1*g2^-1", "g2*g1^3", "g1*g2^-1*g4*g2^3"),
        # g1^-s cancels x's leading g1 power exactly
        ("g1^3*g2", "g2^3", "g2", "g2^3*g4"),
        # g1^-s merges with it, and the tail merges with the head
        ("g1^5*g2", "g2^3", "g1^2*g2", "g2^5*g4"),
        # g1^-s prepends a syllable, whose tail syllable cancels the head
        ("g2", "g2^2", "g1^-2*g2", "g4"),
        # ... or merges with it
        ("g1^-1*g2", "g2^2", "g1^-3*g2", "g2^-1*g4"),
        # the tail starts past the first row and meets no head syllable
        ("g2*g1", "g1^-1*g2", "g2*g1", "g1^-1*g2*g4*g2"),
    ],
)
def test_fused_witnesses_at_the_seam(x, y, xp, z):
    x, y = parse_word(x, 2), parse_word(y, 2)
    left = W.cancellation_witness_left(x, y)
    assert str(left[0]) == xp
    # with j = 2 the tail of the cyclicity witness starts with g2 when xp
    # starts with a g1 power, which meets y's last syllable g2 at the seam
    assert str(W.cyclicity_witness(2, 2, 1, 2, x, y)) == z
    _assert_fused_match(x, y)
    _assert_fused_match(y, x)


# -- words built ------------------------------------------------------------------------
#
# A deterministic guard on allocation: count ``ReducedWord._new`` calls,
# through which the library builds every word.


@pytest.fixture
def built(monkeypatch):
    """A list that grows by one for each word built; a coset representative
    is a word, so ``reps`` builds no other label."""
    calls = []
    new = ReducedWord._new

    def counted_new(ambient, syllables):
        calls.append("word")
        return new(ambient, syllables)

    monkeypatch.setattr(ReducedWord, "_new", staticmethod(counted_new))
    return calls


def _count(calls, fn, *args):
    del calls[:]
    fn(*args)
    return len(calls)


def test_witnesses_build_only_the_words_they_return(built):
    # no word is built behind ``_new``'s back, so the counter sees all
    source = inspect.getsource(R)
    assert "__new__" not in source and "__dict__" not in source
    ball = W.enumerate_ball(2, 3)
    # the counter sees what it must; a canonical representative is returned as it is
    assert _count(built, W.gen, 2, 1) == 1
    assert _count(built, R.coset_normal_form, 2, 1, W.unit(2)) == 0
    assert _count(built, R.coset_normal_form, 2, 1, W.gen(2, 1)) == 1
    # the two coset checks compare labels: the ball's words, and no other
    for n, i, j, radius in ((2, 1, 1, 3), (2, 1, 2, 3), (3, 2, 1, 2)):
        words = W.ball_size(n, radius)
        assert _count(built, R.fixed_vector_dim, n, i, j, radius) == words
    for w in ball:
        assert _count(built, R.gns_coeff_check, 2, 1, w) == 0
    for x in ball:
        assert _count(built, W.lift_first, x, 2) == 2
        assert _count(built, W.lift_second, x, 2) == 2
        for y in ball:
            assert _count(built, W.cancellation_witness_left, x, y) == 2
            assert _count(built, W.cancellation_witness_right, x, y) == 2
            for i in (1, 2):
                for j in (1, 2):
                    assert _count(built, W.cyclicity_witness, 2, 2, i, j, x, y) == 1
                    # the witness only: its pair image is split as syllables
                    assert _count(built, R.cyclicity_check, 2, 2, i, j, x, y) == 1
    for z in W.enumerate_ball(4, 2):
        assert _count(built, R.f_pullback_eval, 2, 1, 2, 2, z) == 0


# -- enumerate_ball ---------------------------------------------------------------------


def ball_size(n, r):
    return 1 + sum(2 * n * (2 * n - 1) ** (k - 1) for k in range(1, r + 1))


def test_enumerate_ball_counts():
    assert [len(W.enumerate_ball(2, r)) for r in range(3)] == [1, 5, 17]
    for n in (1, 2, 3):
        for r in range(5):
            assert len(W.enumerate_ball(n, r)) == ball_size(n, r) == W.ball_size(n, r)


def test_ball_size_closed_form():
    for n in range(1, 9):
        for r in range(9):
            assert W.ball_size(n, r) == ball_size(n, r)
    assert W.ball_size(6, 5) == 193_261
    assert W.ball_size(4, 6) == 156_865
    for bad_rank in (0, -2, True):
        with pytest.raises(ValueError, match="positive integer"):
            W.ball_size(bad_rank, 2)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        W.ball_size(2, -1)


def test_enumerate_ball_unique_and_reduced():
    ball = W.enumerate_ball(3, 3)
    assert len(set(ball)) == len(ball)
    assert all(w.letter_length <= 3 for w in ball)


def test_enumerate_ball_infinite_needs_cutoff():
    with pytest.raises(ValueError):
        W.enumerate_ball(INFINITE, 2)
    ball = W.enumerate_ball(INFINITE, 2, max_gen=2)
    assert len(ball) == ball_size(2, 2)


def test_enumerate_ball_refuses_a_negative_radius():
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        W.enumerate_ball(2, -1)


def count_error(name, value, least):
    """The anchored refusal text for the count argument ``name`` whose least
    value is ``least``: it quotes a value that is not exactly an ``int``, and
    not one that is too small."""
    if type(value) is not int:
        return f"^{re.escape(f'{name} must be an int, got {value!r}')}$"
    return f"^{name} must be {'positive' if least else 'nonnegative'}$"


@pytest.mark.parametrize("radius", [2.0, True, "2", None])
def test_ball_radius_must_be_an_int(radius):
    # one check owns every count argument, so each refuses the same values
    x = AlgebraElement.unit(INFINITE)
    for name, call in (
        ("radius", lambda: W.enumerate_ball(2, radius)),
        ("radius", lambda: W.enumerate_ball(INFINITE, radius, 2)),
        ("radius", lambda: W.ball_size(2, radius)),
        ("radius", lambda: R.orbit_bfs(2, 2, (W.unit(2), W.unit(2)), radius)),
        ("max_len", lambda: random_reduced_word(random.Random(0), 2, radius)),
        ("truncation bound", lambda: coaction(x, radius)),
    ):
        with pytest.raises(ValueError, match=count_error(name, radius, 0)):
            call()


@pytest.mark.parametrize("max_gen", [0, -1, 2.0, True, "2"])
def test_infinite_ball_cutoff_must_be_a_positive_int(max_gen):
    with pytest.raises(ValueError, match=count_error("max_gen", max_gen, 1)):
        W.enumerate_ball(INFINITE, 2, max_gen)


def test_ball_arguments_at_their_edges():
    assert len(W.enumerate_ball(INFINITE, 2, 1)) == ball_size(1, 2) == 5
    assert W.enumerate_ball(2, 0) == [W.unit(2)] and W.ball_size(2, 0) == 1
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        W.enumerate_ball(INFINITE, -1, 2)


def test_random_word_of_infinite_rank_needs_cutoff():
    with pytest.raises(ValueError, match="infinite rank needs max_gen"):
        random_reduced_word(random.Random(0), INFINITE, 3)


@pytest.mark.parametrize("bad", [-1, 2.0, True, "2", None])
def test_random_word_refuses_a_bad_max_len(bad):
    for ambient in (2, INFINITE):
        with pytest.raises(ValueError, match=count_error("max_len", bad, 0)):
            random_reduced_word(random.Random(0), ambient, bad, 3)


@pytest.mark.parametrize("bad", [0, -1, 2.0, True, "2"])
def test_random_word_refuses_a_bad_cutoff(bad):
    with pytest.raises(ValueError, match=count_error("max_gen", bad, 1)):
        random_reduced_word(random.Random(0), INFINITE, 3, bad)


def test_random_word_draws_are_unchanged_by_the_checks():
    rng = random.Random(11)
    assert [str(random_reduced_word(rng, INFINITE, 4, 30)) for _ in range(4)] == [
        "g28^-1*g15*g6^-1",
        "g26*g4^-1*g10*g3",
        "g13^-1*g21*g20*g27",
        "1",
    ]
    # a finite rank ignores the cutoff, as before; max_len 0 draws the unit
    assert [str(random_reduced_word(rng, 3, 5, 0)) for _ in range(3)] == ["1", "g1", "g2^-1*g3^2"]
    assert random_reduced_word(rng, 3, 0).is_unit


# -- words as data -----------------------------------------------------------------------


def test_word_json_roundtrip():
    w = W.reduce(4, [(1, 2), (3, -1), (1, 1)])
    assert ReducedWord.from_json(Rank(4), w.to_json()) == w


def test_rank_validation():
    for bad in (0, -1, 2.0):
        with pytest.raises(ValueError, match="finite rank must be a positive integer"):
            Rank(bad)
    assert Rank.from_json("inf").is_infinite
    assert Rank.from_json(5) == Rank(5)


def test_rank_rejects_bool():
    # bool is a subclass of int, and True == 1
    z = W.gen(4, 1)
    for call in (
        lambda: Rank(True),
        lambda: Rank(False),
        lambda: W.gen(True, 1),
        lambda: W.phi(True, 4, z),
    ):
        with pytest.raises(ValueError, match="positive integer, got (True|False)$"):
            call()


def test_word_not_reduced_rejected():
    with pytest.raises(ValueError):
        ReducedWord(Rank(2), ((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        ReducedWord(Rank(2), ((1, 0),))


def _refused(action: str, name: str, owner: str = "ReducedWord") -> str:
    """The whole text of the ``AttributeError`` for a write (``action``
    "setter") or a delete ("deleter") of the property ``name``: CPython 3.11
    and later, or 3.10."""
    verb = "set" if action == "setter" else "delete"
    return rf"^(property '{name}' of '{owner}' object has no {action}|can't {verb} attribute '{name}')$"


def test_word_validation_unchanged():
    with pytest.raises(ValueError):
        ReducedWord(Rank(2), ((3, 1),))
    w = W.reduce(2, [(1, 1), (2, -1)])
    for word in (w, ReducedWord(Rank(2), w.syllables)):
        for name, value in (("syllables", ()), ("ambient", Rank(3))):
            with pytest.raises(AttributeError, match=_refused("setter", name)) as info:
                setattr(word, name, value)
            assert type(info.value) is AttributeError
        assert word.syllables == ((1, 1), (2, -1))


@pytest.mark.parametrize(
    "args", [(2,), (2, ((1, 1),)), (None,), ("F2", ())], ids=["int", "int-word", "None", "str"]
)
def test_reduced_word_refuses_an_ambient_that_is_not_a_rank(args):
    msg = f"^ambient must be a Rank, got {re.escape(repr(args[0]))}$"
    with pytest.raises(ValueError, match=msg):
        ReducedWord(*args)


# A float or a bool equals an int, and True == 1, but neither is a generator
# index or an exponent: each constructor refuses them instead of printing
# ``g1^1.5`` or ``gTrue``.
NOT_INT_SYLLABLES = [(1, 1.5), (1.0, 1), (True, 2), (1, True), (2, 2.0), (1, 0.0)]


@pytest.mark.parametrize("syllable", NOT_INT_SYLLABLES)
def test_word_constructors_refuse_syllables_that_are_not_ints(syllable):
    msg = "generator index and exponent must be ints"
    with pytest.raises(ValueError, match=msg):
        ReducedWord(Rank(2), [syllable])
    with pytest.raises(ValueError, match=msg):
        W.reduce(2, [syllable, (2, 1)])
    with pytest.raises(ValueError, match=msg):
        W.gen(2, *syllable)


def test_int_syllables_still_build_words():
    assert str(ReducedWord(Rank(2), [(1, 2), [2, -1]])) == "g1^2*g2^-1"
    with pytest.raises(ValueError, match="generator index 5 out of range for F2"):
        W.gen(2, 5, 0)  # the index is checked before exponent 0 gives the unit
    with pytest.raises(ValueError, match="generator index 3 out of range for F2"):
        W.reduce(2, [(3, 1)])


def test_gen_checks_its_index_before_its_exponent():
    assert W.gen(2, 1, 0) == W.unit(2) and W.gen(INFINITE, 7, 0) == W.unit(INFINITE)
    for i in (0, 3, True, 1.0):
        with pytest.raises(ValueError, match="generator index|must be ints"):
            W.gen(2, i, 0)
    with pytest.raises(ValueError, match="generator index and exponent must be ints"):
        W.gen(2, 1, 0.0)


# -- shared syllables -----------------------------------------------------------
#
# The library takes the syllables it builds from one table and falls back to
# a new tuple outside it; a shared syllable is the same value as a new one.

GENS, EXPS = W._TABLE_GENS, W._TABLE_EXP


def _shared(s):
    return s is W._SYLLABLES[s.gen][s.exp]


def _in_range_results():
    """Words built by the table's users, every syllable inside the table."""
    z = W.reduce(12, [(1, 2), (5, -1), (12, 3), (7, 1), (8, -2)])
    yield from W.phi(3, 4, z)
    yield from W.phi(4, 3, z)
    yield from W.phi_inf(3, W.reduce(INFINITE, [(20, 2), (4, -1), (6, 1)]))
    yield W.multiply(W.gen(3, 1, 2), W.gen(3, 1, 3))  # the seam merges
    yield W.multiply(z, z.inverse() * W.gen(12, 8, 5))
    yield z.inverse()
    yield from W.enumerate_ball(GENS, 2)
    yield from W.enumerate_ball(2, EXPS)
    yield W.gen(GENS, GENS, -EXPS)
    yield W.reduce(GENS, [(GENS, EXPS), (1, -EXPS)])
    yield from W.lift_first(z, 2)
    yield W.cyclicity_witness(3, 4, 1, 2, W.gen(3, 3, -2), W.gen(4, 4, 1))


def test_in_range_syllables_are_the_tables_own():
    for w in _in_range_results():
        assert all(map(_shared, w.syllables)), w


def _record_fallbacks(monkeypatch) -> list:
    """Wrap the fallback constructor; return the list of ``(g, e)`` it builds."""
    built = []

    def recording_new(cls, args):
        built.append(args)
        return tuple.__new__(cls, args)

    monkeypatch.setattr(W, "_tuple_new", recording_new)
    return built


def test_in_range_syllables_never_reach_the_fallback(monkeypatch):
    built = _record_fallbacks(monkeypatch)
    assert sum(len(w.syllables) for w in _in_range_results()) > 1000
    assert built == []


def _past_the_table():
    """Words whose syllables lie just past each bound of the table."""
    big = W.Rank(10**40)
    yield W.gen(GENS + 1, GENS + 1)
    yield W.gen(2, 1, EXPS + 1)
    yield W.gen(2, 2, -EXPS - 1)
    yield W.multiply(W.gen(2, 1, EXPS), W.gen(2, 1))  # the seam leaves the table
    yield W.reduce(2, [(1, -EXPS), (1, -1)])
    yield W.gen(2, 1, EXPS + 1).inverse()
    yield from W.phi(1, GENS + 1, W.gen(GENS + 1, GENS + 1, 3))
    yield from W.phi(GENS + 1, 1, W.reduce(GENS + 1, [(GENS + 1, 1), (1, EXPS + 1)]))
    yield from W.phi(2, 2, W.reduce(4, [(1, EXPS), (2, 1)]))  # merges past the bound
    yield W.enumerate_ball(GENS + 1, 1)[-1]
    yield W.enumerate_ball(1, EXPS + 1)[-1]
    yield W.gen(big, 10**40 - 1, 3)
    yield W.multiply(W.gen(big, 7, 2), W.gen(big, 7, 10**40))


def test_syllables_past_the_table_fall_back_to_equal_new_ones(monkeypatch):
    built = _record_fallbacks(monkeypatch)
    past = 0
    for w in _past_the_table():
        for s in w.syllables:
            g, e = s
            new = W.Syllable(g, e)
            assert type(s) is W.Syllable and s == new and hash(s) == hash(new)
            assert (s.gen, s.exp) == (g, e)
            if g <= GENS and -EXPS <= e <= EXPS:
                assert _shared(s)
            else:
                assert (g, e) in built
                past += 1
    assert past == 15


# -- slotted words --------------------------------------------------------------


def _words_of_each_kind():
    """A public word, a library word, an infinite-rank word and a unit."""
    return [
        ReducedWord(Rank(3), ((1, 2), (3, -1))),
        W.multiply(W.gen(4, 2), W.reduce(4, [(4, 3), (1, -1)])),
        W.reduce(INFINITE, [(7, 1), (2, -2)]),
        W.unit(2),
    ]


def test_words_are_slotted():
    for w in _words_of_each_kind():
        for value, owner in ((w, "ReducedWord"), (w.ambient, "Rank")):
            assert type(value).__slots__ == () and not hasattr(value, "__dict__")
            with pytest.raises(TypeError, match=f"^cannot create weak reference to '{owner}' object$"):
                weakref.ref(value)
            with pytest.raises(AttributeError, match=f"^'{owner}' object has no attribute 'extra'$") as info:
                value.extra = 1
            assert type(info.value) is AttributeError
            assert not hasattr(value, "extra")


def test_slotted_word_stays_frozen():
    for w in _words_of_each_kind():
        want = hash(w)
        for name, value in (("ambient", Rank(5)), ("syllables", ())):
            with pytest.raises(AttributeError, match=_refused("setter", name)):
                setattr(w, name, value)
            with pytest.raises(AttributeError, match=_refused("deleter", name)):
                delattr(w, name)
        # no cached hash is left to overwrite
        with pytest.raises(AttributeError, match="^'ReducedWord' object has no attribute '_hash'$"):
            w._hash = 0
        with pytest.raises(AttributeError, match=_refused("setter", "n", "Rank")):
            w.ambient.n = 5
        with pytest.raises(TypeError, match="^'ReducedWord' object does not support item assignment$"):
            w[1] = ()
        assert hash(w) == want == hash(((w.ambient.n,), w.syllables))


def test_word_hash_is_the_field_hash():
    for w in _words_of_each_kind():
        want = hash(((w.ambient.n,), w.syllables))
        assert hash(w) == want == hash(w)  # computed, then cached
        assert hash(w) == hash((w.ambient, w.syllables))


def test_words_and_ranks_hash_and_compare_in_c():
    """A word and a rank hash and compare with tuple's own C code; a
    Python-level ``__hash__`` or ``__eq__`` brought back fails here."""
    for cls in (ReducedWord, Rank):
        assert cls.__mro__ == (cls, tuple, object)
        assert cls.__hash__ is tuple.__hash__
        assert cls.__eq__ is tuple.__eq__ and cls.__ne__ is tuple.__ne__


def test_a_word_equals_the_plain_tuple_of_its_fields():
    """Deliberate: a word is the tuple ``(ambient, syllables)`` and a rank the
    tuple ``(n,)``, so each equals, and hashes as, the plain tuple of its
    fields.  Labels tell a word from a word tuple by an exact type test."""
    for w in _words_of_each_kind():
        plain = (w.ambient, w.syllables)
        assert w == plain and plain == w and hash(w) == hash(plain)
        assert {plain: 1}[w] == 1 and tuple(w) == plain
        assert w.ambient == (w.ambient.n,) and hash(w.ambient) == hash((w.ambient.n,))
    assert W.gen(2, 1) != (2, ((1, 1),)) and Rank(2) != 2


def test_rank_and_word_arithmetic_is_refused():
    """Tuple's ``+`` and ``*`` would concatenate or repeat a rank or a word."""
    r, w = Rank(2), W.gen(2, 1)
    for call, op, left, right in (
        (lambda: r * 2, "*", "Rank", "int"),
        (lambda: 2 * r, "*", "int", "Rank"),
        (lambda: r * r, "*", "Rank", "Rank"),
        (lambda: r + (1,), "+", "Rank", "tuple"),
        (lambda: (1,) + r, "+", "tuple", "Rank"),
        (lambda: r + r, "+", "Rank", "Rank"),
        (lambda: 2 * w, "*", "int", "ReducedWord"),
        (lambda: w + w, "+", "ReducedWord", "ReducedWord"),
        (lambda: w + (1,), "+", "ReducedWord", "tuple"),
        (lambda: (1,) + w, "+", "tuple", "ReducedWord"),
    ):
        msg = f"^unsupported operand type\\(s\\) for \\{op}: '{left}' and '{right}'$"
        with pytest.raises(TypeError, match=msg):
            call()
    with pytest.raises(TypeError, match="^expected a ReducedWord, got 2$"):
        w * 2
    # a rank in place of an int is named, not multiplied
    with pytest.raises(ValueError, match=r"^finite rank must be a positive integer, got Rank\(n=2\)$"):
        W.phi(r, 2, W.gen(4, 1))


def test_ranks_build_by_keyword_and_print_their_field():
    assert Rank(n=3) == Rank(3) and Rank(n=3).n == 3 and repr(Rank(n=3)) == "Rank(n=3)"
    assert Rank() == Rank(n=None) == INFINITE and INFINITE.is_infinite
    assert ReducedWord(ambient=Rank(n=2), syllables=[(1, 2)]) == W.gen(2, 1, 2)
    assert repr(W.gen(2, 1)) == "ReducedWord(ambient=Rank(n=2), syllables=(Syllable(gen=1, exp=1),))"


def test_public_construction_under_a_forwarding_init_wrapper(monkeypatch):
    """The benchmark tracer counts public construction by replacing
    ``__init__`` with a wrapper that forwards every argument, as here."""
    seen = []

    def forwarding(cls):
        init = cls.__init__

        def wrapper(*args, **kwargs):
            seen.append(cls.__name__)
            return init(*args, **kwargs)

        return wrapper

    for cls in (ReducedWord, Rank):
        monkeypatch.setattr(cls, "__init__", forwarding(cls))
    assert ReducedWord(Rank(2), ((1, 1), (2, -1))) == W.reduce(2, [(1, 1), (2, -1)])
    assert ReducedWord(ambient=Rank(n=3), syllables=[(3, 2)]) == W.gen(3, 3, 2)
    assert seen == ["Rank", "ReducedWord", "Rank", "ReducedWord"]
    with pytest.raises(ValueError, match="^adjacent syllables share a generator"):
        ReducedWord(Rank(2), ((1, 1), (1, 1)))


@pytest.mark.parametrize("clone", ["copy", "deepcopy", *(f"pickle{p}" for p in range(6))])
def test_copies_are_equal_words_with_the_same_hash(clone):
    def cloned(value):
        if clone == "copy":
            return copy.copy(value)
        if clone == "deepcopy":
            return copy.deepcopy(value)
        return pickle.loads(pickle.dumps(value, int(clone[-1])))

    for w in _words_of_each_kind():
        for value in (w, w.ambient):
            got = cloned(value)
            assert type(got) is type(value) and not hasattr(got, "__dict__")
            assert got == value and value == got
            assert hash(got) == hash(value)
            assert {got: 1}[value] == 1
        got = cloned(w)
        assert type(got.ambient) is Rank
        assert got.syllables == w.syllables
        assert all(type(s) is W.Syllable for s in got.syllables)


def test_replace_checks_and_rehashes():
    """A word is no dataclass: a field is replaced by building a word from
    the other's fields, with every check of public construction."""
    w = W.reduce(2, [(1, 1), (2, -1)])
    assert not dataclasses.is_dataclass(w)
    with pytest.raises(ValueError, match="^adjacent syllables share a generator; word not reduced$"):
        ReducedWord(w.ambient, ((1, 1), (1, 1)))
    with pytest.raises(ValueError, match="^generator index 2 out of range for F1$"):
        ReducedWord(Rank(1), w.syllables)
    got = ReducedWord(w.ambient, syllables=((2, 3),))
    assert got == W.gen(2, 2, 3)
    assert hash(got) == hash(((2,), got.syllables)) != hash(w)
    again = ReducedWord(*w)
    assert again == w and again is not w and hash(again) == hash(w)


# every module but the entry point, which runs the CLI when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(freebialg.__path__) if m.name != "__main__")
# the modules whose docstrings carry examples
DOCTESTED = {"bialgebra", "reps", "scalars", "words"}


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(f"freebialg.{name}"))
    assert result.failed == 0
    assert (result.attempted > 0) == (name in DOCTESTED)


# the modules whose __all__ the package re-exports, in order
EXPORTED = ("scalars", "words", "algebra", "bialgebra", "reps", "morphisms", "text")


def test_package_reexports_each_module_all():
    """``freebialg.__all__`` is the modules' ``__all__`` lists end to end,
    each name bound to the object its module defines; corpus stays out."""
    modules = [importlib.import_module(f"freebialg.{name}") for name in EXPORTED]
    names = [name for m in modules for name in m.__all__]
    assert freebialg.__all__ == names
    assert len(set(names)) == len(names)
    for m in modules:
        for name in m.__all__:
            obj = getattr(freebialg, name)
            assert obj is getattr(m, name), name
            if isinstance(obj, (type, types.FunctionType)):
                assert obj.__module__ == m.__name__, name
    corpus = importlib.import_module("freebialg.corpus")
    assert not any(hasattr(freebialg, name) for name in corpus.__all__)
    assert set(MODULES) - set(EXPORTED) == {"cli", "corpus"}


# the modules that take ranks, generator indices or counts from their callers
# and leave the checks to ``words``
CHECK_CALLERS = ("algebra", "bialgebra", "cli", "corpus", "morphisms", "reps", "text")


@pytest.mark.parametrize("name", CHECK_CALLERS)
def test_argument_checks_have_one_owner(name):
    """``words`` alone tests a value for being exactly an ``int`` and defines
    the rank, index and count checks; a copy elsewhere fails here."""
    source = inspect.getsource(importlib.import_module(f"freebialg.{name}"))
    assert "is not int" not in source
    for check in ("_rank", "_finite_rank", "_check_index", "_check_count", "_check_radius"):
        assert f"def {check}(" not in source


@pytest.mark.parametrize("name", MODULES)
def test_word_arguments_have_one_gate(name):
    """``words`` alone defines the word-argument checks, and no module waits
    for an attribute lookup or an operator on an argument to fail before it
    checks it."""
    source = inspect.getsource(importlib.import_module(f"freebialg.{name}"))
    assert "except AttributeError" not in source
    assert "except TypeError" not in source
    if name != "words":
        for check in ("_word_rank", "_check_word_rank", "_check_words"):
            assert f"def {check}(" not in source


@pytest.mark.parametrize("name", MODULES)
def test_seeded_draws_have_one_way(name):
    """Every seeded draw goes through ``corpus._randint``, which only
    ``corpus`` defines: a ``randint``, ``choice`` or ``randrange`` call on a
    generator fails here."""
    source = inspect.getsource(importlib.import_module(f"freebialg.{name}"))
    for call in ("rng.randint(", "rng.choice(", "rng.randrange("):
        assert call not in source
    assert ("def _randint(" in source) == (name == "corpus")


def test_a_word_passed_as_its_syllables_is_refused_by_name():
    w = W.reduce(2, [(1, 1), (2, -1)])
    msg = r"^expected syllables, got the word g1\*g2\^-1; pass its syllables$"
    for call in (lambda: W.reduce(2, w), lambda: ReducedWord(Rank(2), w)):
        with pytest.raises(TypeError, match=msg):
            call()
    # the ambient is checked first, and the word's syllables are taken
    with pytest.raises(ValueError, match="^ambient must be a Rank, got 2$"):
        ReducedWord(2, w)
    assert W.reduce(2, w.syllables) == ReducedWord(Rank(2), w.syllables) == w


# -- words built without re-validation ----------------------------------------------------
#
# Library operations build their results through the trusted constructor.
# Every such result must still be a word the validating constructor accepts,
# with the hash a field-wise dataclass hash would give.

CUTOFF = 5  # generator cutoff for infinite-rank words


def assert_valid(w):
    assert type(w) is ReducedWord and type(w.syllables) is tuple
    assert all(type(s) is W.Syllable for s in w.syllables)
    assert ReducedWord(w.ambient, w.syllables) == w
    assert hash(w) == hash((w.ambient, w.syllables))
    assert hash(w) == hash(ReducedWord(w.ambient, w.syllables))


def _rank_of(n):
    return INFINITE if n is None else Rank(n)


@st.composite
def words_over(draw, n):
    span = CUTOFF if n is None else n
    pairs = draw(st.lists(st.tuples(st.integers(1, span), st.integers(-3, 3)), max_size=8))
    return W.reduce(_rank_of(n), pairs)


ranks = st.sampled_from([1, 2, 3, 4, None])
any_word = ranks.flatmap(words_over)
finite_word = st.sampled_from([1, 2, 3, 4]).flatmap(words_over)
word_pair = ranks.flatmap(lambda n: st.tuples(words_over(n), words_over(n)))


@given(any_word, st.integers(1, CUTOFF), st.integers(-3, 3), st.integers(-3, 3))
def test_trusted_unary_results_are_valid(w, g, e, k):
    assert_valid(w)  # a result of reduce
    assert_valid(W.reduce(w.ambient, w.syllables))
    assert_valid(w.inverse())
    assert_valid(W.inverse(w))
    assert_valid(w**k)
    assert_valid(W.unit(w.ambient))
    if w.ambient.allows(g):
        assert_valid(W.gen(w.ambient, g, e))
    else:
        with pytest.raises(ValueError):
            W.gen(w.ambient, g, e)


@given(word_pair, any_word)
def test_multiply_matches_reduce_of_concatenation(pair, c):
    a, b = pair
    if c.ambient != a.ambient:
        c = W.unit(a.ambient)
    a_inv_c = W.reduce(a.ambient, a.inverse().syllables + c.syllables)
    for right in (b, a.inverse(), a_inv_c, W.unit(a.ambient)):
        for x, y in ((a, right), (right, a)):
            got = W.multiply(x, y)
            want = W.reduce(x.ambient, x.syllables + y.syllables)
            assert_valid(got)
            assert [tuple(s) for s in got.syllables] == [tuple(s) for s in want.syllables]
            assert got == want
    assert W.multiply(a, a.inverse()).is_unit


def _seam(w, v, product):
    """How the seam of ``w * v`` reduces."""
    if w.is_unit or v.is_unit:
        return "unit"
    (g, e), (h, f) = w.syllables[-1], v.syllables[0]
    if g != h:
        return "distinct"
    if e + f:
        return "merged"
    return "cancelled" if product.is_unit else "partly cancelled"


@pytest.mark.parametrize("ambient, radius, max_gen", [(2, 3, None), (INFINITE, 2, 4)])
def test_times_row_matches_multiply_on_a_ball(ambient, radius, max_gen):
    ball = W.enumerate_ball(ambient, radius, max_gen)
    seams = set()
    for w in ball:
        got = W._times_row(w, ball)
        want = [W.multiply(w, v) for v in ball]
        assert got == want
        for x, v, y in zip(got, ball, want):
            assert_valid(x)
            assert x.ambient is y.ambient
            assert [tuple(s) for s in x.syllables] == [tuple(s) for s in y.syllables]
            seams.add(_seam(w, v, y))
    assert seams == {"unit", "distinct", "merged", "partly cancelled", "cancelled"}


@given(finite_word)
def test_trusted_split_results_are_valid(z):
    k = z.ambient.n
    for n in range(1, k + 1):
        if k % n == 0:
            for part in W.phi(n, k // n, z):
                assert_valid(part)


@given(words_over(None), st.integers(1, 3))
def test_trusted_inf_split_results_are_valid(z, n):
    p, q = W.phi_inf(n, z)
    assert p.ambient == INFINITE and q.ambient == Rank(n)
    assert_valid(p)
    assert_valid(q)


@given(finite_word, finite_word, st.integers(1, 4), st.integers(1, 4))
def test_trusted_witness_results_are_valid(x, y, i, j):
    n, m = x.ambient.n, y.ambient.n
    for w in (*W.lift_first(x, m), *W.lift_second(y, n)):
        assert_valid(w)
    for w in (*W.cancellation_witness_left(x, y), *W.cancellation_witness_right(x, y)):
        assert_valid(w)
    i, j = min(i, n), min(j, m)
    assert_valid(W.cyclicity_witness(n, m, i, j, x, y))
    assert_valid(R.coset_normal_form(n, i, x))


@given(st.integers(0, 2**32), ranks, st.integers(0, 8))
def test_random_reduced_word_is_valid(seed, n, max_len):
    w = random_reduced_word(random.Random(seed), _rank_of(n), max_len, max_gen=CUTOFF)
    assert_valid(w)
    assert w.letter_length <= max_len


def test_trusted_ball_words_are_valid():
    for ambient, max_gen in ((1, None), (2, None), (3, None), (INFINITE, 2)):
        ball = W.enumerate_ball(ambient, 3, max_gen)
        for w in ball:
            assert_valid(w)
        assert len(set(ball)) == len(ball)


def test_wrong_ambient_still_raises():
    v = AlgebraElement.from_word(W.unit(2))
    for bad in (W.gen(3, 1), W.gen(INFINITE, 1)):
        with pytest.raises(ValueError):
            W.phi(1, 2, bad)
        with pytest.raises(ValueError):
            R.f_eval(R.PDFunction(2, 1), bad)
        with pytest.raises(ValueError):
            R.coset_normal_form(2, 1, bad)
        with pytest.raises(ValueError):
            v.coefficient(bad)
        with pytest.raises(ValueError):
            R.lambda_action(2, bad, v)
    # the word of the right rank is accepted by each
    good = W.gen(2, 1)
    assert W.phi(1, 2, good) == (W.gen(1, 1), good)
    assert R.f_eval(R.PDFunction(2, 1), good) == 1
    assert R.coset_normal_form(2, 1, good).is_unit
    assert not v.coefficient(good)
    assert R.lambda_action(2, good, v) == AlgebraElement.from_word(good)
