"""Tests for the graded automorphisms and the morphism checker."""

import cmath
import math
import random

import pytest

from freebialg import words as W
from freebialg.bialgebra import DirectSumElement, counit, delta_phi
from freebialg.corpus import random_direct_sum
from freebialg.morphisms import (
    alpha,
    alpha_endo,
    beta,
    beta_endo,
    bialgebra_morphism_check,
    group_law_checks,
    identity_endo,
    max_term_deviation,
)
TS = (0.3, 1.0, 2.5)


def dsum_word(n, k, exp=1):
    return DirectSumElement.from_word(W.gen(n, k, exp))


# -- alpha -----------------------------------------------------------------------


def test_alpha_generator_phase():
    out = alpha(1.0, dsum_word(2, 1))
    coeff = out.components[2].terms[W.gen(2, 1)]
    assert abs(coeff - cmath.exp(1j * math.log(2))) < 1e-15


def test_alpha_zero_is_identity():
    x = dsum_word(6, 2)
    out = alpha(0.0, x)
    assert out == x.to_approx()


def test_alpha_trivial_on_rank_one():
    for t in TS:
        out = alpha(t, dsum_word(1, 1, 3))
        coeff = out.components[1].terms[W.gen(1, 1, 3)]
        assert coeff == 1.0  # log(1) = 0 exactly in floating point


def test_alpha_scales_by_exponent_sum():
    w = W.reduce(3, [(1, 2), (2, -1), (3, 1)])  # exponent sum 2
    out = alpha(0.7, DirectSumElement.from_word(w))
    coeff = out.components[3].terms[w]
    assert abs(coeff - cmath.exp(1j * 0.7 * 2 * math.log(3))) < 1e-12


def test_alpha_is_multiplicative_and_star_preserving():
    rng = random.Random(30)
    for t in TS:
        for _ in range(40):
            x = random_direct_sum(rng, max_rank=6, max_len=4)
            y = random_direct_sum(rng, max_rank=6, max_len=4)
            assert alpha(t, x * y).allclose(alpha(t, x) * alpha(t, y), 1e-9)
            assert alpha(t, x.star()).allclose(alpha(t, x).star(), 1e-9)


def test_alpha_respects_counit():
    rng = random.Random(31)
    for t in TS:
        for _ in range(40):
            x = random_direct_sum(rng, max_rank=8, max_len=4)
            assert abs(complex(counit(alpha(t, x))) - complex(counit(x))) < 1e-9


# -- beta -------------------------------------------------------------------------


def test_beta_examples():
    assert beta(dsum_word(3, 1)) == dsum_word(3, 3)
    x = DirectSumElement.from_word(W.gen(2, 1) * W.gen(2, 2, -1))
    assert beta(x) == DirectSumElement.from_word(W.gen(2, 2) * W.gen(2, 1, -1))


def test_beta_involution():
    rng = random.Random(32)
    for _ in range(100):
        x = random_direct_sum(rng, max_rank=12, max_len=5)
        assert beta(beta(x)) == x


def test_beta_stays_exact():
    out = beta(dsum_word(5, 2))
    assert out.exact


# -- morphism checks -----------------------------------------------------------------


def test_identity_endo_is_morphism():
    rng = random.Random(33)
    for _ in range(20):
        x = random_direct_sum(rng, max_rank=8, max_len=4)
        assert bialgebra_morphism_check(identity_endo(), x)


def test_beta_morphism_on_generators():
    endo = beta_endo()
    for n in range(1, 25):
        for k in range(1, n + 1):
            assert bialgebra_morphism_check(endo, dsum_word(n, k))


def test_beta_morphism_matches_hand_computation():
    # images of the four summands of the rank-6 coproduct under index reversal
    x = dsum_word(6, 2)
    lhs = beta_endo().apply_tensor(delta_phi(x))
    rhs = delta_phi(beta(x))
    assert lhs == rhs
    from freebialg.algebra import TensorElement

    assert rhs.component(2, 3) == TensorElement.from_pair(W.gen(2, 2), W.gen(3, 2))


def test_alpha_morphism_on_generators():
    for t in TS:
        endo = alpha_endo(t)
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert bialgebra_morphism_check(endo, dsum_word(n, k), 1e-9)


def test_alpha_morphism_on_random_elements():
    rng = random.Random(34)
    for t in TS:
        for _ in range(30):
            x = random_direct_sum(rng, max_rank=8, max_len=4)
            assert bialgebra_morphism_check(alpha_endo(t), x, 1e-9)


# -- group laws -------------------------------------------------------------------------


def test_alpha_additivity_pairs():
    x = dsum_word(6, 2)
    for t, s in ((0.3, -0.3), (1.0, 2.5), (0.3, 1.0)):
        dev = max_term_deviation(alpha(t, alpha(s, x)), alpha(t + s, x))
        assert dev < 1e-12


def test_group_law_report():
    report = group_law_checks()
    assert report["status"] == "verified"
    assert report["alpha_additivity"]["max_deviation"] < 1e-9
    assert report["beta_involution"]["exact"] is True
    assert report["alpha_beta_commute"]["max_deviation"] < 1e-9


def test_beta_squared_exact_on_random_words():
    rng = random.Random(35)
    for _ in range(100):
        x = random_direct_sum(rng, max_rank=10, max_len=5)
        assert beta(beta(x)) == x


def test_beta_commutes_with_delta_exactly():
    endo = beta_endo()
    for n in range(1, 25):
        for k in range(1, n + 1):
            x = dsum_word(n, k)
            assert endo.apply_tensor(delta_phi(x)) == delta_phi(endo.apply(x))


# -- one apply for every element type ----------------------------------------------


def _reference_image(kind, t, x):
    """``x``'s image under ``beta`` or ``alpha_t``, term by term: each word of
    a label is mapped and its phase multiplied in, slot after slot."""
    from freebialg.scalars import QI

    exact = kind == "beta" and x.exact
    out = {}
    for label, c in x.terms.items():
        c = c if exact else complex(c)
        images = []
        for w in label if type(label) is tuple else (label,):
            n = w.ambient.n
            if kind == "beta":
                images.append(W.reduce(w.ambient, [(n - g + 1, e) for g, e in w.syllables]))
                phase = QI(1)
            else:
                images.append(w)
                phase = 1 + 0j
                for _, e in w.syllables:
                    phase = phase * cmath.exp(1j * (t * math.log(n))) ** e
            c = c * (phase if exact else complex(phase))  # (c * ph1) * ph2
        # both maps are injective on words, so no two terms collide
        out[tuple(images) if type(label) is tuple else images[0]] = c
    return out


def _endo_inputs():
    from freebialg.algebra import tensor
    from freebialg.corpus import random_algebra_element

    rng = random.Random(47)
    for _ in range(6):
        a = random_algebra_element(rng, rng.randint(1, 7), max_len=5, max_terms=4)
        b = random_algebra_element(rng, rng.randint(1, 7), max_len=5, max_terms=4)
        x = random_direct_sum(rng, max_rank=12, max_len=5, max_terms=4, parts=3)
        for el in (a, x, delta_phi(x), tensor(a, b)):
            yield el
            yield el.to_approx()


def test_graded_endo_apply_matches_a_per_term_reference():
    inputs = list(_endo_inputs())
    for kind, endo, t in [("beta", beta_endo(), None)] + [("alpha", alpha_endo(t), t) for t in TS]:
        for name in ("apply", "apply_algebra", "apply_tensor"):
            for x in inputs:
                out = getattr(endo, name)(x)
                assert type(out) is type(x) and out.space == x.space
                assert out.exact == (kind == "beta" and x.exact)
                assert out.terms == _reference_image(kind, t, x), (kind, name, str(x))


def test_graded_endo_refuses_infinite_ranks():
    from freebialg.algebra import AlgebraElement, TensorElement

    rank = W.Rank(None)  # built by hand, so not the shared INFINITE object
    assert rank is not W.INFINITE
    w = W.gen(rank, 3)
    for endo in (beta_endo(), alpha_endo(0.3)):
        for x in (
            AlgebraElement(rank, {w: 1}),
            AlgebraElement(W.INFINITE),
            TensorElement((2, rank), {(W.gen(2, 1), w): 1}),
        ):
            with pytest.raises(ValueError, match="finite ranks"):
                endo.apply_algebra(x)
            with pytest.raises(ValueError, match="finite ranks"):
                endo.apply_tensor(x)
