"""Tests for the graded coproduct, counit, unitization, coaction, and the
axiom checkers."""

import random
import re
from fractions import Fraction

import pytest

from freebialg import words as W
from freebialg.algebra import AlgebraElement, TensorElement, TripleTensorElement, varphi_alg
from freebialg.bialgebra import (
    DirectSumElement,
    DirectSumTensor,
    DirectSumTriple,
    UnitizedElement,
    coaction,
    coassoc_check,
    comodule_check,
    counit,
    counit_axiom_check,
    counit_check,
    delta_phi,
    factor_pairs,
    unitized_counit,
    unitized_delta,
    verify_cancellation,
    wcs_check,
)
from freebialg.corpus import random_direct_sum, random_reduced_word
from freebialg.scalars import QI
from freebialg.words import INFINITE


def dsum_word(n, k):
    return DirectSumElement.from_word(W.gen(n, k))


def test_factor_pairs():
    assert factor_pairs(6) == [(1, 6), (2, 3), (3, 2), (6, 1)]
    assert factor_pairs(1) == [(1, 1)]
    assert factor_pairs(7) == [(1, 7), (7, 1)]


def test_factor_pairs_match_the_divisor_definition():
    for n in range(1, 3001):
        assert factor_pairs(n) == [(m, n // m) for m in range(1, n + 1) if n % m == 0], n
    for n in (2**40, 10**8, 999_983**2, 2 * 999_983):
        pairs = factor_pairs(n)
        assert all(m * l == n for m, l in pairs)
        assert [m for m, _ in pairs] == sorted({m for m, _ in pairs})
        assert pairs == [(l, m) for m, l in reversed(pairs)]
    assert len(factor_pairs(10**8)) == 81 and len(factor_pairs(999_983**2)) == 3
    # a rank is checked as every finite rank is: True == 1, but it is no rank
    for bad in (0, -3, True, 2.0, None):
        msg = f"^finite rank must be a positive integer, got {bad}$"
        with pytest.raises(ValueError, match=msg):
            factor_pairs(bad)


def ordered_divisor_count(n):
    return sum(1 for m in range(1, n + 1) if n % m == 0)


# -- delta_phi ------------------------------------------------------------------


def test_delta_of_g2_rank6_is_the_four_term_sum():
    t = delta_phi(dsum_word(6, 2))
    assert t.keys() == [(1, 6), (2, 3), (3, 2), (6, 1)]
    assert t.component(1, 6) == TensorElement.from_pair(W.gen(1, 1), W.gen(6, 2))
    assert t.component(2, 3) == TensorElement.from_pair(W.gen(2, 1), W.gen(3, 2))
    assert t.component(3, 2) == TensorElement.from_pair(W.gen(3, 1), W.gen(2, 2))
    assert t.component(6, 1) == TensorElement.from_pair(W.gen(6, 2), W.gen(1, 1))


def test_delta_on_rank1_is_diagonal():
    t = delta_phi(dsum_word(1, 1))
    assert t.keys() == [(1, 1)]
    assert t.component(1, 1) == TensorElement.from_pair(W.gen(1, 1), W.gen(1, 1))


def test_delta_of_g3_rank4():
    t = delta_phi(dsum_word(4, 3))
    assert t.component(1, 4) == TensorElement.from_pair(W.gen(1, 1), W.gen(4, 3))
    assert t.component(2, 2) == TensorElement.from_pair(W.gen(2, 2), W.gen(2, 1))
    assert t.component(4, 1) == TensorElement.from_pair(W.gen(4, 3), W.gen(1, 1))


def test_component_refuses_a_key_with_the_wrong_number_of_ranks():
    t = delta_phi(dsum_word(4, 3))
    x = dsum_word(4, 3)
    for element, key in (
        (DirectSumTensor.zero(), (2,)),
        (t, (4,)),
        (t, (1, 2, 2)),
        (DirectSumElement.zero(), (2, 3)),
        (x, (4, 1)),
        (x, ()),
        (DirectSumTriple.zero(), (1, 2)),
    ):
        with pytest.raises(ValueError, match=rf"^component key {re.escape(str(key))} does not"):
            element.component(*key)
    # the right number of ranks is taken, present or not
    assert x.component(4) == AlgebraElement.from_word(W.gen(4, 3))
    assert t.component(2, 3) == TensorElement.zero((2, 3))


def test_component_is_the_entry_of_components():
    rng = random.Random(8)
    for _ in range(5):
        x = random_direct_sum(rng, max_rank=12, max_len=3, parts=3)
        t = delta_phi(x)
        approx = DirectSumTensor(
            {k: TensorElement(c.space, {l: complex(v) for l, v in c.terms.items()}, exact=False)
             for k, c in t.components.items()}
        )
        for element in (x, t, coassoc_check(x)[0], approx):
            comps = element.components
            assert comps
            for key, comp in comps.items():
                got = element.component(*(key if type(key) is tuple else (key,)))
                assert got == comp and got.space == comp.space and got.exact == comp.exact
            slots = len(element.space) if type(element.space) is tuple else 1
            absent = element.component(*(13,) * slots)
            zero = type(comp).zero((13,) * slots if slots > 1 else 13, element.exact)
            assert absent == zero and absent.space == zero.space and not absent.terms


def test_delta_summand_count_is_ordered_divisor_count():
    for n in range(1, 25):
        t = delta_phi(dsum_word(n, 1))
        assert t.term_count() == ordered_divisor_count(n)


def test_delta_is_multiplicative_within_one_rank():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 8)
        x = DirectSumElement.from_algebra(
            AlgebraElement.from_word(random_reduced_word(rng, n, 4))
        )
        y = DirectSumElement.from_algebra(
            AlgebraElement.from_word(random_reduced_word(rng, n, 4))
        )
        assert delta_phi(x * y) == delta_phi(x) * delta_phi(y)


def test_delta_commutes_with_star():
    rng = random.Random(8)
    for _ in range(60):
        x = random_direct_sum(rng, max_rank=8, max_len=4)
        assert delta_phi(x.star()) == delta_phi(x).star()


def test_noncocommutativity_witness():
    t = delta_phi(dsum_word(6, 2))
    assert t.flip() != t


# -- counit ---------------------------------------------------------------------


def test_counit_examples():
    assert counit(dsum_word(1, 1)) == QI(1)
    assert counit(DirectSumElement.from_word(W.gen(1, 1, 5))) == QI(1)
    assert counit(dsum_word(3, 2)) == QI(0)
    x = DirectSumElement.from_algebra(
        AlgebraElement.from_word(W.gen(1, 1, 2), 3)
        - AlgebraElement.from_word(W.gen(1, 1, -1))
    )
    assert counit(x) == QI(2)


# -- coassociativity --------------------------------------------------------------


def test_coassoc_g2_rank6_nine_terms():
    lhs, rhs, equal = coassoc_check(dsum_word(6, 2))
    assert equal
    count = sum(len(el) for el in lhs.components.values())
    assert count == 9  # ordered triple factorizations of 6


def test_coassoc_trivial_rank1():
    lhs, rhs, equal = coassoc_check(dsum_word(1, 1))
    assert equal
    g = W.gen(1, 1)
    assert list(lhs.components[(1, 1, 1)].terms) == [(g, g, g)]


def test_coassoc_on_product_word():
    x = DirectSumElement.from_algebra(
        AlgebraElement.from_word(W.gen(4, 2) * W.gen(4, 3))
    )
    assert coassoc_check(x)[2]


def test_coassoc_generators_all_ranks():
    for n in range(1, 25):
        for k in range(1, n + 1):
            assert coassoc_check(dsum_word(n, k))[2]


def test_coassoc_random_corpus():
    rng = random.Random(0)
    for _ in range(200):
        x = random_direct_sum(rng, max_rank=12, max_len=5)
        assert coassoc_check(x)[2]


# -- counit law --------------------------------------------------------------------


def test_counit_check_examples():
    assert counit_check(dsum_word(6, 2))
    assert counit_check(DirectSumElement.zero())
    rng = random.Random(9)
    w = random_reduced_word(rng, 12, 4)
    assert counit_check(DirectSumElement.from_word(w))


def test_counit_check_random_corpus():
    rng = random.Random(0)
    for _ in range(200):
        assert counit_check(random_direct_sum(rng, max_rank=12, max_len=5))


# -- mixed coassociativity and counit axioms ------------------------------------------


def test_wcs_check_examples():
    assert wcs_check(2, 2, 2, W.gen(8, 7))
    assert wcs_check(3, 2, 4, W.unit(24))
    assert wcs_check(2, 3, 2, W.gen(12, 5))


def test_wcs_check_generator_grid():
    for n in range(1, 4):
        for m in range(1, 4):
            for l in range(1, 4):
                for k in range(1, n * m * l + 1):
                    assert wcs_check(n, m, l, W.gen(n * m * l, k))


def test_counit_axiom_examples():
    assert counit_axiom_check(3, W.gen(3, 2))
    assert counit_axiom_check(5, W.unit(5))
    assert counit_axiom_check(4, W.gen(4, 1) * W.gen(4, 3, -1))


def test_counit_axiom_generators():
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert counit_axiom_check(n, W.gen(n, k))


# -- unitization -------------------------------------------------------------------------


def test_unitized_delta_of_unit():
    d = unitized_delta(UnitizedElement.adjoined_unit())
    assert d.body == DirectSumTensor.zero() and d.unit_coeff == QI(1)


def test_unitized_delta_of_body_element():
    x = UnitizedElement(dsum_word(6, 2), 3)
    assert unitized_delta(x) == UnitizedElement(delta_phi(dsum_word(6, 2)), 3)


def test_unitized_counit_examples():
    assert unitized_counit(UnitizedElement.adjoined_unit()) == QI(1)
    assert unitized_counit(UnitizedElement(dsum_word(3, 2))) == QI(0)
    x = UnitizedElement(dsum_word(1, 1), QI(2))
    assert unitized_counit(x) == QI(3)


def test_unitized_delta_multiplicative():
    rng = random.Random(10)
    for _ in range(80):
        a = UnitizedElement(random_direct_sum(rng, max_rank=6, max_len=3), rng.randint(-2, 2))
        b = UnitizedElement(random_direct_sum(rng, max_rank=6, max_len=3), rng.randint(-2, 2))
        lhs = unitized_delta(a * b)
        rhs = unitized_delta(a) * unitized_delta(b)
        assert lhs.body == rhs.body and lhs.unit_coeff == rhs.unit_coeff
        # the product with tensor bodies, written out: T + c(1(x)1) times S + d(1(x)1)
        (s, c), (t, d) = ((u.body, u.unit_coeff) for u in (unitized_delta(a), unitized_delta(b)))
        assert lhs.body == s * t + t.scale(c) + s.scale(d) and lhs.unit_coeff == c * d
        assert unitized_counit(a * b) == unitized_counit(a) * unitized_counit(b)


def test_unitized_sum_equality_and_text():
    a = UnitizedElement(dsum_word(3, 2), 2)
    b = UnitizedElement(dsum_word(1, 1), -1)
    total = a + b
    assert total == UnitizedElement(dsum_word(3, 2) + dsum_word(1, 1), 1)
    assert total != a and (a == dsum_word(3, 2)) is False
    assert str(total) == "F1: g1 (+) F3: g2 + 1*~1"
    assert str(UnitizedElement.adjoined_unit()) == "0 + 1*~1"


def test_unitized_requires_exact():
    rng = random.Random(11)
    x = random_direct_sum(rng, max_rank=3, max_len=2).to_approx()
    with pytest.raises(ValueError):
        UnitizedElement(x)


def test_unitized_coefficient_is_an_exact_scalar():
    body = dsum_word(3, 2)
    for bad in ("1/2", 1.5, 1j):
        msg = f"^exact elements take QI, int or Fraction coefficients, got {type(bad).__name__}$"
        with pytest.raises(TypeError, match=msg):
            UnitizedElement(body, bad)
    for good in (3, Fraction(1, 2), QI(1, 2)):
        coeff = UnitizedElement(body, good).unit_coeff
        assert type(coeff) is QI and coeff == good


def test_unitized_refuses_what_is_not_a_unitized_element():
    u = UnitizedElement(dsum_word(3, 2), 2)
    for bad in (2, QI(1)):
        for op in (lambda: u * bad, lambda: u + bad, lambda: bad * u, lambda: bad + u):
            with pytest.raises(TypeError, match="unsupported operand"):
                op()
    # a bare body is no unitized element either; it refuses the product as a scalar
    with pytest.raises(TypeError):
        u * dsum_word(3, 2)
    with pytest.raises(TypeError, match="unsupported operand"):
        u + dsum_word(3, 2)
    t = delta_phi(dsum_word(4, 1))
    for body in (5, None, AlgebraElement.from_word(W.gen(2, 1)), t.component(2, 2)):
        with pytest.raises(TypeError, match="^the body must be a direct sum, got "):
            UnitizedElement(body)
    # both kinds of body are taken: an element and a tensor
    assert UnitizedElement(t, 1).body is t


# -- cancellation law -----------------------------------------------------------------------


def test_verify_cancellation_examples():
    assert verify_cancellation(W.gen(2, 1), W.gen(2, 2))
    assert verify_cancellation(W.unit(1), W.unit(1))


def test_verify_cancellation_random():
    rng = random.Random(12)
    for _ in range(100):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        assert verify_cancellation(
            random_reduced_word(rng, n, 5), random_reduced_word(rng, m, 5)
        )


def test_verify_cancellation_fails_under_a_perturbed_correction(monkeypatch):
    from freebialg import bialgebra

    pairs = [(x, y) for x in W.enumerate_ball(2, 2) for y in W.enumerate_ball(3, 1)]
    for name in ("cancellation_witness_left", "cancellation_witness_right"):
        honest = getattr(W, name)

        def perturbed(x, y, honest=honest):
            correction, z = honest(x, y)
            return W.multiply(correction, W.gen(correction.ambient, 1)), z

        with monkeypatch.context() as patch:
            patch.setattr(bialgebra, name, perturbed)
            assert not any(verify_cancellation(x, y) for x, y in pairs)


def test_counit_axiom_fails_when_phi_returns_the_wrong_slot(monkeypatch):
    from freebialg import bialgebra

    words = [(n, z) for n in range(2, 6) for z in W.enumerate_ball(n, 1)]
    # swap the slots of the left trivial splitting (1, n), then of the right one (n, 1)
    for swapped in (lambda n, m: n == 1, lambda n, m: m == 1):

        def phi(n, m, z, swapped=swapped):
            pair = W.phi(n, m, z)
            return pair[::-1] if swapped(n, m) else pair

        with monkeypatch.context() as patch:
            patch.setattr(bialgebra, "phi", phi)
            assert not any(counit_axiom_check(n, z) for n, z in words)


def test_basis_element_checkers_refuse_bad_ranks():
    with pytest.raises(ValueError, match="expected a word of rank 3, got ambient F2"):
        counit_axiom_check(3, W.gen(2, 1))
    with pytest.raises(ValueError, match="expected a word of rank 2, got ambient Finf"):
        counit_axiom_check(2, W.gen(INFINITE, 1))
    with pytest.raises(ValueError, match="^finite rank must be a positive integer, got 0$"):
        counit_axiom_check(0, W.gen(2, 1))
    for pair in ((W.gen(INFINITE, 1), W.gen(2, 1)), (W.gen(2, 1), W.gen(INFINITE, 1))):
        with pytest.raises(ValueError, match="cancellation witnesses require finite ranks"):
            verify_cancellation(*pair)


# -- coaction ----------------------------------------------------------------------------------


def test_coaction_examples():
    fam = coaction(AlgebraElement.from_word(W.gen(INFINITE, 1)), 2)
    assert fam[1] == TensorElement.from_pair(W.gen(INFINITE, 1), W.gen(1, 1))
    assert fam[2] == TensorElement.from_pair(W.gen(INFINITE, 1), W.gen(2, 1))

    fam = coaction(AlgebraElement.unit(INFINITE), 3)
    for n in (1, 2, 3):
        assert fam[n] == TensorElement.from_pair(W.unit(INFINITE), W.unit(n))

    fam = coaction(AlgebraElement.from_word(W.gen(INFINITE, 7)), 2)
    assert fam[2] == TensorElement.from_pair(W.gen(INFINITE, 4), W.gen(2, 1))


def test_coaction_validates_truncation():
    x = AlgebraElement.unit(INFINITE)
    for bad, error in (
        (0, "truncation bound must be positive"),
        (-1, "truncation bound must be positive"),
        (True, "truncation bound must be an int, got True"),
        (2.0, "truncation bound must be an int, got 2.0"),
    ):
        with pytest.raises(ValueError, match=f"^{error}$"):
            coaction(x, bad)


def test_comodule_check_examples():
    assert comodule_check(2, 2, W.gen(INFINITE, 7))
    assert comodule_check(3, 2, W.unit(INFINITE))
    assert comodule_check(2, 3, W.gen(INFINITE, 10))


def test_comodule_check_generators():
    for k in range(1, 25):
        for n in range(1, 4):
            for m in range(1, 4):
                assert comodule_check(n, m, W.gen(INFINITE, k))


# -- graded containers ---------------------------------------------------------------------------


def test_direct_sum_products_vanish_across_ranks():
    x = dsum_word(2, 1)
    y = dsum_word(3, 1)
    assert (x * y).is_zero
    assert (x * x).component(2) == AlgebraElement.from_word(W.gen(2, 1, 2))


def test_direct_sum_json_roundtrip():
    rng = random.Random(13)
    x = random_direct_sum(rng, max_rank=5, max_len=3)
    assert DirectSumElement.from_json(x.to_json()) == x


def test_direct_sum_rejects_mode_mixing():
    a = AlgebraElement.from_word(W.gen(2, 1))
    b = AlgebraElement.from_word(W.gen(3, 1)).to_approx()
    with pytest.raises(ValueError):
        DirectSumElement([(2, a), (3, b)])


def test_varphi_alg_matches_delta_component():
    rng = random.Random(14)
    for _ in range(50):
        n = rng.choice((4, 6, 8, 9, 12))
        a = AlgebraElement.from_word(random_reduced_word(rng, n, 4))
        t = delta_phi(DirectSumElement.from_algebra(a))
        for m, l in factor_pairs(n):
            assert t.component(m, l) == varphi_alg(m, l, a)


# -- elements spanning several ranks -------------------------------------------------------------


def test_direct_sum_product_is_rankwise():
    rng = random.Random(15)
    for _ in range(60):
        x = random_direct_sum(rng, max_rank=4, max_len=3, parts=3)
        y = random_direct_sum(rng, max_rank=4, max_len=3, parts=3)
        for n in set(x.keys()) | set(y.keys()):
            assert (x * y).component(n) == x.component(n) * y.component(n)


def test_direct_sum_rebuilds_from_components():
    rng = random.Random(16)
    for _ in range(60):
        x = random_direct_sum(rng, max_rank=12, max_len=4, parts=3)
        assert DirectSumElement(x.components) == x
        t = delta_phi(x)
        assert DirectSumTensor(t.components) == t


def split_slot(t, slot):
    """Split one slot of a single-rank tensor element with ``varphi_alg``
    over every factorization of that slot's rank."""
    parts = []
    for (w1, w2), c in t.terms.items():
        w, other = (w1, w2) if slot == 0 else (w2, w1)
        for p, q in factor_pairs(w.ambient.n):
            for (u, v), d in varphi_alg(p, q, AlgebraElement.from_word(w, c)).terms.items():
                words = (u, v, other) if slot == 0 else (other, u, v)
                triple = TripleTensorElement.from_triple(*words, d)
                parts.append((tuple(r.n for r in triple.ambients), triple))
    return parts


def test_delta_is_the_sum_of_rankwise_splittings():
    rng = random.Random(17)
    for _ in range(40):
        x = random_direct_sum(rng, max_rank=12, max_len=4, parts=3)
        t = delta_phi(x)
        assert t == DirectSumTensor(
            ((m, l), varphi_alg(m, l, x.component(n)))
            for n in x.keys()
            for m, l in factor_pairs(n)
        )
        lhs, rhs, _ = coassoc_check(x)
        for slot, side in ((0, lhs), (1, rhs)):
            want = [part for el in t.components.values() for part in split_slot(el, slot)]
            assert side == DirectSumTriple(want)
