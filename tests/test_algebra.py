"""Element-level tests: exact scalars, convolution, star, tensors, and the
linear extensions of the splitting maps."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freebialg import reps as R
from freebialg import words as W
from freebialg.algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    TensorElement,
    TripleTensorElement,
    apply_tensor_right,
    standard_delta,
    standard_delta_compat_check,
    tensor,
    varphi_alg,
    varphi_inf_alg,
)
from freebialg.bialgebra import _DirectSum, delta_phi
from freebialg.corpus import (
    random_algebra_element,
    random_direct_sum,
    random_exact_scalar,
    random_reduced_word,
)
from freebialg.scalars import QI
from freebialg.words import INFINITE


def el(text):
    from freebialg.text import parse_element

    return parse_element(text)


# -- scalars ------------------------------------------------------------------


def test_qi_arithmetic():
    a = QI(Fraction(1, 2), 3)
    b = QI(2, -1)
    assert a + b == QI(Fraction(5, 2), 2)
    assert a * b == QI(4, Fraction(11, 2))
    assert (-a) + a == QI(0)
    assert a.conjugate().conjugate() == a
    assert QI(0, 1) ** 4 == QI(1)
    assert QI(0, 1) ** -1 == QI(0, -1)
    assert complex(QI(1, 2)) == 1 + 2j


def test_qi_rejects_floats():
    with pytest.raises(TypeError):
        QI(0.5)


def test_qi_str():
    assert str(QI(2)) == "2"
    assert str(QI(Fraction(-1, 2))) == "-1/2"
    assert str(QI(Fraction(1, 2), -3)) == "(1/2-3i)"


# -- vector space ops -----------------------------------------------------------


def test_add_cancellation():
    g1 = AlgebraElement.from_word(W.gen(2, 1))
    assert (g1 + g1.scale(-1)).is_zero


def test_scalar_mul_distributes():
    g1 = AlgebraElement.from_word(W.gen(2, 1))
    g2 = AlgebraElement.from_word(W.gen(2, 2))
    assert (g1 + g2).scale(2) == g1.scale(2) + g2.scale(2)


def test_coefficient_merge():
    assert el("F2: g1 + g2") + el("F2: g2 - g1") == el("F2: 2*g2")


def test_mode_and_space_mismatch():
    g1 = AlgebraElement.from_word(W.gen(2, 1))
    with pytest.raises(ValueError):
        g1 + AlgebraElement.from_word(W.gen(3, 1))
    with pytest.raises(ValueError):
        g1 + g1.to_approx()
    with pytest.raises(TypeError):
        AlgebraElement(2, {W.gen(2, 1): 0.5})  # floats need approx mode


# -- convolution ------------------------------------------------------------------


def test_mul_examples():
    g1 = AlgebraElement.from_word(W.gen(2, 1))
    assert g1 * AlgebraElement.from_word(W.gen(2, 1, -1)) == AlgebraElement.unit(2)
    assert el("F2: g1 + g2") * el("F2: g2^-1") == el("F2: g1*g2^-1 + 1")
    kernel = AlgebraElement.from_word(W.kernel_witness(2, 2, 1, 2, 1, 2))
    diff = kernel - AlgebraElement.unit(4)
    assert diff * AlgebraElement.unit(4) == diff


def test_mul_associative_seeded():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 3)
        a = random_algebra_element(rng, n, 4)
        b = random_algebra_element(rng, n, 4)
        c = random_algebra_element(rng, n, 4)
        assert (a * b) * c == a * (b * c)


# -- star ---------------------------------------------------------------------------


def test_star_examples():
    gi = AlgebraElement.from_word(W.gen(2, 1), QI(0, 1))
    assert gi.star() == AlgebraElement.from_word(W.gen(2, 1, -1), QI(0, -1))
    assert AlgebraElement.unit(2).star() == AlgebraElement.unit(2)
    w = W.reduce(2, [(1, 1), (2, 1)])
    assert AlgebraElement.from_word(w).star() == AlgebraElement.from_word(w.inverse())


def test_star_antimultiplicative_seeded():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(1, 3)
        a = random_algebra_element(rng, n, 4)
        b = random_algebra_element(rng, n, 4)
        assert (a * b).star() == b.star() * a.star()
        assert a.star().star() == a


# -- varphi_alg ------------------------------------------------------------------------


def test_varphi_generator_example():
    t = varphi_alg(2, 3, AlgebraElement.from_word(W.gen(6, 2)))
    assert t == TensorElement.from_pair(W.gen(2, 1), W.gen(3, 2))


def test_varphi_kernel_difference_vanishes():
    a = AlgebraElement.from_word(W.kernel_witness(2, 2, 1, 2, 1, 2)) - AlgebraElement.unit(4)
    assert not a.is_zero
    assert varphi_alg(2, 2, a).is_zero


def test_varphi_sum_example():
    a = el("F4: g1 + g3")
    t = varphi_alg(2, 2, a)
    expected = TensorElement.from_pair(W.gen(2, 1), W.gen(2, 1)) + TensorElement.from_pair(
        W.gen(2, 2), W.gen(2, 1)
    )
    assert t == expected


def test_varphi_is_unital_star_homomorphism_seeded():
    rng = random.Random(5)
    for _ in range(150):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        a = random_algebra_element(rng, n * m, 4)
        b = random_algebra_element(rng, n * m, 4)
        ta, tb = varphi_alg(n, m, a), varphi_alg(n, m, b)
        assert varphi_alg(n, m, a * b) == ta * tb
        assert varphi_alg(n, m, a.star()) == ta.star()
    one = AlgebraElement.unit(6)
    assert varphi_alg(2, 3, one) == TensorElement.from_pair(W.unit(2), W.unit(3))


def test_varphi_inf_examples():
    t = varphi_inf_alg(2, AlgebraElement.from_word(W.gen(INFINITE, 5)))
    assert t == TensorElement.from_pair(W.gen(INFINITE, 3), W.gen(2, 1))
    t = varphi_inf_alg(3, AlgebraElement.unit(INFINITE))
    assert t == TensorElement.from_pair(W.unit(INFINITE), W.unit(3))
    a = AlgebraElement.from_word(W.gen(INFINITE, 2) * W.gen(INFINITE, 1))
    t = varphi_inf_alg(2, a)
    assert t == TensorElement.from_pair(
        W.gen(INFINITE, 1, 2), W.gen(2, 2) * W.gen(2, 1)
    )


# -- tensor ------------------------------------------------------------------------------


def test_tensor_examples():
    g1 = AlgebraElement.from_word(W.gen(2, 1))
    g2 = AlgebraElement.from_word(W.gen(2, 2))
    assert len(tensor(g1, g2)) == 1
    t = tensor(g1 + g2, AlgebraElement.unit(2))
    assert t == TensorElement.from_pair(W.gen(2, 1), W.unit(2)) + TensorElement.from_pair(
        W.gen(2, 2), W.unit(2)
    )
    t = tensor(g1.scale(2), g2.scale(3))
    assert t == TensorElement.from_pair(W.gen(2, 1), W.gen(2, 2), 6)


# -- standard delta -----------------------------------------------------------------------


def test_standard_delta_examples():
    g1 = AlgebraElement.from_word(W.gen(2, 1))
    g2 = AlgebraElement.from_word(W.gen(2, 2))
    assert standard_delta(g1) == TensorElement.from_pair(W.gen(2, 1), W.gen(2, 1))
    assert standard_delta(AlgebraElement.unit(2)) == TensorElement.from_pair(
        W.unit(2), W.unit(2)
    )
    assert standard_delta(g1 + g2) == standard_delta(g1) + standard_delta(g2)


def test_standard_delta_compat_generators():
    for n in range(1, 5):
        for m in range(1, 5):
            for k in range(1, n * m + 1):
                a = AlgebraElement.from_word(W.gen(n * m, k))
                assert standard_delta_compat_check(n, m, a)


def test_standard_delta_compat_random():
    rng = random.Random(6)
    for _ in range(100):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = random_algebra_element(rng, n * m, 4)
        assert standard_delta_compat_check(n, m, a)


# -- slot multiplication -------------------------------------------------------------------


def test_apply_tensor_right_examples():
    t = TensorElement.from_pair(W.gen(2, 1), W.gen(2, 2))
    out = apply_tensor_right(t, AlgebraElement.from_word(W.gen(2, 1, -1)), "left")
    assert out == TensorElement.from_pair(W.unit(2), W.gen(2, 2))

    t = TensorElement.from_pair(W.unit(2), W.unit(2))
    x = AlgebraElement.from_word(W.reduce(2, [(1, 1), (2, 1)]))
    out = apply_tensor_right(t, x, "left")
    assert out == TensorElement.from_pair(W.reduce(2, [(1, 1), (2, 1)]), W.unit(2))

    t = varphi_alg(2, 2, AlgebraElement.from_word(W.gen(4, 1)))
    xp = AlgebraElement.from_word(W.reduce(2, [(1, -1), (2, 1)]))
    assert apply_tensor_right(t, xp, "left") == TensorElement.from_pair(
        W.gen(2, 2), W.gen(2, 1)
    )


def test_apply_tensor_right_validates():
    t = TensorElement.from_pair(W.gen(2, 1), W.gen(3, 1))
    with pytest.raises(ValueError):
        apply_tensor_right(t, AlgebraElement.from_word(W.gen(2, 1)), "middle")
    with pytest.raises(ValueError):
        apply_tensor_right(t, AlgebraElement.from_word(W.gen(2, 1)), "right")


# -- tensor and triple structure --------------------------------------------------------------


def test_tensor_flip_and_star():
    t = TensorElement.from_pair(W.gen(2, 1), W.gen(3, 2), QI(0, 1))
    assert t.flip() == TensorElement.from_pair(W.gen(3, 2), W.gen(2, 1), QI(0, 1))
    assert t.star() == TensorElement.from_pair(
        W.gen(2, 1, -1), W.gen(3, 2, -1), QI(0, -1)
    )


def test_triple_tensor_basics():
    t = TripleTensorElement.from_triple(W.gen(2, 1), W.gen(2, 2), W.gen(3, 1))
    assert t == TripleTensorElement.from_triple(W.gen(2, 1), W.gen(2, 2), W.gen(3, 1))
    assert (t - t).is_zero


# -- approx mode --------------------------------------------------------------------------------


def test_approx_equality_within_tol():
    a = AlgebraElement(2, {W.gen(2, 1): 1.0}, exact=False)
    b = AlgebraElement(2, {W.gen(2, 1): 1.0 + 1e-12}, exact=False)
    assert a == b
    c = AlgebraElement(2, {W.gen(2, 1): 1.0 + 1e-6}, exact=False)
    assert a != c


def test_approx_purges_below_tol():
    a = AlgebraElement(2, {W.gen(2, 1): 1e-12}, exact=False)
    assert a.is_zero


# -- serialization -------------------------------------------------------------------------------


def test_element_json_roundtrip():
    a = el("F4: 2*g1*g2^-1 - g3 + (1/2+1i)*1")
    assert AlgebraElement.from_json(a.to_json()) == a


def test_canonical_print_roundtrip():
    cases = [
        "F4: 2*g1*g2^-1 - g3",
        "F2: -1*g1 + g2",
        "F2: (0+1i)*g1",
        "F1: 0",
        "F2: 1",
        "F2: 2*1 - g1",
    ]
    from freebialg.text import parse_element

    for case in cases:
        a = parse_element(case)
        assert parse_element(str(a)) == a


# -- trusted results ----------------------------------------------------------------------------
#
# Negation, star, flip, nonzero exact scaling and one-term elements store
# their term dict without the merging constructor.  Each such result must be
# the element the public constructor builds from the same pairs.


def _draw(kind, rng):
    """Two elements of one space of the given kind, exact coefficients."""
    if kind == "algebra":
        n = rng.randint(1, 4)
        return random_algebra_element(rng, n), random_algebra_element(rng, n)
    if kind == "tensor":
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        pair = lambda: tensor(random_algebra_element(rng, n), random_algebra_element(rng, m))
        return pair(), pair()
    if kind == "direct-sum":
        return random_direct_sum(rng, max_rank=6), random_direct_sum(rng, max_rank=6)
    if kind == "direct-sum-tensor":
        return delta_phi(random_direct_sum(rng, max_rank=6)), delta_phi(random_direct_sum(rng))
    i = rng.randint(1, 2)
    label = lambda: R.coset_normal_form(2, i, random_reduced_word(rng, 2, 4))
    vec = lambda: R.SuppVector(
        R.CosetBasis(2, i),
        [(label(), random_exact_scalar(rng)) for _ in range(rng.randint(1, 4))],
    )
    return vec(), vec()


def _public(x, pairs, space=None):
    """``pairs`` pushed through the public constructor of ``x``'s type."""
    if not isinstance(x, _DirectSum):
        return type(x)(x.space if space is None else space, pairs, x.exact)
    groups = {}
    for label, c in pairs:
        key = tuple(w.ambient.n for w in label) if type(label) is tuple else label.ambient.n
        groups.setdefault(key, []).append((label, c))
    comps = {key: x._component(key, group, x.exact) for key, group in groups.items()}
    return type(x)(comps, x.exact)


def _assert_trusted(got, want, *operands):
    assert type(got) is type(want)
    assert (got.space, got.exact) == (want.space, want.exact)
    assert got.terms == want.terms
    if got.exact:
        assert all(got.terms.values())
    else:
        assert all(abs(c) > DEFAULT_TOL for c in got.terms.values())
    assert all(got.terms is not x.terms for x in operands)


def _inverted(label):
    return tuple(w.inverse() for w in label) if type(label) is tuple else label.inverse()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["algebra", "tensor", "direct-sum", "direct-sum-tensor", "vector"]),
    st.integers(0, 2**32),
    st.booleans(),
)
def test_trusted_results_match_the_public_constructor(kind, seed, approx):
    rng = random.Random(seed)
    x, y = _draw(kind, rng)
    if approx:
        x, y = x.to_approx(), y.to_approx()
    items, neg = list(x.items()), [(k, -v) for k, v in y.items()]

    _assert_trusted(-y, _public(y, neg), y)
    _assert_trusted(x - y, _public(x, items + neg), x, y)
    if kind != "vector":
        star = [(_inverted(k), v.conjugate()) for k, v in items]
        _assert_trusted(x.star(), _public(x, star), x)
    # zero, a random scalar, and for approximate elements a scalar small
    # enough that some products fall under the tolerance
    scalars = [0, random_exact_scalar(rng)] + ([4e-10, 1e-12j] if approx else [])
    for c in scalars:
        cc = complex(c) if approx else c
        got = x.scale(c)
        _assert_trusted(got, _public(x, [(k, cc * v) for k, v in items]), x)
        if c == 0:
            assert got.is_zero
    if kind in ("tensor", "direct-sum-tensor"):
        flipped = [((k[1], k[0]), v) for k, v in items]
        space = None if kind == "direct-sum-tensor" else x.space[::-1]
        _assert_trusted(x.flip(), _public(x, flipped, space), x)


def test_scale_can_drop_approximate_terms():
    x = AlgebraElement(2, {W.gen(2, 1): 1.0, W.gen(2, 2): 4.0}, exact=False)
    assert x.scale(4e-10).terms == {W.gen(2, 2): 4e-10 * 4.0}


def test_one_term_constructors_match_the_public_constructor():
    w = W.reduce(3, [(2, 1), (1, -2)])
    for c in (1, QI(0, -2), Fraction(1, 3), 0):
        got = AlgebraElement.from_word(w, c)
        _assert_trusted(got, AlgebraElement(w.ambient, {w: c}))
    approx = AlgebraElement.from_word(w, 2.5, exact=False)
    assert approx == AlgebraElement(3, {w: 2.5}, exact=False)
    with pytest.raises(TypeError):
        AlgebraElement.from_word(w, 0.5)

    basis = R.CosetBasis(3, 2)
    label = R.coset_normal_form(3, 2, w)
    _assert_trusted(R.SuppVector.basis_vector(basis, label), R.SuppVector(basis, {label: 1}))
    for bad in (R.coset_normal_form(3, 1, w), w):
        with pytest.raises(ValueError):
            R.SuppVector.basis_vector(basis, bad)
