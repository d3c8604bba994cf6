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
    _Linear,
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


def test_mode_and_rank_refusals():
    exact = AlgebraElement.from_word(W.gen(2, 1))
    approx = exact.to_approx()
    t = TensorElement.from_pair(W.gen(2, 1), W.gen(2, 2))
    with pytest.raises(ValueError, match="cannot tensor exact with approximate elements"):
        tensor(exact, approx)
    with pytest.raises(ValueError, match="cannot mix exact and approximate elements"):
        apply_tensor_right(t, approx, "left")
    with pytest.raises(ValueError, match="element lives in F2, expected F4"):
        varphi_alg(2, 2, exact)
    with pytest.raises(ValueError, match="element lives in F2, expected Finf"):
        varphi_inf_alg(2, exact)
    with pytest.raises(ValueError, match="expected 2 tensor slots, got 3"):
        TensorElement((2, 2, 2))
    with pytest.raises(TypeError, match="cannot use str as an approximate coefficient"):
        AlgebraElement(2, {W.gen(2, 1): "1"}, exact=False)


def test_direct_sum_constructor_refusals():
    from freebialg.bialgebra import DirectSumElement

    a = AlgebraElement.from_word(W.gen(2, 1))
    inf = AlgebraElement.from_word(W.gen(INFINITE, 1))
    with pytest.raises(TypeError, match="components must be AlgebraElement"):
        DirectSumElement({2: TensorElement.from_pair(W.gen(2, 1), W.gen(2, 1))})
    with pytest.raises(ValueError, match="direct-sum components must have finite rank"):
        DirectSumElement({None: inf})
    with pytest.raises(ValueError, match="direct-sum components must have finite rank"):
        DirectSumElement.from_algebra(inf)
    with pytest.raises(ValueError, match="component key 3 does not match F2"):
        DirectSumElement({3: a})
    with pytest.raises(TypeError, match="unexpected keyword argument 'exact'"):
        DirectSumElement({2: a}, exact=False)  # the mode comes from the components


def test_direct_sum_takes_its_mode_from_its_components():
    from freebialg.bialgebra import DirectSumElement

    a = AlgebraElement.from_word(W.gen(2, 1))
    approx = AlgebraElement.from_word(W.gen(3, 1)).to_approx()
    assert DirectSumElement({2: a}).exact and not DirectSumElement({3: approx}).exact
    with pytest.raises(ValueError, match="components mix exact and approximate scalars"):
        DirectSumElement({2: a, 3: approx})
    # a sum with no terms is exact, whatever its components; zero(False) is the approximate one
    assert DirectSumElement({}).exact and DirectSumElement({3: approx.scale(0.0)}).exact
    zero, x = DirectSumElement.zero(False), DirectSumElement({3: approx})
    assert not zero.exact and not zero.terms and zero + x == x


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


def test_approximate_elements_print_convert_and_round_trip():
    a = AlgebraElement(2, {W.gen(2, 1): 1 + 2j, W.gen(2, 2): 0.5 - 1.5j}, exact=False)
    # a non-real approximate coefficient prints as a parenthesised complex number
    assert str(a) == "F2: (1.0+2.0i)*g1 + (0.5-1.5i)*g2"
    assert a.to_approx() is a
    back = AlgebraElement.from_json(a.to_json())
    assert not back.exact and back.terms == a.terms


def test_elements_over_different_ranks_differ_and_scale_by_an_int():
    a, b = AlgebraElement.from_word(W.gen(2, 1)), AlgebraElement.from_word(W.gen(3, 1))
    assert a != b and not a == b
    assert a * 2 == 2 * a == AlgebraElement(2, {W.gen(2, 1): 2})


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
    if kind == "approximate-algebra":
        return tuple(x.to_approx() for x in _draw("algebra", rng))
    if kind == "triple":
        ranks = [rng.randint(1, 3) for _ in range(3)]
        triple = lambda: TripleTensorElement(
            ranks,
            [
                (tuple(random_reduced_word(rng, r, 4) for r in ranks), random_exact_scalar(rng))
                for _ in range(rng.randint(1, 6))
            ],
        )
        return triple(), triple()
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
        R.PDFunction(2, i),
        [(label(), random_exact_scalar(rng)) for _ in range(rng.randint(1, 4))],
    )
    return vec(), vec()


def _grade(label):
    return tuple(w.ambient.n for w in label) if type(label) is tuple else label.ambient.n


def _public(x, pairs, space=None):
    """``pairs`` pushed through the public constructor of ``x``'s type."""
    if not isinstance(x, _DirectSum):
        return type(x)(x.space if space is None else space, pairs, x.exact)
    groups = {}
    for label, c in pairs:
        groups.setdefault(_grade(label), []).append((label, c))
    comps = {key: x._component(key, group, x.exact) for key, group in groups.items()}
    empty = not any(comp.terms for comp in comps.values())
    return type(x).zero(x.exact) if empty else type(x)(comps)


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


def _product(k1, k2):
    return tuple(map(W.multiply, k1, k2)) if type(k1) is tuple else W.multiply(k1, k2)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["algebra", "tensor", "direct-sum", "direct-sum-tensor", "vector"]),
    st.integers(0, 2**32),
    st.booleans(),
)
def test_trusted_results_match_the_public_constructor(kind, seed, approx):
    with pytest.raises(TypeError):
        AlgebraElement(2, {}, True, _trusted=True)
    rng = random.Random(seed)
    x, y = _draw(kind, rng)
    if approx:
        x, y = x.to_approx(), y.to_approx()
    items, neg = list(x.items()), [(k, -v) for k, v in y.items()]

    _assert_trusted(-y, _public(y, neg), y)
    _assert_trusted(x - y, _public(x, items + neg), x, y)
    _assert_trusted(x + y, _public(x, items + list(y.items())), x, y)
    # a sum that cancels; for approximate elements the sums fall under the
    # tolerance instead of reaching zero
    near = -1 + 1e-12 if approx else -1
    cancel = [(k, complex(near) * v if approx else -v) for k, v in items]
    _assert_trusted(x + x.scale(near), _public(x, items + cancel), x)
    assert (x + x.scale(near)).is_zero
    if kind != "vector":
        # a direct-sum product keeps only the products within one rank
        grade = _grade if isinstance(x, _DirectSum) else (lambda k: None)
        prod = [
            (_product(k1, k2), c1 * c2)
            for k1, c1 in items
            for k2, c2 in y.items()
            if grade(k1) == grade(k2)
        ]
        _assert_trusted(x * y, _public(x, prod), x, y)
    if isinstance(x, _DirectSum):
        comps = x.components
        assert sorted(comps) == x.keys()
        for key, comp in comps.items():
            part = [(k, v) for k, v in items if _grade(k) == key]
            _assert_trusted(comp, x._component(key, part, x.exact), x)
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

    basis = R.PDFunction(3, 2)
    label = R.coset_normal_form(3, 2, w)
    _assert_trusted(R.SuppVector.basis_vector(basis, label), R.SuppVector(basis, {label: 1}))
    # a representative of another subgroup's coset, and a word ending in g2
    for bad in (R.coset_normal_form(3, 1, w), w * W.gen(3, 2)):
        with pytest.raises(ValueError):
            R.SuppVector.basis_vector(basis, bad)


# -- streamed products ----------------------------------------------------------------------
#
# Products pass their (label, coefficient) pairs to the merge as a generator.
# Each must equal a plain double loop over the two term dicts, in the same
# first-seen label order, with cancelled labels dropped.


def _reference_product(x, y):
    graded = isinstance(x, _DirectSum)
    zero = QI(0) if x.exact else 0j
    acc = {}
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            if graded and _grade(k1) != _grade(k2):
                continue
            label = _product(k1, k2)
            acc[label] = acc.get(label, zero) + c1 * c2
    return {k: v for k, v in acc.items() if (v if x.exact else abs(v) > DEFAULT_TOL)}


@pytest.mark.parametrize(
    "kind",
    ["algebra", "approximate-algebra", "tensor", "triple", "direct-sum", "direct-sum-tensor"],
)
def test_products_match_a_reference_double_loop(kind, monkeypatch):
    import freebialg.algebra as A

    seen = []
    merge = A._merge

    def recording_merge(pairs, exact):
        seen.append(type(pairs))
        return merge(pairs, exact)

    monkeypatch.setattr(A, "_merge", recording_merge)
    rng = random.Random(f"streamed:{kind}")
    for _ in range(30):
        x, y = _draw(kind, rng)
        for a, b in ((x, y), (y, x), (x, x)):
            seen.clear()
            got = a * b
            want = _reference_product(a, b)
            assert got.terms == want
            assert list(got.terms) == list(want)
            assert type(got) is type(a) and got.space == a.space
            # the pairs arrive one at a time, not as a built list
            assert seen and not any(issubclass(t, (list, tuple)) for t in seen)


def test_products_whose_cross_terms_cancel():
    from freebialg.bialgebra import DirectSumElement

    a, b = el("F2: 1 + g1"), el("F2: 1 - g1")
    assert a * b == el("F2: 1 - g1^2")
    assert (a * b).coefficient(W.gen(2, 1)) == QI(0)
    # g1*g2^-1 - 1 + 1 - g2*g1^-1: the unit cancels
    c = el("F2: g1 + g2") * el("F2: g2^-1 - g1^-1")
    assert c == el("F2: g1*g2^-1 - g2*g1^-1") and len(c) == 2
    assert tensor(a, b) * tensor(b, a) == tensor(a * b, b * a)
    # the same product in F2 and F3 at once; no cross-rank term survives
    ds = lambda text: DirectSumElement.from_algebra(el(text))
    got = (ds("F2: 1 + g1") + ds("F3: 1 + g1")) * (ds("F2: 1 - g1") + ds("F3: 1 - g1"))
    assert got == ds("F2: 1 - g1^2") + ds("F3: 1 - g1^2")
    assert len(got) == 4


def test_products_across_spaces_still_raise():
    from freebialg.bialgebra import DirectSumElement

    a2, a3 = el("F2: 1 + g1"), el("F3: 1 + g1")
    pairs = [
        (a2, a3),
        (a2, a2.to_approx()),
        (tensor(a2, a3), tensor(a3, a2)),
        (tensor(a2, a3), a2),
        (DirectSumElement.from_algebra(a2), a2),
        (DirectSumElement.from_algebra(a2), delta_phi(DirectSumElement.from_algebra(a2))),
    ]
    for x, y in pairs:
        with pytest.raises(ValueError):
            x * y


# -- label checks -----------------------------------------------------------------


def _bad_labels():
    from freebialg.bialgebra import DirectSumElement, DirectSumTensor, DirectSumTriple

    g, h = W.gen(2, 1), W.gen(3, 1)
    inf = W.gen(INFINITE, 1)
    yield "int pair", lambda: TensorElement((2, 2), {(1, 2): 1})
    yield "str triple", lambda: TripleTensorElement((2, 2, 2), {("g1", "g1", "g1"): 1})
    yield "one-slot tensor label", lambda: TensorElement((2, 2), {(g,): 1})
    yield "bare word in a tensor", lambda: TensorElement((2, 2), {g: 1})
    yield "three words in a pair", lambda: TensorElement((2, 2), {(g, g, g): 1})
    yield "slot rank mismatch", lambda: TensorElement((2, 2), {(g, h): 1})
    yield "finite word in an infinite slot", lambda: TensorElement((INFINITE, 2), {(g, g): 1})
    yield "word of another rank", lambda: AlgebraElement(2, {h: 1})
    yield "tuple in an algebra", lambda: AlgebraElement(2, {(g,): 1})
    yield "int in an algebra", lambda: AlgebraElement(2, {1: 1})
    yield "word of another rank in a pair", lambda: TensorElement((2, 2), [((g, h), 1)])
    yield "infinite word in a direct sum", lambda: DirectSumElement().coefficient(inf)
    yield "pair in a direct sum", lambda: DirectSumElement().coefficient((g, g))
    yield "infinite slot in a direct-sum pair", lambda: DirectSumTensor().coefficient((g, inf))
    yield "one-slot direct-sum pair", lambda: DirectSumTensor().coefficient((g,))
    yield "pair in a direct-sum triple", lambda: DirectSumTriple().coefficient((g, g))


@pytest.mark.parametrize("case", [c for c, _ in _bad_labels()])
def test_every_element_rejects_a_bad_label_with_value_error(case):
    build = dict(_bad_labels())[case]
    with pytest.raises(ValueError, match="does not live in"):
        build()


def test_label_errors_name_the_space():
    from freebialg.bialgebra import DirectSumElement, DirectSumTensor

    with pytest.raises(ValueError, match=r"does not live in F2\(x\)F2$"):
        TensorElement((2, 2), {(1, 2): 1})
    with pytest.raises(ValueError, match="does not live in any finite rank$"):
        DirectSumElement().coefficient(W.gen(INFINITE, 1))
    with pytest.raises(ValueError, match=r"in any finite rank\(x\)any finite rank$") as info:
        DirectSumTensor().coefficient((W.gen(2, 1),))
    assert "None" not in str(info.value)


def test_good_labels_are_accepted():
    from freebialg.bialgebra import DirectSumElement, DirectSumTensor

    g, inf = W.gen(2, 1), W.gen(INFINITE, 2)
    # a list label is stored as the tuple it names
    assert TensorElement((2, 2), [([g, g], 3)]).terms == {(g, g): QI(3)}
    assert TensorElement((INFINITE, 2), {(inf, g): 1}).coefficient((inf, g)) == QI(1)
    assert AlgebraElement(INFINITE, {inf: 2}).coefficient(inf) == QI(2)
    assert DirectSumElement().coefficient(W.gen(5, 5)) == QI(0)
    assert DirectSumTensor().coefficient((g, W.gen(7, 1))) == QI(0)


# -- checkers on basis elements ---------------------------------------------------


def _linear_classes(cls=_Linear):
    yield cls
    for sub in cls.__subclasses__():
        yield from _linear_classes(sub)


def test_basis_element_checkers_build_no_linear_element(monkeypatch):
    """The cancellation, counit-axiom, GNS-coefficient and intertwiner
    checkers compare words and labels.  Every linear element is built by
    some class's ``__init__`` or by ``_Linear._wrap`` (which ``_merged`` and
    the one-term fast paths use), so refusing both refuses them all."""
    from freebialg.bialgebra import counit_axiom_check, verify_cancellation

    def refuse(*args, **kwargs):
        raise AssertionError("a linear element was built")

    for cls in _linear_classes():
        if "__init__" in vars(cls):
            monkeypatch.setattr(cls, "__init__", refuse)
    monkeypatch.setattr(_Linear, "_wrap", classmethod(refuse))
    coset = R.coset_normal_form(2, 1, W.gen(2, 2))
    for build in (
        lambda: AlgebraElement.from_word(W.gen(2, 1)),
        lambda: R.SuppVector.basis_vector(R.PDFunction(2, 1), coset),
        lambda: _DirectSum({}),
    ):
        with pytest.raises(AssertionError):
            build()

    ball2 = W.enumerate_ball(2, 2)
    for x in ball2:
        for y in W.enumerate_ball(1, 2):
            assert verify_cancellation(x, y) and verify_cancellation(y, x)
    for n in range(1, 5):
        for z in W.enumerate_ball(n, 1):
            assert counit_axiom_check(n, z)
    for i in (1, 2):
        for w in ball2:
            assert R.gns_coeff_check(2, i, w)
    for x in W.enumerate_ball(2, 1):
        for h in W.enumerate_ball(4, 1):
            assert R.intertwine_check(2, 2, x, h, W.reduce(4, [(2, 1), (3, -1)]))


# -- the merge ------------------------------------------------------------------------------
#
# ``_merge`` is the one place where coefficients are summed.  Each case is
# checked against this copy of its plain form: a membership test, a read and
# a write per pair, then a rebuilt dict without the zero sums.


def _plain_merge(pairs, exact):
    acc = {}
    for label, c in pairs:
        if label in acc:
            acc[label] = acc[label] + c
        else:
            acc[label] = c
    if exact:
        return {k: v for k, v in acc.items() if v}
    return {k: v for k, v in acc.items() if abs(v) > DEFAULT_TOL}


def _merge_both(pairs, exact):
    import freebialg.algebra as A

    got, want = A._merge(iter(pairs), exact), _plain_merge(pairs, exact)
    assert list(got.items()) == list(want.items())
    return got


def test_repeated_labels_sum_in_every_space():
    from freebialg.bialgebra import DirectSumElement
    from freebialg.scalars import ONE

    w, v = W.gen(2, 1), W.gen(3, 2, -1)
    two = QI(2)
    assert AlgebraElement(2, [(w, ONE), (w, ONE)]).coefficient(w) == two
    assert TensorElement((2, 3), [((w, v), ONE), ((w, v), ONE)]).coefficient((w, v)) == two
    one = AlgebraElement.from_word(w)
    assert DirectSumElement([(2, one), (2, one)]).terms == {w: two}
    assert (one + one).terms == {w: two}
    assert _merge_both([(w, ONE), (w, ONE)], True) == {w: two}
    assert _merge_both([((w, v), ONE)] * 3, True) == {(w, v): QI(3)}


def test_cancelled_labels_go_and_survivors_keep_first_order_and_key():
    words = [W.reduce(3, [(g, e)]) for g in (1, 2, 3) for e in (1, -2)]
    # equal words that are other objects than the first-seen ones
    again = [W.reduce(3, list(w.syllables)) for w in words]
    assert all(a == w and a is not w for a, w in zip(again, words))
    pairs = [(w, QI(k + 1)) for k, w in enumerate(words)]
    pairs += [(again[1], QI(-2)), (again[4], QI(-5)), (again[0], QI(3)), (again[5], QI(0, 1))]
    got = _merge_both(pairs, True)
    assert list(got) == [words[0], words[2], words[3], words[5]]
    assert all(any(k is w for w in words) for k in got)
    assert got[words[0]] == QI(4) and got[words[5]] == QI(6, 1)
    # a zero coefficient that arrives alone is dropped too
    assert _merge_both([(words[0], QI(0)), (words[1], QI(1))], True) == {words[1]: QI(1)}


def test_approximate_sums_at_the_threshold():
    w, v, u = W.gen(2, 1), W.gen(2, 2), W.gen(2, 1, 2)
    nan = float("nan")
    pairs = [
        (w, complex(DEFAULT_TOL)),
        (v, complex(DEFAULT_TOL)),
        (v, complex(DEFAULT_TOL)),
        (u, complex(nan, 0)),
    ]
    assert _merge_both(pairs, False) == {v: complex(2 * DEFAULT_TOL)}
    assert AlgebraElement(2, {w: 1j * DEFAULT_TOL, v: 2 * DEFAULT_TOL}, exact=False).terms == {
        v: complex(2 * DEFAULT_TOL)
    }
    assert AlgebraElement(2, {w: complex(nan, 1.0)}, exact=False).is_zero


def test_mostly_cancelled_sums_are_stored_compactly():
    import sys

    n = 30_000
    ws = [W.gen(n, g) for g in range(1, n + 1)]
    x = AlgebraElement._wrap(W.Rank(n), {w: QI(g) for g, w in enumerate(ws, 1)}, True)
    assert sys.getsizeof((x + (-x)).terms) == sys.getsizeof({})
    # ten survivors of 30,000 labels take the room of ten
    y = AlgebraElement._wrap(x.ambient, {w: QI(-g) for g, w in enumerate(ws[10:], 11)}, True)
    left = (x + y).terms
    assert list(left) == ws[:10]
    assert sys.getsizeof(left) == sys.getsizeof(dict(left))
    assert sys.getsizeof(left) < sys.getsizeof(x.terms) // 100


# -- the collector pause ------------------------------------------------------------
#
# ``_merge`` runs with the cyclic collector paused and leaves it as it found
# it.  Each test restores the collector in its own ``finally``, so a failure
# here cannot leave it off for the rest of the session.


def test_merge_leaves_an_enabled_collector_enabled():
    import gc

    import freebialg.algebra as A

    enabled = gc.isenabled()
    gc.enable()
    try:
        w = W.gen(2, 1)
        assert A._merge(iter([(w, QI(1)), (w, QI(2))]), True) == {w: QI(3)}
        assert gc.isenabled()
        assert AlgebraElement(2, {w: 1}) * AlgebraElement(2, {w: 1}) == AlgebraElement(
            2, {W.gen(2, 1, 2): 1}
        )
        assert gc.isenabled()
    finally:
        (gc.enable if enabled else gc.disable)()


def test_merge_reenables_the_collector_when_the_stream_raises():
    import gc

    enabled = gc.isenabled()
    gc.enable()
    try:
        # the first label is good; the second is of the wrong rank
        with pytest.raises(ValueError, match="does not live in F2"):
            AlgebraElement(2, {W.gen(2, 1): 1, W.gen(3, 1): 1})
        assert gc.isenabled()
        with pytest.raises(ValueError, match="does not live in F2"):
            AlgebraElement(2, {W.gen(3, 1): 1})
        assert gc.isenabled()
    finally:
        (gc.enable if enabled else gc.disable)()


def test_merge_leaves_a_disabled_collector_disabled():
    import gc

    import freebialg.algebra as A

    enabled = gc.isenabled()
    gc.disable()
    try:
        w = W.gen(2, 1)
        assert A._merge(iter([(w, QI(1))]), True) == {w: QI(1)}
        assert not gc.isenabled()
        with pytest.raises(ValueError):
            AlgebraElement(2, {W.gen(3, 1): 1})
        assert not gc.isenabled()
    finally:
        (gc.enable if enabled else gc.disable)()


def test_a_nested_merge_leaves_the_collector_to_the_outermost():
    import gc

    import freebialg.algebra as A

    seen = []
    w, v = W.gen(2, 1), W.gen(2, 2)

    def stream():
        seen.append(gc.isenabled())
        inner = A._merge(iter([(v, QI(1)), (v, QI(1))]), True)
        seen.append(gc.isenabled())
        yield w, QI(1)
        yield from inner.items()

    enabled = gc.isenabled()
    gc.enable()
    try:
        assert A._merge(stream(), True) == {w: QI(1), v: QI(2)}
        assert seen == [False, False]
        assert gc.isenabled()
    finally:
        (gc.enable if enabled else gc.disable)()


def test_the_engine_makes_no_reference_cycles():
    """The pause is sound only while no operation leaves cyclic garbage:
    run each kind of operation with the collector off and count what a
    full collection then finds."""
    import gc

    from freebialg import cli
    from freebialg.bialgebra import DirectSumElement, coassoc_check
    from freebialg.text import parse_element

    # warm the caches a first call fills: the parser, the check registry
    cli.run(["delta", "F2: g1"])
    cli.run(["verify", "words"])
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        x = el("F2: 1/2*g1*g2^-1 + (1-2i)*g2^3 - 1")
        y = el("F2: g1^2 + 2/3*g2*g1 + (0+1i)*g2^-1")
        z = el("F6: g6*g1^-2 - 1/5*g4")
        results = [
            x * y,
            (x * y) * x,
            x.star(),
            varphi_alg(2, 1, x),
            delta_phi(DirectSumElement({2: x, 6: z})),
            coassoc_check(DirectSumElement({2: y, 6: z})),
            parse_element("F6: (1/2-3i)*g1*g5^-2 + 2*g6 - 1"),
            cli.run(["delta", "F6: g2*g3^-1 + 1/2*g1"]),
            cli.run(["verify", "words"]),
        ]
        del results, x, y, z
        assert gc.collect() == 0
    finally:
        (gc.enable if enabled else gc.disable)()
