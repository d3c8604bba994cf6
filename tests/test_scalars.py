"""Scalar tests: `QI` against two independent models of Q(i).

The first model is a plain ``(Fraction, Fraction)`` pair with the textbook
formulas; the second is sympy's exact arithmetic (``Rational``, ``I``,
``expand``).  Every result is also checked for the canonical stored form:
``(a + b*i) / d`` with ``d > 0`` and ``gcd(a, b, d) == 1``.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from freebialg.corpus import random_exact_scalar
from freebialg.scalars import I, ONE, QI, ZERO, _times_row

# -- strategies and the pair model ----------------------------------------------

small = st.fractions(min_value=-20, max_value=20, max_denominator=12)
large = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**12))
parts = st.one_of(small, small, large, st.integers(-50, 50))
pairs = st.tuples(parts, parts).map(lambda p: (Fraction(p[0]), Fraction(p[1])))
UNITS = [(1, 0), (-1, 0), (0, 1), (0, -1), ("3/5", "4/5"), ("-5/13", "12/13")]
units = st.sampled_from(UNITS).map(lambda p: (Fraction(p[0]), Fraction(p[1])))


def mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def power(x, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        out = mul(out, x if k > 0 else (x[0], -x[1]))
    return out


def pair_str(x):
    re, im = x
    if not im:
        return str(re)
    sign = "+" if im >= 0 else "-"
    return f"({re}{sign}{abs(im)}i)"


def pair_hash(x):
    return hash(x[0]) if not x[1] else hash(x)


def canonical(q: QI) -> QI:
    """Assert the stored triple is canonical and agrees with ``re``/``im``."""
    a, b, d = q._a, q._b, q._d
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and gcd(a, b, d) == 1
    assert type(q.re) is Fraction and type(q.im) is Fraction
    assert (q.re, q.im) == (Fraction(a, d), Fraction(b, d))
    return q


def parts_of(q: QI):
    return (canonical(q).re, q.im)


def sym(x):
    return sympy.Rational(x[0].numerator, x[0].denominator) + sympy.I * sympy.Rational(
        x[1].numerator, x[1].denominator
    )


# -- differential tests -----------------------------------------------------------


@given(pairs, pairs)
def test_ring_operations_match_the_pair_model(x, y):
    qx, qy = QI(*x), QI(*y)
    assert parts_of(qx) == x
    assert parts_of(qx + qy) == (x[0] + y[0], x[1] + y[1])
    assert parts_of(qx - qy) == (x[0] - y[0], x[1] - y[1])
    assert parts_of(qx * qy) == mul(x, y)
    assert parts_of(-qx) == (-x[0], -x[1])
    assert parts_of(qx.conjugate()) == (x[0], -x[1])
    assert (qx == qy) == (x == y)
    assert qx == QI(*x) and not (qx != QI(*x))
    assert (qx == qx * 2) == (not qx)


@given(pairs, st.one_of(st.integers(-50, 50), small))
def test_mixed_operands_match_the_pair_model(x, r):
    qx, r = QI(*x), Fraction(r)
    assert parts_of(qx + r) == parts_of(r + qx) == (x[0] + r, x[1])
    assert parts_of(qx - r) == (x[0] - r, x[1])
    assert parts_of(r - qx) == (r - x[0], -x[1])
    assert parts_of(qx * r) == parts_of(r * qx) == (x[0] * r, x[1] * r)
    assert (qx == r) == (x == (r, 0))
    assert (QI(r) == r) and hash(QI(r)) == hash(r)


@given(pairs, st.integers(0, 6))
def test_powers_match_the_pair_model(x, k):
    assert parts_of(QI(*x) ** k) == power(x, k)


@given(units, st.integers(-6, 6))
def test_unit_powers_match_the_pair_model(x, k):
    assert parts_of(QI(*x) ** k) == power(x, k)


@given(pairs)
def test_observers_match_the_pair_model(x):
    q = QI(*x)
    assert bool(q) == (x != (0, 0))
    assert hash(q) == pair_hash(x)
    assert str(q) == pair_str(x)
    assert repr(q) == f"QI({x[0]}, {x[1]})"
    assert q.to_json() == {"re": str(x[0]), "im": str(x[1])}
    assert QI.from_json(q.to_json()) == q
    assert complex(q) == complex(float(x[0]), float(x[1]))
    assert QI(str(x[0]), str(x[1])) == q


@settings(max_examples=60, deadline=None)
@given(pairs, pairs, st.integers(0, 4))
def test_ring_operations_match_sympy(x, y, k):
    qx, qy = QI(*x), QI(*y)
    sx, sy = sym(x), sym(y)
    assert sym(parts_of(qx + qy)) == sympy.expand(sx + sy)
    assert sym(parts_of(qx - qy)) == sympy.expand(sx - sy)
    assert sym(parts_of(qx * qy)) == sympy.expand(sx * sy)
    assert sym(parts_of(qx.conjugate())) == sympy.conjugate(sx)
    assert sym(parts_of(qx**k)) == sympy.expand(sx**k)


# -- canonical form ---------------------------------------------------------------


def test_canonical_form_examples():
    q = QI(Fraction(2, 4), Fraction(-1, 6))
    assert (q._a, q._b, q._d) == (3, -1, 6)
    half = QI(Fraction(1, 2))
    assert (half + half)._d == 1 and half + half == ONE
    for zero in (ZERO, QI(), half - half, QI(Fraction(1, 3), 2) * ZERO, I + QI(0, -1)):
        assert (zero._a, zero._b, zero._d) == (0, 0, 1)
    assert canonical(QI(1, 2) * I) == QI(-2, 1)
    assert half != ONE and QI(Fraction(1, 3), Fraction(2, 3)) != QI(1, 2)


@given(pairs, st.lists(pairs, max_size=6))
def test_times_row_matches_the_product(x, row):
    c, qs = QI(*x), [QI(*y) for y in row]
    got = _times_row(c, qs)
    # QI equality compares the stored triples
    assert got == [c * q for q in qs]
    for q in got:
        canonical(q)


def test_random_exact_scalar_matches_the_fraction_construction():
    """The corpus builds ``a/d + (b/e)i`` from its four draws with one gcd;
    the value, the stored triple and the generator's state afterwards are
    those of the ``Fraction`` construction it replaced."""

    def by_fractions(rng):
        while True:
            re = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            im = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            if re or im:
                return QI(re, im)

    rng, old = random.Random(20_000), random.Random(20_000)
    for _ in range(20_000):
        got, want = random_exact_scalar(rng), by_fractions(old)
        assert got == want and (got._a, got._b, got._d) == (want._a, want._b, want._d)
    assert rng.getstate() == old.getstate()


@given(st.one_of(st.integers(-(10**20), 10**20), small, large))
def test_real_scalars_hash_as_their_fraction(r):
    assert hash(QI(r)) == hash(Fraction(r))
    assert QI(r) == r and QI(r) == Fraction(r)


# -- behaviour that stays ---------------------------------------------------------


def test_floats_are_rejected():
    for args in ((0.5,), (1, 0.5), (1.0, 0), (None,), (1j,)):
        with pytest.raises(TypeError, match="exact scalar parts must be int, Fraction or str"):
            QI(*args)
    with pytest.raises(TypeError):
        QI(1) + 0.5
    with pytest.raises(TypeError):
        QI(1) * 0.5
    assert (QI(1) == 1.0) is False


def test_operands_that_are_not_scalars_are_refused():
    def names(a, b):
        return f"'{type(a).__name__}' and '{type(b).__name__}'$"

    other = object()
    for symbol, call, a, b in (
        ("-", lambda: QI(1) - other, QI(1), other),
        ("-", lambda: other - QI(1), other, QI(1)),
        (r"\*\* or pow\(\)", lambda: QI(1) ** 1.5, QI(1), 1.5),
    ):
        with pytest.raises(TypeError, match=f"^unsupported operand type\\(s\\) for {symbol}: {names(a, b)}"):
            call()


def test_values_are_immutable():
    q = QI(Fraction(1, 2), 3)
    for name in ("re", "im", "_a", "_d", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(q, name, 1)
    assert q == QI(Fraction(1, 2), 3)


def test_negative_powers_need_unit_modulus():
    with pytest.raises(ValueError, match="unit modulus"):
        QI(2) ** -1
    with pytest.raises(ValueError, match="unit modulus"):
        QI(1, 1) ** -2
    assert QI(Fraction(3, 5), Fraction(4, 5)) ** -1 == QI(Fraction(3, 5), Fraction(-4, 5))
    assert I**-1 == -I and QI(5) ** 0 == ONE
