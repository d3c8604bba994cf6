"""Exact Gaussian-rational scalars.

All identity checking in this package runs over Q(i), so equality of
algebra elements is decidable and exact.  A scalar ``(a + b*i) / d`` is
stored as three Python ints in canonical form: ``d > 0`` and
``gcd(a, b, d) == 1``, with zero stored as ``(0, 0, 1)``.  Each ring
operation computes integer numerators and divides by one gcd; the real and
imaginary parts are handed out as `fractions.Fraction`s.  Floating point
enters only through the explicitly approximate element mode and the
spectral routines.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = ["QI", "ZERO", "ONE", "I"]


def _ratio(v) -> tuple[int, int]:
    if isinstance(v, (int, Fraction)):
        return v.as_integer_ratio()
    if isinstance(v, str):
        return Fraction(v).as_integer_ratio()
    raise TypeError(
        f"exact scalar parts must be int, Fraction or str, got {type(v).__name__}"
    )


def _part(n: int, d: int) -> str:
    """``str(Fraction(n, d))``, without building the Fraction."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


class QI:
    """A complex number with rational real and imaginary parts.

    Instances are immutable, hashable, and support the ring operations plus
    conjugation and integer powers.  Floats are rejected on construction:
    converting an exact value to floating point is always explicit
    (``complex(q)``).

    >>> QI(Fraction(2, 4), Fraction(-1, 6))
    QI(1/2, -1/6)
    >>> QI(1, 2) * QI(0, 1)
    QI(-2, 1)
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            a, d = _ratio(re)
            b, e = _ratio(im)
            if d != e:
                # over the lcm of the two denominators the triple is canonical
                m = lcm(d, e)
                a, b, d = a * (m // d), b * (m // e), m
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    @staticmethod
    def _new(a: int, b: int, d: int) -> "QI":
        """``(a + b*i) / d`` from ints with ``d > 0``, reduced by one gcd;
        no type check."""
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
        q = _object_new(QI)
        _set_a(q, a)
        _set_b(q, b)
        _set_d(q, d)
        return q

    def __setattr__(self, name, value):
        raise AttributeError("QI values are immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def _coerce(other):
        if isinstance(other, QI):
            return other
        if isinstance(other, (int, Fraction)):
            a, d = other.as_integer_ratio()
            return _new(a, 0, d)
        return None

    def __add__(self, other):
        if type(other) is not QI:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _new(self._a + other._a, self._b + other._b, d)
        return _new(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not QI:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _difference(self, other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _difference(other, self)

    def __mul__(self, other):
        if type(other) is not QI:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return _new(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __neg__(self):
        return _new(-self._a, -self._b, self._d)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            # inverse of a unit-modulus scalar is its conjugate
            if self._a * self._a + self._b * self._b != self._d * self._d:
                raise ValueError("negative powers require unit modulus")
            return self.conjugate() ** (-k)
        out, base = ONE, self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "QI":
        return _new(self._a, -self._b, self._d)

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        if type(other) is not QI:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        if not self._b:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self):
        # int / int is correctly rounded, as float(Fraction) is
        return complex(self._a / self._d, self._b / self._d)

    def __str__(self):
        a, b, d = self._a, self._b, self._d
        if not b:
            return _part(a, d)
        sign = "+" if b >= 0 else "-"
        return f"({_part(a, d)}{sign}{_part(abs(b), d)}i)"

    def __repr__(self):
        return f"QI({_part(self._a, self._d)}, {_part(self._b, self._d)})"

    def to_json(self) -> dict:
        return {"re": _part(self._a, self._d), "im": _part(self._b, self._d)}

    @classmethod
    def from_json(cls, data: dict) -> "QI":
        return cls(Fraction(data["re"]), Fraction(data["im"]))


def _times_row(c: QI, row) -> list:
    """``[c * x for x in row]`` for a row of ``QI``, in one frame."""
    a, b, d = c._a, c._b, c._d
    return [_new(a * x._a - b * x._b, a * x._b + b * x._a, d * x._d) for x in row]


def _difference(x: QI, y: QI) -> QI:
    d, e = x._d, y._d
    if d == e:
        return _new(x._a - y._a, x._b - y._b, d)
    return _new(x._a * e - y._a * d, x._b * e - y._b * d, d * e)


_object_new = object.__new__
_set_a, _set_b, _set_d = QI._a.__set__, QI._b.__set__, QI._d.__set__
_new = QI._new

ZERO = QI(0)
ONE = QI(1)
I = QI(0, 1)
