"""The graded direct-sum algebra over all finite ranks, its comultiplication
and counit, the unitization, the coaction on the infinite-rank algebra, and
executable checkers for the coalgebra axioms.

An element of the direct sum is a finite family of single-rank algebra
elements.  The comultiplication sends the rank-``n`` summand to the sum of
its images under ``varphi_alg(m, l, .)`` over all ordered factorizations
``n = m * l``; the counit is the coefficient sum on rank 1 and zero on all
higher ranks.
"""

from __future__ import annotations

from .algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    TensorElement,
    TripleTensorElement,
    apply_tensor_right,
    tensor,
    varphi_alg,
    varphi_inf_alg,
)
from .scalars import ONE, QI, ZERO
from .words import ReducedWord, _rank, phi, phi_inf

__all__ = [
    "factor_pairs",
    "DirectSumElement",
    "DirectSumTensor",
    "DirectSumTriple",
    "UnitizedElement",
    "delta_phi",
    "counit",
    "coassoc_check",
    "counit_check",
    "wcs_check",
    "counit_axiom_check",
    "unitized_delta",
    "unitized_counit",
    "unitized_tensor_mul",
    "verify_cancellation",
    "coaction",
    "comodule_check",
]


def factor_pairs(n: int) -> list[tuple[int, int]]:
    """Ordered factorizations ``n = m * l`` as pairs ``(m, l)``, ``m`` ascending."""
    if n < 1:
        raise ValueError("rank must be positive")
    return [(m, n // m) for m in range(1, n + 1) if n % m == 0]


class _Graded:
    """Finite family of linear elements indexed by their ranks: an integer
    for single-rank elements, a tuple of integers for tensors.
    Subclasses name the component class in ``_component``."""

    __slots__ = ("components", "exact", "tol")
    _component: type

    def __init__(self, components=(), exact: bool | None = None, tol: float = DEFAULT_TOL):
        comps = {}
        items = components.items() if hasattr(components, "items") else components
        for key, el in items:
            key = self._check_key(key, el)
            if el.is_zero:
                continue
            if key in comps:
                el = comps[key] + el
                if el.is_zero:
                    del comps[key]
                    continue
            comps[key] = el
        modes = {el.exact for el in comps.values()}
        if len(modes) > 1:
            raise ValueError("components mix exact and approximate scalars")
        if exact is None:
            exact = modes.pop() if modes else True
        elif modes and modes != {exact}:
            raise ValueError("declared scalar mode contradicts the components")
        self.components = comps
        self.exact = exact
        self.tol = tol

    def _check_key(self, key, el):
        if not isinstance(el, self._component):
            raise TypeError(f"components must be {self._component.__name__}")
        space = el.space
        if type(space) is tuple:
            grade = tuple([r.n for r in space])
            finite = None not in grade
        else:
            grade = space.n
            finite = grade is not None
        if not finite:
            raise ValueError("direct-sum components must have finite rank")
        if key != grade:
            raise ValueError(f"component key {key} does not match {space}")
        return grade

    def _make(self, components):
        return type(self)(components, self.exact, self.tol)

    @classmethod
    def zero(cls, exact: bool = True):
        return cls((), exact)

    def component(self, *key):
        """The component of the given ranks, zero when absent."""
        key = key[0] if len(key) == 1 else key
        got = self.components.get(key)
        if got is None:
            return self._component.zero(key, self.exact, self.tol)
        return got

    def keys(self):
        return sorted(self.components.keys())

    def items(self):
        return self.components.items()

    @property
    def is_zero(self) -> bool:
        return not self.components

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.exact != other.exact:
            raise ValueError("cannot mix exact and approximate elements")
        return self._make([*self.components.items(), *other.components.items()])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._make([(k, -el) for k, el in self.components.items()])

    def scale(self, c):
        return self._make([(k, el.scale(c)) for k, el in self.components.items()])

    def __mul__(self, other):
        """Componentwise product; products across distinct ranks vanish in a
        direct sum.  Any other factor is a scalar."""
        if type(other) is not type(self):
            return self.scale(other)
        if self.exact != other.exact:
            raise ValueError("cannot mix exact and approximate elements")
        mine, theirs = self.components, other.components
        return self._make([(k, mine[k] * theirs[k]) for k in mine.keys() & theirs.keys()])

    def __rmul__(self, other):
        return self.scale(other)

    def star(self):
        return self._make([(k, el.star()) for k, el in self.components.items()])

    def to_approx(self, tol: float = DEFAULT_TOL):
        if not self.exact:
            return self
        return type(self)(
            [(k, el.to_approx(tol)) for k, el in self.components.items()], False, tol
        )

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.exact != other.exact:
            return False
        if self.exact:
            return self.components == other.components
        return self.allclose(other, max(self.tol, other.tol))

    __hash__ = None

    def allclose(self, other, tol: float) -> bool:
        for k in self.components.keys() | other.components.keys():
            a, b = self.components.get(k), other.components.get(k)
            if a is None:
                a, b = b, a
            if b is None:
                b = a._make(())
            if not a.allclose(b, tol):
                return False
        return True

    def __str__(self):
        if not self.components:
            return "0"
        return " (+) ".join(str(self.components[k]) for k in self.keys())

    def to_json(self) -> dict:
        out = {}
        for k in self.keys():
            name = ",".join(map(str, k)) if type(k) is tuple else str(k)
            out[name] = self.components[k].to_json()
        return {"components": out}


class DirectSumElement(_Graded):
    """A finitely supported family ``{n: element of rank n}``; the dense
    graded model of the direct-sum algebra."""

    _component = AlgebraElement

    @classmethod
    def from_algebra(cls, a: AlgebraElement) -> "DirectSumElement":
        if a.ambient.is_infinite:
            raise ValueError("direct-sum components must have finite rank")
        return cls({a.ambient.n: a})

    @classmethod
    def from_word(cls, w: ReducedWord, coeff=ONE) -> "DirectSumElement":
        return cls.from_algebra(AlgebraElement.from_word(w, coeff))

    @classmethod
    def from_json(cls, data: dict) -> "DirectSumElement":
        comps = {
            int(n): AlgebraElement.from_json(sub)
            for n, sub in data["components"].items()
        }
        return cls(comps)


class DirectSumTensor(_Graded):
    """A finitely supported family ``{(n, m): tensor element}``; the graded
    model of the tensor square of the direct sum."""

    _component = TensorElement

    def flip(self) -> "DirectSumTensor":
        """Swap the two tensor slots across every component."""
        return DirectSumTensor(
            {(m, n): el.flip() for (n, m), el in self.components.items()},
            self.exact,
            self.tol,
        )

    def term_count(self) -> int:
        return sum(len(el) for el in self.components.values())


class DirectSumTriple(_Graded):
    """Rank-graded three-fold tensors; the comparison space for the
    coassociativity checker."""

    _component = TripleTensorElement


def delta_phi(x: DirectSumElement) -> DirectSumTensor:
    """The comultiplication: each rank-``n`` component maps to the sum of its
    splittings over all ordered factorizations ``n = m * l``.

    The sum is finite because ``n`` has finitely many divisors.
    """
    parts = []
    for n, a in x.components.items():
        for m, l in factor_pairs(n):
            parts.append(((m, l), varphi_alg(m, l, a)))
    return DirectSumTensor(parts, x.exact, x.tol)


def counit(x: DirectSumElement):
    """Coefficient sum of the rank-1 component; zero on every higher rank."""
    total = ZERO if x.exact else 0j
    for _, c in x.component(1).terms.items():
        total = total + c
    return total


def _delta_slot(t: DirectSumTensor, slot: int) -> DirectSumTriple:
    """Apply the comultiplication inside one slot of a graded tensor."""
    parts = []
    for (n, m), el in t.components.items():
        rank = n if slot == 0 else m
        for p, q in factor_pairs(rank):
            pairs = []
            for (w1, w2), c in el.terms.items():
                u, v = phi(p, q, w1 if slot == 0 else w2)
                pairs.append(((u, v, w2) if slot == 0 else (w1, u, v), c))
            split = (_rank(p), _rank(q))
            if slot == 0:
                key, ranks = (p, q, m), split + el.ambients[1:]
            else:
                key, ranks = (n, p, q), el.ambients[:1] + split
            triple = TripleTensorElement(ranks, pairs, t.exact, t.tol, _trusted=True)
            parts.append((key, triple))
    return DirectSumTriple(parts, t.exact, t.tol)


def coassoc_check(x: DirectSumElement) -> tuple[DirectSumTriple, DirectSumTriple, bool]:
    """Evaluate both iterated coproducts of ``x`` and report equality.

    Returns the two sides so a caller can diff them on failure.
    """
    t = delta_phi(x)
    lhs = _delta_slot(t, 0)
    rhs = _delta_slot(t, 1)
    return lhs, rhs, lhs == rhs


def _eps_collapse(el: TensorElement, slot: int) -> AlgebraElement:
    """Collapse a rank-1 tensor slot by the coefficient-sum functional."""
    if el.ambients[slot].n != 1:
        raise ValueError("can only collapse a rank-1 slot")
    keep = 1 - slot
    pairs = [(pair[keep], c) for pair, c in el.terms.items()]
    return AlgebraElement(el.ambients[keep], pairs, el.exact, el.tol, _trusted=True)


def counit_check(x: DirectSumElement) -> bool:
    """Check that collapsing either slot of the coproduct returns ``x``."""
    t = delta_phi(x)
    left_parts = []
    right_parts = []
    for (n, m), el in t.components.items():
        if n == 1:
            a = _eps_collapse(el, 0)
            left_parts.append((m, a))
        if m == 1:
            a = _eps_collapse(el, 1)
            right_parts.append((n, a))
    left = DirectSumElement(left_parts, x.exact, x.tol)
    right = DirectSumElement(right_parts, x.exact, x.tol)
    return left == x and right == x


def wcs_check(n: int, m: int, l: int, z: ReducedWord) -> bool:
    """Mixed coassociativity on a single rank-``n*m*l`` word: splitting off
    the left factor first or the right factor first gives the same triple."""
    u, v = phi(n, m * l, z)
    v1, v2 = phi(m, l, v)
    s, t = phi(n * m, l, z)
    s1, s2 = phi(n, m, s)
    return (u, v1, v2) == (s1, s2, t)


def counit_axiom_check(n: int, z: ReducedWord) -> bool:
    """Check both unit laws of the splitting system on one rank-``n`` word:
    collapsing the rank-1 slot of either trivial splitting returns the word."""
    a = AlgebraElement.from_word(z)
    left = _eps_collapse(varphi_alg(1, n, a), 0)
    right = _eps_collapse(varphi_alg(n, 1, a), 1)
    return left == a and right == a


class UnitizedElement:
    """An element ``a + c*1`` of the smallest unitization: a direct-sum body
    plus a scalar multiple of the adjoined unit."""

    __slots__ = ("body", "unit_coeff")

    def __init__(self, body: DirectSumElement, unit_coeff=0):
        if not body.exact:
            raise ValueError("the unitization is modeled with exact scalars")
        if not isinstance(unit_coeff, QI):
            unit_coeff = QI(unit_coeff)
        self.body = body
        self.unit_coeff = unit_coeff

    @classmethod
    def adjoined_unit(cls) -> "UnitizedElement":
        return cls(DirectSumElement.zero(), ONE)

    def __add__(self, other: "UnitizedElement") -> "UnitizedElement":
        return UnitizedElement(self.body + other.body, self.unit_coeff + other.unit_coeff)

    def __mul__(self, other: "UnitizedElement") -> "UnitizedElement":
        # (a + c)(b + d) = ab + c b + d a + c d, the adjoined unit acting as identity
        body = (
            self.body * other.body
            + other.body.scale(self.unit_coeff)
            + self.body.scale(other.unit_coeff)
        )
        return UnitizedElement(body, self.unit_coeff * other.unit_coeff)

    def __eq__(self, other):
        if not isinstance(other, UnitizedElement):
            return NotImplemented
        return self.body == other.body and self.unit_coeff == other.unit_coeff

    __hash__ = None

    def __str__(self):
        return f"{self.body} + {self.unit_coeff}*~1"


def unitized_delta(x: UnitizedElement) -> tuple[DirectSumTensor, QI]:
    """Coproduct on the unitization: the body maps as usual and the adjoined
    unit is group-like; its coefficient is carried separately."""
    return delta_phi(x.body), x.unit_coeff


def unitized_counit(x: UnitizedElement) -> QI:
    return counit(x.body) + x.unit_coeff


def unitized_tensor_mul(
    p1: tuple[DirectSumTensor, QI], p2: tuple[DirectSumTensor, QI]
) -> tuple[DirectSumTensor, QI]:
    """Multiply two unitized-coproduct values ``T + c*(1 (x) 1)``."""
    t1, c1 = p1
    t2, c2 = p2
    return t1 * t2 + t1.scale(c2) + t2.scale(c1), c1 * c2


def verify_cancellation(x: ReducedWord, y: ReducedWord) -> bool:
    """Reproduce the elementary tensor ``x (x) y`` exactly in both one-sided
    factorized forms supplied by the word-level witnesses."""
    from .words import cancellation_witness_left, cancellation_witness_right

    n, m = x.ambient.n, y.ambient.n
    target = tensor(AlgebraElement.from_word(x), AlgebraElement.from_word(y))
    xp, z = cancellation_witness_left(x, y)
    lhs = apply_tensor_right(
        varphi_alg(n, m, AlgebraElement.from_word(z)),
        AlgebraElement.from_word(xp),
        "left",
    )
    yp, z2 = cancellation_witness_right(x, y)
    rhs = apply_tensor_right(
        varphi_alg(n, m, AlgebraElement.from_word(z2)),
        AlgebraElement.from_word(yp),
        "right",
    )
    return lhs == target and rhs == target


def coaction(x: AlgebraElement, N: int) -> dict[int, TensorElement]:
    """The first ``N`` components of the coaction on the infinite-rank
    algebra: ``{n: varphi_inf_alg(n, x)}`` for ``1 <= n <= N``."""
    if N < 1:
        raise ValueError("truncation bound must be at least 1")
    return {n: varphi_inf_alg(n, x) for n in range(1, N + 1)}


def comodule_check(n: int, m: int, x: ReducedWord) -> bool:
    """Comodule coassociativity on one infinite-rank word: splitting off a
    rank-``m`` factor then a rank-``n`` factor agrees with splitting off a
    rank-``n*m`` factor and splitting that."""
    u, v = phi_inf(m, x)
    u1, u2 = phi_inf(n, u)
    s, t = phi_inf(n * m, x)
    t1, t2 = phi(n, m, t)
    return (u1, u2, v) == (s, t1, t2)
