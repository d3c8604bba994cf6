"""The graded direct-sum algebra over all finite ranks, its comultiplication
and counit, the unitization, the coaction on the infinite-rank algebra, and
executable checkers for the coalgebra axioms.

An element of the direct sum is one finite linear combination of words of
any finite ranks; ``components`` groups its terms by rank into single-rank
algebra elements.  The comultiplication sends a rank-``n`` word ``w`` to the
sum of ``phi(m, l, w)`` over all ordered factorizations ``n = m * l``; the
counit is the coefficient sum of the rank-1 words, zero on all higher ranks.
"""

from __future__ import annotations

from .algebra import (
    AlgebraElement,
    TensorElement,
    TripleTensorElement,
    apply_tensor_right,
    tensor,
    varphi_alg,
    varphi_inf_alg,
    _Linear,
)
from .scalars import ONE, QI, ZERO
from .words import ReducedWord, _rank, multiply, phi, phi_inf

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


def _grade(label):
    """The rank of a word, or the tuple of ranks of a word tuple."""
    return tuple([w.ambient.n for w in label]) if type(label) is tuple else label.ambient.n


def _multiply_labels(k1, k2):
    return tuple(map(multiply, k1, k2)) if type(k1) is tuple else multiply(k1, k2)


class _DirectSum(_Linear):
    """A linear combination of words (or word tuples) of any finite ranks in
    one term dict.  The space ``_space`` is ``None`` ("any finite rank") or
    one ``None`` per tensor slot.  The public constructor takes components
    ``key -> element of class _component`` keyed by rank (a tuple of ranks
    for tensors); operations build results with the trusted ``_new``."""

    __slots__ = ()
    _space = None
    _component: type

    def __init__(self, components=(), exact: bool | None = None):
        pairs = []
        modes = set()
        items = components.items() if hasattr(components, "items") else components
        for key, el in items:
            if not isinstance(el, self._component):
                raise TypeError(f"components must be {self._component.__name__}")
            space = el.space
            if any(r.is_infinite for r in (space if type(space) is tuple else (space,))):
                raise ValueError("direct-sum components must have finite rank")
            if key != (tuple([r.n for r in space]) if type(space) is tuple else space.n):
                raise ValueError(f"component key {key} does not match {space}")
            if el.terms:
                modes.add(el.exact)
                pairs.extend(el.terms.items())
        if len(modes) > 1:
            raise ValueError("components mix exact and approximate scalars")
        if exact is None:
            exact = modes.pop() if modes else True
        elif modes and modes != {exact}:
            raise ValueError("declared scalar mode contradicts the components")
        super().__init__(self._space, pairs, exact, _trusted=True)

    def _check_label(self, label):
        tensor = type(self._space) is tuple
        words = tuple(label) if tensor else (label,)
        if len(words) != (len(self._space) if tensor else 1) or not all(
            isinstance(w, ReducedWord) and not w.ambient.is_infinite for w in words
        ):
            raise ValueError(f"term {label!r} is not a finite-rank label of {type(self).__name__}")
        return words if tensor else label

    @classmethod
    def _new(cls, pairs, exact: bool):
        """Trusted constructor from ``(label, coefficient)`` pairs that library
        operations built from checked elements."""
        self = object.__new__(cls)
        _Linear.__init__(self, cls._space, pairs, exact, _trusted=True)
        return self

    def _make(self, pairs, exact: bool | None = None):
        return self._new(pairs, self.exact if exact is None else exact)

    @classmethod
    def zero(cls, exact: bool = True):
        return cls._new((), exact)

    @property
    def components(self) -> dict:
        """The terms grouped by rank, ``{key: single-rank element}``; a new
        dict on each access."""
        groups: dict = {}
        for label, c in self.terms.items():
            groups.setdefault(_grade(label), []).append((label, c))
        return {
            key: self._component(
                tuple(map(_rank, key)) if type(key) is tuple else _rank(key),
                pairs, self.exact, _trusted=True,
            )
            for key, pairs in groups.items()
        }

    def component(self, *key):
        """The component of the given ranks, zero when absent."""
        key = key[0] if len(key) == 1 else key
        got = self.components.get(key)
        return self._component.zero(key, self.exact) if got is None else got

    def keys(self):
        return sorted({_grade(label) for label in self.terms})

    def __mul__(self, other):
        """Product within each rank; products across distinct ranks vanish in
        a direct sum.  Any other factor is a scalar."""
        if not isinstance(other, _Linear):
            return self.scale(other)
        self._require_compatible(other)
        by_grade: dict = {}
        for k2, c2 in other.terms.items():
            by_grade.setdefault(_grade(k2), []).append((k2, c2))
        return self._make([
            (_multiply_labels(k1, k2), c1 * c2)
            for k1, c1 in self.terms.items()
            for k2, c2 in by_grade.get(_grade(k1), ())
        ])

    def __str__(self):
        comps = self.components
        return " (+) ".join(str(comps[k]) for k in sorted(comps)) or "0"

    def to_json(self) -> dict:
        comps = self.components
        name = lambda k: ",".join(map(str, k)) if type(k) is tuple else str(k)
        return {"components": {name(k): comps[k].to_json() for k in sorted(comps)}}


class DirectSumElement(_DirectSum):
    """A finitely supported combination of words of any finite ranks; built
    from components ``{n: element of rank n}``."""

    __slots__ = ()
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
        comps = data["components"]
        return cls({int(n): AlgebraElement.from_json(sub) for n, sub in comps.items()})


class DirectSumTensor(_DirectSum):
    """A finitely supported combination of word pairs of any finite ranks:
    the tensor square of the direct sum, built from components
    ``{(n, m): tensor element}``."""

    __slots__ = ()
    _space = (None, None)
    _component = TensorElement

    def flip(self) -> "DirectSumTensor":
        """Swap the two tensor slots of every term."""
        terms = {(w2, w1): c for (w1, w2), c in self.terms.items()}
        return self._wrap(self.space, terms, self.exact)

    def term_count(self) -> int:
        return len(self.terms)


class DirectSumTriple(_DirectSum):
    """Word triples of any finite ranks; the comparison space for the
    coassociativity checker."""

    __slots__ = ()
    _space = (None, None, None)
    _component = TripleTensorElement


def delta_phi(x: DirectSumElement) -> DirectSumTensor:
    """The comultiplication: each rank-``n`` word maps to the sum of its
    splittings over all ordered factorizations ``n = m * l``.

    The sum is finite because ``n`` has finitely many divisors.

    >>> from freebialg.words import gen
    >>> print(delta_phi(DirectSumElement.from_word(gen(6, 2))))
    F1(x)F6: g1(x)g2 (+) F2(x)F3: g1(x)g2 (+) F3(x)F2: g1(x)g2 (+) F6(x)F1: g2(x)g1
    """
    pairs = []
    for w, c in x.terms.items():
        for m, l in factor_pairs(w.ambient.n):
            pairs.append((tuple(phi(m, l, w)), c))
    return DirectSumTensor._new(pairs, x.exact)


def counit(x: DirectSumElement):
    """Coefficient sum of the rank-1 words; zero on every higher rank."""
    total = ZERO if x.exact else 0j
    for w, c in x.terms.items():
        if w.ambient.n == 1:
            total = total + c
    return total


def _delta_slot(t: DirectSumTensor, slot: int) -> DirectSumTriple:
    """Apply the comultiplication inside one slot of a direct-sum tensor."""
    pairs = []
    for (w1, w2), c in t.terms.items():
        w = w1 if slot == 0 else w2
        for p, q in factor_pairs(w.ambient.n):
            u, v = phi(p, q, w)
            pairs.append(((u, v, w2) if slot == 0 else (w1, u, v), c))
    return DirectSumTriple._new(pairs, t.exact)


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
    return AlgebraElement(el.ambients[keep], pairs, el.exact, _trusted=True)


def counit_check(x: DirectSumElement) -> bool:
    """Check that collapsing either slot of the coproduct returns ``x``."""
    left, right = [], []
    for (w1, w2), c in delta_phi(x).terms.items():
        if w1.ambient.n == 1:
            left.append((w2, c))
        if w2.ambient.n == 1:
            right.append((w1, c))
    return DirectSumElement._new(left, x.exact) == x and DirectSumElement._new(right, x.exact) == x


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
