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

from math import isqrt

from .algebra import (
    AlgebraElement,
    TensorElement,
    TripleTensorElement,
    varphi_inf_alg,
    _Linear,
    _exact_scalar,
    _grade,
    _merge,
)
from .scalars import ONE, QI, ZERO
from .words import (
    ReducedWord,
    _check_count,
    _finite_rank,
    _rank,
    _split,
    cancellation_witness_left,
    cancellation_witness_right,
    multiply,
    phi,
    phi_inf,
)

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
    "verify_cancellation",
    "coaction",
    "comodule_check",
]


def factor_pairs(n: int) -> list[tuple[int, int]]:
    """Ordered factorizations ``n = m * l`` as pairs ``(m, l)``, ``m`` ascending."""
    _finite_rank(n)
    # divisors come in pairs (m, n // m) with m <= isqrt(n)
    small, large = [], []
    for m in range(1, isqrt(n) + 1):
        if n % m == 0:
            small.append((m, n // m))
            if m * m != n:
                large.append((n // m, m))
    return small + large[::-1]


# rank n -> (l, Rank(m), Rank(l)) for each (m, l) of factor_pairs(n), built on first use
_PLANS: dict[int, list] = {}


def _splittings(w: ReducedWord) -> list:
    """The pair images of ``w`` under every splitting of its rank: ``phi(m, l, w)``
    for each ``(m, l)`` of :func:`factor_pairs`, with ``phi``'s checks met by
    the plan's construction."""
    n = w[0][0]  # the rank of the word ``(ambient, syllables)``
    plan = _PLANS.get(n)
    if plan is None:
        plan = _PLANS[n] = [(l, _rank(m), _rank(l)) for m, l in factor_pairs(n)]
    return [_split(w, l, p, q) for l, p, q in plan]


class _DirectSum(_Linear):
    """A linear combination of words (or word tuples) of any finite ranks in
    one term dict.  The space ``_space`` is ``None`` ("any finite rank") or
    one ``None`` per tensor slot.  The public constructor takes components
    ``key -> element of class _component`` keyed by rank (a tuple of ranks
    for tensors), whose terms give its scalar mode (exact when there are none);
    every operation is the one of :class:`_Linear`."""

    __slots__ = ()
    _space = None
    _component: type

    def __init__(self, components=()):
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
        exact = modes.pop() if modes else True
        # each component is checked and merged, so only equal keys can overlap
        self.space, self.terms, self.exact = self._space, _merge(pairs, exact), exact

    @classmethod
    def zero(cls, exact: bool = True):
        return cls._wrap(cls._space, {}, exact)

    @property
    def components(self) -> dict:
        """The terms grouped by rank, ``{key: single-rank element}``; a new
        dict on each access."""
        groups: dict = {}
        for label, c in self.terms.items():
            groups.setdefault(_grade(label), {})[label] = c
        return {
            key: self._component._wrap(
                tuple(map(_rank, key)) if type(key) is tuple else _rank(key), terms, self.exact
            )
            for key, terms in groups.items()
        }

    def component(self, *key):
        """The component of the given ranks, one per slot, zero when absent."""
        if len(key) != (len(self._space) if type(self._space) is tuple else 1):
            raise ValueError(f"component key {key} does not give one rank per slot")
        key = key[0] if len(key) == 1 else key
        terms = {label: c for label, c in self.terms.items() if _grade(label) == key}
        space = tuple(map(_rank, key)) if type(key) is tuple else _rank(key)
        return self._component._wrap(space, terms, self.exact)

    def keys(self):
        return sorted({_grade(label) for label in self.terms})

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

    flip = TensorElement.flip

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
    pairs = [(pair, c) for w, c in x.terms.items() for pair in _splittings(w)]
    return DirectSumTensor._merged(DirectSumTensor._space, pairs, x.exact)


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
        for u, v in _splittings(w1 if slot == 0 else w2):
            pairs.append(((u, v, w2) if slot == 0 else (w1, u, v), c))
    return DirectSumTriple._merged(DirectSumTriple._space, pairs, t.exact)


def coassoc_check(x: DirectSumElement) -> tuple[DirectSumTriple, DirectSumTriple, bool]:
    """Evaluate both iterated coproducts of ``x`` and report equality.

    Returns the two sides so a caller can diff them on failure.
    """
    t = delta_phi(x)
    lhs = _delta_slot(t, 0)
    rhs = _delta_slot(t, 1)
    return lhs, rhs, lhs == rhs


def counit_check(x: DirectSumElement) -> bool:
    """Check that collapsing either slot of the coproduct returns ``x``."""
    left, right = [], []
    for (w1, w2), c in delta_phi(x).terms.items():
        if w1.ambient.n == 1:
            left.append((w2, c))
        if w2.ambient.n == 1:
            right.append((w1, c))
    return x._make(left) == x and x._make(right) == x


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
    collapsing the rank-1 slot of either trivial splitting returns the word.
    The counit sends every rank-1 word to 1, so each law compares one word."""
    return phi(1, n, z)[1] == z and phi(n, 1, z)[0] == z


class UnitizedElement:
    """An element ``a + c*1`` of the smallest unitization: a direct-sum body
    plus a scalar multiple of the adjoined unit.  The body may also be a
    :class:`DirectSumTensor`, for the values of :func:`unitized_delta`."""

    __slots__ = ("body", "unit_coeff")

    def __init__(self, body: DirectSumElement | DirectSumTensor, unit_coeff=0):
        if not isinstance(body, (DirectSumElement, DirectSumTensor)):
            raise TypeError(f"the body must be a direct sum, got {type(body).__name__}")
        if not body.exact:
            raise ValueError("the unitization is modeled with exact scalars")
        self.body = body
        self.unit_coeff = _exact_scalar(unit_coeff)

    @classmethod
    def adjoined_unit(cls) -> "UnitizedElement":
        return cls(DirectSumElement.zero(), ONE)

    def __add__(self, other: "UnitizedElement") -> "UnitizedElement":
        if not isinstance(other, UnitizedElement):
            return NotImplemented
        return UnitizedElement(self.body + other.body, self.unit_coeff + other.unit_coeff)

    def __mul__(self, other: "UnitizedElement") -> "UnitizedElement":
        if not isinstance(other, UnitizedElement):
            return NotImplemented
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


def unitized_delta(x: UnitizedElement) -> UnitizedElement:
    """Coproduct on the unitization: the body maps as usual and the adjoined
    unit is group-like, ``1 -> 1 (x) 1``, so its coefficient carries over."""
    return UnitizedElement(delta_phi(x.body), x.unit_coeff)


def unitized_counit(x: UnitizedElement) -> QI:
    return counit(x.body) + x.unit_coeff


def verify_cancellation(x: ReducedWord, y: ReducedWord) -> bool:
    """Reproduce the elementary tensor ``x (x) y`` exactly in both one-sided
    factorized forms supplied by the word-level witnesses; every coefficient
    is 1, so each form is compared as a word pair."""
    xp, z = cancellation_witness_left(x, y)
    yp, z2 = cancellation_witness_right(x, y)
    n, m = x[0][0], y[0][0]  # the witnesses checked both words
    p, q = phi(n, m, z)
    p2, q2 = phi(n, m, z2)
    return (multiply(p, xp), q) == (x, y) == (p2, multiply(q2, yp))


def coaction(x: AlgebraElement, N: int) -> dict[int, TensorElement]:
    """The first ``N`` components of the coaction on the infinite-rank
    algebra: ``{n: varphi_inf_alg(n, x)}`` for ``1 <= n <= N``."""
    _check_count("truncation bound", N, 1)
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
