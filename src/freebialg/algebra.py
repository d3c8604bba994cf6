"""Exact linear algebra over free-group bases.

Elements are finitely supported linear combinations of reduced words (or
tuples of words for tensors) with either exact Gaussian-rational or
approximate complex coefficients.  The two coefficient modes never mix
inside one element or one operation; converting is always explicit via
``to_approx``.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from functools import partial
from itertools import chain

from .scalars import ONE, QI, ZERO, _times_row as _qi_times_row
from .words import INFINITE, Rank, ReducedWord, _finite_rank, _rank, _word_rank
from .words import _times_row as _word_times_row, phi, phi_inf

__all__ = [
    "DEFAULT_TOL",
    "AlgebraElement",
    "TensorElement",
    "TripleTensorElement",
    "tensor",
    "varphi_alg",
    "varphi_inf_alg",
    "standard_delta",
    "standard_delta_compat_check",
    "apply_tensor_right",
]

DEFAULT_TOL = 1e-9


def _exact_scalar(c) -> QI:
    q = QI._coerce(c)
    if q is None:
        raise TypeError(
            f"exact elements take QI, int or Fraction coefficients, got {type(c).__name__}"
        )
    return q


def _approx_scalar(c) -> complex:
    if isinstance(c, (complex, float, int, QI, Fraction)):
        return complex(c)
    raise TypeError(f"cannot use {type(c).__name__} as an approximate coefficient")


# A label or a space is one word (one rank) or a tuple of them, one per slot.


def _label_str(x) -> str:
    return "(x)".join(map(str, x)) if type(x) is tuple else str(x)


def _label_key(x):
    return tuple(map(ReducedWord.sort_key, x)) if type(x) is tuple else x.sort_key()


def _to_json(x):
    return [y.to_json() for y in x] if type(x) is tuple else x.to_json()


def _grade(label):
    """The rank of a word, or the tuple of ranks of a word tuple."""
    # a word is the tuple ``(ambient, syllables)`` and a rank the tuple ``(n,)``
    return tuple([w[0][0] for w in label]) if type(label) is tuple else label[0][0]


def _max_deviation(a: "_Linear", b: "_Linear") -> float:
    """Largest coefficient difference between two elements, label by label."""
    worst = 0.0
    for k in a.terms.keys() | b.terms.keys():
        worst = max(worst, abs(complex(a.terms.get(k, 0)) - complex(b.terms.get(k, 0))))
    return worst


def _merge(pairs, exact: bool) -> dict:
    """Sum the coefficients of equal labels, in first-seen order, and drop the
    zero sums (approximate ones within ``DEFAULT_TOL`` of zero, and NaN).

    A new label costs one hash: ``setdefault`` inserts it, and an unchanged
    size says it was there already (an ``is`` test cannot, since shared
    coefficients such as ``ONE`` repeat).  The zero sums are deleted in
    place; a dict never shrinks on deletion, so when most entries went the
    survivors are copied into a compact dict.

    The cyclic collector is paused while the pairs are consumed: the words,
    scalars and term dicts built here form no reference cycles, so its
    passes over them free nothing.  It is re-enabled on the way out, also
    when the pair stream raises, and only if it was enabled on the way in,
    so a merge nested in a pair stream leaves that to the outermost one."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        acc: dict = {}
        setdefault = acc.setdefault
        size = 0
        for label, c in pairs:
            v = setdefault(label, c)
            if len(acc) == size:
                acc[label] = v + c
            else:
                size += 1
    finally:
        if enabled:
            gc.enable()
    if exact:
        zeros = [k for k, v in acc.items() if not v]
    else:
        zeros = [k for k, v in acc.items() if not abs(v) > DEFAULT_TOL]
    for k in zeros:
        del acc[k]
    return acc.copy() if len(zeros) > len(acc) else acc


def _complex_times_row(c: complex, row) -> list:
    return [c * x for x in row]


def _row_pairs(terms: dict, rows: dict, times):
    """For each term ``(k1, c1)``, the ``(label, coefficient)`` pairs of its
    product with the row of its grade in ``rows``: ``grade -> (labels,
    coefficients)``, with one label list per slot for word tuples."""
    for k1, c1 in terms.items():
        row = rows.get(_grade(k1))
        if row is not None:
            labels, coeffs = row
            if type(k1) is tuple:
                yield zip(zip(*map(_word_times_row, k1, labels)), times(c1, coeffs))
            else:
                yield zip(_word_times_row(k1, labels), times(c1, coeffs))


class _Linear:
    """A finitely supported linear combination of labels over a space.

    The public constructor checks each label against the space, coerces each
    coefficient and merges the pairs with :func:`_merge`.  Library operations
    build their results from labels and coefficients of checked elements, so
    they skip the checks: ``_merged`` merges such pairs, and ``_wrap`` stores
    a term dict that needs no merge and no zero filter (negation, ``star``,
    ``flip``, nonzero exact scaling, one-term elements).  Subclasses fix the
    space: a rank or a tuple of slot ranks (``None`` for any finite rank), or
    for ``SuppVector`` a basis descriptor that checks the labels itself.
    """

    __slots__ = ("space", "terms", "exact")

    def __init__(self, space, terms=(), exact: bool = True):
        self.space = space
        check = self._check_label
        scalar, coerce = (QI, _exact_scalar) if exact else (complex, _approx_scalar)
        pairs = terms.items() if hasattr(terms, "items") else terms
        self.terms = _merge(
            ((check(label), c if type(c) is scalar else coerce(c)) for label, c in pairs), exact
        )
        self.exact = exact

    def _check_label(self, label):
        """Check a word, or a tuple of words one per slot; a ``None`` slot is any finite rank."""
        slots, words = self.space, label
        if type(slots) is not tuple:
            slots, words = (slots,), (label,)
        elif type(label) is not tuple:
            words = tuple(label) if isinstance(label, list) else ()
        if len(words) != len(slots) or not all(
            isinstance(w, ReducedWord)
            and (w.ambient.n is not None if r is None else w.ambient == r)
            for w, r in zip(words, slots)
        ):
            names = ("any finite rank" if r is None else str(r) for r in slots)
            raise ValueError(f"term {label!r} does not live in {'(x)'.join(names)}")
        return words if type(self.space) is tuple else label

    @classmethod
    def _wrap(cls, space, terms: dict, exact: bool):
        """Trusted constructor: ``terms`` is already merged, checked and free
        of zero coefficients, and is stored as it is, not copied."""
        self = object.__new__(cls)
        self.space = space
        self.terms = terms
        self.exact = exact
        return self

    @classmethod
    def _merged(cls, space, pairs, exact: bool):
        """Trusted constructor: merge ``(label, coefficient)`` pairs whose
        labels are checked and whose coefficients are of the element's mode."""
        return cls._wrap(space, _merge(pairs, exact), exact)

    def _make(self, pairs):
        """A result in this element's space and mode from trusted pairs."""
        return self._merged(self.space, pairs, self.exact)

    @classmethod
    def zero(cls, space, exact: bool = True):
        return cls(space, (), exact)

    def _require_compatible(self, other):
        if type(other) is not type(self) or self.space != other.space:
            raise ValueError("elements live in different spaces")
        if self.exact != other.exact:
            raise ValueError("cannot mix exact and approximate elements")

    def items(self):
        return self.terms.items()

    def __len__(self):
        return len(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, label):
        label = self._check_label(label)
        zero = ZERO if self.exact else 0j
        return self.terms.get(label, zero)

    def __add__(self, other):
        self._require_compatible(other)
        return self._make([*self.terms.items(), *other.terms.items()])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._wrap(self.space, {k: -v for k, v in self.terms.items()}, self.exact)

    def scale(self, c):
        if self.exact:
            c = _exact_scalar(c)
            if c:  # a nonzero exact scalar keeps every term nonzero
                return self._wrap(self.space, {k: c * v for k, v in self.terms.items()}, True)
        else:
            # c * v may fall under DEFAULT_TOL, so the constructor filters it
            c = _approx_scalar(c)
        return self._make([(k, c * v) for k, v in self.terms.items()])

    def __mul__(self, other):
        """Slotwise product of labels of equal grade, bilinear in the
        coefficients; products across distinct grades vanish, as in a direct
        sum.  Any other factor is a scalar."""
        if not isinstance(other, _Linear):
            return self.scale(other)
        self._require_compatible(other)
        rows: dict = {}
        for k2, c2 in other.terms.items():
            labels, coeffs = rows.setdefault(_grade(k2), ([], []))
            labels.append(k2)
            coeffs.append(c2)
        if type(self.space) is tuple:
            # one word list per slot
            rows = {g: (list(zip(*labels)), coeffs) for g, (labels, coeffs) in rows.items()}
        times = _qi_times_row if self.exact else _complex_times_row
        # the rows stream into the merge, so the pairs are never all alive
        return self._make(chain.from_iterable(_row_pairs(self.terms, rows, times)))

    def __rmul__(self, other):
        return self.scale(other)

    def star(self):
        """Antilinear antimultiplicative involution: conjugate coefficients,
        invert every word.  Inversion is injective, so no labels merge."""
        inverse = ReducedWord.inverse
        if type(self.space) is tuple:
            terms = {tuple(map(inverse, k)): c.conjugate() for k, c in self.terms.items()}
        else:
            terms = {inverse(k): c.conjugate() for k, c in self.terms.items()}
        return self._wrap(self.space, terms, self.exact)

    def to_approx(self):
        if not self.exact:
            return self
        return self._merged(self.space, [(k, complex(c)) for k, c in self.terms.items()], False)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.space != other.space or self.exact != other.exact:
            return False
        if self.exact:
            return self.terms == other.terms
        return self.allclose(other, DEFAULT_TOL)

    __hash__ = None

    def allclose(self, other, tol: float) -> bool:
        return self.space == other.space and _max_deviation(self, other) <= tol

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _label_key(kv[0]))

    def __str__(self):
        parts: list[str] = []
        for label, c in self._sorted_terms():
            parts.append(_format_term(c, _label_str(label), first=not parts))
        return f"{_label_str(self.space)}: {''.join(parts) or '0'}"

    def to_json(self) -> dict:
        space_key, label_key = self._json_keys
        out = []
        for label, c in self._sorted_terms():
            entry = {label_key: _to_json(label)}
            entry.update(c.to_json() if self.exact else {"re": c.real, "im": c.imag})
            out.append(entry)
        return {space_key: _to_json(self.space), "terms": out}


def _format_term(c, body: str, first: bool) -> str:
    """Render one term of a linear combination in the element grammar."""
    if isinstance(c, QI):
        if not c.im:
            re = c.re
            if first:
                if re == 1:
                    return body
                return f"{re}*{body}"
            mag = abs(re)
            sep = " - " if re < 0 else " + "
            return sep + (body if mag == 1 else f"{mag}*{body}")
        coeff = str(c)
    else:
        sign = "+" if c.imag >= 0 else "-"
        coeff = f"({c.real!r}{sign}{abs(c.imag)!r}i)"
    piece = f"{coeff}*{body}"
    return piece if first else " + " + piece


class AlgebraElement(_Linear):
    """A finitely supported linear combination of reduced words of one rank,
    with convolution product and the star involution of the group algebra.
    """

    __slots__ = ()
    ambient = _Linear.space  # the rank, under its public name
    _json_keys = ("rank", "word")

    def __init__(self, ambient: Rank | int, terms=(), exact: bool = True):
        super().__init__(_rank(ambient), terms, exact)

    @classmethod
    def unit(cls, ambient, exact: bool = True):
        amb = _rank(ambient)
        return cls(amb, {ReducedWord._new(amb, ()): ONE if exact else 1.0}, exact)

    @classmethod
    def from_word(cls, w: ReducedWord, coeff=ONE, exact: bool = True):
        _word_rank(w)
        if exact:
            c = _exact_scalar(coeff)
            if c:
                return cls._wrap(w[0], {w: c}, True)
        return cls(w[0], {w: coeff}, exact)

    @classmethod
    def from_json(cls, data: dict) -> "AlgebraElement":
        ambient = Rank.from_json(data["rank"])
        pairs = []
        for entry in data["terms"]:
            w = ReducedWord.from_json(ambient, entry["word"])
            if isinstance(entry["re"], str):
                pairs.append((w, QI.from_json(entry)))
            else:
                pairs.append((w, complex(entry["re"], entry["im"])))
        exact = all(isinstance(c, QI) for _, c in pairs)
        return cls(ambient, pairs, exact)


class _Tensor(_Linear):
    """Combinations of word tuples over a tuple of ranks, one per slot: the
    algebraic tensor product of group algebras, with slotwise product and
    involution.  ``_arity`` fixes the number of slots (any when ``None``)."""

    __slots__ = ()
    ambients = _Linear.space  # the slot ranks, under their public name
    _json_keys = ("ranks", "words")
    _arity = None

    def __init__(self, ambients, terms=(), exact: bool = True):
        ambients = tuple([_rank(r) for r in ambients])
        if self._arity is not None and len(ambients) != self._arity:
            raise ValueError(f"expected {self._arity} tensor slots, got {len(ambients)}")
        super().__init__(ambients, terms, exact)


class TensorElement(_Tensor):
    """A finitely supported combination of word pairs: the algebraic tensor
    product of two group algebras, with slotwise product and involution."""

    __slots__ = ()
    _arity = 2

    @classmethod
    def from_pair(cls, w1: ReducedWord, w2: ReducedWord, coeff=1, exact: bool = True):
        return cls((_word_rank(w1), _word_rank(w2)), {(w1, w2): coeff}, exact)

    def flip(self) -> "TensorElement":
        """Swap the two tensor slots."""
        terms = {(w2, w1): c for (w1, w2), c in self.terms.items()}
        return self._wrap(self.space[::-1], terms, self.exact)


class TripleTensorElement(_Tensor):
    """Three-fold analogue of :class:`TensorElement`; target of the iterated
    coproduct and of the mixed coassociativity checks."""

    __slots__ = ()
    _arity = 3

    @classmethod
    def from_triple(cls, w1, w2, w3, coeff=1, exact: bool = True):
        return cls(tuple(map(_word_rank, (w1, w2, w3))), {(w1, w2, w3): coeff}, exact)


def tensor(a: AlgebraElement, b: AlgebraElement) -> TensorElement:
    """Bilinear outer product of two algebra elements."""
    _element_rank(a), _element_rank(b)
    if a.exact != b.exact:
        raise ValueError("cannot tensor exact with approximate elements")
    pairs = [
        ((w1, w2), c1 * c2) for w1, c1 in a.terms.items() for w2, c2 in b.terms.items()
    ]
    return TensorElement._merged((a.ambient, b.ambient), pairs, a.exact)


def _element_rank(a) -> int | None:
    """The generator count of the rank of ``a``, once ``a`` is known to be an element."""
    if not isinstance(a, AlgebraElement):
        raise TypeError(f"expected an AlgebraElement, got {a!r}")
    return a.space[0]


def _extend(split, a: AlgebraElement, ambients) -> TensorElement:
    # linear extension of a word splitting; colliding images accumulate
    pairs = [(split(w), c) for w, c in a.terms.items()]
    return TensorElement._merged(ambients, pairs, a.exact)


def varphi_alg(n: int, m: int, a: AlgebraElement) -> TensorElement:
    """Linear extension of the word map ``phi(n, m, .)``.

    A unital star homomorphism from the rank-``n*m`` group algebra into the
    tensor product of the rank-``n`` and rank-``m`` algebras.  Distinct words
    may collide in the image, so coefficients accumulate.
    """
    ranks = _finite_rank(n), _finite_rank(m)
    if _element_rank(a) != n * m:
        raise ValueError(f"element lives in {a.ambient}, expected F{n * m}")
    return _extend(partial(phi, n, m), a, ranks)


def varphi_inf_alg(n: int, a: AlgebraElement) -> TensorElement:
    """Linear extension of ``phi_inf(n, .)`` on infinite-rank elements."""
    ranks = INFINITE, _finite_rank(n)
    if _element_rank(a) is not None:
        raise ValueError(f"element lives in {a.ambient}, expected Finf")
    return _extend(partial(phi_inf, n), a, ranks)


def standard_delta(a: AlgebraElement) -> TensorElement:
    """The diagonal comultiplication ``w -> w (x) w`` extended linearly."""
    _element_rank(a)
    return _extend(lambda w: (w, w), a, (a.ambient, a.ambient))


def standard_delta_compat_check(n: int, m: int, a: AlgebraElement) -> bool:
    """Check that splitting then diagonally doubling agrees with diagonally
    doubling then splitting both slots and flipping the middle pair.

    Both routes land in the four-fold tensor over ranks (n, n, m, m); the
    comparison is exact.
    """
    rn, rm = _finite_rank(n), _finite_rank(m)
    ranks = (rn, rn, rm, rm)
    lhs = [((w1, w1, w2, w2), c) for (w1, w2), c in varphi_alg(n, m, a).terms.items()]
    rhs = []
    for (u, v), c in standard_delta(a).terms.items():
        pu, qu = phi(n, m, u)
        pv, qv = phi(n, m, v)
        rhs.append(((pu, pv, qu, qv), c))
    return _Tensor._merged(ranks, lhs, a.exact) == _Tensor._merged(ranks, rhs, a.exact)


def apply_tensor_right(t: TensorElement, b: AlgebraElement, slot: str) -> TensorElement:
    """Multiply ``b`` from the right into one tensor slot of ``t``.

    ``slot`` is ``"left"`` or ``"right"``; the other slot is multiplied by
    the unit.  :func:`reps.U_apply` is ``varphi_alg`` followed by this map
    on the left slot.
    """
    if slot not in ("left", "right"):
        raise ValueError("slot must be 'left' or 'right'")
    idx = 0 if slot == "left" else 1
    if b.ambient != t.ambients[idx]:
        raise ValueError(f"{b.ambient} does not match tensor slot {t.ambients[idx]}")
    # the unit takes b's mode, so the product refuses a mode mismatch itself
    one = AlgebraElement.unit(t.ambients[1 - idx], b.exact)
    return t * (tensor(b, one) if idx == 0 else tensor(one, b))
