"""Representation-level machinery: cyclic-subgroup indicator functions,
coset permutation actions, regular representations, the pulled-back tensor
action, and the claim probes built on them.

Everything here is basis combinatorics over finitely supported vectors with
exact coefficients; floating point appears only in the Gram-matrix
eigenvalue routine.  Probes report disagreements instead of asserting the
claimed identities, so a discrepancy is data rather than a test failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .algebra import DEFAULT_TOL, _Linear
from .scalars import ONE, QI, ZERO
from .words import (
    ReducedWord,
    _rank,
    enumerate_ball,
    gen,
    multiply,
    phi,
    unit,
)
from .words import cyclicity_witness as _cyclicity_witness

__all__ = [
    "PDFunction",
    "Coset",
    "CosetBasis",
    "GroupBasis",
    "PairGroupBasis",
    "CosetPairBasis",
    "SuppVector",
    "f_eval",
    "f_pullback_eval",
    "claim_probe_pd",
    "gram_psd",
    "coset_normal_form",
    "L_action",
    "gns_coeff_check",
    "fixed_vector_dim",
    "cyclicity_check",
    "lambda_action",
    "tensor_rep_action",
    "orbit_bfs",
    "U_map",
    "U_apply",
    "intertwine_check",
]


def _check_index(n: int, i: int) -> None:
    """Raise unless ``g_i`` is a generator of the rank-``n`` free group."""
    if not 1 <= i <= n:
        _rank(n)  # a rank below 1 is reported as such, not as a bad index
        raise ValueError(f"generator index {i} out of range for F{n}")


def _in_cyclic(w: ReducedWord, i: int) -> bool:
    """Whether ``w`` is a power of ``g_i`` (the unit included)."""
    sylls = w.syllables
    return not sylls or (len(sylls) == 1 and sylls[0].gen == i)


@dataclass(frozen=True)
class PDFunction:
    """Indicator of the cyclic subgroup generated by ``g_i`` inside the
    rank-``n`` free group; positive definite, value 1 on powers of ``g_i``."""

    n: int
    i: int

    def __post_init__(self):
        _rank(self.n)
        _check_index(self.n, self.i)

    def __call__(self, w: ReducedWord) -> int:
        return f_eval(self, w)


def f_eval(f: PDFunction, w: ReducedWord) -> int:
    if w.ambient.n != f.n:
        raise ValueError(f"word lives in {w.ambient}, expected F{f.n}")
    return 1 if _in_cyclic(w, f.i) else 0


def f_pullback_eval(n: int, i: int, m: int, j: int, z: ReducedWord) -> int:
    """Pull the product indicator back through the rank splitting: evaluate
    the pair image of ``z`` against the indicators on each factor."""
    _check_index(n, i)
    _check_index(m, j)
    p, q = phi(n, m, z)
    return 1 if _in_cyclic(p, i) and _in_cyclic(q, j) else 0


def claim_probe_pd(
    n: int, m: int, i: int, j: int, radius: int
) -> list[tuple[ReducedWord, int, int]]:
    """Scan the radius ball of the rank-``n*m`` group and compare the pulled
    back indicator with the direct indicator of ``g_{m(i-1)+j}``.

    Returns every disagreement as ``(word, pullback, direct)``; an empty list
    means the two sides agree on the whole ball.  Any word outside the cyclic
    subgroup whose pair image lands in the product of the two cyclic
    subgroups gives pullback 1 and direct 0; the shortest such words have
    length 3, and the nontrivial kernel words of length 4 are among them.
    """
    # range-check i and j, naming their own factor, before the ball is built
    _check_index(n, i)
    _check_index(m, j)
    direct = PDFunction(n * m, m * (i - 1) + j)
    out = []
    for z in enumerate_ball(n * m, radius):
        pb = f_pullback_eval(n, i, m, j, z)
        dv = f_eval(direct, z)
        if pb != dv:
            out.append((z, pb, dv))
    return out


def gram_psd(
    f: Callable[[ReducedWord], float],
    sample: Iterable[ReducedWord],
    tol: float = DEFAULT_TOL,
) -> tuple[float, bool]:
    """Minimum eigenvalue of the Gram matrix ``[f(s^-1 t)]`` over the sample,
    and whether it clears ``-tol``.  The evaluator must be real symmetric
    (``f(w^-1) = f(w)``), which holds for the indicators used here.

    The matrix is then symmetric, so only its lower triangle is evaluated;
    ``eigvalsh`` reads no other entry.

    >>> from freebialg.words import gen, unit
    >>> gram_psd(PDFunction(2, 1), [unit(2), gen(2, 2)])
    (1.0, True)
    """
    import numpy as np  # here alone, so importing freebialg does not load numpy

    words = list(sample)
    if not words:
        raise ValueError("sample must be nonempty")
    size = len(words)
    mat = np.zeros((size, size), dtype=float)
    for a, s in enumerate(words):
        s_inv = s.inverse()
        mat[a, : a + 1] = [float(f(multiply(s_inv, t))) for t in words[: a + 1]]
    eigs = np.linalg.eigvalsh(mat, UPLO="L")
    min_eig = float(eigs[0])
    return min_eig, min_eig >= -tol


_object_new = object.__new__


@dataclass(frozen=True)
class Coset:
    """A left coset of the cyclic subgroup ``<g_i>`` in canonical form: the
    representative never ends in a ``g_i`` syllable."""

    n: int
    i: int
    rep: ReducedWord

    def __post_init__(self):
        if self.rep.syllables and self.rep.syllables[-1].gen == self.i:
            raise ValueError("coset representative not in canonical form")

    def __str__(self):
        return f"[{self.rep}]"


def coset_normal_form(n: int, i: int, w: ReducedWord) -> Coset:
    """Strip the maximal trailing power of ``g_i``; two words land on equal
    cosets exactly when they differ by a right factor in ``<g_i>``."""
    if w.ambient.n != n:
        raise ValueError(f"word lives in {w.ambient}, expected F{n}")
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range for F{n}")
    sylls = w.syllables
    if sylls and sylls[-1].gen == i:
        w = ReducedWord._new(w.ambient, sylls[:-1])
    # canonical by construction, so built without the checking constructor
    c = _object_new(Coset)
    d = c.__dict__
    d["n"] = n
    d["i"] = i
    d["rep"] = w
    return c


# -- basis descriptors and vectors ------------------------------------------


@dataclass(frozen=True)
class CosetBasis:
    n: int
    i: int

    def check(self, label):
        if not isinstance(label, Coset) or (label.n, label.i) != (self.n, self.i):
            raise ValueError(f"label {label!r} does not belong to {self}")
        return label


@dataclass(frozen=True)
class GroupBasis:
    n: int

    def check(self, label):
        if not isinstance(label, ReducedWord) or label.ambient.n != self.n:
            raise ValueError(f"label {label!r} does not belong to {self}")
        return label


def _pair(basis, label) -> tuple:
    """``label`` as a 2-tuple; raise unless it is a tuple or list of two slots."""
    if not isinstance(label, (tuple, list)) or len(label) != 2:
        raise ValueError(f"label {label!r} does not belong to {basis}")
    return tuple(label)


@dataclass(frozen=True)
class PairGroupBasis:
    n: int
    m: int

    def check(self, label):
        g, h = _pair(self, label)
        for w, n in ((g, self.n), (h, self.m)):
            if not isinstance(w, ReducedWord) or w.ambient.n != n:
                raise ValueError(f"label {label!r} does not belong to {self}")
        return (g, h)


@dataclass(frozen=True)
class CosetPairBasis:
    left: CosetBasis
    right: CosetBasis

    def check(self, label):
        a, b = _pair(self, label)
        return (self.left.check(a), self.right.check(b))


class SuppVector(_Linear):
    """A finitely supported vector over a labeled basis with exact
    coefficients; permutation actions on these never truncate."""

    __slots__ = ()
    basis = _Linear.space  # the basis descriptor, under its public name

    @property
    def _check_label(self):
        # the descriptor checks labels itself, with no call in between
        return self.basis.check

    @classmethod
    def basis_vector(cls, basis, label) -> "SuppVector":
        return cls._wrap(basis, {basis.check(label): ONE}, True)

    def __mul__(self, other):
        # the basis labels carry no product: vectors are scaled, never multiplied
        if isinstance(other, _Linear):
            raise TypeError(f"SuppVector over {self.basis} has no product")
        return self.scale(other)

    def star(self):
        raise TypeError(f"SuppVector over {self.basis} has no star involution")

    def map_labels(self, fn) -> "SuppVector":
        """Push the vector through a basis-label map, merging collisions."""
        return SuppVector(self.basis, ((fn(k), v) for k, v in self.terms.items()))

    def inner(self, other: "SuppVector") -> QI:
        """Standard inner product, conjugate linear in the first argument."""
        if self.basis != other.basis:
            raise ValueError("vectors live over different bases")
        total = ZERO
        small, big = self.terms, other.terms
        for k, v in small.items():
            w = big.get(k)
            if w is not None:
                total = total + v.conjugate() * w
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*e{lbl}" for lbl, c in self.terms.items())


# -- actions -----------------------------------------------------------------


def L_action(n: int, i: int, x: ReducedWord, v: SuppVector) -> SuppVector:
    """Left translation on coset basis vectors: ``e_[w] -> e_[x w]``."""
    if v.basis != CosetBasis(n, i):
        raise ValueError(f"vector is not over the coset basis of F{n}/<g{i}>")
    if x.ambient.n != n:
        raise ValueError(f"acting word lives in {x.ambient}, expected F{n}")
    return v.map_labels(lambda c: coset_normal_form(n, i, multiply(x, c.rep)))


def gns_coeff_check(n: int, i: int, w: ReducedWord) -> bool:
    """Compare the diagonal matrix coefficient of the coset action at the
    base point with the subgroup indicator; the two are computed along
    independent routes (coset normal form vs. syllable pattern)."""
    basis = CosetBasis(n, i)
    e0 = SuppVector.basis_vector(basis, coset_normal_form(n, i, unit(n)))
    moved = L_action(n, i, w, e0)
    coeff = e0.inner(moved)
    return coeff == QI(f_eval(PDFunction(n, i), w))


def fixed_vector_dim(n: int, i: int, j: int, radius: int) -> int:
    """Dimension of the space of vectors supported on cosets with
    representative length at most ``radius`` that the translation by ``g_j``
    fixes.

    A fixed vector must be constant along ``g_j``-orbits and vanish on any
    orbit that escapes the support window, so the dimension equals the number
    of ``g_j``-cycles lying entirely inside the window.  For ``j == i`` the
    base coset is the unique finite orbit; for ``j != i`` every orbit is
    infinite.
    """
    window = {coset_normal_form(n, i, w) for w in enumerate_ball(n, radius)}
    gj = gen(n, j)

    def step(c: Coset) -> Coset:
        return coset_normal_form(n, i, multiply(gj, c.rep))

    visited: set[Coset] = set()
    cycles = 0
    for start in sorted(window, key=lambda c: c.rep.sort_key()):
        if start in visited:
            continue
        path = [start]
        cur = step(start)
        while cur in window and cur not in visited and cur != start:
            path.append(cur)
            cur = step(cur)
        visited.update(path)
        if cur == start:
            cycles += 1
    return cycles


def cyclicity_check(
    n: int, m: int, i: int, j: int, x: ReducedWord, y: ReducedWord
) -> bool:
    """Act with the witness word on the base tensor vector of the two coset
    spaces and compare against the target elementary tensor vector.

    The action permutes basis vectors, so the test compares labels: the base
    label is the pair of trivial cosets, which the pair image ``(p, q)`` of
    the witness moves to ``([p], [q])``, and the target is ``([x], [y])``.
    """
    z = _cyclicity_witness(n, m, i, j, x, y)
    p, q = phi(n, m, z)
    moved = (coset_normal_form(n, i, p), coset_normal_form(m, j, q))
    return moved == (coset_normal_form(n, i, x), coset_normal_form(m, j, y))


def lambda_action(n: int, x: ReducedWord, v: SuppVector) -> SuppVector:
    """Left regular representation on group basis vectors."""
    if v.basis != GroupBasis(n):
        raise ValueError(f"vector is not over the group basis of F{n}")
    if x.ambient.n != n:
        raise ValueError(f"acting word lives in {x.ambient}, expected F{n}")
    return v.map_labels(lambda g: multiply(x, g))


def tensor_rep_action(n: int, m: int, z: ReducedWord, v: SuppVector) -> SuppVector:
    """Pulled-back action of a rank-``n*m`` word on the pair-group basis:
    the pair image translates each factor."""
    if v.basis != PairGroupBasis(n, m):
        raise ValueError(f"vector is not over the pair basis of F{n} x F{m}")
    p, q = phi(n, m, z)
    return v.map_labels(lambda gh: (multiply(p, gh[0]), multiply(q, gh[1])))


def orbit_bfs(
    n: int, m: int, start: tuple[ReducedWord, ReducedWord], radius: int
) -> set[tuple[ReducedWord, ReducedWord]]:
    """All pairs reachable from ``start`` by at most ``radius`` left
    multiplications with pair images of rank-``n*m`` generators or their
    inverses."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    g0, h0 = start
    if g0.ambient.n != n or h0.ambient.n != m:
        raise ValueError("start pair does not match the declared ranks")
    moves = []
    for k in range(1, n * m + 1):
        for e in (1, -1):
            moves.append(phi(n, m, gen(n * m, k, e)))
    seen = {start}
    frontier = [start]
    for _ in range(radius):
        nxt = []
        for g, h in frontier:
            for p, q in moves:
                pair = (multiply(p, g), multiply(q, h))
                if pair not in seen:
                    seen.add(pair)
                    nxt.append(pair)
        frontier = nxt
    return seen


def U_map(
    n: int, m: int, x: ReducedWord, g: ReducedWord
) -> tuple[ReducedWord, ReducedWord]:
    """Basis-level intertwiner candidate: send the rank-``n*m`` basis word
    ``g`` with pair image ``(p, q)`` to the pair label ``(p x, q)``.

    The map identifies basis words with equal pair images, so it is not
    injective once the splitting has a kernel.
    """
    p, q = phi(n, m, g)
    return multiply(p, x), q


def U_apply(n: int, m: int, x: ReducedWord, v: SuppVector) -> SuppVector:
    """Linear extension of :func:`U_map` from the rank-``n*m`` group basis
    to the pair-group basis."""
    if v.basis != GroupBasis(n * m):
        raise ValueError(f"vector is not over the group basis of F{n * m}")
    target = PairGroupBasis(n, m)
    return SuppVector(target, ((U_map(n, m, x, g), c) for g, c in v.terms.items()))


def intertwine_check(
    n: int, m: int, x: ReducedWord, h: ReducedWord, g: ReducedWord
) -> bool:
    """Check the intertwining relation on one basis vector: mapping after
    translating by ``h`` agrees with acting by ``h`` after mapping."""
    basis = PairGroupBasis(n, m)
    direct = SuppVector.basis_vector(basis, U_map(n, m, x, multiply(h, g)))
    routed = tensor_rep_action(
        n, m, h, SuppVector.basis_vector(basis, U_map(n, m, x, g))
    )
    return direct == routed
