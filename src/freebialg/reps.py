"""Representation-level machinery: cyclic-subgroup indicator functions,
coset permutation actions, regular representations, the pulled-back tensor
action, and the claim probes built on them.

Everything here is basis combinatorics over finitely supported vectors with
exact coefficients; floating point appears only in ``gram_psd``, the float
cross-check of the exact Gram verdicts.  Probes report disagreements instead
of asserting the claimed identities, so a discrepancy is data rather than a
test failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .algebra import DEFAULT_TOL, AlgebraElement, TensorElement, _Linear
from .algebra import apply_tensor_right, varphi_alg
from .scalars import ONE, QI, ZERO
from .words import (
    ReducedWord,
    _check_count,
    _check_index,
    _finite_rank,
    _power_times,
    enumerate_ball,
    gen,
    multiply,
    phi,
)
from .words import cyclicity_witness as _cyclicity_witness

__all__ = [
    "PDFunction",
    "SuppVector",
    "f_eval",
    "f_pullback_eval",
    "claim_probe_pd",
    "gram_psd",
    "gram_psd_certificate",
    "gram_exact_check",
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


def _in_cyclic(w: ReducedWord, i: int) -> bool:
    """Whether ``w`` is a power of ``g_i`` (the unit included)."""
    sylls = w.syllables
    return not sylls or (len(sylls) == 1 and sylls[0].gen == i)


@dataclass(frozen=True)
class PDFunction:
    """Indicator of the cyclic subgroup generated by ``g_i`` inside the
    rank-``n`` free group; positive definite, value 1 on powers of ``g_i``.

    It is also the basis descriptor of the coset space ``l^2(F_n/<g_i>)``:
    a basis label is the canonical representative of its coset, a word of
    ``F_n`` that does not end in a ``g_i`` syllable (see
    :func:`coset_normal_form`)."""

    n: int
    i: int

    def __post_init__(self):
        _check_index(self.n, self.i)

    def __call__(self, w: ReducedWord) -> int:
        return f_eval(self, w)

    def check(self, label):
        """``label`` itself if it is a canonical coset representative."""
        if isinstance(label, ReducedWord) and label.ambient.n == self.n:
            if _coset_label(label.syllables, self.i) is label.syllables:
                return label
        raise ValueError(f"label {label!r} does not belong to {self}")


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


def _gram_rows(f: Callable[[ReducedWord], float], words: list) -> list[list]:
    """The lower triangle of the Gram matrix ``[f(s^-1 t)]`` over ``words``,
    row by row.  The evaluator must be real symmetric (``f(w^-1) = f(w)``),
    which holds for the indicators used here, so these entries fix the matrix."""
    if not words:
        raise ValueError("sample must be nonempty")
    rows = []
    for a, s in enumerate(words):
        s_inv = s.inverse()
        rows.append([f(multiply(s_inv, t)) for t in words[: a + 1]])
    return rows


def gram_psd(
    f: Callable[[ReducedWord], float],
    sample: Iterable[ReducedWord],
    tol: float = DEFAULT_TOL,
) -> tuple[float, bool]:
    """Minimum eigenvalue of the Gram matrix ``[f(s^-1 t)]`` over the sample,
    and whether it clears ``-tol``: the float cross-check of
    :func:`gram_psd_certificate`.  Only the lower triangle is evaluated;
    ``eigvalsh`` reads no other entry.

    >>> from freebialg.words import gen, unit
    >>> gram_psd(PDFunction(2, 1), [unit(2), gen(2, 2)])
    (1.0, True)
    """
    import numpy as np  # here alone, so no CLI command loads numpy

    rows = _gram_rows(f, list(sample))
    size = len(rows)
    mat = np.zeros((size, size), dtype=float)
    for a, row in enumerate(rows):
        mat[a, : a + 1] = row
    eigs = np.linalg.eigvalsh(mat, UPLO="L")
    min_eig = float(eigs[0])
    return min_eig, min_eig >= -tol


def _psd_certificate(rows: list[list]) -> list[Fraction] | None:
    """Symmetric elimination of the exact matrix ``G`` with lower triangle
    ``rows``, pivoting in order on each diagonal entry.

    ``None`` when every pivot is positive, or zero with nothing left in its
    row: then ``G = L D L^T`` with ``D >= 0``.  Otherwise a vector ``v`` with
    ``v^T G v < 0``: ``e_k`` for a negative pivot, ``e_j + t e_k`` for a zero
    pivot ``k`` with an entry ``c`` at ``j`` (``t = -(G_jj + 1) / 2c`` gives
    -1), carried back through the eliminations.  Entries stay ints until a
    pivot other than 1 needs a ``Fraction``.
    """
    # the nonzero entries of each row of the block not yet eliminated
    live: list[dict] = [{} for _ in rows]
    for a, row in enumerate(rows):
        for b, c in enumerate(row):
            if c:
                live[a][b] = live[b][a] = c
    steps = []  # (pivot, {j: multiplier}) of each elimination, in order
    for k, row in enumerate(live):
        p = row.pop(k, 0)  # ``row`` now holds the entries right of the pivot
        if p < 0:
            u = {k: 1}
        elif not row:
            continue
        elif p == 0:
            j, c = next(iter(row.items()))
            u = {j: 1, k: -Fraction(live[j].get(j, 0) + 1) / (2 * c)}
        else:
            mult = {j: c if p == 1 else Fraction(c, p) for j, c in row.items()}
            for j, lj in mult.items():
                rj = live[j]
                del rj[k]
                for l, cl in row.items():
                    new = rj.get(l, 0) - lj * cl
                    if new:
                        rj[l] = new
                    else:
                        rj.pop(l, None)
            steps.append((k, mult))
            continue
        for piv, mult in reversed(steps):
            u[piv] = -sum(lj * u[j] for j, lj in mult.items() if j in u)
        return [Fraction(u.get(a, 0)) for a in range(len(rows))]
    return None


def gram_psd_certificate(
    f: Callable[[ReducedWord], int], sample: Iterable[ReducedWord]
) -> list[Fraction] | None:
    """Exact verdict on the Gram matrix ``G = [f(s^-1 t)]`` over the sample,
    for a real symmetric evaluator with integer or rational values: ``None``
    when ``G`` is positive semidefinite, else a vector ``v`` with
    ``v^T G v < 0``.

    >>> from freebialg.words import gen, unit
    >>> gram_psd_certificate(PDFunction(2, 1), [unit(2), gen(2, 1), gen(2, 2)]) is None
    True
    """
    return _psd_certificate(_gram_rows(f, list(sample)))


def gram_exact_check(
    f: Callable[[ReducedWord], int],
    sample: Iterable[ReducedWord],
    label: Callable[[ReducedWord], object],
) -> tuple[bool, list[Fraction] | None]:
    """Two exact routes to the positive semidefiniteness of ``G = [f(s^-1 t)]``
    on one evaluation of its lower triangle.

    Route 1 is the elimination of :func:`gram_psd_certificate`.  Route 2 asks
    every entry to be 1 exactly when ``label(s) == label(t)`` and 0 otherwise;
    ``G`` is then a sum of all-ones blocks, one per label.  Returns whether
    both routes pass, and route 1's certificate (``None`` if it has none).
    """
    words = list(sample)
    rows = _gram_rows(f, words)
    labels = [label(s) for s in words]
    blocks = all(
        all(c == (ls == lt) for c, lt in zip(row, labels)) for row, ls in zip(rows, labels)
    )
    cert = _psd_certificate(rows)
    return blocks and cert is None, cert


def _coset_label(sylls: tuple, i: int) -> tuple:
    """The syllables of the canonical representative of the coset
    ``w<g_i>``, for the syllables ``sylls`` of ``w``: a trailing ``g_i``
    syllable stripped.  Two words lie in one coset exactly when their labels
    are equal; ``sylls`` itself is returned when it is already a label."""
    if sylls and sylls[-1][0] == i:
        return sylls[:-1]
    return sylls


def _pullback_label(n: int, m: int, i: int, j: int, z: ReducedWord) -> tuple:
    """The label of the left coset ``zH`` of ``H = phi^-1(<g_i> x <g_j>)``:
    the pair of coset labels of the two words of ``phi(z)``.  ``phi`` is a
    homomorphism, so two words lie in one coset of ``H`` exactly when their
    labels are equal."""
    p, q = phi(n, m, z)
    return _coset_label(p.syllables, i), _coset_label(q.syllables, j)


def coset_normal_form(n: int, i: int, w: ReducedWord) -> ReducedWord:
    """The canonical representative of the coset ``w<g_i>``: ``w`` with its
    maximal trailing power of ``g_i`` stripped.  Two words give equal
    representatives exactly when they differ by a right factor in ``<g_i>``.

    >>> from freebialg.words import gen
    >>> print(coset_normal_form(2, 1, gen(2, 2) * gen(2, 1, 3)))
    g2
    """
    _check_index(n, i)
    if w.ambient.n != n:
        raise ValueError(f"word lives in {w.ambient}, expected F{n}")
    sylls = w.syllables
    label = _coset_label(sylls, i)
    return w if label is sylls else ReducedWord._new(w.ambient, label)


# -- coset vectors -------------------------------------------------------------


class SuppVector(_Linear):
    """A finitely supported vector of ``l^2(F_n/<g_i>)``, in either
    coefficient mode: its basis descriptor is a :class:`PDFunction` and its
    labels are canonical coset representatives.  Permutation actions on
    these never truncate."""

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
        return SuppVector(self.basis, ((fn(k), v) for k, v in self.terms.items()), self.exact)

    def inner(self, other: "SuppVector") -> QI | complex:
        """Standard inner product, conjugate linear in the first argument."""
        self._require_compatible(other)
        total = ZERO if self.exact else 0j
        mine, theirs = self.terms, other.terms
        small, big = (mine, theirs) if len(mine) <= len(theirs) else (theirs, mine)
        for k in small:
            if k in big:
                total = total + mine[k].conjugate() * theirs[k]
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*e[{w}]" for w, c in self.terms.items())


# -- actions -----------------------------------------------------------------


def L_action(n: int, i: int, x: ReducedWord, v: SuppVector) -> SuppVector:
    """Left translation on coset basis vectors: ``e_[w] -> e_[x w]``."""
    basis = PDFunction(n, i)  # checked ahead of the vector
    if not isinstance(v, SuppVector) or v.basis != basis:
        raise ValueError(f"vector is not over the coset basis of F{n}/<g{i}>")
    if x.ambient.n != n:
        raise ValueError(f"acting word lives in {x.ambient}, expected F{n}")
    return v.map_labels(lambda c: coset_normal_form(n, i, multiply(x, c)))


def gns_coeff_check(n: int, i: int, w: ReducedWord) -> bool:
    """Compare the diagonal matrix coefficient of the coset action at the
    base point with the subgroup indicator; the two are computed along
    independent routes (coset label vs. syllable pattern).  ``w`` moves
    ``e_[1]`` to ``e_[w]``, so the coefficient is 1 iff the label of ``w`` is
    the empty label of the base coset."""
    coeff = 1 if _coset_label(w.syllables, i) == () else 0
    return coeff == f_eval(PDFunction(n, i), w)


def fixed_vector_dim(n: int, i: int, j: int, radius: int) -> int:
    """Dimension of the space of vectors supported on cosets with
    representative length at most ``radius`` that the translation by ``g_j``
    fixes.

    A fixed vector must be constant along ``g_j``-orbits and vanish on any
    orbit that escapes the support window, so the dimension equals the number
    of ``g_j``-cycles lying entirely inside the window.  For ``j == i`` the
    base coset is the unique finite orbit; for ``j != i`` every orbit is
    infinite.  Cosets are walked as labels.  The count does not depend on the
    visiting order: an orbit is either a cycle inside the window, counted
    once from whichever member comes first, or it is never counted.
    """
    _check_index(n, i), _check_index(n, j)
    window = {_coset_label(w.syllables, i) for w in enumerate_ball(n, radius)}

    def step(label: tuple) -> tuple:
        return _coset_label(_power_times(j, 1, label), i)

    visited: set[tuple] = set()
    cycles = 0
    for start in window:
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
    Each coset is compared by its label, so no coset vector is built.
    """
    z = _cyclicity_witness(n, m, i, j, x, y)
    target = _coset_label(x.syllables, i), _coset_label(y.syllables, j)
    return _pullback_label(n, m, i, j, z) == target


def lambda_action(n: int, x: ReducedWord, v: AlgebraElement) -> AlgebraElement:
    """Left regular representation: the finitely supported vectors of
    ``l^2(F_n)`` form the group algebra, and ``lambda(x)`` multiplies by ``x``.

    >>> print(lambda_action(2, gen(2, 1), AlgebraElement.from_word(gen(2, 2))))
    F2: g1*g2
    """
    rank = _finite_rank(n)
    if not isinstance(v, AlgebraElement) or v.ambient != rank:
        raise ValueError(f"vector is not over the group basis of F{n}")
    if x.ambient != rank:
        raise ValueError(f"acting word lives in {x.ambient}, expected F{n}")
    return AlgebraElement.from_word(x, exact=v.exact) * v


def tensor_rep_action(n: int, m: int, z: ReducedWord, v: TensorElement) -> TensorElement:
    """Pulled-back action ``(lambda (x) lambda) o phi`` of a rank-``n*m``
    word on ``F_n x F_m``: the pair image of ``z`` multiplies each slot."""
    ranks = (_finite_rank(n), _finite_rank(m))  # checked ahead of the vector
    if not isinstance(v, TensorElement) or v.ambients != ranks:
        raise ValueError(f"vector is not over the pair basis of F{n} x F{m}")
    return TensorElement.from_pair(*phi(n, m, z), exact=v.exact) * v


def orbit_bfs(
    n: int, m: int, start: tuple[ReducedWord, ReducedWord], radius: int
) -> set[tuple[ReducedWord, ReducedWord]]:
    """All pairs reachable from ``start`` by at most ``radius`` left
    multiplications with pair images of rank-``n*m`` generators or their
    inverses."""
    _finite_rank(n), _finite_rank(m)
    _check_count("radius", radius, 0)
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


def U_apply(n: int, m: int, x: ReducedWord, v: AlgebraElement) -> TensorElement:
    """Linear extension of :func:`U_map` to the rank-``n*m`` group algebra:
    split ``v`` with ``phi``, then multiply the left slot by ``x`` from the right.

    >>> print(U_apply(2, 2, gen(2, 1), AlgebraElement.from_word(gen(4, 2))))
    F2(x)F2: g1^2(x)g2
    """
    _finite_rank(n), _finite_rank(m)  # checked ahead of their product
    if not isinstance(v, AlgebraElement) or v.ambient.n != n * m:
        raise ValueError(f"vector is not over the group basis of F{n * m}")
    b = AlgebraElement.from_word(x, exact=v.exact)
    return apply_tensor_right(varphi_alg(n, m, v), b, "left")


def intertwine_check(
    n: int, m: int, x: ReducedWord, h: ReducedWord, g: ReducedWord
) -> bool:
    """Check the intertwining relation on one basis vector: mapping after
    translating by ``h`` agrees with acting by ``h`` after mapping.  Both
    sides are basis vectors, so their pair labels are compared."""
    direct = U_map(n, m, x, multiply(h, g))
    a, b = U_map(n, m, x, g)
    p, q = phi(n, m, h)
    return direct == (multiply(p, a), multiply(q, b))
