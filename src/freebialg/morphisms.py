"""Graded automorphisms of the direct-sum bialgebra and a generic
comultiplication-compatibility checker.

Two families are modeled: a one-parameter phase action scaling each
rank-``n`` generator by ``exp(i t log n)``, and the exact involution that
reverses generator indices within each rank.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from .algebra import DEFAULT_TOL, _max_deviation
from .bialgebra import DirectSumElement, delta_phi
from .scalars import ONE, QI
from .words import INFINITE, ReducedWord, reduce

__all__ = [
    "GradedEndo",
    "identity_endo",
    "beta_endo",
    "alpha_endo",
    "alpha",
    "beta",
    "bialgebra_morphism_check",
    "group_law_checks",
    "max_term_deviation",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GradedEndo:
    """A rank-preserving endomorphism determined by generator images of the
    form phase times generator.

    ``gen_image(n, i)`` returns ``(target_index, phase)``; the phase must
    have unit modulus so that inverse letters pick up the conjugate phase.
    """

    exact: bool
    gen_image: Callable[[int, int], tuple[int, QI | complex]]

    def _apply_word(self, w: ReducedWord, c, exact: bool):
        """The image of ``w``, and ``c`` times its phase (complex unless ``exact``)."""
        n = w.ambient.n
        phase = ONE if self.exact else (1 + 0j)
        sylls = []
        for g, e in w.syllables:
            target, ph = self.gen_image(n, g)
            sylls.append((target, e))
            phase = phase * ph**e
        return reduce(w.ambient, sylls), c * (phase if exact else complex(phase))

    def apply(self, x):
        """Apply the endomorphism to every word of an algebra element, a
        direct sum or a tensor (slot by slot); the result has the type and
        the space of ``x``, and is exact when both are."""
        if INFINITE in (x.space if type(x.space) is tuple else (x.space,)):
            raise ValueError("graded endomorphisms act on finite ranks")
        exact = self.exact and x.exact
        pairs = []
        for label, c in x.terms.items():
            if not exact:
                c = complex(c)
            images = []
            for w in label if type(label) is tuple else (label,):
                u, c = self._apply_word(w, c, exact)  # (c * ph1) * ph2 on a pair
                images.append(u)
            pairs.append((tuple(images) if type(label) is tuple else images[0], c))
        return type(x)._merged(x.space, pairs, exact)

    apply_algebra = apply_tensor = apply


def identity_endo() -> GradedEndo:
    return GradedEndo(True, lambda n, i: (i, ONE))


def beta_endo() -> GradedEndo:
    """Exact involution reversing generator indices: ``g_i -> g_{n-i+1}``."""
    return GradedEndo(True, lambda n, i: (n - i + 1, ONE))


def alpha_endo(t: float) -> GradedEndo:
    """One-parameter phase automorphism ``g_i -> exp(i t log n) g_i``."""

    def image(n: int, i: int):
        return i, cmath.exp(1j * (t * math.log(n)))

    return GradedEndo(False, image)


def alpha(t: float, x: DirectSumElement) -> DirectSumElement:
    """Apply the phase automorphism directly: a rank-``n`` word with exponent
    sum ``s`` is scaled by ``exp(i t s log n)``.

    The angle is reduced modulo two pi before exponentiation to limit phase
    drift on long words.
    """
    pairs = []
    for w, c in x.terms.items():
        angle = math.fmod(t * w.exponent_sum * math.log(w.ambient.n), TWO_PI)
        pairs.append((w, complex(c) * cmath.exp(1j * angle)))
    return DirectSumElement._merged(x.space, pairs, False)


def beta(x: DirectSumElement) -> DirectSumElement:
    """Apply the index-reversing involution; exact on exact input."""
    return beta_endo().apply(x)


def bialgebra_morphism_check(
    f: GradedEndo, x: DirectSumElement, tol: float = DEFAULT_TOL
) -> bool:
    """Compare applying ``f`` in both tensor slots of the coproduct against
    the coproduct of the image; exact when both sides are exact, otherwise
    within ``tol``."""
    lhs = f.apply_tensor(delta_phi(x))
    rhs = delta_phi(f.apply(x))
    if lhs.exact and rhs.exact:
        return lhs == rhs
    return lhs.allclose(rhs, tol)


def max_term_deviation(a: DirectSumElement, b: DirectSumElement) -> float:
    """Largest coefficient difference between two direct-sum elements."""
    return _max_deviation(a, b)


def group_law_checks(tol: float = DEFAULT_TOL) -> dict:
    """Verify the action laws on the generators of ranks 1 to 12 at the
    phase pairs ``(0.3, 1.0)``, ``(1.0, 2.5)`` and ``(0.3, -0.3)``:
    additivity of the phase parameter, involutivity of the index reversal,
    and commutation of the two families.  Returns a report with the maximum
    deviations observed."""
    from .words import gen

    pairs = ((0.3, 1.0), (1.0, 2.5), (0.3, -0.3))
    corpus = [
        DirectSumElement.from_word(gen(n, i)) for n in range(1, 13) for i in range(1, n + 1)
    ]
    add_dev = 0.0
    for t, s in pairs:
        for x in corpus:
            composed = alpha(t, alpha(s, x))
            direct = alpha(t + s, x)
            add_dev = max(add_dev, max_term_deviation(composed, direct))
    beta_exact = all(beta(beta(x)) == x for x in corpus)
    comm_dev = 0.0
    for t, _ in pairs:
        for x in corpus:
            comm_dev = max(
                comm_dev,
                max_term_deviation(beta(alpha(t, x)), alpha(t, beta(x))),
            )
    return {
        "alpha_additivity": {"max_deviation": add_dev, "ok": add_dev <= tol},
        "beta_involution": {"exact": beta_exact},
        "alpha_beta_commute": {"max_deviation": comm_dev, "ok": comm_dev <= tol},
        "status": "verified"
        if (add_dev <= tol and beta_exact and comm_dev <= tol)
        else "failed",
    }
