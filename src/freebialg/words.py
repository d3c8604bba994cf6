"""Reduced words in finitely or countably generated free groups.

A word is stored run-length encoded as a sequence of syllables ``g^e`` with
nonzero integer exponents and distinct adjacent generator indices.  This is
the unique normal form of a free-group element, so equality of words is
equality of group elements.  Generator indices are 1-based.

The maps between a free group of composite rank and pairs of lower-rank free
groups follow the index decomposition ``k = m*(i-1) + j`` with
``1 <= j <= m``; see :func:`phi` and :func:`phi_inf`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "Rank",
    "INFINITE",
    "Syllable",
    "ReducedWord",
    "unit",
    "gen",
    "reduce",
    "multiply",
    "inverse",
    "phi",
    "phi_inf",
    "kernel_witness",
    "lift_first",
    "lift_second",
    "cancellation_witness_left",
    "cancellation_witness_right",
    "cyclicity_witness",
    "enumerate_ball",
    "ball_size",
]


@dataclass(frozen=True)
class Rank:
    """Number of free generators; ``n=None`` encodes countably infinite rank."""

    n: int | None = None

    def __post_init__(self):
        # an exact type test: bool is an int subclass, but True is no rank
        if self.n is not None and (type(self.n) is not int or self.n < 1):
            raise ValueError(f"finite rank must be a positive integer, got {self.n!r}")

    @property
    def is_infinite(self) -> bool:
        return self.n is None

    def allows(self, gen_index: int) -> bool:
        # an exact type test, as for ``n``: True == 1, but it is no index
        if type(gen_index) is not int or gen_index < 1:
            return False
        return self.n is None or gen_index <= self.n

    def __str__(self):
        return "Finf" if self.n is None else f"F{self.n}"

    def to_json(self):
        return "inf" if self.n is None else self.n

    @classmethod
    def from_json(cls, data) -> "Rank":
        return INFINITE if data == "inf" else _rank(int(data))


INFINITE = Rank(None)

_RANKS: dict[int, Rank] = {}


def _rank(n) -> Rank:
    """The one shared ``Rank(n)`` for an int ``n``, built (and validated) on
    first use; any other value goes to the validating constructor."""
    if type(n) is not int:
        return INFINITE if n is None else Rank(n)
    r = _RANKS.get(n)
    if r is None:
        r = _RANKS[n] = Rank(n)
    return r


def _as_rank(ambient: Rank | int) -> Rank:
    return ambient if isinstance(ambient, Rank) else _rank(ambient)


class Syllable(NamedTuple):
    gen: int
    exp: int


# ``_tuple_new(Syllable, (g, e))`` builds the same syllable as ``Syllable(g, e)``
# without the NamedTuple's Python-level ``__new__``
_tuple_new = tuple.__new__

# Shared syllables ``g^e`` for ``1 <= g <= _TABLE_GENS`` and
# ``0 < |e| <= _TABLE_EXP``: row ``g`` holds ``g^e`` at index ``e``, so a
# negative ``e`` reads from the end of the row.  On the benchmark's ``verify``
# and ``algebra`` workloads, 99.94% and 100% of the syllables the library
# builds fall inside it.
_TABLE_GENS = 24
_TABLE_EXP = 8
_SYLLABLES = [None] + [
    [None]
    + [_tuple_new(Syllable, (g, e)) for e in range(1, _TABLE_EXP + 1)]
    + [_tuple_new(Syllable, (g, e)) for e in range(-_TABLE_EXP, 0)]
    for g in range(1, _TABLE_GENS + 1)
]


def _syllable(g: int, e: int) -> Syllable:
    """``Syllable(g, e)`` for ints ``g >= 1`` and ``e != 0``: the shared one
    from the table, or a new one outside it."""
    if g <= _TABLE_GENS and -_TABLE_EXP <= e <= _TABLE_EXP:
        return _SYLLABLES[g][e]
    return _tuple_new(Syllable, (g, e))


def _bad_syllable(ambient: Rank, g, e) -> ValueError:
    """The error for a syllable ``g^e`` whose exponent is no int or whose
    index ``ambient`` does not allow."""
    if type(g) is not int or type(e) is not int:
        return ValueError(f"generator index and exponent must be ints, got ({g!r}, {e!r})")
    return ValueError(f"generator index {g} out of range for {ambient}")


@dataclass(frozen=True, slots=True)
class ReducedWord:
    """A freely reduced word; the empty syllable sequence is the group unit.

    Public construction checks every syllable.  Library operations whose
    output is reduced by construction build words with :meth:`_new`, which
    skips the check.  Words are slotted: they carry no ``__dict__`` and take
    no weak references.

    >>> w = reduce(Rank(2), [(1, 1), (2, 1), (2, -1), (1, 1)])
    >>> str(w)
    'g1^2'
    """

    ambient: Rank
    syllables: tuple[Syllable, ...] = ()
    # the hash, cached on first use; not part of equality, hash or repr
    _hash: int | None = field(default=None, init=False, compare=False, hash=False, repr=False)

    @staticmethod
    def _new(ambient: Rank, syllables: tuple[Syllable, ...]) -> "ReducedWord":
        # trusted: ``syllables`` is a tuple of Syllable, already reduced and
        # in range for ``ambient``
        w = _object_new(ReducedWord)
        _set_ambient(w, ambient)
        _set_syllables(w, syllables)
        _set_hash(w, None)
        return w

    def __post_init__(self):
        sylls = []
        prev = 0
        for g, e in self.syllables:
            if type(e) is not int or not self.ambient.allows(g):
                raise _bad_syllable(self.ambient, g, e)
            if e == 0:
                raise ValueError("zero exponent in reduced word")
            if g == prev:
                raise ValueError("adjacent syllables share a generator; word not reduced")
            sylls.append(_syllable(g, e))
            prev = g
        object.__setattr__(self, "syllables", tuple(sylls))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.syllables == other.syllables and (
            self.ambient is other.ambient or self.ambient == other.ambient
        )

    def __hash__(self):
        # the same value as the dataclass field hash, so set and dict orders
        # do not depend on how a word was built; ``Rank``'s dataclass hash is
        # ``hash((n,))``, spelled out here to skip its Python-level call
        h = self._hash
        if h is None:
            h = hash(((self.ambient.n,), self.syllables))
            _set_hash(self, h)
        return h

    def __reduce__(self):
        # copies and pickles leave the cached hash behind: ``hash(None)``,
        # hence an infinite-rank word's hash, differs between processes
        return ReducedWord._new, (self.ambient, self.syllables)

    # -- structure ---------------------------------------------------------

    @property
    def is_unit(self) -> bool:
        return not self.syllables

    @property
    def letter_length(self) -> int:
        return sum(abs(s.exp) for s in self.syllables)

    @property
    def exponent_sum(self) -> int:
        return sum(s.exp for s in self.syllables)

    def letters(self) -> Iterator[Syllable]:
        """Yield single-letter syllables ``g^{+-1}`` left to right."""
        for g, e in self.syllables:
            step = 1 if e > 0 else -1
            for _ in range(abs(e)):
                yield _syllable(g, step)

    def sort_key(self):
        return (self.letter_length, self.syllables)

    # -- group operations --------------------------------------------------

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        return multiply(self, other)

    def inverse(self) -> "ReducedWord":
        return ReducedWord._new(
            self.ambient,
            tuple([_syllable(g, -e) for g, e in reversed(self.syllables)]),
        )

    __invert__ = inverse

    def __pow__(self, k: int) -> "ReducedWord":
        if k == 0:
            return ReducedWord._new(self.ambient, ())
        base = self if k > 0 else self.inverse()
        out = base
        for _ in range(abs(k) - 1):
            out = multiply(out, base)
        return out

    # -- text and JSON -----------------------------------------------------

    def __str__(self):
        if not self.syllables:
            return "1"
        return "*".join(
            f"g{g}" if e == 1 else f"g{g}^{e}" for g, e in self.syllables
        )

    def to_json(self) -> list:
        return [[g, e] for g, e in self.syllables]

    @classmethod
    def from_json(cls, ambient: Rank, data: list) -> "ReducedWord":
        return reduce(ambient, [(int(g), int(e)) for g, e in data])


_object_new = object.__new__
# the slot setters; a frozen word's own ``__setattr__`` refuses every write
_set_ambient = ReducedWord.ambient.__set__
_set_syllables = ReducedWord.syllables.__set__
_set_hash = ReducedWord._hash.__set__


def unit(ambient: Rank | int) -> ReducedWord:
    return ReducedWord._new(_as_rank(ambient), ())


def gen(ambient: Rank | int, i: int, exp: int = 1) -> ReducedWord:
    """The word ``g_i^exp`` (the unit when ``exp == 0``)."""
    ambient = _as_rank(ambient)
    if exp == 0 and type(exp) is int and type(i) is int:
        return ReducedWord._new(ambient, ())
    if type(exp) is not int or not ambient.allows(i):
        raise _bad_syllable(ambient, i, exp)
    return ReducedWord._new(ambient, (_syllable(i, exp),))


def _push(stack: list[Syllable], g: int, e: int) -> None:
    if e == 0:
        return
    if stack and stack[-1].gen == g:
        merged = stack[-1].exp + e
        stack.pop()
        if merged:
            stack.append(_syllable(g, merged))
    else:
        stack.append(_syllable(g, e))


def reduce(ambient: Rank | int, letters: Iterable[tuple[int, int]]) -> ReducedWord:
    """Freely reduce a raw syllable sequence to its normal form.

    Zero exponents in the input are skipped.  Idempotent: feeding the
    syllables of a :class:`ReducedWord` back in returns an equal word.

    >>> str(reduce(2, [(1, 1), (1, -1)]))
    '1'
    """
    ambient = _as_rank(ambient)
    stack: list[Syllable] = []
    for g, e in letters:
        if type(e) is not int or not ambient.allows(g):
            raise _bad_syllable(ambient, g, e)
        _push(stack, g, e)
    return ReducedWord._new(ambient, tuple(stack))


def multiply(w1: ReducedWord, w2: ReducedWord) -> ReducedWord:
    """Group product of two words over the same ambient rank.

    Both words are reduced, so only the seam can cancel: matching syllables
    cancel from the end of ``w1`` and the start of ``w2``, and at most one
    pair merges.
    """
    ambient = w1.ambient
    if ambient is not w2.ambient and ambient != w2.ambient:
        raise ValueError(f"ambient mismatch: {w1.ambient} vs {w2.ambient}")
    left, right = w1.syllables, w2.syllables
    if not right:
        return w1
    if not left:
        return w2
    i, k, end = len(left), 0, len(right)
    while i and k < end:
        g, e = left[i - 1]
        if g != right[k].gen:
            break
        merged = e + right[k].exp
        if merged:
            return ReducedWord._new(
                ambient, left[: i - 1] + (_syllable(g, merged),) + right[k + 1 :]
            )
        i -= 1
        k += 1
    return ReducedWord._new(ambient, left[:i] + right[k:])


def inverse(w: ReducedWord) -> ReducedWord:
    return w.inverse()


def _split(
    z: ReducedWord, m: int, left_rank: Rank, right_rank: Rank
) -> tuple[ReducedWord, ReducedWord]:
    # g_k with k = m*(i-1) + j, 1 <= j <= m, goes to the pair (g_i, g_j).
    # Each slot merges as _push does, written out because this loop is the
    # hottest in the package; e is never 0 in a reduced word.  An unmerged
    # syllable reads the table of _syllable inline.
    rows = _SYLLABLES
    left: list[Syllable] = []
    right: list[Syllable] = []
    for k, e in z.syllables:
        i, j = divmod(k - 1, m)
        i += 1
        j += 1
        if left and left[-1][0] == i:
            merged = left.pop()[1] + e
            if merged:
                left.append(_syllable(i, merged))
        elif i <= _TABLE_GENS and -_TABLE_EXP <= e <= _TABLE_EXP:
            left.append(rows[i][e])
        else:
            left.append(_tuple_new(Syllable, (i, e)))
        if right and right[-1][0] == j:
            merged = right.pop()[1] + e
            if merged:
                right.append(_syllable(j, merged))
        elif j <= _TABLE_GENS and -_TABLE_EXP <= e <= _TABLE_EXP:
            right.append(rows[j][e])
        else:
            right.append(_tuple_new(Syllable, (j, e)))
    return ReducedWord._new(left_rank, tuple(left)), ReducedWord._new(right_rank, tuple(right))


def phi(n: int, m: int, z: ReducedWord) -> tuple[ReducedWord, ReducedWord]:
    """Map a word of rank ``n*m`` to the pair ``(p, q)`` of words of ranks
    ``n`` and ``m``.

    The generator ``g_k`` with ``k = m*(i-1) + j`` goes to the pair
    ``(g_i, g_j)``; the map extends multiplicatively and each component is
    returned freely reduced.

    >>> z = reduce(4, [(1, 1), (2, -1), (4, 1), (3, -1)])
    >>> p, q = phi(2, 2, z)
    >>> p.is_unit and q.is_unit
    True
    """
    if z.ambient.n != n * m:
        raise ValueError(f"expected a word of rank {n * m}, got ambient {z.ambient}")
    return _split(z, m, _rank(n), _rank(m))


def phi_inf(n: int, z: ReducedWord) -> tuple[ReducedWord, ReducedWord]:
    """Infinite-rank analogue of :func:`phi`: ``g_{n*(i-1)+j} -> (g_i, g_j)``
    with the first component of infinite rank and the second of rank ``n``.
    """
    if not z.ambient.is_infinite:
        raise ValueError(f"expected an infinite-rank word, got ambient {z.ambient}")
    return _split(z, n, INFINITE, _rank(n))


def kernel_witness(n: int, m: int, i: int, l: int, j: int, k: int) -> ReducedWord:
    """The commutator-like word ``c_{m(i-1)+j} c_{m(i-1)+k}^-1 c_{m(l-1)+k}
    c_{m(l-1)+j}^-1`` of rank ``n*m``.

    Its image under ``phi(n, m, .)`` is the trivial pair for every choice of
    indices, and the word itself is nontrivial exactly when ``i != l`` and
    ``j != k``.
    """
    if not (1 <= i <= n and 1 <= l <= n):
        raise ValueError(f"row indices must lie in 1..{n}")
    if not (1 <= j <= m and 1 <= k <= m):
        raise ValueError(f"column indices must lie in 1..{m}")
    return reduce(
        n * m,
        [
            (m * (i - 1) + j, 1),
            (m * (i - 1) + k, -1),
            (m * (l - 1) + k, 1),
            (m * (l - 1) + j, -1),
        ],
    )


def lift_first(x: ReducedWord, m: int) -> tuple[ReducedWord, ReducedWord]:
    """Lift ``x`` of rank ``n`` through the first slot: return ``(y, z)`` with
    ``phi(n, m, z) = (x, y)`` and ``y`` a power of the first rank-``m``
    generator.

    Each letter ``g_i^e`` of ``x`` is sent to ``g_{m(i-1)+1}^e``, so the
    second slot collects only first-column generators.  The letter map is
    injective, so ``z`` is reduced as built.
    """
    if x.ambient.is_infinite:
        raise ValueError("lift requires a finite-rank word")
    n = x.ambient.n
    z = ReducedWord._new(
        _rank(n * m),
        tuple([_syllable(m * (g - 1) + 1, e) for g, e in x.syllables]),
    )
    y = gen(m, 1, x.exponent_sum)
    return y, z


def lift_second(y: ReducedWord, n: int) -> tuple[ReducedWord, ReducedWord]:
    """Lift ``y`` of rank ``m`` through the second slot: return ``(x, z)``
    with ``phi(n, m, z) = (x, y)`` and ``x`` a power of the first rank-``n``
    generator.  Letters ``g_j^e`` of ``y`` map to first-row generators
    ``g_j^e`` of rank ``n*m``, so ``z`` has the syllables of ``y``.
    """
    if y.ambient.is_infinite:
        raise ValueError("lift requires a finite-rank word")
    m = y.ambient.n
    z = ReducedWord._new(_rank(n * m), y.syllables)
    x = gen(n, 1, y.exponent_sum)
    return x, z


def cancellation_witness_left(
    x: ReducedWord, y: ReducedWord
) -> tuple[ReducedWord, ReducedWord]:
    """Return ``(xp, z)`` with ``phi(z) * (xp, 1) = (x, y)`` componentwise.

    Built from :func:`lift_second`: if ``phi(z) = (x2, y)`` then
    ``xp = x2^-1 * x`` corrects the first slot.
    """
    n = x.ambient.n
    if n is None or y.ambient.n is None:
        raise ValueError("cancellation witnesses require finite ranks")
    x2, z = lift_second(y, n)
    xp = multiply(x2.inverse(), x)
    return xp, z


def cancellation_witness_right(
    x: ReducedWord, y: ReducedWord
) -> tuple[ReducedWord, ReducedWord]:
    """Return ``(yp, z)`` with ``phi(z) * (1, yp) = (x, y)`` componentwise."""
    m = y.ambient.n
    if m is None or x.ambient.n is None:
        raise ValueError("cancellation witnesses require finite ranks")
    y2, z = lift_first(x, m)
    yp = multiply(y2.inverse(), y)
    return yp, z


def cyclicity_witness(
    n: int, m: int, i: int, j: int, x: ReducedWord, y: ReducedWord
) -> ReducedWord:
    """A word ``z`` of rank ``n*m`` with ``phi(z) = (x, y * g_j^s)`` for some
    integer ``s``.

    Take ``(xp, zp)`` from :func:`cancellation_witness_left` and append, for
    each letter ``g_t^e`` of ``xp``, the generator ``g_{m(t-1)+j}^e``.  The
    appended part maps to ``(xp, g_j^s)``, so the first slot closes up to
    ``x`` exactly while the second slot moves inside the cyclic subgroup
    generated by ``g_j``.  The appended letter map is injective, so the
    appended part is reduced as built.  The index ``i`` only names the coset
    space the caller acts on; the construction does not depend on it.
    """
    if type(i) is not int or type(j) is not int or not (1 <= i <= n and 1 <= j <= m):
        raise ValueError("subgroup indices out of range")
    if x.ambient.n != n or y.ambient.n != m:
        raise ValueError("ambient mismatch with declared ranks")
    xp, zp = cancellation_witness_left(x, y)
    tail = ReducedWord._new(
        _rank(n * m),
        tuple([_syllable(m * (g - 1) + j, e) for g, e in xp.syllables]),
    )
    return multiply(zp, tail)


def enumerate_ball(
    ambient: Rank | int, radius: int, max_gen: int | None = None
) -> list[ReducedWord]:
    """All reduced words of letter length at most ``radius``, each exactly
    once, in length-graded deterministic order.

    For infinite ambient rank a ``max_gen`` cutoff is required; the ball then
    ranges over the first ``max_gen`` generators.
    """
    ambient = _as_rank(ambient)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if ambient.is_infinite:
        if max_gen is None:
            raise ValueError("enumerating an infinite-rank ball requires max_gen")
        span = max_gen
    else:
        span = ambient.n
    letters = [_syllable(g, e) for g in range(1, span + 1) for e in (1, -1)]
    new = ReducedWord._new
    out = [new(ambient, ())]
    frontier = out[:]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            sylls = w.syllables
            lg, le = sylls[-1] if sylls else (0, 0)
            for s in letters:
                g, e = s
                if g != lg:
                    nxt.append(new(ambient, sylls + (s,)))
                elif (le > 0) == (e > 0):
                    # grow the last syllable; the letter cancelling it is skipped
                    nxt.append(new(ambient, sylls[:-1] + (_syllable(g, le + e),)))
        out.extend(nxt)
        frontier = nxt
    return out


def ball_size(rank: int, radius: int) -> int:
    """The number of words :func:`enumerate_ball` lists for a finite rank
    ``k`` and radius ``r``, in closed form: ``1 + 2k((2k-1)^r - 1)/(2k-2)``,
    or ``2r + 1`` for ``k = 1``.

    >>> ball_size(2, 2), len(enumerate_ball(2, 2))
    (17, 17)
    """
    _rank(rank)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if rank == 1:
        return 2 * radius + 1
    return 1 + 2 * rank * ((2 * rank - 1) ** radius - 1) // (2 * rank - 2)
