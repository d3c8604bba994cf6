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

from operator import itemgetter
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

# ``_build(cls, fields)`` builds a rank or word from its tuple of fields
# without the checks of ``cls.__new__``
_build = tuple.__new__


def _refuse(symbol: str, reflected: bool = False):
    """A binary operator that raises ``TypeError``.  Tuple's ``+`` and ``*``
    would concatenate or repeat a rank or a word, and returning
    ``NotImplemented`` would fall back to them."""

    def refuse(self, other):
        a, b = (other, self) if reflected else (self, other)
        names = f"'{type(a).__name__}' and '{type(b).__name__}'"
        raise TypeError(f"unsupported operand type(s) for {symbol}: {names}")

    return refuse


class Rank(tuple):
    """Number of free generators; ``n=None`` encodes countably infinite rank.

    A rank is the tuple ``(n,)``, so its hash and equality are tuple's own:
    ``hash(Rank(n)) == hash((n,))``, and ``Rank(2) == (2,)``.  Sums and
    products of ranks are refused, as for any value that is not a number.
    """

    __slots__ = ()

    def __new__(cls, n: int | None = None):
        # an exact type test: bool is an int subclass, but True is no rank
        if n is not None and (type(n) is not int or n < 1):
            raise ValueError(f"finite rank must be a positive integer, got {n!r}")
        return _build(cls, (n,))

    def __init__(self, n: int | None = None):
        """Nothing to do: ``__new__`` built the rank.  Taking the arguments
        keeps a wrapper that forwards them to ``__init__`` working."""

    n = property(itemgetter(0), doc="The number of generators; ``None`` if infinite.")

    __add__, __radd__ = _refuse("+"), _refuse("+", True)
    __mul__, __rmul__ = _refuse("*"), _refuse("*", True)

    def __repr__(self):
        return f"Rank(n={self[0]!r})"

    def __reduce__(self):
        return Rank, (self[0],)

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
    first use; a ``Rank`` passes, any other value goes to the constructor."""
    if type(n) is not int:
        return n if isinstance(n, Rank) else INFINITE if n is None else Rank(n)
    r = _RANKS.get(n)
    if r is None:
        r = _RANKS[n] = Rank(n)
    return r


# ``_rank``/``_finite_rank``, ``_check_index``, ``_check_count`` and ``_word_rank``
# are the package's one definition of a valid rank, generator index, count (radius,
# cutoff, length) and word argument.  An entry point checks in this order: its
# ranks, indices and counts, then each word, then whether the word's rank fits
def _finite_rank(n) -> Rank:
    """``_rank(n)`` for a rank that must be an int: ``None`` and a ``Rank`` are refused."""
    if type(n) is not int:
        raise ValueError(f"finite rank must be a positive integer, got {n!r}")
    return _rank(n)


def _check_index(n: int, i: int) -> None:
    """Raise unless ``n`` is a finite rank (checked first) with a generator ``g_i``."""
    # ``Rank``'s tests written out, so a valid call takes one frame
    if type(n) is not int or n < 1:
        _finite_rank(n)  # raises, naming the rank
    if type(i) is not int or not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range for F{n}")


def _check_count(name: str, value, least: int) -> None:
    """Raise unless ``value`` is exactly an ``int`` of at least ``least`` (0 or 1)."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be {'positive' if least else 'nonnegative'}")


def _word_rank(w) -> int | None:
    """The generator count of the rank of ``w`` (``None`` if infinite), after
    the package's one test that a word argument is a ``ReducedWord``."""
    if not isinstance(w, ReducedWord):
        raise TypeError(f"expected a ReducedWord, got {w!r}")
    return w[0][0]


def _check_word_rank(w: ReducedWord, n: int, what: str = "word") -> None:
    """Raise unless ``w`` is a word of rank ``n``."""
    if _word_rank(w) != n:
        raise ValueError(f"{what} lives in {w[0]}, expected F{n}")


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


def _word_as_syllables(w: ReducedWord) -> TypeError:
    """The error for a word passed where its syllables belong (it would unpack)."""
    return TypeError(f"expected syllables, got the word {w}; pass its syllables")


def _bad_syllable(ambient: Rank, g, e) -> ValueError:
    """The error for a syllable ``g^e`` whose exponent is no int or whose
    index ``ambient`` does not allow."""
    if type(g) is not int or type(e) is not int:
        return ValueError(f"generator index and exponent must be ints, got ({g!r}, {e!r})")
    return ValueError(f"generator index {g} out of range for {ambient}")


class ReducedWord(tuple):
    """A freely reduced word; the empty syllable sequence is the group unit.

    A word is the tuple ``(ambient, syllables)``: building one is one
    ``tuple.__new__`` call, and its hash and equality are tuple's own, so
    ``hash(w) == hash(((n,), w.syllables))``.  As a consequence a word equals
    the plain tuple ``(w.ambient, w.syllables)``.  Code handed a value not
    yet known to be a word passes it to ``_word_rank`` before it indexes or
    unpacks it: a str such as ``"g2"`` unpacks too.  Words carry no
    ``__dict__``, take no weak references and refuse assignment.

    Public construction checks the ambient and every syllable.  Library
    operations whose output is reduced by construction build words with
    :meth:`_new`, which skips the checks.

    >>> w = reduce(Rank(2), [(1, 1), (2, 1), (2, -1), (1, 1)])
    >>> str(w)
    'g1^2'
    """

    __slots__ = ()

    def __new__(cls, ambient: Rank, syllables: Iterable[tuple[int, int]] = ()):
        if not isinstance(ambient, Rank):
            raise ValueError(f"ambient must be a Rank, got {ambient!r}")
        if isinstance(syllables, ReducedWord):
            raise _word_as_syllables(syllables)
        sylls = []
        prev = 0
        for g, e in syllables:
            if type(e) is not int or not ambient.allows(g):
                raise _bad_syllable(ambient, g, e)
            if e == 0:
                raise ValueError("zero exponent in reduced word")
            if g == prev:
                raise ValueError("adjacent syllables share a generator; word not reduced")
            sylls.append(_syllable(g, e))
            prev = g
        return _build(cls, (ambient, tuple(sylls)))

    def __init__(self, ambient: Rank, syllables: Iterable[tuple[int, int]] = ()):
        """Nothing to do: ``__new__`` built the word.  Taking the arguments
        keeps a wrapper that forwards them to ``__init__`` working."""

    @staticmethod
    def _new(ambient: Rank, syllables: tuple[Syllable, ...]) -> "ReducedWord":
        # trusted: ``syllables`` is a tuple of Syllable, already reduced and
        # in range for ``ambient``
        return _build(ReducedWord, (ambient, syllables))

    ambient = property(itemgetter(0), doc="The rank of the free group the word lies in.")
    syllables = property(itemgetter(1), doc="The syllables ``g^e``, left to right.")

    __add__, __radd__ = _refuse("+"), _refuse("+", True)
    __rmul__ = _refuse("*", True)

    def __repr__(self):
        return f"ReducedWord(ambient={self[0]!r}, syllables={self[1]!r})"

    def __reduce__(self):
        return ReducedWord._new, (self[0], self[1])

    # -- structure ---------------------------------------------------------
    #
    # ``self[0]`` is the ambient and ``self[1]`` the syllables: the methods
    # index, which skips the properties' call

    @property
    def is_unit(self) -> bool:
        return not self[1]

    @property
    def letter_length(self) -> int:
        return sum(abs(s.exp) for s in self[1])

    @property
    def exponent_sum(self) -> int:
        return _exponent_sum(self[1])

    def letters(self) -> Iterator[Syllable]:
        """Yield single-letter syllables ``g^{+-1}`` left to right."""
        for g, e in self[1]:
            step = 1 if e > 0 else -1
            for _ in range(abs(e)):
                yield _syllable(g, step)

    def sort_key(self):
        return (self.letter_length, self[1])

    # -- group operations --------------------------------------------------

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        return multiply(self, other)

    def inverse(self) -> "ReducedWord":
        return ReducedWord._new(
            self[0],
            tuple([_syllable(g, -e) for g, e in reversed(self[1])]),
        )

    __invert__ = inverse

    def __pow__(self, k: int) -> "ReducedWord":
        if k == 0:
            return ReducedWord._new(self[0], ())
        base = self if k > 0 else self.inverse()
        out = base
        for _ in range(abs(k) - 1):
            out = multiply(out, base)
        return out

    # -- text and JSON -----------------------------------------------------

    def __str__(self):
        if not self[1]:
            return "1"
        return "*".join(
            f"g{g}" if e == 1 else f"g{g}^{e}" for g, e in self[1]
        )

    def to_json(self) -> list:
        return [[g, e] for g, e in self[1]]

    @classmethod
    def from_json(cls, ambient: Rank, data: list) -> "ReducedWord":
        return reduce(ambient, [(int(g), int(e)) for g, e in data])


def unit(ambient: Rank | int) -> ReducedWord:
    return ReducedWord._new(_rank(ambient), ())


def gen(ambient: Rank | int, i: int, exp: int = 1) -> ReducedWord:
    """The word ``g_i^exp`` (the unit when ``exp == 0``)."""
    ambient = _rank(ambient)
    if type(exp) is not int or not ambient.allows(i):
        raise _bad_syllable(ambient, i, exp)
    return ReducedWord._new(ambient, (_syllable(i, exp),) if exp else ())


def _exponent_sum(sylls: tuple[Syllable, ...]) -> int:
    return sum([e for _, e in sylls])


def _power_times(k: int, t: int, sylls: tuple[Syllable, ...]) -> tuple[Syllable, ...]:
    """The syllables of ``g_k^t * w`` for the syllables ``sylls`` of a reduced
    word ``w``: only the seam can merge, and a syllable that cancels is
    dropped, leaving a seam of two distinct generators."""
    if not t:
        return sylls
    if sylls and sylls[0][0] == k:
        e = sylls[0][1] + t
        return ((_syllable(k, e),) if e else ()) + sylls[1:]
    return (_syllable(k, t),) + sylls


def _column(sylls: tuple[Syllable, ...], m: int, j: int) -> tuple[Syllable, ...]:
    """The syllables ``g_t^e`` read as ``g_{m(t-1)+j}^e`` of rank ``n*m``: the
    letter map is injective, so a reduced word stays reduced."""
    return tuple([_syllable(m * (g - 1) + j, e) for g, e in sylls])


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
    ambient = _rank(ambient)
    if isinstance(letters, ReducedWord):
        raise _word_as_syllables(letters)
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
    if type(w1) is not ReducedWord or type(w2) is not ReducedWord:
        _word_rank(w1), _word_rank(w2)
    ambient, left = w1
    other, right = w2
    if ambient is not other and ambient != other:
        raise ValueError(f"ambient mismatch: {ambient} vs {other}")
    if not right:
        return w1
    if not left:
        return w2
    i, k, end = len(left), 0, len(right)
    while i and k < end:
        g, e = left[i - 1]
        h, f = right[k]
        if g != h:
            break
        merged = e + f
        if merged:
            return ReducedWord._new(
                ambient, left[: i - 1] + (_syllable(g, merged),) + right[k + 1 :]
            )
        i -= 1
        k += 1
    return ReducedWord._new(ambient, left[:i] + right[k:])


def _times_row(w: ReducedWord, row):
    """``[multiply(w, v) for v in row]`` for a word ``w`` and a sequence of
    words ``v`` of its rank, reading ``w``'s side of the seam once.  A unit
    ``w`` gives back ``row`` itself; where the seam joins two distinct
    generators the product is the two syllable tuples joined, and only a
    shared seam generator goes through :func:`multiply`."""
    ambient, left = w
    if not left:
        return row
    g = left[-1][0]
    out = []
    append = out.append
    for v in row:
        right = v[1]
        if not right:
            append(w)
        elif right[0][0] != g:
            append(_build(ReducedWord, (ambient, left + right)))
        else:
            append(multiply(w, v))
    return out


def inverse(w: ReducedWord) -> ReducedWord:
    return w.inverse()


# ``_SPLITS[m][k]`` is the pair ``(i, j)`` with ``k = m*(i-1) + j`` and
# ``1 <= j <= m``, for ``m`` and ``i`` up to ``_TABLE_GENS``: a fixed 7,200
# entries over 576 shared pairs.  A larger ``k`` or ``m`` takes ``divmod``.
_PAIRS = [[(i, j) for j in range(_TABLE_GENS + 1)] for i in range(_TABLE_GENS + 1)]
_SPLITS = [[None] + [_PAIRS[i][j] for i in range(1, _TABLE_GENS + 1) for j in range(1, m + 1)]
           for m in range(_TABLE_GENS + 1)]


def _split_syllables(
    sylls: tuple[Syllable, ...], m: int
) -> tuple[tuple[Syllable, ...], tuple[Syllable, ...]]:
    """The syllables of the pair image of a reduced word with syllables
    ``sylls``: ``g_k^e``, ``k = m*(i-1) + j``, goes to ``(g_i^e, g_j^e)``.

    Each slot keeps its last syllable open as ``g_a^x`` and closes it when the
    generator changes; when it cancels, the syllable below is reopened, since
    it may merge with the next one.  ``e`` is never 0 in a reduced word.
    """
    rows = _SYLLABLES
    table = _SPLITS[m] if m <= _TABLE_GENS else ()
    top = len(table)
    left: list[Syllable] = []
    right: list[Syllable] = []
    a = x = b = y = 0  # the open syllables g_a^x and g_b^y; a == 0: none
    for k, e in sylls:
        if k < top:
            i, j = table[k]
        else:
            i, j = divmod(k - 1, m)
            i += 1
            j += 1
        if i == a:
            x += e
            if not x:
                a, x = left.pop() if left else (0, 0)
        else:
            if a:
                left.append(rows[a][x] if a <= _TABLE_GENS and -_TABLE_EXP <= x <= _TABLE_EXP
                            else _tuple_new(Syllable, (a, x)))
            a, x = i, e
        if j == b:
            y += e
            if not y:
                b, y = right.pop() if right else (0, 0)
        else:
            if b:
                right.append(rows[b][y] if b <= _TABLE_GENS and -_TABLE_EXP <= y <= _TABLE_EXP
                             else _tuple_new(Syllable, (b, y)))
            b, y = j, e
    if a:
        left.append(rows[a][x] if a <= _TABLE_GENS and -_TABLE_EXP <= x <= _TABLE_EXP
                    else _tuple_new(Syllable, (a, x)))
    if b:
        right.append(rows[b][y] if b <= _TABLE_GENS and -_TABLE_EXP <= y <= _TABLE_EXP
                     else _tuple_new(Syllable, (b, y)))
    return tuple(left), tuple(right)


def _split(
    z: ReducedWord, m: int, left_rank: Rank, right_rank: Rank
) -> tuple[ReducedWord, ReducedWord]:
    # ``z`` is a word: ``z[1]`` is its syllables
    left, right = _split_syllables(z[1], m)
    return ReducedWord._new(left_rank, left), ReducedWord._new(right_rank, right)


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
    left, right = _phi_syllables(n, m, z)
    return ReducedWord._new(_rank(n), left), ReducedWord._new(_rank(m), right)


def _phi_syllables(
    n: int, m: int, z: ReducedWord
) -> tuple[tuple[Syllable, ...], tuple[Syllable, ...]]:
    """The syllables of the two words of ``phi(n, m, z)``, after :func:`phi`'s
    checks on all three arguments; a caller that needs no word takes them
    from here, and looks up no rank."""
    # ``_finite_rank``'s tests written out, so a valid call takes no frame for them
    if type(n) is not int or type(m) is not int or n < 1 or m < 1:
        _finite_rank(n), _finite_rank(m)  # raises, naming the first bad rank
    if _word_rank(z) != n * m:
        raise ValueError(f"expected a word of rank {n * m}, got ambient {z[0]}")
    return _split_syllables(z[1], m)


def phi_inf(n: int, z: ReducedWord) -> tuple[ReducedWord, ReducedWord]:
    """Infinite-rank analogue of :func:`phi`: ``g_{n*(i-1)+j} -> (g_i, g_j)``
    with the first component of infinite rank and the second of rank ``n``.
    """
    right = _finite_rank(n)
    if _word_rank(z) is not None:
        raise ValueError(f"expected an infinite-rank word, got ambient {z[0]}")
    return _split(z, n, INFINITE, right)


def kernel_witness(n: int, m: int, i: int, l: int, j: int, k: int) -> ReducedWord:
    """The commutator-like word ``c_{m(i-1)+j} c_{m(i-1)+k}^-1 c_{m(l-1)+k}
    c_{m(l-1)+j}^-1`` of rank ``n*m``.

    Its image under ``phi(n, m, .)`` is the trivial pair for every choice of
    indices, and the word itself is nontrivial exactly when ``i != l`` and
    ``j != k``.
    """
    for rank, index in ((n, i), (n, l), (m, j), (m, k)):
        _check_index(rank, index)
    a, b = m * (i - 1), m * (l - 1)
    return reduce(n * m, [(a + j, 1), (a + k, -1), (b + k, 1), (b + j, -1)])


def lift_first(x: ReducedWord, m: int) -> tuple[ReducedWord, ReducedWord]:
    """Lift ``x`` of rank ``n`` through the first slot: return ``(y, z)`` with
    ``phi(n, m, z) = (x, y)`` and ``y`` a power of the first rank-``m``
    generator.

    Each letter ``g_i^e`` of ``x`` is sent to ``g_{m(i-1)+1}^e``, so the
    second slot collects only first-column generators.  The letter map is
    injective, so ``z`` is reduced as built.
    """
    right = _finite_rank(m)
    n = _word_rank(x)
    if n is None:
        raise ValueError("lift requires a finite-rank word")
    y = ReducedWord._new(right, _power_times(1, _exponent_sum(x[1]), ()))
    z = ReducedWord._new(_rank(n * m), _column(x[1], m, 1))
    return y, z


def lift_second(y: ReducedWord, n: int) -> tuple[ReducedWord, ReducedWord]:
    """Lift ``y`` of rank ``m`` through the second slot: return ``(x, z)``
    with ``phi(n, m, z) = (x, y)`` and ``x`` a power of the first rank-``n``
    generator.  Letters ``g_j^e`` of ``y`` map to first-row generators
    ``g_j^e`` of rank ``n*m``, so ``z`` has the syllables of ``y``.
    """
    left = _finite_rank(n)
    m = _word_rank(y)
    if m is None:
        raise ValueError("lift requires a finite-rank word")
    x = ReducedWord._new(left, _power_times(1, _exponent_sum(y[1]), ()))
    z = ReducedWord._new(_rank(n * m), y[1])
    return x, z


def cancellation_witness_left(
    x: ReducedWord, y: ReducedWord
) -> tuple[ReducedWord, ReducedWord]:
    """Return ``(xp, z)`` with ``phi(z) * (xp, 1) = (x, y)`` componentwise.

    ``z`` is the lift of ``y`` by :func:`lift_second`, with ``phi(z) =
    (g_1^s, y)`` for the exponent sum ``s`` of ``y``, so ``xp = g_1^-s * x``.
    """
    n, m = _word_rank(x), _word_rank(y)
    if n is None or m is None:
        raise ValueError("cancellation witnesses require finite ranks")
    z = ReducedWord._new(_rank(n * m), y[1])
    xp = ReducedWord._new(x[0], _power_times(1, -_exponent_sum(y[1]), x[1]))
    return xp, z


def cancellation_witness_right(
    x: ReducedWord, y: ReducedWord
) -> tuple[ReducedWord, ReducedWord]:
    """Return ``(yp, z)`` with ``phi(z) * (1, yp) = (x, y)`` componentwise.

    ``z`` is the lift of ``x`` by :func:`lift_first`, with ``phi(z) =
    (x, g_1^s)`` for the exponent sum ``s`` of ``x``, so ``yp = g_1^-s * y``.
    """
    n, m = _word_rank(x), _word_rank(y)
    if n is None or m is None:
        raise ValueError("cancellation witnesses require finite ranks")
    z = ReducedWord._new(_rank(n * m), _column(x[1], m, 1))
    yp = ReducedWord._new(y[0], _power_times(1, -_exponent_sum(x[1]), y[1]))
    return yp, z


def cyclicity_witness(
    n: int, m: int, i: int, j: int, x: ReducedWord, y: ReducedWord
) -> ReducedWord:
    """A word ``z`` of rank ``n*m`` with ``phi(z) = (x, y * g_j^s)`` for some
    integer ``s``.

    With ``s`` the exponent sum of ``y`` and ``xp = g_1^-s * x``, ``z`` is the
    reduced product of two words of rank ``n*m``: the syllables of ``y`` read
    as first-row generators, which map to ``(g_1^s, y)``, then the letters
    ``g_{m(t-1)+j}^e`` for each letter ``g_t^e`` of ``xp``, which map to
    ``(xp, g_j^s)``.  So the first slot closes up to ``x`` exactly while the
    second slot moves inside the cyclic subgroup generated by ``g_j``.  The
    index ``i`` only names the coset space the caller acts on; the
    construction does not depend on it.
    """
    _check_index(n, i)
    _check_index(m, j)
    if (_word_rank(x), _word_rank(y)) != (n, m):
        raise ValueError("ambient mismatch with declared ranks")
    head = y[1]
    xp = _power_times(1, -_exponent_sum(head), x[1])
    tail = _column(xp, m, j)
    if head:
        # the head's generators lie in 1..m, and a tail syllable's only when
        # it comes from a ``g_1`` syllable of ``xp``; so if the seam cancels,
        # the next tail syllable, from another ``g_t``, lies past m and
        # nothing more merges
        g, e = head[-1]
        tail = head[:-1] + _power_times(g, e, tail)
    return ReducedWord._new(_rank(n * m), tail)


def enumerate_ball(
    ambient: Rank | int, radius: int, max_gen: int | None = None
) -> list[ReducedWord]:
    """All reduced words of letter length at most ``radius``, each exactly
    once, in length-graded deterministic order.

    For infinite ambient rank a ``max_gen`` cutoff is required; the ball then
    ranges over the first ``max_gen`` generators.
    """
    ambient = _rank(ambient)
    _check_count("radius", radius, 0)
    if ambient.is_infinite:
        if max_gen is None:
            raise ValueError("enumerating an infinite-rank ball requires max_gen")
        _check_count("max_gen", max_gen, 1)
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
            sylls = w[1]  # the syllables of a word built here
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
    _finite_rank(rank)
    _check_count("radius", radius, 0)
    if rank == 1:
        return 2 * radius + 1
    return 1 + 2 * rank * ((2 * rank - 1) ** radius - 1) // (2 * rank - 2)
