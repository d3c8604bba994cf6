"""Mutation checks for the argument gates, the word kernel and the single
owners of the package's rules, kept outside the test suite.

Each mutant is one exact text replacement in one file of ``src/``.  For each,
the runner copies ``src/``, ``tests/``, ``bench/`` and ``pyproject.toml`` into a
new temporary directory, applies the replacement there and runs the mutant's
named tests with a timeout.  The outcome is one of four:

- *killed*: the tests fail (pytest exits 1) or time out;
- *survived*: they pass (pytest exits 0);
- *stale*: the old text does not occur exactly once, so that the mutant no
  longer says where it applies;
- *error*: pytest exits with any other code, say 4 for a node id that names
  no test, or 2 when a test file fails to import; such a run shows nothing
  about the mutant.

The repo itself is never modified.  Run from anywhere, with the test
dependencies installed::

    python tools/mutants.py

Each mutant's tests get ``TIMEOUT`` seconds.  The runner prints
``{"killed": [...], "survived": [...], "stale": [...], "error": [...]}`` as
JSON, with the tail of pytest's output for each error on stderr, and exits 1
unless every mutant was killed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 300.0
OUTCOMES = ("killed", "survived", "stale", "error")
WORD_ARGUMENTS = "tests/test_reps.py::test_word_arguments_that_are_not_words_are_refused"
LETTER_SPLIT = "tests/test_words.py::test_phi_matches_the_letter_split"
REOPEN = "tests/test_words.py::test_split_reopens_the_syllable_below_a_cancellation"
WORD_ROW = "tests/test_words.py::test_times_row_matches_multiply_on_a_ball"
SCALAR_ROW = "tests/test_scalars.py::test_times_row_matches_the_product"
PRODUCTS = "tests/test_algebra.py::test_products_match_a_reference_double_loop"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repo root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repo root


MUTANTS = [
    Mutant(
        "word-rank-no-type-test",
        "src/freebialg/words.py",
        """    if not isinstance(w, ReducedWord):
        raise TypeError(f"expected a ReducedWord, got {w!r}")
    return w[0][0]""",
        "    return w[0][0]",
        (WORD_ARGUMENTS,),
    ),
    Mutant(
        "phi-word-before-ranks",
        "src/freebialg/words.py",
        """    if type(n) is not int or type(m) is not int or n < 1 or m < 1:
        _finite_rank(n), _finite_rank(m)  # raises, naming the first bad rank
    if _word_rank(z) != n * m:
        raise ValueError(f"expected a word of rank {n * m}, got ambient {z[0]}")""",
        """    if _word_rank(z) != n * m:
        raise ValueError(f"expected a word of rank {n * m}, got ambient {z[0]}")
    if type(n) is not int or type(m) is not int or n < 1 or m < 1:
        _finite_rank(n), _finite_rank(m)  # raises, naming the first bad rank""",
        (
            "tests/test_words.py::test_splitting_maps_name_a_rank_with_no_product",
            WORD_ARGUMENTS,
        ),
    ),
    Mutant(
        "cyclicity-witness-no-rank-test",
        "src/freebialg/words.py",
        """    if (_word_rank(x), _word_rank(y)) != (n, m):
        raise ValueError("ambient mismatch with declared ranks")
""",
        "",
        ("tests/test_words.py::test_cyclicity_witness_refusals", WORD_ARGUMENTS),
    ),
    Mutant(
        "orbit-bfs-no-rank-test",
        "src/freebialg/reps.py",
        """    if (_word_rank(g0), _word_rank(h0)) != (n, m):
        raise ValueError("start pair does not match the declared ranks")
""",
        "",
        ("tests/test_reps.py::test_orbit_bfs_refusals", WORD_ARGUMENTS),
    ),
    Mutant(
        "verify-cancellation-ranks-first",
        "src/freebialg/bialgebra.py",
        """    xp, z = cancellation_witness_left(x, y)
    yp, z2 = cancellation_witness_right(x, y)
    n, m = x[0][0], y[0][0]  # the witnesses checked both words""",
        """    n, m = x[0][0], y[0][0]
    xp, z = cancellation_witness_left(x, y)
    yp, z2 = cancellation_witness_right(x, y)""",
        (WORD_ARGUMENTS,),
    ),
    # -- one owner per rule: each second path the package dropped, put back --
    Mutant(
        "gen-unit-before-index",
        "src/freebialg/words.py",
        """    ambient = _rank(ambient)
    if type(exp) is not int or not ambient.allows(i):""",
        """    ambient = _rank(ambient)
    if exp == 0 and type(exp) is int and type(i) is int:
        return ReducedWord._new(ambient, ())
    if type(exp) is not int or not ambient.allows(i):""",
        ("tests/test_words.py::test_int_syllables_still_build_words",),
    ),
    Mutant(
        "from-pair-ungated",
        "src/freebialg/algebra.py",
        "return cls((_word_rank(w1), _word_rank(w2)), {(w1, w2): coeff}, exact)",
        "return cls((w1.ambient, w2.ambient), {(w1, w2): coeff}, exact)",
        (WORD_ARGUMENTS,),
    ),
    Mutant(
        "from-triple-ungated",
        "src/freebialg/algebra.py",
        "return cls(tuple(map(_word_rank, (w1, w2, w3))), {(w1, w2, w3): coeff}, exact)",
        "return cls((w1.ambient, w2.ambient, w3.ambient), {(w1, w2, w3): coeff}, exact)",
        (WORD_ARGUMENTS,),
    ),
    Mutant(
        "tensor-ungated",
        "src/freebialg/algebra.py",
        """    _element_rank(a), _element_rank(b)
    if a.exact != b.exact:""",
        "    if a.exact != b.exact:",
        (WORD_ARGUMENTS,),
    ),
    Mutant(
        "standard-delta-ungated",
        "src/freebialg/algebra.py",
        """    _element_rank(a)
    return _extend(lambda w: (w, w), a, (a.ambient, a.ambient))""",
        """    return _extend(lambda w: (w, w), a, (a.ambient, a.ambient))""",
        (WORD_ARGUMENTS,),
    ),
    Mutant(
        "standard-delta-off-diagonal",
        "src/freebialg/algebra.py",
        "_extend(lambda w: (w, w), a,",
        "_extend(lambda w: (w, w.inverse()), a,",
        ("tests/test_algebra.py::test_standard_delta_examples",),
    ),
    Mutant(
        "exact-scalar-no-refusal",
        "src/freebialg/algebra.py",
        """    q = QI._coerce(c)
    if q is None:""",
        """    q = QI._coerce(c)
    if q is None and False:""",
        ("tests/test_bialgebra.py::test_unitized_coefficient_is_an_exact_scalar",),
    ),
    Mutant(
        "approx-scalar-refuses-qi",
        "src/freebialg/algebra.py",
        "    if isinstance(c, (complex, float, int, QI, Fraction)):",
        "    if isinstance(c, (complex, float, int, Fraction)):",
        ("tests/test_algebra.py::test_trusted_results_match_the_public_constructor",),
    ),
    Mutant(
        "from-json-drops-the-imaginary-part",
        "src/freebialg/algebra.py",
        "pairs.append((w, QI.from_json(entry)))",
        'pairs.append((w, QI(Fraction(entry["re"]))))',
        ("tests/test_algebra.py::test_element_json_roundtrip",),
    ),
    Mutant(
        "unitized-second-coercion",
        "src/freebialg/bialgebra.py",
        "        self.unit_coeff = _exact_scalar(unit_coeff)",
        "        self.unit_coeff = unit_coeff if isinstance(unit_coeff, QI) else QI(unit_coeff)",
        ("tests/test_bialgebra.py::test_unitized_coefficient_is_an_exact_scalar",),
    ),
    Mutant(
        "unitized-no-coercion",
        "src/freebialg/bialgebra.py",
        "        self.unit_coeff = _exact_scalar(unit_coeff)",
        "        self.unit_coeff = unit_coeff",
        ("tests/test_bialgebra.py::test_unitized_coefficient_is_an_exact_scalar",),
    ),
    Mutant(
        "direct-sum-declared-mode",
        "src/freebialg/bialgebra.py",
        "    def __init__(self, components=()):",
        "    def __init__(self, components=(), exact=None):",
        ("tests/test_algebra.py::test_direct_sum_constructor_refusals",),
    ),
    Mutant(
        "direct-sum-no-mixed-mode-check",
        "src/freebialg/bialgebra.py",
        """        if len(modes) > 1:
            raise ValueError("components mix exact and approximate scalars")
""",
        "",
        ("tests/test_algebra.py::test_direct_sum_takes_its_mode_from_its_components",),
    ),
    Mutant(
        "direct-sum-empty-is-approximate",
        "src/freebialg/bialgebra.py",
        "        exact = modes.pop() if modes else True",
        "        exact = modes.pop() if modes else False",
        ("tests/test_algebra.py::test_direct_sum_takes_its_mode_from_its_components",),
    ),
    Mutant(
        "scanner-peek-no-skip",
        "src/freebialg/text.py",
        """    def peek(self) -> str:
        self.skip_ws()
""",
        """    def peek(self) -> str:
""",
        ("tests/test_cli.py::test_parse_element_examples",),
    ),
    # -- the splitting kernel ``_split_syllables`` --
    Mutant(
        "split-no-reopen-pop",
        "src/freebialg/words.py",
        "                a, x = left.pop() if left else (0, 0)",
        "                a, x = (0, 0)",
        (REOPEN, LETTER_SPLIT),
    ),
    Mutant(
        "split-i-j-swapped",
        "src/freebialg/words.py",
        "            i, j = table[k]",
        "            j, i = table[k]",
        (LETTER_SPLIT,),
    ),
    Mutant(
        "split-table-bound-off-by-one",
        "src/freebialg/words.py",
        "    top = len(table)",
        "    top = len(table) + 1",
        (LETTER_SPLIT,),
    ),
    Mutant(
        "split-right-closed-with-left-exponent",
        "src/freebialg/words.py",
        "                right.append(rows[b][y] if",
        "                right.append(rows[b][x] if",
        (LETTER_SPLIT,),
    ),
    Mutant(
        "split-right-reopened-from-left",
        "src/freebialg/words.py",
        "                b, y = right.pop() if right else (0, 0)",
        "                b, y = left.pop() if left else (0, 0)",
        (REOPEN, LETTER_SPLIT),
    ),
    # -- the row products: ``words._times_row``, ``scalars._times_row`` and ``_row_pairs`` --
    Mutant(
        "word-row-seam-test-inverted",
        "src/freebialg/words.py",
        "        elif right[0][0] != g:",
        "        elif right[0][0] == g:",
        (WORD_ROW, PRODUCTS),
    ),
    Mutant(
        "word-row-unit-left-returns-itself",
        "src/freebialg/words.py",
        """    if not left:
        return row
    g = left[-1][0]""",
        """    if not left:
        return [w] * len(row)
    g = left[-1][0]""",
        (WORD_ROW, PRODUCTS),
    ),
    Mutant(
        "scalar-row-sign-swapped",
        "src/freebialg/scalars.py",
        "_new(a * x._a - b * x._b, a * x._b + b * x._a, d * x._d)",
        "_new(a * x._a + b * x._b, a * x._b + b * x._a, d * x._d)",
        (SCALAR_ROW, PRODUCTS),
    ),
    Mutant(
        "direct-sum-row-of-another-grade",
        "src/freebialg/algebra.py",
        "        row = rows.get(_grade(k1))",
        "        row = next(iter(rows.values()))",
        (PRODUCTS, "tests/test_algebra.py::test_products_whose_cross_terms_cancel"),
    ),
    Mutant(
        "tensor-slot-rows-reversed",
        "src/freebialg/algebra.py",
        "zip(zip(*map(_word_times_row, k1, labels)),",
        "zip(zip(*map(_word_times_row, k1, labels[::-1])),",
        (PRODUCTS,),
    ),
    Mutant(
        "corpus-scalar-parts-crossed",
        "src/freebialg/corpus.py",
        "QI._new(a * e, b * d, d * e)",
        "QI._new(a * d, b * e, d * e)",
        ("tests/test_scalars.py::test_random_exact_scalar_matches_the_fraction_construction",),
    ),
    # -- the tuple layout of ranks and words --
    Mutant(
        "word-plus-allowed",
        "src/freebialg/words.py",
        """    __add__, __radd__ = _refuse("+"), _refuse("+", True)
    __rmul__ = _refuse("*", True)""",
        """    __rmul__ = _refuse("*", True)""",
        ("tests/test_words.py::test_rank_and_word_arithmetic_is_refused",),
    ),
    Mutant(
        "rank-no-reduce",
        "src/freebialg/words.py",
        """    def __reduce__(self):
        return Rank, (self[0],)
""",
        "",
        ("tests/test_words.py::test_copies_are_equal_words_with_the_same_hash",),
    ),
    Mutant(
        "word-python-hash",
        "src/freebialg/words.py",
        """    __rmul__ = _refuse("*", True)

    def __repr__(self):
        return f"ReducedWord(""",
        """    __rmul__ = _refuse("*", True)

    def __hash__(self):
        return hash((self[0], self[1]))

    def __repr__(self):
        return f"ReducedWord(""",
        ("tests/test_words.py::test_words_and_ranks_hash_and_compare_in_c",),
    ),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests", "bench"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_mutant(mutant: Mutant) -> str:
    """The outcome of one mutant, one of ``OUTCOMES``; for an ``"error"``
    the tail of pytest's output goes to stderr."""
    source = (ROOT / mutant.path).read_text()
    if source.count(mutant.old) != 1:
        return "stale"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        _copy_tree(work)
        (work / mutant.path).write_text(source.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        try:
            done = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "killed"
    outcome = {0: "survived", 1: "killed"}.get(done.returncode, "error")
    if outcome == "error":
        tail = (done.stdout + done.stderr).decode(errors="replace").splitlines()[-5:]
        print(f"{mutant.name}: pytest exited {done.returncode}", *tail, sep="\n  ", file=sys.stderr)
    return outcome


def main() -> int:
    report: dict[str, list[str]] = {outcome: [] for outcome in OUTCOMES}
    for mutant in MUTANTS:
        report[run_mutant(mutant)].append(mutant.name)
    print(json.dumps(report, indent=2))
    return 0 if len(report["killed"]) == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
