"""Mutation checks for the argument gates, kept outside the test suite.

Each mutant is one exact text replacement in one file of ``src/``.  For each,
the runner copies ``src/``, ``tests/`` and ``pyproject.toml`` into a new
temporary directory, applies the replacement there and runs the mutant's
named tests with a timeout.  The mutant is *killed* when those tests fail (or
time out), *survived* when they pass, and *stale* when its old text does not
occur exactly once, so that it no longer says where it applies.  The repo
itself is never modified.

Run from anywhere, with the test dependencies installed::

    python tools/mutants.py

Each mutant's tests get ``TIMEOUT`` seconds.  The runner prints
``{"killed": [...], "survived": [...], "stale": [...]}`` as JSON and exits 1
when a mutant survived, 0 otherwise.
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
WORD_ARGUMENTS = "tests/test_reps.py::test_word_arguments_that_are_not_words_are_refused"


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
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_mutant(mutant: Mutant) -> str:
    """``"killed"``, ``"survived"`` or ``"stale"`` for one mutant."""
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
    return "survived" if done.returncode == 0 else "killed"


def main() -> int:
    report: dict[str, list[str]] = {"killed": [], "survived": [], "stale": []}
    for mutant in MUTANTS:
        report[run_mutant(mutant)].append(mutant.name)
    print(json.dumps(report, indent=2))
    return 1 if report["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
