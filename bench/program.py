"""Fresh import of the program under test from the checkout's ``src``."""

from __future__ import annotations

import importlib
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("scalars", "words", "algebra", "bialgebra", "reps", "morphisms", "corpus", "text", "cli")


def loaded_modules() -> dict:
    """The ``freebialg`` modules in ``sys.modules``, by name."""
    return {n: m for n, m in sys.modules.items() if n == "freebialg" or n.startswith("freebialg.")}


class Program:
    """The freebialg package and its modules, imported from scratch.

    Each construction drops every ``freebialg`` module from ``sys.modules``
    first, so the import (and any work a module does at import time) is
    paid again; the benchmark counts it in set-up time.
    """

    def __init__(self):
        if not (SRC / "freebialg" / "__init__.py").is_file():
            raise FileNotFoundError(f"no freebialg sources under {SRC}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        for name in loaded_modules():
            del sys.modules[name]
        importlib.invalidate_caches()
        self.pkg = importlib.import_module("freebialg")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"freebialg.{name}"))

    def modules(self) -> list:
        return [self.pkg] + [getattr(self, name) for name in MODULES]

    def cli_run(self, argv: list[str]) -> tuple[int, str]:
        """Run one CLI invocation in-process; return its exit code and stdout."""
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.cli.main(list(argv))
        return code, buf.getvalue()
