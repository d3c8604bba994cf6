"""The three benchmark workloads.

Each workload is a closed loop: one operation at a time, the next starting
only when the previous one has returned.  A pass is a fixed list of
operations drawn from the workload seed; the benchmark times whole passes.
Inputs come from the benchmark's own ``random.Random`` seeded with the
workload name and seed, so the program sees only generated inputs.

* ``verify``: ``--seed s verify <suite>`` for the four suites, through the
  CLI.  Each pass uses its own seed ``s`` derived from the workload seed.
  Touches every layer with small inputs; word construction dominates and
  scalars see denominators 1 and 2.
* ``probe``: ``tensor-pd`` on F4 and F6, ``orbit`` and ``probe claims``
  through the CLI.  Bound by word construction, ``phi`` and hashing over
  large transient ball lists; no scalar arithmetic at all.
* ``algebra``: dense exact elements through the library API: products, a
  product of a product, ``star``, ``varphi_alg``, ``delta_phi`` and
  ``coassoc_check`` on ranks 12 and 24, and one ``delta`` CLI call on a
  large parsed element.  Bound by scalar arithmetic and hashing, with words
  as long-lived dict keys.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import oracle

SUITES = ("words", "bialgebra", "reps", "morphisms")
# Fixed radius per (n, m), so the work of a tensor-pd operation does not
# depend on which (i, j) the seed picks.
PD_RADIUS = {(2, 2): 5, (2, 3): 4, (3, 2): 4}
ORBIT_RADIUS = 5
CLAIMS_RADIUS = 4


def output_form(result):
    """What an operation printed: a CLI call's ``(code, text)`` and a
    boolean as they are, an element as its sorted JSON text."""
    if isinstance(result, (tuple, bool)):
        return result
    return json.dumps(result.to_json(), sort_keys=True)


class Workload:
    """A seeded list of operations on one program instance.

    ``ops(k)`` gives pass ``k`` as ``(label, callable)`` pairs; ``check``
    is the oracle for one output.
    """

    name = ""
    work_unit = ""  # what `work_per_s` counts on this workload

    def __init__(self, program, seed: int):
        self.program = program
        self.rng = random.Random(f"{self.name}:{seed}")

    def ops(self, k: int) -> list[tuple[str, object]]:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def check(self, label: str, result) -> list[str]:
        raise NotImplementedError

    def work(self, k: int) -> int:
        """Units of work in pass ``k``, the numerator of ``work_per_s``."""
        raise NotImplementedError

    def expected_scanned(self, label: str) -> int | None:
        """Ball words plus orbit pairs the operation must scan, where the
        workload fixes it in closed form."""
        return None

    def json_bytes(self, results) -> int:
        """Bytes the CLI operations of a pass printed; they return (code, text)."""
        return sum(len(r[1]) for r in results if isinstance(r, tuple))

    def _cli(self, argv: list[str]):
        run = self.program.cli_run
        return lambda: run(argv)


class Verify(Workload):
    name = "verify"
    work_unit = "cases_per_s"
    SEEDS_PER_RUN = 16

    def __init__(self, program, seed: int):
        super().__init__(program, seed)
        self.seeds = [self.rng.randrange(2**31) for _ in range(self.SEEDS_PER_RUN)]
        self.orders = []
        for _ in self.seeds:
            order = list(SUITES)
            self.rng.shuffle(order)
            self.orders.append(order)

    def ops(self, k):
        idx = k % self.SEEDS_PER_RUN
        s = self.seeds[idx]
        return [
            (f"verify {suite} seed={s}", self._cli(["--seed", str(s), "verify", suite]))
            for suite in self.orders[idx]
        ]

    def warm_up(self):
        self.program.cli_run(["delta", "F6: g2"])

    def check(self, label, result):
        _, suite, seed = label.split()
        code, text = result
        return oracle.check_verify(suite, int(seed.split("=")[1]), code, json.loads(text))

    def work(self, k):
        return sum(w["checked"] for w in oracle.VERIFY_EXPECTED.values() if w and "checked" in w)


class Probe(Workload):
    name = "probe"
    work_unit = "words_per_s"

    def __init__(self, program, seed: int):
        super().__init__(program, seed)
        argvs = []
        for (n, m), radius in PD_RADIUS.items():
            i, j = self.rng.randint(1, n), self.rng.randint(1, m)
            argvs.append(["tensor-pd", str(n), str(m), str(i), str(j), "--radius", str(radius)])
        argvs.append(["orbit", "2", "2", "--radius", str(ORBIT_RADIUS)])
        argvs.append(["probe", "claims", "--radius", str(CLAIMS_RADIUS)])
        self.rng.shuffle(argvs)
        self.argvs = argvs

    def ops(self, k):
        return [(" ".join(a), self._cli(a)) for a in self.argvs]

    def warm_up(self):
        for argv in (["tensor-pd", "2", "2", "1", "1", "--radius", "2"], ["orbit", "2", "2", "--radius", "2"]):
            self.program.cli_run(argv)

    def check(self, label, result):
        code, text = result
        fails = [f"{label}: exit code {code}"] if code else []
        report = json.loads(text)
        argv = label.split()
        if argv[0] == "tensor-pd":
            n, m, i, j, radius = (int(x) for x in argv[1:5] + argv[6:7])
            return fails + oracle.check_tensor_pd(n, m, i, j, radius, report)
        if argv[0] == "orbit":
            return fails + oracle.check_orbit(int(argv[1]), int(argv[2]), int(argv[4]), report)
        return fails + oracle.check_probe_claims(int(argv[3]), report)

    @staticmethod
    def scanned(argv: list[str]) -> int:
        """Ball words plus orbit pairs one operation covers, in closed form."""
        if argv[0] == "tensor-pd":
            return oracle.ball_size(int(argv[1]) * int(argv[2]), int(argv[6]))
        if argv[0] == "orbit":
            return oracle.ORBIT_SIZES[(2, 2, int(argv[4]))]
        r = int(argv[3])
        return 4 * oracle.ball_size(4, r) + 6 * oracle.ball_size(6, r) + oracle.ORBIT_SIZES[(2, 2, r)]

    def expected_scanned(self, label):
        # `probe claims` scans through several CLI-internal loops, so only
        # the single-ball operations are held to their closed form
        argv = label.split()
        return self.scanned(argv) if argv[0] in ("tensor-pd", "orbit") else None

    def work(self, k):
        return sum(self.scanned(argv) for argv in self.argvs)


# -- algebra ----------------------------------------------------------------------


def _random_word(rng: random.Random, k: int, length: int) -> tuple:
    """A reduced word of the given length by a non-backtracking walk."""
    out: tuple = ()
    while oracle.word_len(out) < length:
        g, e = rng.randint(1, k), rng.choice((1, -1))
        if out and out[-1][0] == g and (out[-1][1] > 0) != (e > 0):
            continue
        out = oracle.word_mul(out, ((g, e),))
    return out


def _random_scalar(rng: random.Random) -> tuple:
    """A nonzero Gaussian rational with denominators up to 7."""
    while True:
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        im = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        if re or im:
            return re, im


def _random_element(rng: random.Random, k: int, radius: int, terms: int) -> dict:
    """``terms`` distinct words of the radius-``radius`` ball of ``F_k``,
    with random exact coefficients."""
    out: dict = {}
    while len(out) < terms:
        w = _random_word(rng, k, rng.randint(0, radius))
        if w not in out:
            out[w] = _random_scalar(rng)
    return out


def _element_text(rank: int, element: dict) -> str:
    """The element in the CLI's grammar, one ``(re+im i)*word`` term each."""
    parts = []
    for w, (re, im) in element.items():
        word = "*".join(f"g{g}^{e}" for g, e in w) or "1"
        sign = "+" if im >= 0 else "-"
        parts.append(f"({re}{sign}{abs(im)}i)*{word}")
    return f"F{rank}: " + " + ".join(parts)


class Algebra(Workload):
    name = "algebra"
    work_unit = "term_pairs_per_s"

    def __init__(self, program, seed: int):
        super().__init__(program, seed)
        rng = self.rng
        # name -> (rank, {word: scalar}); each element draws a term count of
        # distinct words from a ball of the given radius
        self.own = {
            "a": (4, _random_element(rng, 4, 3, 40)),
            "b": (4, _random_element(rng, 4, 3, 40)),
            "c": (4, _random_element(rng, 4, 3, 24)),
            "d": (6, _random_element(rng, 6, 3, 40)),
            "e": (6, _random_element(rng, 6, 3, 40)),
            "x12": (12, _random_element(rng, 12, 2, 40)),
            "x24": (24, _random_element(rng, 24, 2, 40)),
            "y": (12, _random_element(rng, 12, 3, 150)),
        }
        self.el = {name: self._to_program(rank, terms) for name, (rank, terms) in self.own.items()}
        bialgebra = program.bialgebra
        self.x = bialgebra.DirectSumElement({12: self.el["x12"], 24: self.el["x24"]})
        self.delta_argv = ["delta", _element_text(12, self.own["y"][1])]
        self._expected = None

    def _to_program(self, rank: int, terms: dict):
        p = self.program
        return p.algebra.AlgebraElement(
            rank,
            {p.words.reduce(rank, w): p.scalars.QI(re, im) for w, (re, im) in terms.items()},
        )

    def ops(self, k):
        p, el = self.program, self.el
        box = {}

        def product():
            box["p"] = el["a"] * el["b"]
            return box["p"]

        return [
            ("a*b", product),
            ("(a*b)*c", lambda: box["p"] * el["c"]),
            ("d*e", lambda: el["d"] * el["e"]),
            ("star(a*b)", lambda: box["p"].star()),
            ("varphi_alg(2,2,a*b)", lambda: p.algebra.varphi_alg(2, 2, box["p"])),
            ("delta_phi(x)", lambda: p.bialgebra.delta_phi(self.x)),
            ("coassoc_check(x)", lambda: p.bialgebra.coassoc_check(self.x)[2]),
            ("delta cli", self._cli(self.delta_argv)),
        ]

    def warm_up(self):
        p = self.program
        small = self._to_program(4, {((1, 1),): (Fraction(1, 3), Fraction(1))})
        p.bialgebra.coassoc_check(p.bialgebra.DirectSumElement.from_algebra(small * small))
        p.cli_run(["delta", "F4: (1/3+1i)*g1"])

    def expected(self) -> dict:
        """Own results of every library operation, computed once."""
        if self._expected is None:
            own = {name: terms for name, (_, terms) in self.own.items()}
            p = oracle.convolve(own["a"], own["b"])
            self._expected = {
                "a*b": p,
                "(a*b)*c": oracle.convolve(p, own["c"]),
                "d*e": oracle.convolve(own["d"], own["e"]),
                "star(a*b)": oracle.star(p),
                "varphi_alg(2,2,a*b)": oracle.split_linear(2, 2, p),
                "delta_phi(x)": oracle.delta({12: own["x12"], 24: own["x24"]}),
                "delta cli": oracle.delta({12: own["y"]}),
            }
            self._expected_text = {label: oracle.as_text(want) for label, want in self._expected.items()}
        return self._expected

    def check(self, label, result):
        want = self.expected()
        if label == "coassoc_check(x)":
            return [] if result is True else [f"{label}: returned {result!r}"]
        if label == "delta cli":
            return self._check_delta_cli(result)
        if label == "delta_phi(x)":
            read = oracle.from_delta_json
        elif label.startswith("varphi"):
            read = oracle.from_tensor_json
        else:
            read = oracle.from_element_json
        return oracle.compare_json(label, read, result.to_json(), want[label], self._expected_text[label])

    def _check_delta_cli(self, result) -> list[str]:
        code, text = result
        fails = [f"delta cli: exit code {code}"] if code else []
        report = json.loads(text)
        b = self.program.bialgebra
        direct = b.delta_phi(b.DirectSumElement.from_algebra(self.el["y"]))
        if report.get("result") != direct.to_json():
            fails.append("delta cli: JSON differs from delta_phi(...).to_json()")
        if report.get("canonical") != str(direct) or report.get("input") != str(self.el["y"]):
            fails.append("delta cli: canonical or input text differs from the direct route")
        want, want_text = self.expected()["delta cli"], self._expected_text["delta cli"]
        return fails + oracle.compare_json("delta cli", oracle.from_delta_json, report["result"], want, want_text)

    def work(self, k):
        """Term pairs multiplied plus terms pushed through splitting maps."""
        want = self.expected()
        size = {name: len(terms) for name, (_, terms) in self.own.items()}
        pairs = size["a"] * size["b"] + len(want["a*b"]) * size["c"] + size["d"] * size["e"]
        fp = lambda n: len(oracle.factor_pairs(n))
        split_x = size["x12"] * fp(12) + size["x24"] * fp(24)
        # coassoc_check splits x once, then each slot of every component
        slots = sum(len(t) * (fp(m) + fp(l)) for (m, l), t in want["delta_phi(x)"].items())
        splits = len(want["a*b"]) + 2 * split_x + slots + size["y"] * fp(12)
        return pairs + splits


WORKLOADS = {cls.name: cls for cls in (Verify, Probe, Algebra)}
