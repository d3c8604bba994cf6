"""Command-line front end.

Subcommands evaluate the coproduct machinery on parsed elements, run the
named verification suites, and run the claim probes.  Output is JSON by
default (byte-identical across identical invocations, including the seed)
or ``--format text`` for reading; timings appear only in text output so the
JSON stays deterministic.

Exit codes: 0 all asserted checks verified (or probe completed), 1 an
asserted invariant failed, 2 usage error.  Probe disagreements are findings,
not failures, and do not affect the exit code.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import time
from collections.abc import Callable

from . import bialgebra, morphisms, reps, words
from .algebra import DEFAULT_TOL, AlgebraElement, standard_delta_compat_check, varphi_alg
from .bialgebra import (
    DirectSumElement,
    coassoc_check,
    counit,
    counit_axiom_check,
    counit_check,
    delta_phi,
    verify_cancellation,
    wcs_check,
)
from .corpus import random_direct_sum, random_reduced_word
from .text import ParseError, parse_element, parse_word
from .words import _rank, enumerate_ball, gen, kernel_witness, unit

FORMATS = ("json", "text")


def _add_common(parser, suppress: bool) -> None:
    # registered on the root with real defaults and on every subcommand with
    # SUPPRESS defaults, so the flags are accepted in either position and a
    # post-subcommand value wins
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default=default if suppress else "json",
    )
    parser.add_argument("--seed", type=int, default=default if suppress else 0)
    parser.add_argument("--tol", type=float, default=default if suppress else DEFAULT_TOL)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="freebialg",
        description="exact computations in the graded free-group bialgebra",
    )
    _add_common(p, suppress=False)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help):
        child = sub.add_parser(name, help=help)
        _add_common(child, suppress=True)
        return child

    d = command("delta", "print the coproduct of an element")
    d.add_argument("element")

    c = command("counit", "print the counit of an element")
    c.add_argument("element")

    ph = command("phi", "split a word of composite rank")
    ph.add_argument("n", type=int)
    ph.add_argument("m", type=int)
    ph.add_argument("word")

    tp = command("tensor-pd", "probe the indicator tensor formula")
    tp.add_argument("n", type=int)
    tp.add_argument("m", type=int)
    tp.add_argument("i", type=int)
    tp.add_argument("j", type=int)
    tp.add_argument("--radius", type=int, default=4)

    ob = command("orbit", "enumerate the pair orbit of (1,1)")
    ob.add_argument("n", type=int)
    ob.add_argument("m", type=int)
    ob.add_argument("--radius", type=int, default=4)
    ob.add_argument("--find", default=None, metavar="PAIR")

    v = command("verify", "run a verification suite")
    v.add_argument("suite", nargs="?", default="all", metavar="SUITE")

    pr = command("probe", "run the claim probes")
    pr.add_argument("what", nargs="?", default="claims")
    pr.add_argument("--radius", type=int, default=4)

    return p


# -- check registry ------------------------------------------------------------

# claim id -> fn(rng, tol) returning (ok, witness); suite "<name>" is every
# claim whose id starts with "<name>."
CHECKS: dict[str, Callable[[random.Random, float], tuple[bool, object]]] = {}


def _check(claim: str):
    """Register ``fn(rng, tol) -> (ok, witness)`` as the check of ``claim``."""

    def register(fn):
        CHECKS[claim] = fn
        return fn

    return register


def _counted(claim: str):
    """Register a generator ``fn(rng, tol)`` of ``(ok, payload)`` as the check
    of ``claim``; the check reports the count or the first failing payload."""

    def register(cases):
        def check(rng, tol):
            count = 0
            for ok, payload in cases(rng, tol):
                if not ok:
                    return False, {"counterexample": payload}
                count += 1
            return True, {"checked": count}

        CHECKS[claim] = check
        return cases

    return register


def _run_checks(claims, seed: int, tol: float) -> list[dict]:
    """Run the registered checks of ``claims`` in the order given.

    Each check gets its own random stream seeded by ``(seed, claim)``, so its
    corpus does not depend on which other checks run or in what order.  Each
    result carries the check's run time under the private key
    ``_elapsed_text_only``, which the JSON output leaves out.
    """
    results = []
    for claim in claims:
        started = time.monotonic()
        ok, witness = CHECKS[claim](random.Random(f"{seed}:{claim}"), tol)
        results.append(
            {
                "claim": claim,
                "status": "verified" if ok else "failed",
                "witness": witness,
                "_elapsed_text_only": time.monotonic() - started,
            }
        )
    return results


def _generators(max_rank: int):
    """``(n, k)`` for every generator ``g_k`` of every rank ``n <= max_rank``."""
    for n in range(1, max_rank + 1):
        for k in range(1, n + 1):
            yield n, k


def _kernel_words():
    """Every kernel witness ``x(i,l;j,k)`` of ``phi(n, m, .)`` for ``n, m`` in
    ``{2, 3}``, with its indices ``(n, m, i, l, j, k)``."""
    for n, m in itertools.product((2, 3), repeat=2):
        n_gens, m_gens = range(1, n + 1), range(1, m + 1)
        for i, l, j, k in itertools.product(n_gens, n_gens, m_gens, m_gens):
            yield (n, m, i, l, j, k), kernel_witness(n, m, i, l, j, k)


@_counted("words.reduction-laws")
def _reduction_laws(rng, tol):
    for _ in range(300):
        n = rng.randint(1, 4)
        w = random_reduced_word(rng, n, 6)
        v = random_reduced_word(rng, n, 6)
        u = random_reduced_word(rng, n, 6)
        assoc = (w * v) * u == w * (v * u)
        inv = (w * w.inverse()).is_unit
        idem = words.reduce(w.ambient, w.syllables) == w
        yield assoc and inv and idem, str(w)


@_counted("words.phi-homomorphism")
def _phi_homomorphism(rng, tol):
    for _ in range(300):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        z1 = random_reduced_word(rng, n * m, 6)
        z2 = random_reduced_word(rng, n * m, 6)
        p, q = words.phi(n, m, z1 * z2)
        p1, q1 = words.phi(n, m, z1)
        p2, q2 = words.phi(n, m, z2)
        yield (p == p1 * p2 and q == q1 * q2), f"{z1} , {z2}"


@_counted("words.kernel-witnesses")
def _kernel_witnesses(rng, tol):
    for (n, m, i, l, j, k), w in _kernel_words():
        p, q = words.phi(n, m, w)
        # the witness is the unit exactly when i == l or j == k
        ok = p.is_unit and q.is_unit and w.is_unit == (i == l or j == k)
        yield ok, f"x({i},{l};{j},{k}) n={n} m={m}"


@_counted("words.lift-constructions")
def _lift_constructions(rng, tol):
    for _ in range(300):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        x = random_reduced_word(rng, n, 5)
        y, z = words.lift_first(x, m)
        p, q = words.phi(n, m, z)
        in_b1 = all(s.gen == 1 for s in y.syllables)
        yield (p == x and q == y and in_b1), f"lift_first {x}"
        yb = random_reduced_word(rng, m, 5)
        xb, zb = words.lift_second(yb, n)
        pb, qb = words.phi(n, m, zb)
        yield (pb == xb and qb == yb), f"lift_second {yb}"


@_counted("words.cancellation-witnesses")
def _cancellation_witnesses(rng, tol):
    for n in (1, 2):
        for m in (1, 2):
            for x in enumerate_ball(n, 3):
                for y in enumerate_ball(m, 3):
                    yield verify_cancellation(x, y), f"({x},{y})"
    for _ in range(100):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        x = random_reduced_word(rng, n, 5)
        y = random_reduced_word(rng, m, 5)
        yield verify_cancellation(x, y), f"({x},{y})"


@_counted("bialgebra.coassociativity")
def _coassociativity(rng, tol):
    for n, k in _generators(24):
        yield coassoc_check(DirectSumElement.from_word(gen(n, k)))[2], f"g{k} in F{n}"
    for _ in range(200):
        x = random_direct_sum(rng, max_rank=12, max_len=5)
        yield coassoc_check(x)[2], str(x)


@_counted("bialgebra.counit-law")
def _counit_law(rng, tol):
    for n, k in _generators(24):
        yield counit_check(DirectSumElement.from_word(gen(n, k))), f"g{k} in F{n}"
    for _ in range(200):
        x = random_direct_sum(rng, max_rank=12, max_len=5)
        yield counit_check(x), str(x)


@_counted("bialgebra.wcs-axioms")
def _wcs_axioms(rng, tol):
    for n in range(1, 5):
        for m in range(1, 5):
            for l in range(1, 5):
                for k in range(1, n * m * l + 1):
                    yield wcs_check(n, m, l, gen(n * m * l, k)), f"({n},{m},{l}) g{k}"
    for n, k in _generators(12):
        yield counit_axiom_check(n, gen(n, k)), f"counit axiom g{k} F{n}"


@_counted("bialgebra.kernel-identity")
def _kernel_identity(rng, tol):
    for (n, m, i, l, j, k), w in _kernel_words():
        el = AlgebraElement.from_word(w) - AlgebraElement.unit(n * m)
        yield varphi_alg(n, m, el).is_zero, f"x({i},{l};{j},{k})"


@_check("bialgebra.noncocommutativity")
def _noncocommutativity(rng, tol):
    t = delta_phi(DirectSumElement.from_word(gen(6, 2)))
    ok = t.flip() != t and t.term_count() == 4
    return ok, {"summands": t.term_count()}


@_counted("bialgebra.comodule")
def _comodule(rng, tol):
    for k in range(1, 25):
        for n in range(1, 4):
            for m in range(1, 4):
                w = gen(words.INFINITE, k)
                yield bialgebra.comodule_check(n, m, w), f"g{k} n={n} m={m}"


@_counted("bialgebra.unitization")
def _unitization(rng, tol):
    for _ in range(100):
        a, b = (
            bialgebra.UnitizedElement(random_direct_sum(rng, max_rank=6, max_len=3), rng.randint(-2, 2))
            for _ in range(2)
        )
        lhs = bialgebra.unitized_delta(a * b)
        rhs = bialgebra.unitized_tensor_mul(
            bialgebra.unitized_delta(a), bialgebra.unitized_delta(b)
        )
        mult_ok = lhs[0] == rhs[0] and lhs[1] == rhs[1]
        eps_ok = bialgebra.unitized_counit(a * b) == bialgebra.unitized_counit(
            a
        ) * bialgebra.unitized_counit(b)
        yield mult_ok and eps_ok, str(a)


@_counted("bialgebra.standard-delta-compat")
def _standard_delta_compat(rng, tol):
    for n in range(1, 5):
        for m in range(1, 5):
            for k in range(1, n * m + 1):
                a = AlgebraElement.from_word(gen(n * m, k))
                yield standard_delta_compat_check(n, m, a), f"g{k} ({n},{m})"


@_counted("reps.gns-coefficients")
def _gns_coefficients(rng, tol):
    for n in (2, 3):
        ball = enumerate_ball(n, 4)
        for i in range(1, n + 1):
            for w in ball:
                yield reps.gns_coeff_check(n, i, w), f"F{n} i={i} {w}"


@_counted("reps.fixed-vectors")
def _fixed_vectors(rng, tol):
    for n in (2, 3):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                want = 1 if i == j else 0
                got = reps.fixed_vector_dim(n, i, j, 3)
                yield got == want, f"F{n} i={i} j={j} got={got}"


@_counted("reps.cyclicity")
def _cyclicity(rng, tol):
    ball = enumerate_ball(2, 3)
    for i in (1, 2):
        for j in (1, 2):
            for x in ball:
                for y in ball:
                    yield reps.cyclicity_check(2, 2, i, j, x, y), f"i={i} j={j} ({x},{y})"


@_counted("reps.intertwiner")
def _intertwiner(rng, tol):
    for _ in range(200):
        x = random_reduced_word(rng, 2, 4)
        h = random_reduced_word(rng, 4, 4)
        g = random_reduced_word(rng, 4, 4)
        yield reps.intertwine_check(2, 2, x, h, g), f"({x},{h},{g})"


@_counted("reps.gram-psd")
def _gram_psd(rng, tol):
    for n in (2, 3):
        ball = enumerate_ball(n, 2)
        for i in range(1, n + 1):
            mn, ok = reps.gram_psd(reps.PDFunction(n, i), ball, tol)
            yield ok, f"f{i} F{n} min={mn}"
    ball4 = enumerate_ball(4, 2)
    for i in (1, 2):
        for j in (1, 2):
            ev = lambda z, i=i, j=j: reps.f_pullback_eval(2, i, 2, j, z)
            mn, ok = reps.gram_psd(ev, ball4, tol)
            yield ok, f"pullback i={i} j={j} min={mn}"


@_counted("reps.action-laws")
def _action_laws(rng, tol):
    for _ in range(200):
        n = rng.randint(2, 3)
        i = rng.randint(1, n)
        x = random_reduced_word(rng, n, 4)
        y = random_reduced_word(rng, n, 4)
        basis = reps.CosetBasis(n, i)
        v = reps.SuppVector.basis_vector(
            basis, reps.coset_normal_form(n, i, random_reduced_word(rng, n, 3))
        )
        composed = reps.L_action(n, i, x, reps.L_action(n, i, y, v))
        direct = reps.L_action(n, i, x * y, v)
        yield composed == direct, f"L F{n}/<g{i}> {x},{y}"
        gb = reps.GroupBasis(n)
        u = reps.SuppVector.basis_vector(gb, random_reduced_word(rng, n, 3))
        lam_ok = reps.lambda_action(n, x, reps.lambda_action(n, y, u)) == reps.lambda_action(n, x * y, u)
        yield lam_ok, f"lambda F{n} {x},{y}"


@_counted("morphisms.beta-morphism")
def _beta_morphism(rng, tol):
    endo = morphisms.beta_endo()
    for n, k in _generators(24):
        x = DirectSumElement.from_word(gen(n, k))
        yield morphisms.bialgebra_morphism_check(endo, x, tol), f"g{k} F{n}"


@_counted("morphisms.beta-involution")
def _beta_involution(rng, tol):
    for _ in range(100):
        x = random_direct_sum(rng, max_rank=12, max_len=5)
        yield morphisms.beta(morphisms.beta(x)) == x, str(x)


@_counted("morphisms.alpha-morphism")
def _alpha_morphism(rng, tol):
    for t in (0.3, 1.0, 2.5):
        endo = morphisms.alpha_endo(t)
        for n, k in _generators(12):
            x = DirectSumElement.from_word(gen(n, k))
            yield morphisms.bialgebra_morphism_check(endo, x, tol), f"t={t} g{k} F{n}"


@_check("morphisms.group-laws")
def _group_laws(rng, tol):
    report = morphisms.group_law_checks(tol=tol)
    return report["status"] == "verified", report


SUITE_NAMES = (*dict.fromkeys(claim.partition(".")[0] for claim in CHECKS), "all")


# -- probes -------------------------------------------------------------------


def _pd_report(n: int, m: int, i: int, j: int, radius: int) -> dict:
    found = reps.claim_probe_pd(n, m, i, j, radius)
    return {
        "claim": "prop-indicator-tensor",
        "params": {"n": n, "m": m, "i": i, "j": j},
        "radius": radius,
        "disagreements": [
            {"z": z.to_json(), "pullback": pb, "direct": dv} for z, pb, dv in found
        ],
    }


def _probe_reports(radius: int) -> list[dict]:
    reports = [
        _pd_report(n, m, i, j, radius)
        for n, m in ((2, 2), (2, 3))
        for i in range(1, n + 1)
        for j in range(1, m + 1)
    ]
    start = (unit(2), unit(2))
    orbit = reps.orbit_bfs(2, 2, start, radius)
    collision = parse_word("g1*g2*g1^-1*g2^-1", 2)
    found_pair = (collision, unit(2)) in orbit
    reports.append(
        {
            "claim": "prop-orbit-separation",
            "params": {"n": 2, "m": 2},
            "radius": radius,
            "disagreements": (
                [{"pair": [collision.to_json(), []], "note": "nontrivial first slot reaches (1,1) orbit"}]
                if found_pair
                else []
            ),
            "orbit_size": len(orbit),
        }
    )
    kw = kernel_witness(2, 2, 1, 2, 1, 2)
    same = reps.U_map(2, 2, unit(2), kw) == reps.U_map(2, 2, unit(2), unit(4))
    reports.append(
        {
            "claim": "prop-intertwiner-injectivity",
            "params": {"n": 2, "m": 2},
            "radius": radius,
            "disagreements": (
                [{"z": kw.to_json(), "note": "distinct basis words share an image"}]
                if same
                else []
            ),
        }
    )
    return sorted(reports, key=lambda r: (r["claim"], json.dumps(r["params"], sort_keys=True)))


# -- command handlers ----------------------------------------------------------


def _requested_format(argv: list[str]) -> str:
    # the output format of an argv the full parser rejected: read the
    # --format flag alone, wherever it stands, and fall back to JSON
    root = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    root.add_argument("--format", choices=FORMATS, default="json")
    try:
        return root.parse_known_args(argv)[0].format
    except argparse.ArgumentError:
        return "json"


def run(argv: list[str]) -> tuple[dict, int]:
    """Execute one invocation; return the report dict and the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help has printed its text
            raise
        return {"error": "usage", "_format": _requested_format(argv)}, 2

    def done(report, code):
        report["_format"] = args.format
        return report, code

    try:
        if args.command == "delta":
            el = parse_element(args.element)
            t = delta_phi(DirectSumElement.from_algebra(el))
            return done(
                {
                    "command": "delta",
                    "input": str(el),
                    "canonical": str(t),
                    "result": t.to_json(),
                },
                0,
            )

        if args.command == "counit":
            el = parse_element(args.element)
            value = counit(DirectSumElement.from_algebra(el))
            return done(
                {
                    "command": "counit",
                    "input": str(el),
                    "canonical": str(value),
                    "result": value.to_json(),
                },
                0,
            )

        if args.command == "phi":
            w = parse_word(args.word, _rank(args.n * args.m))
            p, q = words.phi(args.n, args.m, w)
            return done(
                {
                    "command": "phi",
                    "canonical": f"({p}, {q})",
                    "result": {"first": p.to_json(), "second": q.to_json()},
                },
                0,
            )

        if args.command == "tensor-pd":
            return done(_pd_report(args.n, args.m, args.i, args.j, args.radius), 0)

        if args.command == "orbit":
            pair = None
            if args.find is not None:
                if "," not in args.find:
                    raise ValueError(f"--find expects a pair LEFT,RIGHT, got {args.find!r}")
                left, _, right = args.find.partition(",")
                pair = (
                    parse_word(left.strip(), _rank(args.n)),
                    parse_word(right.strip(), _rank(args.m)),
                )
            start = (unit(args.n), unit(args.m))
            orbit = reps.orbit_bfs(args.n, args.m, start, args.radius)
            report = {
                "command": "orbit",
                "params": {"n": args.n, "m": args.m},
                "radius": args.radius,
                "count": len(orbit),
            }
            if pair is not None:
                report["found"] = pair in orbit
            return done(report, 0)

        if args.command == "verify":
            name = args.suite
            if name not in SUITE_NAMES:
                return done({"error": f"unknown suite {name!r}"}, 2)
            started = time.monotonic()
            claims = sorted(c for c in CHECKS if name == "all" or c.startswith(name + "."))
            results = _run_checks(claims, args.seed, args.tol)
            elapsed = time.monotonic() - started
            ok = all(r["status"] == "verified" for r in results)
            report = {
                "command": "verify",
                "suite": name,
                "seed": args.seed,
                "results": results,
                "status": "verified" if ok else "failed",
            }
            # run times vary from run to run, so only the text output shows them
            report["_elapsed_text_only"] = {
                "total": elapsed,
                "checks": [r.pop("_elapsed_text_only") for r in results],
            }
            return done(report, 0 if ok else 1)

        if args.command == "probe":
            if args.what != "claims":
                return done({"error": f"unknown probe target {args.what!r}"}, 2)
            return done(
                {
                    "command": "probe",
                    "radius": args.radius,
                    "reports": _probe_reports(args.radius),
                },
                0,
            )
    except (ParseError, ValueError) as exc:
        return done({"error": str(exc)}, 2)

    return done({"error": "usage"}, 2)


def _probe_line(r: dict) -> str:
    params = json.dumps(r["params"], sort_keys=True)
    return f"{r['claim']} {params}: {len(r['disagreements'])} disagreement(s)"


def _render_text(report: dict) -> str:
    lines = []
    if "error" in report:
        return f"error: {report['error']}"
    cmd = report.get("command")
    if cmd in ("delta", "counit", "phi"):
        return report["canonical"]
    if cmd == "verify":
        elapsed = report["_elapsed_text_only"]
        for r, secs in zip(report["results"], elapsed["checks"]):
            mark = "ok" if r["status"] == "verified" else "FAILED"
            witness = json.dumps(r["witness"], default=str)
            lines.append(f"[{mark}] {r['claim']}  {witness}  ({secs:.2f}s)")
        lines.append(f"suite {report['suite']}: {report['status']}")
        lines.append(f"elapsed: {elapsed['total']:.2f}s")
        return "\n".join(lines)
    if cmd == "probe":
        return "\n".join(_probe_line(r) for r in report["reports"])
    if cmd == "orbit":
        base = f"orbit size {report['count']} at radius {report['radius']}"
        if "found" in report:
            base += f", found={report['found']}"
        return base
    if "claim" in report:  # single probe report (tensor-pd)
        lines.append(f"{_probe_line(report)} at radius {report['radius']}")
        for d in report["disagreements"]:
            lines.append(f"  z={d['z']} pullback={d['pullback']} direct={d['direct']}")
        return "\n".join(lines)
    public = {k: v for k, v in report.items() if not k.startswith("_")}
    return json.dumps(public, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    report, code = run(sys.argv[1:] if argv is None else argv)
    fmt = report.get("_format", "json")
    if fmt == "text":
        print(_render_text(report))
    else:
        report = {k: v for k, v in report.items() if not k.startswith("_")}
        print(json.dumps(report, sort_keys=True))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
