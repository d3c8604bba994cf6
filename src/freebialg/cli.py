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
import functools
import itertools
import json
import math
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
from .words import _check_index, _rank, ball_size, enumerate_ball, gen, kernel_witness, unit

FORMATS = ("json", "text")


def tolerance(text: str) -> float:
    """A ``--tol`` value: finite and ``>= 0``, so that ``abs(a - b) > tol`` can fail."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return value


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
    parser.add_argument("--tol", type=tolerance, default=default if suppress else DEFAULT_TOL)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="freebialg",
        description="exact computations in the graded free-group bialgebra",
    )
    _add_common(p, suppress=False)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help, handler):
        child = sub.add_parser(name, help=help)
        _add_common(child, suppress=True)
        child.set_defaults(handler=handler)
        return child

    command("delta", "print the coproduct of an element", _delta).add_argument("element")
    command("counit", "print the counit of an element", _counit).add_argument("element")

    ph = command("phi", "split a word of composite rank", _phi)
    ph.add_argument("n", type=int)
    ph.add_argument("m", type=int)
    ph.add_argument("word")

    tp = command("tensor-pd", "probe the indicator tensor formula", _tensor_pd)
    tp.add_argument("n", type=int)
    tp.add_argument("m", type=int)
    tp.add_argument("i", type=int)
    tp.add_argument("j", type=int)
    tp.add_argument("--radius", type=int, default=4)

    ob = command("orbit", "enumerate the pair orbit of (1,1)", _orbit)
    ob.add_argument("n", type=int)
    ob.add_argument("m", type=int)
    ob.add_argument("--radius", type=int, default=4)
    find_help = "report whether PAIR lies in the orbit within --radius"
    ob.add_argument("--find", metavar="PAIR", help=find_help)

    v = command("verify", "run a verification suite", _verify)
    v.add_argument("suite", nargs="?", default="all", metavar="SUITE")

    pr = command("probe", "run the claim probes", _probe)
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
    """Register a generator ``fn(rng, tol)`` of ``(ok, case)`` as the check of
    ``claim``, where ``case`` is the tuple of the case's inputs.  The check
    reports the number of cases or, for the first failing case, ``{"case": k,
    "counterexample": inputs}``: ``k`` cases came before it, so the seed, the
    claim and ``k`` name it for a rerun; ints and floats stay JSON numbers and
    any other input becomes its ``str``."""

    def register(cases):
        def check(rng, tol):
            count = 0
            for ok, case in cases(rng, tol):
                if not ok:
                    inputs = [x if type(x) in (int, float) else str(x) for x in case]
                    return False, {"case": count, "counterexample": inputs}
                count += 1
            return True, {"checked": count}

        _check(claim)(check)
        return cases

    return register


def _run_checks(claims, seed: int, tol: float) -> list[dict]:
    """Run the registered checks of ``claims`` in the order given.

    Each check gets its own random stream seeded by ``(seed, claim)``, so its
    corpus does not depend on which other checks run or in what order.
    """
    results = []
    for claim in claims:
        ok, witness = CHECKS[claim](random.Random(f"{seed}:{claim}"), tol)
        status = "verified" if ok else "failed"
        results.append({"claim": claim, "status": status, "witness": witness})
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
        yield assoc and inv and idem, (n, w, v, u)


@_counted("words.phi-homomorphism")
def _phi_homomorphism(rng, tol):
    for _ in range(300):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        z1 = random_reduced_word(rng, n * m, 6)
        z2 = random_reduced_word(rng, n * m, 6)
        p, q = words.phi(n, m, z1 * z2)
        p1, q1 = words.phi(n, m, z1)
        p2, q2 = words.phi(n, m, z2)
        yield (p == p1 * p2 and q == q1 * q2), (n, m, z1, z2)


@_counted("words.kernel-witnesses")
def _kernel_witnesses(rng, tol):
    for (n, m, i, l, j, k), w in _kernel_words():
        p, q = words.phi(n, m, w)
        # the witness is the unit exactly when i == l or j == k
        ok = p.is_unit and q.is_unit and w.is_unit == (i == l or j == k)
        yield ok, (n, m, i, l, j, k)


@_counted("words.lift-constructions")
def _lift_constructions(rng, tol):
    for _ in range(300):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        x = random_reduced_word(rng, n, 5)
        y, z = words.lift_first(x, m)
        p, q = words.phi(n, m, z)
        in_b1 = all(s.gen == 1 for s in y.syllables)
        yield (p == x and q == y and in_b1), ("lift_first", n, m, x)
        yb = random_reduced_word(rng, m, 5)
        xb, zb = words.lift_second(yb, n)
        pb, qb = words.phi(n, m, zb)
        yield (pb == xb and qb == yb), ("lift_second", n, m, yb)


@_counted("words.cancellation-witnesses")
def _cancellation_witnesses(rng, tol):
    for n in (1, 2):
        for m in (1, 2):
            for x in enumerate_ball(n, 3):
                for y in enumerate_ball(m, 3):
                    yield verify_cancellation(x, y), (n, m, x, y)
    for _ in range(100):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        x = random_reduced_word(rng, n, 5)
        y = random_reduced_word(rng, m, 5)
        yield verify_cancellation(x, y), (n, m, x, y)


def _direct_sums(rng):
    """Every generator of rank at most 24, then 200 random direct sums."""
    for n, k in _generators(24):
        yield DirectSumElement.from_word(gen(n, k))
    for _ in range(200):
        yield random_direct_sum(rng, max_rank=12, max_len=5)


@_counted("bialgebra.coassociativity")
def _coassociativity(rng, tol):
    for x in _direct_sums(rng):
        yield coassoc_check(x)[2], (x,)


@_counted("bialgebra.counit-law")
def _counit_law(rng, tol):
    for x in _direct_sums(rng):
        yield counit_check(x), (x,)


@_counted("bialgebra.wcs-axioms")
def _wcs_axioms(rng, tol):
    for n in range(1, 5):
        for m in range(1, 5):
            for l in range(1, 5):
                for k in range(1, n * m * l + 1):
                    yield wcs_check(n, m, l, gen(n * m * l, k)), ("wcs_check", n, m, l, k)
    for n, k in _generators(12):
        yield counit_axiom_check(n, gen(n, k)), ("counit_axiom_check", n, k)


@_counted("bialgebra.kernel-identity")
def _kernel_identity(rng, tol):
    for (n, m, i, l, j, k), w in _kernel_words():
        el = AlgebraElement.from_word(w) - AlgebraElement.unit(n * m)
        yield varphi_alg(n, m, el).is_zero, (n, m, i, l, j, k)


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
                yield bialgebra.comodule_check(n, m, w), (k, n, m)


@_counted("bialgebra.unitization")
def _unitization(rng, tol):
    for _ in range(100):
        a, b = (
            bialgebra.UnitizedElement(random_direct_sum(rng, max_rank=6, max_len=3), rng.randint(-2, 2))
            for _ in range(2)
        )
        delta, eps = bialgebra.unitized_delta, bialgebra.unitized_counit
        yield delta(a * b) == delta(a) * delta(b) and eps(a * b) == eps(a) * eps(b), (a, b)


@_counted("bialgebra.standard-delta-compat")
def _standard_delta_compat(rng, tol):
    for n in range(1, 5):
        for m in range(1, 5):
            for k in range(1, n * m + 1):
                a = AlgebraElement.from_word(gen(n * m, k))
                yield standard_delta_compat_check(n, m, a), (n, m, k)


@_counted("reps.gns-coefficients")
def _gns_coefficients(rng, tol):
    for n in (2, 3):
        ball = enumerate_ball(n, 4)
        for i in range(1, n + 1):
            for w in ball:
                yield reps.gns_coeff_check(n, i, w), (n, i, w)


@_counted("reps.fixed-vectors")
def _fixed_vectors(rng, tol):
    for n in (2, 3):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                want = 1 if i == j else 0
                got = reps.fixed_vector_dim(n, i, j, 3)
                yield got == want, (n, i, j, got)


@_counted("reps.cyclicity")
def _cyclicity(rng, tol):
    ball = enumerate_ball(2, 3)
    for i in (1, 2):
        for j in (1, 2):
            for x in ball:
                for y in ball:
                    yield reps.cyclicity_check(2, 2, i, j, x, y), (i, j, x, y)


@_counted("reps.intertwiner")
def _intertwiner(rng, tol):
    for _ in range(200):
        x = random_reduced_word(rng, 2, 4)
        h = random_reduced_word(rng, 4, 4)
        g = random_reduced_word(rng, 4, 4)
        yield reps.intertwine_check(2, 2, x, h, g), (x, h, g)


def _gram_case(f, ball, label):
    """``(ok, certificate)`` of one Gram matrix by both exact routes; the
    certificate is ``v = (...)`` with ``v^T G v < 0``, or says that only the
    label route failed.  No tolerance is read."""
    ok, cert = reps.gram_exact_check(f, ball, label)
    if cert is None:
        return ok, "entries differ from the coset labels"
    return ok, "v = (" + ", ".join(map(str, cert)) + ")"


@_counted("reps.gram-psd")
def _gram_psd(rng, tol):
    for n in (2, 3):
        ball = enumerate_ball(n, 2)
        for i in range(1, n + 1):
            label = lambda w, i=i: reps._coset_label(w.syllables, i)
            ok, cert = _gram_case(reps.PDFunction(n, i), ball, label)
            yield ok, ("f_eval", n, i, cert)
    ball4 = enumerate_ball(4, 2)
    for i in (1, 2):
        for j in (1, 2):
            ev = lambda z, i=i, j=j: reps.f_pullback_eval(2, i, 2, j, z)
            label = lambda z, i=i, j=j: reps._pullback_label(2, 2, i, j, z)
            ok, cert = _gram_case(ev, ball4, label)
            yield ok, ("f_pullback_eval", 2, i, 2, j, cert)


@_counted("reps.action-laws")
def _action_laws(rng, tol):
    for _ in range(200):
        n = rng.randint(2, 3)
        i = rng.randint(1, n)
        x = random_reduced_word(rng, n, 4)
        y = random_reduced_word(rng, n, 4)
        coset = reps.coset_normal_form(n, i, random_reduced_word(rng, n, 3))
        v = reps.SuppVector.basis_vector(reps.CosetBasis(n, i), coset)
        composed = reps.L_action(n, i, x, reps.L_action(n, i, y, v))
        direct = reps.L_action(n, i, x * y, v)
        yield composed == direct, ("L_action", n, i, x, y, coset)
        g = random_reduced_word(rng, n, 3)
        u = AlgebraElement.from_word(g)
        lam_ok = reps.lambda_action(n, x, reps.lambda_action(n, y, u)) == reps.lambda_action(n, x * y, u)
        yield lam_ok, ("lambda_action", n, x, y, g)


@_counted("morphisms.beta-morphism")
def _beta_morphism(rng, tol):
    endo = morphisms.beta_endo()
    for n, k in _generators(24):
        x = DirectSumElement.from_word(gen(n, k))
        yield morphisms.bialgebra_morphism_check(endo, x, tol), (n, k)


@_counted("morphisms.beta-involution")
def _beta_involution(rng, tol):
    for _ in range(100):
        x = random_direct_sum(rng, max_rank=12, max_len=5)
        yield morphisms.beta(morphisms.beta(x)) == x, (x,)


@_counted("morphisms.alpha-morphism")
def _alpha_morphism(rng, tol):
    for t in (0.3, 1.0, 2.5):
        endo = morphisms.alpha_endo(t)
        for n, k in _generators(12):
            x = DirectSumElement.from_word(gen(n, k))
            yield morphisms.bialgebra_morphism_check(endo, x, tol), (t, n, k)


@_check("morphisms.group-laws")
def _group_laws(rng, tol):
    report = morphisms.group_law_checks(tol=tol)
    return report["status"] == "verified", report


SUITE_NAMES = (*dict.fromkeys(claim.partition(".")[0] for claim in CHECKS), "all")


# -- probes -------------------------------------------------------------------


# The most ball words and orbit pairs one command may scan.  Every reference
# invocation fits: `tensor-pd 2 3 1 1 --radius 5` scans 193,261 words,
# `orbit 2 2 --radius 6` at most 156,865 pairs, `probe claims --radius 4`
# 121,419 words and pairs.
SCAN_BUDGET = 250_000


def _check_budget(scans) -> None:
    """Refuse a command whose scans, ``(rank, radius)`` balls, hold more than
    ``SCAN_BUDGET`` words in all; called before any of them starts.  An orbit
    of radius ``r`` is the image of the rank-``n*m`` ball of radius ``r``
    under ``phi``, so that ball's size bounds it."""
    total = 0
    for rank, radius in scans:
        # a ball of rank 1 holds 2r + 1 words and one of a higher rank more
        # than 2^r, so the capped radius gives the same verdict and keeps
        # the power small
        cap = SCAN_BUDGET if rank == 1 else SCAN_BUDGET.bit_length()
        total += ball_size(rank, min(radius, cap))
    if total > SCAN_BUDGET:
        raise ValueError(f"the scan would cover more than {SCAN_BUDGET} words; lower --radius")


def _claim_report(claim: str, params: dict, radius: int, rows: list, **extra) -> dict:
    """One probe's report; ``extra`` adds keys such as ``orbit_size``."""
    return {"claim": claim, "params": params, "radius": radius, "disagreements": rows, **extra}


def _pd_report(n: int, m: int, i: int, j: int, radius: int) -> dict:
    found = reps.claim_probe_pd(n, m, i, j, radius)
    rows = [{"z": z.to_json(), "pullback": pb, "direct": dv} for z, pb, dv in found]
    return _claim_report("prop-indicator-tensor", {"n": n, "m": m, "i": i, "j": j}, radius, rows)


# the (n, m, i, j) of the indicator probes that `probe claims` runs
_PROBE_PD = [
    (n, m, i, j) for n, m in ((2, 2), (2, 3)) for i in range(1, n + 1) for j in range(1, m + 1)
]


def _probe_reports(radius: int) -> list[dict]:
    # the indicator probes' balls, then the ball that bounds the F2 x F2 orbit
    _check_budget([(n * m, radius) for n, m, _, _ in _PROBE_PD] + [(4, radius)])
    reports = [_pd_report(n, m, i, j, radius) for n, m, i, j in _PROBE_PD]
    params = {"n": 2, "m": 2}
    start = (unit(2), unit(2))
    orbit = reps.orbit_bfs(2, 2, start, radius)
    collision = parse_word("g1*g2*g1^-1*g2^-1", 2)
    rows = []
    if (collision, unit(2)) in orbit:
        note = "nontrivial first slot reaches (1,1) orbit"
        rows.append({"pair": [collision.to_json(), []], "note": note})
    reports.append(
        _claim_report("prop-orbit-separation", params, radius, rows, orbit_size=len(orbit))
    )
    kw = kernel_witness(2, 2, 1, 2, 1, 2)
    rows = []
    if reps.U_map(2, 2, unit(2), kw) == reps.U_map(2, 2, unit(2), unit(4)):
        rows.append({"z": kw.to_json(), "note": "distinct basis words share an image"})
    reports.append(_claim_report("prop-intertwiner-injectivity", params, radius, rows))
    return sorted(reports, key=lambda r: (r["claim"], json.dumps(r["params"], sort_keys=True)))


# -- command handlers ----------------------------------------------------------
#
# Each subcommand is one handler ``fn(args) -> (report, exit code, text)``:
# the report is printed as JSON and the text under ``--format text``.


def _canonical(command: str, canonical: str, result, **extra) -> tuple[dict, int, str]:
    """The output of a command whose text form is its canonical string."""
    return {"command": command, "canonical": canonical, "result": result, **extra}, 0, canonical


def _delta(args):
    el = parse_element(args.element)
    x = DirectSumElement.from_algebra(el)
    if math.isqrt(el.ambient.n) > SCAN_BUDGET:  # factor_pairs' trial divisors
        raise ValueError(f"the divisor search would try more than {SCAN_BUDGET} values")
    t = delta_phi(x)
    return _canonical("delta", str(t), t.to_json(), input=str(el))


def _counit(args):
    el = parse_element(args.element)
    value = counit(DirectSumElement.from_algebra(el))
    return _canonical("counit", str(value), value.to_json(), input=str(el))


def _phi(args):
    w = parse_word(args.word, _rank(args.n * args.m))
    p, q = words.phi(args.n, args.m, w)
    return _canonical("phi", f"({p}, {q})", {"first": p.to_json(), "second": q.to_json()})


def _probe_line(r: dict) -> str:
    params = json.dumps(r["params"], sort_keys=True)
    return f"{r['claim']} {params}: {len(r['disagreements'])} disagreement(s)"


def _tensor_pd(args):
    # a bad rank or index is reported as such, ahead of the budget
    _check_index(args.n, args.i)
    _check_index(args.m, args.j)
    _check_budget([(args.n * args.m, args.radius)])
    report = _pd_report(args.n, args.m, args.i, args.j, args.radius)
    lines = [f"{_probe_line(report)} at radius {args.radius}"]
    for d in report["disagreements"]:
        lines.append(f"  z={d['z']} pullback={d['pullback']} direct={d['direct']}")
    return report, 0, "\n".join(lines)


def _orbit(args):
    pair = None
    if args.find is not None:
        if "," not in args.find:
            raise ValueError(f"--find expects a pair LEFT,RIGHT, got {args.find!r}")
        left, _, right = args.find.partition(",")
        pair = (parse_word(left.strip(), _rank(args.n)), parse_word(right.strip(), _rank(args.m)))
    start = (unit(args.n), unit(args.m))  # a bad rank is reported ahead of the budget
    _check_budget([(args.n * args.m, args.radius)])
    orbit = reps.orbit_bfs(args.n, args.m, start, args.radius)
    report = {
        "command": "orbit",
        "params": {"n": args.n, "m": args.m},
        "radius": args.radius,
        "count": len(orbit),
    }
    text = f"orbit size {len(orbit)} at radius {args.radius}"
    if pair is not None:
        report["found"] = pair in orbit
        text += f", found={report['found']}"
    return report, 0, text


def _verify(args):
    name = args.suite
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}")
    started = time.monotonic()
    results, lines = [], []
    for claim in sorted(c for c in CHECKS if name == "all" or c.startswith(name + ".")):
        # run times vary from run to run, so only the text shows them
        check_started = time.monotonic()
        [r] = _run_checks([claim], args.seed, args.tol)
        secs = time.monotonic() - check_started
        mark = "ok" if r["status"] == "verified" else "FAILED"
        witness = json.dumps(r["witness"], default=str)
        lines.append(f"[{mark}] {claim}  {witness}  ({secs:.2f}s)")
        results.append(r)
    ok = all(r["status"] == "verified" for r in results)
    status = "verified" if ok else "failed"
    lines += [f"suite {name}: {status}", f"elapsed: {time.monotonic() - started:.2f}s"]
    report = {
        "command": "verify",
        "suite": name,
        "seed": args.seed,
        "results": results,
        "status": status,
    }
    return report, 0 if ok else 1, "\n".join(lines)


def _probe(args):
    if args.what != "claims":
        raise ValueError(f"unknown probe target {args.what!r}")
    reports = _probe_reports(args.radius)
    text = "\n".join(_probe_line(r) for r in reports)
    return {"command": "probe", "radius": args.radius, "reports": reports}, 0, text


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser as it was, and a
    # build costs about 50 times a parse
    return build_parser()


def _requested_format(argv: list[str]) -> str:
    # the output format of an argv the full parser rejected: read the
    # --format flag alone, wherever it stands, and fall back to JSON
    root = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    root.add_argument("--format", choices=FORMATS, default="json")
    try:
        return root.parse_known_args(argv)[0].format
    except argparse.ArgumentError:
        return "json"


def _error(message: str) -> tuple[dict, int, str]:
    return {"error": message}, 2, f"error: {message}"


def _invoke(argv: list[str]) -> tuple[str, tuple[dict, int, str]]:
    """Parse ``argv`` and run its handler; return the output format and the
    handler's ``(report, exit code, text)``."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse rejects an argv by exiting
        if exc.code == 0:  # --help has printed its text
            raise
        return _requested_format(argv), _error("usage")
    try:
        return args.format, args.handler(args)
    except (ParseError, ValueError) as exc:
        return args.format, _error(str(exc))


def run(argv: list[str]) -> tuple[dict, int]:
    """Execute one invocation; return the report dict and the exit code."""
    report, code, _ = _invoke(argv)[1]
    return report, code


def main(argv: list[str] | None = None) -> int:
    fmt, (report, code, text) = _invoke(sys.argv[1:] if argv is None else argv)
    print(text if fmt == "text" else json.dumps(report, sort_keys=True))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
