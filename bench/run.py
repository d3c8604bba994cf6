"""freebialg benchmark.

    python3 bench/run.py --workload {verify,probe,algebra} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src``.  The
process is single-threaded and ``FREEBIALG_THREADS`` is removed from the
environment, so the serial default is measured.

Set-up (a fresh import of the program, input generation from the seed and a
small warm-up) is timed ``SETUP_REPEATS`` times before the first pass and
once more after each untraced pass; the median is ``setup_s``.  Whole
passes over the workload's operation list run one after another until the
next one would end after ``--seconds``; at least ``MIN_PASSES`` run, and
``run_s`` is their mean timed length.  A reference loop timed before each
operation gives the run's machine speed, and both times are reported at the
fixed speed of ``reference.REFERENCE_S``.  With ``--trace 0`` the result holds
the end-to-end metrics; with ``--trace 1`` every pass runs twice, untraced
then traced, and the result holds the per-layer metrics of the traced
passes; the spans of the last traced pass are written to
``bench/out/spans-<workload>.tsv``.

Every pass is checked in full by an independent oracle right after it runs,
outside the timed region; a traced pass must print what its untraced twin
printed.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from program import Program, loaded_modules
from reference import Speedometer
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, output_form

SETUP_REPEATS = 3
MIN_PASSES = 3


class Failed:
    """An operation that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"


def set_up(name: str, seed: int):
    """Import the program, build the workload and warm it up; return the
    workload and the time taken."""
    start = time.perf_counter()
    workload = WORKLOADS[name](Program(), seed)
    workload.warm_up()
    return workload, time.perf_counter() - start


def time_set_up(name: str, seed: int) -> float:
    """Time one more set-up and drop it; the measured instance's modules
    go back into ``sys.modules`` and the dropped ones are collected here,
    not inside a timed operation."""
    kept = loaded_modules()
    try:
        return set_up(name, seed)[1]
    finally:
        for n in loaded_modules():
            del sys.modules[n]
        sys.modules.update(kept)
        gc.collect()


def run_pass(workload, k: int, after=None, before=None):
    """Run pass ``k``; return its labels, results and per-operation times.
    ``before`` and ``after``, if given, are called before and after each
    operation, outside its time."""
    ops = workload.ops(k)
    results, times = [], []
    for _, fn in ops:
        if before is not None:
            before()
        start = time.perf_counter()
        try:
            results.append(fn())
        except Exception as exc:  # a failed operation is data, not a crash
            traceback.print_exc(file=sys.stderr)
            results.append(Failed(exc))
        times.append(time.perf_counter() - start)
        if after is not None:
            after()
    return [label for label, _ in ops], results, times


def mean_pass(passes: list[tuple[list, list]]) -> float:
    """Mean timed length of the run's passes.

    On a shared machine the same code runs up to about 1.6 times slower in
    spells of seconds to over half a minute.  A per-operation median or
    minimum jumps between the fast and the slow level as the share of slow
    spells in a run changes; the mean moves in proportion to it, and over
    several sets of runs it varied least from run to run.
    """
    return statistics.fmean(sum(times) for _, times in passes)


def check_pass(workload, labels, results) -> list[list[str]]:
    """The oracle's complaints about each operation of a pass; [] if right."""
    verdicts = []
    for label, result in zip(labels, results):
        if isinstance(result, Failed):
            verdicts.append([f"{label}: {result.message}"])
            continue
        try:
            verdicts.append(workload.check(label, result))
        except Exception as exc:  # a malformed output fails its check
            verdicts.append([f"{label}: oracle could not read the output: {exc!r}"])
    return verdicts


def printed(result):
    return "failed: " + result.message if isinstance(result, Failed) else output_form(result)


def check_traced(workload, labels, results, forms, scans, verdicts) -> list[list[str]]:
    """Complaints about each operation of a traced pass: its output must be
    the untraced one, which the oracle judged, and where the program
    returned the ball or orbit it scanned, the size must be the closed form."""
    out = []
    for label, result, form, scan, verdict in zip(labels, results, forms, scans, verdicts):
        want = workload.expected_scanned(label)
        if printed(result) != form:
            out.append([f"{label}: traced output differs from the untraced output"])
        elif want is not None and scan[0] and not scan[1] and scan[0] != want:
            out.append([f"{label}: scanned {scan[0]} words, closed form {want}"])
        else:
            out.append(verdict)
    return out


def measure(workload, seed: int, seconds: float, trace: bool, setup_times: list):
    tracer = Tracer(workload.program) if trace else None
    speed = Speedometer()
    plain, traced, layers, verdicts = [], [], [], []
    rss_mb = None
    start = time.perf_counter()
    k = 0
    while True:
        labels, results, times = run_pass(workload, k, before=speed.read)
        plain.append((labels, times))
        if rss_mb is None:
            # the peak before the oracle has run, so only the program's
            # memory (and the benchmark's inputs) count
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        pass_verdicts = check_pass(workload, labels, results)
        verdicts += pass_verdicts
        if trace:
            forms = [printed(r) for r in results]
            del results
            marks = []
            tracer.install()
            try:
                t_labels, t_results, t_times = run_pass(workload, k, lambda: marks.append(tracer.scanned()))
            finally:
                tracer.uninstall()
            traced.append((t_labels, t_times))
            layers.append(layer_metrics(tracer, workload.json_bytes(t_results)))
            # words each operation scanned, and whether a scan was not countable
            scans = [(b[0] - a[0], b[1] - a[1]) for a, b in zip([(0, 0)] + marks, marks)]
            verdicts += check_traced(workload, t_labels, t_results, forms, scans, pass_verdicts)
            del t_results
        else:
            del results
            # set-up timed once more after each pass, so its samples spread
            # over the run like the passes do
            setup_times.append(time_set_up(workload.name, seed))
        k += 1
        per_pass = sum(plain[-1][1]) + (sum(traced[-1][1]) if trace else 0.0)
        spent = time.perf_counter() - start
        if (k >= MIN_PASSES or trace) and spent + per_pass > seconds:
            break
    if trace:
        out = Path(__file__).resolve().parent / "out"
        out.mkdir(exist_ok=True)
        tracer.dump_spans(out / f"spans-{workload.name}.tsv")
    return {
        "plain": plain,
        "traced": traced,
        "layers": layers,
        "rss_mb": rss_mb,
        "attempted": len(verdicts),
        "failed": sum(1 for v in verdicts if v),
        "messages": [msg for v in verdicts for msg in v],
        "work": workload.work(0),
        "scale": speed.scale(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.environ.pop("FREEBIALG_THREADS", None)

    try:
        setup_times = [time_set_up(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
        workload, first = set_up(args.workload, args.seed)
    except (FileNotFoundError, ImportError) as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    setup_times.append(first)
    m = measure(workload, args.seed, args.seconds, bool(args.trace), setup_times)
    for msg in m["messages"][:50]:
        print("FAIL", msg, file=sys.stderr)

    raw_s = mean_pass(m["plain"])
    run_s = raw_s * m["scale"]
    if args.trace:
        metrics = {}
        names = m["layers"][0].keys()
        for name in names:
            unit = m["layers"][0][name][1]
            metrics[name] = {"value": statistics.median(x[name][0] for x in m["layers"]), "unit": unit}
        overhead = mean_pass(m["traced"]) / raw_s - 1.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times) * m["scale"], "unit": "s"},
            "peak_rss_mb": {"value": m["rss_mb"], "unit": "MB"},
            "work_per_s": {"value": m["work"] / run_s, "unit": "1/s"},
        }
    fail_frac = m["failed"] / m["attempted"]
    print(
        f"{args.workload}: pass_s={[round(sum(t), 3) for _, t in m['plain']]} scale={m['scale']:.3f} run_s={run_s:.4f} "
        f"{workload.work_unit}={m['work'] / run_s:.1f} fail_frac={fail_frac:.4f}"
    )
    result = {
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
