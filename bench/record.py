"""Run the benchmark over several seeds and record the figures.

    python3 bench/record.py --seeds 1 2 3 --out bench/baseline/NAME.json

Runs ``bench/run.py`` one process at a time from the repository root, with
``--trace 0`` once per seed and workload of ``BENCHMARK.json``, plus one
``--trace 1`` run per workload on the first seed.  For every end-to-end
metric it records the values, the median and the spread (distance between
the first and third quartile over the median), flags spreads above a third
of the metric's bound, fails when a run is wrong or a spread other than
that of ``setup_s`` exceeds its bound, and stores the Python version, core
count and git revision beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FREEBIALG_THREADS"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_revision() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except FileNotFoundError:
        return None
    return proc.stdout.strip() or None


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    record = {
        "revision": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "FREEBIALG_THREADS": "unset",
        "run_seconds": seconds,
        "seeds": args.seeds,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    ok = True
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1]['metrics'])}", flush=True)
        traced = run_once(workload, args.seeds[0], seconds, 1)
        entry = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name in bounds:
            summary = summarise([r["metrics"][name]["value"] for r in runs])
            summary["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = summary
            steady = summary["spread"] < bounds[name] / 3
            # as in the acceptance rule for a benchmark, the spread of set-up
            # time is shown but not gated; only its median is compared
            gated = name != "setup_s"
            ok = ok and entry["correct"] and (not gated or summary["spread"] <= bounds[name])
            print(
                f"{workload:8s} {name:12s} median={summary['median']:.5g} {summary['unit']} "
                f"spread={summary['spread']:.3f} bound={bounds[name]}{'' if steady else '  UNSTEADY'}",
                flush=True,
            )
        record["workloads"][workload] = entry
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
