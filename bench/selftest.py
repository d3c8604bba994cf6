"""Self-tests of the benchmark: input determinism, the oracle, the trace and
the closed-form work accounting.

    python3 -m pytest -q bench/selftest.py

Takes about a minute; the file name keeps it out of the repository's
default test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import oracle
from program import ROOT, Program
from run import check_traced
from tracer import _POST, Tracer, layer_metrics
from workloads import WORKLOADS, Algebra, Probe, output_form


@pytest.fixture(scope="module")
def program():
    return Program()


def _inputs(workload) -> list:
    labels = [[label for label, _ in workload.ops(k)] for k in range(3)]
    return [labels, getattr(workload, "own", None), getattr(workload, "delta_argv", None)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(program, name):
    cls = WORKLOADS[name]
    assert _inputs(cls(program, 7)) == _inputs(cls(program, 7))
    assert _inputs(cls(program, 7)) != _inputs(cls(program, 8))


def test_closed_form_ball_size():
    for k in (1, 2, 3, 4):
        for r in range(5):
            assert oracle.ball_size(k, r) == len(oracle.ball(k, r))
    assert oracle.ball_size(6, 5) == 193_261


def test_expected_tables_recompute():
    for (n, m, i, j, r), count in oracle.PD_DISAGREEMENTS.items():
        assert oracle.count_pd_disagreements(n, m, i, j, r) == count
    for (n, m, r), size in oracle.ORBIT_SIZES.items():
        assert len(oracle.orbit(n, m, r)) == size
    for r, found in oracle.ORBIT_SEPARATION_FOUND.items():
        assert ((oracle.COMMUTATOR, ()) in oracle.orbit(2, 2, r)) == found


def test_oracle_rejects_mutated_probe_report(program):
    code, text = program.cli_run(["tensor-pd", "2", "2", "1", "2", "--radius", "4"])
    report = json.loads(text)
    assert code == 0 and oracle.check_tensor_pd(2, 2, 1, 2, 4, report) == []
    dropped = dict(report, disagreements=report["disagreements"][1:])
    assert oracle.check_tensor_pd(2, 2, 1, 2, 4, dropped)
    repeated = dict(report, disagreements=report["disagreements"][1:] + report["disagreements"][:2])
    assert oracle.check_tensor_pd(2, 2, 1, 2, 4, repeated)
    wrong = dict(report["disagreements"][0], z=[[1, 1], [2, 1]])
    swapped = dict(report, disagreements=[wrong] + report["disagreements"][1:])
    assert oracle.check_tensor_pd(2, 2, 1, 2, 4, swapped)


def test_oracle_rejects_mutated_verify_report(program):
    code, text = program.cli_run(["--seed", "5", "verify", "words"])
    report = json.loads(text)
    assert oracle.check_verify("words", 5, code, report) == []
    report["results"][0]["witness"]["checked"] -= 1
    assert oracle.check_verify("words", 5, code, report)


def test_oracle_rejects_changed_coefficient(program):
    workload = Algebra(program, 3)
    ops = dict(workload.ops(0))
    product = ops["a*b"]()
    assert workload.check("a*b", product) == []
    word, coeff = next(iter(product.items()))
    terms = dict(product.items())
    terms[word] = coeff + program.scalars.QI(0, 1)
    mutated = program.algebra.AlgebraElement(product.ambient, terms)
    assert workload.check("a*b", mutated)
    code, text = ops["delta cli"]()
    assert workload.check("delta cli", (code, text)) == []
    report = json.loads(text)
    component = next(iter(report["result"]["components"].values()))
    component["terms"][0]["re"] = str(Fraction(component["terms"][0]["re"]) + 1)
    assert workload.check("delta cli", (code, json.dumps(report, sort_keys=True)))


def _run_pass(workload, tracer=None):
    if tracer is not None:
        tracer.install()
    try:
        return [fn() for _, fn in workload.ops(0)]
    finally:
        if tracer is not None:
            tracer.uninstall()


def test_traced_outputs_are_byte_identical(program):
    workload = Algebra(program, 4)
    plain = [output_form(r) for r in _run_pass(workload)]
    traced = [output_form(r) for r in _run_pass(workload, Tracer(program))]
    assert plain == traced
    argvs = [
        ["tensor-pd", "2", "3", "2", "1", "--radius", "3"],
        ["orbit", "2", "2", "--radius", "3"],
        ["--seed", "9", "verify", "morphisms"],
    ]
    plain = [program.cli_run(a) for a in argvs]
    tracer = Tracer(program)
    tracer.install()
    try:
        traced = [program.cli_run(a) for a in argvs]
    finally:
        tracer.uninstall()
    assert plain == traced
    # uninstalling restores every original
    assert "__add__" not in program.algebra.AlgebraElement.__dict__
    assert not hasattr(program.words.phi, "__wrapped__")
    assert not hasattr(program.cli.delta_phi, "__wrapped__")


def test_seed_commit_counts_on_tensor_pd(program):
    tracer = Tracer(program)
    tracer.install()
    try:
        code, text = program.cli_run(["tensor-pd", "2", "3", "1", "1", "--radius", "5"])
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, len(text))
    assert code == 0
    assert metrics["words.scanned"][0] == oracle.ball_size(6, 5) == 193_261
    assert metrics["words.built"][0] == 579_783
    assert metrics["words.rank_built"][0] == 1_159_567
    assert metrics["words.built_per_scanned"][0] == 3.0
    assert metrics["scalars.qi_built"][0] == 0


def test_probe_pass_scans_the_closed_form_and_no_scalars(program):
    workload = Probe(program, 2)
    tracer = Tracer(program)
    results = _run_pass(workload, tracer)
    metrics = layer_metrics(tracer, 0)
    assert metrics["words.scanned"][0] == workload.work(0)
    for name in ("scalars.qi_built", "scalars.mul_calls", "scalars.add_calls"):
        assert metrics[name][0] == 0
    for (label, _), result in zip(workload.ops(0), results):
        assert workload.check(label, result) == []


def test_scan_hook_and_check_tolerate_an_unlisted_ball(program):
    # a ball returned as a generator is counted as unsized, not failed
    tracer = Tracer(program)
    _POST["enumerate_ball"](tracer, (), (w for w in ()))
    assert tracer.scanned() == (0, 1)
    workload = Probe(program, 2)
    label = next(label for label, _ in workload.ops(0) if label.startswith("tensor-pd"))
    want = workload.expected_scanned(label)
    form = (0, "{}")
    # the closed form binds only when the operation returned sized balls
    for scan, ok in (((want, 0), True), ((0, 0), True), ((want - 1, 1), True), ((want - 1, 0), False)):
        verdict = check_traced(workload, [label], [form], [form], [scan], [[]])
        assert (verdict == [[]]) == ok, scan
    assert check_traced(workload, [label], [(0, "{ }")], [form], [(want, 0)], [[]]) != [[]]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
