"""CLI tests: parsing, command dispatch, report shape, determinism, and
exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from freebialg.cli import run
from freebialg.text import ParseError, parse_element, parse_rank, parse_word
from freebialg.words import INFINITE, Rank


# -- parsing ----------------------------------------------------------------------


def test_parse_element_examples():
    el = parse_element("F6: g2")
    assert el.ambient == Rank(6) and len(el) == 1

    el = parse_element("F4: 2*g1*g2^-1 - g3")
    assert len(el) == 2

    with pytest.raises(ParseError):
        parse_element("F2: g3")  # index above the declared rank


def test_parse_error_carries_position():
    try:
        parse_element("F4: 2*g1 &")
    except ParseError as exc:
        assert exc.pos == 9
    else:
        pytest.fail("expected a ParseError")


def test_parse_word_forms():
    w = parse_word("g1*g2^-1", 2)
    assert str(w) == "g1*g2^-1"
    assert parse_word("1", 2).is_unit
    assert parse_word("g2^3", INFINITE) == parse_word("g2", INFINITE) ** 3


def test_parse_rank():
    assert parse_rank("F12") == Rank(12)
    assert parse_rank("Finf").is_infinite
    with pytest.raises(ParseError):
        parse_rank("G3")


def test_parse_rejects_malformed():
    for bad in ["F4 g1", "F4:", "F4: g1 +", "F4: g0", "F4: g1^0", "F0: g1"]:
        with pytest.raises((ParseError, ValueError)):
            parse_element(bad)


@pytest.mark.parametrize(
    "parse,text,message",
    [
        (parse_element, "F2: 1/0*g1", "zero denominator (at offset 7)"),
        (parse_element, "F2: (1+i)*g1", "expected an integer (at offset 7)"),
        (parse_element, "F2: (1*i)*g1", "expected '+' or '-' in complex coefficient (at offset 6)"),
        (parse_rank, "F3 x", "trailing input after rank (at offset 3)"),
        (lambda text: parse_word(text, 2), "g1 g2", "trailing input after word (at offset 3)"),
    ],
)
def test_parse_error_messages(parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text,message",
    [
        ("F2: g0", "generator index 0 out of range for F2 (at offset 4)"),
        ("Finf: g0", "generator index 0 out of range for Finf (at offset 6)"),
        ("F2: g1*g3", "generator index 3 out of range for F2 (at offset 7)"),
    ],
)
def test_generator_index_errors_use_the_word_wording(text, message):
    """The parser names a bad generator index as the word layer does; index 0
    exceeds no rank."""
    report, code = run(["delta", text])
    assert (report, code) == ({"error": message}, 2)


def test_zero_coefficient_terms_parse():
    assert parse_element("F2: 0*g1").is_zero
    assert parse_element("F2: 0*g1 + g2") == parse_element("F2: g2")
    assert parse_element("F2: 0").is_zero
    for bad in ["F2: 00", "F2: 0 + g1"]:
        with pytest.raises(ParseError):
            parse_element(bad)


def test_print_parse_roundtrip_on_random_elements():
    import random

    from freebialg.corpus import random_algebra_element

    rng = random.Random(40)
    for _ in range(200):
        el = random_algebra_element(rng, rng.randint(1, 5), 4, 4)
        assert parse_element(str(el)) == el


# -- commands ----------------------------------------------------------------------


def test_delta_command():
    report, code = run(["delta", "F6: g2"])
    assert code == 0
    assert report["canonical"] == (
        "F1(x)F6: g1(x)g2 (+) F2(x)F3: g1(x)g2 (+) "
        "F3(x)F2: g1(x)g2 (+) F6(x)F1: g2(x)g1"
    )


def test_counit_command():
    report, code = run(["counit", "F1: g1"])
    assert code == 0 and report["canonical"] == "1"
    report, code = run(["counit", "F3: g2"])
    assert code == 0 and report["canonical"] == "0"


def test_phi_command():
    report, code = run(["phi", "2", "2", "g1*g2^-1*g4*g3^-1"])
    assert code == 0
    assert report["canonical"] == "(1, 1)"


def test_tensor_pd_command():
    report, code = run(["tensor-pd", "2", "2", "1", "1", "--radius", "2"])
    assert code == 0
    assert report["disagreements"] == []
    report, code = run(["tensor-pd", "2", "2", "1", "1", "--radius", "4"])
    assert code == 0
    words = [d["z"] for d in report["disagreements"]]
    assert [[1, 1], [2, -1], [4, 1], [3, -1]] in words


def test_orbit_command_with_find():
    report, code = run(
        ["orbit", "2", "2", "--radius", "4", "--find", "g1*g2*g1^-1*g2^-1,1"]
    )
    assert code == 0
    assert report["found"] is True
    report, code = run(["orbit", "2", "2", "--radius", "1", "--find", "g1,g2^-1"])
    assert code == 0
    assert report["found"] is False  # signs are correlated at radius 1


def test_orbit_find_without_comma_is_rejected_before_the_search(monkeypatch):
    from freebialg import reps

    def no_search(*args):
        raise AssertionError("the orbit was searched before --find was checked")

    monkeypatch.setattr(reps, "orbit_bfs", no_search)
    report, code = run(["orbit", "2", "2", "--radius", "6", "--find", "g1"])
    assert code == 2
    assert "LEFT,RIGHT" in report["error"]


def test_orbit_find_words_are_parsed_before_the_search(monkeypatch):
    from freebialg import reps

    def no_search(*args):
        raise AssertionError("the orbit was searched before --find was parsed")

    monkeypatch.setattr(reps, "orbit_bfs", no_search)
    report, code = run(["orbit", "2", "2", "--radius", "6", "--find", "g9,1"])
    assert code == 2
    assert "F2" in report["error"]


def test_tensor_pd_checks_indices_before_the_scan(monkeypatch):
    """An out-of-range i or j is rejected before the ball is enumerated, and
    the error names the factor the index belongs to."""
    from freebialg import reps

    def no_scan(*args):
        raise AssertionError("the ball was built before i and j were checked")

    monkeypatch.setattr(reps, "enumerate_ball", no_scan)
    for n, m, i, j, factor in ((3, 2, 4, 1, "F3"), (3, 2, 1, 3, "F2"), (2, 2, 1, 0, "F2")):
        with pytest.raises(ValueError, match=f"out of range for {factor}$"):
            reps.claim_probe_pd(n, m, i, j, 6)
        report, code = run(["tensor-pd", str(n), str(m), str(i), str(j), "--radius", "6"])
        assert code == 2
        assert report["error"].endswith(f"out of range for {factor}")


def test_tensor_pd_reports_a_bad_rank_as_such(capsys):
    from freebialg.cli import main

    for argv, got in ((["0", "2", "1", "1"], 0), (["2", "-1", "1", "1"], -1)):
        assert main(["tensor-pd", *argv]) == 2
        want = f"finite rank must be a positive integer, got {got}"
        assert json.loads(capsys.readouterr().out) == {"error": want}


# -- scan budgets -----------------------------------------------------------------
#
# tensor-pd, orbit and probe claims size their scans in closed form before any
# ball or orbit is built.  The scans themselves are stubbed out or made to
# fail here, so no test runs a large radius.

# the probe invocations of the README, the ROADMAP, the golden test, the
# benchmark workloads and the benchmark self-tests
ADMITTED = [
    ["tensor-pd", "2", "2", "1", "1", "--radius", "4"],
    ["tensor-pd", "2", "2", "1", "2", "--radius", "5"],
    ["tensor-pd", "2", "3", "1", "1", "--radius", "5"],
    ["tensor-pd", "2", "3", "2", "1", "--radius", "4"],
    ["tensor-pd", "3", "2", "3", "2", "--radius", "4"],
    ["orbit", "2", "2", "--radius", "4", "--find", "g1*g2*g1^-1*g2^-1,1"],
    ["orbit", "2", "2", "--radius", "5"],
    ["orbit", "2", "2", "--radius", "6"],
    ["probe", "claims", "--radius", "3"],
    ["probe", "claims", "--radius", "4"],
]


def _no_scan(*args):
    raise AssertionError("a scan started before the budget was checked")


def _stub_scans(monkeypatch):
    from freebialg import reps

    monkeypatch.setattr(reps, "claim_probe_pd", lambda *args: [])
    monkeypatch.setattr(reps, "orbit_bfs", lambda *args: set())


def _forbid_scans(monkeypatch):
    from freebialg import cli, reps, words

    for owner in (reps, words, cli):
        monkeypatch.setattr(owner, "enumerate_ball", _no_scan)
    monkeypatch.setattr(reps, "orbit_bfs", _no_scan)


def _scans(argv):
    """The ``(rank, radius)`` balls a probe command scans, by the closed form's
    reading: an orbit is bounded by the rank-``n*m`` ball."""
    radius = int(argv[argv.index("--radius") + 1])
    if argv[0] == "probe":
        return [(4, radius)] * 4 + [(6, radius)] * 6 + [(4, radius)]
    return [(int(argv[1]) * int(argv[2]), radius)]


@pytest.mark.parametrize("argv", ADMITTED, ids=" ".join)
def test_reference_probes_fit_the_budget(argv, monkeypatch):
    from freebialg import cli
    from freebialg.words import ball_size

    assert sum(ball_size(k, r) for k, r in _scans(argv)) <= cli.SCAN_BUDGET
    _stub_scans(monkeypatch)
    report, code = run(argv)
    assert code == 0, report


def test_over_budget_probes_exit_2_before_any_scan(monkeypatch):
    from freebialg import cli
    from freebialg.words import ball_size

    _forbid_scans(monkeypatch)
    huge = str(10**12)
    refused = [
        ["tensor-pd", "2", "3", "1", "1", "--radius", "6"],
        ["tensor-pd", "3", "3", "2", "3", "--radius", "5"],
        ["tensor-pd", "1", "1", "1", "1", "--radius", "125000"],
        ["tensor-pd", "1", "1", "1", "1", "--radius", huge],
        ["tensor-pd", "40", "50", "1", "1", "--radius", huge],
        ["orbit", "2", "2", "--radius", "7"],
        ["orbit", "1", "1", "--radius", "125000"],
        ["orbit", "1000", "1000", "--radius", "1"],
        ["orbit", "1000", "1000", "--radius", huge, "--find", "g1,g2"],
        # each ball fits on its own; the eleven scans together do not
        ["probe", "claims", "--radius", "5"],
        ["probe", "claims", "--radius", huge],
    ]
    for argv in refused:
        if huge not in argv:
            assert sum(ball_size(k, r) for k, r in _scans(argv)) > cli.SCAN_BUDGET
        report, code = run(argv)
        assert code == 2, argv
        assert report["error"].startswith(f"the scan would cover more than {cli.SCAN_BUDGET} words")
    # bad input is still reported as such, ahead of the budget
    for argv, error in (
        (["tensor-pd", "0", "2", "1", "1", "--radius", huge], "positive integer, got 0"),
        (["tensor-pd", "2", "2", "3", "1", "--radius", huge], "index 3 out of range for F2"),
        (["orbit", "2", "-1", "--radius", huge], "positive integer, got -1"),
        (["orbit", "2", "2", "--radius", huge, "--find", "g9,1"], "F2"),
        (["tensor-pd", "2", "2", "1", "1", "--radius", "-1"], "radius must be nonnegative"),
        (["orbit", "2", "2", "--radius", "-1"], "radius must be nonnegative"),
        (["probe", "claims", "--radius", "-1"], "radius must be nonnegative"),
    ):
        report, code = run(argv)
        assert code == 2 and error in report["error"], (argv, report)


def test_delta_refuses_a_rank_beyond_the_divisor_budget(monkeypatch):
    """``delta`` tries ``isqrt(rank)`` divisors per term: a rank up to
    ``SCAN_BUDGET**2`` is admitted and the next square is refused."""
    from freebialg import cli
    from freebialg.bialgebra import DirectSumTensor

    edge = cli.SCAN_BUDGET**2
    monkeypatch.setattr(cli, "delta_phi", lambda x: DirectSumTensor.zero())
    for rank in (edge, (cli.SCAN_BUDGET + 1) ** 2 - 1):
        report, code = run(["delta", f"F{rank}: g1"])
        assert code == 0 and report["canonical"] == "0", (rank, report)
    monkeypatch.setattr(cli, "delta_phi", _no_scan)
    for rank in ((cli.SCAN_BUDGET + 1) ** 2, 10**40):
        report, code = run(["delta", f"F{rank}: g1*g2^-1 + 3*g2"])
        assert code == 2, rank
        assert report["error"] == f"the divisor search would try more than {cli.SCAN_BUDGET} values"
    # a bad element is still reported as such
    report, code = run(["delta", f"F{10**40}: g0"])
    assert code == 2 and "divisor" not in report["error"]


@pytest.mark.parametrize("rank", range(1, 8))
def test_budget_edge_follows_the_closed_form(rank, monkeypatch):
    """The largest radius whose ball fits is admitted and the next one is
    refused, for tensor-pd and orbit alike."""
    from freebialg import cli
    from freebialg.words import ball_size

    radius = 0
    while ball_size(rank, radius + 1) <= cli.SCAN_BUDGET:
        radius += 1
    for r, want in ((radius, 0), (radius + 1, 2)):
        if want == 0:
            _stub_scans(monkeypatch)
        else:
            _forbid_scans(monkeypatch)
        for argv in (
            ["tensor-pd", str(rank), "1", "1", "1", "--radius", str(r)],
            ["orbit", "1", str(rank), "--radius", str(r)],
        ):
            report, code = run(argv)
            assert code == want, (argv, report)
        monkeypatch.undo()


def test_verify_times_each_check_in_text_only(capsys):
    from freebialg.cli import main

    assert main(["verify", "words"]) == 0
    out = capsys.readouterr().out
    assert "elapsed" not in out
    report = json.loads(out)
    assert sorted(report) == ["command", "results", "seed", "status", "suite"]
    for r in report["results"]:
        assert sorted(r) == ["claim", "status", "witness"]

    assert main(["--format", "text", "verify", "words"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(report["results"]) + 2
    for line, r in zip(lines, report["results"]):
        want = f"[ok] {r['claim']}  {json.dumps(r['witness'])}  ("
        assert line.startswith(want) and line.endswith("s)")
        float(line[len(want) : -2])
    assert lines[-1].startswith("elapsed: ")


def test_usage_errors_exit_2():
    _, code = run(["delta", "F2: g3"])
    assert code == 2
    _, code = run(["nonsense"])
    assert code == 2
    _, code = run(["verify", "nonsense"])
    assert code == 2
    _, code = run(["probe", "everything"])
    assert code == 2


def test_verify_single_suite():
    report, code = run(["verify", "morphisms"])
    assert code == 0
    assert report["status"] == "verified"
    assert all(r["status"] == "verified" for r in report["results"])
    claims = [r["claim"] for r in report["results"]]
    assert claims == sorted(claims)


def test_probe_claims_report_shape():
    report, code = run(["probe", "claims", "--radius", "4"])
    assert code == 0  # findings are not failures
    by_claim = {}
    for entry in report["reports"]:
        by_claim.setdefault(entry["claim"], []).append(entry)
    assert set(by_claim) == {
        "prop-indicator-tensor",
        "prop-orbit-separation",
        "prop-intertwiner-injectivity",
    }
    tensor_reports = by_claim["prop-indicator-tensor"]
    assert len(tensor_reports) == 10  # (2,2) gives 4 grids, (2,3) gives 6
    probe_1111 = next(
        r
        for r in tensor_reports
        if r["params"] == {"n": 2, "m": 2, "i": 1, "j": 1}
    )
    assert any(
        d["z"] == [[1, 1], [2, -1], [4, 1], [3, -1]]
        for d in probe_1111["disagreements"]
    )
    assert by_claim["prop-orbit-separation"][0]["disagreements"]
    assert by_claim["prop-intertwiner-injectivity"][0]["disagreements"]


def test_json_determinism():
    args = ["probe", "claims", "--radius", "3"]
    first = json.dumps(run(args)[0], sort_keys=True)
    second = json.dumps(run(args)[0], sort_keys=True)
    assert first == second

    args = ["verify", "words", "--seed", "7"]
    assert json.dumps(run(args)[0], sort_keys=True) == json.dumps(run(args)[0], sort_keys=True)


def _child_env():
    """The environment of a child process that imports the same freebialg
    as the tests, installed or not."""
    import freebialg

    src = str(Path(freebialg.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_cli_process_roundtrip():
    env = _child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "freebialg", "counit", "F1: g1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["result"] == {"im": "0", "re": "1"}

    proc = subprocess.run(
        [sys.executable, "-m", "freebialg", "--format", "text", "delta", "F6: g2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("F1(x)F6:")

    proc = subprocess.run(
        [sys.executable, "-m", "freebialg", "delta", "F2: g9"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [["verify", "words"], ["delta", "F6: g2"]], ids=["verify", "delta"])
def test_a_closed_stdout_pipe_exits_1_without_a_traceback(argv):
    """A reader that has gone away gets no output, the process exits 1, and
    nothing is written to stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "freebialg", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=_child_env(),
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 1


def test_import_and_delta_load_no_numpy():
    # numpy serves the float ``gram_psd`` alone; the Gram check is exact
    code = (
        "import sys\n"
        "from freebialg.cli import main\n"
        "assert main(['delta', 'F6: g2']) == 0\n"
        "for argv in (['verify', 'all'], ['probe', 'claims', '--radius', '2'],\n"
        "             ['tensor-pd', '2', '2', '1', '1', '--radius', '3'],\n"
        "             ['orbit', '2', '2', '--radius', '3']):\n"
        "    assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _draws_per_check(monkeypatch, claims):
    """Words each check draws through ``random_reduced_word`` when the
    registered checks ``claims`` run in the order given."""
    from freebialg import cli

    draw = cli.random_reduced_word
    running, drawn = [], {}

    def tagged(claim, fn):
        def check(*args):
            running.append(claim)
            try:
                return fn(*args)
            finally:
                running.pop()

        return check

    def spy(*args, **kwargs):
        w = draw(*args, **kwargs)
        drawn.setdefault(running[-1], []).append((w.ambient.n, w.syllables))
        return w

    for claim in claims:
        monkeypatch.setitem(cli.CHECKS, claim, tagged(claim, cli.CHECKS[claim]))
    monkeypatch.setattr(cli, "random_reduced_word", spy)
    results = cli._run_checks(claims, 0, 1e-9)
    monkeypatch.undo()
    assert [r["claim"] for r in results] == claims
    assert all(r["status"] == "verified" for r in results)
    return drawn


_SEEDED_REPS = ("reps.action-laws", "reps.intertwiner")


def _without(claim):
    return lambda claims: [c for c in claims if c != claim]


@pytest.mark.parametrize(
    "suite,variants",
    [
        ("words", [lambda c: c[::-1], _without("words.lift-constructions")]),
        # the two seeded reps checks alone, in reverse order
        ("reps", [lambda c: [x for x in c if x in _SEEDED_REPS][::-1]]),
    ],
    ids=["words", "reps"],
)
def test_check_corpus_independent_of_suite_makeup(monkeypatch, suite, variants):
    """A check draws the same corpus for a given seed whatever the order of
    the suite and whichever other checks run with it."""
    from freebialg import cli

    claims = sorted(c for c in cli.CHECKS if c.startswith(suite + "."))
    base = _draws_per_check(monkeypatch, claims)
    assert base
    for reorder in variants:
        got = _draws_per_check(monkeypatch, reorder(claims))
        assert got
        for claim, words in got.items():
            assert words == base[claim], claim


def test_registry_claims_per_suite():
    from freebialg import cli

    suites = {}
    for claim in cli.CHECKS:
        suites.setdefault(claim.partition(".")[0], []).append(claim)
    assert cli.SUITE_NAMES == ("words", "bialgebra", "reps", "morphisms", "all")
    assert {name: sorted(claims) for name, claims in suites.items()} == {
        "words": [
            "words.cancellation-witnesses",
            "words.kernel-witnesses",
            "words.lift-constructions",
            "words.phi-homomorphism",
            "words.reduction-laws",
        ],
        "bialgebra": [
            "bialgebra.coassociativity",
            "bialgebra.comodule",
            "bialgebra.counit-law",
            "bialgebra.kernel-identity",
            "bialgebra.noncocommutativity",
            "bialgebra.standard-delta-compat",
            "bialgebra.unitization",
            "bialgebra.wcs-axioms",
        ],
        "reps": [
            "reps.action-laws",
            "reps.cyclicity",
            "reps.fixed-vectors",
            "reps.gns-coefficients",
            "reps.gram-psd",
            "reps.intertwiner",
        ],
        "morphisms": [
            "morphisms.alpha-morphism",
            "morphisms.beta-involution",
            "morphisms.beta-morphism",
            "morphisms.group-laws",
        ],
    }


def test_passing_checks_render_nothing(monkeypatch):
    """A check renders its inputs only for a failing case, and its record
    holds only the keys the JSON prints."""
    from freebialg import algebra, bialgebra, cli, words

    def no_render(self):
        raise AssertionError(f"{type(self).__name__} rendered on a passing case")

    for cls in (words.ReducedWord, algebra._Linear, bialgebra.UnitizedElement):
        monkeypatch.setattr(cls, "__str__", no_render)
    results = cli._run_checks(sorted(cli.CHECKS), 0, algebra.DEFAULT_TOL)
    assert [r["status"] for r in results] == ["verified"] * len(cli.CHECKS)
    assert all(r.keys() == {"claim", "status", "witness"} for r in results)


@pytest.mark.parametrize(
    "claim,target,generator,seed,fail_at",
    [
        ("reps.cyclicity", "cyclicity_check", "_cyclicity", 0, 5000),
        ("reps.intertwiner", "intertwine_check", "_intertwiner", 3, 137),
    ],
)
def test_failure_record_names_a_replayable_case(
    monkeypatch, claim, target, generator, seed, fail_at
):
    """A failing case is reported as its index and rendered inputs, and
    rerunning the check's generator from ``(seed, claim)`` reaches the same
    inputs at that index."""
    import itertools
    import random

    from freebialg import cli, reps

    real, calls, failed = getattr(reps, target), [], []

    def fail_once(n, m, *inputs):
        calls.append(inputs)
        if len(calls) == fail_at + 1:
            failed.append(inputs)
            return False
        return real(n, m, *inputs)

    monkeypatch.setattr(reps, target, fail_once)
    [result] = cli._run_checks([claim], seed, 1e-9)
    monkeypatch.undo()

    [inputs] = failed
    assert result["status"] == "failed"
    assert result["witness"] == {
        "case": fail_at,
        "counterexample": [v if type(v) is int else str(v) for v in inputs],
    }
    cases = getattr(cli, generator)(random.Random(f"{seed}:{claim}"), 1e-9)
    ok, case = next(itertools.islice(cases, fail_at, None))
    assert ok and case == inputs


def test_action_laws_failure_record_reads_back(monkeypatch):
    """A failing coset case renders its coset as the representative word,
    which ``parse_word`` reads back over the case's rank, and rerunning the
    generator from ``(seed, claim)`` reaches the same case at that index."""
    import itertools
    import random

    from freebialg import cli, reps

    real, calls = reps.L_action, []

    def wrong_third_call(n, i, x, v):
        # each coset case acts three times; the third is the direct side
        calls.append(None)
        got = real(n, i, x, v)
        return got.scale(2) if len(calls) == 3 * 4 else got

    monkeypatch.setattr(reps, "L_action", wrong_third_call)
    [result] = cli._run_checks(["reps.action-laws"], 7, 1e-9)
    monkeypatch.undo()

    assert result["status"] == "failed" and result["witness"]["case"] == 2 * 3
    name, n, i, x, y, coset = result["witness"]["counterexample"]
    assert name == "L_action"
    cases = cli._action_laws(random.Random("7:reps.action-laws"), 1e-9)
    ok, case = next(itertools.islice(cases, 2 * 3, None))
    assert ok and case == ("L_action", n, i, parse_word(x, n), parse_word(y, n), parse_word(coset, n))
    assert reps.PDFunction(n, i).check(parse_word(coset, n)) == case[-1]


def test_gram_failure_carries_an_exact_certificate(monkeypatch):
    """A Gram matrix that is not positive semidefinite fails with an exact
    vector ``v``, ``v^T G v < 0``, and no float; a matrix whose entries do not
    follow the coset labels fails by the label route alone."""
    from fractions import Fraction

    from freebialg import cli, reps
    from freebialg.words import enumerate_ball

    def not_psd(n, i, m, j, z):  # 1 on the unit, 2 on the generators
        return {0: 1, 1: 2}.get(sum(abs(e) for _, e in z.syllables), 0)

    monkeypatch.setattr(reps, "f_pullback_eval", not_psd)
    [result] = cli._run_checks(["reps.gram-psd"], 0, 1e9)  # no tolerance is read
    assert result["status"] == "failed" and result["witness"]["case"] == 5
    *inputs, cert = result["witness"]["counterexample"]
    assert inputs == ["f_pullback_eval", 2, 1, 2, 1]
    assert cert.startswith("v = (") and cert.endswith(")")
    v = [Fraction(c) for c in cert[5:-1].split(", ")]
    ball = enumerate_ball(4, 2)
    quad = sum(
        v[a] * not_psd(2, 1, 2, 1, s.inverse() * t) * v[b]
        for a, s in enumerate(ball)
        for b, t in enumerate(ball)
    )
    assert quad < 0
    assert not any(type(x) is float for x in result["witness"]["counterexample"])

    monkeypatch.undo()
    monkeypatch.setattr(reps, "_pullback_label", lambda n, m, i, j, z: z)
    [result] = cli._run_checks(["reps.gram-psd"], 0, 1e-9)
    assert result["witness"] == {
        "case": 5,
        "counterexample": ["f_pullback_eval", 2, 1, 2, 1, "entries differ from the coset labels"],
    }


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_tol_must_be_finite_and_nonnegative(capsys, value):
    from freebialg.cli import main

    for argv in (["--tol", value, "verify", "morphisms"], ["verify", "morphisms", f"--tol={value}"]):
        assert main(argv) == 2
        assert capsys.readouterr().out == '{"error": "usage"}\n'


def test_unknown_names_are_text_errors(capsys):
    from freebialg.cli import main

    for argv, message in (
        (["verify", "bogus"], "error: unknown suite 'bogus'"),
        (["probe", "bogus"], "error: unknown probe target 'bogus'"),
    ):
        assert main(["--format", "text", *argv]) == 2
        assert capsys.readouterr().out == message + "\n"


def test_usage_errors_respect_format(capsys):
    from freebialg.cli import main

    for argv in (
        ["--format", "text", "nonsense"],
        ["--format=text", "delta"],
        ["verify", "--format", "text", "--seed", "x", "words"],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().out == "error: usage\n"
    for argv in (["nonsense"], ["--format", "json", "nonsense"], ["--format", "bogus", "verify"]):
        assert main(argv) == 2
        assert capsys.readouterr().out == '{"error": "usage"}\n'


def test_help_exits_0(capsys):
    from freebialg.cli import main

    for argv in (["--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: freebialg") and '{"error"' not in out


# -- golden output -----------------------------------------------------------------

# Exact stdout and exit code of reference invocations.  Short outputs are
# pinned byte for byte, long ones by length and SHA-256.  `verify morphisms`
# and `verify all` are left out: their group-law deviations are libm floats.
GOLDEN = [
    (
        ["--format", "text", "delta", "F6: g2"],
        0,
        "F1(x)F6: g1(x)g2 (+) F2(x)F3: g1(x)g2 (+) F3(x)F2: g1(x)g2 (+) F6(x)F1: g2(x)g1\n",
    ),
    (
        ["delta", "F12: (1/2-3i)*g1*g5^-2 + 2*g12 - 1"],
        0,
        (1728, "0864cc73af31332f2c4d36ad925bba05dbe8fb61a32b26d0d07cdc2a348987f0"),
    ),
    (
        ["counit", "F1: (1/3+1i)*g1^2 - 2"],
        2,
        '{"error": "expected \'*\' after coefficient (at offset 21)"}\n',
    ),
    (
        ["phi", "3", "2", "g6^3*g1"],
        0,
        '{"canonical": "(g3^3*g1, g2^3*g1)", "command": "phi", "result": '
        '{"first": [[3, 3], [1, 1]], "second": [[2, 3], [1, 1]]}}\n',
    ),
    (
        ["tensor-pd", "2", "3", "2", "1", "--radius", "4"],
        0,
        (5155, "19fb5ab9937769885aaa7048aed042b57a607eb7db43ab07da7b974e0fe28691"),
    ),
    (
        ["orbit", "2", "2", "--radius", "4", "--find", "g1*g2*g1^-1*g2^-1,1"],
        0,
        '{"command": "orbit", "count": 1929, "found": true, '
        '"params": {"m": 2, "n": 2}, "radius": 4}\n',
    ),
    (
        ["verify", "words"],
        0,
        (533, "c81293d440141d88897268af29db7a386bd8ad90d84a2fa20f652d531b81d302"),
    ),
    (
        ["verify", "bialgebra"],
        0,
        (806, "16f93503efc98a76da86298b6725d1c413d91069fa479e68e4bcb93d0d9ab59f"),
    ),
    (
        ["verify", "reps"],
        0,
        (579, "69f2b1291a0862980b2137de6cf7f09c92478e2ed8cef715f185ea75d29b3a58"),
    ),
    (
        ["probe", "claims", "--radius", "3"],
        0,
        (5477, "041f7c47a17a8a8dd83a56aa535e7f58396f7d2b39fa63911787cbc118f90a49"),
    ),
]


@pytest.mark.parametrize("argv,code,want", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_output(argv, code, want, capsys):
    import hashlib

    from freebialg.cli import main

    assert main(argv) == code
    out = capsys.readouterr().out
    if isinstance(want, str):
        assert out == want
    else:
        data = out.encode()
        assert (len(data), hashlib.sha256(data).hexdigest()) == want


def test_golden_delta_matches_readme():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = readme.splitlines()
    idx = lines.index('freebialg --format text delta "F6: g2"')
    assert lines[idx + 1] == "# " + GOLDEN[0][2].rstrip("\n")


# Exact stdout and exit code of `--format text` for every subcommand and for
# the errors.  `verify`'s run times are masked to N.NN, since they vary.
TEXT = [
    (["counit", "F1: g1"], 0, "1\n"),
    (["phi", "3", "2", "g6^3*g1"], 0, "(g3^3*g1, g2^3*g1)\n"),
    (
        ["tensor-pd", "2", "2", "1", "1", "--radius", "4"],
        0,
        (1705, "6032b10ccf7b6ef61a75a0abdef8d77344db59897fb48d94064aacb90192e7e8"),
    ),
    (["orbit", "2", "2", "--radius", "4"], 0, "orbit size 1929 at radius 4\n"),
    (
        ["orbit", "2", "2", "--radius", "4", "--find", "g1*g2*g1^-1*g2^-1,1"],
        0,
        "orbit size 1929 at radius 4, found=True\n",
    ),
    (
        ["probe", "claims", "--radius", "3"],
        0,
        'prop-indicator-tensor {"i": 1, "j": 1, "m": 2, "n": 2}: 4 disagreement(s)\n'
        'prop-indicator-tensor {"i": 1, "j": 1, "m": 3, "n": 2}: 8 disagreement(s)\n'
        'prop-indicator-tensor {"i": 1, "j": 2, "m": 2, "n": 2}: 4 disagreement(s)\n'
        'prop-indicator-tensor {"i": 1, "j": 2, "m": 3, "n": 2}: 8 disagreement(s)\n'
        'prop-indicator-tensor {"i": 1, "j": 3, "m": 3, "n": 2}: 8 disagreement(s)\n'
        'prop-indicator-tensor {"i": 2, "j": 1, "m": 2, "n": 2}: 4 disagreement(s)\n'
        'prop-indicator-tensor {"i": 2, "j": 1, "m": 3, "n": 2}: 8 disagreement(s)\n'
        'prop-indicator-tensor {"i": 2, "j": 2, "m": 2, "n": 2}: 4 disagreement(s)\n'
        'prop-indicator-tensor {"i": 2, "j": 2, "m": 3, "n": 2}: 8 disagreement(s)\n'
        'prop-indicator-tensor {"i": 2, "j": 3, "m": 3, "n": 2}: 8 disagreement(s)\n'
        'prop-intertwiner-injectivity {"m": 2, "n": 2}: 1 disagreement(s)\n'
        'prop-orbit-separation {"m": 2, "n": 2}: 0 disagreement(s)\n',
    ),
    (
        ["counit", "F3: 2*g2 - 1/3"],
        2,
        "error: expected '*' after coefficient (at offset 14)\n",
    ),
    (["verify", "bogus"], 2, "error: unknown suite 'bogus'\n"),
    (["probe", "bogus"], 2, "error: unknown probe target 'bogus'\n"),
    (
        ["verify", "words"],
        0,
        '[ok] words.cancellation-witnesses  {"checked": 3700}  (N.NNs)\n'
        '[ok] words.kernel-witnesses  {"checked": 169}  (N.NNs)\n'
        '[ok] words.lift-constructions  {"checked": 600}  (N.NNs)\n'
        '[ok] words.phi-homomorphism  {"checked": 300}  (N.NNs)\n'
        '[ok] words.reduction-laws  {"checked": 300}  (N.NNs)\n'
        "suite words: verified\n"
        "elapsed: N.NNs\n",
    ),
]


@pytest.mark.parametrize("argv,code,want", TEXT, ids=[" ".join(t[0]) for t in TEXT])
def test_text_output(argv, code, want, capsys):
    import hashlib
    import re

    from freebialg.cli import main

    assert main(["--format", "text", *argv]) == code
    out = re.sub(r"\d+\.\d\ds\b", "N.NNs", capsys.readouterr().out)
    if isinstance(want, str):
        assert out == want
    else:
        data = out.encode()
        assert (len(data), hashlib.sha256(data).hexdigest()) == want


@pytest.mark.parametrize(
    "argv",
    [
        ["delta", "F6: g2"],
        ["counit", "F1: g1"],
        ["phi", "2", "2", "g1*g2^-1*g4*g3^-1"],
        ["tensor-pd", "2", "2", "1", "1", "--radius", "3"],
        ["orbit", "2", "2", "--radius", "2", "--find", "g1,g1"],
        ["verify", "words"],
        ["probe", "claims", "--radius", "2"],
        ["delta", "F2: g3"],
        ["verify", "bogus"],
        ["nonsense"],
    ],
    ids=" ".join,
)
def test_reports_hold_only_public_keys(argv, capsys):
    """``run`` returns the report that ``main`` prints as JSON, key for key."""
    from freebialg.cli import main

    report, code = run(argv)
    assert not [key for key in report if key.startswith("_")]
    assert main(argv) == code
    assert capsys.readouterr().out == json.dumps(report, sort_keys=True) + "\n"


# -- the cached parser ---------------------------------------------------------------


def test_the_cached_parser_carries_no_state_between_calls(capsys, monkeypatch):
    """Calls through the one cached parser print what calls through a fresh
    parser each print, whatever flags the calls before them set."""
    from freebialg import cli

    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    plain = ["verify", "morphisms"]
    delta = ["delta", "F2: g1*g2^-1 + 1/2*g2"]
    calls = [
        (cli.run, plain),
        (cli.main, ["--seed", "3", *plain]),
        (cli.run, plain),
        (cli.main, [*plain, "--tol", "0"]),
        (cli.main, plain),
        (cli.run, [*plain, "--seed", "3"]),
        (cli.main, ["--format", "text", *delta]),
        (cli.main, delta),
        (cli.run, ["--tol", "0", *plain]),
        (cli.main, [*delta, "--format", "text"]),
        (cli.run, delta),
        (cli.main, ["--format", "text", "--seed", "x", *plain]),
        (cli.main, plain),
        (cli.run, plain),
        (cli.main, delta),
    ]

    def outputs():
        got = []
        for call, argv in calls:
            result = call(argv)
            got.append((result, capsys.readouterr().out))
        return got

    cached = outputs()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert cached == outputs()
    # the flags show in the output, so a value left over from an earlier
    # call would too
    assert cached[1][1] != cached[4][1] and cached[3][0] == 1 and cached[4][0] == 0
    assert cached[6][1] == cached[9][1] != cached[7][1]
    assert cached[11] == (2, "error: usage\n")
    assert cached[0] == cached[2] == cached[13] and cached[4] == cached[12]
