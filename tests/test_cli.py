"""Command-line surface: flags, exit codes, determinism, formats."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from pottsbethe import verify
from pottsbethe.cli import main
from pottsbethe.dynamics import periodic_point
from pottsbethe.mapping import MapParams, PoleHit


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    @pytest.mark.parametrize("argv,regime,kappa", [
        (["--p", "3", "--k", "3", "--q", "3", "--theta", "1+p^2"], "A", 1),
        (["--p", "5", "--k", "3", "--q", "5", "--theta", "1+p^3"], "B1", 1),
        (["--p", "5", "--k", "2", "--q", "5", "--theta", "1+p^3"], "B2", 2),
    ])
    def test_regimes(self, capsys, argv, regime, kappa):
        code, out, _ = run_cli(["classify"] + argv, capsys)
        assert code == 0
        report = json.loads(out)
        assert report["regime"] == regime and report["kappa"] == kappa
        assert report["multiplier_at_1"]["class"] == "attractive"
        if regime.startswith("B"):
            assert len(report["partition"]["balls"]) == kappa

    def test_p2_rejected(self, capsys):
        code, _, err = run_cli(
            ["classify", "--p", "2", "--k", "2", "--q", "2",
             "--theta", "1+p^3"], capsys)
        assert code == 2 and "p >= 3 required" in err

    def test_malformed_theta(self, capsys):
        for theta, message in [
            ("one", "'one': expected 'a/b' or '1+c*p^m'"),
            ("1/0", "'1/0': zero denominator"),
        ]:
            assert run_cli(["classify", "--p", "5", "--k", "2", "--q", "5",
                            "--theta", theta], capsys) == \
                (2, "", f"pottsbethe: error: cannot parse theta {message}\n")

    def test_unclassified_gap_reports_inequality(self, capsys):
        code, out, _ = run_cli(
            ["classify", "--p", "5", "--k", "2", "--q", "5",
             "--theta", "1+p^1"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["regime"] == "unclassified"
        assert "q^2" in report["regime_detail"]

    def test_params_precision_shortage_exit_code(self, capsys):
        # q + theta - 1 = 5^40/7 cancels at 8 digits and at the retries
        # at 16 and 32: a shortage of digits, not a falsified theory
        code, out, err = run_cli(
            ["classify", "--p", "5", "--k", "2", "--q", "5", "--theta",
             f"{5**40 - 28}/7", "--precision", "8"], capsys)
        assert code == 3 and out == ""
        assert "precision exhausted" in err

    def test_params_precision_shortage_is_retried(self, capsys):
        # q + theta - 1 = 5^13/7 cancels to O(5^8) at 8 digits; the
        # 16-digit rung builds the parameters and gives the report
        # --precision 16 gives
        argv = ["classify", "--p", "5", "--k", "2", "--q", "5", "--theta",
                "1220703097/7", "--precision"]
        code, out, _ = run_cli(argv + ["8"], capsys)
        assert code == 0 and json.loads(out)["config"]["digits"] == 16
        assert run_cli(argv + ["16"], capsys) == (0, out, "")


class TestOrbitAndSweep:
    def test_single_orbit(self, capsys):
        code, out, _ = run_cli(
            ["orbit", "--p", "3", "--k", "3", "--q", "3",
             "--theta", "1+p^2", "--x0", "5"], capsys)
        assert code == 0
        rec = json.loads(out)["record"]
        assert rec["status"] == "converged_to_1"
        assert rec["final_norm_exp_to_1"] >= 21

    def test_precision_exhaustion_exit_code(self, capsys):
        # a rational start that agrees with a Julia point to 40 digits
        # cannot be decided at 8 working digits, even after the built-in
        # retries at 16 and 32
        params = MapParams.make(5, 2, 5, "1+p^3")
        x = periodic_point(params, (1, 2))
        deep = (x.unit * 5**x.val) % 5**40
        code, out, _ = run_cli(
            ["orbit", "--p", "5", "--k", "2", "--q", "5", "--theta",
             "1+p^3", "--precision", "8", "--x0", str(deep)], capsys)
        assert code == 3
        assert json.loads(out)["record"]["reason"] == "precision"

    def test_inexact_pole_tree_hit_is_precision(self, capsys):
        # at 3, 6 and 12 digits a pole preimage is only indistinguishable
        # from the pole before its level's step: a precision shortage on
        # every rung, not a falsification
        code, out, err = run_cli(
            ["sweep", "--p", "5", "--k", "2", "--q", "5", "--theta", "1+p^3",
             "--samples", "200", "--depth", "30", "--seed", "5",
             "--precision", "3", "--pole-tree-depth", "3"], capsys)
        assert code == 3 and out == ""
        assert "precision exhausted" in err

    def test_pole_tree_shortage_is_retried(self, capsys):
        # the 12-digit pole tree runs short at level 3; the tree records
        # read the 24-digit rung's tree, as --precision 24 does
        argv = ["sweep", "--p", "5", "--k", "2", "--q", "5", "--theta",
                "1+p^3", "--samples", "200", "--depth", "30", "--seed", "5",
                "--pole-tree-depth", "3", "--precision"]
        code, out, _ = run_cli(argv + ["12"], capsys)
        assert code == 0
        tree_recs = [r for r in json.loads(out)["records"]
                     if r["category"].startswith("pole_tree:")]
        assert len(tree_recs) == 2 + 4 + 8
        assert all(r["retries"] == 1 and r["classification"] ==
                   "pole_preimage" for r in tree_recs)
        code, out, _ = run_cli(argv + ["24"], capsys)
        assert code == 0
        assert [r for r in json.loads(out)["records"] if
                r["category"].startswith("pole_tree:")] == [
            {**r, "retries": 0} for r in tree_recs]

    def test_cancelled_contraction_is_retried(self, capsys):
        # at 32 digits f(x)-1 cancels inside the convergence ball, which
        # is a precision shortage, not a falsified contraction; the
        # 64-digit rung decides it
        code, out, _ = run_cli(
            ["orbit", "--p", "5", "--k", "3", "--q", "5", "--theta",
             "1+p^3", "--x0", "51408223326", "--precision", "32"], capsys)
        assert code == 0
        rec = json.loads(out)["record"]
        assert rec["retries"] == 1
        assert rec["status"] == "converged_to_1" and rec["steps"] == 10

    def test_empty_sweep(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--p", "3", "--k", "3", "--q", "3", "--theta",
             "1+p^2", "--samples", "0", "--seed", "1"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["records"] == [] and report["histogram"] == {}

    def test_sweep_csv(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--p", "3", "--k", "3", "--q", "3", "--theta",
             "1+p^2", "--samples", "6", "--seed", "2", "--format", "csv"],
            capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("index,category,input,status")
        assert len([l for l in lines[1:] if l and not l.startswith(
            ("status", "converged"))]) >= 6

    def test_determinism_byte_identical(self, capsys):
        argv = ["sweep", "--p", "5", "--k", "3", "--q", "5", "--theta",
                "1+p^3", "--samples", "25", "--seed", "9", "--depth", "25"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2 and out1

    def test_pole_tree_seeds_classify_as_preimages(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--p", "5", "--k", "2", "--q", "5", "--theta",
             "1+p^3", "--samples", "3", "--seed", "4", "--depth", "20",
             "--pole-tree-depth", "2"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["histogram"]["pole_hit"] == 2 + 4
        assert report["classification_histogram"]["pole_preimage"] == 6
        tree_recs = [r for r in report["records"]
                     if r["category"].startswith("pole_tree:")]
        assert all(r["status"] == "pole_hit" and
                   r["steps"] == int(r["category"].split(":")[1])
                   for r in tree_recs)

    def test_sweep_jsonl(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--p", "3", "--k", "3", "--q", "3", "--theta",
             "1+p^2", "--samples", "5", "--seed", "6", "--format", "jsonl"],
            capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6  # 5 records + summary
        for line in lines[:-1]:
            rec = json.loads(line)
            assert {"index", "status", "steps",
                    "final_norm_exp_to_1"} <= set(rec)
        assert "histogram" in json.loads(lines[-1])


class TestJuliaVerify:
    def test_b2_passes(self, capsys):
        code, out, _ = run_cli(
            ["julia-verify", "--p", "5", "--k", "2", "--q", "5", "--theta",
             "1+p^3", "--depth", "3", "--samples", "10"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["falsified"] is False
        names = {c["name"] for c in report["checks"]}
        assert "incidence_all_ones" in names

    def test_b1_fixed_point_checks(self, capsys):
        code, out, _ = run_cli(
            ["julia-verify", "--p", "5", "--k", "3", "--q", "5", "--theta",
             "1+p^3", "--depth", "2", "--samples", "10"], capsys)
        assert code == 0
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["b1_fixed_point_residual"]["pass"]
        assert checks["b1_fixed_point_repelling"]["pass"]

    @pytest.mark.parametrize("precision,code", [("16", 3), ("128", 0)])
    def test_cancelled_periodic_residual_is_precision(self, capsys,
                                                      precision, code):
        # at 16, 32 and 64 digits a periodic or fixed-point residual
        # cancels short of the digits checked: a precision shortage
        # (exit 3), not a falsified cycle; 128 digits decide every check
        got, out, err = run_cli(
            ["julia-verify", "--p", "3", "--k", "3", "--q", "9", "--theta",
             "1+p^5", "--depth", "5", "--precision", precision], capsys)
        assert got == code
        if code == 0:
            assert json.loads(out)["falsified"] is False
        else:
            assert "precision exhausted" in err

    def test_cancelled_periodic_residual_is_retried(self, capsys):
        # the 64-digit report runs short; its 128-digit rung is the report
        # --precision 128 gives
        argv = ["julia-verify", "--p", "3", "--k", "3", "--q", "9",
                "--theta", "1+p^5", "--depth", "5", "--precision"]
        code, out, _ = run_cli(argv + ["64"], capsys)
        assert code == 0 and json.loads(out)["config"]["digits"] == 128
        assert run_cli(argv + ["128"], capsys) == (0, out, "")

    def test_depth_zero_vacuous_pass(self, capsys):
        code, out, _ = run_cli(
            ["julia-verify", "--p", "5", "--k", "2", "--q", "5", "--theta",
             "1+p^3", "--depth", "0", "--samples", "5"], capsys)
        assert code == 0
        assert json.loads(out)["falsified"] is False

    def test_zero_pairs_is_usage_error(self, capsys):
        # an expansion-law check of no pairs would read as a falsification
        with pytest.raises(SystemExit) as exc:
            main(["julia-verify", *B2_ARGS, "--depth", "2", "--samples", "0"])
        assert exc.value.code == 2
        assert "at least one pair per ball, got 0" in capsys.readouterr().err

    def test_word_budget_is_usage_error(self, capsys):
        # 2**40 words would take 2**79 isometry pairs: refused before any
        # word is built
        code, out, err = run_cli(["julia-verify", *B2_ARGS, "--depth", "40"],
                                 capsys)
        assert code == 2 and out == ""
        assert "1099511627776 words" in err and "budget" in err

    def test_word_budget_admits_depth_10(self):
        # depth 10 at kappa = 2 compares 523 776 pairs, and still runs
        assert 2**10 * (2**10 - 1) // 2 <= verify.JULIA_PAIR_BUDGET

    def test_regime_a_is_falsifying_input(self, capsys):
        code, out, _ = run_cli(
            ["julia-verify", "--p", "3", "--k", "3", "--q", "3", "--theta",
             "1+p^2", "--depth", "2"], capsys)
        assert code == 1
        assert json.loads(out)["falsified"] is True


B2_ARGS = ["--p", "5", "--k", "2", "--q", "5", "--theta", "1+p^3"]


@pytest.mark.parametrize("argv", [
    ["sweep", *B2_ARGS, "--samples", "3", "--seed", "1", "--depth", "-1"],
    ["sweep", *B2_ARGS, "--samples", "-1"],
    ["sweep", *B2_ARGS, "--samples", "3", "--max-iter", "-1"],
    ["sweep", *B2_ARGS, "--samples", "3", "--tol", "-1"],
    ["sweep", *B2_ARGS, "--samples", "3", "--pole-tree-depth", "-1"],
    ["orbit", *B2_ARGS, "--x0", "7", "--max-iter", "-1"],
    ["orbit", *B2_ARGS, "--x0", "7", "--tol", "-1"],
    ["julia-verify", *B2_ARGS, "--depth", "-1"],
    ["julia-verify", *B2_ARGS, "--samples", "-1"],
], ids=lambda argv: argv[0] + argv[-2])
def test_negative_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("precision", ["0", "-3"])
def test_non_positive_precision_is_a_usage_error(capsys, precision):
    with pytest.raises(SystemExit) as exc:
        main(["classify", *B2_ARGS, "--precision", precision])
    assert exc.value.code == 2
    assert f"argument --precision: must be >= 1, got {precision}\n" in \
        capsys.readouterr().err


@pytest.mark.parametrize("x0,message", [
    ("1/0", "--x0: zero denominator in '1/0'"),
    ("1/2/3", "--x0: not a rational a or a/b: '1/2/3'"),
], ids=["zero-denominator", "two-slashes"])
def test_malformed_x0_is_a_usage_error(capsys, x0, message):
    assert run_cli(["orbit", *B2_ARGS, "--x0", x0], capsys) == \
        (2, "", f"pottsbethe: error: {message}\n")


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    # a report that cannot be written is bad input, not a falsification
    out = tmp_path / "missing" / "x.json"
    code, stdout, err = run_cli(["classify", *B2_ARGS, "--out", str(out)],
                                capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith("pottsbethe: error: --out: ")
    assert str(out) in err and not out.exists()


def test_classify_at_a_prime_near_10_18(capsys):
    # p = 10^18 + 3 is decided prime at once; trial division would take
    # about a minute
    p = str(10**18 + 3)
    start = time.perf_counter()
    code, out, _ = run_cli(["classify", "--p", p, "--k", "2", "--q", p,
                            "--theta", "1+p^3"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out)["regime"] == "B2"


@pytest.mark.parametrize("exact,code,message", [
    (True, 1, "falsified"), (False, 3, "precision exhausted")])
def test_pole_hit_exit_code(capsys, monkeypatch, exact, code, message):
    # a pole hit is a falsification only when the point is exactly the
    # pole; one only indistinguishable from it is a shortage of digits
    def hit(params):
        raise PoleHit("injected", exact=exact)
    monkeypatch.setattr(verify, "classify_report", hit)
    assert run_cli(["classify", *B2_ARGS], capsys) == (
        code, "", f"pottsbethe: {message}: injected\n")


def _run_module(args):
    """``python -m pottsbethe`` in a child process that finds the source
    tree without an installed package."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-m", "pottsbethe", *args],
                          capture_output=True, text=True, env=env)


def test_console_entry_point_runs():
    proc = _run_module(["classify", *B2_ARGS])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["regime"] == "B2"


def test_help_documents_theta_grammar():
    proc = _run_module(["classify", "--help"])
    assert proc.returncode == 0
    assert "1+" in proc.stdout and "p^" in proc.stdout
