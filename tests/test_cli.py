"""Command-line surface: flags, exit codes, determinism, formats."""

import contextlib
import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from test_dynamics import near_pole_seed
from test_verify import _calls_to, plant_in_word_tree

from pottsbethe import dynamics, hensel, mapping, sampling, verify
from pottsbethe.cli import build_parser, main
from pottsbethe.dynamics import DEFAULT_MAX_ITER, DEFAULT_TOL, periodic_point
from pottsbethe.mapping import (
    WORK_BUDGET,
    MapParams,
    NearPoleHit,
    PoleHit,
    build_partition,
)
from pottsbethe.padic import PrecisionError


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
        code, out, err = run_cli(
            ["orbit", "--p", "5", "--k", "2", "--q", "5", "--theta",
             "1+p^3", "--precision", "8", "--x0", str(deep)], capsys)
        assert code == 3
        assert json.loads(out)["record"]["reason"] == "precision"
        # once an empty stderr, unlike every other exit 3
        assert err == ("pottsbethe: precision exhausted: orbit undecided "
                       "at 32 digits, the last retry\n")

    @pytest.mark.parametrize("digits,code,status,steps,retries", [
        (64, 3, "undecided", None, 3),
        (128, 0, "converged_to_1", 12, 2),
        (256, 0, "converged_to_1", 12, 1),
    ])
    def test_near_pole_seed_is_a_shortage(self, capsys, digits, code,
                                          status, steps, retries):
        # f(x0) agrees with the pole to 397 digits without being the pole:
        # each rung short of that reads a NearPoleHit, which is retried,
        # and the 512-digit rung sees the orbit converge
        code_, out, _ = run_cli(
            ["orbit", "--p", "5", "--k", "2", "--q", "5", "--theta", "1+p^3",
             "--x0", str(near_pole_seed()), "--precision", str(digits)],
            capsys)
        rec = json.loads(out)["record"]
        assert (code_, rec["status"], rec["steps"], rec["retries"]) == (
            code, status, steps, retries)
        assert rec["reason"] == ("precision" if code == 3 else None)

    def test_inexact_pole_tree_hit_is_precision(self, capsys):
        # at 3, 6 and 12 digits the pole tree's certificates need more
        # digits than its nodes carry: a precision shortage on every
        # rung, not a falsification
        code, out, err = run_cli(
            ["sweep", "--p", "5", "--k", "2", "--q", "5", "--theta", "1+p^3",
             "--samples", "200", "--depth", "30", "--seed", "5",
             "--precision", "3", "--pole-tree-depth", "3"], capsys)
        assert code == 3 and out == ""
        assert "precision exhausted" in err

    def test_pole_tree_shortage_is_retried(self, capsys):
        # the 12-digit pole tree runs short at level 2; the tree records
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

    @pytest.mark.parametrize("depth", ["0", "-1"])
    def test_depth_below_one_is_a_usage_error(self, capsys, depth):
        # depth 0 realizes no word, so every word check would pass on
        # nothing
        with pytest.raises(SystemExit) as exc:
            main(["julia-verify", *B2_ARGS, "--depth", depth])
        assert exc.value.code == 2
        assert f"must be >= 1, got {depth}" in capsys.readouterr().err

    def test_depth_zero_report_is_refused(self):
        params = MapParams.make(5, 2, 5, "1+p^3")
        with pytest.raises(ValueError, match="depth must be >= 1, got 0"):
            verify.julia_report(params, 0, pairs_per_ball=5)

    def test_zero_pairs_is_usage_error(self, capsys):
        # an expansion-law check of no pairs would read as a falsification
        with pytest.raises(SystemExit) as exc:
            main(["julia-verify", *B2_ARGS, "--depth", "2", "--samples", "0"])
        assert exc.value.code == 2
        assert "at least one pair per ball, got 0" in capsys.readouterr().err

    def test_word_budget_is_usage_error(self, capsys):
        # 2**40 words, in a tree of 2**41 - 2 points: refused before any
        # word is built
        code, out, err = run_cli(["julia-verify", *B2_ARGS, "--depth", "40"],
                                 capsys)
        assert code == 2 and out == ""
        assert "1099511627776 words" in err and "budget" in err

    @pytest.mark.parametrize("argv,message", [
        # kappa = 400: 160 000 entries, a 45 s run before the budget
        (["--p", "401", "--k", "400", "--q", "401", "--theta", "1+p^3",
          "--depth", "1"], "160000 incidence entries"),
        # kappa = 59 at depth 2: 60 prefixes of 1 711 pairs each
        (["--p", "709", "--k", "59", "--q", "709", "--theta", "1+p^3",
          "--depth", "2"], "102660 isometry comparisons"),
        # 2 points per pair, 25 001 pairs in each of 2 balls
        (["--p", "5", "--k", "2", "--q", "5", "--theta", "1+p^3",
          "--depth", "1", "--samples", "25001"],
         "100004 expansion-law points"),
    ], ids=["incidence", "isometry", "expansion"])
    def test_loop_budget_is_usage_error(self, capsys, monkeypatch, argv,
                                        message):
        # each loop of the report that grows with kappa is refused before
        # any branch is taken
        calls = _calls_to(monkeypatch, mapping.inverse_branch)
        code, out, err = run_cli(["julia-verify", *argv], capsys)
        assert (code, out, calls) == (2, "", [])
        assert f"{message}; budget is {WORK_BUDGET}" in err

    def test_word_budget_admits_depth_10(self):
        # the budget counts the word tree's points, as the pole tree's:
        # at kappa = 2 it admits depth 10 (2 046 points) and up to 15
        params = MapParams.make(5, 2, 5, "1+p^3")
        assert dynamics.tree_size(params, 10) == 2046
        assert dynamics.tree_size(params, 15) == 2**16 - 2
        with pytest.raises(ValueError, match="depth 16 has 65536 words, "
                           "whose tree holds 131070 points; budget is "
                           "100000"):
            dynamics.tree_size(params, 16)

    def test_point_out_of_its_ball_is_falsified(self, capsys, monkeypatch):
        # the leaf of the shift check's word moved to 0, outside the cover:
        # that word is not realized, nor is its shift read off it, which
        # falsifies the report; it once escaped as a usage error, "orbit
        # leaves the cover at step 0"
        plant_in_word_tree(monkeypatch, (1, 2, 1, 2),
                           lambda params, z: params.embed(0))
        code, out, err = run_cli(["julia-verify", *B2_ARGS, "--depth", "4",
                                  "--samples", "3"], capsys)
        assert code == 1 and err == ""
        report = json.loads(out)
        failed = {c["name"]: c["detail"] for c in report["checks"]
                  if not c["pass"]}
        assert failed.pop("words_realized_roundtrip") == {"realized": 29,
                                                          "total": 30}
        assert failed.pop("shift_equivariance") == [1, 2, 1, 2]
        assert list(failed) == ["isometry_cylinder_vs_word_metric"]
        assert report["falsified"] is True

    def test_regime_a_is_falsifying_input(self, capsys):
        code, out, _ = run_cli(
            ["julia-verify", "--p", "3", "--k", "3", "--q", "3", "--theta",
             "1+p^2", "--depth", "2"], capsys)
        assert code == 1
        assert json.loads(out)["falsified"] is True


B2_ARGS = ["--p", "5", "--k", "2", "--q", "5", "--theta", "1+p^3"]


@pytest.mark.parametrize("argv", [
    ["sweep", *B2_ARGS, "--samples", "-1"],
    ["sweep", *B2_ARGS, "--samples", "3", "--max-iter", "-1"],
    ["sweep", *B2_ARGS, "--samples", "3", "--tol", "-1"],
    ["sweep", *B2_ARGS, "--samples", "3", "--pole-tree-depth", "-1"],
    ["orbit", *B2_ARGS, "--x0", "7", "--max-iter", "-1"],
    ["orbit", *B2_ARGS, "--x0", "7", "--tol", "-1"],
    ["julia-verify", *B2_ARGS, "--samples", "-1"],
], ids=lambda argv: argv[0] + argv[-2])
def test_negative_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_sweep_depth_below_one_is_a_usage_error(capsys, depth):
    # depth 0 follows no step, so every record would read both
    # converged_to_1 and a Julia candidate with an empty itinerary
    with pytest.raises(SystemExit) as exc:
        main(["sweep", *B2_ARGS, "--samples", "3", "--seed", "1",
              "--depth", depth])
    assert exc.value.code == 2
    assert f"argument --depth: must be >= 1, got {depth}" in \
        capsys.readouterr().err
    # the library refuses it before any record, so with no records too
    params = MapParams.make(5, 2, 5, "1+p^3")
    with pytest.raises(ValueError, match=f"depth must be >= 1, got {depth}"):
        verify.sweep_report(params, 0, 1, classify_depth=int(depth))


@pytest.mark.parametrize("command", [["orbit", "--x0", "7"], ["sweep"]])
def test_iteration_defaults_are_the_library_defaults(command):
    args = build_parser().parse_args(command[:1] + B2_ARGS + command[1:])
    assert (args.max_iter, args.tol) == (DEFAULT_MAX_ITER, DEFAULT_TOL)


@pytest.mark.parametrize("argv,bound", [
    (["orbit", *B2_ARGS, "--x0", "-4"], 1),
    (["sweep", *B2_ARGS, "--samples", "300", "--depth", "5"], 1),
    (["orbit", "--p", "3", "--k", "3", "--q", "3", "--theta", "1+p^2",
      "--x0", "5"], 1),  # regime A
    (["orbit", "--p", "5", "--k", "2", "--q", "25", "--theta", "1+p^5",
      "--x0", "7"], 2),
    (["sweep", *B2_ARGS, "--samples", "0"], 1),
], ids=["b2-orbit", "b2-sweep", "a-orbit", "b2-v2-orbit", "b2-empty-sweep"])
def test_tol_below_v_q_theta_1_is_a_usage_error(capsys, argv, bound):
    # a convergence ball {v(x-1) >= tol+1} wider than the attracting ball
    # {v(x-1) >= v(q+theta-1)+1} holds points where the map need not
    # contract, and would read valid input as falsified; a sweep refuses
    # it even when it has no record to run
    for tol in range(bound):
        assert run_cli(argv + ["--tol", str(tol)], capsys) == (
            2, "", f"pottsbethe: error: tol={tol} is below "
                   f"v(q+theta-1)={bound}: the convergence ball would "
                   "reach outside the attracting ball\n")
    code, out, _ = run_cli(argv + ["--tol", str(bound)], capsys)
    assert code == 0
    report = json.loads(out)
    records = report["records"] if "records" in report else [report["record"]]
    assert len(records) == report["config"].get("samples", 1)
    assert {r["status"] for r in records} <= {"converged_to_1"}


def test_unclassified_pole_tree_is_a_usage_error(capsys):
    # the pole tree, like the classification, needs a known regime: a tree
    # of unclassified parameters is refused, not quietly left empty
    code, out, err = run_cli(
        ["sweep", "--p", "5", "--k", "2", "--q", "5", "--theta", "1+p^1",
         "--samples", "0", "--pole-tree-depth", "2"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("pottsbethe: error: parameters are unclassified: ")


def test_unclassified_julia_verify_is_a_usage_error(capsys):
    # the theory makes no claim on unclassified parameters, so there is
    # nothing to falsify: refused like a sweep's classification
    code, out, err = run_cli(
        ["julia-verify", "--p", "5", "--k", "2", "--q", "5", "--theta",
         "1+p^1", "--depth", "2"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("pottsbethe: error: parameters are unclassified: ")


@pytest.mark.parametrize("theta", ["1+p^1", "1+p^2"])
def test_unclassified_classification_is_a_usage_error(capsys, theta):
    # refused before any record, so a sweep of no records is refused too;
    # at 1+p^1, where 1 does not attract either, this refusal comes first
    for samples in ("0", "2"):
        code, out, err = run_cli(
            ["sweep", "--p", "5", "--k", "2", "--q", "5", "--theta", theta,
             "--samples", samples, "--depth", "3"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(
            "pottsbethe: error: parameters are unclassified: ")


@pytest.mark.parametrize("command", [
    ["orbit", "--x0", "476837158203126"],
    ["sweep", "--samples", "2"],
    ["sweep", "--samples", "0"],
])
def test_repelling_one_is_a_usage_error(capsys, command):
    # v(k)+v(theta-1)-v(q+theta-1) = 0+1-1: the multiplier at 1 is a unit,
    # so 1 attracts nothing and no orbit can be certified to converge;
    # the orbit exited 1, "falsified", before
    code, out, err = run_cli(
        command[:1] + ["--p", "5", "--k", "2", "--q", "5", "--theta",
                       "1+p^1"] + command[1:], capsys)
    assert (code, out) == (2, "")
    assert err == ("pottsbethe: error: v(k)+v(theta-1)-v(q+theta-1)=0 is "
                   "below 1: the fixed point 1 does not attract\n")


def test_regime_a_pole_tree_is_certified_empty(capsys):
    # in regime A nothing maps onto the pole: the tree adds no record
    argv = ["sweep", "--p", "3", "--k", "3", "--q", "3", "--theta", "1+p^2",
            "--samples", "2", "--depth", "2"]
    code, out, _ = run_cli(argv + ["--pole-tree-depth", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert [r["category"] for r in report["records"]
            if r["category"].startswith("pole_tree:")] == []
    plain = json.loads(run_cli(argv, capsys)[1])
    assert report["records"] == plain["records"]


@pytest.mark.parametrize("command", [
    ["classify"], ["orbit", "--x0", "7"], ["julia-verify"]])
def test_format_is_a_sweep_option(capsys, command):
    # only a sweep has records to write as CSV or JSON lines
    with pytest.raises(SystemExit) as exc:
        main(command[:1] + B2_ARGS + command[1:] + ["--format", "csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


def test_cover_beyond_the_work_budget_is_a_usage_error(capsys):
    # kappa = 100 002 balls, past the one budget on loops that grow with
    # kappa: refused before a root of unity is computed
    start = time.perf_counter()
    code, out, err = run_cli(["classify", "--p", "100003", "--k", "100002",
                              "--q", "100003", "--theta", "1+p^3"], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "a cover of kappa=100002 balls; budget is 100000" in err


def test_theta_exponent_beyond_the_work_budget_is_a_usage_error(capsys):
    # 1+p^m is refused before p**m is computed
    code, out, err = run_cli(["classify", "--p", "5", "--k", "2", "--q", "5",
                              "--theta", "1+p^100001"], capsys)
    assert (code, out) == (2, "")
    assert "theta exponent m=100001; budget is 100000" in err


@pytest.mark.parametrize("tol,closed_form", [("1", 277), ("6", 300)])
def test_eval_f_owns_the_residue_kernel(capsys, monkeypatch, tol,
                                        closed_form):
    # q = 5**50 has more bits than the kernel keeps exact at 20 digits, so
    # eval_f maps these orbits on the composed path; that path loses the
    # digits the kernel loses, so the attracting-ball closed form settles
    # the records, and walking every orbit gives the same bytes
    monkeypatch.setattr(verify, "_cpu_count", lambda: 1)
    argv = ["sweep", "--p", "5", "--k", "5", "--q", str(5**50), "--theta",
            "1+p^1", "--precision", "20", "--samples", "300", "--seed", "3",
            "--tol", tol]
    verdict, decided = dynamics._lemma_verdict, []

    def counted(*args):
        found = verdict(*args)
        decided.append(found is not None)
        return found
    monkeypatch.setattr(dynamics, "_lemma_verdict", counted)
    settled = run_cli(argv, capsys)
    assert settled[0] == 0 and sum(decided) == closed_form
    monkeypatch.setattr(dynamics, "_lemma_verdict", lambda *args: None)
    assert run_cli(argv, capsys) == settled


def test_precision_past_the_work_budget_is_a_usage_error(capsys):
    # the last retry rung, 4 x 25 001 digits, passes the budget, so the
    # command is refused before any parameters are built; 25 000 is not
    start = time.perf_counter()
    code, out, err = run_cli(["classify", "--p", "5", "--k", "3", "--q", "5",
                              "--theta", "1+p^3", "--precision", "25001"],
                             capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == ("pottsbethe: error: 25001 digits, retried at up to "
                   f"100004; budget is {WORK_BUDGET}\n")
    assert verify.make_params(5, 3, 5, "1+p^3", 25000).digits == 25000


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


def test_x0_past_the_int_text_limit_names_it(capsys):
    code, out, err = run_cli(["orbit", *B2_ARGS, "--x0", "7" * 4301], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("pottsbethe: error: --x0: Exceeds the limit "
                          "(4300 digits) for integer string conversion")


@contextlib.contextmanager
def int_text_unlimited():
    """CPython's limit on int-to-text digits, lifted in this block only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_reports_write_units_past_the_int_text_limit(capsys):
    # at 7 000 digits a unit has up to 4 893 decimal digits, past the
    # 4 300 CPython writes by default; the process keeps its limit
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(["classify", *B2_ARGS, "--precision", "7000"],
                             capsys)
    assert (code, err) == (0, "")
    params = MapParams.make(5, 2, 5, "1+p^3", 7000)
    centers = [json.loads(out)["partition"]["balls"][i]["center"]
               for i in (0, 1)]
    code, out, err = run_cli(["sweep", *B2_ARGS, "--samples", "3",
                              "--precision", "7000"], capsys)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    labels = [rec["input"] for rec in json.loads(out)["records"]]
    with int_text_unlimited():
        for text, b in zip(centers, build_partition(params).balls):
            v, u, n = text.split(":")
            assert (int(v), int(u), int(n)) == \
                (b.center.val, b.center.unit, b.center.prec)
            assert u == str(b.center.unit) and len(u) > 4300
        assert labels == [str(s.payload) for s
                          in sampling.spanning_samples(params, 3, 0)]
        assert max(map(len, labels)) > 4300


def test_reports_write_a_theta_past_the_int_text_limit(capsys):
    # theta = 1+5^7000 has 4 893 decimal digits
    code, out, err = run_cli(["classify", "--p", "5", "--k", "2", "--q", "5",
                              "--theta", "1+p^7000", "--precision", "7200"],
                             capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    with int_text_unlimited():
        theta = str(1 + 5**7000)
    assert (report["regime"], len(theta)) == ("B2", 4893)
    assert report["config"]["theta"] == report["partition"]["theta"] == theta


def test_orbit_report_writes_an_x0_past_the_int_text_limit():
    params = MapParams.make(5, 2, 5, "1+p^3")
    report = verify.orbit_report(params, Fraction(10**5000 + 7),
                                 DEFAULT_MAX_ITER, DEFAULT_TOL)
    assert report["config"]["x0"] == "1" + "0" * 4999 + "7"


def test_unwritable_out_is_a_usage_error(capsys, monkeypatch, tmp_path):
    # a report that cannot be written is bad input, not a falsification;
    # the path is checked before the report (julia-verify at depth 8 takes
    # about a second), in the words open() gives
    calls = []
    monkeypatch.setattr(verify, "julia_report",
                        lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "missing" / "x.json"
    assert run_cli(["julia-verify", *B2_ARGS, "--depth", "8",
                    "--out", str(out)], capsys) == (
        2, "", "pottsbethe: error: --out: [Errno 2] No such file or "
               f"directory: '{out}'\n")
    assert calls == [] and not out.exists()
    code, stdout, err = run_cli(["classify", *B2_ARGS, "--out",
                                 str(tmp_path)], capsys)
    assert (code, stdout) == (2, "") and "--out: cannot write" in err


def test_failed_run_leaves_out_as_it_was(capsys, monkeypatch, tmp_path):
    # the check creates and truncates nothing, and a run that fails after
    # it writes nothing
    def short(params):
        raise PrecisionError("injected")
    monkeypatch.setattr(verify, "classify_report", short)
    kept, new = tmp_path / "kept.json", tmp_path / "new.json"
    kept.write_text("earlier report\n")
    for out in (kept, new):
        code, _, _ = run_cli(["classify", *B2_ARGS, "--out", str(out)],
                             capsys)
        assert code == 3
    assert kept.read_text() == "earlier report\n" and not new.exists()


def test_sweep_memory_follows_its_output(capsys, monkeypatch, tmp_path):
    # each record is kept as its text, not its dict, and the report is
    # written in pieces, never joined: a serial 2 000-record JSON sweep
    # peaks at ~2.6 times its output in traced Python memory, against
    # ~9.4 times when the records were dicts encoded at once
    monkeypatch.setattr(verify, "_cpu_count", lambda: 1)
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--p", "5", "--k", "3", "--q", "5", "--theta", "1+p^3",
            "--depth", "50", "--seed", "3", "--out", str(out)]
    assert main(argv + ["--samples", "3"]) == 0  # caches the partition
    tracemalloc.start()
    try:
        assert main(argv + ["--samples", "2000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(json.loads(out.read_text())["records"]) == 2000
    assert peak < 4 * out.stat().st_size


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
        raise (PoleHit if exact else NearPoleHit)("injected")
    monkeypatch.setattr(verify, "classify_report", hit)
    assert run_cli(["classify", *B2_ARGS], capsys) == (
        code, "", f"pottsbethe: {message}: injected\n")


def test_failed_root_of_unity_lift_is_falsified(capsys, monkeypatch):
    # a root of unity off in its last digit fails the theory's check: a
    # falsification, not a traceback
    lift = hensel._unit_root

    def planted(r, m, y, n, p):  # principal roots start from y = 1
        return lift(r, m, y, n, p) + (p**(n - 1) if y != 1 else 0)

    monkeypatch.setattr(hensel, "_unit_root", planted)
    build_partition.cache_clear()
    assert run_cli(["classify", *B2_ARGS], capsys) == (
        1, "", "pottsbethe: falsified: lifted residue is not a k-th root "
        "of unity\n")
    build_partition.cache_clear()


def test_failed_b1_fixed_point_is_falsified(capsys, monkeypatch):
    # f moved by p^30 at every inexact point: the fixed point B1 returns
    # fails f(x) = x, and julia-verify reports a falsification
    f = mapping.eval_f
    monkeypatch.setattr(mapping, "eval_f", lambda params, x: (
        f(params, x) + (0 if x.is_exact else params.p**30)))
    code, out, err = run_cli(["julia-verify", "--p", "5", "--k", "3",
                              "--q", "5", "--theta", "1+p^3", "--depth", "2",
                              "--samples", "3"], capsys)
    assert (code, out, err) == (
        1, "", "pottsbethe: falsified: candidate fixed point fails "
        "f(x) = x: residual valuation 30\n")


@pytest.mark.parametrize("p", [3, 5, 7])
def test_near_pole_hit_climbs_the_ladder(capsys, p):
    # at 3 digits the B1 fixed point is indistinguishable from the pole;
    # that shortage is retried, and the 12-digit rung ends short of the
    # fixed-point check's digits instead
    code, out, err = run_cli([
        "julia-verify", "--p", str(p), "--k", str(p), "--q", str(p * p),
        "--theta", "1+p^5", "--depth", "2", "--samples", "3",
        "--precision", "3"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("pottsbethe: precision exhausted: residual "
                          "cancelled at O(p^9), short of the 40 digits")


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
