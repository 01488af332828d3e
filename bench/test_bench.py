"""Tests of the benchmark itself: the tracer, the report checks and the
metric names in BENCHMARK.json.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402
from tracer import SPANS, Tracer, resolve  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, julia_outcome, sweep_outcome,
)

child.import_program()

SMALL = (
    dataclasses.replace(
        WORKLOADS["poletree-b2"], name="small-poletree",
        args="sweep --p 5 --k 2 --q 5 --theta 1+p^3 --pole-tree-depth 2 "
             "--samples 12 --depth 30 --seed {seed}",
        params=(5, 2, 5, "1+p^3", 64), operations=18,
        check=lambda r: sweep_outcome(r, 12, {1: 2, 2: 4})),
    dataclasses.replace(
        WORKLOADS["julia-b2"], name="small-julia",
        args="julia-verify --p 5 --k 2 --q 5 --theta 1+p^3 --depth 3 "
             "--samples 3 --seed {seed}",
        check=lambda r: julia_outcome(r, 14)),
)


def all_bindings() -> dict:
    """(owner, name) -> bound object, over every pottsbethe module and
    class namespace."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "pottsbethe" or modname.startswith("pottsbethe."):
            for name, value in vars(mod).items():
                out[(modname, name)] = value
                if isinstance(value, type) and \
                        value.__module__.startswith("pottsbethe"):
                    for cname, cvalue in vars(value).items():
                        out[(value.__qualname__, cname)] = cvalue
    return out


def test_tracer_wraps_every_binding_and_restores_them():
    from pottsbethe import dynamics, mapping, padic, verify
    before = all_bindings()
    originals = {path: resolve(path) for paths in SPANS.values()
                 for path in paths}
    with Tracer():
        # names imported by name elsewhere are wrapped too
        assert verify.eval_f is mapping.eval_f is dynamics.eval_f
        assert mapping.eval_f is not originals["mapping.eval_f"]
        assert verify.build_partition is dynamics.build_partition
        assert dynamics.build_partition is not \
            originals["mapping.build_partition"]
        assert dynamics.build_partition.cache_info().currsize >= 0
        assert vars(padic.Padic)["__radd__"] is vars(padic.Padic)["__add__"]
        assert vars(padic.Padic)["__add__"] is not before[("Padic", "__add__")]
        for path in originals:
            assert resolve(path) is not originals[path], path
    after = all_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_traced_report_is_byte_identical_and_self_times_add_up():
    for workload in SMALL:
        plain = child.run_report(workload, 3)
        again = child.run_report(workload, 3)
        tracer = Tracer()
        traced = child.run_report(workload, 3, tracer)
        assert plain["rc"] == traced["rc"] == 0
        assert plain["failed"] == traced["failed"] == 0
        assert plain["sha256"] == again["sha256"] == traced["sha256"]
        overhead = traced["report_s"] - plain["report_s"]
        self_sum = sum(tracer.layer_self_s().values())
        assert self_sum <= traced["report_s"]
        assert traced["report_s"] - self_sum <= abs(overhead)
        metrics = tracer.metrics(traced["items"], traced["tree_records"],
                                 traced["retries"])
        assert metrics["mapping.eval_f_calls"] > 0
        assert metrics["padic.arith_calls"] > metrics["mapping.eval_f_calls"]
        # the work lies in the wrapped layers, not in the root span
        assert metrics["cli.self_s"] < 0.05 * traced["report_s"]


def test_self_time_excludes_child_spans():
    """Spans of known length: a parent's self time leaves out exactly what
    its children cover, whichever layer they belong to."""
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    inner = tracer._span("mapping.eval_f", leaf)

    def outer():
        time.sleep(0.03)
        inner()
        inner()

    tracer._span("dynamics.orbit", outer)()
    totals = tracer.span_totals()
    calls, total_s, self_s = totals["dynamics.orbit"]
    assert calls == 1 and total_s >= 0.07
    assert 0.03 <= self_s < 0.05
    calls, total_s, self_s = totals["mapping.eval_f"]
    assert calls == 2 and self_s == total_s >= 0.04
    layers = tracer.layer_self_s()
    assert layers["dynamics"] == totals["dynamics.orbit"][2]
    assert layers["mapping"] == totals["mapping.eval_f"][2]


def test_precision_errors_count_where_raised():
    """A PrecisionError made under a dynamics call counts even when the
    library catches it before it leaves any wrapped function."""
    from pottsbethe.padic import PrecisionError

    def swallow():
        try:
            raise PrecisionError("undecidable")
        except PrecisionError:
            pass

    with Tracer() as tracer:
        tracer._span("dynamics.orbit", swallow)()
        tracer._span("mapping.eval_f", swallow)()
        swallow()
    assert tracer.precision_errors == 1
    assert "__init__" not in vars(PrecisionError)


def test_per_layer_counts_follow_the_workload():
    tracer = Tracer()
    result = child.run_report(SMALL[0], 5, tracer)
    m = tracer.metrics(result["items"], result["tree_records"],
                       result["retries"])
    # plan tree (2 + 4 points), then one rebuild per tree record:
    # 2 records of level 1 (2 points each), 4 of level 2 (6 points each)
    assert m["dynamics.pole_tree_calls"] == 7
    assert m["dynamics.pole_tree_useful_ratio"] == 6 / (6 + 2 * 2 + 4 * 6)
    assert m["sampling.samples_drawn"] == 12
    assert m["mapping.inverse_branch_calls"] == \
        m["hensel.principal_kth_root_calls"] > 0
    assert m["mapping.pole_hits"] >= 6  # every tree record hits the pole


def test_checks_count_failed_operations():
    sweep = WORKLOADS["sweep-b1"]
    good = {"records": [
        {"category": "zp", "status": "converged_to_1",
         "classification": "basin", "retries": 0}] * 1000}
    assert sweep.check(good).failed == 0
    bad = {"records": good["records"][:998] + [
        {"category": "zp", "status": "undecided",
         "classification": "basin", "retries": 2}]}
    outcome = sweep.check(bad)
    assert (outcome.attempted, outcome.failed, outcome.retries) == \
        (1000, 2, 2)
    assert sweep.outcome(1, b"{}").failed == sweep.operations
    assert sweep.outcome(0, b"not json").failed == sweep.operations

    julia = WORKLOADS["julia-b2"]
    checks = [{"name": n, "pass": True, "detail": None}
              for n in ("regime_is_B", "taus_positive")]
    report = {"falsified": False, "checks": checks}
    assert julia.check(report).failed == julia.operations - 2


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    tracer = Tracer()
    result = child.run_report(SMALL[1], 1, tracer)
    names = list(tracer.metrics(result["items"], 0, 0)) + \
        ["trace.report_s", "trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: run.layer_unit(name) for name in names}
    assert set(spec["paths"]) == {BENCH.name}
    # julia-b2 is defined and runnable by hand, but not in the gated set
    assert [w["name"] for w in spec["workloads"]] == \
        [name for name in WORKLOADS if name != "julia-b2"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sweep-b1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
