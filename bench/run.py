"""Benchmark of the pottsbethe command line, end to end and per layer.

    python3 bench/run.py --workload sweep-b1 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Closed loop, one client: each run is a fresh process (``child.py``) that
sets up, calls ``pottsbethe.cli.main(argv)`` once and checks the report;
the next run starts when it has ended, until ``--seconds`` are used.  The
first run's set-up time is not counted, because that run also fills the
bytecode caches.  All runs of one invocation use the same workload seed,
so every report must hash the same.  With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced runs alternate and it carries the
per-layer metrics of the traced runs instead.  ``report_s`` and
``items_per_s`` are means over the runs (total time in ``cli.main``
over the run count): the machine's speed drifts in phases of seconds to
minutes, and a mean follows the share of time spent in each phase
smoothly, where a median of a few runs jumps between phases.  The other
metrics are medians.  ``--workload all`` prints
a table for every workload instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from itertools import cycle
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "report_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}
MIN_RUNS = 3  # untraced runs per invocation, however short --seconds is
DEADLINE_S = 170  # no child may run past this, counted from the start
SPANS_DIR = ROOT / ".bench_out"


class SetupFailed(Exception):
    """The program could not even be imported and set up."""


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict | None:
    """Start one child, wait for it, and return its result (None if it
    crashed or ran past the deadline)."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if mode == "trace":
        SPANS_DIR.mkdir(exist_ok=True)
        cmd += ["--spans", str(SPANS_DIR / f"spans-{workload}.json")]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - perf_counter()
    if timeout <= 0:
        return None
    spawned_at = perf_counter()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print(f"bench: {workload} {mode} run passed the deadline",
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        return None
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds`` and summarise it."""
    workload = WORKLOADS[name]
    start = perf_counter()
    deadline = start + DEADLINE_S
    setups: list[float] = []
    runs: dict[str, list[dict]] = {"run": [], "trace": []}
    attempted = failed = crashed = 0
    durations: list[float] = []
    modes = cycle(("run", "trace") if trace else ("run",))
    while True:
        mode = next(modes)
        t0 = perf_counter()
        result = spawn(name, seed, mode, deadline)
        durations.append(perf_counter() - t0)
        if result is None:
            crashed += 1
            attempted += workload.operations
            failed += workload.operations
        else:
            if runs["run"] or runs["trace"]:  # the first run fills caches
                setups.append(result["setup_s"])
            runs[mode].append(result)
            attempted += result["attempted"]
            failed += result["failed"]
        enough = len(runs["run"]) >= (2 if trace else MIN_RUNS) and (
            not trace or runs["trace"])
        next_s = max(durations[-2:])
        if perf_counter() >= deadline - next_s or (
                enough and perf_counter() - start + next_s > seconds):
            break
        if not runs["run"] and crashed >= MIN_RUNS:
            break

    done = runs["run"] + runs["trace"]
    if not runs["run"]:
        raise SetupFailed(f"{name}: no run finished")
    hashes = {r["sha256"] for r in done}
    summary = {
        "workload": name,
        "seed": seed,
        "runs": len(runs["run"]),
        "traced_runs": len(runs["trace"]),
        "crashed_runs": crashed,
        "setup_samples": len(setups),
        "report_sha256": sorted(hashes),
        "report_s_runs": [r["report_s"] for r in runs["run"]],
        "correct": failed == 0 and crashed == 0 and len(hashes) == 1
                   and all(r["rc"] == 0 for r in done),
        "attempted": attempted,
        "failed": failed,
    }
    plain = runs["run"]
    report_s = statistics.fmean(r["report_s"] for r in plain)
    summary["end_to_end"] = {
        "report_s": report_s,
        "items_per_s": (sum(r["items"] for r in plain)
                        / (report_s * len(plain))),
        "setup_s": statistics.median(setups or [done[0]["setup_s"]]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "ok_share": 1 - failed / attempted,
    }
    if runs["trace"]:
        traced = runs["trace"]
        layers = {key: statistics.median(r["layers"][key] for r in traced)
                  for key in traced[0]["layers"]}
        traced_s = statistics.fmean(r["report_s"] for r in traced)
        layers["trace.report_s"] = traced_s
        layers["trace.overhead_s"] = traced_s - report_s
        summary["per_layer"] = layers
    return summary


def result_line(summary: dict, trace: bool) -> str:
    values = summary["per_layer"] if trace else summary["end_to_end"]
    units = ({k: layer_unit(k) for k in values} if trace else END_TO_END)
    return json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    })


def print_table(summary: dict) -> None:
    print(f"== {summary['workload']}  seed {summary['seed']}  "
          f"runs {summary['runs']} (+{summary['traced_runs']} traced, "
          f"{summary['crashed_runs']} crashed)  "
          f"correct {summary['correct']}")
    print(f"   report_sha256 {' '.join(summary['report_sha256'])}")
    print("   report_s of each run "
          + " ".join(f"{t:.3f}" for t in summary["report_s_runs"]))
    rows = [(k, v, END_TO_END[k]) for k, v in summary["end_to_end"].items()]
    rows.append(("failed_share", summary["failed"] / summary["attempted"],
                 "ratio"))
    rows += [(k, v, layer_unit(k))
             for k, v in summary.get("per_layer", {}).items()]
    for key, value, unit in rows:
        print(f"   {key:<36} {value:>14.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pottsbethe" / "__init__.py").is_file():
        print(f"bench: no pottsbethe sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            summary = measure(name, args.seed, args.seconds, bool(args.trace))
        except SetupFailed as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        ok = ok and summary["correct"]
        print_table(summary)
        if args.workload != "all":
            print(result_line(summary, bool(args.trace)))
    return 0 if ok or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
