"""Run-to-run spread of the end-to-end metrics, and the baseline file.

    python3 bench/spread.py
    python3 bench/spread.py --out bench/BENCH_0.json

Runs ``run.py`` once per seed and workload, one at a time: seeds 1 to 10
for every workload in ``BENCHMARK.json``, ``run_seconds`` each.  For each
end-to-end metric it reports the median of the per-seed values and the
distance between their first and third quartiles
(``statistics.quantiles(n=4)``) as a share of that median.  A metric is
steady when that spread is below a third of its bound in
``BENCHMARK.json``; the exit code is 0 only if every metric of every
workload is steady and every run was correct.  With ``--out`` the
per-seed values, the summary, the Python version, the core count and the
git revision are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)


def git_rev() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    values: dict[str, dict[str, list[float]]] = {}
    runs = []
    steady = True
    for name in (w["name"] for w in spec["workloads"]):
        values[name] = {metric: [] for metric in bounds}
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": name, "seed": seed, **result})
            for metric, entry in result["metrics"].items():
                values[name][metric].append(entry["value"])
            steady = steady and result["correct"]
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.6g}" for m, v in result["metrics"].items()),
                flush=True)

    summary = {}
    for name, per_metric in values.items():
        summary[name] = {}
        for metric, vals in per_metric.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3,
                                     "spread": spread}
            ok = spread < bounds[metric] / 3
            steady = steady and ok
            print(f"{name:<12} {metric:<12} median {med:<12.6g} "
                  f"spread {spread:.4f} bound {bounds[metric]} "
                  f"{'ok' if ok else 'UNSTEADY'}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "git_rev": git_rev(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seconds": spec["run_seconds"],
            "seeds": list(SEEDS),
            "summary": summary,
            "runs": runs,
        }, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
