"""One benchmark run in a fresh process.

Imports pottsbethe from ``src/`` of the checkout, builds the workload's
``MapParams`` (set-up), then calls ``pottsbethe.cli.main(argv)`` once and
prints one JSON line: timings, peak RSS, the SHA-256 of the report bytes
and what the workload's checks found.  ``run.py`` starts it; it is not
meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def import_program():
    """pottsbethe from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import pottsbethe
    import pottsbethe.cli
    if Path(pottsbethe.__file__).resolve().parent != SRC / "pottsbethe":
        raise ImportError(f"pottsbethe came from {pottsbethe.__file__}, "
                          f"not from {SRC}")
    return pottsbethe


def run_report(workload, seed: int, tracer=None) -> dict:
    """Call the CLI once (under ``tracer`` when given) and check its
    report."""
    from pottsbethe import cli
    buf = io.StringIO()
    rc = None
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer)
        stack.enter_context(contextlib.redirect_stdout(buf))
        t0 = perf_counter()
        try:
            rc = cli.main(workload.argv(seed))
        except Exception:  # any crash fails the run's operations
            traceback.print_exc()
        report_s = perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = buf.getvalue().encode("utf-8")
    outcome = workload.outcome(rc, report)
    return {
        "rc": rc,
        "report_s": report_s,
        "peak_rss_mb": peak_rss_mb,
        "sha256": hashlib.sha256(report).hexdigest(),
        "items": outcome.items,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "retries": outcome.retries,
        "tree_records": outcome.tree_records,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="perf_counter() of the parent at spawn")
    parser.add_argument("--mode", choices=("run", "trace"), required=True)
    parser.add_argument("--spans", default=None,
                        help="where a traced run writes its spans")
    args = parser.parse_args()

    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    pottsbethe = import_program()
    pottsbethe.MapParams.make(*workload.params)
    result = {"setup_s": perf_counter() - args.spawned_at}

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
    result.update(run_report(workload, args.seed, tracer))
    if tracer is not None:
        result["layers"] = tracer.metrics(result["items"],
                                          result["tree_records"],
                                          result["retries"])
        result["span_count"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans, f"{args.workload}/seed{args.seed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
