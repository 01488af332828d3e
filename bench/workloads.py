"""The benchmark's workloads: the argv each run passes to the CLI, and the
checks its report must pass.

The main cost axes of the library are digits carried, orbit direction
(forward ``eval_f`` or backward ``inverse_branch``) and pole-tree depth;
the three workloads vary all three.  Only the seed changes between runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Outcome:
    """What one report says, as the benchmark counts it.

    ``attempted`` and ``failed`` count operations (a sweep record or a
    ``julia-verify`` check); ``items`` counts units of work for
    ``items_per_s`` (a sweep record or a ``julia-verify`` word).
    """

    items: int
    attempted: int
    failed: int
    retries: int = 0
    tree_records: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    args: str
    params: tuple  # (p, k, q, theta, digits) as MapParams.make takes them
    operations: int  # operations a complete run attempts
    check: Callable[[dict], Outcome]

    def argv(self, seed: int) -> list[str]:
        return self.args.format(seed=seed).split()

    def outcome(self, rc: int | None, report_bytes: bytes) -> Outcome:
        """Check a run's report; a failed run fails every operation."""
        if rc != 0:
            return Outcome(0, self.operations, self.operations)
        try:
            report = json.loads(report_bytes)
        except ValueError:
            return Outcome(0, self.operations, self.operations)
        return self.check(report)


def sweep_outcome(report: dict, samples: int, tree_sizes: dict[int, int]
                   ) -> Outcome:
    """Every sampled seed classifies as basin (and converges to 1 when
    ``tree_sizes`` is empty); every level-n pole-tree record is a pole
    preimage at step n, with ``tree_sizes[n]`` records on level n."""
    records = report.get("records", [])
    seen: dict[int, int] = {}
    failed = 0
    for rec in records:
        category = rec.get("category", "")
        if category.startswith("pole_tree:"):
            level = int(category.split(":", 1)[1])
            seen[level] = seen.get(level, 0) + 1
            good = (rec.get("classification") == "pole_preimage"
                    and rec.get("classification_step") == level)
        else:
            seen[0] = seen.get(0, 0) + 1
            good = rec.get("classification") == "basin"
            if not tree_sizes:
                good = good and rec.get("status") == "converged_to_1"
        failed += not good
    expected = {0: samples, **tree_sizes}
    missing = sum(max(n - seen.get(level, 0), 0)
                  for level, n in expected.items())
    extra = sum(max(n - expected.get(level, 0), 0)
                for level, n in seen.items())
    return Outcome(
        items=len(records),
        attempted=sum(expected.values()) + extra,
        failed=failed + missing,
        retries=sum(rec.get("retries", 0) for rec in records),
        tree_records=sum(n for level, n in seen.items() if level),
    )


JULIA_CHECKS = (
    "regime_is_B", "taus_positive", "pole_outside_cover",
    "fixed_point_1_attractive", "incidence_all_ones",
    "words_realized_roundtrip", "periodic_points",
    "isometry_cylinder_vs_word_metric", "expansion_laws",
    "shift_equivariance", "pole_tree_levels",
)


def julia_outcome(report: dict, words_total: int) -> Outcome:
    """Not falsified, every check passes, all ``words_total`` words
    realized and no isometry mismatch."""
    checks = {c["name"]: c for c in report.get("checks", [])}
    words = checks.get("words_realized_roundtrip", {}).get("detail") or {}
    iso = checks.get("isometry_cylinder_vs_word_metric", {}).get("detail") \
        or {}
    extra_ok = {
        "words_realized_roundtrip":
            words.get("realized") == words.get("total") == words_total,
        "isometry_cylinder_vs_word_metric": iso.get("mismatches") == 0,
    }
    failed = 0
    for name in JULIA_CHECKS:
        check = checks.get(name)
        failed += not (check and check["pass"] and extra_ok.get(name, True))
    if report.get("falsified") is not False and failed == 0:
        failed = 1
    return Outcome(items=words.get("total", 0), attempted=len(JULIA_CHECKS),
                   failed=failed)


WORKLOADS = {w.name: w for w in (
    # forward map at 64 digits, where interpreter overhead in eval_f and
    # the consistency re-run of each orbit dominate
    Workload(
        name="sweep-b1",
        args="sweep --p 5 --k 3 --q 5 --theta 1+p^3 --samples 1000 "
             "--depth 50 --seed {seed}",
        params=(5, 3, 5, "1+p^3", 64),
        operations=1000,
        check=lambda r: sweep_outcome(r, 1000, {}),
    ),
    # backward map: a principal k-th root per inverse branch, and 32640
    # word-metric pairs.  Not in BENCHMARK.json: two gated workloads
    # allow 60 s runs in the acceptance schedule, three only 40 s.
    Workload(
        name="julia-b2",
        args="julia-verify --p 5 --k 2 --q 5 --theta 1+p^3 --depth 8 "
             "--samples 25 --seed {seed}",
        params=(5, 2, 5, "1+p^3", 64),
        operations=len(JULIA_CHECKS),
        check=lambda r: julia_outcome(r, sum(2**n for n in range(1, 9))),
    ),
    # pole tree rebuilt per tree record (n * kappa^n work), and forward
    # sweeps at 256 digits, where big-integer arithmetic dominates
    Workload(
        name="poletree-b2",
        args="sweep --p 5 --k 2 --q 5 --theta 1+p^3 --precision 256 "
             "--pole-tree-depth 4 --samples 100 --depth 50 --seed {seed}",
        params=(5, 2, 5, "1+p^3", 256),
        operations=130,
        check=lambda r: sweep_outcome(r, 100, {1: 2, 2: 4, 3: 8, 4: 16}),
    ),
)}
