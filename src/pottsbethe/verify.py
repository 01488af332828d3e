"""Deterministic verification reports over the library.

Every report is a plain dict of ints, strings, bools, lists and dicts,
serialized canonically (sorted keys, no timestamps), so identical
configurations produce byte-identical output.  Precision failures are
retried at doubled precision on the same exact sample payloads and are
recorded per record with a machine-readable reason code, never fatal to a
batch.
"""

from __future__ import annotations

import itertools
import json
import marshal
import os
import sys
from fractions import Fraction

from . import __version__
from . import dynamics, hensel, sampling
from .dynamics import ClassifyKind, OrbitStatus
from .mapping import (
    MapParams,
    RegimeTag,
    VerificationError,
    build_partition,
    classify_fixed,
    eval_f,
    multiplier,
)
from .padic import INF, Padic, PrecisionError

RETRY_LADDER = (1, 2, 4)
FIXED_POINT_DIGITS = 40  # digits the B1 fixed point must satisfy f(x) = x to
PERIODIC_DIGITS = 30  # digits a periodic point must return to itself to
MAX_PERIOD = 4  # longest period whose points julia-verify checks
JULIA_PAIR_BUDGET = 10**6  # most word pairs julia-verify's isometry checks
SPAN_MIN_RECORDS = 64  # fewest sweep records worth a forked process


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True) + "\n"


class _Ladder:
    """The retry policy of one report call: a sweep or orbit record, or a
    whole classify or julia-verify report, that runs out of precision is
    retried on its exact input at each RETRY_LADDER multiple of the
    digits.  Each rung (params, pole tree) is built once, on first use,
    and shared by every record of the call; a tree record starts from the
    Trajectory that verified its node.  A pole tree that runs out of
    precision is kept as its PrecisionError, which ``_tree`` raises again
    for every record that reads it."""

    def __init__(self, params: MapParams, tree_depth: int = 0):
        self.params, self.tree_depth = params, tree_depth
        self.rungs: list[tuple] = []

    def rung(self, i: int) -> tuple:
        while len(self.rungs) <= i:
            factor = RETRY_LADDER[len(self.rungs)]
            pd = (self.params if factor == 1
                  else self.params.at_digits(self.params.digits * factor))
            tree = []
            if self.tree_depth > 0 and pd.regime.expanding:
                try:
                    tree = dynamics.pole_preimage_tree(pd, self.tree_depth)
                except PrecisionError as exc:
                    tree = exc
            self.rungs.append((pd, tree))
        return self.rungs[i]

    def first(self, attempt) -> tuple[int, object]:
        """``_first_rung`` of ``attempt(params, tree)``; building a rung
        counts as part of its attempt."""
        return _first_rung(lambda i: attempt(*self.rung(i)))

    def run(self, attempt, classify_depth: int | None = None) -> dict:
        """The record of ``attempt(params, tree)`` on the first rung that
        decides it, else the undecided record; either way with its
        ``retries`` count."""
        try:
            retries, record = self.first(attempt)
        except PrecisionError:
            retries = len(RETRY_LADDER)
            record = {"status": "undecided", "reason": "precision",
                      "steps": None, "final_norm_exp_to_1": None,
                      "final_norm_exp_exact": False, "itinerary": None}
            if classify_depth is not None:
                record.update(classification="undecided",
                              classification_step=None)
        return {**record, "retries": retries}


def _tree(tree):
    """A rung's pole tree, or a fresh copy of the PrecisionError its build
    raised."""
    if isinstance(tree, PrecisionError):
        raise PrecisionError(*tree.args)
    return tree


def _first_rung(attempt) -> tuple[int, object]:
    """(i, attempt(i)) for the first rung i of RETRY_LADDER where the
    attempt raises no PrecisionError; the last rung's PrecisionError when
    every rung raises one."""
    last = len(RETRY_LADDER) - 1
    for i in range(last):
        try:
            return i, attempt(i)
        except PrecisionError:
            pass
    return last, attempt(last)


def make_params(p: int, k: int, q: int, theta, digits: int) -> MapParams:
    """``MapParams.make`` at the first RETRY_LADDER multiple of ``digits``
    where q + theta - 1 does not cancel.  The command line builds every
    command's parameters here, so a report names the digits they built
    at."""
    return _first_rung(lambda i: MapParams.make(
        p, k, q, theta, digits * RETRY_LADDER[i]))[1]


def classify_report(params: MapParams) -> dict:
    """Regime, kappa, pole, multiplier at 1, and the partition when the
    expanding regime applies.  A precision shortage is retried on the
    ``_Ladder`` rungs; the report is that of the first rung that decides
    it, and its config names that rung's digits."""
    return _Ladder(params).first(lambda pd, _: _classify(pd))[1]


def _classify(params: MapParams) -> dict:
    regime = params.regime
    lam = multiplier(params, 1)
    report = {
        "version": __version__,
        "command": "classify",
        "config": params.config_dict(),
        "regime": regime.tag.value,
        "regime_detail": regime.detail,
        "kappa": params.kappa,
        "pole": params.pole.to_compact(),
        "multiplier_at_1": {
            "value": lam.to_compact(),
            "norm_exp": lam.valuation,
            "class": classify_fixed(lam),
        },
    }
    if regime.expanding:
        report["partition"] = build_partition(params).to_json_dict(params)
    return report


def _orbit_record(params, x0, max_iter: int, tol: int,
                  classify_depth: int | None) -> dict:
    rec: dict = {}
    traj = dynamics._trajectory(params, x0)
    res = dynamics.orbit(params, traj, max_iter=max_iter, tol=tol)
    if res.status is OrbitStatus.UNDECIDED and res.reason == "precision":
        raise PrecisionError("orbit undecided")
    rec["status"] = res.status.value
    rec["steps"] = res.steps
    rec["reason"] = res.reason
    rec["final_norm_exp_to_1"], rec["final_norm_exp_exact"] = \
        res.final_norm_exp_to_1
    rec["itinerary"] = list(res.itinerary) if res.itinerary else None
    if classify_depth is not None:
        cls = dynamics.basin_classify(params, traj, classify_depth)
        rec["classification"] = cls.kind.value
        rec["classification_step"] = cls.step
        if cls.itinerary is not None:
            rec["classification_itinerary"] = list(cls.itinerary)
        _check_consistency(params, traj, cls, max_iter)
    return rec


def _check_consistency(params, traj: dynamics.Trajectory, cls,
                       max_iter: int) -> None:
    """Desk-scale coherence of a basin classification, on the iterates
    the classification read.

    A basin point must never re-enter the cover after leaving it at step
    ``cls.step``; a re-entry would falsify the trichotomy and is raised
    loudly.  The walk ends at the first iterate in the attracting ball
    B_1, which maps into itself and misses the cover; a precision
    shortage before it is retried, not passed.
    """
    if params.regime.tag is RegimeTag.A or cls.kind is not ClassifyKind.BASIN:
        return
    for t in range(cls.step, min(max_iter, cls.step + 40)):
        if traj.to_1(t).val_at_least(params.v_q + 1):
            return
        if traj.symbol(t) is not None:
            raise VerificationError(
                f"basin point re-entered the cover at step {t}")


def sweep_report(params: MapParams, samples: int, seed: int,
                 max_iter: int = dynamics.DEFAULT_MAX_ITER,
                 tol: int = dynamics.DEFAULT_TOL,
                 classify_depth: int | None = None,
                 pole_tree_depth: int = 0) -> dict:
    """Seeded batch of orbits (and optionally classifications), one record
    per sample, assembled in sample order.

    ``pole_tree_depth > 0`` appends the backward tree of the pole to the
    seed list (expanding regime only); those records come out as pole hits
    at their predicted level.
    """
    ladder = _Ladder(params, pole_tree_depth)
    descriptors = sampling.spanning_samples(params, samples, seed)
    plan: list = [(desc.category, str(desc.payload), desc) for desc
                  in descriptors]
    if pole_tree_depth > 0:
        _, tree = _first_rung(lambda i: _tree(ladder.rung(i)[1]))
        for n, level in enumerate(tree, start=1):
            for i in range(len(level)):
                plan.append((f"pole_tree:{n}", f"level{n}#{i}", (n, i)))

    def record(idx: int) -> dict:
        category, label, desc = plan[idx]

        def attempt(pd: MapParams, tree) -> dict:
            if isinstance(desc, sampling.Sample):
                x0 = desc.realize(pd)
            else:
                n, i = desc
                x0 = _tree(tree)[n - 1][i]
            return _orbit_record(pd, x0, max_iter, tol, classify_depth)

        return {"index": idx, "category": category, "input": label,
                **ladder.run(attempt, classify_depth)}

    records = _records_in_spans(record, len(plan))
    histogram: dict[str, int] = {}
    for rec in records:
        key = rec["status"]
        histogram[key] = histogram.get(key, 0) + 1
    report = {
        "version": __version__,
        "command": "sweep",
        "config": {**params.config_dict(), "samples": samples, "seed": seed,
                   "max_iter": max_iter, "tol": tol,
                   "classify_depth": classify_depth,
                   "pole_tree_depth": pole_tree_depth},
        "regime": params.regime.tag.value,
        "records": records,
        "histogram": dict(sorted(histogram.items())),
    }
    if classify_depth is not None:
        chist: dict[str, int] = {}
        for rec in records:
            key = rec.get("classification", "undecided")
            chist[key] = chist.get(key, 0) + 1
        report["classification_histogram"] = dict(sorted(chist.items()))
    return report


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _span_count(count: int) -> int:
    """How many spans to split a plan of ``count`` records into: one per
    CPU, each of at least SPAN_MIN_RECORDS, and one alone where a fork is
    missing or unsafe (another thread is running)."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None
                                   and threading.active_count() > 1):
        return 1
    return max(1, min(_cpu_count(), count // SPAN_MIN_RECORDS))


def _records_in_spans(record, count: int) -> list:
    """``[record(i) for i in range(count)]``, computed on every available
    CPU when the plan is large enough to pay for a fork.

    Of S spans, span j holds the records j, j + S, j + 2S, ..., so every
    span gets the same mix of sample categories and pole-tree levels.
    The parent computes span 0, and a forked child each other one, which
    it sends back over a pipe in ``marshal`` form up to its first error;
    the parent puts each record at its plan index.  Record 0 is computed
    before any fork, so that every process shares the partition and rung
    it built.  Only the parent raises: it computes every record a child
    did not send, so it raises a child's error as the exception a serial
    run raises, and it computes the rest of a span whose child died.
    Each span stops at its first error; the error of lowest plan index is
    raised, as a serial run raises it, and no child outlives the call.
    """
    spans = _span_count(count)
    if spans == 1:
        return [record(i) for i in range(count)]
    first = record(0)
    children: list = []  # (pid, read end of its pipe), in span order
    try:
        for j in range(1, spans):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                for _, pipe in children:
                    pipe.close()
                _send_span(record, range(j, count, spans), write)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        results = []
        for j in range(spans):
            try:  # the records of span j up to its first error
                sent = (marshal.loads(children[j - 1][1].read()) if j
                        else [first])
            except (EOFError, ValueError, TypeError):  # no whole message
                sent = []
            span = range(j, count, spans)
            done, failure = _span_records(record, span[len(sent):])
            results.append((sent + done, failure))
    finally:
        # a child that has sent its span has nothing left to do
        for pid, pipe in children:
            os.kill(pid, 9)  # SIGKILL
            pipe.close()
            os.waitpid(pid, 0)
    failures = [failure for _, failure in results if failure is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    records = [None] * count
    for j, (done, _) in enumerate(results):
        records[j::spans] = done
    return records


def _span_records(record, span: range) -> tuple[list, tuple | None]:
    """``record(i)`` for each i of ``span`` in turn, up to the first
    error; with (i, error) for that error, else None."""
    done = []
    for i in span:
        try:
            done.append(record(i))
        except Exception as exc:
            return done, (i, exc)
    return done, None


def _send_span(record, span: range, write: int) -> None:
    """In a forked child: send the records of ``span`` that come before
    its first error down the pipe ``write``, then end the process.
    ``os._exit`` runs no exit hook and flushes no stdio buffer, which the
    parent owns."""
    status = 1
    try:
        done, _ = _span_records(record, span)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(marshal.dumps(done))
        status = 0
    finally:
        os._exit(status)


def orbit_report(params: MapParams, x0: Fraction, max_iter: int,
                 tol: int) -> dict:
    ladder = _Ladder(params)
    record = ladder.run(lambda pd, _: _orbit_record(
        pd, x0, max_iter, tol, None))
    return {
        "version": __version__,
        "command": "orbit",
        "config": {**params.config_dict(), "x0": str(x0),
                   "max_iter": max_iter, "tol": tol},
        "regime": params.regime.tag.value,
        "record": record,
    }


def _residual_vanishes(resid: Padic, digits: int) -> bool:
    """Whether a residual that theory says is zero vanishes to ``digits``.
    Only a nonzero residual falsifies; one that cancels short of
    ``digits`` is a precision shortage and raises PrecisionError."""
    if resid.is_inexact_zero and resid.val < digits:
        raise PrecisionError(
            f"residual cancelled at O(p^{resid.val}), short of the "
            f"{digits} digits to check; retry at higher precision"
        )
    return resid.is_zero_like


def _check(checks: list, name: str, passed: bool, detail) -> bool:
    checks.append({"name": name, "pass": bool(passed), "detail": detail})
    return bool(passed)


def julia_report(params: MapParams, depth: int, seed: int = 0,
                 pairs_per_ball: int = 50) -> dict:
    """Verify the expanding-regime structure up to ``depth``.

    Covers the partition geometry, the verified incidence matrix, word
    realization with round-trip itineraries, periodic points and their
    cycle multipliers, exact agreement of cylinder-point distances with
    the word metric, the two expansion laws, shift equivariance, and the
    first levels of the pole tree.  ``falsified`` is true if any check
    fails.  A precision shortage reruns every check on the next
    ``_Ladder`` rung; the report is that of the first rung that decides
    them all, and its config names that rung's digits.
    """
    return _Ladder(params).first(lambda pd, _: _julia_checks(
        pd, depth, seed, pairs_per_ball))[1]


def _julia_checks(params: MapParams, depth: int, seed: int,
                  pairs_per_ball: int) -> dict:
    regime = params.regime
    checks: list[dict] = []
    ok = _check(checks, "regime_is_B", regime.expanding, regime.tag.value)
    report = {
        "version": __version__,
        "command": "julia-verify",
        "config": {**params.config_dict(), "depth": depth, "seed": seed,
                   "pairs_per_ball": pairs_per_ball},
        "regime": regime.tag.value,
        "kappa": params.kappa,
        "checks": checks,
    }
    if not ok:
        report["falsified"] = True
        return report
    words = params.kappa**depth
    if words * (words - 1) // 2 > JULIA_PAIR_BUDGET:
        raise ValueError(
            f"depth {depth} has {words} words, whose isometry check would "
            f"compare {words * (words - 1) // 2} pairs; budget is "
            f"{JULIA_PAIR_BUDGET}")

    part = build_partition(params)
    _check(checks, "taus_positive", all(t >= 1 for t in part.taus),
           list(part.taus))
    _check(checks, "pole_outside_cover",
           all(not b.ball.contains(params.pole) for b in part.balls), None)

    lam1 = multiplier(params, 1)
    _check(checks, "fixed_point_1_attractive",
           classify_fixed(lam1) == "attractive", int(lam1.valuation))

    if regime.tag is RegimeTag.B1:
        x_star = hensel.fixed_point_B1(params)
        resid = eval_f(params, x_star) - x_star
        bound, _ = dynamics.norm_exp_field(resid)
        _check(checks, "b1_fixed_point_residual",
               _residual_vanishes(resid, FIXED_POINT_DIGITS), bound)
        lam = multiplier(params, x_star)
        _check(checks, "b1_fixed_point_repelling",
               classify_fixed(lam) == "repelling", int(lam.valuation))

    try:  # every entry is 1 once incidence_matrix returns
        matrix = dynamics.incidence_matrix(params, seed=seed)
        _check(checks, "incidence_all_ones", True,
               [list(r) for r in matrix])
    except VerificationError as exc:
        _check(checks, "incidence_all_ones", False, str(exc))

    realized = 0
    words_total = 0
    pts = {}  # the cylinder point of each word of length depth
    tree = dynamics.branch_tree(params, part.balls[0].center, depth)
    for n, pts in enumerate(tree, start=1):
        for word, pt in pts.items():
            words_total += 1
            dynamics.certified(params, word, pt)
            if dynamics.itinerary_of(params, pt, n) == word:
                realized += 1
    _check(checks, "words_realized_roundtrip", realized == words_total,
           {"realized": realized, "total": words_total})

    periodic_ok = True
    periodic_detail = []
    for m in range(1, min(MAX_PERIOD, max(depth, 1)) + 1):
        for word in itertools.product(range(1, params.kappa + 1), repeat=m):
            x = dynamics.periodic_point(params, word)
            traj = dynamics.Trajectory(params, x)
            drift = traj[m] - x
            good = _residual_vanishes(drift, PERIODIC_DIGITS)
            lam = dynamics.cycle_multiplier(params, traj, m)
            tau_sum = sum(part.balls[s - 1].tau for s in word)
            good = good and lam.valuation == -tau_sum
            periodic_ok = periodic_ok and good
            periodic_detail.append({"word": list(word),
                                    "residual_exp": drift.val_lower_bound
                                    if drift.val_lower_bound != INF
                                    else "inf",
                                    "multiplier_exp": int(lam.valuation)})
    _check(checks, "periodic_points", periodic_ok, periodic_detail[:8])

    mism = sum(dynamics.norm_fraction(pts[wa] - pts[wb])
               != dynamics.df_metric(params, wa, wb)
               for wa, wb in itertools.combinations(pts, 2))
    _check(checks, "isometry_cylinder_vs_word_metric", mism == 0,
           {"pairs": len(pts) * (len(pts) - 1) // 2, "mismatches": mism})

    expansion = expansion_law_report(params, pairs_per_ball, seed)
    _check(checks, "expansion_laws", expansion["pass"], expansion["detail"])

    if depth >= 2:
        word = tuple((t % params.kappa) + 1 for t in range(depth))
        x = pts[word]
        full = dynamics.itinerary_of(params, x, depth)
        shifted = dynamics.itinerary_of(params, eval_f(params, x), depth - 1)
        _check(checks, "shift_equivariance",
               shifted == full[1:], list(full))
    else:
        _check(checks, "shift_equivariance", True, None)

    tree_depth = min(depth, 3) if params.kappa > 1 else min(depth, 5)
    levels = dynamics.pole_preimage_tree(params, tree_depth)
    _check(checks, "pole_tree_levels",
           [len(l) for l in levels] ==
           [params.kappa**n for n in range(1, tree_depth + 1)],
           [len(l) for l in levels])

    report["falsified"] = not all(c["pass"] for c in checks)
    return report


def expansion_law_report(params: MapParams, pairs_per_ball: int,
                         seed: int) -> dict:
    """Sample pairs inside each partition ball and compare the exact jump
    of norm exponents under the map with the predicted constant:
    v(k)+v(theta-1)-v(q) on the ball at 1, v(q)+v(theta-1)-v(k) elsewhere.
    At least one pair per ball is needed: a check of no pairs proves
    nothing either way."""
    if pairs_per_ball < 1:
        raise ValueError(f"pairs_per_ball must be >= 1, got {pairs_per_ball}")
    detail = []
    all_ok = True
    for entry in build_partition(params).balls:
        plan = sampling.ball_samples(params, entry.symbol, 2 * pairs_per_ball,
                                     seed, tag="expansion")
        failures = 0
        tested = 0
        for a, b in zip(plan[0::2], plan[1::2]):
            x = a.realize(params)
            y = b.realize(params)
            d = x - y
            if d.is_zero_like:
                continue
            tested += 1
            jump = (eval_f(params, x) - eval_f(params, y)).norm_exp() \
                - d.norm_exp()
            if jump != -entry.tau:
                failures += 1
        ok = failures == 0 and tested > 0
        all_ok = all_ok and ok
        detail.append({"symbol": entry.symbol, "tau": entry.tau,
                       "pairs": tested, "failures": failures})
    return {"pass": all_ok, "detail": detail}
