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
from collections import Counter
from fractions import Fraction

from . import __version__
from . import dynamics, hensel, sampling
from .dynamics import OrbitStatus
from .mapping import (
    MapParams,
    RegimeTag,
    build_partition,
    check_budget,
    classify_fixed,
    eval_f,
    multiplier,
)
from .padic import Padic, PrecisionError, VerificationError, _decimal

RETRY_LADDER = (1, 2, 4)
FIXED_POINT_DIGITS = 40  # digits the B1 fixed point must satisfy f(x) = x to
PERIODIC_DIGITS = 30  # digits a periodic point must return to itself to
MAX_PERIOD = 4  # longest period whose points julia-verify checks
SPAN_MIN_RECORDS = 64  # fewest sweep records worth a forked process


# sorted keys, no spaces, ASCII only: the same data, the same bytes
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                              ensure_ascii=True)


def canonical_json(obj, end: str = "\n") -> str:
    """``obj`` in the canonical encoding, then ``end``."""
    return _CANONICAL.encode(obj) + end


def _report(command: str, params: MapParams, **config) -> dict:
    """The fields every report starts with: the library version, the
    command, the configuration it ran with and the regime."""
    return {"version": __version__, "command": command,
            "config": {**params.config_dict(), **config},
            "regime": params.regime.tag.value}


def _histogram(keys) -> dict[str, int]:
    return dict(sorted(Counter(keys).items()))


class _Ladder:
    """The retry policy of one report call: a sweep or orbit record, or a
    whole classify or julia-verify report, that runs out of precision is
    retried on its exact input at each RETRY_LADDER multiple of the
    digits.  Each rung (params, pole tree) is built once, on first use,
    and shared by every record of the call, a tree record starting from
    its node's Trajectory.  A pole tree that runs out of precision is
    kept as its PrecisionError, which ``_tree`` raises again for every
    record that reads it.  The top rung's digits are held against
    WORK_BUDGET up front, so no report is refused part way up."""

    def __init__(self, params: MapParams, tree_depth: int = 0):
        top = params.digits * RETRY_LADDER[-1]
        check_budget(top, f"{params.digits} digits, retried at up to {top}")
        self.params, self.tree_depth = params, tree_depth
        self.rungs: list[tuple] = []

    def rung(self, i: int) -> tuple:
        while len(self.rungs) <= i:
            factor = RETRY_LADDER[len(self.rungs)]
            pd = (self.params if factor == 1
                  else self.params.at_digits(self.params.digits * factor))
            tree = []
            if self.tree_depth > 0:
                try:
                    tree = dynamics.pole_preimage_tree(pd, self.tree_depth)
                except PrecisionError as exc:
                    tree = exc
            self.rungs.append((pd, tree))
        return self.rungs[i]

    def run(self, attempt, classify_depth: int | None = None) -> dict:
        """The record of ``attempt(params, tree)`` on the first rung that
        decides it, else the undecided record; either way with its
        ``retries`` count."""
        try:
            retries, record = _first_rung(attempt, self.rung)
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


def _first_rung(attempt, rung) -> tuple[int, object]:
    """(i, attempt(*rung(i))) for the first rung i of RETRY_LADDER where
    the attempt raises no PrecisionError; the last rung's PrecisionError
    when every rung raises one."""
    last = len(RETRY_LADDER) - 1
    for i in range(last):
        try:
            return i, attempt(*rung(i))
        except PrecisionError:
            pass
    return last, attempt(*rung(last))


def make_params(p: int, k: int, q: int, theta, digits: int) -> MapParams:
    """``MapParams.make`` at the first RETRY_LADDER multiple of ``digits``
    where q + theta - 1 does not cancel.  The command line builds every
    command's parameters here, so a report names the digits they built
    at; the report's ``_Ladder`` holds its top rung against WORK_BUDGET."""
    return _first_rung(MapParams.make, lambda i: (
        p, k, q, theta, digits * RETRY_LADDER[i]))[1]


def classify_report(params: MapParams) -> dict:
    """Regime, kappa, pole, multiplier at 1, and the partition when the
    expanding regime applies.  A precision shortage is retried on the
    ``_Ladder`` rungs; the report is that of the first rung that decides
    it, and its config names that rung's digits."""
    return _first_rung(lambda pd, _: _classify(pd), _Ladder(params).rung)[1]


def _classify(params: MapParams) -> dict:
    regime = params.regime
    lam = multiplier(params, 1)
    report = {
        **_report("classify", params),
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
    # _value_ is the member's value as ``.value`` returns it, read
    # without the descriptor calls
    rec["status"] = res.status._value_
    rec["steps"] = res.steps
    rec["reason"] = res.reason
    rec["final_norm_exp_to_1"], rec["final_norm_exp_exact"] = \
        res.final_norm_exp_to_1
    rec["itinerary"] = list(res.itinerary) if res.itinerary else None
    if classify_depth is not None:
        cls = dynamics.basin_classify(params, traj, classify_depth)
        rec["classification"] = cls.kind._value_
        rec["classification_step"] = cls.step
        if cls.itinerary is not None:
            rec["classification_itinerary"] = list(cls.itinerary)
    return rec


def sweep_report(params: MapParams, samples: int, seed: int,
                 max_iter: int = dynamics.DEFAULT_MAX_ITER,
                 tol: int = dynamics.DEFAULT_TOL,
                 classify_depth: int | None = None,
                 pole_tree_depth: int = 0, form=None) -> dict:
    """Seeded batch of orbits (and optionally classifications), one record
    per sample, assembled in sample order.

    ``pole_tree_depth > 0`` appends the backward tree of the pole to the
    seed list (empty in regime A); those records come out as pole hits at
    their predicted level.  The counts, the regime, ``tol`` and
    ``classify_depth`` are checked before any record, so a sweep of no
    records refuses them too.

    ``form``, when given, turns each record dict into the form the report
    keeps, such as its encoded text, in the process that computed the
    record; ``records`` then holds those forms in plan order, and no
    process keeps a record dict past its own record.
    """
    for name, count in (("samples", samples), ("max_iter", max_iter),
                        ("pole_tree_depth", pole_tree_depth)):
        if count < 0:
            raise ValueError(f"{name} must be >= 0, got {count}")
    if classify_depth is not None or pole_tree_depth > 0:
        dynamics.check_classified(params)
    dynamics.check_tol(params, tol)
    if classify_depth is not None and classify_depth < 1:
        raise ValueError(f"depth must be >= 1, got {classify_depth}")
    ladder = _Ladder(params, pole_tree_depth)
    # one Sample per sample record, then one (n, i) per pole-tree record
    plan: list = sampling.spanning_samples(params, samples, seed)
    if pole_tree_depth > 0:
        _, tree = _first_rung(lambda pd, tree: _tree(tree), ladder.rung)
        plan += [(n, i) for n, level in enumerate(tree, start=1)
                 for i in range(len(level))]

    def record(idx: int) -> dict:
        desc = plan[idx]
        sample = isinstance(desc, sampling.Sample)
        if sample:
            category, label = desc.category, _decimal(desc.payload)
        else:
            n, i = desc
            category, label = f"pole_tree:{n}", f"level{n}#{i}"

        def attempt(pd: MapParams, tree) -> dict:
            x0 = desc.realize(pd) if sample else _tree(tree)[n - 1][i]
            return _orbit_record(pd, x0, max_iter, tol, classify_depth)

        rec = {"index": idx, "category": category, "input": label,
               **ladder.run(attempt, classify_depth)}
        return (rec["status"], rec.get("classification", "undecided"),
                rec if form is None else form(rec))

    rows = _records_in_spans(record, len(plan))
    report = {
        **_report("sweep", params, samples=samples, seed=seed,
                  max_iter=max_iter, tol=tol, classify_depth=classify_depth,
                  pole_tree_depth=pole_tree_depth),
        "records": [row[2] for row in rows],
        "histogram": _histogram([row[0] for row in rows]),
    }
    if classify_depth is not None:
        report["classification_histogram"] = _histogram(
            [row[1] for row in rows])
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
    it sends back over a pipe in ``marshal`` form, whole or not at all;
    the parent puts each record at its plan index.  Record 0 is computed
    before any fork, so that every process shares the partition and rung
    it built, and an error in it raises before any fork.  Whatever else
    goes wrong (a record raises in any process, a child ends without a
    whole message, ``os.fork`` raises) is settled by one rule: the parent
    ends every child and computes records 1 ... count - 1 itself, in plan
    order, so it returns the serial run's records or raises the serial
    run's exception.  That error path costs up to one whole serial sweep
    more.  No child outlives the call.
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
        records = [None] * count
        records[::spans] = [first, *map(record, range(spans, count, spans))]
        for j, (_, pipe) in enumerate(children, start=1):
            records[j::spans] = marshal.loads(pipe.read())
        return records
    except Exception:
        pass  # settled below, by the serial run
    finally:
        # a child has sent its span, or its span is no longer wanted
        for pid, pipe in children:
            os.kill(pid, 9)  # SIGKILL
            pipe.close()
            os.waitpid(pid, 0)
    return [first, *map(record, range(1, count))]


def _send_span(record, span: range, write: int) -> None:
    """In a forked child: send the records of ``span`` down the pipe
    ``write``, or nothing if one raises, then end the process.
    ``os._exit`` runs no exit hook and flushes no stdio buffer, which the
    parent owns."""
    status = 1
    try:
        with os.fdopen(write, "wb") as pipe:
            pipe.write(marshal.dumps([record(i) for i in span]))
        status = 0
    finally:
        os._exit(status)


def orbit_report(params: MapParams, x0: Fraction, max_iter: int,
                 tol: int) -> dict:
    ladder = _Ladder(params)
    record = ladder.run(lambda pd, _: _orbit_record(
        pd, x0, max_iter, tol, None))
    return {**_report("orbit", params, x0=_decimal(x0), max_iter=max_iter,
                      tol=tol),
            "record": record}


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


def _check(checks: list, name: str, passed: bool, detail) -> None:
    checks.append({"name": name, "pass": bool(passed), "detail": detail})


def julia_report(params: MapParams, depth: int, seed: int = 0,
                 pairs_per_ball: int = 50) -> dict:
    """Verify the expanding-regime structure up to ``depth``: the partition
    geometry, the verified incidence matrix, the words
    ``dynamics.certified_tree`` certifies over the first cover center,
    periodic points and their cycle multipliers, exact agreement of
    cylinder-point distances with the word metric, the two expansion laws,
    shift equivariance, and the first levels of the pole tree, which the
    same walk certifies.  ``falsified`` is true if any check fails.  A
    precision shortage reruns every check on the next ``_Ladder`` rung; the
    report is that of the first rung that decides them all, and its config
    names that rung's digits.  Refused before any check: a depth below 1, no
    pairs, unclassified parameters (no claim to falsify) and, in regime B, a
    loop past ``WORK_BUDGET``: the word tree's points, kappa**2 incidence
    entries, (kappa-1)/2 isometry comparisons per point and
    2*pairs_per_ball*kappa expansion-law points."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if pairs_per_ball < 1:
        raise ValueError(f"pairs_per_ball must be >= 1, got {pairs_per_ball}")
    dynamics.check_classified(params)
    if params.regime.expanding:
        points = dynamics.tree_size(params, depth)
        dynamics.incidence_size(params)
        count = points * (params.kappa - 1) // 2
        check_budget(count, f"{count} isometry comparisons")
        expansion_law_size(params, pairs_per_ball)
    return _first_rung(lambda pd, _: _julia_checks(
        pd, depth, seed, pairs_per_ball), _Ladder(params).rung)[1]


def _julia_checks(params: MapParams, depth: int, seed: int,
                  pairs_per_ball: int) -> dict:
    regime = params.regime
    checks: list[dict] = []
    _check(checks, "regime_is_B", regime.expanding, regime.tag.value)
    report = {
        **_report("julia-verify", params, depth=depth, seed=seed,
                  pairs_per_ball=pairs_per_ball),
        "kappa": params.kappa,
        "checks": checks,
    }
    if not regime.expanding:
        report["falsified"] = True
        return report
    words_total = dynamics.tree_size(params, depth)

    part = build_partition(params)
    _check(checks, "taus_positive", all(t >= 1 for t in part.taus),
           list(part.taus))
    _check(checks, "pole_outside_cover", part.locate(params.pole) is None,
           None)

    lam1 = multiplier(params, 1)
    _check(checks, "fixed_point_1_attractive",
           classify_fixed(lam1) == "attractive", int(lam1.valuation))

    if regime.tag is RegimeTag.B1:
        traj = dynamics.Trajectory(params, hensel.fixed_point_B1(params))
        resid = traj[1] - traj[0]
        bound, _ = dynamics.norm_exp_field(resid)
        _check(checks, "b1_fixed_point_residual",
               _residual_vanishes(resid, FIXED_POINT_DIGITS), bound)
        lam = dynamics.cycle_multiplier(params, traj, 1)
        _check(checks, "b1_fixed_point_repelling",
               classify_fixed(lam) == "repelling", int(lam.valuation))

    try:  # every entry is 1 once incidence_matrix returns
        matrix = dynamics.incidence_matrix(params)
        _check(checks, "incidence_all_ones", True,
               [list(r) for r in matrix])
    except VerificationError as exc:
        _check(checks, "incidence_all_ones", False, str(exc))

    realized = 0  # the words dynamics.certified_tree certifies
    for pts, balls in dynamics.certified_tree(params, part.balls[0].center,
                                              depth):
        realized += len(balls)
    _check(checks, "words_realized_roundtrip", realized == words_total,
           {"realized": realized, "total": words_total})

    symbols = range(1, params.kappa + 1)
    periodic_ok, periodic_detail = True, []
    for m in range(1, min(MAX_PERIOD, depth) + 1):
        for word in itertools.product(symbols, repeat=m):
            x = dynamics.periodic_point(params, word)
            traj = dynamics.Trajectory(params, x)
            drift = traj[m] - x
            good = _residual_vanishes(drift, PERIODIC_DIGITS)
            lam = dynamics.cycle_multiplier(params, traj, m)
            periodic_ok &= good and lam.valuation == -part.tau_sum(word)
            periodic_detail.append({
                "word": list(word),
                "residual_exp": dynamics.norm_exp_field(drift)[0],
                "multiplier_exp": int(lam.valuation)})
    _check(checks, "periodic_points", periodic_ok, periodic_detail[:8])

    # pts holds the leaves.  One under c+a against one under c+b, for each
    # prefix c and a < b, decides every pair: from the deepest c up, a leaf
    # lies nearer its compared leaf, at v >= tau_sum(c) + tau_min +
    # kappa_min, than that one to the other, at tau_sum(c) + kappa(a, b),
    # when tau_min > kappa_max - kappa_min, so the strong triangle
    # inequality settles each cross pair (README: regime B meets it); the
    # law of Partition.center_exp has the values kappa(1, 2), kappa(2, 3)
    exps = [part.center_exp(params, a, a + 1)
            for a in range(1, min(params.kappa, 3))]
    nested = min(part.taus) > max(exps, default=0) - min(exps, default=0)
    mism = 0  # failing comparisons
    for n in range(depth):
        pad = (1,) * (depth - n - 1)
        for c in itertools.product(symbols, repeat=n):
            for a, b in itertools.combinations(symbols, 2):
                wa, wb = c + (a,) + pad, c + (b,) + pad
                mism += ((pts[wa] - pts[wb]).norm_exp()
                         != dynamics.df_metric(params, wa, wb))
    _check(checks, "isometry_cylinder_vs_word_metric", nested and not mism,
           {"pairs": len(pts) * (len(pts) - 1) // 2, "mismatches": mism})

    expansion = expansion_law_report(params, pairs_per_ball, seed)
    _check(checks, "expansion_laws", expansion["pass"], expansion["detail"])

    # a realized word's point x has it as itinerary, and f(x) its shift
    word = tuple((t % params.kappa) + 1 for t in range(depth))
    _check(checks, "shift_equivariance", depth < 2 or word in balls,
           list(word) if depth >= 2 else None)

    tree_depth = min(depth, 3) if params.kappa > 1 else min(depth, 5)
    levels = dynamics.pole_preimage_tree(params, tree_depth)  # all whole
    _check(checks, "pole_tree_levels", True, [len(l) for l in levels])

    report["falsified"] = not all(c["pass"] for c in checks)
    return report


def expansion_law_size(params: MapParams, pairs_per_ball: int) -> int:
    """The 2*pairs_per_ball*kappa points ``expansion_law_report`` samples;
    ValueError past WORK_BUDGET."""
    points = 2 * pairs_per_ball * params.kappa
    check_budget(points, f"{points} expansion-law points")
    return points


def expansion_law_report(params: MapParams, pairs_per_ball: int,
                         seed: int) -> dict:
    """Sample pairs inside each partition ball and compare the exact jump
    of norm exponents under the map with the predicted constant:
    v(k)+v(theta-1)-v(q) on the ball at 1, v(q)+v(theta-1)-v(k) elsewhere.
    At least one pair per ball is needed: a check of no pairs proves
    nothing either way, and ``expansion_law_size`` admits the points
    before any is drawn."""
    if pairs_per_ball < 1:
        raise ValueError(f"pairs_per_ball must be >= 1, got {pairs_per_ball}")
    expansion_law_size(params, pairs_per_ball)
    detail = []
    for entry in build_partition(params).balls:
        points = sampling.ball_samples(params, entry.symbol,
                                       2 * pairs_per_ball, seed)
        jumps = [(eval_f(params, x) - eval_f(params, y)).norm_exp()
                 - (x - y).norm_exp()
                 for x, y in zip(points[0::2], points[1::2])
                 if not (x - y).is_zero_like]
        detail.append({"symbol": entry.symbol, "tau": entry.tau,
                       "pairs": len(jumps),
                       "failures": sum(j != -entry.tau for j in jumps)})
    return {"pass": all(d["pairs"] and not d["failures"] for d in detail),
            "detail": detail}
