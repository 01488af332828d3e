"""Sweep and orbit reports: work done per record and the retry ladder."""

import sys

import pytest

from pottsbethe import dynamics, mapping, sampling, verify
from pottsbethe.dynamics import Trajectory, basin_classify, norm_exp_field
from pottsbethe.mapping import (
    MapParams,
    PoleHit,
    build_partition,
    classify_regime,
)
from pottsbethe.padic import PrecisionError


def _calls_to(monkeypatch, original) -> list:
    """The first argument of every call to ``original`` through every name
    the package binds it to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "pottsbethe" or name.startswith("pottsbethe."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def eval_f_calls(monkeypatch):
    return _calls_to(monkeypatch, mapping.eval_f)


def test_b1_sweep_iterates_each_orbit_once(eval_f_calls):
    params = MapParams.make(5, 3, 5, "1+p^3")
    rep = verify.sweep_report(params, samples=30, seed=7, classify_depth=50)
    assert rep["classification_histogram"] == {"basin": 30}
    # 990 when orbit, basin_classify and the consistency check each
    # iterated the orbit from its start; 657 when the shared orbit was
    # iterated into B_1 and on until its distance to 1 cancelled
    assert len(eval_f_calls) == 30


def test_b2_pole_tree_is_built_once(eval_f_calls):
    params = MapParams.make(5, 2, 5, "1+p^3")
    rep = verify.sweep_report(params, samples=10, seed=7, classify_depth=50,
                              pole_tree_depth=3)
    assert rep["classification_histogram"] == {"basin": 10,
                                               "pole_preimage": 14}
    # 797 when the pole tree was rebuilt for every tree record; 302 when
    # basin orbits were iterated on inside B_1; 93 when each tree record
    # iterated its node again instead of starting from the tree's run
    assert len(eval_f_calls) == 59


def test_tree_records_start_from_the_trees_orbits(monkeypatch,
                                                  eval_f_calls):
    # poletree-b2 at seed 11, serial: the tree verifies each level-n node
    # by n steps into the pole, and its record reads those n iterates
    # instead of making them again, sum(n * 2**n for n in 1..4) = 98 calls
    monkeypatch.setattr(verify, "_cpu_count", lambda: 1)
    params = MapParams.make(5, 2, 5, "1+p^3", 256)
    rep = verify.sweep_report(params, samples=100, seed=11,
                              classify_depth=50, pole_tree_depth=4)
    assert rep["classification_histogram"] == {"basin": 100,
                                               "pole_preimage": 30}
    assert len(eval_f_calls) == 327 - 98


def test_regime_is_decided_once_per_params(monkeypatch):
    calls = _calls_to(monkeypatch, mapping.classify_regime)
    params = MapParams.make(5, 3, 5, "1+p^3")
    rep = verify.sweep_report(params, samples=30, seed=7, classify_depth=50)
    assert all(r["retries"] == 0 for r in rep["records"])
    # once more per record for each of orbit, basin_classify and the
    # consistency check when each classified the parameters again
    assert len(calls) == 1 and calls[0] is params


def test_julia_report_builds_each_cylinder_point_once(monkeypatch):
    calls = _calls_to(monkeypatch, mapping.inverse_branch)
    rep = verify.julia_report(MapParams.make(5, 2, 5, "1+p^3"), 3,
                              pairs_per_ball=5)
    assert rep["falsified"] is False
    # 14 for the 2 + 4 + 8 words, one branch per tree node; the rest for
    # the incidence matrix, the periodic points and the pole tree.  357
    # when each word was folded from the anchor on its own
    assert len(calls) == 337


def test_retried_sweep_adds_one_partition_per_rung():
    # at 16 digits some B1 orbits need the 32- or 64-digit rung
    def sweep():
        params = MapParams.make(5, 3, 5, "1+p^3", digits=16)
        return verify.sweep_report(params, samples=60, seed=0,
                                   classify_depth=50)

    before = build_partition.cache_info().currsize
    rep = sweep()
    assert rep["histogram"] == {"converged_to_1": 60}
    assert sum(r["retries"] for r in rep["records"]) > 0
    grown = build_partition.cache_info().currsize - before
    assert grown <= len(verify.RETRY_LADDER)
    # the same sweep again finds every rung's partition in the cache
    assert sweep() == rep
    assert build_partition.cache_info().currsize - before == grown


def test_expansion_laws_need_a_pair():
    params = MapParams.make(5, 2, 5, "1+p^3")
    with pytest.raises(ValueError, match="pairs_per_ball must be >= 1"):
        verify.expansion_law_report(params, 0, seed=0)


def test_precision_shortage_before_b1_reaches_the_ladder():
    # a shortage before the orbit enters B_1 is retried on every rung,
    # never counted as a passed check
    def attempt(pd, tree):
        traj = Trajectory(pd, 0)  # outside the cover and outside B_1
        traj.error = PrecisionError("injected at step 1")
        cls = basin_classify(pd, traj, 50)
        assert (cls.kind, cls.step) == (dynamics.ClassifyKind.BASIN, 0)
        verify._check_consistency(pd, traj, cls, 200)
        return {"status": "checked"}

    rec = verify._Ladder(MapParams.make(5, 3, 5, "1+p^3")).run(attempt)
    assert rec["status"] == "undecided" and rec["reason"] == "precision"
    assert rec["retries"] == len(verify.RETRY_LADDER)


def test_basin_point_that_re_enters_the_cover_is_falsified():
    # a ball center leaves the cover at step 1; planting the center again
    # as step 2 makes a basin orbit that re-enters the cover
    params = MapParams.make(5, 2, 5, "1+p^3")
    center = build_partition(params).balls[0].center
    traj = Trajectory(params, center)
    cls = basin_classify(params, traj, 50)
    assert (cls.kind, cls.step) == (dynamics.ClassifyKind.BASIN, 1)
    traj.points.append(center)
    with pytest.raises(mapping.VerificationError,
                       match="re-entered the cover at step 2"):
        verify._check_consistency(params, traj, cls, 200)


def _desk_check(params, x0, max_iter, tol, classify_step):
    """The orbit verdict by plain iteration, with no attracting-ball
    lemma: (status, steps, final distance field).  A basin point's walk
    also runs on until its distance to 1 cancels, and must never re-enter
    the cover."""
    part = (build_partition(params) if classify_regime(params).expanding
            else None)
    traj = Trajectory(params, x0)
    if classify_step is not None and part is not None:
        left = False
        for t in range(min(max_iter, classify_step + 40)):
            inside = part.locate(traj[t]) is not None
            assert not (inside and left), "basin point re-entered the cover"
            left = left or not inside
            if (traj[t + 1] - 1).is_zero_like:
                break
    last, status, inside = 0, None, part is not None
    try:
        for t in range(max_iter + 1):
            last, d = t, traj[t] - 1
            if d.is_zero_like:
                status = ("converged_to_1" if d.val_lower_bound >= tol + 1
                          else "undecided")
            elif d.val >= tol + 1:
                contracts = (traj[t + 1] - 1).val_lower_bound > d.val
                status = "converged_to_1" if contracts else "undecided"
            elif inside:
                inside = part.locate(traj[t]) is not None
            if status:
                break
    except PoleHit:
        status = "pole_hit"
    if status is None:
        status = "stayed_in_x" if inside else "undecided"
    return status, last, norm_exp_field(traj.points[last] - 1)


def _assert_records_match_desk_check(params, samples, seed, tree_depth=0):
    rep = verify.sweep_report(params, samples=samples, seed=seed,
                              classify_depth=50, pole_tree_depth=tree_depth)
    inputs = [("sample", desc) for desc in
              sampling.spanning_samples(params, samples, seed)]
    for n in range(1, tree_depth + 1):
        inputs += [("tree", (n, i)) for i in range(params.kappa**n)]
    assert len(inputs) == len(rep["records"])
    for (kind, desc), rec in zip(inputs, rep["records"]):
        assert rec["retries"] < len(verify.RETRY_LADDER)
        factor = verify.RETRY_LADDER[rec["retries"]]
        pd = params.at_digits(params.digits * factor)
        if kind == "sample":
            x0 = desc.realize(pd)
        else:
            n, i = desc
            x0 = dynamics.pole_preimage_tree(pd, tree_depth)[n - 1][i][0]
        step = (rec["classification_step"]
                if rec["classification"] == "basin" else None)
        got = (rec["status"], rec["steps"],
               (rec["final_norm_exp_to_1"], rec["final_norm_exp_exact"]))
        assert got == _desk_check(pd, x0, 200, 20, step), rec


@pytest.mark.parametrize("config", [
    (3, 3, 3, "1+p^2", 64, 1000, 20260808, 0),  # acceptance criterion 1
    (5, 3, 5, "1+p^3", 64, 1000, 20260808, 0),  # acceptance criterion 2
    (5, 3, 5, "1+p^3", 64, 200, 1, 0),  # sweep-b1, reduced
    (5, 2, 5, "1+p^3", 256, 20, 1, 3),  # poletree-b2, reduced
    (5, 3, 5, "1+p^3", 16, 100, 1, 0),  # retried rungs
], ids=["criterion1", "criterion2", "sweep-b1", "poletree-b2", "digits16"])
def test_records_match_full_desk_check(config):
    p, k, q, theta, digits, samples, seed, tree_depth = config
    params = MapParams.make(p, k, q, theta, digits)
    _assert_records_match_desk_check(params, samples, seed, tree_depth)



def test_pole_tree_shortage_is_kept_per_rung(monkeypatch):
    # the 12-digit tree runs short at level 3; its tree records are
    # retried on the 24-digit rung, and no rung's tree is built twice
    calls = _calls_to(monkeypatch, dynamics.pole_preimage_tree)
    params = MapParams.make(5, 2, 5, "1+p^3", 12)
    rep = verify.sweep_report(params, samples=20, seed=5, classify_depth=30,
                              pole_tree_depth=3)
    tree_recs = [r for r in rep["records"]
                 if r["category"].startswith("pole_tree:")]
    assert len(tree_recs) == 2 + 4 + 8
    assert {r["retries"] for r in tree_recs} == {1}
    digits = [pd.digits for pd in calls]
    assert digits[:2] == [12, 24] and len(digits) == len(set(digits))
