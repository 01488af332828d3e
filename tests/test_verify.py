"""Sweep and orbit reports: work done per record and the retry ladder."""

import hashlib
import itertools
import os
import sys
from fractions import Fraction

import pytest

import pottsbethe
from pottsbethe import dynamics, mapping, padic, sampling, verify
from pottsbethe.dynamics import Trajectory, norm_exp_field
from pottsbethe.mapping import (
    MapParams,
    PoleHit,
    build_partition,
    classify_regime,
)


def _calls_to(monkeypatch, original, arg: int = 0) -> list:
    """Argument ``arg`` (the first by default) of every call to
    ``original`` through every name the package binds it to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[arg])
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


def test_regime_a_sweep_settles_orbits_in_b1(monkeypatch, eval_f_calls):
    # acceptance criterion 1's sweep, serial: the attracting-ball lemma
    # holds in regime A too, so orbit settles each orbit in closed form
    # once it enters B_1; 11 081 calls when only regime B did (1 048 now)
    monkeypatch.setattr(verify, "_cpu_count", lambda: 1)
    params = MapParams.make(3, 3, 3, "1+p^2")
    rep = verify.sweep_report(params, samples=1000, seed=20260808,
                              classify_depth=50)
    assert rep["histogram"] == {"converged_to_1": 1000}
    assert len(eval_f_calls) <= 3 * 1000


def test_b2_pole_tree_is_built_once(eval_f_calls):
    params = MapParams.make(5, 2, 5, "1+p^3")
    rep = verify.sweep_report(params, samples=10, seed=7, classify_depth=50,
                              pole_tree_depth=3)
    assert rep["classification_histogram"] == {"basin": 10,
                                               "pole_preimage": 14}
    # 797 when the pole tree was rebuilt for every tree record; 302 when
    # basin orbits were iterated on inside B_1; 93 when each tree record
    # iterated its node again instead of starting from the tree's run; 59
    # when the tree ran each level-n node n steps forward, not one
    assert len(eval_f_calls) == 39


def test_tree_records_start_from_the_trees_orbits(monkeypatch,
                                                  eval_f_calls):
    # poletree-b2 at seed 11, serial: the tree certifies each node with
    # one step, 2 + 4 + 8 + 16 = 30 calls, and a level-n record reads its
    # n iterates off the tree's chain instead of making them again; 327 -
    # 98 when the tree ran each node n steps forward into the pole
    monkeypatch.setattr(verify, "_cpu_count", lambda: 1)
    params = MapParams.make(5, 2, 5, "1+p^3", 256)
    rep = verify.sweep_report(params, samples=100, seed=11,
                              classify_depth=50, pole_tree_depth=4)
    assert rep["classification_histogram"] == {"basin": 100,
                                               "pole_preimage": 30}
    assert len(eval_f_calls) == 131 + 30


@pytest.mark.parametrize("config,seed,digest", [
    ((5, 3, 5, "1+p^3", 64), 1,
     "76172fa8ed0523393e6b949e4d16ee78a6322c36dc516fed8078b8308148a8d6"),
    ((5, 3, 5, "1+p^3", 64), 11,
     "fad4dabd14f2aeedbaa8cbb512dc5dcdf349248caa2bd2e89bc8670aa52dd26e"),
    ((7, 2, 7, "1+p^3", 32), 1,
     "f9bb0382dd34f68d174663c15e210123ef46104e51dfec48ededcbfb555342b7"),
    ((7, 2, 7, "1+p^3", 32), 11,
     "4086aab6a2e08f82085f44c01838eccd3e1c744ca883d037e6411e1d57eb5506"),
])
def test_spanning_samples_draw_the_recorded_points(config, seed, digest):
    # the digests were recorded when each payload was built with Fraction
    # arithmetic; drawing it as one Fraction must take the same points in
    # the same order from the generator
    samples = sampling.spanning_samples(MapParams.make(*config), 300, seed)
    text = "\n".join(f"{s.category} {s.payload}" for s in samples)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_prime_is_checked_per_sweep_not_per_sample(monkeypatch):
    # MapParams.make checks p; embedding a sample does not check it again
    # (20 us a check at this p, once per sample before)
    monkeypatch.setattr(verify, "_cpu_count", lambda: 1)
    calls = _calls_to(monkeypatch, padic._check_prime)

    def checks(samples: int) -> int:
        del calls[:]
        params = verify.make_params(1000003, 5, 1000003, "1+p^3", 16)
        rep = verify.sweep_report(params, samples, seed=1, classify_depth=20)
        assert rep["classification_histogram"] == {"basin": samples}
        return len(calls)

    checks(1)  # caches each rung's partition, whose roots check p too
    assert checks(20) == checks(40) <= 2 * len(verify.RETRY_LADDER)


def test_b1_sweep_stays_within_its_call_budget(monkeypatch):
    # a serial 300-record B1 sweep, counted in Python calls into the
    # package rather than in seconds, so the budget holds on a busy
    # machine.  28 629 calls when each record coerced the int 1 for every
    # distance to 1, rebuilt its Fraction payload and looked the partition
    # up per symbol; 21 875 since, 2 424 of them Padic.__init__, which
    # the package now defines; the budget is that count plus 10%.  About
    # 23 700 once Sample, OrbitResult and ClassifyResult define their own
    # __init__ (900 calls that a dataclass's generated one kept out of the
    # count) and the histograms count lists rather than generators
    monkeypatch.setattr(verify, "_cpu_count", lambda: 1)
    package = os.path.dirname(pottsbethe.__file__) + os.sep
    params = MapParams.make(5, 3, 5, "1+p^3")
    build_partition(params)  # outside the count, whether cached or not
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    sys.setprofile(count)
    try:
        rep = verify.sweep_report(params, samples=300, seed=1,
                                  classify_depth=50)
    finally:
        sys.setprofile(None)
    assert rep["classification_histogram"] == {"basin": 300}
    assert calls <= 24_063


def test_regime_is_decided_once_per_params(monkeypatch):
    calls = _calls_to(monkeypatch, mapping.classify_regime)
    params = MapParams.make(5, 3, 5, "1+p^3")
    rep = verify.sweep_report(params, samples=30, seed=7, classify_depth=50)
    assert all(r["retries"] == 0 for r in rep["records"])
    # once more per record for each of orbit, basin_classify and the
    # consistency check when each classified the parameters again
    assert len(calls) == 1 and calls[0] is params


def test_julia_budget_counts_the_loops_it_bounds(monkeypatch):
    # the counts julia_report holds against the budget are the lengths of
    # the loops it runs: one df_metric per isometry comparison, 1 + 3 + 9
    # prefixes of 3 pairs each, and 2 * 4 sampled points per ball.  The
    # incidence count is checked in dynamics, next to its loop, as the
    # tree's is; the tree's message, "depth 3 has ...", is not recorded
    counts, points, ball_samples = {}, [], sampling.ball_samples

    def check_budget(count, loop):
        head, name = loop.split(" ", 1)
        if head == str(count):
            counts[name] = count

    def sampled(*args):
        drawn = ball_samples(*args)
        points.extend(drawn)
        return drawn

    monkeypatch.setattr(verify, "check_budget", check_budget)
    monkeypatch.setattr(dynamics, "check_budget", check_budget)
    monkeypatch.setattr(sampling, "ball_samples", sampled)
    metric = _calls_to(monkeypatch, dynamics.df_metric)
    rep = verify.julia_report(MapParams.make(7, 3, 7, "1+p^3"), 3,
                              pairs_per_ball=4)
    assert rep["falsified"] is False
    assert counts == {"incidence entries": 9, "isometry comparisons": 39,
                      "expansion-law points": 24}
    assert (len(metric), len(points)) == (39, 24)


def test_julia_report_builds_each_cylinder_point_once(monkeypatch):
    calls = _calls_to(monkeypatch, mapping.inverse_branch)
    rep = verify.julia_report(MapParams.make(5, 2, 5, "1+p^3"), 3,
                              pairs_per_ball=5)
    assert rep["falsified"] is False
    # 14 for the 2 + 4 + 8 words, one branch per tree node; the rest for
    # the incidence matrix, one per entry, the periodic points and the
    # pole tree
    assert len(calls) == 380


def test_b1_report_maps_its_fixed_point_once(monkeypatch):
    # x* != 1 is the periodic point of (1,): the fixed-point checks and
    # the period-1 entry share its point, its orbit and its multiplier
    params = MapParams.make(5, 3, 5, "1+p^3")
    x_star = dynamics.periodic_point(params, (1,))
    words = _calls_to(monkeypatch, dynamics.periodic_point, 1)
    images = _calls_to(monkeypatch, mapping.eval_f, 1)
    rep = verify.julia_report(params, 2, pairs_per_ball=3)
    assert rep["falsified"] is False
    assert words == [(1,), (1, 1)]
    fields = [(x.val, x.unit, x.prec) for x in images]
    assert fields.count((x_star.val, x_star.unit, x_star.prec)) == 1


def plant_in_word_tree(monkeypatch, word, move):
    """Make the first tree level that holds ``word``, in julia_report's
    word tree (the incidence matrix's one-level trees hold no longer
    word), hold ``move(params, z)`` in place of the point z of ``word``."""
    branch_tree, planted_in = dynamics.branch_tree, []

    def planted(params, root, depth):
        for level in branch_tree(params, root, depth):
            if not planted_in and word in level:
                planted_in.append(root)
                level[word] = move(params, level[word])
            yield level

    monkeypatch.setattr(dynamics, "branch_tree", planted)


def _failed(rep) -> dict:
    return {c["name"]: c["detail"] for c in rep["checks"] if not c["pass"]}


def test_julia_report_counts_a_perturbed_leaf(monkeypatch):
    # the last leaf is compared only with its sibling (2, 2, 1), at the
    # deepest prefix; moved by p^(df - 1) it is off by one from the word
    # metric there and nowhere else (tau >= 2 keeps it off every other
    # pair's distance), and its image leaves the ball of (2, 2)
    params = MapParams.make(5, 2, 5, "1+p^3")
    leaf = (2, 2, 2)
    gap = dynamics.df_metric(params, leaf, (2, 2, 1)) - 1
    plant_in_word_tree(monkeypatch, leaf,
                       lambda pd, z: z + pd.embed(pd.p**gap))
    rep = verify.julia_report(params, 3, pairs_per_ball=5)
    assert _failed(rep) == {
        "words_realized_roundtrip": {"realized": 13, "total": 14},
        "isometry_cylinder_vs_word_metric": {"pairs": 28, "mismatches": 1}}
    assert rep["falsified"] is True


def test_julia_report_counts_a_planted_metric_mismatch_once(monkeypatch):
    # the word metric made off by one on a pair the certificate compares
    # (prefix (1, 2)): one failing comparison, and only that check fails
    planted = {(1, 2, 1), (1, 2, 2)}
    df_metric = dynamics.df_metric

    def off_by_one(params, wx, wy):
        return df_metric(params, wx, wy) + ({wx, wy} == planted)

    monkeypatch.setattr(dynamics, "df_metric", off_by_one)
    rep = verify.julia_report(MapParams.make(5, 2, 5, "1+p^3"), 3,
                              pairs_per_ball=5)
    assert _failed(rep) == {
        "isometry_cylinder_vs_word_metric": {"pairs": 28, "mismatches": 1}}
    assert rep["falsified"] is True


def test_isometry_certificate_needs_tau_above_the_center_spread(
        monkeypatch):
    # B4's center exponents are 3 and 4; read with every tau at 1, the
    # certificate's condition tau_min > kappa_max - kappa_min fails, and
    # the check with it, though every comparison agrees
    monkeypatch.setattr(mapping.Partition, "taus", property(
        lambda part: (1,) * len(part.balls)))
    rep = verify.julia_report(MapParams.make(5, 4, 5, "1+p^3"), 2,
                              pairs_per_ball=3)
    assert _failed(rep) == {
        "isometry_cylinder_vs_word_metric": {"pairs": 120, "mismatches": 0}}


def _reference_julia(params, depth) -> dict:
    """The word checks by brute force: every word's point run forward
    |w| - 1 steps, every pair of leaves against the word metric, and the
    shift word's image iterated again."""
    anchor = build_partition(params).balls[0].center
    levels = list(dynamics.branch_tree(params, anchor, depth))
    realized = sum(dynamics.itinerary_of(params, z, len(w)) == w
                   for level in levels for w, z in level.items())
    leaves = levels[-1]
    mismatches = sum((leaves[a] - leaves[b]).norm_exp()
                     != dynamics.df_metric(params, a, b)
                     for a, b in itertools.combinations(leaves, 2))
    word = tuple(t % params.kappa + 1 for t in range(depth))
    full = dynamics.itinerary_of(params, leaves[word], depth)
    shifted = dynamics.itinerary_of(
        params, mapping.eval_f(params, leaves[word]), depth - 1)
    return {"words_realized_roundtrip": realized,
            "isometry_cylinder_vs_word_metric": mismatches == 0,
            "shift_equivariance": depth < 2 or shifted == full[1:]}


@pytest.mark.parametrize("k,depth", [(2, d) for d in range(1, 7)]
                         + [(4, d) for d in range(1, 4)])
def test_julia_word_checks_agree_with_the_reference(k, depth):
    params = MapParams.make(5, k, 5, "1+p^3")
    rep = verify.julia_report(params, depth, pairs_per_ball=3)
    checks = {c["name"]: c for c in rep["checks"]}
    ref = _reference_julia(
        params.at_digits(rep["config"]["digits"]), depth)
    assert checks["words_realized_roundtrip"]["detail"] == {
        "realized": ref["words_realized_roundtrip"],
        "total": sum(k**n for n in range(1, depth + 1))}
    for name in ("isometry_cylinder_vs_word_metric", "shift_equivariance"):
        assert checks[name]["pass"] is ref[name]
    assert rep["falsified"] is False


def test_julia_word_checks_stay_within_their_call_budget(monkeypatch):
    # B2 at depth 6: one df_metric per compared pair of leaves, 63, where
    # every pair made 2 016; one eval_f per word, 126, where running each
    # word's point forward |w| - 1 steps made 516 and the shift check 10
    # more (683 in all); the other 137 are the periodic points, the
    # expansion laws and the pole tree, one per node (281 in all when
    # the pole tree ran each node forward into the pole and words of
    # length 1 were not checked)
    params = MapParams.make(5, 2, 5, "1+p^3")
    metric = _calls_to(monkeypatch, dynamics.df_metric)
    forward = _calls_to(monkeypatch, mapping.eval_f)
    rep = verify.julia_report(params, 6, pairs_per_ball=5)
    assert rep["falsified"] is False
    assert len(metric) <= params.kappa**(6 + 1)
    assert len(forward) == 263


def test_ladder_refuses_digits_past_the_budget_first(eval_f_calls):
    # the top rung, 4 x 25 001 digits, passes the budget: a library report
    # is refused before its first step, as --precision 25001 is
    params = MapParams.make(5, 3, 5, "1+p^3", 25_001)
    with pytest.raises(ValueError, match="^25001 digits, retried at up to "
                       "100004; budget is 100000$"):
        verify.orbit_report(params, Fraction(7, 3), 200, 20)
    assert eval_f_calls == []


def test_lowered_budget_refuses_the_report_at_once(monkeypatch,
                                                   eval_f_calls):
    # an 8-digit orbit that runs short on every rung: with the budget at
    # 20 its 32-digit top rung is refused before any step, not when the
    # ladder reaches it
    x = dynamics.periodic_point(MapParams.make(5, 2, 5, "1+p^3"), (1, 2))
    deep = Fraction(x.unit * 5**x.val % 5**40)
    params = MapParams.make(5, 2, 5, "1+p^3", 8)
    monkeypatch.setattr(mapping, "WORK_BUDGET", 20)
    with pytest.raises(ValueError, match="^8 digits, retried at up to 32; "
                       "budget is 20$"):
        verify.orbit_report(params, deep, 200, 20)
    assert eval_f_calls == []


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


def test_expansion_laws_need_a_pair(monkeypatch):
    params = MapParams.make(5, 2, 5, "1+p^3")
    with pytest.raises(ValueError, match="pairs_per_ball must be >= 1"):
        verify.expansion_law_report(params, 0, seed=0)
    # julia_report refuses it up front, before the depth-8 word tree
    trees = _calls_to(monkeypatch, dynamics.branch_tree)
    with pytest.raises(ValueError, match="pairs_per_ball must be >= 1, got 0"):
        verify.julia_report(params, 8, pairs_per_ball=0)
    assert trees == []


def test_expansion_law_points_past_the_budget_are_refused_first(
        monkeypatch):
    # 2 * 25 001 points in each of two balls; only julia_report counted
    # them, and a direct call drew them all
    params = MapParams.make(5, 2, 5, "1+p^3")
    drawn = _calls_to(monkeypatch, sampling.ball_samples)
    with pytest.raises(ValueError, match="100004 expansion-law points; "
                                         "budget is 100000"):
        verify.expansion_law_report(params, 25_001, seed=0)
    assert drawn == []


@pytest.mark.parametrize("args", [(5, 3, 5, "1+p^3"), (5, 5, 5, "1+p^1")],
                         ids=["B1", "A"])
def test_negative_max_iter_is_refused_by_each_report(args):
    # once an AttributeError from the verdict's distance to 1, None after
    # no step; a sweep refuses it before any record, so with none too
    params = MapParams.make(*args)
    with pytest.raises(ValueError, match="max_iter must be >= 0, got -1"):
        verify.orbit_report(params, 7, -1, 20)
    for samples in (0, 3):
        with pytest.raises(ValueError, match="max_iter must be >= 0, got -1"):
            verify.sweep_report(params, samples, 1, max_iter=-1)


@pytest.mark.parametrize("count,value", [
    ("samples", -4), ("pole_tree_depth", -2)])
def test_sweep_refuses_negative_counts(count, value):
    # -4 samples once gave a report of no records whose config read -4;
    # a negative tree depth was written into the config and meant no tree
    params = MapParams.make(5, 2, 5, "1+p^3")
    args = {"samples": 0, "pole_tree_depth": 0, count: value}
    with pytest.raises(ValueError, match=f"{count} must be >= 0, got {value}"):
        verify.sweep_report(params, seed=1, classify_depth=5, **args)


def test_precision_shortage_before_b1_reaches_the_ladder():
    # a symbol undecidable at the working precision, read after the exit
    # and before B_1, is retried on every rung, never counted as passed,
    # although the orbit reaches 1 on the next step
    def attempt(pd, tree):
        part = build_partition(pd)
        traj = Trajectory(pd, 0)  # outside the cover and outside B_1
        traj.points += [part.balls[0].center
                        + padic.Padic.inexact_zero(pd.p, part.radius_exp),
                        pd.embed(1)]
        return verify._orbit_record(pd, traj, 200, 20, None)

    rec = verify._Ladder(MapParams.make(5, 3, 5, "1+p^3")).run(attempt)
    assert rec["status"] == "undecided" and rec["reason"] == "precision"
    assert rec["retries"] == len(verify.RETRY_LADDER)


def test_basin_point_that_re_enters_the_cover_is_falsified():
    # a ball center leaves the cover at step 1; planting the center again
    # as step 2 makes a basin orbit that re-enters the cover, which the
    # orbit's own walk raises, with no classification asked for
    params = MapParams.make(5, 2, 5, "1+p^3")
    center = build_partition(params).balls[0].center
    traj = Trajectory(params, center)
    assert traj.symbol(0) == 1 and traj.symbol(1) is None
    traj.points.append(center)
    with pytest.raises(mapping.VerificationError,
                       match="re-entered the cover at step 2"):
        dynamics.orbit(params, traj)


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
    # the 12-digit tree runs short at level 2; its tree records are
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
