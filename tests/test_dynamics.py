"""Orbits, the basin trichotomy, and the symbolic dynamics."""

import copy
import itertools

import pytest

from pottsbethe import dynamics, hensel, sampling
from pottsbethe.dynamics import (
    ClassifyKind,
    ClassifyResult,
    OrbitResult,
    OrbitStatus,
    Trajectory,
    basin_classify,
    branch_tree,
    cycle_multiplier,
    cylinder_point,
    df_metric,
    incidence_matrix,
    itinerary_of,
    orbit,
    periodic_point,
    pole_preimage_tree,
)
from pottsbethe.hensel import PolyZp
from pottsbethe.mapping import (
    MapParams,
    Partition,
    PartitionBall,
    PoleHit,
    Regime,
    RegimeTag,
    VerificationError,
    build_partition,
    eval_f,
    inverse_branch,
)
from pottsbethe.padic import Ball, Padic, PrecisionError, from_rational


@pytest.fixture(scope="module")
def regime_a():
    return MapParams.make(3, 3, 3, "1+p^2")


@pytest.fixture(scope="module")
def regime_b1():
    return MapParams.make(5, 3, 5, "1+p^3")


@pytest.fixture(scope="module")
def regime_b2():
    return MapParams.make(5, 2, 5, "1+p^3")


@pytest.fixture(scope="module")
def regime_b4():
    return MapParams.make(5, 4, 5, "1+p^3")


class TestOrbit:
    def test_start_at_fixed_point(self, regime_a):
        res = orbit(regime_a, 1)
        assert res.status is OrbitStatus.CONVERGED_TO_1 and res.steps == 0

    def test_negative_max_iter_is_refused(self, regime_a, regime_b2):
        # -1 steps read no iterate; the verdict once read a distance to 1
        # of None and raised AttributeError
        for params in (regime_a, regime_b2):
            with pytest.raises(ValueError,
                               match="max_iter must be >= 0, got -1"):
                orbit(params, 7, max_iter=-1)

    def test_regime_a_from_five(self, regime_a):
        traj = Trajectory(regime_a, 5)
        res = orbit(regime_a, traj)
        assert res.status is OrbitStatus.CONVERGED_TO_1
        # orbit settled the steps inside B_1 in closed form; walk them
        traj[res.steps]
        # once inside K_1 = B_{|q+theta-1|}(1) each step contracts
        dists = []
        for x in traj.points:
            d = x - 1
            if not d.is_zero_like and d.val >= 2:
                dists.append(d.val)
        assert all(b > a for a, b in zip(dists, dists[1:]))

    def test_stayed_in_x_on_a_julia_point(self, regime_b2):
        # a periodic point never leaves the cover; its orbit reports the
        # repeating word (partition centers do leave, see below)
        x = periodic_point(regime_b2, (1, 2))
        res = orbit(regime_b2, x, max_iter=8)
        assert res.status is OrbitStatus.STAYED_IN_X
        assert res.itinerary == (1, 2) * 4 + (1,)

    def test_center_is_not_invariant(self, regime_b2):
        # the centers approximate Julia points only to o[q(theta-1)]; one
        # forward step already leaves the cover
        part = build_partition(regime_b2)
        x = eval_f(regime_b2, part.balls[0].center)
        assert part.locate(x) is None

    def test_pole_hit(self, regime_b2):
        res = orbit(regime_b2, regime_b2.pole, max_iter=10)
        assert res.status is OrbitStatus.POLE_HIT and res.steps == 0

    def test_budget(self, regime_b2):
        # a basin point needs more steps than a budget of 1
        res = orbit(regime_b2, 7, max_iter=1)
        assert res.status is OrbitStatus.UNDECIDED and res.reason == "budget"

    def test_cancelled_contraction_is_a_precision_shortage(self):
        # f(x)-1 cancels to O(p^22) while v(x-1) = 22: whether the step
        # contracts is undecidable at 32 digits, so nothing is falsified
        params = MapParams.make(5, 3, 5, "1+p^3", digits=32)
        res = orbit(params, 51408223326)
        assert res.status is OrbitStatus.UNDECIDED
        assert res.reason == "precision" and res.steps == 10


    def test_lemma_settles_basin_orbit(self, regime_b1):
        # 7 leaves the cover at once; f(7) lies in B_1, where each step
        # brings the orbit closer to 1 by exactly p^-tau_one
        traj = Trajectory(regime_b1, 7)
        res = orbit(regime_b1, traj)
        assert res.status is OrbitStatus.CONVERGED_TO_1
        # 2 iterates computed
        assert len(traj.points) == 2 and res.steps == 10
        d = Trajectory(regime_b1, 7)[res.steps] - 1
        assert res.final_norm_exp_to_1 == (d.valuation, True) == (21, True)

    def test_inexact_theta_iterates(self):
        # the lemma's precision law needs an exact theta
        params = MapParams.make(5, 3, 5, "132/7")
        traj = Trajectory(params, 7)
        res = orbit(params, traj)
        assert res.status is OrbitStatus.CONVERGED_TO_1
        # every step iterated, and one more for the contraction step
        assert len(traj.points) == res.steps + 2

    @pytest.mark.parametrize("config,tol", [
        ((3, 3, 3, "1+p^2", 64), 20),  # A: acceptance criterion 1
        ((5, 10, 5, "1+p^1", 12), 5),  # A; the digits rarely decide
        ((3, 9, 3, "1+2*p^3", 16), 5),  # A
        ((5, 3, 5, "1+p^3", 16), 8),  # B1
        ((5, 2, 5, "1+p^3", 64), 20),  # B2
        ((5, 2, 5, "1+p^2", 64), 20),  # unclassified, tau_one = 1
    ], ids=["A", "A-12", "A-16", "B1-16", "B2", "unclassified"])
    def test_lemma_reads_what_iterating_reads(self, monkeypatch, config,
                                              tol):
        # the closed form settles orbits in every regime with an exact
        # theta; walking each orbit step by step gives the same verdicts
        params = MapParams.make(*config)
        seeds = [s.realize(params)
                 for s in sampling.spanning_samples(params, 60, 3)]

        def verdicts():
            trajs = [Trajectory(params, x) for x in seeds]
            results = [fields_of(orbit(params, traj, tol=tol))
                       for traj in trajs]
            return results, sum(len(traj.points) for traj in trajs)

        settled, settled_points = verdicts()
        monkeypatch.setattr(dynamics, "_lemma_verdict", lambda *args: None)
        walked, walked_points = verdicts()
        assert settled == walked
        assert settled_points < walked_points


def fields_of(result):
    """A result's fields by name."""
    return {name: getattr(result, name) for name in result.__slots__}


class TestTrajectory:
    def test_iterates_are_computed_once(self, regime_b2):
        traj = Trajectory(regime_b2, 7)
        x3 = traj[3]
        assert len(traj.points) == 4 and traj[3] is x3
        assert (x3 - eval_f(regime_b2, traj[2])).is_zero_like

    def test_pole_hit_is_kept_and_raised_again(self, regime_b2):
        traj = Trajectory(regime_b2, inverse_branch(regime_b2, 1,
                                                    regime_b2.pole))
        with pytest.raises(PoleHit) as first:
            traj[2]
        with pytest.raises(PoleHit) as again:
            traj[5]
        assert again.value is first.value and len(traj.points) == 2

    @pytest.mark.parametrize("x0", [
        "7", "1", "exact-wide", "exact-narrow", "inexact-wide"])
    def test_to_1_is_the_iterate_minus_one(self, regime_b2, x0):
        # to_1 subtracts the trajectory's own exact one; the result must be
        # the Padic that subtracting the int 1 gives, cap included, also
        # for an x0 whose cap is above or below the parameters' digits
        digits = regime_b2.digits
        x0 = {"7": 7, "1": 1,
              "exact-wide": from_rational(7, 3, prime=5, digits=2 * digits),
              "exact-narrow": from_rational(-8, prime=5, digits=digits // 2),
              "inexact-wide": Padic.from_residue(7 + 5**70, 100, 5),
              }[x0]
        traj = Trajectory(regime_b2, x0)
        for t in range(3):
            d, want = traj.to_1(t), traj[t] - 1
            assert ((d.prime, d.val, d.unit, d.prec, d.cap)
                    == (want.prime, want.val, want.unit, want.prec,
                        want.cap))

    def test_symbol_is_computed_once(self, regime_b2, monkeypatch):
        located = []
        locate = Partition.locate

        def counting_locate(part, x):
            located.append(x)
            return locate(part, x)
        monkeypatch.setattr(Partition, "locate", counting_locate)
        traj = Trajectory(regime_b2, 7)
        assert traj.symbol(0) is None and traj.symbol(0) is None
        assert len(located) == 1
        # membership of a point known only to the cover radius is
        # undecidable: each read asks locate again and raises again
        part = build_partition(regime_b2)
        x = part.balls[0].center + Padic.inexact_zero(5, part.radius_exp)
        traj = Trajectory(regime_b2, x)
        for _ in range(2):
            with pytest.raises(PrecisionError):
                traj.symbol(0)
        assert len(located) == 3

    def test_shared_trajectory_gives_the_same_verdicts(self, regime_b2):
        for x0 in (7, inverse_branch(regime_b2, 2, regime_b2.pole),
                   periodic_point(regime_b2, (1, 2))):
            traj = Trajectory(regime_b2, x0)
            shared = orbit(regime_b2, traj, max_iter=12)
            computed = len(traj.points)
            cls = basin_classify(regime_b2, traj, 12)
            fresh_traj = Trajectory(regime_b2, x0)
            fresh = orbit(regime_b2, fresh_traj, max_iter=12)
            cls0 = basin_classify(regime_b2, x0, 12)
            assert (shared.status, shared.steps) == (fresh.status,
                                                     fresh.steps)
            assert computed == len(fresh_traj.points)
            assert (cls.kind, cls.step) == (cls0.kind, cls0.step)

    def test_other_params_rejected(self, regime_b1, regime_b2):
        with pytest.raises(ValueError):
            orbit(regime_b1, Trajectory(regime_b2, 7))
        # a value-equal params is the same map
        same = MapParams.make(5, 2, 5, "1+p^3")
        assert orbit(same, Trajectory(regime_b2, 7)).status is \
            orbit(regime_b2, 7).status


class TestBasinClassify:
    def test_regime_a_is_all_basin(self, regime_a):
        assert basin_classify(regime_a, 7, 10).kind is ClassifyKind.BASIN

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_is_refused(self, regime_a, regime_b2, depth):
        # depth 0 follows no step, so every point would be a Julia
        # candidate with an empty itinerary (regime B) or basin at once
        for params in (regime_a, regime_b2):
            with pytest.raises(ValueError,
                               match=f"depth must be >= 1, got {depth}"):
                basin_classify(params, 7, depth)

    def test_far_from_one_minus_q(self, regime_b2):
        # |x - 1 + q| >= |q| certifies the basin; such x never lies in
        # the cover, so the exit step is zero
        x = from_rational(1 + regime_b2.q, 1, prime=5)
        assert (x - (1 - regime_b2.q)).norm_exp() <= regime_b2.v_q
        res = basin_classify(regime_b2, x, 50)
        assert res.kind is ClassifyKind.BASIN and res.step == 0

    def test_pole_preimage_level_one(self, regime_b2):
        # the tree node reaches the exact pole through its chain; the raw
        # h_1(pole) is only known to its digits, and f of it cancels
        # against the pole there: a shortage, not a pole preimage
        node = pole_preimage_tree(regime_b2, 1)[0][0]
        res = basin_classify(regime_b2, node, 50)
        assert res.kind is ClassifyKind.POLE_PREIMAGE and res.step == 1
        x = inverse_branch(regime_b2, 1, regime_b2.pole)
        res = basin_classify(regime_b2, x, 50)
        assert (res.kind, res.step, res.reason) == (
            ClassifyKind.UNDECIDED, 1, "precision")

    def test_julia_candidate_from_cylinder(self, regime_b2):
        depth = 6
        word = (1, 2, 2, 1, 2, 1)
        x, _ = cylinder_point(regime_b2, word)
        res = basin_classify(regime_b2, x, depth)
        assert res.kind is ClassifyKind.JULIA_CANDIDATE
        assert res.itinerary == word

    def test_pole_itself_rejected(self, regime_b2):
        with pytest.raises(ValueError):
            basin_classify(regime_b2, regime_b2.pole, 5)


def near_pole_seed() -> int:
    """The 280-digit integer residue of h_1(pole) at 400 digits, (p, k, q,
    theta) = (5, 2, 5, 1+p^3).  f of it agrees with the pole -129 to 400
    digits, but the pole is not a square in Q, so f(x0) is not the pole:
    at 800 digits its orbit converges to 1 at step 12."""
    params = MapParams.make(5, 2, 5, "1+p^3", 400)
    z = inverse_branch(params, 1, params.pole)
    return z.unit * 5**z.val % 5**z.abs_prec


class TestPoleVerdict:
    """eval_g alone decides a pole hit: orbit and basin_classify report
    one only when eval_g raises the exact PoleHit, and a NearPoleHit is a
    shortage of digits, as any other PrecisionError."""

    def test_near_pole_seed_gets_no_pole_verdict(self):
        x0 = near_pole_seed()
        assert len(str(x0)) == 280
        params = MapParams.make(5, 2, 5, "1+p^3", 64)
        res = orbit(params, x0)
        assert (res.status, res.steps, res.reason) == (
            OrbitStatus.UNDECIDED, 1, "precision")
        res = basin_classify(params, x0, 20)
        assert (res.kind, res.step, res.reason) == (
            ClassifyKind.UNDECIDED, 1, "precision")

    @pytest.mark.parametrize("regime", ["regime_a", "regime_b2"])
    def test_x0_near_the_pole_is_a_shortage(self, request, regime):
        # eval_g judges x0 too: the exact pole is refused in every regime,
        # and a point known only to agree with it is undecided at step 0
        params = request.getfixturevalue(regime)
        near = params.pole + Padic.inexact_zero(params.p, 30, params.digits)
        res = basin_classify(params, near, 5)
        assert (res.kind, res.step, res.reason) == (
            ClassifyKind.UNDECIDED, 0, "precision")
        with pytest.raises(ValueError, match="x0 is the pole"):
            basin_classify(params, params.pole, 5)

    def test_raw_branch_of_the_pole_is_a_shortage(self, regime_b2):
        x = inverse_branch(regime_b2, 1, regime_b2.pole)
        res = orbit(regime_b2, x)
        assert (res.status, res.steps, res.reason) == (
            OrbitStatus.UNDECIDED, 1, "precision")
        node = pole_preimage_tree(regime_b2, 1)[0][0]
        res = orbit(regime_b2, node)
        assert (res.status, res.steps) == (OrbitStatus.POLE_HIT, 1)

    def test_an_inexact_theta_keeps_the_tree_verdicts(self):
        # the pole 2 - q - theta is inexact with theta = 127/2, so x + theta
        # + q - 2 only cancels at the pole; params.pole itself stands for
        # the exact pole, and a copy of its digits does not
        params = MapParams.make(5, 2, 5, "127/2", 64)
        pole = params.pole
        assert not pole.is_exact
        assert orbit(params, pole).status is OrbitStatus.POLE_HIT
        copy = Padic(pole.prime, pole.val, pole.unit, pole.prec, pole.cap)
        res = orbit(params, copy)
        assert (res.status, res.reason) == (OrbitStatus.UNDECIDED,
                                            "precision")
        for n, level in enumerate(pole_preimage_tree(params, 2), start=1):
            for node in level:
                res = orbit(params, node)
                assert (res.status, res.steps) == (OrbitStatus.POLE_HIT, n)
                res = basin_classify(params, node, 6)
                assert (res.kind, res.step) == (ClassifyKind.POLE_PREIMAGE,
                                                n)


class TestItineraries:
    def test_shift_equivariance(self, regime_b2):
        word = (2, 1, 1, 2, 2, 1)
        x, _ = cylinder_point(regime_b2, word)
        full = itinerary_of(regime_b2, x, len(word))
        shifted = itinerary_of(regime_b2, eval_f(regime_b2, x),
                               len(word) - 1)
        assert shifted == full[1:]

    def test_b1_constant_word(self, regime_b1):
        from pottsbethe.hensel import fixed_point_B1
        x = fixed_point_B1(regime_b1)
        assert itinerary_of(regime_b1, x, 5) == (1,) * 5

    def test_escape_errors(self, regime_b2):
        with pytest.raises(ValueError):
            itinerary_of(regime_b2, 7, 3)


class TestCylinderPoints:
    def test_single_symbol_lands_in_ball(self, regime_b2):
        part = build_partition(regime_b2)
        for entry in part.balls:
            x, ball = cylinder_point(regime_b2, (entry.symbol,))
            assert entry.ball.contains(x)
            assert ball.radius_exp == part.radius_exp + entry.tau

    def test_every_word_of_length_four(self, regime_b2):
        part = build_partition(regime_b2)
        for word in itertools.product((1, 2), repeat=4):
            x, cert = cylinder_point(regime_b2, word)
            assert itinerary_of(regime_b2, x, 4) == word
            assert cert.radius_exp == part.radius_exp + sum(
                part.balls[s - 1].tau for s in word)

    def test_distance_matches_word_metric(self, regime_b2):
        part = build_partition(regime_b2)
        words = list(itertools.product((1, 2), repeat=3))
        pts = {w: cylinder_point(regime_b2, w)[0] for w in words}
        for wa, wb in itertools.combinations(words, 2):
            e = df_metric(regime_b2, wa, wb)
            assert (pts[wa] - pts[wb]).norm_exp() == e
            # the law, summed here independently of the library
            n = next(t for t, (a, b) in enumerate(zip(wa, wb)) if a != b)
            center_gap = (part.balls[wa[n] - 1].center
                          - part.balls[wb[n] - 1].center).norm_exp()
            assert e == sum(part.balls[s - 1].tau for s in wa[:n]) \
                + center_gap

    def test_periodic_points(self, regime_b2):
        part = build_partition(regime_b2)
        for word in [(1,), (2,), (1, 2), (2, 2, 1)]:
            x = periodic_point(regime_b2, word)
            z = x
            for _ in range(len(word)):
                z = eval_f(regime_b2, z)
            drift = z - x
            assert drift.is_zero_like and drift.val_lower_bound >= 30
            lam = cycle_multiplier(regime_b2, x, len(word))
            tau_sum = sum(part.balls[s - 1].tau for s in word)
            assert lam.valuation == -tau_sum and tau_sum >= 1
            assert part.tau_sum(word) == tau_sum

    def test_empty_word_rejected(self, regime_b2):
        with pytest.raises(ValueError):
            cylinder_point(regime_b2, ())


def reference_tree(params, root, depth):
    """The levels of inverse branches over root as the pole tree built
    them before ``branch_tree``: each level applies every branch to each
    point of the level before, in order."""
    kappa = params.kappa
    levels, current = [], [root]
    for _ in range(depth):
        current = [inverse_branch(params, i, y)
                   for y in current for i in range(1, kappa + 1)]
        levels.append(current)
    return levels


def reference_fold(params, word, root):
    """The point of one word as ``cylinder_point`` folded it, one word at
    a time: the branches taken right to left."""
    z = root
    for s in reversed(word):
        z = inverse_branch(params, s, z)
    return z


def fields(x):
    return (x.val, x.unit, x.prec, x.cap)


class TestBranchTree:
    @pytest.mark.parametrize("args", [(5, 2, 5, "1+p^3"), (7, 3, 7, "1+p^3")],
                             ids=["kappa2", "kappa3"])
    def test_nodes_match_the_reference_loops(self, args):
        params = MapParams.make(*args)
        kappa = params.kappa
        anchor = build_partition(params).balls[0].center
        for root in (params.pole, anchor):
            levels = list(branch_tree(params, root, 4))
            reference = reference_tree(params, root, 4)
            assert [len(level) for level in levels] == \
                [kappa**n for n in range(1, 5)]
            for level, ref in zip(levels, reference):
                assert [fields(x) for x in level.values()] == \
                    [fields(x) for x in ref]
                for word, x in level.items():
                    assert fields(x) == \
                        fields(reference_fold(params, word, root))

    def test_levels_are_built_on_demand(self, regime_b2, monkeypatch):
        calls = []

        def counted(params, symbol, y, root=None):
            calls.append(symbol)
            return inverse_branch(params, symbol, y, root)

        monkeypatch.setattr(dynamics, "inverse_branch", counted)
        tree = branch_tree(regime_b2, regime_b2.pole, 3)
        assert calls == []
        next(tree)
        assert calls == [1, 2]


    def test_one_root_per_node(self, regime_b2, monkeypatch):
        # the 15 nodes of levels 0..3 each take one k-th root, which their
        # two children share; every child is still one inverse_branch call
        roots, branches = [], []
        root = hensel.principal_kth_root

        def counted_root(y, k):
            roots.append(y)
            return root(y, k)

        def counted_branch(params, symbol, y, root=None):
            branches.append(symbol)
            return inverse_branch(params, symbol, y, root)

        monkeypatch.setattr(hensel, "principal_kth_root", counted_root)
        monkeypatch.setattr(dynamics, "inverse_branch", counted_branch)
        levels = list(branch_tree(regime_b2, regime_b2.pole, 4))
        assert len(roots) == 1 + 2 + 4 + 8
        assert len(branches) == sum(len(level) for level in levels) == 30


_ONE = from_rational(1, prime=5, digits=8)
_BALL = Ball(_ONE, 2)
_PARTITION_BALL = PartitionBall(1, _ONE, _ONE, _BALL, 2)


@pytest.mark.parametrize("result", [
    OrbitResult(OrbitStatus.STAYED_IN_X, 3, (2, True), (1, 2, 1), None),
    ClassifyResult(ClassifyKind.BASIN, 0, 5, None, None),
    sampling.Sample("zp", 7),
    _ONE,
    _BALL,
    Regime(RegimeTag.B1, "kappa=1"),
    MapParams.make(5, 3, 5, "1+p^3", digits=8),
    Partition(2, (_PARTITION_BALL,)),
    _PARTITION_BALL,
    PolyZp.from_rationals([1, 2, 3], 5, 6),
], ids=["orbit", "classify", "sample", "padic", "ball", "regime",
        "params", "partition", "partition-ball", "poly"])
def test_results_are_immutable(result):
    name = result.__slots__[0]
    value = getattr(result, name)
    with pytest.raises(AttributeError, match="is immutable"):
        setattr(result, name, None)
    with pytest.raises(AttributeError, match="is immutable"):
        delattr(result, name)
    with pytest.raises(AttributeError):
        result.extra = 1
    assert getattr(result, name) is value
    assert repr(copy.copy(result)) == repr(result)


def test_record_reprs_are_the_dataclass_reprs():
    # recorded when these records were dataclasses
    params = MapParams.make(5, 3, 5, "1+p^3", digits=8)
    assert repr(params) == (
        "MapParams(p=5, k=3, q=5, theta=Padic(5, '0:126:inf'), digits=8, "
        "theta_frac=Fraction(126, 1), pole=Padic(5, '0:-129:inf'), "
        "D=Padic(5, '4:26:inf'), v_k=0, v_q=1, v_theta1=3, v_qtheta1=1, "
        "tau_one=2, kappa=1, q_bits=3)")
    part = build_partition(MapParams.make(5, 2, 5, "1+p^3", digits=8))
    assert repr(part) == (
        "Partition(radius_exp=4, balls=(PartitionBall(symbol=1, "
        "xi=Padic(5, '0:1:inf'), center=Padic(5, '0:24413871:11'), "
        "ball=Ball(center=Padic(5, '0:24413871:11'), radius_exp=4), "
        "tau=2), PartitionBall(symbol=2, xi=Padic(5, '0:390624:8'), "
        "center=Padic(5, '0:122070496:12'), ball=Ball(center=Padic(5, "
        "'0:122070496:12'), radius_exp=4), tau=4)))")
    assert repr(Ball(_ONE, 2)) == \
        "Ball(center=Padic(5, '0:1:inf'), radius_exp=2)"


def test_record_takes_every_field():
    with pytest.raises(TypeError, match="Ball takes 2 fields, got 1"):
        Ball(_ONE)
    with pytest.raises(TypeError, match="Regime takes 2 fields, got 1"):
        Regime(RegimeTag.A)
    # these three once filled the fields left out with None
    with pytest.raises(TypeError, match="OrbitResult takes 5 fields, got 2"):
        OrbitResult(OrbitStatus.POLE_HIT, 0)
    with pytest.raises(TypeError,
                       match="ClassifyResult takes 5 fields, got 3"):
        ClassifyResult(ClassifyKind.BASIN, 0, 5)
    with pytest.raises(TypeError, match="Sample takes 2 fields, got 1"):
        sampling.Sample("zp")


class TestSymbolRange:
    """A symbol outside 1..kappa is refused, never read as another
    ball's symbol."""

    @pytest.mark.parametrize("symbol", [0, -1, 3])
    def test_inverse_branch(self, regime_b2, symbol):
        with pytest.raises(ValueError, match="out of range 1..2"):
            inverse_branch(regime_b2, symbol, regime_b2.pole)

    @pytest.mark.parametrize("word", [(0,), (1, 3), (-1, 2)])
    def test_words(self, regime_b2, word):
        with pytest.raises(ValueError, match="out of range 1..2"):
            periodic_point(regime_b2, word)
        with pytest.raises(ValueError, match="out of range 1..2"):
            cylinder_point(regime_b2, word)

    def test_word_metric(self, regime_b2):
        for wx, wy in [((0, 1), (0, 2)), ((1, 2), (2, 3)), ((3,), (1,))]:
            with pytest.raises(ValueError, match="out of range 1..2"):
                df_metric(regime_b2, wx, wy)

    @pytest.mark.parametrize("symbol", [0, -1, 3])
    def test_ball_samples(self, regime_b2, symbol):
        # once symbol 0 sampled ball 2 (index -1) and symbol 3 raised
        # IndexError
        with pytest.raises(ValueError, match="out of range 1..2"):
            sampling.ball_samples(regime_b2, symbol, 4, seed=0)


class TestIncidence:
    def test_b1_singleton(self, regime_b1):
        assert incidence_matrix(regime_b1) == ((1,),)

    def test_b2_all_ones(self, regime_b2):
        assert incidence_matrix(regime_b2) == ((1, 1), (1, 1))

    def test_b4_all_ones(self, regime_b4):
        assert incidence_matrix(regime_b4) == ((1,) * 4,) * 4

    def test_one_principal_root_per_center(self, regime_b4, monkeypatch):
        # the kappa branches at one center share its root: 4 roots, where
        # each of the 16 entries once took its own
        build_partition(regime_b4)
        root, calls = hensel.principal_kth_root, []

        def counted(*args):
            calls.append(args)
            return root(*args)

        monkeypatch.setattr(hensel, "principal_kth_root", counted)
        assert incidence_matrix(regime_b4) == ((1,) * 4,) * 4
        assert len(calls) == regime_b4.kappa == 4

    def test_entries_past_the_budget_are_refused_first(self, monkeypatch):
        # kappa = 400: a direct call took all 160 000 branches (8.7 s),
        # though julia_report refused these parameters up front
        params = MapParams.make(401, 400, 401, "1+p^3")
        branch, calls = dynamics.inverse_branch, []

        def counted(*args):
            calls.append(args)
            return branch(*args)

        monkeypatch.setattr(dynamics, "inverse_branch", counted)
        with pytest.raises(ValueError, match="160000 incidence entries; "
                                             "budget is 100000"):
            incidence_matrix(params)
        assert calls == []

    def test_center_sent_out_of_its_ball_is_refused(self, regime_b2,
                                                    monkeypatch):
        # branch 1 planted to send the center of ball 2 to itself, which
        # lies outside ball 1
        branch = dynamics.inverse_branch
        c2 = build_partition(regime_b2).balls[1].center

        def planted(params, i, y, root):
            return y if (i, y) == (1, c2) else branch(params, i, y, root)

        monkeypatch.setattr(dynamics, "inverse_branch", planted)
        with pytest.raises(VerificationError,
                           match="branch 1 left its ball on the center of "
                                 "ball 2"):
            incidence_matrix(regime_b2)

    def test_forward_image_off_the_center_is_refused(self, regime_b2,
                                                     monkeypatch):
        # branch 2 planted to miss by p**(s+1): still inside ball 2, but f
        # no longer returns the center of ball 1
        branch = dynamics.inverse_branch
        part = build_partition(regime_b2)
        c1 = part.balls[0].center

        def planted(params, i, y, root):
            x = branch(params, i, y, root)
            return x + 5 ** (part.radius_exp + 1) if (i, y) == (2, c1) else x

        monkeypatch.setattr(dynamics, "inverse_branch", planted)
        with pytest.raises(VerificationError,
                           match=r"f\(h_2\(y\)\) != y on the center of ball 1"):
            incidence_matrix(regime_b2)


class TestWordMetric:
    def test_first_symbol_disagreement(self, regime_b2):
        part = build_partition(regime_b2)
        kappa_12 = (part.balls[0].center - part.balls[1].center).norm_exp()
        e = df_metric(regime_b2, (1, 1), (2, 1))
        assert type(e) is int  # an exponent, not a distance
        assert e == kappa_12 == regime_b2.v_k + regime_b2.v_theta1

    def test_common_prefix_accumulates_taus(self, regime_b2):
        part = build_partition(regime_b2)
        d0 = df_metric(regime_b2, (2,), (1,))
        d2 = df_metric(regime_b2, (1, 2, 2), (1, 2, 1))
        tau_prefix = part.balls[0].tau + part.balls[1].tau
        assert d2 == d0 + tau_prefix

    def test_identical_prefix_undefined(self, regime_b2):
        with pytest.raises(ValueError):
            df_metric(regime_b2, (1, 2), (1, 2, 1))

    def test_center_exponents_follow_the_law(self, regime_b4):
        # kappa(1, b) = v(k)+v(theta-1) and kappa(a, b) = v(q)+v(theta-1)
        # for a, b != 1, as measured, with no table left behind
        params, part = regime_b4, build_partition(regime_b4)
        for i, j in itertools.permutations(range(1, params.kappa + 1), 2):
            ci, cj = part.balls[i - 1].center, part.balls[j - 1].center
            law = (params.v_k if 1 in (i, j) else params.v_q) \
                + params.v_theta1
            assert part.center_exp(params, i, j) == law == \
                (ci - cj).norm_exp()
            assert df_metric(params, (i,), (j,)) == law
        assert set(vars(part)) <= {"_groups", "_least_prec"}


class TestPoleTree:
    def test_regime_a_empty(self, regime_a):
        assert pole_preimage_tree(regime_a, 5) == []

    def test_level_one(self, regime_b2):
        levels = pole_preimage_tree(regime_b2, 1)
        assert len(levels[0]) == 2
        for node in levels[0]:
            assert (eval_f(regime_b2, node[0]) - regime_b2.pole).is_zero_like

    def test_tree_property(self, regime_b2):
        levels = pole_preimage_tree(regime_b2, 2)
        for node in levels[1]:
            y = eval_f(regime_b2, node[0])
            assert any((y - z[0]).is_zero_like for z in levels[0])

    def test_budget_guard(self, regime_b4):
        with pytest.raises(ValueError):
            pole_preimage_tree(regime_b4, 10)

    def test_inexact_pole_hit_is_a_precision_shortage(self):
        # at 12 digits f of a level-2 node is known to fewer digits than
        # its parent's certified ball needs: more digits are needed,
        # nothing is falsified
        with pytest.raises(PrecisionError):
            pole_preimage_tree(MapParams.make(5, 2, 5, "1+p^3", 12), 3)

    @pytest.mark.parametrize("depth", [-1, -2])
    def test_negative_depth_is_refused(self, regime_b2, depth):
        # once tree_size(params, -1) was -1.0 and a tree of depth -2 was []
        for call in (dynamics.tree_size, pole_preimage_tree):
            with pytest.raises(ValueError,
                               match=f"depth must be >= 0, got {depth}"):
                call(regime_b2, depth)

    def test_one_step_per_node(self, regime_b2, monkeypatch):
        # kappa + ... + kappa**depth calls, where running each level-n node
        # n steps forward into the pole made sum(n * 2**n) = 98
        build_partition(regime_b2)
        calls = []

        def counted(params, x):
            calls.append(x)
            return eval_f(params, x)

        monkeypatch.setattr(dynamics, "eval_f", counted)
        levels = pole_preimage_tree(regime_b2, 4)
        assert [len(level) for level in levels] == [2, 4, 8, 16]
        assert len(calls) == dynamics.tree_size(regime_b2, 4) == 30

    @staticmethod
    def plant(monkeypatch, word, digit=None, like=None):
        """Make the point of ``word`` in every branch tree off by
        p**digit, a digit the point is known to, or the point of the
        word ``like``."""
        tree = dynamics.branch_tree

        def planted(params, root, depth):
            for level in tree(params, root, depth):
                if word in level and like is not None:
                    level[word] = level[like]
                elif word in level:
                    assert digit < level[word].abs_prec
                    level[word] = level[word] + params.p**digit
                yield level

        monkeypatch.setattr(dynamics, "branch_tree", planted)

    def test_sibling_point_is_refused(self, regime_b2, monkeypatch):
        # the point of (2, 1, 1) in place of that of (1, 1, 1): f sends it
        # into the certified ball of (1, 1) too, but it lies in ball 2
        self.plant(monkeypatch, (1, 1, 1), like=(2, 1, 1))
        with pytest.raises(VerificationError,
                           match="a level-3 node failed its certificate"):
            pole_preimage_tree(regime_b2, 3)

    @pytest.mark.parametrize("word", [(2, 1, 2), (1, 1, 1)])
    def test_planted_digit_error_is_refused(self, regime_b2, monkeypatch,
                                            word):
        # any digit from s+1, which keeps the point in ball w_0, up to the
        # last its certified ball claims moves f of it out of the ball of
        # w[1:]; one digit further stays inside the certified ball, which
        # still holds the exact preimage
        part = build_partition(regime_b2)
        claimed = part.radius_exp + part.tau_sum(word)
        for digit in (part.radius_exp + 1, claimed):
            monkeypatch.undo()
            self.plant(monkeypatch, word, digit)
            with pytest.raises(VerificationError,
                               match="a level-3 node failed its certificate"):
                pole_preimage_tree(regime_b2, 3)
        monkeypatch.undo()
        words = list(list(branch_tree(regime_b2, regime_b2.pole, 3))[2])
        i = words.index(word)
        before = pole_preimage_tree(regime_b2, 3)[2][i][0]
        self.plant(monkeypatch, word, claimed + 1)
        after = pole_preimage_tree(regime_b2, 3)[2][i][0]
        assert (after - before).norm_exp() == claimed + 1
        assert dynamics.certified(regime_b2, word, after).contains(before)


def forward_into_the_pole(params, x, n: int) -> bool:
    """The pole tree's check before each node was certified, kept as a
    reference: x runs n steps forward onto the pole, and no earlier."""
    traj = Trajectory(params, x)
    try:
        return (traj[n] - params.pole).is_zero_like
    except PoleHit:
        return False


@pytest.mark.parametrize("config", [(5, 3, 5, "1+p^3", 6),
                                    (5, 2, 5, "1+p^3", 4)], ids=["B1", "B2"])
@pytest.mark.parametrize("digits", [64, 256])
def test_certified_nodes_pass_the_forward_run(config, digits):
    # every certified node runs forward into the pole as the former check
    # ran it, and each of its forward iterates lies in the certified ball
    # of the chain point that stands for it
    *args, depth = config
    params = MapParams.make(*args, digits)
    for n, level in enumerate(pole_preimage_tree(params, depth), start=1):
        for node in level:
            assert forward_into_the_pole(params, node[0], n)
            assert (node[n] - params.pole).is_exact_zero
            word = itinerary_of(params, node, n)
            traj = Trajectory(params, node[0])
            for j in range(n):
                ball = dynamics.certified(params, word[j:], node[j])
                assert ball.contains(traj[j])


class TestBasinTotality:
    def test_classification_coherent_small_scale(self, regime_b2):
        # sweep_report runs the re-entry and pole-prediction checks on
        # every record; a violation raises instead of recording
        from pottsbethe.verify import sweep_report
        rep = sweep_report(regime_b2, samples=120, seed=5, classify_depth=30)
        assert set(rep["classification_histogram"]) == {"basin"}
        assert rep["histogram"] == {"converged_to_1": 120}
