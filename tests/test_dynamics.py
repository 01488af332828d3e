"""Orbits, the basin trichotomy, and the symbolic dynamics."""

import itertools

import pytest

from pottsbethe import dynamics
from pottsbethe.dynamics import (
    ClassifyKind,
    OrbitStatus,
    Trajectory,
    basin_classify,
    branch_tree,
    cycle_multiplier,
    cylinder_point,
    df_metric,
    incidence_matrix,
    itinerary_of,
    norm_fraction,
    orbit,
    periodic_point,
    pole_preimage_tree,
)
from pottsbethe.mapping import (
    MapParams,
    Partition,
    PoleHit,
    VerificationError,
    build_partition,
    eval_f,
    inverse_branch,
)
from pottsbethe.padic import Padic, PrecisionError, from_rational


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

    def test_regime_a_from_five(self, regime_a):
        traj = Trajectory(regime_a, 5)
        res = orbit(regime_a, traj)
        assert res.status is OrbitStatus.CONVERGED_TO_1
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

    def test_distance_and_symbol_are_computed_once(self, regime_b2,
                                                   monkeypatch):
        located = []
        locate = Partition.locate

        def counting_locate(part, x):
            located.append(x)
            return locate(part, x)
        monkeypatch.setattr(Partition, "locate", counting_locate)
        traj = Trajectory(regime_b2, 7)
        d = traj.to_1(2)
        assert traj.to_1(2) is d and (d - (traj[2] - 1)).is_zero_like
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

    def test_far_from_one_minus_q(self, regime_b2):
        # |x - 1 + q| >= |q| certifies the basin; such x never lies in
        # the cover, so the exit step is zero
        x = from_rational(1 + regime_b2.q, 1, prime=5)
        assert (x - (1 - regime_b2.q)).norm_exp() <= regime_b2.v_q
        res = basin_classify(regime_b2, x, 50)
        assert res.kind is ClassifyKind.BASIN and res.step == 0

    def test_pole_preimage_level_one(self, regime_b2):
        x = inverse_branch(regime_b2, 1, regime_b2.pole)
        res = basin_classify(regime_b2, x, 50)
        assert res.kind is ClassifyKind.POLE_PREIMAGE and res.step == 1

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
        words = list(itertools.product((1, 2), repeat=3))
        pts = {w: cylinder_point(regime_b2, w)[0] for w in words}
        for wa, wb in itertools.combinations(words, 2):
            assert norm_fraction(pts[wa] - pts[wb]) == \
                df_metric(regime_b2, wa, wb)

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

        def counted(params, symbol, y):
            calls.append(symbol)
            return inverse_branch(params, symbol, y)

        monkeypatch.setattr(dynamics, "inverse_branch", counted)
        tree = branch_tree(regime_b2, regime_b2.pole, 3)
        assert calls == []
        next(tree)
        assert calls == [1, 2]


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


class TestIncidence:
    def test_b1_singleton(self, regime_b1):
        assert incidence_matrix(regime_b1) == ((1,),)

    def test_b2_all_ones(self, regime_b2):
        assert incidence_matrix(regime_b2) == ((1, 1), (1, 1))

    def test_b4_all_ones(self, regime_b4):
        assert incidence_matrix(regime_b4) == ((1,) * 4,) * 4


class TestWordMetric:
    def test_first_symbol_disagreement(self, regime_b2):
        part = build_partition(regime_b2)
        kappa_12 = (part.balls[0].center - part.balls[1].center).norm_exp()
        assert df_metric(regime_b2, (1, 1), (2, 1)) == \
            norm_fraction(part.balls[0].center - part.balls[1].center)
        assert kappa_12 == regime_b2.v_k + regime_b2.v_theta1

    def test_common_prefix_accumulates_taus(self, regime_b2):
        part = build_partition(regime_b2)
        d0 = df_metric(regime_b2, (2,), (1,))
        d2 = df_metric(regime_b2, (1, 2, 2), (1, 2, 1))
        tau_prefix = part.balls[0].tau + part.balls[1].tau
        assert d2 == d0 / 5**tau_prefix

    def test_identical_prefix_undefined(self, regime_b2):
        with pytest.raises(ValueError):
            df_metric(regime_b2, (1, 2), (1, 2, 1))

    def test_center_exponents_are_one_table_per_partition(self, regime_b4):
        part = build_partition(regime_b4)
        table = part.center_exps
        assert build_partition(regime_b4).center_exps is table
        assert len(table) == regime_b4.kappa * (regime_b4.kappa - 1)
        for (i, j), e in table.items():
            ci, cj = part.balls[i - 1].center, part.balls[j - 1].center
            assert e == (ci - cj).norm_exp()
            assert df_metric(regime_b4, (i,), (j,)) == norm_fraction(ci - cj)


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
        # at 12 digits a level-3 preimage is only indistinguishable from
        # the pole before step 3: more digits are needed, nothing is
        # falsified
        with pytest.raises(PrecisionError):
            pole_preimage_tree(MapParams.make(5, 2, 5, "1+p^3", 12), 3)

    @pytest.mark.parametrize("exact,error", [
        (True, VerificationError), (False, PrecisionError)])
    def test_early_pole_hit(self, regime_b2, monkeypatch, exact, error):
        def hit(params, x):
            raise PoleHit("injected", exact=exact)
        monkeypatch.setattr(dynamics, "eval_f", hit)
        with pytest.raises(error):
            pole_preimage_tree(regime_b2, 1)


class TestBasinTotality:
    def test_classification_coherent_small_scale(self, regime_b2):
        # sweep_report runs the re-entry and pole-prediction checks on
        # every record; a violation raises instead of recording
        from pottsbethe.verify import sweep_report
        rep = sweep_report(regime_b2, samples=120, seed=5, classify_depth=30)
        assert set(rep["classification_histogram"]) == {"basin"}
        assert rep["histogram"] == {"converged_to_1": 120}
