"""The map, regimes, partition geometry, and inverse branches."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import census

from pottsbethe import hensel, sampling
from pottsbethe.mapping import (
    PARTITION_CACHE_SIZE,
    WORK_BUDGET,
    MapParams,
    NearPoleHit,
    Partition,
    PartitionBall,
    PoleHit,
    RegimeTag,
    VerificationError,
    _check_cover,
    attracting_ball,
    branch_root,
    build_partition,
    classify_fixed,
    classify_regime,
    eval_f,
    eval_g,
    inverse_branch,
    multiplier,
    parse_theta,
)
from pottsbethe.padic import (
    INF,
    Ball,
    Padic,
    PrecisionError,
    _exact_bits,
    _vp,
    from_rational,
)


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


class NoPowers(int):
    """A prime whose powers would fail the test."""

    def __pow__(self, exp):
        raise AssertionError(f"p**{exp} was computed")


class TestThetaGrammar:
    def test_rational_forms(self):
        assert parse_theta("10", 3) == Fraction(10)
        assert parse_theta("9/4", 3) == Fraction(9, 4)

    def test_power_forms(self):
        assert parse_theta("1+p^3", 5) == Fraction(126)
        assert parse_theta("1+2*p^2", 5) == Fraction(51)
        assert parse_theta("1+-3*p^2", 5) == Fraction(-74)

    def test_rejects(self):
        with pytest.raises(ValueError):
            parse_theta("p^3", 5)
        with pytest.raises(ValueError):
            parse_theta("1+p^", 5)

    def test_exponent_past_the_budget_is_refused_before_the_power(self):
        m = WORK_BUDGET + 1
        with pytest.raises(ValueError, match=f"theta exponent m={m}; budget"):
            parse_theta(f"1+2*p^{m}", NoPowers(5))
        assert parse_theta(f"1+2*p^{WORK_BUDGET}", 5) == \
            1 + 2 * 5**WORK_BUDGET


class TestParamsValidation:
    def test_p_constraints(self):
        with pytest.raises(ValueError):
            MapParams.make(2, 2, 2, "1+p^3")
        with pytest.raises(ValueError):
            MapParams.make(9, 2, 9, "1+p^3")

    def test_q_divisibility(self):
        with pytest.raises(ValueError):
            MapParams.make(5, 2, 7, "1+p^3")

    def test_theta_must_be_in_ep(self):
        with pytest.raises(ValueError):
            MapParams.make(5, 2, 5, 3)

    def test_degenerate_pole_at_one(self):
        # theta = 1 - q makes q + theta - 1 vanish
        with pytest.raises(ValueError):
            MapParams.make(5, 2, 5, -4)

    def test_digits_past_the_budget_are_refused_before_any_power(self):
        # classify at 10**6 digits took 12 s on a 2-CPU VM before the
        # budget counted digits
        with pytest.raises(ValueError, match=f"{WORK_BUDGET + 1} digits; "
                           f"budget is {WORK_BUDGET}"):
            MapParams.make(NoPowers(5), 3, 5, "1+p^3", WORK_BUDGET + 1)
        assert MapParams.make(5, 3, 5, "1+p^3", WORK_BUDGET).digits == \
            WORK_BUDGET

    def test_equal_by_configuration(self):
        a = MapParams.make(5, 2, 5, "1+p^3")
        b = MapParams.make(5, 2, 5, "1+p^3")
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != MapParams.make(5, 2, 5, "1+p^3", digits=32)
        assert a != MapParams.make(5, 2, 5, "1+p^4")

    def test_theta_is_rational_or_text(self):
        # a Padic theta is refused: no exact rational rebuilds it at
        # other digits
        with pytest.raises(TypeError):
            MapParams.make(5, 2, 5, from_rational(126, 1, prime=5))

    def test_pole_in_ep_and_not_one(self, regime_b2):
        d = regime_b2.pole - 1
        assert d.valuation == regime_b2.v_qtheta1 >= 1


@st.composite
def embeddable_rationals(draw):
    """(p, digits, fr): any integer numerator, 0 and negatives included,
    over p**e times a denominator prime to p or not."""
    p = draw(st.sampled_from([3, 5, 7, 1000003]))
    digits = draw(st.integers(1, 80))
    num = draw(st.one_of(st.just(0), st.integers(-10**40, 10**40)))
    den = p ** draw(st.integers(0, 6)) * draw(st.integers(1, 10**6))
    return p, digits, Fraction(num, den)


class TestEmbed:
    @settings(max_examples=300, deadline=None)
    @given(embeddable_rationals())
    def test_embed_is_from_rational(self, case):
        # embed takes its Fraction as it is and skips the prime check
        # that MapParams.make already ran; the value must not change
        p, digits, fr = case
        params = MapParams.make(p, 2, p, "1+p^3", digits)
        got = params.embed(fr)
        want = from_rational(fr.numerator, fr.denominator, prime=p,
                             digits=digits)
        assert ((got.val, got.unit, got.prec, got.cap)
                == (want.val, want.unit, want.prec, want.cap))
        # and an oracle: p**val * unit = n/d, the unit exact or solving
        # unit * d' = n' modulo p**prec for the parts n', d' prime to p
        n, d = fr.numerator, fr.denominator
        if n == 0:
            assert (got.unit, got.prec) == (0, math.inf)
            return
        vn = next(v for v in range(200) if n % p ** (v + 1))
        vd = next(v for v in range(200) if d % p ** (v + 1))
        nu, du = n // p**vn, d // p**vd
        assert got.val == vn - vd
        if got.prec == math.inf:
            assert got.unit == nu
        else:
            assert (got.unit * du - nu) % p**got.prec == 0


class TestEval:
    def test_fixed_point_one(self, regime_b2):
        assert (eval_f(regime_b2, 1) - 1).is_exact_zero

    def test_pole_hit(self, regime_b2):
        with pytest.raises(PoleHit) as exc:
            eval_f(regime_b2, regime_b2.pole)
        assert not isinstance(exc.value, PrecisionError)

    def test_rational_oracle(self):
        # p=3, q=3, k=2, theta=10, x=0: f(0) = ((q-1)/(q+theta-2))^k = 4/121
        params = MapParams.make(3, 2, 3, 10)
        oracle = from_rational(4, 121, prime=3)
        assert (eval_f(params, 0) - oracle).is_zero_like

    def test_g_rational_oracle(self):
        params = MapParams.make(3, 2, 3, 10)
        oracle = from_rational(2, 11, prime=3)
        assert (eval_g(params, 0) - oracle).is_zero_like

    def test_g_minus_one_identity(self, regime_b2):
        x = from_rational(17, 4, prime=5)
        lhs = eval_g(regime_b2, x) - 1
        rhs = ((regime_b2.theta - 1) * (x - 1)
               / (x + regime_b2.theta + (regime_b2.q - 2)))
        assert (lhs - rhs).is_zero_like

    def test_f_is_g_to_the_k(self, regime_b4):
        rng = random.Random(3)
        for _ in range(10):
            x = from_rational(rng.randrange(5**40), 1, prime=5)
            fx = eval_f(regime_b4, x)
            gk = eval_g(regime_b4, x).pow_int(regime_b4.k)
            assert (fx - gk).is_zero_like


class TestMultiplier:
    def test_attractive_at_one_both_regimes(self, regime_a, regime_b1,
                                            regime_b2):
        for params in (regime_a, regime_b1, regime_b2):
            lam = multiplier(params, 1)
            # symbolic simplification at x=1: |lambda| = |k(theta-1)/(q+theta-1)|
            expected = params.v_k + params.v_theta1 - params.v_qtheta1
            assert lam.valuation == expected > 0
            assert classify_fixed(lam) == "attractive"

    def test_not_fixed_rejected(self, regime_b2):
        with pytest.raises(ValueError):
            multiplier(regime_b2, 5)

    def test_theta_one_flagged(self):
        params = MapParams.make(3, 3, 3, 1)  # constant map, still regime A
        lam = multiplier(params, 1)
        assert lam.is_exact_zero
        with pytest.raises(ValueError):
            classify_fixed(lam)


class TestRegime:
    def test_triple_a(self, regime_a):
        r = classify_regime(regime_a)
        assert r.tag is RegimeTag.A
        assert regime_a.v_k == 1 and regime_a.v_qtheta1 == 1

    def test_triple_b1(self, regime_b1):
        r = classify_regime(regime_b1)
        assert r.tag is RegimeTag.B1 and regime_b1.kappa == 1

    def test_triple_b2(self, regime_b2):
        r = classify_regime(regime_b2)
        assert r.tag is RegimeTag.B2 and regime_b2.kappa == 2

    def test_uncovered_gap(self):
        r = classify_regime(MapParams.make(5, 2, 5, "1+p^1"))
        assert r.tag is RegimeTag.UNCLASSIFIED
        assert "q^2" in r.detail

    def test_theta_one_expanding_side(self):
        with pytest.raises(ValueError):
            classify_regime(MapParams.make(5, 2, 5, 1))


class TestPartition:
    def test_radius_and_taus(self, regime_b2):
        part = build_partition(regime_b2)
        assert part.radius_exp == 4
        assert part.taus == (2, 4)

    def test_center_oracle_k2(self, regime_b2):
        # k = 2 kills the (k-2)q^2/(6k) term:
        # center(xi=1) = 1 - q + (1 - q/2)(theta - 1) = -383/2
        part = build_partition(regime_b2)
        oracle = from_rational(Fraction(1 - 5) + (1 - Fraction(5, 2)) * 125,
                               1, prime=5)
        assert (part.balls[0].center - oracle).is_zero_like

    def test_tau_by_difference_quotients(self, regime_b2):
        part = build_partition(regime_b2)
        rng = random.Random(5)
        for entry in part.balls:
            for _ in range(4):
                off1 = rng.randrange(5**40)
                off2 = rng.randrange(5**40)
                if off1 == off2:
                    continue
                x = entry.center + off1 * 5**(part.radius_exp + 1)
                y = entry.center + off2 * 5**(part.radius_exp + 1)
                fx, fy = eval_f(regime_b2, x), eval_f(regime_b2, y)
                jump = (fx - fy).norm_exp() - (x - y).norm_exp()
                assert jump == -entry.tau

    def test_pairwise_center_distance_nontrivial_roots(self, regime_b4):
        # |x_i - x_j| = |q(theta-1)| for xi_i, xi_j != 1
        part = build_partition(regime_b4)
        others = [b.center for b in part.balls[1:]]
        for i in range(len(others)):
            for j in range(i + 1, len(others)):
                assert (others[i] - others[j]).norm_exp() == part.radius_exp

    def test_first_center_distance(self, regime_b4):
        # |x_1 - x_j| = |k(theta-1)| for xi_j != 1
        part = build_partition(regime_b4)
        expected = regime_b4.v_k + regime_b4.v_theta1
        for b in part.balls[1:]:
            assert (part.balls[0].center - b.center).norm_exp() == expected

    def test_pole_outside_cover(self, regime_b2, regime_b4):
        for params in (regime_b2, regime_b4):
            part = build_partition(params)
            for b in part.balls:
                assert not b.ball.contains(params.pole)
            # for nontrivial roots the pole sits at exactly the open radius
            d = part.balls[-1].center - params.pole
            assert d.valuation == part.radius_exp

    def test_one_partition_per_configuration(self, regime_b2):
        assert build_partition(regime_b2.at_digits(128)) is \
            build_partition(regime_b2.at_digits(128))
        before = build_partition.cache_info().currsize
        for _ in range(100):
            build_partition(MapParams.make(5, 2, 5, "1+p^3", digits=48))
        assert build_partition.cache_info().currsize - before <= 1

    def test_cache_keeps_the_last_configurations(self):
        # a process over many theta or digit counts keeps a bounded number
        # of partitions, the ones used last
        bound = PARTITION_CACHE_SIZE
        configs = [MapParams.make(5, 2, 5, "1+p^3", digits=8 + d)
                   for d in range(bound + 10)]
        parts = [build_partition(params) for params in configs]
        info = build_partition.cache_info()
        assert info.maxsize == bound and info.currsize == bound
        assert build_partition(configs[-1]) is parts[-1]
        assert build_partition(configs[-bound]) is parts[-bound]

    @pytest.mark.parametrize("p,k,refused", [
        # 4 242 balls, refused while 8 995 161 pairs were counted
        (4243, 4242, False),
        (100003, 100002, True),  # past WORK_BUDGET balls
    ])
    def test_cover_budget_is_checked_before_the_roots(self, monkeypatch, p,
                                                      k, refused):
        def roots_of_unity(*args):
            raise LookupError("the budget admitted the cover")
        monkeypatch.setattr(hensel, "roots_of_unity", roots_of_unity)
        params = MapParams.make(p, k, p, "1+p^3")
        assert (params.kappa > WORK_BUDGET) == refused
        message = (f"a cover of kappa={k} balls; budget is {WORK_BUDGET}"
                   if refused else "the budget admitted the cover")
        with pytest.raises(ValueError if refused else LookupError,
                           match=message):
            build_partition(params)

    def test_regime_a_has_no_partition(self, regime_a):
        with pytest.raises(ValueError):
            build_partition(regime_a)

    def test_json_shape(self, regime_b2):
        d = build_partition(regime_b2).to_json_dict(regime_b2)
        assert set(d) == {"p", "k", "q", "theta", "regime", "kappa",
                          "radius_exp", "balls"}
        assert d["kappa"] == 2 and len(d["balls"]) == 2
        assert set(d["balls"][0]) == {"symbol", "xi", "center", "tau"}


def pairwise_cover_check(balls, pole, ball_1):
    """The cover check as ``build_partition`` made it pair by pair: for
    each ball i, every later ball, then the pole, then B_1."""
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            if not balls[i].is_disjoint(balls[j]):
                raise VerificationError(
                    f"partition balls {i + 1} and {j + 1} are not disjoint")
        if balls[i].contains(pole):
            raise VerificationError("the pole fell inside the cover")
        if not balls[i].is_disjoint(ball_1):
            raise VerificationError(
                f"partition ball {i + 1} meets the attracting ball B_1")


def cover_check(balls, pole, ball_1):
    """``_check_cover`` on a cover of these balls, all of one radius."""
    radius = balls[0].radius_exp if balls else 0
    _check_cover(Partition(radius, tuple(
        PartitionBall(i, None, b.center, b, 1)
        for i, b in enumerate(balls, start=1))), pole, ball_1)


def failure(check, *args):
    """The class and message of what ``check(*args)`` raises; None when it
    raises nothing."""
    try:
        check(*args)
    except (VerificationError, PrecisionError) as exc:
        return type(exc), str(exc)
    return None


@st.composite
def near_padics(draw, p, values):
    """One of ``values`` plus p^e times a small integer, over p^d: exact,
    or known to an absolute precision that may fall below the digits
    that set it apart."""
    n = (draw(st.sampled_from(values))
         + p ** draw(st.integers(0, 7)) * draw(st.integers(0, p**2)))
    d = draw(st.sampled_from([0, 0, 0, 1, 2]))
    scale = from_rational(Fraction(1, p**d), prime=p, digits=24)
    if draw(st.booleans()):
        return from_rational(n, prime=p, digits=24) * scale
    known = draw(st.integers(1, 9))  # digits known, before the scale
    return Padic.from_residue(n, known, p, 24) * scale


class TestCoverCheck:
    """``build_partition`` decides the disjointness of its balls by one
    sort of their centers' residues; it raises what the pairwise loop
    raised, in the same order."""

    @given(st.data())
    @settings(max_examples=600, deadline=None)
    def test_matches_the_pairwise_loop(self, data):
        p = data.draw(st.sampled_from([3, 5, 7]))
        # few base values, so that centers often share their low digits
        values = data.draw(st.lists(st.integers(0, p**8), min_size=1,
                                    max_size=3))
        radius = data.draw(st.integers(0, 6))
        centers = data.draw(st.lists(near_padics(p, values), max_size=9))
        balls = [Ball(c, radius) for c in centers]
        pole = data.draw(near_padics(p, values))
        ball_1 = Ball(data.draw(near_padics(p, values)),
                      data.draw(st.integers(0, 6)))
        assert failure(cover_check, balls, pole, ball_1) == \
            failure(pairwise_cover_check, balls, pole, ball_1)

    @pytest.mark.parametrize("centers,error", [
        ([3, 5, 3 + 5**4, 8], (VerificationError,
                               "partition balls 1 and 3 are not disjoint")),
        ([1, 3, 5, 3 + 5**4, 1 + 5**5],
         (VerificationError, "partition balls 1 and 5 are not disjoint")),
        ([1, 2, (2, 2)], (PrecisionError, "cannot decide valuation <= 3: "
                                          "only >= 2 is known")),
        ([(7, 3), 2, 2 + 5**6, (7, 2)],
         (PrecisionError, "cannot decide valuation <= 3: only >= 2 is "
                          "known")),
        ([2, 3, 3 + 5**4], (VerificationError,
                            "the pole fell inside the cover")),
        ([2, 2 + 5**5, 9], (VerificationError,
                            "partition balls 1 and 2 are not disjoint")),
    ], ids=["pair", "first-ball-last-partner", "precision",
            "precision-of-a-later-pair", "pole-before-a-later-pair",
            "pair-before-the-pole"])
    def test_planted_failures(self, centers, error):
        # radius 3 around integers, or around (residue, digits known); the
        # pole 2 + 5^4 lies in the ball of any center that is 2 mod 5^4
        def center(c):
            if isinstance(c, tuple):
                return Padic.from_residue(c[0], c[1], 5, 24)
            return from_rational(c, prime=5, digits=24)

        balls = [Ball(center(c), 3) for c in centers]
        pole = from_rational(2 + 5**4, prime=5, digits=24)
        ball_1 = Ball(from_rational(5**6, prime=5, digits=24), 5)
        assert failure(pairwise_cover_check, balls, pole, ball_1) == error
        assert failure(cover_check, balls, pole, ball_1) == error

    def test_pairs_are_not_compared_one_by_one(self, monkeypatch):
        # 100 balls: one disjointness test each, against B_1, where the
        # pairwise loop made 4 950 more
        calls = []
        is_disjoint = Ball.is_disjoint

        def counted(ball, other):
            calls.append(other)
            return is_disjoint(ball, other)

        monkeypatch.setattr(Ball, "is_disjoint", counted)
        params = MapParams.make(101, 100, 101, "1+p^3")
        assert params.kappa == 100
        build_partition(params)
        assert len(calls) == 100


def scan_locate(part, x):
    """``Partition.locate`` as it was: every ball tested in symbol
    order."""
    for b in part.balls:
        if b.ball.contains(x):
            return b.symbol
    return None


def located(locate, *args):
    """What ``locate(*args)`` returns, or the class and message of the
    PrecisionError it raises."""
    try:
        return locate(*args)
    except PrecisionError as exc:
        return type(exc), str(exc)


# regime-B covers at --precision 3, 6 and 64, kappa 2 to 6
LOCATE_COVERS = [MapParams.make(p, k, q, theta, digits)
                 for p, k, q, theta in [(5, 2, 5, "1+p^3"), (5, 4, 5, "1+p^3"),
                                        (7, 6, 49, "1+p^5")]
                 for digits in (3, 6, 64)]


@st.composite
def points_near(draw, part, p):
    """A center of ``part``, or 0, plus p^e times a small integer; exact,
    or cut to an absolute precision from below 0 to above s+1; then over
    p^d, which gives negative valuations."""
    s = part.radius_exp
    base = draw(st.sampled_from([b.center for b in part.balls]
                                + [Padic.zero(p)]))
    x = base + p ** draw(st.integers(0, s + 3)) * draw(st.integers(0, p**2))
    if draw(st.booleans()):
        x = x + Padic.inexact_zero(p, draw(st.integers(-2, s + 3)))
    d = draw(st.sampled_from([0, 0, 1, 3]))
    return x * from_rational(Fraction(1, p**d), prime=p, digits=24)


class TestLocate:
    """``Partition.locate`` asks ``Ball.contains`` only of the balls in
    the point's residue group; it returns and raises what the scan of
    every ball did."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_scan_on_built_covers(self, data):
        params = data.draw(st.sampled_from(LOCATE_COVERS))
        part = build_partition(params)
        x = data.draw(points_near(part, params.p))
        assert located(part.locate, x) == located(scan_locate, part, x)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_scan_on_synthetic_covers(self, data):
        p = data.draw(st.sampled_from([3, 5, 7]))
        values = data.draw(st.lists(st.integers(0, p**8), min_size=1,
                                    max_size=3))
        radius = data.draw(st.integers(0, 6))
        centers = data.draw(st.lists(near_padics(p, values), max_size=9))
        part = Partition(radius, tuple(
            PartitionBall(i, None, c, Ball(c, radius), 1)
            for i, c in enumerate(centers, start=1)))
        x = data.draw(st.one_of(
            near_padics(p, values), points_near(part, p),
            st.integers(-3, 9).map(lambda a: Padic.inexact_zero(p, a))))
        assert located(part.locate, x) == located(scan_locate, part, x)

    def test_mixed_primes_are_refused_as_the_scan_refuses_them(
            self, regime_b2):
        part = build_partition(regime_b2)
        for x in (from_rational(7, prime=3), Padic.inexact_zero(3, -4)):
            with pytest.raises(ValueError, match="^mixed primes$"):
                part.locate(x)
            with pytest.raises(ValueError, match="^mixed primes$"):
                scan_locate(part, x)

    def test_one_contains_call_per_point_at_kappa_1008(self, monkeypatch):
        # a point known to s+1 digits shares its residue modulo p^(s+1)
        # with at most one center; the scan made up to 1 008 calls
        params = MapParams.make(1009, 1008, 1009, "1+p^3")
        part = build_partition(params)
        assert params.kappa == len(part.balls) == 1008
        s, p = part.radius_exp, params.p
        points = [sample.realize(params) for sample
                  in sampling.spanning_samples(params, 30, 1)]
        for b in part.balls[::24] + part.balls[-3:]:
            points += [b.center, b.center + 5 * p ** (s + 1),
                       b.center + p**s]
        assert all(x.abs_prec >= s + 1 for x in points)
        symbols = [scan_locate(part, x) for x in points]
        assert symbols.count(1008) == 2 and symbols.count(None) > 30
        calls = []
        contains = Ball.contains

        def counted(ball, x):
            calls.append(x)
            return contains(ball, x)

        monkeypatch.setattr(Ball, "contains", counted)
        for x, symbol in zip(points, symbols):
            calls.clear()
            assert part.locate(x) == symbol
            assert len(calls) <= 1


class TestCenterLaw:
    def test_law_matches_every_measured_distance_on_the_census_grid(self):
        # a kappa^2 reference: every center distance of each regime-B
        # cover with kappa >= 2 of the census grid, at 64 digits
        covers = 0
        for p, k, q, theta in census.GRID:
            params = MapParams.make(p, k, q, theta)
            if params.regime.tag is not RegimeTag.B2:
                continue
            part = build_partition(params)
            for a, b in itertools.permutations(part.balls, 2):
                assert part.center_exp(params, a.symbol, b.symbol) == \
                    (a.center - b.center).norm_exp()
            covers += 1
        assert covers == 23


class TestInverseBranch:
    def test_branch_inverse_identity(self, regime_b2):
        part = build_partition(regime_b2)
        rng = random.Random(11)
        for entry in part.balls:
            for _ in range(3):
                x = entry.center + rng.randrange(5**40) * 5**(part.radius_exp + 1)
                y = eval_f(regime_b2, x)
                back = inverse_branch(regime_b2, entry.symbol, y)
                assert (back - x).is_zero_like

    def test_images_land_in_their_ball(self, regime_b2):
        part = build_partition(regime_b2)
        samples = []
        for b in part.balls:
            samples.append(b.center)
            samples += sampling.ball_samples(regime_b2, b.symbol, 50, seed=2)
        for entry in part.balls:
            for y in samples:
                h = inverse_branch(regime_b2, entry.symbol, y)
                assert entry.ball.contains(h)
                assert (eval_f(regime_b2, h) - y).is_zero_like

    def test_pole_preimages_defined(self, regime_b2):
        # the pole satisfies |pole - (1-q)| = |theta-1| < |q^2|
        assert (regime_b2.pole - (1 - regime_b2.q)).norm_exp() == \
            regime_b2.v_theta1
        part = build_partition(regime_b2)
        for entry in part.balls:
            h = inverse_branch(regime_b2, entry.symbol, regime_b2.pole)
            assert entry.ball.contains(h)

    def test_domain_precondition(self, regime_b2):
        with pytest.raises(ValueError):
            inverse_branch(regime_b2, 1, 7)  # |7 - (1-q)| = 1 >= |q^2|
        # y - 1 = O(p) cannot tell |y - 1| < |10| = p^-1 from equality
        with pytest.raises(PrecisionError, match="cannot certify"):
            branch_root(MapParams.make(5, 10, 25, "1+p^5"),
                        Padic.from_residue(1, 1, 5))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_perturbing_hidden_digits_keeps_claimed_digits(self, data):
        # y = 1 - q + u*p**j known to a digits, and y2 equal to it on those
        # digits: each branch of y2 agrees with that of y on every digit
        # the branch of y claims
        params = data.draw(regime_b_params())
        p, digits = params.p, params.digits
        j = data.draw(st.integers(params.v_k + 1, 2 * params.v_q + 2))
        num = 1 - params.q + data.draw(st.integers(0, p**digits)) * p**j
        a = data.draw(st.integers(params.v_k + 1, digits))
        e = data.draw(st.integers(1, 8))
        y = Padic.from_residue(num, a, p, digits)
        hidden = data.draw(st.integers(1, p**e - 1).filter(lambda h: h % p))
        y2 = Padic.from_residue(num + p**a * hidden, a + e, p, digits + e)
        assert _agree(y, y2, a)
        for symbol in range(1, len(build_partition(params).balls) + 1):
            try:
                h = inverse_branch(params, symbol, y)
            except PrecisionError:
                continue
            h2 = inverse_branch(params, symbol, y2)
            assert h2.abs_prec >= h.abs_prec
            assert _agree(h, h2, h.abs_prec)


def fields(z: Padic) -> tuple:
    return z.prime, z.val, z.unit, z.prec, z.cap


def outcome(fn, *args):
    """fn's result as its fields, or the type of what it raised."""
    try:
        return fields(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def center_off_the_root(params, xi):
    """A center as ``build_partition`` wrote it before it read the pole:
    2 - q - theta + q(theta-1)/(1-xi)."""
    return (params.embed(2 - params.q) - params.theta
            + params.q * (params.theta - 1) / (1 - xi))


def branch_by_theta(params, symbol, y):
    """h_i(y) as ``inverse_branch`` wrote it before it read the pole:
    ((theta+q-2) * xi*r - q + 1) / (theta - xi*r), r = y**(1/k)."""
    xr = build_partition(params).balls[symbol - 1].xi * \
        branch_root(params, y)
    den = params.theta - xr
    if den.is_zero_like:
        raise PrecisionError("theta - xi * y**(1/k) cancelled")
    return ((params.theta + (params.q - 2)) * xr - (params.q - 1)) / den


# the census grid, and thetas known only to their digits
FORM_SETS = census.GRID + [(5, 2, 5, 1 + Fraction(5**4, 3)),
                           (7, 3, 7, 1 - Fraction(7**3, 2)),
                           (3, 2, 9, 1 + Fraction(3**6, 4))]


class TestOneFormPerFact:
    def test_forms_match_the_replaced_ones_on_the_census_covers(self):
        # symbol 1 is the root 1, each center off it is pole + q(theta-1)
        # /(1-xi), and each branch reads the pole: field for field the
        # forms they replaced, at the centers, the pole and ball samples
        covers = 0
        for (p, k, q, theta), digits in itertools.product(FORM_SETS,
                                                          (6, 12, 64)):
            try:
                params = MapParams.make(p, k, q, theta, digits)
                if not params.regime.expanding:
                    continue
                part = build_partition(params)
            except PrecisionError:
                continue
            covers += 1
            assert fields(part.balls[0].xi) == fields(Padic.one(p, digits))
            for b in part.balls[1:]:
                assert not (b.xi - 1).is_zero_like
                assert fields(b.center) == \
                    fields(center_off_the_root(params, b.xi))
            ys = [b.center for b in part.balls] + [params.pole]
            ys += sampling.ball_samples(params, part.balls[-1].symbol, 3, 1)
            for y, b in itertools.product(ys, part.balls):
                assert outcome(inverse_branch, params, b.symbol, y) == \
                    outcome(branch_by_theta, params, b.symbol, y)
        assert covers == 95

    def test_one_subtraction_per_branch_root(self, monkeypatch, regime_b2):
        # the domain |y - 1| < |k| is decided once, by principal_kth_root
        part = build_partition(regime_b2)
        calls, sub = [], Padic.__sub__

        def counted(x, y):
            calls.append(y)
            return sub(x, y)

        monkeypatch.setattr(Padic, "__sub__", counted)
        for y in [b.center for b in part.balls] + [regime_b2.pole]:
            calls.clear()
            branch_root(regime_b2, y)
            assert len(calls) == 1


class TestRegimeAContraction:
    def test_contraction_in_k1(self, regime_a):
        # for x in B_{|q+theta-1|}(1): |f(x) - 1| < |x - 1|
        rng = random.Random(17)
        p = regime_a.p
        for _ in range(40):
            # |x - 1| < |q + theta - 1| = p^-1, x != 1
            off = rng.randrange(1, p**30)
            x = from_rational(1 + p**2 * off, 1, prime=p, digits=40)
            d0 = (x - 1).norm_exp()
            d1 = (eval_f(regime_a, x) - 1).norm_exp()
            assert d1 > d0


class TestScalingLaws:
    def test_expansion_constants(self, regime_b2, regime_b4):
        # |f(x)-f(y)| = |q(x-y)|/|k(theta-1)| on the ball at 1 and
        # |k(x-y)|/|q(theta-1)| on the others
        for params in (regime_b2, regime_b4):
            part = build_partition(params)
            rng = random.Random(23)
            for entry in part.balls:
                if (entry.xi - 1).is_zero_like:
                    expected = -(params.v_k + params.v_theta1 - params.v_q)
                else:
                    expected = -(params.v_q + params.v_theta1 - params.v_k)
                for _ in range(5):
                    a, b = rng.randrange(5**30), rng.randrange(5**30)
                    if a == b:
                        continue
                    x = entry.center + a * 5**(part.radius_exp + 1)
                    y = entry.center + b * 5**(part.radius_exp + 1)
                    fx, fy = eval_f(params, x), eval_f(params, y)
                    jump = (fx - fy).norm_exp() - (x - y).norm_exp()
                    assert jump == expected == -entry.tau


def _fields(z):
    return (z.val, z.unit, z.prec, z.cap)


def _outcome(fn, *args):
    """The result's fields, or the pole hit with its exact flag."""
    try:
        return _fields(fn(*args))
    except PoleHit as exc:
        return ("pole", exc.exact)


def _agree(z, w, a):
    """z and w are congruent modulo p**a."""
    p = z.prime
    m = min(z.val, w.val, a)
    return (z.unit * p ** (z.val - m) - w.unit * p ** (w.val - m)) \
        % p ** (a - m) == 0


def _unit(draw, p, digits):
    u = draw(st.integers(1, p**digits - 1))
    return u if u % p else u + 1


@st.composite
def map_params(draw):
    """p in {3, 5, 7}, k in {1, 2, 3, p, 2p}; theta exact or a rational
    with a denominator prime to p."""
    p = draw(st.sampled_from([3, 5, 7]))
    k = draw(st.sampled_from([1, 2, 3, p, 2 * p]))
    q = p * draw(st.sampled_from([-2, -1, 1, 2, 3]))
    digits = draw(st.sampled_from([8, 20, 64]))
    j = draw(st.integers(1, 6))
    if draw(st.booleans()):
        theta = Fraction(1 + draw(st.integers(1, p - 1)) * p**j)
    else:
        b = draw(st.integers(2, 60).filter(lambda b: b % p))
        theta = Fraction(b + p**j, b)
    try:
        return MapParams.make(p, k, q, theta, digits)
    except (ValueError, PrecisionError):  # q + theta - 1 is 0 or O(p^n)
        assume(False)


@st.composite
def inexact_points(draw, params):
    """An inexact nonzero x: a valuation in -6..8 with any digit count,
    or a point within a few digits of the pole or of the zero (1-q)/theta
    of the numerator, known or unknown beyond them."""
    p, digits = params.p, params.digits
    if draw(st.booleans()):
        prec = draw(st.integers(1, digits))
        cap = draw(st.sampled_from([digits, prec + 3, digits + 8]))
        return Padic(p, draw(st.integers(-6, 8)), _unit(draw, p, prec), prec,
                     cap)
    d = draw(st.integers(1, 14))
    if draw(st.booleans()):
        offset = Padic.inexact_zero(p, d, digits)
    else:
        offset = Padic.from_residue(_unit(draw, p, 4) * p**d,
                                    d + draw(st.integers(1, 4)), p, digits)
    anchor = draw(st.sampled_from(
        [params.pole, params.embed(1 - params.q) / params.theta]))
    return anchor + offset


@st.composite
def exact_points(draw, params):
    """An exact x: p^v * u; or x + theta + q - 2 = +-p^j, which keeps the
    quotient N/D exact; or a unit within a few bits of the truncation
    bound of ``Padic._build``, on either side, where D or N may cancel
    to p^j."""
    p, digits = params.p, params.digits
    kind = draw(st.sampled_from(["plain", "exact_quotient", "near_bound"]))
    if kind == "plain":
        u = draw(st.integers(-p**12, p**12).filter(lambda u: u % p))
        return params.embed(u * Fraction(p) ** draw(st.integers(-6, 8)))
    if kind == "exact_quotient":
        d = draw(st.sampled_from([-1, 1])) * p ** draw(st.integers(0, 6))
        return params.embed(d + 2 - params.q) - params.theta
    bits = int(_exact_bits(p, digits)) + draw(st.integers(-6, 6))
    u = draw(st.integers(2 ** (bits - 1), 2**bits - 1))
    pj = p ** draw(st.integers(1, 4))
    cancel = draw(st.sampled_from(["", "D", "N"]))
    t = params.theta.unit
    if cancel == "D":  # x + theta + q - 2 = 0 mod p^j
        u = u - u % pj - (t + params.q - 2) % pj
    elif cancel == "N":  # theta*x + q - 1 = 0 mod p^j
        u = u - u % pj + (1 - params.q) * pow(t, -1, pj) % pj
    assume(u % p)
    return Padic(p, 0 if cancel else draw(st.integers(-3, 3)), u, INF,
                 digits)


class TestResidueKernel:
    """eval_f maps a nonzero x on residues, inexact or over an exact
    theta; the composed Padic path eval_g(x)**k is the oracle, down to
    the claimed precision."""

    @given(st.data())
    @settings(max_examples=600, deadline=None)
    def test_matches_composed_path(self, data):
        params = data.draw(map_params())
        x = data.draw(st.one_of(inexact_points(params),
                                exact_points(params)))
        composed = _outcome(lambda: eval_g(params, x).pow_int(params.k))
        assert _outcome(eval_f, params, x) == composed

    def test_pole_cancellation_is_inexact_hit(self, regime_b2):
        x = regime_b2.pole + Padic.inexact_zero(5, 7)
        with pytest.raises(NearPoleHit, match=r"O\(p\^7\)") as exc:
            eval_f(regime_b2, x)
        # a shortage of digits that every pole-hit handler also sees
        assert isinstance(exc.value, PrecisionError)
        assert isinstance(exc.value, PoleHit)
        assert exc.value.exact is False

    def test_q_truncated_by_the_cap_matches_composed_path(self):
        # q - 1 and q - 2 too large to stay exact under 8 digits enter the
        # composed sums known only to p^8
        params = MapParams.make(5, 2, 5**40, "1+p^3", digits=8)
        x = Padic(5, 1, 123, 8, 8)
        assert _fields(eval_f(params, x)) == \
            _fields(eval_g(params, x).pow_int(2))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_perturbing_hidden_digits_keeps_claimed_digits(self, data):
        # x and x2 agree on every digit x claims; f(x2) and x2 - y2 must
        # then agree with f(x) and x - y on every digit those claim
        params = data.draw(map_params())
        p = params.p

        def perturb(z):
            e = data.draw(st.integers(1, 8))
            hidden = data.draw(st.integers(0, p**e - 1))
            return Padic(p, z.val, z.unit + p**z.prec * hidden, z.prec + e,
                         z.cap + e)

        x = data.draw(inexact_points(params))
        y = data.draw(inexact_points(params))
        x2, y2 = perturb(x), perturb(y)
        assert _agree(x, x2, x.abs_prec)
        diff, diff2 = x - y, x2 - y2
        assert diff2.abs_prec >= diff.abs_prec
        assert _agree(diff, diff2, diff.abs_prec)
        try:
            fx = eval_f(params, x)
        except PoleHit:
            return
        fx2 = eval_f(params, x2)
        assert fx2.abs_prec >= fx.abs_prec
        assert _agree(fx, fx2, fx.abs_prec)


@st.composite
def regime_b_params(draw):
    """Regime-B parameters with an exact theta: p in {3, 5, 7, 11},
    v(q) in {1, 2}, v(k) < v(q) and v(theta-1) >= 2v(q)+1."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    prime_to_p = st.integers(1, 40).filter(lambda u: u % p)
    v_q = draw(st.integers(1, 2))
    q = draw(st.sampled_from([-1, 1])) * draw(prime_to_p) * p**v_q
    k = draw(prime_to_p) * p**draw(st.integers(0, v_q - 1))
    e = draw(st.integers(2 * v_q + 1, 2 * v_q + 4))
    theta = 1 + draw(st.sampled_from([-1, 1])) * draw(prime_to_p) * p**e
    digits = draw(st.sampled_from([24, 64]))
    return MapParams.make(p, k, q, Fraction(theta), digits)


@st.composite
def contracting_params(draw):
    """Parameters with an exact theta != 1 and tau_one >= 1, in regime A,
    B or unclassified: v(k) is drawn from max(0, w+1-v(theta-1)) to w+2,
    w = v(q+theta-1) <= 8."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    prime_to_p = st.integers(1, 40).filter(lambda u: u % p)
    q = draw(st.sampled_from([-1, 1])) * draw(prime_to_p) * p ** draw(
        st.integers(1, 2))
    e = draw(st.integers(1, 6))
    theta = 1 + draw(st.sampled_from([-1, 1])) * draw(prime_to_p) * p**e
    assume(q + theta - 1 != 0 and _vp(q + theta - 1, p) <= 8)
    w = _vp(q + theta - 1, p)
    v_k = draw(st.integers(max(0, w + 1 - _vp(theta - 1, p)), w + 2))
    k = draw(prime_to_p) * p**v_k
    digits = draw(st.sampled_from([24, 64]))
    return MapParams.make(p, k, q, Fraction(theta), digits)


class TestAttractingBall:
    """Wherever tau_one >= 1, in every regime, v(f(x)-1) = v(x-1) +
    tau_one on B_1 = {v(x-1) >= v(q+theta-1)+1}, and the residue kernel
    loses exactly v(q+theta-1) digits there."""

    @given(st.data())
    @settings(max_examples=600, deadline=None)
    def test_contraction_law(self, data):
        regime_b = data.draw(st.booleans())
        params = data.draw(regime_b_params() if regime_b
                           else contracting_params())
        if regime_b:
            assert classify_regime(params).tag in (RegimeTag.B1,
                                                   RegimeTag.B2)
        p, v = params.p, params.v_qtheta1
        tau = params.v_k + params.v_theta1 - v
        assert params.tau_one == tau == multiplier(params, 1).valuation >= 1
        part = None
        if params.regime.expanding:
            part = build_partition(params)  # asserts the cover misses B_1
        v_h = data.draw(st.integers(v + 1, v + 12))
        h = data.draw(st.integers(1, p**6).filter(lambda u: u % p)) * p**v_h
        a = data.draw(st.integers(v_h + 1, params.digits))
        inexact = Padic(p, 0, (1 + h) % p**a, a, params.digits)
        for x in (params.embed(1 + h), inexact):
            assert attracting_ball(params).contains(x)
            assert part is None or part.locate(x) is None
            fx = eval_f(params, x)
            d = fx - 1
            assert d.val_lower_bound == min(v_h + tau, fx.abs_prec)
            assert d.is_zero_like == (v_h + tau >= fx.abs_prec)
            if x is inexact:
                assert fx.abs_prec == a - v

    def test_membership(self, regime_b1):
        ball_1 = attracting_ball(regime_b1)
        assert ball_1.contains(regime_b1.embed(1))
        assert ball_1.contains(regime_b1.embed(26))
        assert not ball_1.contains(regime_b1.embed(6))
        with pytest.raises(PrecisionError):
            ball_1.contains(1 + Padic.inexact_zero(5, 1))

