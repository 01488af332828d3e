"""The map, regimes, partition geometry, and inverse branches."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pottsbethe import sampling
from pottsbethe.mapping import (
    PARTITION_CACHE_SIZE,
    MapParams,
    PoleHit,
    RegimeTag,
    attracting_ball,
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
    Padic,
    PrecisionError,
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


class TestEval:
    def test_fixed_point_one(self, regime_b2):
        assert (eval_f(regime_b2, 1) - 1).is_exact_zero

    def test_pole_hit(self, regime_b2):
        with pytest.raises(PoleHit):
            eval_f(regime_b2, regime_b2.pole)

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

    def test_regime_a_has_no_partition(self, regime_a):
        with pytest.raises(ValueError):
            build_partition(regime_a)

    def test_json_shape(self, regime_b2):
        d = build_partition(regime_b2).to_json_dict(regime_b2)
        assert set(d) == {"p", "k", "q", "theta", "regime", "kappa",
                          "radius_exp", "balls"}
        assert d["kappa"] == 2 and len(d["balls"]) == 2
        assert set(d["balls"][0]) == {"symbol", "xi", "center", "tau"}


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
            for s in sampling.ball_samples(regime_b2, b.symbol, 50, seed=2):
                samples.append(s.realize(regime_b2))
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
    bits = int((digits + 24) * math.log2(p)) + draw(st.integers(-6, 6))
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
        with pytest.raises(PoleHit, match=r"O\(p\^7\)") as exc:
            eval_f(regime_b2, x)
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


class TestAttractingBall:
    """In regime B, v(f(x)-1) = v(x-1) + tau_one on B_1 = {v(x-1) >=
    v(q)+1}, and the residue kernel loses exactly v(q) digits there."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_contraction_law(self, data):
        params = data.draw(regime_b_params())
        p, v_q = params.p, params.v_q
        assert classify_regime(params).tag in (RegimeTag.B1, RegimeTag.B2)
        part = build_partition(params)  # asserts the cover misses B_1
        tau = params.v_k + params.v_theta1 - v_q
        assert part.tau_one == tau == multiplier(params, 1).valuation
        v_h = data.draw(st.integers(v_q + 1, v_q + 12))
        h = data.draw(st.integers(1, p**6).filter(lambda u: u % p)) * p**v_h
        a = data.draw(st.integers(v_h + 1, params.digits))
        inexact = Padic(p, 0, (1 + h) % p**a, a, params.digits)
        for x in (params.embed(1 + h), inexact):
            assert attracting_ball(params).contains(x)
            assert part.locate(x) is None
            fx = eval_f(params, x)
            d = fx - 1
            assert d.val_lower_bound == min(v_h + tau, fx.abs_prec)
            assert d.is_zero_like == (v_h + tau >= fx.abs_prec)
            if x is inexact:
                assert fx.abs_prec == a - v_q

    def test_membership(self, regime_b1):
        ball_1 = attracting_ball(regime_b1)
        assert ball_1.contains(regime_b1.embed(1))
        assert ball_1.contains(regime_b1.embed(26))
        assert not ball_1.contains(regime_b1.embed(6))
        with pytest.raises(PrecisionError):
            ball_1.contains(1 + Padic.inexact_zero(5, 1))

