"""Root finding: Newton steps, principal roots, roots of unity."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import census
from test_verify import _calls_to

from pottsbethe import hensel, padic
from pottsbethe.hensel import (
    PolyZp,
    fixed_point_B1,
    principal_kth_root,
    roots_of_unity,
)
from pottsbethe.mapping import MapParams, RegimeTag, eval_f
from pottsbethe.padic import Padic, PrecisionError, _vp, from_rational


def brute_force_roots(coeffs, p, m, residue_class=None):
    """Oracle: all residues x mod p**m with F(x) = 0 mod p**m, optionally
    restricted to x = residue_class mod p."""
    mod = p**m
    out = []
    for x in range(mod):
        if residue_class is not None and x % p != residue_class:
            continue
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % mod
        if acc == 0:
            out.append(x)
    return out


def residue(x: Padic, m: int) -> int:
    assert x.val >= 0
    return (x.unit * x.prime**x.val) % x.prime**m


def agrees(x: Padic, ref: Padic) -> bool:
    """x matches the deeper reference on every digit x claims."""
    d = x - ref
    return d.is_exact_zero or (d.is_inexact_zero and d.val >= x.abs_prec)


class TestHenselLift:
    """Newton steps on a ``PolyZp``, under the lifting condition
    |F(x0)|_p < |F'(x0)|_p^2."""

    def test_quadratic_convergence(self):
        # correct digits of F(x) at least double per Newton step
        F = PolyZp.from_rationals([2, 0, 1], prime=3, digits=60)
        x = from_rational(1, 1, prime=3, digits=60)
        vals = []
        for _ in range(4):
            v = F(x).norm_exp()
            vals.append(v)
            x = x - F(x) / F.deriv_at(x)
        for a, b in zip(vals, vals[1:]):
            assert b >= 2 * a

    def test_poly_validation(self):
        with pytest.raises(ValueError):
            PolyZp.from_rationals([1], prime=3)  # degree 0
        with pytest.raises(ValueError):
            PolyZp.from_rationals([Fraction(1, 3), 1], prime=3)  # not in Z_p


class TestPrincipalRoot:
    def test_root_of_one(self):
        a = from_rational(1, 1, prime=5)
        assert (principal_kth_root(a, 9) - 1).is_exact_zero

    def test_sqrt_minus_two_in_q3(self):
        oracle = brute_force_roots([2, 0, 1], 3, 6, residue_class=1)
        a = from_rational(-2, 1, prime=3, digits=40)
        x = principal_kth_root(a, 2)
        assert (x - 1).val_at_least(1)  # x lies in E_p
        assert residue(x, 6) == oracle[0]
        assert (x * x - a).is_zero_like

    def test_uniqueness_in_ep(self):
        # oracle: enumerate all residues congruent to 1 mod p whose square
        # matches; they form a single class at the certified modulus
        p, k, m = 3, 2, 6
        a = from_rational(-2, 1, prime=p, digits=40)
        sols = [x for x in range(p**m)
                if x % p == 1 and (x**k - (-2)) % p**m == 0]
        assert len(sols) == 1
        x = principal_kth_root(a, k)
        assert residue(x, m) == sols[0]

    def test_expansion_residual(self):
        # on a = 1 - q + o[q^2] the residual of the cubic expansion in q/k
        # is strictly smaller than |q^2/k^2|
        rng = random.Random(7)
        for p, q, k in [(3, 3, 2), (5, 5, 3), (7, 7, 4), (3, 9, 3)]:
            vq = 1 if q == p else 2
            vk = 1 if k % p == 0 else 0
            for _ in range(5):
                z = rng.randrange(p**40)
                a = from_rational(1 - q + p**(2 * vq + 1) * z, 1,
                                  prime=p, digits=64)
                x = principal_kth_root(a, k)
                expansion = (
                    1 - Fraction(q, k) - Fraction((k - 1) * q**2, 2 * k**2)
                    + Fraction((k - 1) * (k - 2) * q**3, 6 * k**3)
                )
                resid = x - from_rational(expansion, 1, prime=p, digits=64)
                assert resid.val_lower_bound > 2 * (vq - vk)

    def test_precondition(self):
        # |a - 1| = |k| is not enough
        a = from_rational(1 + 3, 1, prime=3, digits=20)
        with pytest.raises(ValueError):
            principal_kth_root(a, 3)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("exact", [True, False])
    def test_claims_only_certified_digits(self, p, exact):
        # a root at N digits agrees with the root at N + 60 digits on every
        # digit it claims, and it claims N - v(k) digits of an inexact a
        # and the working precision N of an exact one
        rng = random.Random(p)
        n = 64
        for k in (1, 2, 3, p, 2 * p, p * p, 20002):
            for _ in range(3):
                num = 1 + p**3 * rng.randrange(1, p**40)
                den = 1 if exact else 1 + p**3 * rng.randrange(1, p**10)
                a = from_rational(num, den, prime=p, digits=n)
                deep = from_rational(num, den, prime=p, digits=n + 60)
                assert a.is_exact == exact
                x = principal_kth_root(a, k)
                assert x.abs_prec == (n if exact else n - _vp(k, p))
                assert agrees(x, principal_kth_root(deep, k))

    def test_pk_case(self):
        a = from_rational(1 + 27 * 5, 1, prime=3, digits=50)
        x = principal_kth_root(a, 6)
        assert (x**6 - a).is_zero_like
        assert (x**6 - a).val_lower_bound >= 40


class TestRootsOfUnity:
    def test_k1(self):
        out = roots_of_unity(1, 7, 20)
        assert len(out) == 1 and (out[0] - 1).is_exact_zero

    def test_p5_k4(self):
        out = roots_of_unity(4, 5, 30)
        assert [x.unit % 5 for x in out] == [1, 2, 3, 4]
        mod = 5**30
        for x in out:
            assert pow(residue(x, 30), 4, mod) == 1
        # pairwise distinct mod p
        assert len({x.unit % 5 for x in out}) == 4

    def test_p3_k5(self):
        out = roots_of_unity(5, 3, 20)
        assert len(out) == 1 and (out[0] - 1).is_exact_zero

    def test_oracle_cross_check(self):
        # oracle: brute-force fourth roots of unity mod 5**6
        m = 6
        oracle = sorted(x for x in range(5**m)
                        if x % 5 and pow(x, 4, 5**m) == 1)
        got = sorted(residue(x, m) for x in roots_of_unity(4, 5, 30))
        assert got == oracle

    def test_residues_match_the_scan(self):
        # the residues c**((p-1)/kappa) are those of a scan of 1..p-1
        for p in [n for n in range(3, 200) if all(n % d for d in
                                                   range(2, n))]:
            for k in range(1, 40):
                scan = [c for c in range(1, p)
                        if pow(c, math.gcd(k, p - 1), p) == 1]
                assert [x.unit % p for x in roots_of_unity(k, p, 2)] == scan

    def test_composite_p_is_rejected(self):
        # c**(14/7) mod 15 takes 6 values, fewer than the 7 roots sought,
        # so a search over c = 2, 3, ... would never end
        with pytest.raises(ValueError, match="15 is not prime"):
            roots_of_unity(7, 15, 4)

    def test_large_prime_returns_at_once(self):
        # scanning every residue of p ~ 10^9 took minutes
        p = 1_000_000_007
        start = time.perf_counter()
        out = roots_of_unity(2, p, 16)
        assert time.perf_counter() - start < 0.5
        assert [x.unit % p for x in out] == [1, p - 1]


def per_residue_roots_of_unity(k: int, p: int, digits: int) -> list[Padic]:
    """The k-th roots of unity with each residue c, c**kappa = 1 mod p,
    lifted on its own by Newton on x**kappa - 1 at full precision."""
    kappa, mod, out = math.gcd(k, p - 1), p**digits, []
    for c in range(1, p):
        if pow(c, kappa, p) != 1:
            continue
        x = c
        while g := (pow(x, kappa, mod) - 1) % mod:
            x = (x - g * pow(kappa * pow(x, kappa - 1, mod), -1, mod)) % mod
        out.append(Padic.one(p, digits) if c == 1
                   else Padic(p, 0, x, digits, digits))
    return out


class TestRootsFromOneGenerator:
    # the reference takes 18 s for kappa = 10 006 at 64 digits, 0.6 s at 8
    @pytest.mark.parametrize("p,k,digits", [
        (10007, 10006, 8), (1009, 1008, 64), (1009, 36, 64), (101, 25, 64),
        (13, 4, 64), (7, 3, 64), (3, 2, 64), (5, 1, 64)])
    def test_roots_match_per_residue_lifts(self, p, k, digits):
        assert [_fields(x) for x in roots_of_unity(k, p, digits)] == \
            [_fields(x) for x in per_residue_roots_of_unity(k, p, digits)]

    def test_one_newton_lift(self, monkeypatch):
        # one lifted generator and kappa - 1 products, where a lift per
        # residue would make 1 007 lifts
        calls = []
        lift = hensel._unit_root
        monkeypatch.setattr(hensel, "_unit_root",
                            lambda *args: calls.append(args) or lift(*args))
        assert len(roots_of_unity(1008, 1009, 64)) == 1008
        assert len(calls) == 1


def reference_kth_root(a: Padic, k: int) -> Padic:
    """The principal root as one modular power on the unit group 1 + pZ_p
    and, per factor p of k, a Newton loop run at full precision."""
    p = a.prime
    vk, d = _vp(k, p), a - 1
    if d.is_exact_zero:
        return Padic.one(p, a.cap)
    if d.val <= vk:
        raise PrecisionError() if d.is_inexact_zero else ValueError()
    n = a.cap + vk if a.is_exact else int(a.abs_prec)
    mod = p**n
    root = pow(a.unit % mod, pow(k // p**vk, -1, mod // p), mod)
    for _ in range(vk):
        mod, out = p**n, p**(n - 1)
        y = 1
        while g := (pow(y, p, mod) - root) % mod // p:
            y = (y - g * pow(y, 1 - p, out)) % out
        root, n = y, n - 1
    return Padic.from_residue(root, n, p, a.cap)


def reference_roots_of_unity(k: int, p: int, digits: int) -> list[Padic]:
    """The k-th roots of unity as fixed points of the Frobenius x <- x**p."""
    mod, out = p**digits, []
    for c in range(1, p):
        if pow(c, math.gcd(k, p - 1), p) != 1:
            continue
        if c == 1:
            out.append(Padic.one(p, digits))
            continue
        x = c
        while (nxt := pow(x, p, mod)) != x:
            x = nxt
        out.append(Padic(p, 0, x, digits, digits))
    return out


def _fields(z: Padic):
    return (z.val, z.unit, z.prec, z.cap)


def _root_outcome(a: Padic, k: int, fn=principal_kth_root):
    """The root's fields, or the type of the error it raises."""
    try:
        return _fields(fn(a, k))
    except (ValueError, PrecisionError) as exc:
        return type(exc)


def _ks(p):
    return [1, 2, 3, p, 2 * p, p * p, p * (p - 1), 20002]


PRIMES = [3, 5, 7, 11, 29]


@st.composite
def root_inputs(draw, exact=None):
    """(a, k) with a = 1 + u*p**j, j from v(k) to v(k) + 3 (so |a - 1| is
    at most |k| or below it), at a working precision of 1 to 300 digits:
    exact (cut to the cap when u is large) or known to 1 to cap digits."""
    p = draw(st.sampled_from(PRIMES))
    k = draw(st.sampled_from(_ks(p)))
    vk = _vp(k, p)
    cap = draw(st.integers(1, 300))
    u = draw(st.integers(1, p**(cap + 30)))
    num = 1 + u * p**draw(st.integers(vk, vk + 3))
    if exact is None:
        exact = draw(st.booleans())
    if exact:
        return from_rational(num, 1, prime=p, digits=cap), k
    return Padic.from_residue(num, draw(st.integers(1, cap)), p, cap), k


class TestNewtonKernels:
    """The precision-doubling Newton lifts against the modular-power and
    Frobenius formulas they replace: identical in every field."""

    @given(root_inputs())
    @settings(max_examples=400, deadline=None)
    def test_root_matches_reference(self, case):
        a, k = case
        assert _root_outcome(a, k) == _root_outcome(a, k, reference_kth_root)

    @pytest.mark.parametrize("p", PRIMES)
    def test_root_matches_reference_at_the_edges(self, p):
        # n = 1, n - v(k) = 1 and n - v(k) = 2 for every k
        for k in _ks(p):
            vk = _vp(k, p)
            num = 1 + 2 * p**(vk + 1)
            # claimed digits of the root; None: |a - 1| < |k| is undecided
            cases = [(from_rational(num, 1, prime=p, digits=1), 1),
                     (Padic.from_residue(num, 1, p, 40), None if vk else 1),
                     (Padic.from_residue(num, vk + 1, p, 40), 1),
                     (Padic.from_residue(num, vk + 2, p, 40), 2)]
            for a, claimed in cases:
                got = _root_outcome(a, k)
                assert got == _root_outcome(a, k, reference_kth_root)
                if claimed is None:
                    assert got is PrecisionError
                else:
                    assert principal_kth_root(a, k).abs_prec == claimed

    @given(st.sampled_from(PRIMES), st.data())
    @settings(max_examples=60, deadline=None)
    def test_roots_of_unity_match_reference(self, p, data):
        k = data.draw(st.sampled_from(_ks(p)))
        digits = data.draw(st.integers(1, 300))
        assert [_fields(x) for x in roots_of_unity(k, p, digits)] == \
            [_fields(x) for x in reference_roots_of_unity(k, p, digits)]

    @given(root_inputs(exact=False), st.data())
    @settings(max_examples=300, deadline=None)
    def test_perturbing_hidden_digits_keeps_claimed_digits(self, case, data):
        # a and a2 agree on every digit a claims; the root of a2 must then
        # agree with the root of a on every digit that root claims
        a, k = case
        p, e = a.prime, data.draw(st.integers(1, 8))
        hidden = data.draw(st.integers(1, p**e - 1).filter(lambda h: h % p))
        a2 = Padic(p, a.val, a.unit + p**a.prec * hidden, a.prec + e,
                   a.cap + e)
        assert agrees(a, a2)
        try:
            x = principal_kth_root(a, k)
        except PrecisionError:
            return
        except ValueError:
            with pytest.raises(ValueError):
                principal_kth_root(a2, k)
            return
        x2 = principal_kth_root(a2, k)
        assert x2.abs_prec >= x.abs_prec
        assert agrees(x, x2)


def newton_precisions(n: int) -> list[int]:
    """The digit counts a lift from one correct digit passes through up to
    n: the ceilings ((n - 1) >> s) + 1 of n / 2**s, largest s first."""
    top = max(n - 1, 0)
    return [(top >> s) + 1 for s in range(top.bit_length() - 1, -1, -1)]


def nested_unit_root(r: int, m: int, y: int, n: int, p: int) -> int:
    """``hensel._unit_root`` with the derivative inverted afresh, to the
    full digits of the step, in every step."""
    for e in newton_precisions(n):
        mod = p**e
        t = pow(y, m - 1, mod)
        y = (y - (t * y - r) * pow(m * t, -1, mod)) % mod
    return y


def nested_pth_root(r: int, n: int, p: int) -> int:
    """``hensel._pth_root`` with y**(p-1) inverted afresh in every step."""
    y = 1 + (r - 1) // p
    for j in newton_precisions(n - 2):
        out = p**(j + 1)
        t = pow(y, p - 1, out * p)
        g = (t * y - r) % (out * p) // p
        y = (y - g * pow(t, -1, out)) % out
    return y % p**(n - 1)


LIFT_PRIMES = [3, 5, 7, 11, 101]


class TestCarriedInverse:
    """The lifts carry the inverse of Newton's derivative from step to
    step: the same integers as an exact inverse in every step, and no
    Newton inversion of their own."""

    @given(st.sampled_from(LIFT_PRIMES), st.data())
    @settings(max_examples=300, deadline=None)
    def test_unit_root_matches_nested_inverses(self, p, data):
        m = data.draw(st.integers(1, 12).filter(lambda m: m % p))
        n = data.draw(st.integers(1, 300))
        y = data.draw(st.integers(1, p - 1))
        r = (pow(y, m, p) + p * data.draw(st.integers(0, p**n))) % p**n
        assert hensel._unit_root(r, m, y, n, p) == \
            nested_unit_root(r, m, y, n, p)

    @given(st.sampled_from(LIFT_PRIMES), st.data())
    @settings(max_examples=300, deadline=None)
    def test_pth_root_matches_nested_inverses(self, p, data):
        n = data.draw(st.integers(2, 300))
        r = (1 + p * p * data.draw(st.integers(0, p**n))) % p**n
        assert hensel._pth_root(r, n, p) == nested_pth_root(r, n, p)

    def test_no_inverse_mod_call(self, monkeypatch):
        calls = _calls_to(monkeypatch, padic._inverse_mod)
        for k, a in [(2, 1 + 3 * 5**2), (10, 1 + 3 * 5**3)]:
            x = principal_kth_root(from_rational(a, 1, prime=5), k)
            assert (x**k - a).is_zero_like
        assert len(roots_of_unity(100, 101)) == 100
        assert calls == []


def reference_fixed_point_B1(params) -> Padic:
    """The B1 fixed point by the contraction F(x) = 1 - q + (theta-1)(x -
    r)/(r - 1), r = x**(1/k), iterated from 1 - q, each iterate cut to the
    working digits, until the gap F(x) - x cancels to the digits x
    carries; then F(x) claims x* to all of its digits."""
    p, digits, t1 = params.p, params.digits, params.theta - 1
    x = params.embed(1 - params.q)
    for _ in range(digits):
        r = principal_kth_root(x, params.k)
        x_star = 1 - params.q + t1 * (x - r) / (r - 1)
        gap = x_star - x
        if gap.is_exact_zero or (gap.is_inexact_zero
                                 and gap.val >= x.abs_prec):
            return x_star
        x = Padic.from_residue(x_star.unit, min(digits, x_star.abs_prec), p,
                               digits)
    raise PrecisionError("fixed-point iteration did not settle")


# the census grid's B1 sets
B1_SETS = [c for c in census.GRID
           if MapParams.make(*c).regime.tag is RegimeTag.B1]


class TestFixedPointB1:
    @pytest.mark.parametrize("digits", [8, 16, 32, 64, 128, 256])
    @pytest.mark.parametrize("config", B1_SETS,
                             ids=lambda c: "p{}-k{}-q{}-{}".format(*c))
    def test_at_least_as_tight_as_the_reference_loop(self, config, digits):
        # the periodic point of (1,) agrees with the contraction of its
        # own on every digit both claim, and claims at least as many
        params = MapParams.make(*config, digits)
        x_star = fixed_point_B1(params)
        ref = reference_fixed_point_B1(params)
        assert (x_star - ref).is_zero_like
        assert x_star.abs_prec >= ref.abs_prec

    def test_acceptance_parameters(self):
        params = MapParams.make(5, 3, 5, "1+p^3")
        x_star = fixed_point_B1(params)
        resid = eval_f(params, x_star) - x_star
        assert resid.is_zero_like and resid.val_lower_bound >= 40
        assert (x_star - 1).norm_exp() == params.v_q == 1
        assert (x_star - 1).is_zero_like is False

    @pytest.mark.parametrize("p,k,q,theta", [
        (5, 3, 5, "1+p^3"), (3, 3, 9, "1+p^5"), (5, 15, 25, "1+p^7"),
        (5, 1, 5, "1+p^3"),
    ])
    def test_claimed_digits_match_deep_reference(self, p, k, q, theta):
        params = MapParams.make(p, k, q, theta)
        x_star = fixed_point_B1(params)
        ref = fixed_point_B1(MapParams.make(p, k, q, theta, digits=300))
        assert agrees(x_star, ref)
        resid = eval_f(params, x_star) - x_star
        assert resid.is_zero_like and resid.val_lower_bound >= 40

    def test_regime_precondition(self):
        params = MapParams.make(5, 2, 5, "1+p^3")  # kappa = 2, regime B2
        with pytest.raises(ValueError):
            fixed_point_B1(params)

    def test_k1_degenerates_to_one_minus_q(self):
        # k = 1: the polynomial is x - 1 + q and x* = 1 - q on the nose
        params = MapParams.make(5, 1, 5, "1+p^3")
        x_star = fixed_point_B1(params)
        assert (x_star - (1 - 5)).is_zero_like
        assert (eval_f(params, x_star) - x_star).is_zero_like


class TestPowerLowerBound:
    def test_xk_stays_away_from_a(self):
        # for a in E_p with |a-1| >= |k|: |x^k - a| >= |a-1| for all x
        rng = random.Random(13)
        p, k = 3, 6  # v_p(k) = 1
        checked = 0
        for _ in range(150):
            # v(a-1) = 1 = v(k) puts a on the boundary |a-1| = |k|
            a = from_rational(1 + p * rng.randrange(1, p**30), 1,
                              prime=p, digits=40)
            if (a - 1).norm_exp() > 1:
                continue
            category = rng.choice(["unit", "ep", "big"])
            if category == "unit":
                n = rng.randrange(1, p**30)
                x = from_rational(n - n % p + rng.randrange(1, p), 1,
                                  prime=p, digits=40)
            elif category == "ep":
                x = from_rational(1 + p * rng.randrange(p**30), 1,
                                  prime=p, digits=40)
            else:
                x = from_rational(rng.randrange(1, p**20),
                                  p**rng.randrange(1, 5), prime=p, digits=40)
            assert (x**k - a).norm_exp() <= (a - 1).norm_exp()
            checked += 1
        assert checked > 50
