"""Core arithmetic: exact norms, precision tracking, balls, encodings."""

import math
import operator
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pottsbethe import padic
from pottsbethe.mapping import MapParams
from pottsbethe.padic import (
    INF,
    Ball,
    Padic,
    PrecisionError,
    _check_prime,
    _decimal,
    _exact_bits,
    _inverse_mod,
    from_rational,
)


def vp_int(n: int, p: int) -> int:
    """Independent valuation oracle by trial division."""
    assert n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def base_digits(n: int, p: int, count: int):
    out = []
    for _ in range(count):
        n, d = divmod(n, p)
        out.append(d)
    return tuple(out)


def is_prime_by_trial_division(n: int) -> bool:
    """Independent primality oracle."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def check_prime_accepts(n: int) -> bool:
    try:
        _check_prime(n)
    except ValueError:
        return False
    return True


class TestCheckPrime:
    def test_agrees_with_trial_division(self):
        for n in range(-3, 200_000):
            assert check_prime_accepts(n) == is_prime_by_trial_division(n), n

    @pytest.mark.parametrize("n", [3_215_031_751,  # strong psp to 2, 3, 5, 7
                                   # strong psp to every prime base to 23
                                   3_825_123_056_546_413_051])
    def test_strong_pseudoprimes_rejected(self, n):
        with pytest.raises(ValueError, match=f"{n} is not prime"):
            _check_prime(n)

    def test_large_primes_accepted_at_once(self):
        start = time.perf_counter()
        for p in (10**14 + 31, 10**18 + 3, 2**61 - 1):
            _check_prime(p)
        assert time.perf_counter() - start < 0.1

    def test_beyond_the_exact_bound_is_refused(self):
        # 2^89 - 1 is prime, but above the bound the test is not exact
        with pytest.raises(ValueError,
                           match="exact below 3317044064679887385961981"):
            _check_prime(2**89 - 1)


class TestFromRational:
    def test_identity(self):
        x = from_rational(1, 1, prime=3, digits=10)
        assert x.val == 0 and x.unit == 1

    def test_coprime_parts(self):
        # oracle: neither 4 nor 121 is divisible by 3
        assert vp_int(4, 3) == 0 and vp_int(121, 3) == 0
        x = from_rational(4, 121, prime=3, digits=10)
        assert x.val == 0

    def test_norm_of_p(self):
        x = from_rational(3, 1, prime=3, digits=10)
        assert x.val == 1 and x.norm_exp() == 1

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            from_rational(1, 0, prime=3)

    def test_unit_is_modular_inverse(self):
        x = from_rational(4, 121, prime=3, digits=10)
        assert (x.unit * 121 - 4) % 3**10 == 0

    def test_negative_is_exact(self):
        x = from_rational(-1, 1, prime=3)
        assert x.is_exact and x.unit == -1


class TestArithmetic:
    def test_one_plus_minus_one_is_exact_zero(self):
        one = from_rational(1, 1, prime=3)
        assert (one + from_rational(-1, 1, prime=3)).is_exact_zero

    def test_strong_triangle_equality_case(self):
        x = from_rational(3, 1, prime=3)
        y = from_rational(9, 1, prime=3)
        assert (x + y).norm_exp() == 1

    def test_square_of_four_digits(self):
        # oracle: plain integer multiplication, then base-3 digits
        assert base_digits(4 * 4, 3, 3) == (1, 2, 1)
        a = from_rational(4, 1, prime=3, digits=10)
        assert (a * a).digits(3) == (1, 2, 1)

    def test_cancellation_shrinks_precision(self):
        a = from_rational(1, 7, prime=5, digits=20)
        b = a + from_rational(5**6, 1, prime=5)
        d = b - a
        assert d.val == 6 and d.prec == 14  # 20 - 6 digits survive

    def test_full_cancellation_inexact_zero(self):
        a = from_rational(1, 7, prime=5, digits=12)
        d = a - a
        assert d.is_inexact_zero and d.val == 12
        with pytest.raises(PrecisionError):
            d.norm_exp()

    def test_division_by_exact_zero(self):
        one = from_rational(1, 1, prime=5)
        with pytest.raises(ZeroDivisionError):
            one / Padic.zero(5)

    def test_division_by_inexact_zero(self):
        a = from_rational(1, 7, prime=5, digits=12)
        with pytest.raises(PrecisionError):
            from_rational(1, 1, prime=5) / (a - a)

    def test_pow_int(self):
        x = from_rational(7, 1, prime=5, digits=30)
        assert (x.pow_int(3) - 343).is_zero_like
        assert (x.pow_int(-2) * x.pow_int(2) - 1).is_zero_like
        assert x.pow_int(0).unit == 1

    def test_mixed_int_operands(self):
        x = from_rational(1, 7, prime=5, digits=30)
        assert ((2 * x + 1) - (x + x + 1)).is_zero_like

    @pytest.mark.parametrize("p", [3, 5, 101])
    def test_fraction_operands_embed_as_from_rational(self, p, monkeypatch):
        # a Fraction operand is the from_rational value at the Padic's cap,
        # field for field, and its prime, checked when the Padic was made,
        # is not checked again
        def fields(z):
            return z.prime, z.val, z.unit, z.prec, z.cap

        xs = [from_rational(22, p, prime=p, digits=12),
              from_rational(22, 7 * p, prime=p, digits=12)]
        frs = [Fraction(3, 7), Fraction(-5, p**2), Fraction(4 * p**2, 11)]
        ops = [operator.add, operator.sub, operator.mul, operator.truediv]
        cases = [(op, x, fr) for op in ops for x in xs for fr in frs]
        want = []
        for op, x, fr in cases:
            y = from_rational(fr, prime=p, digits=x.cap)
            want += [fields(op(x, y)), fields(op(y, x))]
        checks = []
        monkeypatch.setattr(padic, "_check_prime", checks.append)
        got = []
        for op, x, fr in cases:
            got += [fields(op(x, fr)), fields(op(fr, x))]
        assert got == want
        assert checks == []


class TestNormExp:
    def test_examples(self):
        assert from_rational(9, 1, prime=3).norm_exp() == 2
        assert from_rational(1, 3, prime=3).norm_exp() == -1
        assert from_rational(10, 1, prime=3).norm_exp() == 0

    def test_exact_zero(self):
        assert Padic.zero(3).norm_exp() == INF


def in_ep(x: Padic) -> bool:
    """Membership in the exponential domain E_p: for p >= 3 exactly
    |x - 1|_p <= 1/p, the test ``MapParams.make`` applies to theta."""
    return (x - 1).val_at_least(1)


class TestEp:
    def test_one(self):
        assert in_ep(from_rational(1, 1, prime=5))

    def test_one_plus_p_and_two(self):
        assert in_ep(from_rational(6, 1, prime=5))
        assert not in_ep(from_rational(2, 1, prime=5))

    def test_derived_member(self):
        p = 5
        x = from_rational(1 + 2 * p + p**3, 1, prime=p)
        assert (x - 1).norm_exp() == 1
        assert in_ep(x)

    def test_undecidable(self):
        x = 1 + Padic.inexact_zero(5, 0)
        with pytest.raises(PrecisionError):
            in_ep(x)

    def test_p2_out_of_scope(self):
        # for p = 2, E_p is |x - 1|_2 < 1/2, not |x - 1|_p <= 1/p; the
        # parameters refuse p = 2 before any membership test
        with pytest.raises(ValueError, match="p >= 3"):
            MapParams.make(2, 1, 2, 1)
        assert in_ep(Padic.one(5).with_cap(8))


class TestCmpNorm:
    """Norm comparisons as exact exponents: |x| < |y| is
    norm_exp(x) > norm_exp(y), and undecidable comparisons raise."""

    def test_p_vs_one(self):
        assert from_rational(5, 1, prime=5).norm_exp() > \
            from_rational(1, 1, prime=5).norm_exp()

    def test_ep_difference_vs_unit(self):
        # x in E_p, x != 1, k a unit: |x - 1| < |k|
        x = from_rational(1 + 5, 1, prime=5)
        k = from_rational(2, 1, prime=5)
        assert (x - 1).val_at_least(k.norm_exp() + 1)

    def test_valuation_addition(self):
        # |q(theta-1)| < |theta-1| whenever |q| < 1
        q = from_rational(5, 1, prime=5)
        t1 = from_rational(125, 1, prime=5)
        assert (q * t1).norm_exp() > t1.norm_exp()

    def test_undecidable(self):
        # an inexact zero O(5^12) against the exact zero: |a - a| = 0 is
        # not decided, and neither is its exact norm
        a = from_rational(1, 7, prime=5, digits=12)
        with pytest.raises(PrecisionError):
            (a - a).val_at_least(13)
        with pytest.raises(PrecisionError):
            (a - a).norm_exp()


class TestBalls:
    def test_center_membership(self):
        c = from_rational(7, 1, prime=5)
        assert Ball(c, 3).contains(c)

    def test_equal_radius_distance_equal_radius_disjoint(self):
        # open balls: center distance exactly the radius separates them
        b1 = Ball(from_rational(1, 1, prime=5), 2)
        b2 = Ball(from_rational(1 + 25, 1, prime=5), 2)
        assert (b1.center - b2.center).norm_exp() == 2
        assert b1.is_disjoint(b2)

    def test_nested_same_center(self):
        c = from_rational(4, 1, prime=5)
        small = Ball(c, 6)
        big = Ball(c, 2)
        assert not small.is_disjoint(big)
        assert big.contains(small.center)

    def test_membership_undecidable(self):
        c = from_rational(1, 1, prime=5)
        x = 1 + Padic.inexact_zero(5, 2)
        with pytest.raises(PrecisionError):
            Ball(c, 4).contains(x)


nonzero_rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4
).filter(lambda f: f != 0)
rationals = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**4)
primes = st.sampled_from([3, 5, 7])


class TestInvariants:
    @given(primes, rationals, rationals)
    def test_strong_triangle(self, p, a, b):
        x = from_rational(a, 1, prime=p)
        y = from_rational(b, 1, prime=p)
        s = x + y
        lo = min(x.val_lower_bound, y.val_lower_bound)
        assert s.val_lower_bound >= lo
        if x.val_lower_bound != y.val_lower_bound:
            assert s.norm_exp() == lo

    @given(primes, nonzero_rationals, nonzero_rationals)
    def test_multiplicativity(self, p, a, b):
        x = from_rational(a, 1, prime=p)
        y = from_rational(b, 1, prime=p)
        assert (x * y).norm_exp() == x.norm_exp() + y.norm_exp()

    @given(primes, nonzero_rationals, nonzero_rationals)
    def test_division_round_trip(self, p, a, b):
        lhs = from_rational(a, 1, prime=p) / from_rational(b, 1, prime=p)
        rhs = from_rational(a.numerator * b.denominator,
                            a.denominator * b.numerator, prime=p)
        assert (lhs - rhs).is_zero_like

    @given(primes, st.integers(0, 10**12), st.integers(0, 10**12),
           st.integers(1, 50))
    @settings(max_examples=60)
    def test_power_difference_small_o(self, p, na, nb, k):
        # alpha^k - beta^k = k(alpha - beta) + o[k(alpha - beta)] on E_p
        alpha = from_rational(1 + p * na, 1, prime=p)
        beta = from_rational(1 + p * nb, 1, prime=p)
        if na == nb:
            return
        lead = k * (alpha - beta)
        assert (alpha**k - beta**k - lead).val_at_least(lead.norm_exp() + 1)

    @given(primes, st.integers(-10**80, 10**80), st.integers(0, 300),
           st.integers(1, 256))
    def test_int_operand_embeds_as_from_rational(self, p, m, e, cap):
        # the int fast path of arithmetic operands, including huge exact
        # units that the cap truncates, the exact zero and bools
        for n in (m * p**e, m > 0):
            x = from_rational(1, 1, prime=p, digits=cap)._coerce(n)
            y = from_rational(n, 1, prime=p, digits=cap)
            assert (x.prime, x.val, x.unit, x.prec, x.cap) == \
                (y.prime, y.val, y.unit, y.prec, y.cap)
            assert x.to_compact() == y.to_compact()

    @given(primes, st.integers(-10**80, 10**80), st.integers(1, 300))
    def test_newton_inverse_is_the_modular_inverse(self, p, a, n):
        a = a * p + 1
        assert _inverse_mod(a, p, n) == pow(a, -1, p**n)

    @given(primes, st.integers(0, 10**12), st.integers(0, 10**12))
    def test_ep_sum_is_unit(self, p, na, nb):
        a = from_rational(1 + p * na, 1, prime=p)
        b = from_rational(1 + p * nb, 1, prime=p)
        assert in_ep(a) and in_ep(b)
        assert (a + b).norm_exp() == 0


@st.composite
def padic_values(draw, p):
    """An exact value (zero included), an inexact unit times p^-4..p^6
    with 1 to 20 digits, or an inexact zero O(p^1)..O(p^8)."""
    cap = draw(st.sampled_from([8, 20, 64]))
    kind = draw(st.sampled_from(["exact", "inexact", "inexact_zero"]))
    if kind == "exact":
        return Padic._build(p, draw(st.integers(-4, 6)),
                            draw(st.integers(-p**10, p**10)), INF, cap)
    if kind == "inexact_zero":
        return Padic.inexact_zero(p, draw(st.integers(1, 8)), cap)
    prec = draw(st.integers(1, 20))
    unit = draw(st.integers(1, p**prec - 1).filter(lambda u: u % p))
    return Padic(p, draw(st.integers(-4, 6)), unit, prec, cap)


def _perturb(data, z):
    """z with e more digits that agree with every digit z claims."""
    if z.is_exact:
        return z
    p, e = z.prime, data.draw(st.integers(1, 8))
    hidden = data.draw(st.integers(0, p**e - 1))
    if z.unit == 0:
        return Padic.from_residue(hidden * p**z.val, z.val + e, p, z.cap + e)
    return Padic(p, z.val, z.unit + p**z.prec * hidden, z.prec + e,
                 z.cap + e)


def _agree(z, w, a):
    """z and w are congruent modulo p**a."""
    p = z.prime
    m = min(z.val, w.val, a)
    return (z.unit * p ** (z.val - m) - w.unit * p ** (w.val - m)) \
        % p ** (a - m) == 0


def _assert_keeps_claimed_digits(fn, args, args2):
    """fn on inputs that agree on every claimed digit agrees on every
    digit fn(*args) claims."""
    try:
        r = fn(*args)
    except (PrecisionError, ZeroDivisionError):
        return
    r2 = fn(*args2)
    if r.is_exact:
        assert (r2.val, r2.unit, r2.prec) == (r.val, r.unit, r.prec)
        return
    assert r2.abs_prec >= r.abs_prec
    assert _agree(r, r2, r.abs_prec)


class TestPrecisionSoundness:
    """Perturbing an input below its claimed digits leaves every digit
    of a product, quotient or power that the result claims."""

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_mul_and_div(self, data):
        p = data.draw(primes)
        x, y = data.draw(padic_values(p)), data.draw(padic_values(p))
        x2, y2 = _perturb(data, x), _perturb(data, y)
        for op in (operator.mul, operator.truediv):
            _assert_keeps_claimed_digits(op, (x, y), (x2, y2))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_pow_int(self, data):
        p = data.draw(primes)
        x = data.draw(padic_values(p))
        n = data.draw(st.integers(-6, 12))
        _assert_keeps_claimed_digits(Padic.pow_int, (x, n),
                                     (_perturb(data, x), n))


def pow_by_squaring(x: Padic, n: int) -> Padic:
    """x**n by repeated squaring of Padic products, as ``Padic.pow_int``
    computed it before it became one modular power: the reference."""
    p, cap = x.prime, x.cap
    if n == 0:
        return Padic.one(p, cap)
    if x.is_exact_zero:
        if n < 0:
            raise ZeroDivisionError("negative power of exact zero")
        return x
    if x.unit == 0:
        if n < 0:
            raise PrecisionError("negative power of an inexact zero")
        return Padic.inexact_zero(p, n * x.val, cap)
    base = x if n > 0 else Padic.one(p, cap) / x
    n = abs(n)
    while not n & 1:
        base = base * base
        n >>= 1
    out = base
    n >>= 1
    while n:
        base = base * base
        if n & 1:
            out = out * base
        n >>= 1
    return out


@st.composite
def pow_cases(draw):
    """(x, n): x exact (units near the truncation bound of ``_exact_bits``
    at n included), inexact, an exact or an inexact zero, under a cap of
    1 to 256 digits; n of either sign up to 10**5."""
    p = draw(primes)
    cap = draw(st.integers(1, 256))
    val = draw(st.integers(-4, 6))
    n = draw(st.one_of(st.integers(-12, 12), st.integers(-10**5, 10**5)))
    kind = draw(st.sampled_from(
        ["exact", "near_bound", "inexact", "exact_zero", "inexact_zero"]))
    if kind == "exact":
        unit = draw(st.one_of(st.sampled_from([1, -1]),
                              st.integers(-p**8, p**8),
                              st.integers(-p**(cap + 30), p**(cap + 30))))
        return Padic._build(p, val, unit, INF, cap), n
    if kind == "near_bound":  # bits(u)*n and bits(u**n) around the bound
        bits = draw(st.integers(2, 64))
        unit = draw(st.integers(2**(bits - 1), 2**bits - 1))
        n = int(_exact_bits(p, cap) / bits) + draw(st.integers(-2, 2))
        n = max(n, 1) * draw(st.sampled_from([1, -1]))
        return Padic._build(p, val, unit * draw(st.sampled_from([1, -1])),
                            INF, cap), n
    if kind == "inexact":
        prec = draw(st.integers(1, cap + 8))
        unit = draw(st.integers(1, p**prec - 1).filter(lambda u: u % p))
        return Padic(p, val, unit, prec, cap), n
    if kind == "exact_zero":
        return Padic.zero(p, cap), n
    return Padic.inexact_zero(p, draw(st.integers(1, 8)), cap), n


def outcome(fn, *args):
    """fn's result as its fields, or the type of what it raised."""
    try:
        z = fn(*args)
    except ArithmeticError as exc:  # ZeroDivisionError and PrecisionError
        return type(exc)
    return z.prime, z.val, z.unit, z.prec, z.cap


class TestPowInt:
    @given(pow_cases())
    @settings(max_examples=600, deadline=None)
    def test_matches_repeated_squaring(self, case):
        x, n = case
        assert outcome(Padic.pow_int, x, n) == outcome(pow_by_squaring, x, n)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_exact_powers_stay_exact_up_to_the_bound(self, p):
        # 2**n is exact while its n + 1 bits fit the bound, and cut to the
        # cap past it
        bound = _exact_bits(p, 20)
        for n in range(int(bound) - 3, int(bound) + 3):
            z = Padic._build(p, 0, 2, INF, 20).pow_int(n)
            assert z.is_exact == (n + 1 <= bound)
            assert (z.unit - 2**n) % p**20 == 0


def decode(text: str, p: int) -> tuple:
    """(val, unit, prec) read back from either encoding of a value with a
    nonzero unit, by an independent reader of the documented grammar."""
    if ":" in text:
        v, u, n = text.split(":")
        return int(v), int(u), INF if n == "inf" else int(n)
    m = re.fullmatch(rf"{p}\^(-?\d+) \* (-?)\(([^()]*)\)"
                     rf"(?: \+ O\({p}\^(-?\d+)\))?", text)
    val, sign, body, abs_prec = m.groups()
    digits = [int(term.split("*")[0]) for term in body.split(" + ")]
    unit = sum(d * p**j for j, d in enumerate(digits))
    if abs_prec is None:
        return int(val), -unit if sign else unit, INF
    assert int(abs_prec) - int(val) == len(digits)
    return int(val), unit, len(digits)


class TestEncodings:
    @pytest.mark.parametrize("num,den", [
        (1, 1), (-1, 1), (4, 121), (-383, 2), (0, 1), (75, 4), (7, 25),
    ])
    def test_round_trip_both_forms(self, num, den):
        x = from_rational(num, den, prime=5, digits=16)
        if x.is_exact_zero:
            assert (x.to_string(), x.to_compact()) == ("0", "inf:0:inf")
            return
        for text in (x.to_string(), x.to_compact()):
            assert decode(text, 5) == (x.val, x.unit, x.prec)

    def test_inexact_zero_round_trip(self):
        z = Padic.inexact_zero(7, 9)
        assert z.to_string() == "O(7^9)"
        assert z.to_compact() == "9:0:0"

    def test_string_form_shape(self):
        x = from_rational(7, 1, prime=5)
        assert x.to_string() == "5^0 * (2 + 1*5)"
        y = from_rational(1, 2, prime=5, digits=3)
        assert y.to_string() == "5^0 * (3 + 2*5 + 2*5^2) + O(5^3)"

    @pytest.mark.parametrize("x", [
        0, 7, -7, 10**617 - 1, 10**617, -(3**20000), 2**30000 + 1,
        Fraction(-(7**9000), 5**7000), Fraction(1, 3**9000)],
        ids=["0", "7", "-7", "10^617-1", "10^617", "-3^20000", "2^30000+1",
             "-7^9000/5^7000", "1/3^9000"])
    def test_decimal_is_str_at_any_length(self, x):
        # str() itself needs CPython's digit limit lifted past 4 300
        # digits; _decimal does not
        text = _decimal(x)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert text == str(x)
        finally:
            sys.set_int_max_str_digits(limit)


def test_mixed_primes_rejected():
    with pytest.raises(ValueError):
        from_rational(1, 1, prime=3) + from_rational(1, 1, prime=5)
