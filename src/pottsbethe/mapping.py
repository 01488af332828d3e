"""The Potts-Bethe rational map over Q_p and its Markov partition.

The map is x -> ((theta*x + q - 1) / (x + theta + q - 2))**k on
Q_p minus the pole 2 - q - theta, with p | q and theta in the exponential
domain.  This module evaluates the map and its Moebius factor, classifies
the parameter regime by exact norm comparisons, builds the invariant ball
cover with its scaling exponents, and provides the inverse branches.
"""

from __future__ import annotations

import functools
import math
import re
from enum import Enum
from fractions import Fraction

from . import hensel
from .padic import (
    DEFAULT_DIGITS,
    INF,
    Ball,
    Padic,
    PrecisionError,
    VerificationError,
    _Frozen,
    _check_prime,
    _decimal,
    _exact_bits,
    _from_fraction,
    _inverse_mod,
    _vp,
)


class PoleHit(Exception):
    """The map was evaluated at its pole."""

    exact = True  # the benchmark's tracer counts hits by this flag


class NearPoleHit(PoleHit, PrecisionError):
    """A point indistinguishable from the pole at the working precision: a
    shortage of digits, retried as any other, and never a pole verdict."""

    exact = False


class RegimeTag(str, Enum):
    A = "A"
    B1 = "B1"
    B2 = "B2"
    UNCLASSIFIED = "unclassified"


class Regime(_Frozen):
    __slots__ = ("tag", "detail")

    @property
    def expanding(self) -> bool:
        """Regime B (B1 or B2), where the cover and the pole tree exist."""
        return self.tag in (RegimeTag.B1, RegimeTag.B2)


_THETA_POWER_RE = re.compile(r"^1\+(?:(-?\d+)\*)?p\^(\d+)$")
_THETA_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(-?\d+))?$")


def parse_theta(text: str, p: int) -> Fraction:
    """theta grammar: a rational ``a/b`` (or a plain integer) or the
    shorthand ``1+c*p^m`` where ``p`` is the literal letter p."""
    text = text.replace(" ", "")
    m = _THETA_POWER_RE.match(text)
    if m:
        c = int(m.group(1)) if m.group(1) else 1
        exp = int(m.group(2))
        check_budget(exp, f"theta exponent m={exp}")  # before p**m
        return Fraction(1 + c * p ** exp)
    m = _THETA_RATIONAL_RE.match(text)
    if not m:
        raise ValueError(
            f"cannot parse theta {text!r}: expected 'a/b' or '1+c*p^m'")
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"cannot parse theta {text!r}: zero denominator")
    return Fraction(int(m.group(1)), den)


class MapParams(_Frozen):
    """Validated parameters (p, k, q, theta) with derived quantities;
    ``make`` takes theta as a rational or in the ``parse_theta`` grammar.

    Immutable after construction; all evaluation functions are pure, so a
    single instance can be shared freely across a parameter sweep.  Two
    instances are equal, and hash alike, when they name the same
    configuration (p, k, q, theta, digits), the inputs every other field
    is derived from.
    """

    # D = (theta-1)(q+theta-1), so that pole*theta + q - 1 = -D; tau_one
    # = v(k)+v(theta-1)-v(q+theta-1) is B_1's rate, INF like v_theta1 at
    # theta = 1; q_bits the bits of the larger of |q-1| and |q-2|; the
    # cached properties below keep their values in __dict__
    __slots__ = ("p", "k", "q", "theta", "digits", "theta_frac", "pole",
                 "D", "v_k", "v_q", "v_theta1", "v_qtheta1", "tau_one",
                 "kappa", "q_bits", "__dict__")

    @classmethod
    def make(cls, p: int, k: int, q: int, theta,
             digits: int = DEFAULT_DIGITS) -> "MapParams":
        if p < 3:
            raise ValueError("p >= 3 required")
        _check_prime(p)
        if not isinstance(k, int) or k < 1:
            raise ValueError("k must be a positive integer")
        if not isinstance(q, int) or q == 0 or q % p != 0:
            raise ValueError(f"q must be a nonzero integer divisible by p={p}")
        if digits < 1:
            raise ValueError("digits must be >= 1")
        check_budget(digits, f"{digits} digits")  # before any power of p
        theta_frac = (parse_theta(theta, p) if isinstance(theta, str)
                      else Fraction(theta))
        theta_p = _from_fraction(theta_frac, p, digits)
        t1 = theta_p - 1
        if not t1.val_at_least(1):
            raise ValueError("theta must lie in the exponential domain "
                             "(|theta - 1|_p < 1)")
        v_theta1 = INF if t1.is_exact_zero else t1.valuation
        qt1 = t1 + q
        if qt1.is_exact_zero:
            raise ValueError("q + theta - 1 = 0 puts the pole at the fixed "
                             "point 1; the map is degenerate")
        v_k, v_qtheta1 = _vp(k, p), qt1.valuation
        pole = 2 - q - theta_p
        return cls(p, k, q, theta_p, digits, theta_frac, pole, t1 * qt1,
                   v_k, _vp(q, p), v_theta1, v_qtheta1,
                   v_k + v_theta1 - v_qtheta1, math.gcd(k, p - 1),
                   max(abs(q - 1), abs(q - 2)).bit_length())

    def at_digits(self, digits: int) -> "MapParams":
        """The same parameters rebuilt at a different working precision."""
        return MapParams.make(self.p, self.k, self.q, self.theta_frac, digits)

    @functools.cached_property
    def _key(self) -> tuple:
        return (self.p, self.k, self.q, self.theta_key, self.digits)

    def __eq__(self, other):
        if not isinstance(other, MapParams):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def embed(self, x) -> Padic:
        """x as a Padic at these parameters' digits: a Padic of this prime
        as it is, an int or a Fraction as it is, anything else through
        ``Fraction(x)``.  ``make`` has checked the prime and the digits."""
        if isinstance(x, Padic):
            if x.prime != self.p:
                raise ValueError("value carries a different prime")
            return x
        if not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        return _from_fraction(x, self.p, self.digits)

    @functools.cached_property
    def regime(self) -> Regime:
        """``classify_regime(self)``, decided once per instance."""
        return classify_regime(self)

    @functools.cached_property
    def theta_key(self) -> str:
        """theta as reports and sample seeds name it."""
        return _decimal(self.theta_frac)

    def config_dict(self) -> dict:
        return {
            "p": self.p, "k": self.k, "q": self.q,
            "theta": self.theta_key,
            "digits": self.digits,
        }


def eval_g(params: MapParams, x) -> Padic:
    """g(x) = (theta*x + q - 1) / (x + theta + q - 2), the one judge of a
    pole hit: PoleHit at an exact zero denominator or at ``params.pole``,
    the exact pole however few digits theta gives it; else NearPoleHit,
    a shortage, when the denominator cancels at the working precision."""
    x = params.embed(x)
    den = x + params.theta + (params.q - 2)
    if den.is_exact_zero or x is params.pole:
        raise PoleHit("x is exactly the pole 2 - q - theta")
    if den.is_zero_like:
        raise NearPoleHit(
            f"x is indistinguishable from the pole at O(p^{den.val})")
    num = params.theta * x + (params.q - 1)
    return num / den


def eval_f(params: MapParams, x) -> Padic:
    """One application of the full map, g(x)**k, and the one judge of its
    path.  A nonzero x, inexact or over an exact theta, is mapped on
    residues by ``_eval_f_residues`` while q stays exact under the cap,
    with the value and precision ``eval_g(params, x).pow_int(k)`` gives;
    zeros, pole hits and the kernel's fallback cases take that composed
    path, so every PoleHit is raised by eval_g."""
    x = params.embed(x)
    cap = min(x.cap, params.theta.cap)
    if (x.unit != 0 and (x.prec != INF or params.theta.prec == INF)
            and params.q_bits <= _exact_bits(params.p, cap)):
        fx = _eval_f_residues(params, x)
        if fx is not None:
            return fx
    return eval_g(params, x).pow_int(params.k)


def _eval_f_residues(params: MapParams, x: Padic) -> Padic | None:
    """f(x) for a nonzero x, on integers.

    A sum of Padic values is its residue modulo p^a, a the least absolute
    precision of its terms; a product keeps the least relative precision.
    So D = x + theta + (q-2) is known modulo p^min(A_x, A_theta) and
    N = theta*x + (q-1) modulo p^(v(x) + min(prec x, prec theta)).  Then
    f = p^(k(v(N)-v(D))) * (u_N / u_D)^k modulo p^P, P the least relative
    precision of N and D: one modular inverse and one modular power.
    theta is a unit, since it lies in the exponential domain.

    An exact x over an exact theta gives exact D and N; their quotient
    leaves exact arithmetic at the cap, so P is the cap.  That holds
    unless u_D divides u_N (the quotient stays exact) or an intermediate
    unit would pass the truncation bound of ``Padic._build``; then, as
    when D cancels (a pole hit) or N is an exact zero, the result is None
    and eval_f takes the composed path.  Only for the x that eval_f
    sends here: nonzero, inexact or over an exact theta, with q exact
    under the cap.
    """
    p, k, q, theta = params.p, params.k, params.q, params.theta
    cap = min(x.cap, theta.cap)
    v, px, pt = x.val, x.prec, theta.prec
    m = min(v, 0)
    ux = x.unit * p ** (v - m)
    shift = p ** -m
    if px == INF:
        # D = p^m * r_d, N = p^m * r_n, and the composed path's other
        # exact units: x + theta = p^m * s and theta * x = p^v * tx
        tx = theta.unit * x.unit
        r_n = theta.unit * ux + (q - 1) * shift
        s = ux + theta.unit * shift
        r_d = s + (q - 2) * shift
        if (r_d == 0 or r_n == 0 or max(abs(s), abs(r_d), abs(tx), abs(r_n))
                .bit_length() > _exact_bits(p, cap)):
            return None
        c_d = _vp(r_d, p) if r_d % p == 0 else 0
        c_n = _vp(r_n, p) if r_n % p == 0 else 0
        u_d, u_n = r_d // p**c_d, r_n // p**c_n
        if u_n % u_d == 0:
            return None
        unit = pow(u_n * _inverse_mod(u_d, p, cap), k, p**cap)
        return Padic(p, k * (c_n - c_d), unit, cap, cap)
    a_d = v + px if pt == INF else min(v + px, pt)
    a_n = v + (px if pt == INF else min(px, pt))
    r_d = (ux + (theta.unit + q - 2) * shift) % p ** (a_d - m)
    if r_d == 0:
        return None
    c = _vp(r_d, p) if r_d % p == 0 else 0
    v_d, u_d, prec_d = m + c, r_d // p**c, a_d - m - c
    r_n = (theta.unit * ux + (q - 1) * shift) % p ** (a_n - m)
    if r_n == 0:
        return Padic.inexact_zero(p, k * (a_n - v_d), cap)
    c = _vp(r_n, p) if r_n % p == 0 else 0
    prec = min(a_n - m - c, prec_d)
    mod = p**prec
    unit = pow(r_n // p**c * _inverse_mod(u_d, p, prec), k, mod)
    return Padic(p, k * (m + c - v_d), unit, prec, cap)


def derivative_at(params: MapParams, x: Padic) -> Padic:
    """f'(x) = k * g(x)**(k-1) * D / (x+q+theta-2)**2."""
    den = x + params.theta + (params.q - 2)
    return (params.k * eval_g(params, x).pow_int(params.k - 1) * params.D
            / (den * den))


def multiplier(params: MapParams, x_fix) -> Padic:
    """Derivative of the map at a fixed point; ValueError when x_fix is not
    fixed at the working precision."""
    x = params.embed(x_fix)
    drift = eval_f(params, x) - x
    if not drift.is_zero_like:
        raise ValueError(
            f"x is not fixed at the working precision: |f(x)-x| = "
            f"p^-{drift.val_lower_bound}"
        )
    return derivative_at(params, x)


def classify_fixed(lmbda: Padic) -> str:
    """attractive / indifferent / repelling by the exact norm of the
    multiplier.  A vanishing multiplier (theta = 1 makes the map constant)
    is flagged instead of classified."""
    if lmbda.is_exact_zero:
        raise ValueError(
            "multiplier is exactly zero (theta = 1 collapses the map to a "
            "constant); the fixed point is not classified"
        )
    if lmbda.is_zero_like:
        raise PrecisionError(
            "multiplier cancelled to the working precision; cannot separate "
            "attractive from degenerate"
        )
    v = lmbda.valuation
    if v > 0:
        return "attractive"
    if v == 0:
        return "indifferent"
    return "repelling"


def classify_regime(params: MapParams) -> Regime:
    """Exact norm comparisons decide the dynamical regime.

    A:  |k|_p <= |q+theta-1|_p  (single attracting fixed point, empty
        pole-preimage set);
    B:  |k|_p > |q+theta-1|_p and |theta-1|_p < |q^2|_p, split into B1
        (kappa = 1, one repelling fixed point) and B2 (kappa >= 2, full
        shift on kappa symbols).

    Parameters with |k|_p > |q+theta-1|_p but |theta-1|_p >= |q^2|_p fall
    in a gap the theory does not cover and are reported as unclassified,
    never guessed.
    """
    if params.v_k >= params.v_qtheta1:
        return Regime(RegimeTag.A, f"v(k)={params.v_k} >= "
                      f"v(q+theta-1)={params.v_qtheta1}")
    if params.v_theta1 == INF:
        raise ValueError(
            "theta = 1 makes the map constant; the expanding regime needs "
            "theta != 1"
        )
    if params.v_theta1 >= 2 * params.v_q + 1:
        tag = RegimeTag.B1 if params.kappa == 1 else RegimeTag.B2
        return Regime(tag, f"v(theta-1)={params.v_theta1} >= 2*v(q)+1="
                      f"{2 * params.v_q + 1}, kappa={params.kappa}")
    return Regime(
        RegimeTag.UNCLASSIFIED,
        f"|k|_p > |q+theta-1|_p holds but |theta-1|_p >= |q^2|_p "
        f"(v(theta-1)={params.v_theta1} < {2 * params.v_q + 1}); outside "
        "the proven regimes",
    )


class PartitionBall(_Frozen):
    __slots__ = ("symbol", "xi", "center", "ball", "tau")


class Partition(_Frozen):
    """The invariant cover: kappa disjoint balls of radius |q(theta-1)|_p,
    one per k-th root of unity, each carrying its scaling exponent tau;
    the ball at the root 1 scales by ``MapParams.tau_one``.

    Balls of one radius p^-s are residue classes modulo p^(s+1), so
    ``_check_cover`` and ``locate`` find the centers a center or a point
    can share a ball with in ``_group(level)``: the centers known to
    ``level`` or more digits, grouped by ``_residue``, once per level."""

    __slots__ = ("radius_exp", "balls", "__dict__")  # _least_prec, _groups

    @functools.cached_property
    def _least_prec(self) -> int | float:
        return min([INF] + [b.center.abs_prec for b in self.balls])

    def _group(self, level: int) -> dict[tuple[int, int] | int, list[int]]:
        cache = self.__dict__.setdefault("_groups", {})
        if level not in cache:  # published whole, so threads may share it
            groups = {}
            for i, b in enumerate(self.balls):
                if b.center.abs_prec >= level:
                    groups.setdefault(_residue(b.center, level), []).append(i)
            cache[level] = groups
        return cache[level]

    @property
    def taus(self) -> tuple[int, ...]:
        return tuple(b.tau for b in self.balls)

    def tau_sum(self, word) -> int:
        """The sum of the scaling exponents tau over the symbols of
        ``word``: f^n scales distances on the cylinder of a length-n word
        by exactly p^tau_sum."""
        return sum(self.balls[s - 1].tau for s in word)

    def center_exp(self, params: MapParams, a: int, b: int) -> int:
        """kappa(a, b) = v(c_a - c_b) for symbols a != b: v(k)+v(theta-1)
        when a or b is 1, the root 1's symbol, else v(q)+v(theta-1).

        By ``build_partition``'s centers, xi_a the root of symbol a: off
        the root, c_a - c_b = q(theta-1)(xi_a-xi_b)/((1-xi_a)(1-xi_b)),
        and the roots are distinct modulo p, so the last three factors are
        units.  At the root, c_1 - c_b = (theta-1)(k - (k-1)q/2 +
        (k-1)(k-2)q^2/(6k) - q/(1-xi_b)); in regime B, v(k) < v(q), and
        every term of the bracket but k has valuation at least v(q) or
        2v(q)-v(k)-1 (v(6) <= 1), both above v(k).  julia-verify checks
        the law on one leaf of ball a against one of ball b."""
        return params.v_k + params.v_theta1 if 1 in (a, b) else self.radius_exp

    def locate(self, x: Padic) -> int | None:
        """Symbol of the ball containing x, or None when x is provably
        outside the cover; PrecisionError when undecidable.

        ``Ball.contains`` runs in symbol order on the balls whose centers
        agree with x modulo p^L, L = min(s+1, abs_prec(x), every center's
        abs_prec).  At any other ball x - c is known, and nonzero, modulo
        p^L, so ``contains`` says False and raises nothing: the results
        and errors are those of a scan of every ball."""
        if self.balls and x.prime != self.balls[0].center.prime:
            raise ValueError("mixed primes")  # as Ball.contains raises it
        level = min(self.radius_exp + 1, x.abs_prec, self._least_prec)
        for i in self._group(level).get(_residue(x, level), ()):
            if self.balls[i].ball.contains(x):
                return self.balls[i].symbol
        return None

    def to_json_dict(self, params: MapParams) -> dict:
        return {"p": params.p, "k": params.k, "q": params.q,
                "theta": params.theta_key, "regime": params.regime.tag.value,
                "kappa": params.kappa, "radius_exp": self.radius_exp,
                "balls": [{"symbol": b.symbol, "xi": b.xi.to_compact(),
                           "center": b.center.to_compact(), "tau": b.tau}
                          for b in self.balls]}


def _residue(x: Padic, level: int) -> tuple[int, int] | int:
    """The class of x modulo p^level, x known to ``level`` digits: 0 when
    v(x) >= level, else v(x) and the unit modulo p^(level - v(x))."""
    if x.unit == 0 or x.val >= level:
        return 0
    return x.val, x.unit % x.prime ** (level - x.val)


PARTITION_CACHE_SIZE = 64  # configurations whose partition stays cached
# longest kappa**depth loop, largest m in theta 1+c*p^m, most digits of
# MapParams (a report's digits times the last retry rung: its _Ladder)
WORK_BUDGET = 10**5


def check_budget(count: int, loop: str) -> None:
    """Refuse ``loop``, which names a loop and its length ``count``, when
    that exceeds WORK_BUDGET: checked before its command does any work."""
    if count > WORK_BUDGET:
        raise ValueError(f"{loop}; budget is {WORK_BUDGET}")


@functools.lru_cache(maxsize=PARTITION_CACHE_SIZE)
def build_partition(params: MapParams) -> Partition:
    """Centers and scaling exponents of the invariant cover (regime B).

    Symbol 1's ball, at the root of unity 1 (``roots_of_unity`` lists it
    first), is centered at 1 - q + (k-1)(1 - q/2 + (k-2)q^2/(6k))(theta-1)
    and scales distances by |q|/|k(theta-1)|; the ball at xi != 1 is
    centered at pole + q(theta-1)/(1-xi) and scales by |k|/|q(theta-1)|.
    Their distances follow ``Partition.center_exp``.  Disjointness, on
    the cover's residue groups, positivity of every exponent, and that
    the cover misses the pole and B_1 are asserted, not assumed.  A cover
    of more than WORK_BUDGET balls is refused before any root is taken.
    Cached: every MapParams of one configuration shares one Partition,
    for the PARTITION_CACHE_SIZE configurations used last.
    """
    regime = params.regime
    if not regime.expanding:
        raise ValueError(
            f"partition exists in regime B only; these parameters are "
            f"{regime.tag.value} ({regime.detail})")
    check_budget(params.kappa, f"a cover of kappa={params.kappa} balls")
    p, k, q = params.p, params.k, params.q
    t1 = params.theta - 1
    s = params.v_q + int(params.v_theta1)
    tau_other = s - params.v_k
    roots = hensel.roots_of_unity(k, p, params.digits)
    balls = []
    for i, xi in enumerate(roots, start=1):
        if i == 1:
            coeff = Fraction(k - 1) * (
                1 - Fraction(q, 2) + Fraction((k - 2) * q * q, 6 * k))
            center = params.embed(1 - q) + params.embed(coeff) * t1
            tau = params.tau_one
        else:
            center = params.pole + q * t1 / (1 - xi)
            tau = tau_other
        if tau < 1:
            raise VerificationError(
                f"scaling exponent tau={tau} is not positive; the cover "
                "would not be expanding")
        balls.append(PartitionBall(i, xi, center, Ball(center, s), tau))
    part = Partition(s, tuple(balls))
    _check_cover(part, params.pole, attracting_ball(params))
    return part


def _check_cover(part: Partition, pole: Padic, ball_1: Ball) -> None:
    """Raise the first failure of these checks, in this order, for each
    ball i of a cover: i is disjoint from every later ball, misses the
    pole and is disjoint from B_1.  A check that the precision cannot
    decide raises its PrecisionError in its turn.

    Two balls of radius exponent s pass ``is_disjoint`` unless their
    centers agree modulo p^m, m = min(s+1, their absolute precisions): at
    m = s+1 the balls meet, below it ``is_disjoint`` cannot decide.  So at
    each level m = min(s+1, abs_prec) of a center, a residue group fails
    on every pair with a member known to exactly m, the least being its
    first member with its second or with its first known to exactly m;
    only the least failing pair of all is compared."""
    known = [min(part.radius_exp + 1, b.center.abs_prec) for b in part.balls]
    pairs = []
    for m in set(known):
        for group in part._group(m).values():
            exact = [i for i in group if known[i] == m]
            if len(group) > 1 and exact:
                pairs.append((group[0], group[1] if known[group[0]] == m
                              else exact[0]))
    first, partner = min(pairs, default=(-1, -1))  # -1: none fails
    for i, b in enumerate(part.balls):
        if i == first and not b.ball.is_disjoint(part.balls[partner].ball):
            raise VerificationError(  # or is_disjoint's PrecisionError
                f"partition balls {i + 1} and {partner + 1} are not disjoint")
        if b.ball.contains(pole):
            raise VerificationError("the pole fell inside the cover")
        if not b.ball.is_disjoint(ball_1):
            raise VerificationError(
                f"partition ball {i + 1} meets the attracting ball B_1")


def attracting_ball(params: MapParams) -> Ball:
    """B_1 = {x : v(x-1) >= v(q+theta-1)+1}, the attracting ball of the
    fixed point 1 when tau_one >= 1; ``contains`` decides membership.

    For x = 1+h in B_1, g(x) - 1 = (theta-1)h/(q+theta-1+h) exactly and
    v(q+theta-1+h) = v(q+theta-1), so v(g(x)-1) >= 2; for odd p,
    v((1+u)^k - 1) = v(k)+v(u) when v(u) >= 1.  Hence
    v(f(x)-1) = v(x-1) + tau_one: B_1 maps into itself and each step
    brings a point closer to 1 by exactly p^-tau_one.  D = (q+theta-1)+h
    and N = (q+theta-1)+theta*h both have valuation v(q+theta-1), so on
    an inexact x of B_1 over an exact theta eval_f loses exactly that
    many digits per step, on residues or on the composed path.  In
    regime B, v(q+theta-1) = v(q) and every cover center lies at distance
    |q|_p from 1, so B_1 misses the cover, which ``build_partition``
    asserts.
    """
    return Ball(Padic.one(params.p, params.digits), params.v_qtheta1)


def check_symbols(params: MapParams, word) -> None:
    """ValueError unless each symbol of ``word`` names a ball: 1..kappa."""
    for s in word:
        if not 1 <= s <= params.kappa:
            raise ValueError(f"symbol {s} out of range 1..{params.kappa}")


def branch_root(params: MapParams, y) -> Padic:
    """y**(1/k), the principal k-th root every inverse branch at y takes,
    ``hensel.principal_kth_root(y, k)``: defined where |y - 1|_p < |k|_p,
    the domain of the inverse branches, and a ValueError outside it."""
    return hensel.principal_kth_root(params.embed(y), params.k)


def inverse_branch(params: MapParams, symbol: int, y,
                   root: Padic | None = None) -> Padic:
    """The inverse branch through the ball of the given symbol:
    h_i(y) = pole - D / (xi_i * y**(1/k) - theta), pole = 2 - q - theta,
    using the principal k-th root; as pole*theta + q - 1 = -D, that is
    (pole * xi_i * y**(1/k) + q - 1) / (xi_i * y**(1/k) - theta).

    Defined wherever the principal root is, i.e. |y - 1|_p < |k|_p, which
    covers the invariant cover, its forward images, and the pole.  The
    image is guaranteed to lie in the ball of symbol i when y belongs to
    the ball of radius |q^2|_p around 1 - q (the cover and the pole both
    do); f(h_i(y)) = y holds on the whole domain.  A symbol outside
    1..kappa is refused by ``check_symbols``.  A caller that takes every
    branch at one y passes ``root``, its ``branch_root``, so the root is
    taken once.

    Digits, over an exact theta: den = xi_i*r - theta, r the root, is
    known to a = min(A_xi, A_r) digits at valuation e, so D/den keeps a - e
    relative digits at valuation v(D) - e, and h_i(y), the exact pole less
    it, claims a + v(D) - 2e.  r claims A_y - v(k) digits of an inexact y
    (the cap at an exact one), and v(D) - v(k) - 2e = tau_i = v(h_i'), so
    h_i gains the tau_i digits of its contraction while xi_i allows (Caruso,
    Roe and Vaccon, arXiv:1402.0142).
    """
    check_symbols(params, (symbol,))
    if root is None:
        root = branch_root(params, y)
    den = build_partition(params).balls[symbol - 1].xi * root - params.theta
    if den.is_zero_like:
        raise PrecisionError("xi * y**(1/k) - theta cancelled; retry at "
                             "higher precision")
    return params.pole - params.D / den
