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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import hensel
from .padic import (
    DEFAULT_DIGITS,
    INF,
    Ball,
    Padic,
    PrecisionError,
    _check_prime,
    _inverse_mod,
    _vp,
    from_rational,
)


class PoleHit(Exception):
    """The map was evaluated at (or indistinguishably close to) its pole."""

    def __init__(self, message: str, exact: bool):
        super().__init__(message)
        self.exact = exact


class VerificationError(Exception):
    """A property the underlying theory guarantees failed to verify.

    This never indicates bad input; it would falsify the theory at the
    given parameters and is reported loudly rather than absorbed.
    """


class RegimeTag(str, Enum):
    A = "A"
    B1 = "B1"
    B2 = "B2"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True, eq=False)
class Regime:
    tag: RegimeTag
    detail: str = ""

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
        return Fraction(1 + c * p ** int(m.group(2)))
    m = _THETA_RATIONAL_RE.match(text)
    if not m:
        raise ValueError(
            f"cannot parse theta {text!r}: expected 'a/b' or '1+c*p^m'")
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"cannot parse theta {text!r}: zero denominator")
    return Fraction(int(m.group(1)), den)


@dataclass(frozen=True, eq=False)
class MapParams:
    """Validated parameters (p, k, q, theta) with derived quantities;
    ``make`` takes theta as a rational or in the ``parse_theta`` grammar.

    Immutable after construction; all evaluation functions are pure, so a
    single instance can be shared freely across a parameter sweep.  Two
    instances are equal, and hash alike, when they name the same
    configuration (p, k, q, theta, digits), the inputs every other field
    is derived from.
    """

    p: int
    k: int
    q: int
    theta: Padic
    digits: int
    theta_frac: Fraction
    pole: Padic
    v_k: int
    v_q: int
    v_theta1: int | float
    v_qtheta1: int
    kappa: int

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
        theta_frac = (parse_theta(theta, p) if isinstance(theta, str)
                      else Fraction(theta))
        theta_p = from_rational(theta_frac, 1, prime=p, digits=digits)
        t1 = theta_p - 1
        if not t1.val_at_least(1):
            raise ValueError("theta must lie in the exponential domain "
                             "(|theta - 1|_p < 1)")
        v_theta1 = INF if t1.is_exact_zero else t1.valuation
        qt1 = t1 + q
        if qt1.is_exact_zero:
            raise ValueError("q + theta - 1 = 0 puts the pole at the fixed "
                             "point 1; the map is degenerate")
        v_qtheta1 = qt1.valuation
        pole = 2 - q - theta_p
        return cls(
            p=p, k=k, q=q, theta=theta_p, digits=digits,
            theta_frac=theta_frac, pole=pole,
            v_k=_vp(k, p), v_q=_vp(q, p), v_theta1=v_theta1,
            v_qtheta1=v_qtheta1, kappa=math.gcd(k, p - 1),
        )

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
        if isinstance(x, Padic):
            if x.prime != self.p:
                raise ValueError("value carries a different prime")
            return x
        return from_rational(Fraction(x), 1, prime=self.p, digits=self.digits)

    @functools.cached_property
    def regime(self) -> Regime:
        """``classify_regime(self)``, decided once per instance."""
        return classify_regime(self)

    @functools.cached_property
    def theta_key(self) -> str:
        """theta as reports and sample seeds name it."""
        return str(self.theta_frac)

    def config_dict(self) -> dict:
        return {
            "p": self.p, "k": self.k, "q": self.q,
            "theta": self.theta_key,
            "digits": self.digits,
        }


def eval_g(params: MapParams, x) -> Padic:
    """The Moebius factor (theta*x + q - 1) / (x + theta + q - 2)."""
    x = params.embed(x)
    den = x + params.theta + (params.q - 2)
    if den.is_exact_zero:
        raise PoleHit("x is exactly the pole 2 - q - theta", exact=True)
    if den.is_zero_like:
        raise PoleHit(
            f"x is indistinguishable from the pole at O(p^{den.val})",
            exact=False,
        )
    num = params.theta * x + (params.q - 1)
    return num / den


def eval_f(params: MapParams, x) -> Padic:
    """One application of the full map, g(x)**k.

    A nonzero x that is inexact, or exact over an exact theta, is mapped
    on residues by ``_eval_f_residues``, with the value and precision
    ``eval_g(params, x).pow_int(k)`` gives; zeros, pole hits and the
    kernel's fallback cases take that composed path, so every PoleHit is
    raised by eval_g."""
    x = params.embed(x)
    if on_residue_kernel(params, x):
        fx = _eval_f_residues(params, x)
        if fx is not None:
            return fx
    return eval_g(params, x).pow_int(params.k)


def on_residue_kernel(params: MapParams, x: Padic) -> bool:
    """Whether eval_f maps x on residues: x is nonzero, inexact or over an
    exact theta, and q is small enough to stay exact under the cap.  (The
    kernel may still fall back to eval_g; see ``_eval_f_residues``.)"""
    cap = min(x.cap, params.theta.cap)
    return (x.unit != 0 and (x.prec != INF or params.theta.prec == INF) and
            max(abs(params.q - 1), abs(params.q - 2)).bit_length()
            <= (cap + 24) * math.log2(params.p))


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
    and eval_f takes the composed path.  Only for an x
    ``on_residue_kernel`` accepts.
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
                .bit_length() > (cap + 24) * math.log2(p)):
            return None
        c_d, c_n = _vp(r_d, p), _vp(r_n, p)
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
    c = _vp(r_d, p)
    v_d, u_d, prec_d = m + c, r_d // p**c, a_d - m - c
    r_n = (theta.unit * ux + (q - 1) * shift) % p ** (a_n - m)
    if r_n == 0:
        return Padic.inexact_zero(p, k * (a_n - v_d), cap)
    c = _vp(r_n, p)
    prec = min(a_n - m - c, prec_d)
    mod = p**prec
    unit = pow(r_n // p**c * _inverse_mod(u_d, p, prec), k, mod)
    return Padic(p, k * (m + c - v_d), unit, prec, cap)


def derivative_at(params: MapParams, x: Padic) -> Padic:
    """f'(x) = k * g(x)**(k-1) * (theta-1)(q+theta-1) / (x+q+theta-2)**2."""
    den = x + params.theta + (params.q - 2)
    t1 = params.theta - 1
    return (params.k * eval_g(params, x).pow_int(params.k - 1) * t1
            * (t1 + params.q) / (den * den))


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


@dataclass(frozen=True, eq=False)
class PartitionBall:
    symbol: int
    xi: Padic
    center: Padic
    ball: Ball
    tau: int


@dataclass(frozen=True, eq=False)
class Partition:
    """The invariant cover: kappa disjoint balls of radius |q(theta-1)|_p,
    one per k-th root of unity, each carrying its scaling exponent tau.
    ``tau_one`` = v(k)+v(theta-1)-v(q) is the exponent at the root 1, and
    the contraction rate of the attracting ball B_1."""

    radius_exp: int
    balls: tuple[PartitionBall, ...]
    tau_one: int

    @property
    def taus(self) -> tuple[int, ...]:
        return tuple(b.tau for b in self.balls)

    @functools.cached_property
    def center_exps(self) -> dict[tuple[int, int], int]:
        """kappa(i, j) = v(c_i - c_j) for symbols i != j, the exponent of
        the distance between two ball centers; exact, since
        ``build_partition`` proved the balls disjoint."""
        return {(a.symbol, b.symbol): (a.center - b.center).norm_exp()
                for a in self.balls for b in self.balls if a is not b}

    def locate(self, x: Padic) -> int | None:
        """Symbol of the ball containing x, or None when x is provably
        outside the cover; PrecisionError when undecidable."""
        for b in self.balls:
            if b.ball.contains(x):
                return b.symbol
        return None

    def to_json_dict(self, params: MapParams) -> dict:
        return {
            "p": params.p,
            "k": params.k,
            "q": params.q,
            "theta": params.theta_key,
            "regime": params.regime.tag.value,
            "kappa": params.kappa,
            "radius_exp": self.radius_exp,
            "balls": [
                {
                    "symbol": b.symbol,
                    "xi": b.xi.to_compact(),
                    "center": b.center.to_compact(),
                    "tau": b.tau,
                }
                for b in self.balls
            ],
        }


PARTITION_CACHE_SIZE = 64  # configurations whose partition stays cached


@functools.lru_cache(maxsize=PARTITION_CACHE_SIZE)
def build_partition(params: MapParams) -> Partition:
    """Centers and scaling exponents of the invariant cover (regime B).

    The ball at the root of unity 1 is centered at
    1 - q + (k-1)(1 - q/2 + (k-2)q^2/(6k))(theta-1) and scales distances
    by |q|/|k(theta-1)|; the ball at xi != 1 is centered at
    2 - q - theta + q(theta-1)/(1-xi) and scales by |k|/|q(theta-1)|.
    Disjointness, positivity of every exponent, and that the cover misses
    the pole and the attracting ball B_1 are asserted, not assumed.
    Cached: every MapParams of one configuration shares one Partition,
    for the PARTITION_CACHE_SIZE configurations used last.
    """
    regime = params.regime
    if not regime.expanding:
        raise ValueError(
            f"partition exists in regime B only; these parameters are "
            f"{regime.tag.value} ({regime.detail})"
        )
    p, k, q = params.p, params.k, params.q
    t1 = params.theta - 1
    s = params.v_q + int(params.v_theta1)
    tau_one = params.v_k + int(params.v_theta1) - params.v_q
    tau_other = params.v_q + int(params.v_theta1) - params.v_k
    roots = hensel.roots_of_unity(k, p, params.digits)
    balls = []
    for i, xi in enumerate(roots, start=1):
        if (xi - 1).is_zero_like:
            coeff = Fraction(k - 1) * (
                1 - Fraction(q, 2) + Fraction((k - 2) * q * q, 6 * k)
            )
            center = params.embed(1 - q) + params.embed(coeff) * t1
            tau = tau_one
        else:
            center = params.embed(2 - q) - params.theta + q * t1 / (1 - xi)
            tau = tau_other
        if tau < 1:
            raise VerificationError(
                f"scaling exponent tau={tau} is not positive; the cover "
                "would not be expanding"
            )
        balls.append(PartitionBall(i, xi, center, Ball(center, s), tau))
    ball_1 = attracting_ball(params)
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            if not balls[i].ball.is_disjoint(balls[j].ball):
                raise VerificationError(
                    f"partition balls {i + 1} and {j + 1} are not disjoint"
                )
        if balls[i].ball.contains(params.pole):
            raise VerificationError("the pole fell inside the cover")
        if not balls[i].ball.is_disjoint(ball_1):
            raise VerificationError(
                f"partition ball {i + 1} meets the attracting ball B_1"
            )
    return Partition(s, tuple(balls), tau_one)


def attracting_ball(params: MapParams) -> Ball:
    """B_1 = {x : v(x-1) >= v(q)+1}, the attracting ball of the fixed
    point 1 in regime B; ``contains`` decides membership.

    For x = 1+h in B_1, g(x) - 1 = (theta-1)h/(q+theta-1+h) exactly, and
    v(theta-1) >= 2v(q)+1 makes v(q+theta-1+h) = v(q), so
    v(g(x)-1) = v(theta-1)+v(h)-v(q) >= 2; for odd p,
    v((1+u)^k - 1) = v(k)+v(u) when v(u) >= 1.  Hence
    v(f(x)-1) = v(x-1) + tau_one: B_1 maps into itself and each step
    brings a point closer to 1 by exactly p^-tau_one.  Every cover center
    lies at distance |q|_p from 1, so B_1 misses the cover, which
    ``build_partition`` asserts.
    """
    return Ball(Padic.one(params.p, params.digits), params.v_q)


def check_symbols(params: MapParams, word) -> None:
    """ValueError unless each symbol of ``word`` names a ball: 1..kappa."""
    for s in word:
        if not 1 <= s <= params.kappa:
            raise ValueError(f"symbol {s} out of range 1..{params.kappa}")


def inverse_branch(params: MapParams, symbol: int, y) -> Padic:
    """The inverse branch through the ball of the given symbol:
    h_i(y) = ((q+theta-2) * xi_i * y**(1/k) - q + 1) / (theta - xi_i * y**(1/k))
    using the principal k-th root.

    Defined wherever the principal root is, i.e. |y - 1|_p < |k|_p, which
    covers the invariant cover, its forward images, and the pole.  The
    image is guaranteed to lie in the ball of symbol i when y belongs to
    the ball of radius |q^2|_p around 1 - q (the cover and the pole both
    do); f(h_i(y)) = y holds on the whole domain.  A symbol outside
    1..kappa is refused by ``check_symbols``.
    """
    check_symbols(params, (symbol,))
    y = params.embed(y)
    if not (y - 1).val_at_least(params.v_k + 1):
        raise ValueError(
            "y is outside the domain of the inverse branches "
            "(|y - 1|_p >= |k|_p leaves no principal root)"
        )
    entry = build_partition(params).balls[symbol - 1]
    root = hensel.principal_kth_root(y, params.k)
    xr = entry.xi * root
    num = (params.theta + (params.q - 2)) * xr - (params.q - 1)
    den = params.theta - xr
    if den.is_zero_like:
        raise PrecisionError("theta - xi * y**(1/k) cancelled; retry at "
                             "higher precision")
    return num / den
