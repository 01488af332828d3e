"""Root-finding over the p-adic integers.

The principal k-th root of elements close to 1 and the k-th roots of
unity, by integer Newton lifts that double their digits at each step and
carry the inverse of their derivative from step to step, and the check
of the map's second fixed point in regime B1, the periodic point of the
word (1,).  ``PolyZp`` evaluates a polynomial over Z_p and its derivative.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .padic import (
    DEFAULT_DIGITS,
    Padic,
    PrecisionError,
    VerificationError,
    _Frozen,
    _check_prime,
    _vp,
    from_rational,
)


class PolyZp(_Frozen):
    """Polynomial with p-adic integer coefficients, constant term first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Padic, ...]):
        super().__init__(coeffs)
        if len(self.coeffs) < 2:
            raise ValueError("degree must be >= 1")
        p = self.coeffs[0].prime
        for c in self.coeffs:
            if c.prime != p:
                raise ValueError("mixed primes in coefficients")
            if not c.val_at_least(0):
                raise ValueError("coefficients must be p-adic integers")
        if self.coeffs[-1].is_zero_like:
            raise ValueError("leading coefficient vanishes at this precision")

    @property
    def prime(self) -> int:
        return self.coeffs[0].prime

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_rationals(cls, values, prime: int,
                       digits: int = DEFAULT_DIGITS) -> "PolyZp":
        return cls(tuple(
            v if isinstance(v, Padic)
            else from_rational(Fraction(v), 1, prime=prime, digits=digits)
            for v in values
        ))

    def __call__(self, x: Padic) -> Padic:
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def deriv_at(self, x: Padic) -> Padic:
        acc = len(self.coeffs[1:]) * self.coeffs[-1]
        for i in range(self.degree - 1, 0, -1):
            acc = acc * x + i * self.coeffs[i]
        return acc


def _unit_root(r: int, m: int, y: int, n: int, p: int) -> int:
    """The root of x**m = r mod p**n congruent to y mod p, for y**m = r mod
    p and p not dividing m: the derivative d = m*x**(m-1) is a unit, so
    Newton's step x <- x - (x**m - r)w, w = 1/d, doubles the correct digits
    up to each count ((n - 1) >> s) + 1.  w is carried, one step w(2 - dw)
    a round: exact to the digits x had a round before, where x**m - r
    vanishes, so x is the integer an exact 1/d would give."""
    w, top = pow(m * pow(y, m - 1, p), -1, p), max(n - 1, 0)
    for s in range(top.bit_length() - 1, -1, -1):
        mod = p ** ((top >> s) + 1)
        t = pow(y, m - 1, mod)
        w = w * (2 - m * t * w) % mod
        y = (y - (t * y - r) * w) % mod
    return y


def _pth_root(r: int, n: int, p: int) -> int:
    """The y = 1 mod p with y**p = r mod p**n, known modulo p**(n-1), for
    r = 1 mod p**2.  With y = 1 + pz, (y**p - r)/p**2 has integer
    coefficients in z and the unit derivative t = y**(p-1), and
    z = (r-1)/p**2 is its root mod p; so Newton doubles the correct digits
    of z, the step to j digits running modulo p**(j+2).  w = 1/t is carried
    from 1 as in ``_unit_root``, exact to the digits z had a round before,
    where (y**p - r)/p**2 vanishes, so y is the one an exact 1/t gives."""
    y, w, top = 1 + (r - 1) // p, 1, max(n - 3, 0)
    for s in range(top.bit_length() - 1, -1, -1):
        out = p ** ((top >> s) + 2)
        t = pow(y, p - 1, out * p)
        w = w * (2 - t * w) % out
        g = (t * y - r) % (out * p) // p
        y = (y - g * w) % out
    return y % p**(n - 1)


def principal_kth_root(a: Padic, k: int) -> Padic:
    """The unique k-th root of a lying in the exponential domain.

    Requires |a - 1|_p < |k|_p (so in particular a is in E_p).  With
    k = p**v * m and p not dividing m, the m-th root and then v p-th roots
    are each lifted from 1 by an integer Newton iteration that doubles its
    digits at every step: O(log k) products at the full precision.  The
    root is determined modulo p**(A - v) when a is known modulo p**A; an
    exact a is taken modulo p**(cap + v), so its root claims a.cap digits.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    p = a.prime
    if p < 3:
        raise ValueError("p >= 3 required")
    vk = _vp(k, p)
    d = a - 1
    if d.is_exact_zero:
        return Padic.one(p, a.cap)
    if d.val <= vk:
        if d.is_inexact_zero:
            raise PrecisionError(
                f"cannot certify |a-1| < |{k}|_p at this precision"
            )
        raise ValueError(
            f"|a-1|_p = p^-{d.val} is not smaller than |{k}|_p = p^-{vk}: "
            "no principal root is guaranteed"
        )
    n = a.cap + vk if a.is_exact else int(a.abs_prec)
    root = _unit_root(a.unit % p**n, k // p**vk, 1, n, p)
    for _ in range(vk):
        root = _pth_root(root, n, p)
        n -= 1
    return Padic.from_residue(root, n, p, a.cap)


def roots_of_unity(k: int, p: int, digits: int = DEFAULT_DIGITS) -> list[Padic]:
    """All k-th roots of unity in Q_p: exactly gcd(k, p-1) units.

    The residues c mod p with c**kappa = 1, kappa = gcd(k, p-1) prime to
    p, form a cyclic group, and the powers g = c**((p-1)/kappa) for
    c = 2, 3, ... range over all of it, so the search meets a generator g
    of order kappa.  g alone is lifted by Newton on x**kappa - 1, to the
    root x congruent to it; then x**j is the unique root congruent to
    g**j, so kappa - 1 products give every root.  Results are sorted by
    residue mod p, so 1 comes first, which fixes the symbol order used by
    the partition downstream.
    """
    if p < 3:
        raise ValueError("p >= 3 required")
    _check_prime(p)  # else the search below may never end
    if k < 1:
        raise ValueError("k must be a positive integer")
    kappa = math.gcd(k, p - 1)
    c, order = 1, 0
    while order != kappa:
        c += 1
        g = h = pow(c, (p - 1) // kappa, p)
        order = 1
        while h != 1:
            h, order = h * g % p, order + 1
    mod = p**digits
    x = _unit_root(1, kappa, g, digits, p)
    if pow(x, k, mod) != 1:
        raise VerificationError("lifted residue is not a k-th root of unity")
    roots = [1]
    for _ in range(kappa - 1):
        roots.append(roots[-1] * x % mod)
    roots.sort(key=lambda r: r % p)
    return [Padic.one(p, digits)] + [Padic(p, 0, r, digits, digits)
                                     for r in roots[1:]]


def fixed_point_B1(params) -> Padic:
    """The repelling fixed point x* != 1 in regime B1, the periodic point
    of the word (1,), verified to satisfy f(x*) = x* at the working
    precision and |x* - 1|_p = |q|_p."""
    from . import dynamics, mapping  # runtime import: both depend on this

    regime = params.regime
    if regime.tag != mapping.RegimeTag.B1:
        raise ValueError(f"parameters are in regime {regime.tag.value}, not B1")
    x_star = dynamics.periodic_point(params, (1,))
    residual = mapping.eval_f(params, x_star) - x_star
    if not residual.is_zero_like:
        raise VerificationError(
            f"candidate fixed point fails f(x) = x: residual valuation "
            f"{residual.val_lower_bound}"
        )
    if (x_star - 1).norm_exp() != params.v_q:
        raise VerificationError("fixed point should satisfy |x*-1|_p = |q|_p")
    return x_star
