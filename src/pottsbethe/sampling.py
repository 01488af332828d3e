"""Deterministic point sampling for property checks and sweeps.

The generator is seeded from (p, q, k, digest(theta), tag, seed), so a
report is reproducible from its configuration alone.  Sweep samples are
drawn as exact rational payloads, which embed identically at any working
precision; that lets a classification that ran out of digits be retried at
doubled precision on the very same point.  Ball samples are the points.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from .mapping import MapParams, build_partition, check_symbols
from .padic import Padic, _Frozen


class Sample(_Frozen):
    """An exact sample descriptor: category plus rational payload, an int
    or a Fraction."""

    __slots__ = ("category", "payload")

    def __init__(self, category: str, payload: int | Fraction):
        _set_category(self, category)
        _set_payload(self, payload)

    def realize(self, params: MapParams) -> Padic:
        return params.embed(self.payload)


_set_category, _set_payload = Sample._set


def rng_for(params: MapParams, tag: str, seed: int) -> random.Random:
    material = (f"{params.p}|{params.q}|{params.k}|{params.theta_key}|"
                f"{tag}|{seed}")
    digest = hashlib.sha256(material.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _zp(rng: random.Random, p: int, digits: int) -> int:
    return rng.randrange(p**digits)


def _ep(rng: random.Random, p: int, digits: int) -> int:
    return 1 + p * rng.randrange(p ** (digits - 1))


def _outside_zp(rng: random.Random, p: int, digits: int) -> Fraction:
    """A unit of Z_p over p**e, e in 1..5: the unit's digits drawn as
    ``_zp`` draws them, with its units digit then drawn again from
    1..p-1."""
    n = rng.randrange(p**digits)
    unit = n - n % p + rng.randrange(1, p)
    return Fraction(unit, p ** rng.randrange(1, 6))


CATEGORY_DRAWS = {
    "zp": _zp,
    "ep": _ep,
    "big": _outside_zp,
}


def spanning_samples(params: MapParams, count: int,
                     seed: int) -> list[Sample]:
    """Points cycling through Z_p, the exponential domain, and |x|_p > 1."""
    rng = rng_for(params, "sweep", seed)
    draws = list(CATEGORY_DRAWS.items())
    return [Sample(cat, draw(rng, params.p, params.digits))
            for cat, draw in (draws[i % len(draws)] for i in range(count))]


def ball_samples(params: MapParams, symbol: int, count: int,
                 seed: int) -> list[Padic]:
    """Points of the partition ball ``symbol``: its center plus p**(s+1)
    times uniform digits, s the balls' radius exponent."""
    check_symbols(params, (symbol,))
    rng = rng_for(params, f"expansion:{symbol}", seed)
    part = build_partition(params)
    center = part.balls[symbol - 1].center
    scale = params.p ** (part.radius_exp + 1)
    return [center + params.embed(_zp(rng, params.p, params.digits)) * scale
            for _ in range(count)]
