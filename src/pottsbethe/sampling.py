"""Deterministic point sampling for property checks and sweeps.

The generator is seeded from (p, q, k, digest(theta), tag, seed), so a
report is reproducible from its configuration alone.  Samples are drawn as
exact rational payloads, which embed identically at any working precision;
that lets a classification that ran out of digits be retried at doubled
precision on the very same point.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

from .mapping import MapParams, build_partition
from .padic import Padic


@dataclass(frozen=True)
class Sample:
    """An exact sample descriptor: category plus rational payload."""

    category: str
    payload: Fraction

    def realize(self, params: MapParams) -> Padic:
        if self.category.startswith("ball:"):
            symbol = int(self.category.split(":", 1)[1])
            part = build_partition(params)
            entry = part.balls[symbol - 1]
            offset = params.embed(self.payload)
            return entry.center + offset * params.p ** (part.radius_exp + 1)
        return params.embed(self.payload)


def rng_for(params: MapParams, tag: str, seed: int) -> random.Random:
    material = (f"{params.p}|{params.q}|{params.k}|{params.theta_key}|"
                f"{tag}|{seed}")
    digest = hashlib.sha256(material.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _zp(rng: random.Random, p: int, digits: int) -> Fraction:
    return Fraction(rng.randrange(p**digits))


def _zp_unit(rng: random.Random, p: int, digits: int) -> Fraction:
    n = rng.randrange(p**digits)
    return Fraction(n - n % p + rng.randrange(1, p))


def _ep(rng: random.Random, p: int, digits: int) -> Fraction:
    return 1 + p * Fraction(rng.randrange(p ** (digits - 1)))


def _outside_zp(rng: random.Random, p: int, digits: int) -> Fraction:
    return _zp_unit(rng, p, digits) / p ** rng.randrange(1, 6)


CATEGORY_DRAWS = {
    "zp": _zp,
    "ep": _ep,
    "big": _outside_zp,
}


def spanning_samples(params: MapParams, count: int,
                     seed: int) -> list[Sample]:
    """Points cycling through Z_p, the exponential domain, and |x|_p > 1."""
    rng = rng_for(params, "sweep", seed)
    cats = ("zp", "ep", "big")
    out = []
    for i in range(count):
        cat = cats[i % len(cats)]
        out.append(Sample(cat, CATEGORY_DRAWS[cat](rng, params.p, params.digits)))
    return out


def ball_samples(params: MapParams, symbol: int, count: int, seed: int,
                 tag: str = "ball") -> list[Sample]:
    """Points of the partition ball ``symbol``, uniform digits inside."""
    rng = rng_for(params, f"{tag}:{symbol}", seed)
    return [
        Sample(f"ball:{symbol}", _zp(rng, params.p, params.digits))
        for _ in range(count)
    ]

