"""Capped-precision exact arithmetic in the field Q_p.

A value is stored as ``p**val * unit`` with the unit known to ``prec``
base-p digits, so valuations and norms are exact integers, never floats.
Three flavors of value arise:

* exact values (``prec == INF``): the unit is a signed integer known in
  full, including the exact zero (``unit == 0``);
* inexact values (``1 <= prec < INF``): the unit is known modulo
  ``p**prec`` and stored in canonical complement form in ``[1, p**prec)``;
* inexact zeros (``unit == 0``, ``prec == 0``): subtraction cancelled every
  known digit, so only ``|x|_p <= p**-val`` is known.

Every operation propagates the provable precision bound, and any predicate
the carried precision cannot decide raises :class:`PrecisionError` instead
of guessing.  Callers may rebuild their inputs at doubled precision and
retry.  Norms compare as exact exponents: ``norm_exp``, ``val_at_least``
and ``val_at_most``.  Values print in a digit form and in the compact
``v:u:N`` form that reports write; they are immutable and safe to share
across threads.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf

DEFAULT_DIGITS = 64


class PrecisionError(ArithmeticError):
    """A predicate or operation is undecidable at the available precision."""


class VerificationError(Exception):
    """A property the underlying theory guarantees failed to verify.

    This never indicates bad input; it would falsify the theory at the
    given parameters and is reported loudly rather than absorbed.
    """


class _Frozen:
    """Base of a small immutable record.  A subclass names its fields in
    ``__slots__``; ``__init_subclass__`` stores the slots' setters, which
    reach past ``__setattr__``, in slot order on the class as ``_set``.
    The base ``__init__`` takes the fields in that order and sets each
    once; any later assignment or deletion raises AttributeError.
    ``__repr__`` and ``__reduce__`` (copy, pickle) read the same fields.
    Only ``Padic`` sets its fields by hand, calling the setters by name
    in its own ``__init__``: every arithmetic result builds one, and the
    loop would add to each.  A ``"__dict__"`` slot is no field: it holds
    what ``functools.cached_property`` caches."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(n for n in cls.__slots__ if n != "__dict__")
        cls._set = tuple(getattr(cls, n).__set__ for n in cls._fields)

    def __init__(self, *values):
        if len(values) != len(self._set):
            raise TypeError(f"{type(self).__name__} takes "
                            f"{len(self._set)} fields, got {len(values)}")
        for setter, value in zip(self._set, values):
            setter(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


def _vp(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _exact_bits(prime: int, cap: int) -> float:
    """The most bits an exact unit keeps at this cap; ``Padic._build``
    truncates a longer one to the cap, and the residue kernel of
    ``mapping.eval_f`` falls back wherever the composed path would."""
    return (cap + 24) * math.log2(prime)


def _inverse_mod(a: int, p: int, n: int) -> int:
    """The inverse of an integer a prime to p, modulo p**n for n >= 1, by
    Newton's iteration x <- x(2 - ax), which doubles the digits of x at
    each step, through the digit counts ((n - 1) >> s) + 1, largest s
    first.  Same result as ``pow(a, -1, p**n)``, several times faster for
    large n."""
    x = pow(a % p, -1, p)
    m = n - 1
    for s in range(m.bit_length() - 1, -1, -1):
        mod = p ** ((m >> s) + 1)
        x = x * (2 - a % mod * x) % mod
    return x


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# no composite below this is a strong probable prime to all _SMALL_PRIMES
_MILLER_RABIN_BOUND = 3317044064679887385961981


def _check_prime(p: int) -> None:
    """ValueError unless p is prime: the deterministic Miller-Rabin test
    on _SMALL_PRIMES as bases, exact below _MILLER_RABIN_BOUND; a larger p
    is refused, never guessed."""
    if p in _SMALL_PRIMES:
        return
    if p < 2:
        raise ValueError(f"prime must be >= 2, got {p}")
    if p >= _MILLER_RABIN_BOUND:
        raise ValueError(f"cannot decide whether {p} is prime: the "
                         f"primality test is exact below {_MILLER_RABIN_BOUND}")
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s * d, d odd
    d = (p - 1) >> s
    for a in _SMALL_PRIMES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError(f"{p} is not prime")


class Padic(_Frozen):
    """One p-adic number at a known precision.  Use the factories
    (:func:`from_rational`, :meth:`Padic.from_residue`) rather than the
    raw constructor; the raw fields are assumed normalized.

    ``cap`` is the working precision the value was created under; it bounds
    the precision of results when two exact values meet in a division that
    leaves exact arithmetic.
    """

    __slots__ = ("prime", "val", "unit", "prec", "cap")

    def __init__(self, prime: int, val: int, unit: int, prec: int | float,
                 cap: int):
        _set_prime(self, prime)
        _set_val(self, val)
        _set_unit(self, unit)
        _set_prec(self, prec)
        _set_cap(self, cap)

    # -- state predicates ------------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return self.unit == 0 and self.prec == INF

    @property
    def is_inexact_zero(self) -> bool:
        return self.unit == 0 and self.prec == 0

    @property
    def is_zero_like(self) -> bool:
        """True when the value is indistinguishable from zero as stored."""
        return self.unit == 0

    @property
    def is_exact(self) -> bool:
        return self.prec == INF

    @property
    def abs_prec(self) -> int | float:
        """The value is known modulo ``p**abs_prec``."""
        return INF if self.prec == INF else self.val + self.prec

    @property
    def val_lower_bound(self) -> int | float:
        """A valuation bound that is always available: exact for nonzero
        values, +inf for the exact zero, the cancellation depth for inexact
        zeros."""
        return INF if self.is_exact_zero else self.val

    @property
    def valuation(self) -> int | float:
        """Exact valuation; +inf for the exact zero.  Raises
        :class:`PrecisionError` on an inexact zero, whose valuation is only
        bounded below."""
        if self.is_exact_zero:
            return INF
        if self.unit == 0:
            raise PrecisionError(
                f"valuation known only to be >= {self.val} "
                f"(value cancelled to O({self.prime}^{self.val}))"
            )
        return self.val

    def norm_exp(self) -> int | float:
        """-log_p |x|_p as an exact integer; +inf for the exact zero."""
        return self.valuation

    def val_at_least(self, m: int) -> bool:
        """Decide ``|x|_p <= p**-m``; raises PrecisionError if undecidable."""
        if self.unit != 0:
            return self.val >= m
        if self.prec == INF or self.val >= m:  # exact zero, or O(p^val >= m)
            return True
        raise PrecisionError(
            f"cannot decide valuation >= {m}: only >= {self.val} is known"
        )

    def val_at_most(self, m: int) -> bool:
        """Decide ``|x|_p >= p**-m``; raises PrecisionError if undecidable."""
        if self.unit != 0:
            return self.val <= m
        if self.prec == INF or self.val > m:  # exact zero, or O(p^val > m)
            return False
        raise PrecisionError(
            f"cannot decide valuation <= {m}: only >= {self.val} is known"
        )

    # -- construction ----------------------------------------------------

    @staticmethod
    def _build(prime: int, val: int, unit: int, prec: int | float, cap: int) -> "Padic":
        """Normalize raw fields into a canonical instance."""
        if unit == 0:
            if prec == INF:
                return Padic(prime, 0, 0, INF, cap)
            return Padic(prime, val, 0, 0, cap)
        if unit % prime == 0:
            c = _vp(unit, prime)
            val += c
            unit //= prime**c
        if prec == INF:
            # keep huge exact units from growing without bound; truncating
            # to the cap is always a sound inexact representation
            if abs(unit).bit_length() > _exact_bits(prime, cap):
                prec = cap
            else:
                return Padic(prime, val, unit, INF, cap)
        if prec <= 0:
            return Padic(prime, val, 0, 0, cap)
        prec = int(prec)
        unit %= prime**prec
        return Padic(prime, val, unit, prec, cap)

    @classmethod
    def zero(cls, prime: int, cap: int = DEFAULT_DIGITS) -> "Padic":
        return cls(prime, 0, 0, INF, cap)

    @classmethod
    def one(cls, prime: int, cap: int = DEFAULT_DIGITS) -> "Padic":
        return cls(prime, 0, 1, INF, cap)

    @classmethod
    def inexact_zero(cls, prime: int, bound: int, cap: int = DEFAULT_DIGITS) -> "Padic":
        """The value O(p**bound): everything cancelled above p**bound."""
        return cls(prime, bound, 0, 0, cap)

    @classmethod
    def from_residue(cls, residue: int, abs_prec: int, prime: int,
                     cap: int | None = None) -> "Padic":
        """The value congruent to ``residue`` modulo ``p**abs_prec``."""
        if abs_prec < 1:
            raise ValueError("abs_prec must be >= 1")
        residue %= prime**abs_prec
        if residue == 0:
            return cls.inexact_zero(prime, abs_prec, cap or abs_prec)
        v = _vp(residue, prime) if residue % prime == 0 else 0
        return cls(prime, v, residue // prime**v, abs_prec - v, cap or abs_prec)

    def with_cap(self, cap: int) -> "Padic":
        """Same value under a different working precision cap."""
        return Padic(self.prime, self.val, self.unit, self.prec, cap)

    # -- coercion and arithmetic -----------------------------------------

    def _coerce(self, other):
        if isinstance(other, Padic):
            if other.prime != self.prime:
                raise ValueError(
                    f"mixed primes: {self.prime} vs {other.prime}"
                )
            return other
        if isinstance(other, int):
            return Padic._build(self.prime, 0, int(other), INF, self.cap)
        if isinstance(other, Fraction):
            return _from_fraction(other, self.prime, self.cap)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self._add(o, 1)

    __radd__ = __add__

    def __neg__(self):
        if self.unit == 0:
            return self
        if self.prec == INF:
            return Padic(self.prime, self.val, -self.unit, INF, self.cap)
        return Padic(self.prime, self.val,
                     self.prime**self.prec - self.unit, self.prec, self.cap)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self._add(o, -1)

    def __rsub__(self, other):
        return -(self - other)

    def _add(self, o: "Padic", sign: int) -> "Padic":
        """self + sign*o for sign = +1 or -1.  The sign goes into the
        integer sum: an inexact o is known modulo p**o.abs_prec, which
        bounds the modulus of the sum, so -o needs no complement form."""
        p = self.prime
        cap = min(self.cap, o.cap)
        if self.val <= o.val:  # the sum is p**m * s
            m = self.val
            s = self.unit + sign * o.unit * p ** (o.val - m)
        else:
            m = o.val
            s = self.unit * p ** (self.val - m) + sign * o.unit
        # an exact zero term needs no case of its own below: the sum is the
        # other term, reduced modulo its own absolute precision a
        if o.prec != INF:
            a = o.val + o.prec
            if self.prec != INF:
                a = min(a, self.val + self.prec)
        elif self.prec != INF:
            a = self.val + self.prec
        else:
            if self.unit == 0:
                return (o if sign > 0 else -o).with_cap(cap)
            if o.unit == 0:
                return self.with_cap(cap)
            return Padic._build(p, m, s, INF, cap)
        rel = a - m
        if rel <= 0:
            return Padic.inexact_zero(p, a, cap)
        s %= p**rel
        if s == 0:
            return Padic.inexact_zero(p, a, cap)
        if s % p:
            return Padic(p, m, s, rel, cap)
        c = _vp(s, p)
        return Padic(p, m + c, s // p**c, rel - c, cap)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        p = self.prime
        cap = min(self.cap, o.cap)
        if self.is_exact_zero or o.is_exact_zero:
            return Padic.zero(p, cap)
        if self.unit == 0 or o.unit == 0:
            return Padic.inexact_zero(p, self.val + o.val, cap)
        prec = min(self.prec, o.prec)
        return Padic._build(p, self.val + o.val, self.unit * o.unit, prec, cap)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        p = self.prime
        cap = min(self.cap, o.cap)
        if o.is_exact_zero:
            raise ZeroDivisionError("division by exact p-adic zero")
        if o.unit == 0:
            raise PrecisionError(
                f"divisor is indistinguishable from zero (O({p}^{o.val}))"
            )
        if self.is_exact_zero:
            return Padic.zero(p, cap)
        if self.unit == 0:
            return Padic.inexact_zero(p, self.val - o.val, cap)
        val = self.val - o.val
        if self.prec == INF and o.prec == INF:
            if self.unit % o.unit == 0:
                return Padic._build(p, val, self.unit // o.unit, INF, cap)
            prec = cap
        else:
            prec = int(min(self.prec, o.prec))
        inv = _inverse_mod(o.unit, p, prec)
        return Padic._build(p, val, self.unit * inv, prec, cap)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def pow_int(self, n: int) -> "Padic":
        """p**(n*val) * unit**n for an integer n of either sign: one modular
        power modulo p**prec, exact while an exact unit**n fits
        ``_exact_bits``, and cut to the cap as ``_build`` cuts it if not."""
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        p, cap, u, prec = self.prime, self.cap, self.unit, self.prec
        if n == 0:
            return Padic.one(p, cap)
        if self.is_exact_zero:
            if n < 0:
                raise ZeroDivisionError("negative power of exact zero")
            return self
        if u == 0:
            if n < 0:
                raise PrecisionError("negative power of an inexact zero")
            return Padic.inexact_zero(p, n * self.val, cap)
        if prec == INF:
            # u**n has over (bits(u) - 1)*n bits; 1/u is exact at u = +-1
            if ((n > 0 or abs(u) == 1) and
                    (abs(u).bit_length() - 1) * n < _exact_bits(p, cap)):
                return Padic._build(p, n * self.val, u ** abs(n), INF, cap)
            prec = cap
        return Padic(p, n * self.val, pow(u, n, p**prec), prec, cap)

    def __pow__(self, n: int) -> "Padic":
        return self.pow_int(n)

    # -- digits and text encodings ----------------------------------------

    def digits(self, count: int) -> tuple[int, ...]:
        """First ``count`` base-p digits of the unit part (complement form
        for negative exact values)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        if self.unit == 0:
            if self.is_exact_zero:
                return (0,) * count
            raise PrecisionError("no unit digits known for an inexact zero")
        if self.prec != INF and count > self.prec:
            raise PrecisionError(
                f"only {self.prec} digits known, {count} requested"
            )
        return _int_digits(self.unit % self.prime**count, self.prime, count)

    def _digit_body(self, ds: tuple[int, ...]) -> str:
        """``d0 + d1*p + d2*p^2 + ...`` for the digits ``ds``."""
        p = self.prime
        return " + ".join(str(d) if j == 0 else f"{d}*{p}" if j == 1
                          else f"{d}*{p}^{j}" for j, d in enumerate(ds))

    def to_string(self) -> str:
        """Digit-expansion encoding, e.g. ``3^-1 * (2 + 1*3) + O(3^1)``."""
        p = self.prime
        if self.is_exact_zero:
            return "0"
        if self.unit == 0:
            return f"O({p}^{self.val})"
        if self.prec == INF:
            u = abs(self.unit)
            n = 1
            while p**n <= u:
                n += 1
            body = self._digit_body(_int_digits(u, p, n))
            sign = "-" if self.unit < 0 else ""
            return f"{p}^{self.val} * {sign}({body})"
        body = self._digit_body(self.digits(int(self.prec)))
        return f"{p}^{self.val} * ({body}) + O({p}^{self.val + int(self.prec)})"

    def to_compact(self) -> str:
        """Compact ``v:u:N`` encoding; ``N`` is ``inf`` for exact values."""
        if self.is_exact_zero:
            return "inf:0:inf"
        if self.unit == 0:
            return f"{self.val}:0:0"
        n = "inf" if self.prec == INF else str(int(self.prec))
        return f"{self.val}:{_decimal(self.unit)}:{n}"

    def __repr__(self) -> str:
        return f"Padic({self.prime}, {self.to_compact()!r})"

    def __str__(self) -> str:
        return self.to_string()


_set_prime, _set_val, _set_unit, _set_prec, _set_cap = Padic._set


def _decimal(x: int | Fraction) -> str:
    """``str(x)`` for an int or a Fraction of any length.  CPython writes
    no int past ``sys.get_int_max_str_digits()`` digits (4300 by default,
    640 at least), so a long one is written in two halves, split at a
    power of ten; the limit itself is left alone."""
    n, d = x.as_integer_ratio()
    if d != 1:
        return f"{_decimal(n)}/{_decimal(d)}"
    if n.bit_length() <= 2048:  # at most 617 digits
        return str(n)
    half = n.bit_length() * 3 // 20  # about half of n's digits
    high, low = divmod(abs(n), 10**half)
    return ("-" if n < 0 else "") + _decimal(high) + _decimal(low).zfill(half)


def _int_digits(u: int, p: int, n: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        u, d = divmod(u, p)
        out.append(d)
    return tuple(out)


# -- module-level operations ----------------------------------------------


def from_rational(num, den=1, *, prime: int, digits: int = DEFAULT_DIGITS) -> Padic:
    """Embed the rational num/den into Q_p at ``digits`` working digits.

    The valuation is exact; the unit is exact whenever the reduced
    denominator is a power of p, otherwise it is known modulo p**digits.
    A Fraction or an int num over the default den is taken as it is.
    """
    _check_prime(prime)
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if den != 1 or not isinstance(num, (int, Fraction)):
        num = Fraction(num, den)  # raises ZeroDivisionError for den == 0
    return _from_fraction(num, prime, digits)


def _from_fraction(fr: int | Fraction, prime: int, digits: int) -> Padic:
    """``from_rational(fr, prime=prime, digits=digits)`` for an int or a
    Fraction, a prime and a digit count the caller has checked."""
    n, d = fr.as_integer_ratio()
    if n == 0:
        return Padic.zero(prime, digits)
    vn = _vp(n, prime) if n % prime == 0 else 0
    vd = _vp(d, prime) if d % prime == 0 else 0
    nu = n // prime**vn
    du = d // prime**vd
    if du == 1:
        return Padic._build(prime, vn - vd, nu, INF, digits)
    unit = nu * _inverse_mod(du, prime, digits)
    return Padic._build(prime, vn - vd, unit, digits, digits)


class Ball(_Frozen):
    """Open ball {x : |x - center|_p < p**-radius_exp}; membership is the
    exact valuation test v(x - center) >= radius_exp + 1."""

    __slots__ = ("center", "radius_exp")

    @property
    def prime(self) -> int:
        return self.center.prime

    def contains(self, x: Padic) -> bool:
        if x.prime != self.center.prime:
            raise ValueError("mixed primes")
        return (x - self.center).val_at_least(self.radius_exp + 1)

    def is_disjoint(self, other: "Ball") -> bool:
        if other.prime != self.prime:
            raise ValueError("mixed primes")
        # ultrametric: balls either nest or are disjoint, decided by
        # whether the centers are separated at the larger radius
        s = min(self.radius_exp, other.radius_exp)
        return (self.center - other.center).val_at_most(s)
