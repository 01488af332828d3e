"""A tour of the exact p-adic arithmetic layer.

Norms are exact integer exponents, addition obeys the strong triangle
inequality, cancellation is tracked digit by digit, and undecidable
questions raise instead of guessing.
"""

from pottsbethe import (
    Ball,
    PrecisionError,
    from_rational,
)

p = 5

print("== embedding rationals ==")
for num, den in [(1, 1), (75, 4), (-383, 2), (7, 25)]:
    x = from_rational(num, den, prime=p, digits=8)
    print(f"{num}/{den} as a {p}-adic: {x}")
    print(f"   norm exponent -log_p |x|_p = {x.norm_exp()}")

print()
print("== the strong triangle inequality ==")
x = from_rational(5, 1, prime=p)
y = from_rational(25, 1, prime=p)
print(f"|x|=5^-1, |y|=5^-2, so |x+y| = 5^-{(x + y).norm_exp()} (the max)")

print()
print("== exact cancellation vs precision loss ==")
one = from_rational(1, 1, prime=p)
print("1 + (-1) is the exact zero:", (one - one).is_exact_zero)
a = from_rational(1, 7, prime=p, digits=12)          # inexact unit
b = a + 5**4
d = b - a
print(f"(a + 5^4) - a = {d}   <- 4 leading digits cancelled, 8 survive")
z = a - a
print(f"a - a = {z}   <- nothing survives, only a bound remains")
try:
    z.norm_exp()
except PrecisionError as exc:
    print("asking for its exact norm raises:", exc)

print()
print("== ultrametric balls ==")
b1 = Ball(from_rational(1, 1, prime=p), 2)
b2 = Ball(from_rational(1 + 25, 1, prime=p), 2)
print("centers at distance 5^-2, open radius 5^-2 -> disjoint:",
      b1.is_disjoint(b2))
print("a ball contains its center:", b1.contains(b1.center))

print()
print("== norm comparison as a calculus ==")
q = from_rational(5, 1, prime=p)
t1 = from_rational(125, 1, prime=p)
print(f"|q(theta-1)| = 5^-{(q * t1).norm_exp()} < |theta-1| = "
      f"5^-{t1.norm_exp()}: compare exact exponents")
try:
    z.val_at_least(13)
except PrecisionError as exc:
    print("|a - a| <= 5^-13 is undecided:", exc)

print()
print("== the exponential domain ==")
for n in (1, 6, 2):
    x = from_rational(n, 1, prime=p)
    # for p >= 3, x lies in E_p exactly when |x - 1|_p <= 1/p
    print(f"{n} in E_{p}?", (x - 1).val_at_least(1))

print()
print("== two text encodings ==")
x = from_rational(-383, 2, prime=p, digits=6)
print("digit form:  ", x.to_string())
print("compact form:", x.to_compact(), "  <- v:u:N, as reports write values")
