"""Root finding over Z_p: principal roots, roots of unity, Newton steps.

Everything is certified: the domain of the principal root is checked up
front, the returned precision is the provable one, and the count of roots
of unity is exactly gcd(k, p-1).
"""

from pottsbethe import (
    PolyZp,
    from_rational,
    principal_kth_root,
    roots_of_unity,
)

print("== a square root of -2 in Z_3: the principal root ==")
a = from_rational(-2, 1, prime=3, digits=40)
root = principal_kth_root(a, 2)
print("root:", root.to_compact())
print("residue mod 9:", (root.unit * 3**root.val) % 9, "(expected 4)")
print("root^2 + 2 vanishes to:", (root * root - a).val_lower_bound,
      "digits")

print()
print("== Newton's quadratic convergence on x^2 + 2, step by step ==")
F = PolyZp.from_rationals([2, 0, 1], prime=3, digits=40)  # x^2 + 2
x = from_rational(1, 1, prime=3, digits=40)
for step in range(4):
    print(f"  step {step}: v(F(x)) = {F(x).norm_exp()}")
    x = x - F(x) / F.deriv_at(x)

print()
print("== the principal k-th root ==")
p, q, k = 5, 5, 3
a = from_rational(1 - q + q * q * 35, 1, prime=p, digits=64)
r = principal_kth_root(a, k)
print(f"a = 1 - q + O(q^2); its principal {k}rd root r satisfies:")
print("  r in E_p:", (r - 1).val_at_least(1))
print("  r^k - a cancels to:", (r.pow_int(k) - a).val_lower_bound, "digits")
print("  leading behavior r = 1 - q/k + O(q^2): v(r - (1 - q/k)) =",
      (r - (1 - from_rational(q, k, prime=p))).norm_exp(), ">= v(q^2) = 2")

print()
print("== roots of unity ==")
for (kk, pp) in [(4, 5), (5, 3), (6, 7)]:
    roots = roots_of_unity(kk, pp, digits=20)
    print(f"x^{kk} = 1 in Q_{pp}: {len(roots)} roots "
          f"(gcd({kk},{pp - 1})), residues "
          f"{[r.unit % pp for r in roots]}")
