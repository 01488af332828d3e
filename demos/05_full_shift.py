"""The conjugacy to the full shift, made computational.

Every word is realized by a point, itineraries round-trip, word distances
equal p-adic distances exactly, periodic words give repelling cycles, and
the pole's backward tree branches kappa ways per level.
"""

import itertools

from pottsbethe import (
    MapParams,
    basin_classify,
    build_partition,
    cycle_multiplier,
    cylinder_point,
    df_metric,
    eval_f,
    itinerary_of,
    norm_fraction,
    periodic_point,
    pole_preimage_tree,
)

params = MapParams.make(5, 2, 5, "1+p^3")
part = build_partition(params)

print("== realizing words ==")
for word in [(1,), (2, 1), (1, 2, 2, 1), (2, 2, 1, 1, 2)]:
    x, cert = cylinder_point(params, word)
    back = itinerary_of(params, x, len(word))
    print(f"  word {word} -> point pinned inside a ball of radius "
          f"5^-{cert.radius_exp}; itinerary reads back {back}")

print()
print("== the word metric is the p-adic metric ==")
words = list(itertools.product((1, 2), repeat=4))
pts = {w: cylinder_point(params, w)[0] for w in words}
agree = sum(
    norm_fraction(pts[a] - pts[b]) == df_metric(params, a, b)
    for a, b in itertools.combinations(words, 2)
)
total = len(words) * (len(words) - 1) // 2
print(f"  exact agreement on {agree}/{total} pairs of length-4 words")

print()
print("== periodic words give repelling cycles ==")
for word in [(1,), (2,), (1, 2), (1, 2, 2)]:
    x = periodic_point(params, word)
    z = x
    for _ in range(len(word)):
        z = eval_f(params, z)
    lam = cycle_multiplier(params, x, len(word))
    taus = sum(part.balls[s - 1].tau for s in word)
    print(f"  word {word}: f^{len(word)}(x) - x cancels to "
          f"{(z - x).val_lower_bound} digits; cycle multiplier norm "
          f"5^{-lam.valuation} = 5^{taus}")

print()
print("== a depth-certified Julia candidate ==")
x, _ = cylinder_point(params, (1, 2, 2, 1, 2, 1, 1, 2))
res = basin_classify(params, x, 8)
print("  classification:", res.kind.value, "with itinerary",
      res.itinerary)

print()
print("== the backward tree of the pole ==")
levels = pole_preimage_tree(params, 4)
print("  level sizes:", [len(l) for l in levels], "(kappa^n each)")
lvl2 = levels[1][0]
res = basin_classify(params, lvl2, 20)
print("  a level-2 point classifies as:", res.kind.value,
      "at step", res.step)
