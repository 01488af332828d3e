"""The invariant ball cover of the expanding regime.

One ball per k-th root of unity, radius |q(theta-1)|_p, each with an
exact integer scaling exponent; the inverse branches contract back into
their balls and the incidence structure verifies to the full matrix.
"""

import json
import random

from pottsbethe import (
    MapParams,
    build_partition,
    eval_f,
    incidence_matrix,
    inverse_branch,
)

params = MapParams.make(5, 4, 5, "1+p^3")  # four symbols
part = build_partition(params)

print("== the cover ==")
print(f"kappa = {params.kappa} balls, open radius 5^-{part.radius_exp}")
for b in part.balls:
    print(f"  symbol {b.symbol}: xi residue {b.xi.unit % 5}, "
          f"tau = {b.tau}, center = {b.center.to_compact()[:36]}...")

print()
print("== exact scaling inside each ball ==")
rng = random.Random(0)
for b in part.balls:
    x = b.center + rng.randrange(5**30) * 5**(part.radius_exp + 1)
    y = b.center + rng.randrange(5**30) * 5**(part.radius_exp + 1)
    jump = ((eval_f(params, x) - eval_f(params, y)).norm_exp()
            - (x - y).norm_exp())
    print(f"  ball {b.symbol}: |f(x)-f(y)| = p^{-jump} * |x-y| "
          f"(predicted tau = {b.tau})")

print()
print("== the pole sits just outside ==")
d = part.balls[-1].center - params.pole
print("distance exponent to a center:", d.norm_exp(),
      "= the open radius exponent", part.radius_exp)

print()
print("== inverse branches land in their balls ==")
y = part.balls[2].center
for b in part.balls:
    h = inverse_branch(params, b.symbol, y)
    back = eval_f(params, h)
    print(f"  h_{b.symbol}(y) in ball {b.symbol}: "
          f"{b.ball.contains(h)}, f(h(y)) = y to "
          f"{(back - y).val_lower_bound} digits")

print()
print("== verified incidence matrix ==")
rows = incidence_matrix(params)
for row in rows:
    print("  ", row)
# incidence_matrix raises VerificationError on any failed entry, so a
# returned matrix is the all-ones matrix of the full shift
print("all ones:", all(e == 1 for row in rows for e in row))

print()
print("== partition as JSON ==")
print(json.dumps(part.to_json_dict(params), indent=1)[:400], "...")
