"""Exact p-adic dynamics of the Potts-Bethe map.

Arbitrary-precision p-adic arithmetic with exact norms, root finding over
Z_p, the rational map ((theta*x + q - 1)/(x + theta + q - 2))**k with its
regime classification, the invariant Markov partition of the expanding
regime, and the symbolic dynamics realizing the conjugacy to a full shift.
"""

__version__ = "0.1.0"

from .padic import (
    Ball,
    DEFAULT_DIGITS,
    INF,
    Padic,
    PrecisionError,
    from_rational,
)
from .hensel import (
    PolyZp,
    fixed_point_B1,
    principal_kth_root,
    roots_of_unity,
)
from .mapping import (
    MapParams,
    Partition,
    PoleHit,
    Regime,
    RegimeTag,
    VerificationError,
    build_partition,
    classify_fixed,
    classify_regime,
    eval_f,
    eval_g,
    inverse_branch,
    multiplier,
    parse_theta,
)
from .dynamics import (
    ClassifyKind,
    ClassifyResult,
    OrbitResult,
    OrbitStatus,
    Trajectory,
    basin_classify,
    branch_tree,
    certified,
    cycle_multiplier,
    cylinder_point,
    df_metric,
    incidence_matrix,
    itinerary_of,
    norm_fraction,
    orbit,
    periodic_point,
    pole_preimage_tree,
)

__all__ = [name for name in dir() if not name.startswith("_")]
