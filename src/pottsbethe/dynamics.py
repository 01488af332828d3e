"""Orbits, basins, Julia-set candidates, and the symbolic dynamics.

Forward iteration with convergence certificates, the exact basin /
pole-preimage / Julia trichotomy up to a depth, itineraries against the
invariant cover, the tree of inverse branches over a point (over the
pole, its backward tree), cylinder and periodic points, the verified
incidence matrix, and the dynamical metric on words.

Julia-set membership is an infinite intersection, so it is only ever
certified to a finite depth here; the API says "candidate" and carries the
depth, never more.
"""

from __future__ import annotations

from enum import Enum

from .mapping import (
    MapParams,
    PoleHit,
    RegimeTag,
    branch_root,
    build_partition,
    check_budget,
    check_symbols,
    derivative_at,
    eval_f,
    inverse_branch,
)
from .padic import INF, Ball, Padic, PrecisionError, VerificationError, _Frozen

DEFAULT_MAX_ITER = 200
DEFAULT_TOL = 20


class OrbitStatus(Enum):
    CONVERGED_TO_1 = "converged_to_1"
    STAYED_IN_X = "stayed_in_x"
    POLE_HIT = "pole_hit"
    UNDECIDED = "undecided"


class OrbitResult(_Frozen):
    """The verdict of ``orbit``.

    ``final_norm_exp_to_1`` is the (bound, exact) pair of
    ``norm_exp_field`` for f^steps(x0) - 1.  A caller who wants the
    iterates passes ``orbit`` a ``Trajectory`` and reads its ``points``:
    when the attracting-ball lemma settles a converging orbit they end at
    the iterate that entered B_1, before step ``steps``.
    """

    __slots__ = ("status", "steps", "final_norm_exp_to_1", "itinerary",
                 "reason")


class Trajectory:
    """The forward orbit of x0: ``traj[t]`` is f^t(x0), computed once, on
    first use.  The PoleHit or PrecisionError that ended the orbit is kept
    and raised again for its index and every later one.  The cover symbol
    of f^t(x0) is also computed once per index, in the cover
    ``build_partition`` caches; a PrecisionError from ``Partition.locate``
    is not a symbol, so it is raised again on every read."""

    def __init__(self, params: MapParams, x0):
        self.params = params
        x0 = params.embed(x0)
        self.points = [x0]
        self.error: PoleHit | PrecisionError | None = None
        # the exact one that to_1 subtracts: an int 1 coerces to the cap
        # of the iterate it meets, and no iterate's cap is above x0's
        self._one = Padic(params.p, 0, 1, INF, x0.cap)
        self._symbols: dict[int, int | None] = {}

    def __getitem__(self, t: int) -> Padic:
        while len(self.points) <= t:
            if self.error is not None:
                raise self.error
            try:
                self.points.append(eval_f(self.params, self.points[-1]))
            except (PoleHit, PrecisionError) as exc:
                self.error = exc
                raise
        return self.points[t]

    def to_1(self, t: int) -> Padic:
        """f^t(x0) - 1."""
        return self[t] - self._one

    def symbol(self, t: int) -> int | None:
        """The symbol of the cover ball holding f^t(x0), None outside the
        cover (regime B only)."""
        if t not in self._symbols:
            self._symbols[t] = build_partition(self.params).locate(self[t])
        return self._symbols[t]


def _trajectory(params: MapParams, x0) -> Trajectory:
    if not isinstance(x0, Trajectory):
        return Trajectory(params, x0)
    if x0.params is not params and x0.params != params:
        raise ValueError("the trajectory was built for other parameters")
    return x0


def norm_exp_field(x: Padic) -> tuple[int | str, bool]:
    """Lower bound on -log_p |x|_p plus whether the bound is exact."""
    if x.is_exact_zero:
        return "inf", True
    return x.val, x.unit != 0


def check_tol(params: MapParams, tol: int) -> None:
    """Refuse parameters where the fixed point 1 does not attract, and a
    convergence ball wider than the attracting ball."""
    if params.tau_one < 1:
        raise ValueError(
            f"v(k)+v(theta-1)-v(q+theta-1)={params.tau_one} is below 1: "
            "the fixed point 1 does not attract")
    if tol < params.v_qtheta1:
        raise ValueError(
            f"tol={tol} is below v(q+theta-1)={params.v_qtheta1}: the "
            "convergence ball would reach outside the attracting ball")


def orbit(params: MapParams, x0, max_iter: int = DEFAULT_MAX_ITER,
          tol: int = DEFAULT_TOL) -> OrbitResult:
    """Iterate the map from x0 (a point or a Trajectory), certifying the
    outcome.

    Convergence means entering the open ball of radius p**-tol around 1
    and, unless the distance vanished outright, one further verified
    strictly-contracting step; tol >= v(q+theta-1) keeps that ball inside
    the attracting ball, where the map contracts.  Precision exhaustion,
    a NearPoleHit or a contraction step that cancels at the working
    precision included, is reported, never guessed over.

    In regime B the walk reads the cover symbol of each iterate outside
    the attracting ball B_1, which misses the cover and holds every
    converging step.  An orbit that stays inside the cover for the whole
    budget reports its itinerary; one that re-enters it after leaving it
    falsifies the trichotomy and raises VerificationError.  With an exact
    theta != 1, in any regime, an orbit that enters B_1 is settled there
    when ``_lemma_verdict`` proves its outcome.
    """
    check_tol(params, tol)
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    traj = _trajectory(params, x0)
    part = build_partition(params) if params.regime.expanding else None
    lemma = params.theta.prec == INF and params.tau_one != INF
    symbols: list[int] = []
    inside = part is not None  # every symbol read so far was in the cover
    last, d = 0, None  # index and distance to 1 of the last iterate read

    def result(status: OrbitStatus, steps: int | None = None,
               final: tuple[int, bool] | None = None,
               itinerary: tuple[int, ...] | None = None,
               reason: str | None = None) -> OrbitResult:
        return OrbitResult(
            status, last if steps is None else steps,
            final if final is not None else norm_exp_field(d), itinerary,
            reason)

    try:
        for t in range(max_iter + 1):
            d, last = traj.to_1(t), t
            x = traj.points[t]  # made by to_1(t)
            if d.unit == 0:  # an exact zero, or cancelled to O(p^d.val)
                if d.prec == INF or d.val >= tol + 1:
                    return result(OrbitStatus.CONVERGED_TO_1)
                return result(OrbitStatus.UNDECIDED, reason="precision")
            if lemma and x.prec != INF and d.val > params.v_qtheta1:
                verdict = _lemma_verdict(params, x, d.val, t, max_iter, tol)
                if verdict is not None:
                    steps, w = verdict
                    return result(OrbitStatus.CONVERGED_TO_1, steps,
                                  (w, True))
            if d.val >= tol + 1:
                d2 = traj.to_1(t + 1)
                if d2.val_lower_bound > d.val:
                    return result(OrbitStatus.CONVERGED_TO_1)
                if d2.is_inexact_zero:
                    raise PrecisionError(
                        "contraction undecidable inside the convergence "
                        f"ball: v(x-1)={d.val}, f(x)-1 = O(p^{d2.val})"
                    )
                raise VerificationError(
                    "no contraction inside the convergence ball: "
                    f"v(x-1)={d.val}, v(f(x)-1)>={d2.val_lower_bound}"
                )
            if part is not None and d.val <= params.v_qtheta1:  # outside B_1
                sym = traj.symbol(t)
                if sym is None:
                    inside = False
                elif inside:
                    symbols.append(sym)
                else:
                    raise VerificationError(
                        f"basin point re-entered the cover at step {t}")
            else:
                inside = False
    except PrecisionError:  # a NearPoleHit among them: only a shortage
        return result(OrbitStatus.UNDECIDED, reason="precision")
    except PoleHit:
        return result(OrbitStatus.POLE_HIT)
    if inside:
        return result(OrbitStatus.STAYED_IN_X,
                      itinerary=tuple(symbols))
    return result(OrbitStatus.UNDECIDED, reason="budget")


def _lemma_verdict(params: MapParams, x: Padic, w: int, t: int,
                   max_iter: int, tol: int) -> tuple[int, int] | None:
    """(steps, v(f^steps(x0) - 1)) of the converging orbit through the
    inexact x = f^t(x0) of B_1, w = v(x - 1) and theta exact; None when
    only iterating can decide.

    With A = abs_prec(x) and v = v(q+theta-1), ``attracting_ball``'s lemma
    gives v(f^j(x) - 1) = w + j*tau_one and abs_prec(f^j(x)) = A - j*v,
    on whichever path eval_f takes: both give the same value and digits.
    So the orbit enters the convergence ball n = ceil((tol+1-w)/tau_one)
    steps on, and its contraction step is decided when
    w + (n+1)tau_one < A - (n+1)v: iterating reads the same values.
    """
    tau, v = params.tau_one, params.v_qtheta1
    n = max(0, -((w - tol - 1) // tau))
    if (t + n > max_iter
            or w + (n + 1) * tau >= x.val + x.prec - (n + 1) * v):
        return None
    return t + n, w + n * tau


class ClassifyKind(Enum):
    BASIN = "basin"
    JULIA_CANDIDATE = "julia_candidate"
    POLE_PREIMAGE = "pole_preimage"
    UNDECIDED = "undecided"


class ClassifyResult(_Frozen):
    """The verdict of ``basin_classify``."""

    __slots__ = ("kind", "step", "depth", "itinerary", "reason")


def check_classified(params: MapParams) -> None:
    """Refuse parameters outside the proven regimes, which classify none."""
    regime = params.regime
    if regime.tag == RegimeTag.UNCLASSIFIED:
        raise ValueError(f"parameters are unclassified: {regime.detail}")


def basin_classify(params: MapParams, x0, depth: int) -> ClassifyResult:
    """Exact trichotomy up to ``depth`` iterations of x0 (or a Trajectory).

    Leaving the invariant cover certifies membership in the basin of 1;
    landing on the pole, shown by eval_g's exact PoleHit one step later,
    certifies membership in its backward orbit (with the hitting time),
    and a NearPoleHit is a shortage; staying inside the cover for every
    step yields a Julia candidate with its itinerary, certified to this
    depth only.  In the contracting regime every point is basin outright.
    x0 is judged first, by eval_g: the pole is refused (ValueError) and a
    near hit is undecided at step 0.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    traj = _trajectory(params, x0)

    def result(kind: ClassifyKind, step: int,
               itinerary: tuple[int, ...] | None = None,
               reason: str | None = None) -> ClassifyResult:
        return ClassifyResult(kind, step, depth, itinerary, reason)

    try:  # eval_g judges x0 as it judges every later iterate
        traj[1]
    except PrecisionError:  # a NearPoleHit among them
        return result(ClassifyKind.UNDECIDED, 0, reason="precision")
    except PoleHit:
        raise ValueError("x0 is the pole; it lies outside the domain")
    if params.regime.tag == RegimeTag.A:
        return result(ClassifyKind.BASIN, 0)
    check_classified(params)
    symbols: list[int] = []
    try:
        for t in range(depth):
            sym = traj.symbol(t)
            if sym is None:
                return result(ClassifyKind.BASIN, t)
            symbols.append(sym)
            traj[t + 2]  # an exact PoleHit when f^(t+1)(x0) is the pole
    except PrecisionError:  # a NearPoleHit among them
        return result(ClassifyKind.UNDECIDED, len(symbols), reason="precision")
    except PoleHit:
        return result(ClassifyKind.POLE_PREIMAGE, len(symbols))
    return result(ClassifyKind.JULIA_CANDIDATE, depth, tuple(symbols))


def itinerary_of(params: MapParams, x0, n: int) -> tuple[int, ...]:
    """Symbol word of the first n iterates; errors if the orbit escapes."""
    traj = _trajectory(params, x0)
    word = []
    for t in range(n):
        sym = traj.symbol(t)
        if sym is None:
            raise ValueError(f"orbit leaves the cover at step {t}")
        word.append(sym)
    return tuple(word)


def _word(word) -> tuple[int, ...]:
    """A nonempty word of symbols as a tuple."""
    word = tuple(word)
    if not word:
        raise ValueError("word must be nonempty")
    return word


def _fold(params: MapParams, word: tuple[int, ...], z: Padic) -> Padic:
    """h_{w_0} o ... o h_{w_{n-1}}(z): the inverse branches of the word
    applied right to left."""
    for s in reversed(word):
        z = inverse_branch(params, s, z)
    return z


def branch_tree(params: MapParams, root: Padic, depth: int):
    """The tree of inverse branches over ``root``, one level per step.

    Level n maps each word w of length n to h_{w_0}(node of w[1:]), the
    node of the empty word being ``root``, so each node is ``_fold`` of
    its word over root, the same Padic.  The children of one node are
    listed together, in symbol order, and share the node's k-th root.
    A generator: level n + 1 is built only when it is asked for.
    """
    symbols = range(1, params.kappa + 1)
    level = {(): root}
    for _ in range(depth):
        children = {}
        for w, z in level.items():
            z_root = branch_root(params, z)
            for s in symbols:
                children[(s,) + w] = inverse_branch(params, s, z, z_root)
        level = children
        yield level


def tree_size(params: MapParams, depth: int) -> int:
    """The points of a ``branch_tree`` of ``depth`` levels, kappa + ... +
    kappa**depth; ValueError for a negative depth or past WORK_BUDGET."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    kappa, words = params.kappa, params.kappa**depth
    points = depth if kappa == 1 else (words - 1) * kappa // (kappa - 1)
    check_budget(points, f"depth {depth} has {words} words, whose tree "
                 f"holds {points} points")
    return points


def certified(params: MapParams, word: tuple[int, ...], z: Padic) -> Ball:
    """The shrinking-ball certificate of z, the point of ``word``: radius
    exponent radius_exp + ``Partition.tau_sum`` of the word.
    PrecisionError when z is not known to that radius."""
    part = build_partition(params)
    cert_exp = part.radius_exp + part.tau_sum(word)
    if z.abs_prec <= cert_exp:
        raise PrecisionError(
            f"certificate ball O(p^{cert_exp}) is below the working "
            f"precision O(p^{z.abs_prec}); retry with more digits"
        )
    return Ball(z, cert_exp)


def certified_tree(params: MapParams, root: Padic, depth: int):
    """``branch_tree`` over root, certified node by node: yields each
    level and the ``certified`` balls of the words it certifies.

    Word w, of point z, is certified when z lies in ball w_0 and f(z) in
    the ball of w[1:], the empty word's being Ball(root, radius_exp).  By
    induction on |w|, B_w, the ball of w, then holds the exact point
    h_{w_0}(...h_{w_{n-1}}(root)) and all of B_w has the itinerary w: B_w
    lies in ball w_0, which f scales by exactly p^tau_{w_0} (the expansion
    law), so f maps B_w onto the ball of w[1:]'s radius around f(z), which
    is B_{w[1:]}, and h_{w_0} maps the exact point of w[1:] back into B_w
    (Caruso, arXiv:1701.06794, on ultrametric balls).  So one ``eval_f`` a
    node proves what |w| steps forward sample.  f(z) raises no PoleHit:
    z lies in a cover ball, and ``_check_cover`` proves each misses the
    pole.
    """
    part = build_partition(params)
    balls = {(): certified(params, (), root)}
    for level in branch_tree(params, root, depth):
        parents, balls = balls, {}
        for w, z in level.items():
            if (part.locate(z) == w[0] and w[1:] in parents
                    and parents[w[1:]].contains(eval_f(params, z))):
                balls[w] = certified(params, w, z)
        yield level, balls


def cylinder_point(params: MapParams, word) -> tuple[Padic, Ball]:
    """A point realizing the given word, with its ``certified`` ball.

    The point is the image of the canonical anchor (the first partition
    center) under the inverse branches taken right to left, so the ball's
    diameter is at most p**-(tau_w0 + ... ) times the cover radius.
    """
    word = _word(word)
    z = _fold(params, word, build_partition(params).balls[0].center)
    return z, certified(params, word, z)


def periodic_point(params: MapParams, word) -> Padic:
    """The periodic point whose itinerary repeats the given word (in B1,
    (1,) gives the fixed point x* != 1).  H = h_{w_0} o ... o h_{w_m-1}
    contracts, and ``inverse_branch`` claims the digits it gains, so H is
    iterated from the anchor, each iterate cut to the working digits,
    until the gap H(z) - z cancels to the digits z carries: then H maps
    the ball z claims into itself, and H(z) claims its fixed point."""
    word = _word(word)
    p, digits = params.p, params.digits
    z = build_partition(params).balls[0].center
    for _ in range(digits + 8):
        nxt = _fold(params, word, z)
        gap = nxt - z
        if gap.is_exact_zero or (gap.is_inexact_zero
                                 and gap.val >= z.abs_prec):
            return nxt
        z = nxt if nxt.abs_prec <= digits else Padic.from_residue(
            nxt.unit * p**nxt.val, digits, p, nxt.cap)
    raise PrecisionError("branch cycle did not settle within its budget")


def cycle_multiplier(params: MapParams, x, period: int) -> Padic:
    """Product of the map's derivative along the periodic cycle of x (a
    point or a Trajectory)."""
    traj = _trajectory(params, x)
    out = params.embed(1)
    for t in range(period):
        out = out * derivative_at(params, traj[t])
    return out


def incidence_size(params: MapParams) -> int:
    """The kappa**2 entries of ``incidence_matrix``; ValueError past
    WORK_BUDGET."""
    entries = params.kappa**2
    check_budget(entries, f"{entries} incidence entries")
    return entries


def incidence_matrix(params: MapParams) -> tuple[tuple[int, ...], ...]:
    """Transition structure of the cover, verified rather than assumed.

    Entry (i, j) is set after checking, on the center c_j of ball j, that
    h_i(c_j), the child of symbol i in the one-level ``branch_tree`` over
    c_j, lies in ball i and that the forward map returns c_j exactly.  The
    center decides the whole ball: h_i contracts by exactly p**-tau_i, so
    it maps ball j onto the ball of radius exponent s + tau_i around
    h_i(c_j), and ultrametric balls nest, so that image lies in ball i
    once its center does; f(h_i(y)) = y wherever h_i is defined
    (``inverse_branch``).  The contraction law itself is sampled on every
    ball by ``verify.expansion_law_report``.  The theory makes every entry
    1; a failed check is raised loudly because it would falsify that
    conclusion at these parameters, so every entry of the returned rows
    is 1.  ``incidence_size`` admits the loop before its first branch.
    """
    incidence_size(params)
    part = build_partition(params)
    for j, ball in enumerate(part.balls, 1):
        y = ball.center
        for (i,), x in next(branch_tree(params, y, 1)).items():
            if not part.balls[i - 1].ball.contains(x):
                raise VerificationError(
                    f"branch {i} left its ball on the center of ball {j}")
            if not (eval_f(params, x) - y).is_zero_like:
                raise VerificationError(
                    f"f(h_{i}(y)) != y on the center of ball {j}")
    return ((1,) * params.kappa,) * params.kappa


def df_metric(params: MapParams, wx, wy) -> int:
    """The exponent e of the dynamical metric p**-e between two words:
    e = tau_{x_0}+...+tau_{x_{n-1}} + kappa(x_n, y_n), where n is the first
    disagreement and kappa(i, j), the exponent of the center distance,
    is read from the law ``Partition.center_exp`` proves.  The cylinder
    points of the two words lie at distance p**-e, so their difference
    has ``norm_exp()`` e."""
    part = build_partition(params)
    ax, ay = _word(wx), _word(wy)
    check_symbols(params, ax + ay)
    n = next((t for t, (a, b) in enumerate(zip(ax, ay)) if a != b), None)
    if n is None:
        raise ValueError(
            "words agree on their common prefix; the metric is undefined "
            "for this pair at this length"
        )
    return part.tau_sum(ax[:n]) + part.center_exp(params, ax[n], ay[n])


def pole_preimage_tree(params: MapParams,
                       depth: int) -> list[list[Trajectory]]:
    """Backward orbit of the pole, level by level: none in the contracting
    regime, where the pole stays at norm-distance at least |q+theta-1|_p
    from every forward image.  Else ``tree_size`` admits the depth, the
    levels are ``certified_tree``'s over the pole, and an uncertified node
    raises VerificationError.  A level-n node is a Trajectory: ``node[0]``
    is the preimage, and its later points, its parent's, certify the exact
    orbit up to ``node[n]``, the exact pole."""
    if params.regime.tag == RegimeTag.A:
        return []
    check_classified(params)
    tree_size(params, depth)
    levels = [{(): Trajectory(params, params.pole)}]
    for level, balls in certified_tree(params, params.pole, depth):
        if len(balls) < len(level):
            raise VerificationError(
                f"a level-{len(levels)} node failed its certificate")
        levels.append({w: Trajectory(params, z) for w, z in level.items()})
        for w, node in levels[-1].items():
            node.points += levels[-2][w[1:]].points
    return [list(level.values()) for level in levels[1:]]
