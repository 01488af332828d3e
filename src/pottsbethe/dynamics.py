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

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .mapping import (
    MapParams,
    PoleHit,
    RegimeTag,
    VerificationError,
    build_partition,
    check_symbols,
    derivative_at,
    eval_f,
    inverse_branch,
    on_residue_kernel,
)
from .padic import INF, Ball, Padic, PrecisionError
from . import sampling

DEFAULT_MAX_ITER = 200
DEFAULT_TOL = 20
POLE_TREE_BUDGET = 10**5
INCIDENCE_SAMPLES = 3  # sampled points per ball, besides its center


class OrbitStatus(Enum):
    CONVERGED_TO_1 = "converged_to_1"
    STAYED_IN_X = "stayed_in_x"
    POLE_HIT = "pole_hit"
    UNDECIDED = "undecided"


@dataclass(frozen=True, eq=False)
class OrbitResult:
    """The verdict of ``orbit``.

    ``final_norm_exp_to_1`` is the (bound, exact) pair of
    ``norm_exp_field`` for f^steps(x0) - 1.  A caller who wants the
    iterates passes ``orbit`` a ``Trajectory`` and reads its ``points``:
    when the attracting-ball lemma settles a converging orbit they end at
    the iterate that entered B_1, before step ``steps``.
    """

    status: OrbitStatus
    steps: int | None = None
    final_norm_exp_to_1: tuple[int | str, bool] | None = None
    itinerary: tuple[int, ...] | None = None
    reason: str | None = None


class Trajectory:
    """The forward orbit of x0: ``traj[t]`` is f^t(x0), computed once, on
    first use.  The PoleHit or PrecisionError that ended the orbit is kept
    and raised again for its index and every later one.  The distance
    f^t(x0) - 1 and the cover symbol of f^t(x0) are also computed once per
    index; a PrecisionError from ``Partition.locate`` is not a symbol, so
    it is raised again on every read."""

    def __init__(self, params: MapParams, x0):
        self.params = params
        self.points = [params.embed(x0)]
        self.error: PoleHit | PrecisionError | None = None
        self._to_1: dict[int, Padic] = {}
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
        if t not in self._to_1:
            self._to_1[t] = self[t] - 1
        return self._to_1[t]

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


def orbit(params: MapParams, x0, max_iter: int = DEFAULT_MAX_ITER,
          tol: int = DEFAULT_TOL) -> OrbitResult:
    """Iterate the map from x0 (a point or a Trajectory), certifying the
    outcome.

    Convergence means entering the open ball of radius p**-tol around 1
    and, unless the distance vanished outright, one further verified
    strictly-contracting step.  An orbit that stays inside the invariant
    cover for the whole budget reports its symbol itinerary instead.
    Precision exhaustion, including a contraction step that cancels at
    the working precision, is reported, never guessed over.

    In regime B with an exact theta, an orbit that enters the attracting
    ball B_1 is settled there when ``_lemma_verdict`` proves its outcome.
    """
    part = build_partition(params) if params.regime.expanding else None
    lemma = part is not None and params.theta.is_exact
    traj = _trajectory(params, x0)
    symbols: list[int] = []
    always_in_x = part is not None
    last = 0  # index of the last iterate read

    def result(status: OrbitStatus, steps: int | None = None,
               final: tuple[int, bool] | None = None,
               **fields) -> OrbitResult:
        return OrbitResult(
            status, last if steps is None else steps,
            final if final is not None
            else norm_exp_field(traj.to_1(last)), **fields)

    try:
        for t in range(max_iter + 1):
            x = traj[t]
            last = t
            d = traj.to_1(t)
            if d.is_exact_zero:
                return result(OrbitStatus.CONVERGED_TO_1)
            if d.is_inexact_zero:
                if d.val >= tol + 1:
                    return result(OrbitStatus.CONVERGED_TO_1)
                return result(OrbitStatus.UNDECIDED, reason="precision")
            if (lemma and not x.is_exact and on_residue_kernel(params, x)
                    and d.val_at_least(params.v_q + 1)):
                verdict = _lemma_verdict(params, part, traj, t, max_iter,
                                         tol)
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
            if always_in_x:
                sym = traj.symbol(t)
                if sym is None:
                    always_in_x = False
                else:
                    symbols.append(sym)
    except PoleHit:
        return result(OrbitStatus.POLE_HIT)
    except PrecisionError:
        return result(OrbitStatus.UNDECIDED, reason="precision")
    if always_in_x:
        return result(OrbitStatus.STAYED_IN_X,
                      itinerary=tuple(symbols))
    return result(OrbitStatus.UNDECIDED, reason="budget")


def _lemma_verdict(params: MapParams, part, traj: Trajectory, t: int,
                   max_iter: int, tol: int) -> tuple[int, int] | None:
    """(steps, v(f^steps(x0) - 1)) of the converging orbit through the
    inexact x = f^t(x0) = ``traj[t]`` of B_1 on the residue kernel, theta
    exact; None when only iterating can decide.

    With w = v(x-1) and A = abs_prec(x), ``attracting_ball``'s lemma gives
    v(f^j(x) - 1) = w + j*tau_one, and the residue kernel, where D and N
    both have valuation v(q), gives abs_prec(f^j(x)) = A - j*v(q).  So
    the orbit enters the convergence ball n = ceil((tol+1-w)/tau_one)
    steps on, and its contraction step is decided when
    w + (n+1)tau_one < A - (n+1)v(q): iterating reads the same values.
    """
    w, tau, v_q = traj.to_1(t).val, part.tau_one, params.v_q
    n = max(0, -((w - tol - 1) // tau))
    if (t + n > max_iter
            or w + (n + 1) * tau >= traj[t].abs_prec - (n + 1) * v_q):
        return None
    return t + n, w + n * tau


class ClassifyKind(Enum):
    BASIN = "basin"
    JULIA_CANDIDATE = "julia_candidate"
    POLE_PREIMAGE = "pole_preimage"
    UNDECIDED = "undecided"


@dataclass(frozen=True, eq=False)
class ClassifyResult:
    kind: ClassifyKind
    step: int | None = None
    depth: int | None = None
    itinerary: tuple[int, ...] | None = None
    reason: str | None = None


def basin_classify(params: MapParams, x0, depth: int) -> ClassifyResult:
    """Exact trichotomy up to ``depth`` iterations of x0 (or a Trajectory).

    Leaving the invariant cover certifies membership in the basin of 1;
    landing on the pole certifies membership in its backward orbit (with
    the hitting time); staying inside the cover for every step yields a
    Julia candidate together with its itinerary, certified to this depth
    only.  In the contracting regime every point is basin outright.
    """
    regime = params.regime
    traj = _trajectory(params, x0)
    if (traj[0] - params.pole).is_zero_like:
        raise ValueError("x0 is the pole; it lies outside the domain")
    if regime.tag == RegimeTag.A:
        return ClassifyResult(ClassifyKind.BASIN, step=0, depth=depth)
    if regime.tag == RegimeTag.UNCLASSIFIED:
        raise ValueError(f"parameters are unclassified: {regime.detail}")
    symbols: list[int] = []
    try:
        for t in range(depth):
            sym = traj.symbol(t)
            if sym is None:
                return ClassifyResult(ClassifyKind.BASIN, step=t, depth=depth)
            symbols.append(sym)
            if (traj[t + 1] - params.pole).is_zero_like:
                return ClassifyResult(ClassifyKind.POLE_PREIMAGE, step=t + 1,
                                      depth=depth)
    except PrecisionError:
        return ClassifyResult(ClassifyKind.UNDECIDED, step=len(symbols),
                              depth=depth, reason="precision")
    return ClassifyResult(ClassifyKind.JULIA_CANDIDATE, step=depth,
                          depth=depth, itinerary=tuple(symbols))


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
    listed together, in symbol order.  A generator: level n + 1 is built
    only when it is asked for.
    """
    symbols = range(1, params.kappa + 1)
    level = {(): root}
    for _ in range(depth):
        level = {(s,) + w: inverse_branch(params, s, z)
                 for w, z in level.items() for s in symbols}
        yield level


def certified(params: MapParams, word: tuple[int, ...], z: Padic) -> Ball:
    """The shrinking-ball certificate of z, the point of ``word``: radius
    exponent radius_exp + sum of the word's scaling exponents.
    PrecisionError when z is not known to that radius."""
    part = build_partition(params)
    cert_exp = part.radius_exp + sum(part.balls[s - 1].tau for s in word)
    if z.abs_prec <= cert_exp:
        raise PrecisionError(
            f"certificate ball O(p^{cert_exp}) is below the working "
            f"precision O(p^{z.abs_prec}); retry with more digits"
        )
    return Ball(z, cert_exp)


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
    """The periodic point whose itinerary repeats the given word.

    Iterates the contraction h_{w_0} o ... o h_{w_m-1} from the anchor to
    its fixed point, then the forward map returns to it after m steps.
    """
    word = _word(word)
    z = build_partition(params).balls[0].center
    prev = None
    for _ in range(params.digits + 8):
        nxt = _fold(params, word, z)
        gap = nxt - z
        z = nxt
        if gap.is_zero_like:
            return z
        if prev is not None and gap.val <= prev:
            raise PrecisionError("branch cycle stopped contracting at the "
                                 "working precision")
        prev = gap.val
    raise PrecisionError("branch cycle did not settle within its budget")


def cycle_multiplier(params: MapParams, x, period: int) -> Padic:
    """Product of the map's derivative along the periodic cycle of x (a
    point or a Trajectory)."""
    traj = _trajectory(params, x)
    out = params.embed(1)
    for t in range(period):
        out = out * derivative_at(params, traj[t])
    return out


def incidence_matrix(params: MapParams,
                     seed: int = 0) -> tuple[tuple[int, ...], ...]:
    """Transition structure of the cover, verified rather than assumed.

    Entry (i, j) is set after checking, on the center of ball j plus
    INCIDENCE_SAMPLES sampled points, that the branch through ball i
    sends the point into ball i and that the forward map returns it
    exactly.  The theory makes every entry 1; a failed check is raised
    loudly because it would falsify that conclusion at these parameters,
    so every entry of the returned rows is 1.
    """
    part = build_partition(params)
    symbols = range(1, params.kappa + 1)
    for i in symbols:
        for j in symbols:
            targets = [part.balls[j - 1].center] + [
                s.realize(params)
                for s in sampling.ball_samples(params, j, INCIDENCE_SAMPLES,
                                               seed, tag="incidence")
            ]
            for y in targets:
                x = inverse_branch(params, i, y)
                if not part.balls[i - 1].ball.contains(x):
                    raise VerificationError(
                        f"branch {i} left its ball on a point of ball {j}"
                    )
                if not (eval_f(params, x) - y).is_zero_like:
                    raise VerificationError(
                        f"f(h_{i}(y)) != y on a point of ball {j}"
                    )
    return ((1,) * params.kappa,) * params.kappa


def df_metric(params: MapParams, wx, wy) -> Fraction:
    """The dynamical metric between two words: p**-(tau_{x_0}+...+tau_{x_{n-1}}
    + kappa(x_n, y_n)) where n is the first disagreement and kappa(i, j)
    is the exact exponent of the center distance, read from the
    partition's ``center_exps`` table."""
    part = build_partition(params)
    ax, ay = _word(wx), _word(wy)
    check_symbols(params, ax + ay)
    n = None
    for t, (a, b) in enumerate(zip(ax, ay)):
        if a != b:
            n = t
            break
    if n is None:
        raise ValueError(
            "words agree on their common prefix; the metric is undefined "
            "for this pair at this length"
        )
    exp = (sum(part.balls[s - 1].tau for s in ax[:n])
           + part.center_exps[ax[n], ay[n]])
    return Fraction(1, params.p**exp) if exp >= 0 else Fraction(params.p**-exp)


def norm_fraction(x: Padic) -> Fraction:
    """|x|_p as an exact rational; 0 for the exact zero."""
    v = x.norm_exp()
    if v == INF:
        return Fraction(0)
    return Fraction(1, x.prime**v) if v >= 0 else Fraction(x.prime**-v)


def pole_preimage_tree(params: MapParams,
                       depth: int) -> list[list[Trajectory]]:
    """Backward orbit of the pole, level by level.

    In the contracting regime the backward orbit is empty: the pole stays
    at norm-distance at least |q+theta-1|_p from every forward image, so
    nothing ever maps onto it; the certified empty answer is returned
    without search.  In the expanding regime each level applies all kappa
    inverse branches and every point is verified by running it forward
    into the pole.  A level-n node is the Trajectory of that run: the
    preimage is ``node[0]`` and the pole ``node[n]``, so a caller who
    iterates the preimage again starts from the n iterates already made.
    A search of more than POLE_TREE_BUDGET points is refused.  A preimage
    that lands on the pole before step n is a falsification when it is
    exactly the pole, and a precision shortage when it is only
    indistinguishable from it.
    """
    regime = params.regime
    if regime.tag == RegimeTag.A:
        return []
    if regime.tag == RegimeTag.UNCLASSIFIED:
        raise ValueError(f"parameters are unclassified: {regime.detail}")
    total = sum(params.kappa**n for n in range(1, depth + 1))
    if total > POLE_TREE_BUDGET:
        raise ValueError(
            f"kappa**depth sweep would visit {total} points; budget is "
            f"{POLE_TREE_BUDGET}"
        )
    levels: list[list[Trajectory]] = []
    for n, level in enumerate(branch_tree(params, params.pole, depth),
                              start=1):
        nodes = [Trajectory(params, x) for x in level.values()]
        for node in nodes:
            try:
                z = node[n]
            except PoleHit as exc:
                if not exc.exact:
                    raise PrecisionError(
                        f"level-{n} preimage is indistinguishable from the "
                        f"pole before step {n}; retry at higher precision"
                    ) from exc
                raise VerificationError(
                    f"level-{n} preimage hit the pole early"
                ) from exc
            if not (z - params.pole).is_zero_like:
                raise VerificationError(
                    f"level-{n} preimage failed to run forward into the pole"
                )
        levels.append(nodes)
    return levels
