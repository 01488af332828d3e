"""Spans and counters around the calls into each pottsbethe layer.

The tracer patches the package from outside: every module namespace (and
class) of ``pottsbethe`` that binds a traced function gets the wrapper, so
names imported with ``from .mapping import eval_f`` are traced too, and
``uninstall`` puts every original back.  Spans (id, parent, name, start,
end) are kept in memory and written out when the run ends.  A layer's self
time is its spans' time minus the time their child spans cover.

``padic`` arithmetic runs more than a million times per report, so it gets
counters instead of spans; its time is part of the self time of whichever
span called it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# layer -> functions wrapped in a span, as "module.name" or
# "module.Class.method" under the pottsbethe package
SPANS = {
    "cli": ("cli.main",),
    "verify": ("verify.classify_report", "verify.orbit_report",
               "verify.sweep_report", "verify.julia_report",
               "verify.expansion_law_report", "verify.canonical_json"),
    "sampling": ("sampling.spanning_samples", "sampling.ball_samples",
                 "sampling.Sample.realize"),
    "dynamics": ("dynamics.orbit", "dynamics.basin_classify",
                 "dynamics.itinerary_of", "dynamics.cylinder_point",
                 "dynamics.periodic_point", "dynamics.cycle_multiplier",
                 "dynamics.incidence_matrix", "dynamics.df_metric",
                 "dynamics.pole_preimage_tree"),
    "mapping": ("mapping.classify_regime", "mapping.multiplier",
                "mapping.eval_f", "mapping.inverse_branch",
                "mapping.build_partition"),
    "hensel": ("hensel.principal_kth_root", "hensel.roots_of_unity",
               "hensel.fixed_point_B1"),
}
PADIC_ARITH = tuple(f"padic.Padic.{name}" for name in (
    "__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
    "__rtruediv__", "__neg__", "pow_int", "__pow__"))
POLY_EVALS = ("hensel.PolyZp.__call__", "hensel.PolyZp.deriv_at")
SAMPLE_LISTS = ("sampling.spanning_samples", "sampling.ball_samples")


def resolve(path: str):
    """The object a dotted path under pottsbethe names, taken from the
    defining namespace (raw functions for methods)."""
    modname, *attrs = path.split(".")
    owner = importlib.import_module(f"pottsbethe.{modname}")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    return vars(owner)[attrs[-1]]


def bindings(target) -> list[tuple[object, str]]:
    """Every (module or class, name) in the pottsbethe package bound to
    ``target``."""
    owners: dict[int, object] = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "pottsbethe" and not modname.startswith("pottsbethe."):
            continue
        owners[id(mod)] = mod
        for value in vars(mod).values():
            if isinstance(value, type) and \
                    value.__module__.startswith("pottsbethe"):
                owners[id(value)] = value
    return [(owner, name) for owner in owners.values()
            for name, value in list(vars(owner).items()) if value is target]


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.metrics()`` after."""

    def __init__(self):
        self.spans: list = []  # sid -> (parent, name, start, end)
        self.stack = [-1]
        self.padic_arith_calls = 0
        self.padic_arith_s = 0.0
        self.padic_depth = 0
        self.counts: dict[str, int] = {}
        self.pole_hits = 0
        self.pole_hits_inexact = 0
        self.precision_errors = 0
        self.dynamics_depth = 0
        self.pole_tree_points = 0
        self.samples_drawn = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self._patched: list[tuple[object, str, object]] = []
        self._cache_before = None

    # -- install / uninstall ---------------------------------------------

    def _patch(self, path: str, make_wrapper) -> None:
        original = resolve(path)
        wrapper = make_wrapper(original)
        for cacheattr in ("cache_info", "cache_clear"):
            if hasattr(original, cacheattr):
                setattr(wrapper, cacheattr, getattr(original, cacheattr))
        for owner, name in bindings(original):
            self._patched.append((owner, name, original))
            setattr(owner, name, wrapper)

    def install(self) -> "Tracer":
        from pottsbethe.mapping import PoleHit, build_partition
        self._pole_hit = PoleHit
        self._cache_before = build_partition.cache_info()
        try:
            self._count_precision_errors()
            for paths in SPANS.values():
                for path in paths:
                    self._patch(path, functools.partial(self._span, path))
            for path in PADIC_ARITH:
                self._patch(path, self._arith)
            for path in POLY_EVALS + ("padic.from_rational",):
                self._patch(path, functools.partial(self._count, path))
            self._patch("mapping.eval_g", self._eval_g)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _count_precision_errors(self) -> None:
        """Count each PrecisionError made while a dynamics call runs, where
        it is raised, so errors caught inside the library count too."""
        from pottsbethe.padic import PrecisionError
        original = vars(PrecisionError).get("__init__")
        base_init = PrecisionError.__init__

        def __init__(exc, *args):
            self.precision_errors += self.dynamics_depth > 0
            base_init(exc, *args)
        self._patched.append((PrecisionError, "__init__", original))
        PrecisionError.__init__ = __init__

    def uninstall(self) -> None:
        from pottsbethe.mapping import build_partition
        while self._patched:
            owner, name, original = self._patched.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        info = build_partition.cache_info()
        before = self._cache_before
        self.cache_hits = info.hits - before.hits
        self.cache_misses = info.misses - before.misses

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers ----------------------------------------------------------

    def _span(self, path: str, fn):
        spans, stack = self.spans, self.stack
        in_dynamics = path.startswith("dynamics.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            self.dynamics_depth += in_dynamics
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid] = (parent, path, t0, perf_counter())
                stack.pop()
                self.dynamics_depth -= in_dynamics
            if path in SAMPLE_LISTS:
                self.samples_drawn += len(result)
            elif path == "dynamics.pole_preimage_tree":
                self.pole_tree_points += sum(len(lv) for lv in result)
            return result
        return wrapper

    def _arith(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.padic_arith_calls += 1
            if self.padic_depth:
                return fn(*args, **kwargs)
            self.padic_depth = 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.padic_arith_s += perf_counter() - t0
                self.padic_depth = 0
        return wrapper

    def _count(self, path: str, fn):
        counts = self.counts
        counts[path] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[path] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _eval_g(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except self._pole_hit as exc:
                self.pole_hits += 1
                self.pole_hits_inexact += not exc.exact
                raise
        return wrapper

    # -- results -------------------------------------------------------------

    def span_totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        covered = [0.0] * len(self.spans)
        for parent, _, t0, t1 in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: dict[str, list] = {}
        for sid, (_, path, t0, t1) in enumerate(self.spans):
            rec = out.setdefault(path, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += t1 - t0
            rec[2] += t1 - t0 - covered[sid]
        return {path: tuple(rec) for path, rec in out.items()}

    def layer_self_s(self) -> dict[str, float]:
        totals = self.span_totals()
        return {layer: sum(totals[p][2] for p in paths if p in totals)
                for layer, paths in SPANS.items()}

    def metrics(self, items: int, tree_records: int, retries: int) -> dict:
        """Per-layer metrics of one traced report; ``items``,
        ``tree_records`` and ``retries`` come from the report itself."""
        totals = self.span_totals()
        layer = self.layer_self_s()

        def calls(path):
            return totals.get(path, (0, 0.0, 0.0))[0]

        def total_s(path):
            return totals.get(path, (0, 0.0, 0.0))[1]

        def self_s(path):
            return totals.get(path, (0, 0.0, 0.0))[2]

        lookups = self.cache_hits + self.cache_misses
        built = self.pole_tree_points
        return {
            "padic.arith_calls": self.padic_arith_calls,
            "padic.arith_s": self.padic_arith_s,
            "padic.from_rational_calls": self.counts["padic.from_rational"],
            "hensel.self_s": layer["hensel"],
            "hensel.principal_kth_root_calls":
                calls("hensel.principal_kth_root"),
            "hensel.principal_kth_root_s": total_s("hensel.principal_kth_root"),
            "hensel.poly_evals": sum(self.counts[p] for p in POLY_EVALS),
            "hensel.roots_of_unity_calls": calls("hensel.roots_of_unity"),
            "mapping.self_s": layer["mapping"],
            "mapping.eval_f_calls": calls("mapping.eval_f"),
            "mapping.eval_f_self_s": self_s("mapping.eval_f"),
            "mapping.inverse_branch_calls": calls("mapping.inverse_branch"),
            "mapping.inverse_branch_self_s": self_s("mapping.inverse_branch"),
            "mapping.build_partition_hit_ratio":
                self.cache_hits / lookups if lookups else 0.0,
            "mapping.pole_hits": self.pole_hits,
            "mapping.pole_hits_inexact": self.pole_hits_inexact,
            "dynamics.self_s": layer["dynamics"],
            "dynamics.orbit_self_s": self_s("dynamics.orbit"),
            "dynamics.basin_classify_self_s": self_s("dynamics.basin_classify"),
            "dynamics.cylinder_point_calls": calls("dynamics.cylinder_point"),
            "dynamics.cylinder_point_self_s":
                self_s("dynamics.cylinder_point"),
            "dynamics.df_metric_self_s": self_s("dynamics.df_metric"),
            "dynamics.pole_tree_calls": calls("dynamics.pole_preimage_tree"),
            "dynamics.pole_tree_self_s": self_s("dynamics.pole_preimage_tree"),
            "dynamics.pole_tree_useful_ratio":
                tree_records / built if built else 0.0,
            "dynamics.precision_errors": self.precision_errors,
            "sampling.self_s": layer["sampling"],
            "sampling.samples_drawn": self.samples_drawn,
            "verify.self_s": layer["verify"],
            "verify.eval_f_per_record":
                calls("mapping.eval_f") / items if items else 0.0,
            "verify.retries": retries,
            "verify.canonical_json_s": total_s("verify.canonical_json"),
            "cli.self_s": layer["cli"],
        }

    def write_spans(self, path: str, run: str) -> None:
        """All spans of the run as one JSON object; times in seconds
        relative to the first span's start."""
        base = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "run": run,
                "fields": ["id", "parent", "name", "start", "end"],
                "spans": [[sid, parent, name, t0 - base, t1 - base]
                          for sid, (parent, name, t0, t1)
                          in enumerate(self.spans)],
            }, fh, separators=(",", ":"))
            fh.write("\n")
