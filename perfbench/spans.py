"""Spans around the public functions of each stepcross layer, timed from
outside the package.

``Tracer.install`` replaces every binding of each traced function (in the
defining module, in every module that imported it, and in the package
namespace) with a wrapper that records a span; ``Tracer.uninstall`` puts the
originals back.  A span's self time is its duration minus the durations of
the spans it called, so the self times of all spans add up to the time spent
inside top-level spans.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

# layer (module) -> public functions whose spans are recorded
TRACED = {
    "poly": ("eval_grid", "blocks_of", "project_cross"),
    "norms": ("lp_norm", "bq1_norm", "nikolskii_check"),
    "kernels": ("smooth_block", "filter_support_blocks", "smooth_aggregate"),
    "blocks": ("hyperbolic_cross", "weighted_tail_sums"),
    "extremal": ("dirichlet_shell", "shell_extremal", "shifted_rect_sample"),
    "approx": ("fourier_sum_error", "best_approx_upper", "projector_norm_probe",
               "random_mixed_poly"),
    "rates": ("sweep_extremal", "fit_rates"),
    "entropy": ("covering_number_exact", "packing_number_exact",
                "covering_number_greedy", "packing_number_greedy"),
    "experiments": ("run_experiment", "write_csv"),
}

# lp_norm spans are keyed by the method its arguments select
LP_METHODS = ("parseval", "even", "selfcheck", "unchecked", "gridmax")

SPAN_STATS = (("calls", "count", "lower"), ("self_s", "s", "lower"),
              ("failed", "count", "lower"))

# exact work counts recorded at the span boundaries
COUNTS = (
    ("poly.eval_grid.points", "count", "lower"),
    ("poly.eval_grid.max_points", "count", "lower"),
    # computed, not measured: the complex128 spectrum written plus the samples
    # returned, 32 bytes per grid point
    ("poly.eval_grid.computed_bytes", "bytes", "lower"),
    ("norms.lp_norm.selfcheck.grids", "count/call", "lower"),
    ("kernels.smooth_block.in_nnz", "count", "lower"),
    ("kernels.smooth_block.useful_ratio", "frac", "higher"),
    ("extremal.dirichlet_shell.out_nnz", "count", "lower"),
)

# whole-run figures the benchmark adds to the span metrics
RUN_FIGURES = (
    ("process.cpu_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.span_frac", "frac", "higher"),
)


def span_keys() -> list[str]:
    keys = []
    for module, names in TRACED.items():
        for name in names:
            keys.append(f"{module}.{name}")
            if name == "lp_norm":
                keys += [f"norms.lp_norm.{m}" for m in LP_METHODS]
    return keys


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = [(f"{key}.{stat}", unit, better)
           for key in span_keys() for stat, unit, better in SPAN_STATS]
    return out + list(COUNTS) + list(RUN_FIGURES)


def lp_method(args, kwargs) -> str:
    """The method ``lp_norm(f, p, grid)`` uses, read from its arguments."""
    p = args[1] if len(args) > 1 else kwargs["p"]
    grid = args[2] if len(args) > 2 else kwargs.get("grid")
    if p == 2:
        return "parseval"
    if math.isinf(p):
        return "gridmax"
    if p == int(p) and int(p) % 2 == 0:
        return "even"
    if grid is not None and (grid.points_per_dim is not None or not grid.self_check):
        return "unchecked"
    return "selfcheck"


class Tracer:
    """Span collector; ``clock`` is replaceable so tests can drive it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {key: {"calls": 0, "self_s": 0.0, "failed": 0} for key in span_keys()}
        self.counts = {"points": 0, "max_points": 0, "selfcheck_grids": 0,
                       "in_nnz": 0, "useful": 0, "out_nnz": 0}
        self.top_s = 0.0
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, key: str, fn):
        """``fn`` recorded as span ``key`` (lp_norm: one key per method)."""
        classify = (lambda a, k: f"{key}.{lp_method(a, k)}") if key == "norms.lp_norm" else None
        count = self._counters.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [classify(args, kwargs) if classify else key, 0.0]
            parent = self._stack[-1] if self._stack else None
            self._stack.append(frame)
            start = self.clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dur = self.clock() - start
                self._stack.pop()
                stat = self.spans[frame[0]]
                stat["calls"] += 1
                stat["self_s"] += dur - frame[1]
                stat["failed"] += not ok
                if parent is None:
                    self.top_s += dur
                else:
                    parent[1] += dur
                if ok and count:
                    count(self, parent, args, result)

        return wrapper

    def _count_eval_grid(self, parent, args, values):
        self.counts["points"] += values.size
        self.counts["max_points"] = max(self.counts["max_points"], values.size)
        if parent is not None and parent[0] == "norms.lp_norm.selfcheck":
            self.counts["selfcheck_grids"] += 1

    def _count_smooth_block(self, parent, args, block):
        self.counts["in_nnz"] += args[0].nnz
        self.counts["useful"] += not block.is_zero()

    def _count_dirichlet_shell(self, parent, args, poly):
        self.counts["out_nnz"] += poly.nnz

    _counters = {
        "poly.eval_grid": _count_eval_grid,
        "kernels.smooth_block": _count_smooth_block,
        "extremal.dirichlet_shell": _count_dirichlet_shell,
    }

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every module binding in the process."""
        for module, names in TRACED.items():
            mod = importlib.import_module(f"stepcross.{module}")
            for name in names:
                original = getattr(mod, name)
                wrapper = self.wrap(f"{module}.{name}", original)
                for holder in list(sys.modules.values()):
                    namespace = getattr(holder, "__dict__", None)
                    if namespace is None:
                        continue
                    for attr, value in list(namespace.items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._patched.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        spans = dict(self.spans)
        spans["norms.lp_norm"] = {
            stat: sum(spans[f"norms.lp_norm.{m}"][stat] for m in LP_METHODS)
            for stat, _, _ in SPAN_STATS
        }
        out = {f"{key}.{stat}": spans[key][stat]
               for key in span_keys() for stat, _, _ in SPAN_STATS}
        c = self.counts
        selfcheck_calls = spans["norms.lp_norm.selfcheck"]["calls"]
        smooth_calls = spans["kernels.smooth_block"]["calls"]
        out.update({
            "poly.eval_grid.points": c["points"],
            "poly.eval_grid.max_points": c["max_points"],
            "poly.eval_grid.computed_bytes": 32 * c["points"],
            "norms.lp_norm.selfcheck.grids":
                c["selfcheck_grids"] / selfcheck_calls if selfcheck_calls else 0.0,
            "kernels.smooth_block.in_nnz": c["in_nnz"],
            "kernels.smooth_block.useful_ratio":
                c["useful"] / smooth_calls if smooth_calls else 0.0,
            "extremal.dirichlet_shell.out_nnz": c["out_nnz"],
        })
        return out
