"""Span tracing for the traced benchmark run, applied from outside the program.

`Tracer.install()` replaces, for the life of the `with` block, each
public function at the module attribute through which the next layer up
calls it (for example `chiralcp.potential.trace_G_imaginary`, the name
the potential layer uses, not `chiralcp.greens.trace_G_imaginary`). Each
call becomes a span (kind, start, end, parent) kept in flat arrays, and
the wrappers count work at the same boundaries: integrand points, series
terms, trace frequencies, right-hand-side evaluations and history rows.
Nothing under src/ is edited; leaving the block restores every name.

A span's self time is its duration minus the durations of its direct
children; a layer's self time sums that over the layer's spans.
"""

from __future__ import annotations

import contextlib
import importlib
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span kind). Each kind belongs to the layer named by
# its prefix.
WRAP_POINTS = (
    ("chiralcp.potential", "integrate_adaptive", "quadrature.adaptive"),
    ("chiralcp.greens", "integrate_adaptive", "quadrature.adaptive"),
    ("chiralcp.potential", "sum_series", "quadrature.series_matsubara"),
    ("chiralcp.greens", "sum_series", "quadrature.series_image"),
    ("chiralcp.potential", "trace_G_imaginary", "greens.trace"),
    ("chiralcp.potential", "trace_curl_G_imaginary", "greens.trace"),
    ("chiralcp.potential", "trace_G_real_resonant", "greens.trace"),
    ("chiralcp.potential", "trace_curl_G_real_resonant", "greens.trace"),
    ("chiralcp.potential", "trace_G_xi2_zero_limit", "greens.trace"),
    ("chiralcp.potential", "potential_components", "potential.point"),
    ("chiralcp.scenarios", "potential_components", "potential.point"),
    ("chiralcp.potential", "component_grid", "potential.grid"),
    ("chiralcp.scenarios", "component_grid", "potential.grid"),
    ("chiralcp.dynamics", "component_grid", "potential.grid"),
    ("chiralcp.scenarios", "force_field_pair", "dynamics.field"),
    ("chiralcp.scenarios", "run_ensemble", "dynamics.ensemble"),
    ("chiralcp.dynamics", "integrate_trajectory", "dynamics.trajectory"),
    ("chiralcp.dynamics", "solve_ivp", "dynamics.solve_ivp"),
    ("chiralcp.scenarios", "write_trajectories_csv", "dynamics.history_write"),
)


class Tracer:
    """In-memory span and counter store for one traced scenario run."""

    def __init__(self):
        self.kinds: list[str] = ["scenarios.run"]
        self._code = {"scenarios.run": 0}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = {
            "quadrature.adaptive_evals": 0,
            "greens.trace_values": 0,
            "greens.image_terms": 0,
            "greens.image_terms_max": 0,
            "potential.matsubara_terms": 0,
            "potential.matsubara_terms_max": 0,
            "dynamics.rhs_evals": 0,
            "dynamics.history_rows": 0,
        }

    # -- recording --------------------------------------------------------

    def _code_of(self, kind: str) -> int:
        if kind not in self._code:
            self._code[kind] = len(self.kinds)
            self.kinds.append(kind)
        return self._code[kind]

    def _wrap(self, fn, kind: str, prep=None, post=None):
        code = self._code_of(kind)
        kinds, parents, starts, ends, stack = (
            self.kind, self.parent, self.start, self.end, self._stack)

        def traced(*args, **kwargs):
            idx = len(kinds)
            kinds.append(code)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            if prep is not None:
                args, state = prep(args)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if post is not None:
                post(args, result, state if prep is not None else None)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, kind: str):
        """A span around the benchmark's own call into the program."""
        idx = len(self.kind)
        self.kind.append(self._code_of(kind))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        try:
            yield
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()

    # -- counting hooks ---------------------------------------------------

    def _count_evals(self, args):
        counts = self.counts
        f = args[0]

        def counted(x):
            v = f(x)
            counts["quadrature.adaptive_evals"] += np.size(x)
            return v

        return (counted,) + tuple(args[1:]), None

    def _series_hooks(self, prefix):
        counts = self.counts

        def prep(args):
            term = args[0]
            used = [0]

            def counted(j):
                used[0] += 1
                return term(j)

            return (counted,) + tuple(args[1:]), used

        def post(args, result, used):
            counts[prefix] += used[0]
            if used[0] > counts[prefix + "_max"]:
                counts[prefix + "_max"] = used[0]

        return prep, post

    def _count_trace_values(self, args, result, state):
        self.counts["greens.trace_values"] += int(np.size(args[0]))

    def _count_rhs(self, args, result, state):
        self.counts["dynamics.rhs_evals"] += int(result.nfev)

    def _count_rows(self, args, result, state):
        self.counts["dynamics.history_rows"] += sum(
            1 if r.history is None else len(r.history.t) for r in args[1])

    def _hooks(self, kind):
        if kind == "quadrature.adaptive":
            return self._count_evals, None
        if kind == "quadrature.series_matsubara":
            return self._series_hooks("potential.matsubara_terms")
        if kind == "quadrature.series_image":
            return self._series_hooks("greens.image_terms")
        if kind == "greens.trace":
            return None, self._count_trace_values
        if kind == "dynamics.solve_ivp":
            return None, self._count_rhs
        if kind == "dynamics.history_write":
            return None, self._count_rows
        return None, None

    @contextlib.contextmanager
    def install(self):
        """Wrap every WRAP_POINTS name; restore the originals on exit."""
        saved = []
        try:
            for mod_name, attr, kind in WRAP_POINTS:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                prep, post = self._hooks(kind)
                setattr(mod, attr, self._wrap(original, kind, prep, post))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    # -- results ------------------------------------------------------------

    def arrays(self):
        kind = np.frombuffer(self.kind, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return kind, dur, dur - child

    def save(self, path):
        np.savez_compressed(
            path, kinds=np.array(self.kinds), kind=np.frombuffer(self.kind, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float))

    def layer_metrics(self) -> dict:
        """Per-layer metrics as name -> (value, unit)."""
        kind, dur, self_time = self.arrays()

        def select(*names):
            codes = [self._code[n] for n in names if n in self._code]
            return np.isin(kind, codes)

        def n(*names):
            return int(np.count_nonzero(select(*names)))

        def incl(*names):
            return float(np.sum(dur[select(*names)]))

        def own(*names):
            return float(np.sum(self_time[select(*names)]))

        def per(total, count, scale):
            return total / count * scale if count else 0.0

        c = self.counts
        series = ("quadrature.series_matsubara", "quadrature.series_image")
        return {
            "quadrature.adaptive_calls": (n("quadrature.adaptive"), "count"),
            "quadrature.adaptive_evals": (c["quadrature.adaptive_evals"], "count"),
            "quadrature.adaptive_self_s": (own("quadrature.adaptive"), "s"),
            "quadrature.series_self_s": (own(*series), "s"),
            "greens.trace_calls": (n("greens.trace"), "count"),
            "greens.trace_values": (c["greens.trace_values"], "count"),
            "greens.us_per_trace_value": (
                per(incl("greens.trace"), c["greens.trace_values"], 1e6), "us"),
            "greens.image_terms": (c["greens.image_terms"], "count"),
            "greens.image_terms_max": (c["greens.image_terms_max"], "count"),
            "greens.trace_self_s": (own("greens.trace"), "s"),
            "potential.points": (n("potential.point"), "count"),
            "potential.ms_per_point": (
                per(incl("potential.point"), n("potential.point"), 1e3), "ms"),
            "potential.matsubara_terms": (c["potential.matsubara_terms"], "count"),
            "potential.matsubara_terms_max": (c["potential.matsubara_terms_max"], "count"),
            "potential.grid_s": (incl("potential.grid"), "s"),
            "dynamics.field_s": (incl("dynamics.field"), "s"),
            "dynamics.trajectories": (n("dynamics.trajectory"), "count"),
            "dynamics.ms_per_trajectory": (
                per(incl("dynamics.trajectory"), n("dynamics.trajectory"), 1e3), "ms"),
            "dynamics.rhs_evals": (c["dynamics.rhs_evals"], "count"),
            "dynamics.history_rows": (c["dynamics.history_rows"], "count"),
            "dynamics.history_write_s": (incl("dynamics.history_write"), "s"),
            "scenarios.write_s": (own("scenarios.run"), "s"),
            "trace.spans": (len(dur), "count"),
        }
