"""Span recorder for the benchmark's traced run.

The traced run calls ``cli_main`` in-process after :func:`install` has
wrapped the public functions of every ``pathwise_ito`` module in spans.  The
wrappers are patched in from here, into every module namespace that holds the
original object (``pathwise_ito.ito.qv_measures`` as well as
``pathwise_ito.qv.qv_measures``, and the names ``cli`` imports), so the
library's own files stay untouched.

Spans are kept in memory, aggregated per name, and written out once at the
end.  A span's self time is its duration minus the time its child spans
cover.  Each wrapped function also belongs to a group; a group's time counts
only the outermost open span of the group, so recursion (``build_functional``)
and nesting inside one group (``load_sampled_path`` around
``read_path_table``) are not counted twice.

``reduction.running_sum`` is deliberately not wrapped: it is a one-line
cumsum called from the qv and stieltjes layers, and wrapping it would move
their time into ``reduction.self_s``, which is meant to hold the per-cell
``fill`` loop that ``map_chunked`` runs.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import numbers
import os
import sys
import time
from collections import defaultdict


class SpanRecorder:
    """Aggregated spans: calls and self time per name, time per group."""

    def __init__(self) -> None:
        self._open: list[list[float]] = []  # child time of each open span
        self._depth: dict[str, int] = defaultdict(int)  # open spans per group
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.group_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, group: str, fn, hook=None):
        """``fn`` inside a span; ``hook(counters, args, kwargs)`` counts work
        before the call and may return a callable to run after it."""
        open_, depth, perf = self._open, self._depth, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            after = hook(self.counters, args, kwargs) if hook is not None else None
            child = [0.0]
            open_.append(child)
            depth[group] += 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - start
                open_.pop()
                depth[group] -= 1
                if open_:
                    open_[-1][0] += dur
                self.calls[name] += 1
                self.self_s[name] += dur - child[0]
                if depth[group] == 0:
                    self.group_s[group] += dur
                if after is not None:
                    after()

        return span

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "group_s": dict(self.group_s),
            "counters": dict(self.counters),
        }


# ---------------------------------------------------------------------------
# Work counters, computed from the call's arguments


def _binder(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _levels(levels, num_levels: int) -> list[int]:
    if levels is None:
        return list(range(1, num_levels + 1))
    if isinstance(levels, numbers.Integral):
        return [int(levels)]
    return [int(n) for n in levels]


def _cells(n_points: int, level: int, num_levels: int) -> int:
    return len(range(0, n_points - 1, 2 ** (num_levels - level)))


def _ito_integral_hook(fn):
    bind = _binder(fn)

    def hook(counters, args, kwargs):
        a = bind(args, kwargs)
        x, part = a["x"], a["partition"]
        cells = sum(
            _cells(x.n_points, n, part.num_levels)
            for n in _levels(a["levels"], part.num_levels)
        )
        counters["ito.cells"] += cells
        if not a["plain_riemann"]:
            # each cell rebuilds a full (N, d) float64 pre-step path
            counters["ito.pre_step_bytes"] += cells * x.n_points * x.d * 8

    return hook


def _qv_hook(fn, per_call_levels):
    bind = _binder(fn)

    def hook(counters, args, kwargs):
        a = bind(args, kwargs)
        passes = per_call_levels(a)
        d = a["x"].d if "component" not in a else 1
        counters["qv.level_passes"] += passes
        counters["qv.polarization_passes"] += passes * (d + d * (d - 1) // 2)

    return hook


def _bytes_hook(position: int, keyword: str):
    """Count the CSV bytes a reader or writer moves: the file's size for a
    file name, the stream position's advance for an open stream."""

    def hook(counters, args, kwargs):
        target = args[position] if len(args) > position else kwargs[keyword]
        if not hasattr(target, "tell"):

            def after():
                counters["paths.csv_bytes"] += os.path.getsize(target)

            return after
        start = target.tell()

        def after():
            counters["paths.csv_bytes"] += target.tell() - start

        return after

    return hook


# ---------------------------------------------------------------------------
# What gets wrapped: (module, attribute or Class.method, group or None)

_TABLE = [
    ("cli", "cli_main", None),
    ("config", "load_config", "config.build"),
    ("config", "build_functional", "config.build"),
    ("expressions", "compile_expression", "expressions.compile"),
    ("expressions", "CompiledExpression.__call__", "expressions.eval"),
    ("functionals", "Functional.evaluate", None),
    ("functionals", "Functional.vertical", None),
    ("functionals", "Functional.vertical2", None),
    ("functionals", "Functional.horizontal", None),
    ("functionals", "fd_vertical", "functionals.fd"),
    ("functionals", "fd_vertical2", "functionals.fd"),
    ("functionals", "fd_horizontal", "functionals.fd"),
    ("functionals", "time_average_path", None),
    ("functionals", "running_max_path", None),
    ("functionals", "quadratic_variation_path", None),
    ("functionals", "probe_regularity", None),
    ("ito", "ito_integral", None),
    ("ito", "ito_formula_report", None),
    ("ito", "build_Y", None),
    ("ito", "augment", None),
    ("ito", "qv_of_Y_check", None),
    ("ito", "associativity_check", None),
    ("ito", "corollary_decomposition", None),
    ("reduction", "map_chunked", None),
    ("qv", "qv_scalar", None),
    ("qv", "qv_matrix", None),
    ("qv", "qv_measures", None),
    ("qv", "qv_converged", None),
    ("stieltjes", "cumulative_stieltjes", None),
    ("stieltjes", "stieltjes_integral", None),
    ("stieltjes", "stieltjes_associativity_check", None),
    ("stieltjes", "measures_with_clock", None),
    ("stieltjes", "total_variation", None),
    ("paths", "stop", None),
    ("paths", "pre_step", None),
    ("paths", "stepped_approx", None),
    ("paths", "sup_distance", None),
    ("paths", "read_path_table", "paths.csv_read"),
    ("paths", "load_sampled_path", "paths.csv_read"),
    ("paths", "load_bv_path", "paths.csv_read"),
    ("paths", "write_path_csv", "paths.csv_write"),
    ("paths", "path_to_csv_text", "paths.csv_write"),
    ("pathgen", "generate", None),
]


def _hook_for(layer: str, attr: str, fn):
    if (layer, attr) == ("ito", "ito_integral"):
        return _ito_integral_hook(fn)
    if layer == "qv":
        if attr == "qv_converged":
            return _qv_hook(
                fn,
                lambda a: len(_levels(a["levels"], a["partition"].num_levels)),
            )
        return _qv_hook(fn, lambda a: 1)
    if attr == "read_path_table":
        return _bytes_hook(0, "src")
    if attr == "write_path_csv":
        return _bytes_hook(1, "dest")
    return None


def install(recorder: SpanRecorder) -> None:
    """Wrap every function in the table, in every namespace that holds it."""
    for layer, attr, group in _TABLE:
        module = importlib.import_module(f"pathwise_ito.{layer}")
        name = f"{layer}.{attr}"
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            fn = cls.__dict__[method]
            setattr(cls, method, recorder.wrap(name, group or name, fn, _hook_for(layer, attr, fn)))
            continue
        fn = getattr(module, attr)
        wrapped = recorder.wrap(name, group or name, fn, _hook_for(layer, attr, fn))
        for mod in list(sys.modules.values()):
            if mod is None or not mod.__name__.startswith("pathwise_ito"):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced pass


def _layer_self(snap: dict, layer: str) -> float:
    return float(sum(v for k, v in snap["self_s"].items() if k.startswith(layer + ".")))


def _calls(snap: dict, *names: str) -> int:
    return sum(snap["calls"].get(n, 0) for n in names)


def _calls_in(snap: dict, layer: str) -> int:
    return sum(v for k, v in snap["calls"].items() if k.startswith(layer + "."))


def layer_metrics(snap: dict | None) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from a span snapshot
    (all zero for None, which lists the names and units)."""
    snap = snap or {"calls": {}, "self_s": {}, "group_s": {}, "counters": {}}
    g, c = snap["group_s"], snap["counters"]
    fd = ("functionals.fd_vertical", "functionals.fd_vertical2", "functionals.fd_horizontal")
    return {
        "ito.integral_calls": (_calls(snap, "ito.ito_integral"), "count"),
        "ito.cells": (c.get("ito.cells", 0), "count"),
        "ito.self_s": (_layer_self(snap, "ito"), "s"),
        "ito.pre_step_bytes_computed": (c.get("ito.pre_step_bytes", 0), "bytes"),
        "reduction.map_chunked_s": (g.get("reduction.map_chunked", 0.0), "s"),
        "reduction.self_s": (_layer_self(snap, "reduction"), "s"),
        "functionals.evaluate_calls": (_calls(snap, "functionals.Functional.evaluate"), "count"),
        "functionals.vertical_calls": (_calls(snap, "functionals.Functional.vertical"), "count"),
        "functionals.vertical2_calls": (_calls(snap, "functionals.Functional.vertical2"), "count"),
        "functionals.horizontal_calls": (_calls(snap, "functionals.Functional.horizontal"), "count"),
        "functionals.self_s": (_layer_self(snap, "functionals"), "s"),
        "functionals.fd_calls": (_calls(snap, *fd), "count"),
        "functionals.fd_s": (g.get("functionals.fd", 0.0), "s"),
        "expressions.eval_calls": (_calls(snap, "expressions.CompiledExpression.__call__"), "count"),
        "expressions.eval_s": (g.get("expressions.eval", 0.0), "s"),
        "expressions.compile_calls": (_calls(snap, "expressions.compile_expression"), "count"),
        "expressions.compile_s": (g.get("expressions.compile", 0.0), "s"),
        "config.build_s": (g.get("config.build", 0.0), "s"),
        "paths.stop_calls": (_calls(snap, "paths.stop"), "count"),
        "paths.stop_s": (g.get("paths.stop", 0.0), "s"),
        "paths.csv_read_s": (g.get("paths.csv_read", 0.0), "s"),
        "paths.csv_write_s": (g.get("paths.csv_write", 0.0), "s"),
        "paths.csv_bytes": (c.get("paths.csv_bytes", 0), "bytes"),
        "pathgen.generate_s": (g.get("pathgen.generate", 0.0), "s"),
        "qv.calls": (_calls_in(snap, "qv"), "count"),
        "qv.level_passes": (c.get("qv.level_passes", 0), "count"),
        "qv.polarization_passes_computed": (c.get("qv.polarization_passes", 0), "count"),
        "qv.self_s": (_layer_self(snap, "qv"), "s"),
        "stieltjes.calls": (_calls_in(snap, "stieltjes"), "count"),
        "stieltjes.self_s": (_layer_self(snap, "stieltjes"), "s"),
        "cli.self_s": (_layer_self(snap, "cli"), "s"),
    }
