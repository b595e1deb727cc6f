"""Outside-in tracer: spans around qhelly's functions, with no change to qhelly.

install() replaces each target function by a wrapper in every qhelly
module that binds it, including module-level dicts such as the cli's
renderer table, so calls through any import path are seen.  A span is
(operation, name, start, end, parent, nested, value): nested is true
when a span of the same name is already open (its time is then inside
the outer one), and value is a count taken from the call's arguments
or result.  Spans stay in memory; inproc.py writes them out when its
run ends.  A target missing from the code is listed as absent instead
of failing the run.

layer_metrics() turns a span list into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    name: str  # span name, the prefix of its metrics
    module: str
    qualname: str  # attribute path inside the module, e.g. "CensusStore.save"
    value: Optional[Callable] = None  # (args, kwargs, result) -> JSON value


def _hull_dims(args, kwargs, result):
    return [result.affine_dim, result.ambient_dim]


def _enumerated(args, kwargs, result):
    i_max = args[0] if args else kwargs["i_max"]
    return [i_max, sum(len(bucket) for bucket in result.values())]


TARGETS = (
    Target("cli.render", "qhelly.cli", "render_csv"),
    Target("cli.render", "qhelly.cli", "render_json"),
    Target("cli.render", "qhelly.cli", "render_svg"),
    Target("census.enumerate", "qhelly.census", "enumerate_polygon_classes", _enumerated),
    Target("census.dfs", "qhelly.census", "_enumerate_rows", lambda a, kw, r: len(a[4])),
    Target("census.leaf", "qhelly.census", "_leaf_to_class", lambda a, kw, r: r is None),
    Target("census.save", "qhelly.census", "CensusStore.save", lambda a, kw, r: r.stat().st_size),
    Target("census.parse", "qhelly.census", "parse_census_file", lambda a, kw, r: len(a[0])),
    Target("census.validate", "qhelly.census", "_class_from_vertices"),
    Target("census.profile", "qhelly.census", "c_z2_profile"),
    Target("census.expand", "qhelly.census", "expand_to_maximal", lambda a, kw, r: r.rounds),
    Target("census.width", "qhelly.census", "lattice_width_2d"),
    Target("lattice.hull", "qhelly.lattice", "convex_hull", _hull_dims),
    Target("lattice.points", "qhelly.lattice", "lattice_points_in", lambda a, kw, r: len(r)),
    Target("lattice.census", "qhelly.lattice", "census"),
    Target("lattice.canonical", "qhelly.lattice", "canonical_form_2d"),
    Target("lattice.closure", "qhelly.lattice", "closure"),
    Target("engine.enumerate", "qhelly.engine", "enumerate_convex_subsets", lambda a, kw, r: len(r)),
    Target("engine.profile", "qhelly.engine", "g_profile"),
    Target("witnesses.build", "qhelly.witnesses", "tight_recipes"),
    Target("witnesses.build", "qhelly.witnesses", "tight_witness"),
    Target("witnesses.build", "qhelly.witnesses", "lower_bound_witness"),
    Target("witnesses.verify", "qhelly.witnesses", "verify_witness"),
    Target("witnesses.recount", "qhelly.witnesses", "_recount", lambda a, kw, r: r.total_points),
    Target("constants.certify", "qhelly.constants", "certify_constant_estimates"),
    Target("constants.certify", "qhelly.constants", "certify_growth_chain"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.absent: list[str] = []
        self.op = 0
        self._open: list[int] = []
        self._depth: dict[str, int] = {}
        self._undo: list = []

    def install(self, targets=TARGETS) -> None:
        importlib.import_module("qhelly.cli")  # imports every layer
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "qhelly"]
        for target in targets:
            owner = sys.modules.get(target.module)
            *path, attr = target.qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{target.name} ({target.module}:{target.qualname})")
                continue
            wrapper = self._wrap(target, original)
            self._rebind(owner, attr, wrapper)
            for module in modules:
                for key, val in list(vars(module).items()):
                    if val is original:
                        self._rebind(module, key, wrapper)
                    elif isinstance(val, dict):
                        for k2, v2 in list(val.items()):
                            if v2 is original:
                                self._undo.append((val.__setitem__, k2, original))
                                val[k2] = wrapper

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._undo.append((functools.partial(setattr, owner), attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            put, key, original = self._undo.pop()
            put(key, original)

    def _wrap(self, target: Target, original: Callable) -> Callable:
        spans, stack, depth = self.spans, self._open, self._depth
        name, value = target.name, target.value
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            nested = depth.get(name, 0) > 0
            depth[name] = depth.get(name, 0) + 1
            stack.append(index)
            result, returned = None, False
            start = clock()
            try:
                result = original(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                got = value(args, kwargs, result) if returned and value is not None else None
                spans[index] = (self.op, name, start, end, parent, nested, got)

        return wrapper


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics, value and unit, from one span list."""
    time_of: dict = {}
    calls: dict = {}
    self_of: dict = {}
    values: dict = {}
    child_time = [0.0] * len(spans)
    for op, name, start, end, parent, nested, value in spans:
        if parent >= 0:
            child_time[parent] += end - start
    hull_flat = 0
    hull_dd = 0.0
    closure_in_enumerate = 0
    for index, (op, name, start, end, parent, nested, value) in enumerate(spans):
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        values.setdefault(name, []).append(value)
        if not nested:
            time_of[name] = time_of.get(name, 0.0) + duration
        self_of[name] = self_of.get(name, 0.0) + duration - child_time[index]
        if name == "lattice.hull" and value is not None:
            hull_flat += value[0] < value[1]
            if value[0] >= 3 and not nested:
                hull_dd += duration
        if name == "lattice.closure" and parent >= 0 and spans[parent][1] == "engine.enumerate":
            closure_in_enumerate += 1

    def total(name):
        return sum(v for v in values.get(name, ()) if v is not None)

    enumerated = [v for v in values.get("census.enumerate", ()) if v is not None]
    validated = calls.get("census.leaf", 0) - total("census.leaf")
    kept = sum(v[1] for v in enumerated)
    closed = total("engine.enumerate")

    out = {}

    def put(metric, value, unit):
        out[metric] = {"value": value, "unit": unit}

    put("cli.render_s", time_of.get("cli.render", 0.0), "s")
    put("census.enumerate.calls", calls.get("census.enumerate", 0), "count")
    put("census.enumerate.imax_sum", sum(v[0] for v in enumerated), "count")
    put("census.dfs_s", time_of.get("census.dfs", 0.0), "s")
    put("census.dfs.leaves", total("census.dfs"), "count")
    put("census.leaf_s", time_of.get("census.leaf", 0.0), "s")
    put("census.leaf.calls", calls.get("census.leaf", 0), "count")
    put("census.leaf.rejected", total("census.leaf"), "count")
    put("census.dedup.kept_ratio", _ratio(kept, validated), "ratio")
    put("census.dedup.validated", validated, "count")
    put("census.save_s", time_of.get("census.save", 0.0), "s")
    put("census.save.bytes", total("census.save"), "bytes")
    put("census.parse_s", time_of.get("census.parse", 0.0), "s")
    put("census.parse.calls", calls.get("census.parse", 0), "count")
    put("census.parse.bytes", total("census.parse"), "bytes")
    put("census.validate_s", time_of.get("census.validate", 0.0), "s")
    put("census.validate.calls", calls.get("census.validate", 0), "count")
    put("census.profile_s", self_of.get("census.profile", 0.0), "s")
    put("census.expand_s", time_of.get("census.expand", 0.0), "s")
    put("census.expand.rounds", total("census.expand"), "count")
    put("census.width_s", time_of.get("census.width", 0.0), "s")
    put("census.width.calls", calls.get("census.width", 0), "count")
    put("lattice.hull_s", time_of.get("lattice.hull", 0.0), "s")
    put("lattice.hull.calls", calls.get("lattice.hull", 0), "count")
    put("lattice.hull.flat.calls", hull_flat, "count")
    put("lattice.hull.dd_s", hull_dd, "s")
    put("lattice.points_s", time_of.get("lattice.points", 0.0), "s")
    put("lattice.points.calls", calls.get("lattice.points", 0), "count")
    put("lattice.points.returned", total("lattice.points"), "count")
    put("lattice.census_s", time_of.get("lattice.census", 0.0), "s")
    put("lattice.census.calls", calls.get("lattice.census", 0), "count")
    put("lattice.canonical_s", time_of.get("lattice.canonical", 0.0), "s")
    put("lattice.canonical.calls", calls.get("lattice.canonical", 0), "count")
    put("lattice.closure_s", time_of.get("lattice.closure", 0.0), "s")
    put("lattice.closure.calls", calls.get("lattice.closure", 0), "count")
    put("engine.enumerate_s", time_of.get("engine.enumerate", 0.0), "s")
    put("engine.enumerate.closed_sets", closed, "count")
    put("engine.enumerate.new_ratio", _ratio(closed, closure_in_enumerate), "ratio")
    put("engine.enumerate.closure_calls", closure_in_enumerate, "count")
    put("engine.profile_s", self_of.get("engine.profile", 0.0), "s")
    put("witnesses.build_s", time_of.get("witnesses.build", 0.0), "s")
    put("witnesses.verify_s", time_of.get("witnesses.verify", 0.0), "s")
    put("witnesses.recount.points", total("witnesses.recount"), "count")
    put("constants.certify_s", time_of.get("constants.certify", 0.0), "s")
    return out
