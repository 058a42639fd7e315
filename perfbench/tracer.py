"""Spans around ckgeo's layers, recorded from outside the package.

Each layer is one ckgeo module.  Its public functions and the public
methods of Space and MPlane are replaced by wrappers, both where they are
defined and wherever another module imported them by name, so a call from
one layer into another becomes a child span.  Spans stay in memory as
(name, start, end, parent, op) and are written out once, at the end.

A layer's self time is the duration of its spans minus the part covered by
their child spans; it is accumulated as spans close.  Time inside an op but
outside every span is the benchmark's own.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

LAYERS = ("cli", "metric", "entity", "transform", "gtrig", "kernel", "volume")
CLASS_METHODS = {"entity": ("Space", "MPlane")}
TABLES = ("point_cross_table", "plane_tables")


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, type):
            continue
        if callable(obj):
            yield name, obj


class Tracer:
    """Installs the wrappers and accumulates spans and per-layer counters."""

    def __init__(self, package):
        self.package = package
        self.modules = {layer: sys.modules[package.__name__ + "." + layer] for layer in LAYERS}
        self.errors_base = sys.modules[package.__name__ + ".errors"].GeometryError
        self.imaginary_type = self.modules["entity"].Imaginary
        self.names: list = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack: list = []  # [span index, layer index, child time]
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.errors = [0] * len(LAYERS)
        self.cross = [0, 0]  # [cross products returned, of them Imaginary]
        self.reports = [0, 0]  # [validation reports, of them sampled]
        self.samples: dict = {}  # case -> [samples, hits]
        self.op = -1
        self.case = None
        self.tables = [getattr(self.modules["kernel"], name) for name in TABLES]
        self._undo: list = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        replaced = {}
        for li, layer in enumerate(LAYERS):
            module = self.modules[layer]
            for name, fn in list(_public_functions(module)):
                replaced[id(fn)] = (fn, self._wrap(fn, "%s.%s" % (layer, name), li, name))
            for cls_name in CLASS_METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                for name, fn in list(vars(cls).items()):
                    if name.startswith("_") or not callable(fn):
                        continue
                    wrapped = self._wrap(fn, "%s.%s.%s" % (layer, cls_name, name), li, name)
                    self._undo.append((cls, name, fn))
                    setattr(cls, name, wrapped)
        # Rebind at every import site: the defining module, the other layers
        # and the package namespace.
        sites = list(self.modules.values()) + [self.package]
        for module in sites:
            for name, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((module, name, obj))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._undo):
            setattr(owner, name, obj)
        self._undo.clear()

    def _wrap(self, fn, label: str, layer: int, name: str):
        name_id = len(self.names)
        self.names.append(label)
        stack = self.stack
        calls, self_s, errors = self.calls, self.self_s, self.errors
        starts, ends = self.span_start, self.span_end
        span_name, span_parent, span_op = self.span_name, self.span_parent, self.span_op
        error_type = self.errors_base
        observe = self._observer(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            parent = stack[-1] if stack else None
            span_name.append(name_id)
            span_parent.append(parent[0] if parent else -1)
            span_op.append(self.op)
            ends.append(0.0)
            frame = [index, layer, 0.0]
            stack.append(frame)
            calls[layer] += 1
            t0 = perf_counter()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            except error_type:
                if parent is None or parent[1] != layer:
                    errors[layer] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                ends[index] = t1
                duration = t1 - t0
                self_s[layer] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observer(self, name: str):
        if name in ("cross_points", "cross_planes"):
            imaginary = self.imaginary_type

            def cross(args, result):
                self.cross[0] += 1
                self.cross[1] += isinstance(result, imaginary)

            return cross
        if name == "validate":

            def report(args, result):
                self.reports[0] += 1
                self.reports[1] += result.mode == "sampled"

            return report
        if name == "mc_volume":

            def estimate(args, result):
                tally = self.samples.setdefault(self.case, [0, 0])
                tally[0] += result.samples
                tally[1] += result.hits

            return estimate
        return None

    # -- results ----------------------------------------------------------------

    def table_misses(self) -> int:
        return sum(table.cache_info().misses for table in self.tables)

    def metrics(self, wall: float, cases) -> dict:
        """Per-layer counters over a traced wall time (seconds inside ops)."""
        out = {}
        for li, layer in enumerate(LAYERS):
            out[layer + ".calls"] = (self.calls[li], "count")
            out[layer + ".self_share"] = (self.self_s[li] / wall, "share")
            out[layer + ".errors"] = (self.errors[li], "count")
        out["bench.self_share"] = (1.0 - sum(self.self_s) / wall, "share")
        out["kernel.table_misses"] = (self.table_misses(), "count")
        out["entity.imaginary_share"] = (self.cross[1] / max(1, self.cross[0]), "share")
        out["transform.sampled_share"] = (self.reports[1] / max(1, self.reports[0]), "share")
        out["volume.samples"] = (sum(v[0] for v in self.samples.values()), "count")
        for case in cases:
            samples, hits = self.samples.get(case, (0, 0))
            out["volume.hit_rate." + case] = (hits / max(1, samples), "share")
        return out

    def self_seconds(self) -> dict:
        return {layer: self.self_s[li] for li, layer in enumerate(LAYERS)}

    def dump(self, path) -> int:
        """Write the spans as a NumPy archive; returns the span count."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )
        return len(self.span_start)
