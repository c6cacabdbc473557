"""Span tracing from outside the package.

The tracer replaces public functions, and the module-level bindings other
modules call them through, with wrappers that record one span per call:
name, start, end, parent span and operation id.  Spans are kept in flat
arrays in memory and written out once, at the end of the run; self times
(a span's duration minus that of its children) are derived from them.
Nothing in the package is edited; ``uninstall`` puts every binding back.
"""

from __future__ import annotations

import importlib
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute, span name).  A span's layer is the part of its name
# before the first dot.  Functions imported into several modules are
# wrapped at every binding that a call on a workload's path goes through.
FUNCTIONS = (
    ("filippov.expr", "parse_expr", "expr.parse_expr"),
    ("filippov.core", "gradient_fd", "expr.gradient_fd"),
    ("filippov.simulate", "gradient_fd", "expr.gradient_fd"),
    ("filippov.core", "jacobian_fd", "expr.jacobian_fd"),
    ("filippov.core", "system_spec_from_dict", "core.system_spec_from_dict"),
    ("filippov.core", "boundary_data", "core.boundary_data"),
    ("filippov.core", "normal_rates", "core.normal_rates"),
    ("filippov.simulate", "sliding_field", "core.sliding_field"),
    ("filippov.simulate", "classify_region", "core.classify_region"),
    ("filippov.simulate", "fold_curvature", "core.fold_curvature"),
    ("filippov.stability", "eig3", "spectrum.eig3"),
    ("filippov.stability", "pair_sum_product", "spectrum.pair_sum_product"),
    ("filippov.stability", "classify_equilibrium",
     "stability.classify_equilibrium"),
    ("filippov.hybrid", "return_multiplier", "hybrid.return_multiplier"),
    ("filippov.hybrid", "first_return", "hybrid.first_return"),
    ("filippov.hybrid", "first_hit_plane", "hybrid.first_hit_plane"),
    ("filippov.hybrid", "first_hit_line", "hybrid.first_hit_line"),
    ("filippov.sweep", "sweep", "sweep.sweep"),
    ("filippov.sweep", "render_grid", "sweep.render_grid"),
    ("filippov.simulate", "simulate", "simulate.simulate"),
)
# (module, class, method, span name): evaluations of the parsed fields
METHODS = (
    ("filippov.expr", "ScalarField", "__call__", "expr.eval"),
    ("filippov.expr", "VectorField", "__call__", "expr.eval"),
)
LAYERS = ("expr", "core", "spectrum", "stability", "hybrid", "sweep",
          "simulate", "bench")
OP_SPAN = "bench.op"


class Tracer:
    """Records spans of wrapped calls; ``op`` is the id of the operation
    under way, set by the caller before each one."""

    def __init__(self):
        self._ids: dict[str, int] = {}  # span name -> id, in id order
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op = -1
        self.passes = 0
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self._derived = None

    def wrap(self, fn, span: str):
        nid = self._ids.setdefault(span, len(self._ids))
        names, parents, ops = self.name, self.parent, self.op_id
        starts, ends, stack = self.start, self.end, self._stack
        tracer = self

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, attr, span in FUNCTIONS:
            self._patch(importlib.import_module(module), attr, span)
        for module, cls, attr, span in METHODS:
            self._patch(getattr(importlib.import_module(module), cls), attr,
                        span)

    def _patch(self, owner, attr: str, span: str) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, span))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __len__(self) -> int:
        return len(self.start)

    # -- derived figures, per traced pass -------------------------------

    def _arrays(self):
        if self._derived is None:
            name = np.frombuffer(self.name, dtype=np.int32)
            parent = np.frombuffer(self.parent, dtype=np.int32)
            dur = np.frombuffer(self.end) - np.frombuffer(self.start)
            nested = parent >= 0
            child = np.bincount(parent[nested], weights=dur[nested],
                                minlength=len(dur))
            self._derived = (name, dur, dur - child)
        return self._derived

    def _mask(self, span: str):
        name, _, _ = self._arrays()
        nid = self._ids.get(span)
        return None if nid is None else name == nid

    def count(self, span: str) -> float:
        mask = self._mask(span)
        return 0.0 if mask is None else float(mask.sum()) / self.passes

    def total(self, span: str) -> float:
        """Inclusive seconds in ``span`` per pass."""
        mask = self._mask(span)
        return 0.0 if mask is None else float(self._arrays()[1][mask].sum()) \
            / self.passes

    def mean_us(self, span: str) -> float:
        mask = self._mask(span)
        if mask is None or not mask.any():
            return 0.0
        return float(self._arrays()[1][mask].mean()) * 1e6

    def per_op(self, span: str) -> dict[int, float]:
        """Inclusive seconds in ``span`` for each operation id, per pass."""
        mask = self._mask(span)
        if mask is None:
            return {}
        ops = np.frombuffer(self.op_id, dtype=np.int32)[mask]
        dur = self._arrays()[1][mask]
        sums = np.bincount(ops, weights=dur)
        present = np.bincount(ops) > 0
        return {int(i): float(sums[i]) / self.passes
                for i in np.flatnonzero(present)}

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer, per pass."""
        name, _, self_time = self._arrays()
        by_name = np.bincount(name, weights=self_time,
                              minlength=len(self._ids))
        out = dict.fromkeys(LAYERS, 0.0)
        for span, nid in self._ids.items():
            layer = span.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + float(by_name[nid]) / self.passes
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(list(self._ids)),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op_id, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))
