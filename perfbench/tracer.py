"""Per-layer tracing of capreturn from outside the package.

The tracer replaces each traced function with a wrapper that records one
span per call: the function's layer-qualified name, the span that was
open when it was called (its parent), the operation it belongs to, its
start and end times, and a size (nodes evaluated, segments built,
polynomial degree). Spans are kept in flat arrays while the run lasts,
and ``write`` saves them once the run has ended.

A layer is a module of ``capreturn``. Traced are the public functions of
each module, the public methods of the path classes, every override of
``ReturnPath._rates``, ``growth._segments`` and the root finder
``irr._durand_kerner``. Python binds a name imported with
``from .x import y`` in the importing module, so each wrapper is
installed wherever the original object is bound: every module of the
package and the package namespace itself. Objective functions passed to
``optimize`` are wrapped too, to count and time the objective
evaluations separately from the search itself.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = (
    "paths", "quadrature", "growth", "estate", "optimize",
    "valuation", "leverage", "irr", "scenario_io", "cli",
)
PATH_METHODS = ("evaluate", "cumulative_return", "time_average_rate")
PRIVATE_LAYERS = {"growth": ("_segments",), "irr": ("_durand_kerner",)}
OBJECTIVE = "optimize.objective"


def _size_function(name: str):
    """What a span's size counts, from the call's arguments and result:
    nodes for ``_rates``, segments for ``_segments``, the degree for the
    root finder; None for every other span."""
    if name.endswith("._rates"):
        return lambda args, result: int(np.size(args[1]))
    if name == "growth._segments":
        return lambda args, result: len(result) if result is not None else 0
    if name == "irr._durand_kerner":
        return lambda args, result: len(args[0]) - 1
    return None


class Tracer:
    """Records spans for calls into ``package`` while installed."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.current_op = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []
        self._targets = self._discover()

    # -- discovery and installation -------------------------------------

    def _discover(self) -> list[tuple[object, str, str]]:
        """(owner, attribute, span name) for every traced callable."""
        targets = []
        for layer in LAYERS:
            module = sys.modules[f"{self.package.__name__}.{layer}"]
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if not attr.startswith("_") or attr in PRIVATE_LAYERS.get(layer, ()):
                    targets.append((module, attr, f"{layer}.{attr}"))
        paths = sys.modules[f"{self.package.__name__}.paths"]
        for cls in vars(paths).values():
            if inspect.isclass(cls) and issubclass(cls, paths.ReturnPath):
                for attr in (*PATH_METHODS, "_rates"):
                    if attr in vars(cls):
                        targets.append((cls, attr, f"paths.{cls.__name__}.{attr}"))
        return targets

    def install(self) -> None:
        if self._patches:
            return
        wrappers = {}
        for owner, attr, name in self._targets:
            original = vars(owner)[attr]
            wrappers[id(original)] = (original, self._wrap(original, name))
        # Every binding of a traced function gets the wrapper, including
        # the names that other modules imported from its module.
        namespaces = [
            *(sys.modules[f"{self.package.__name__}.{layer}"] for layer in LAYERS),
            *(owner for owner, _, _ in self._targets),
            self.package,
        ]
        seen = set()
        for namespace in namespaces:
            if id(namespace) in seen:
                continue
            seen.add(id(namespace))
            for attr, obj in list(vars(namespace).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((namespace, attr, obj, hit[1]))
                    setattr(namespace, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording ---------------------------------------------------------

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, index: int) -> int:
        span = len(self.start)
        self.name_id.append(index)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.size.append(0)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(perf_counter())
        return span

    def _close(self, span: int) -> None:
        self.end[span] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        index = self._name_index(name)
        tracer = self
        size = _size_function(name)
        counts_objective = name in ("optimize.refine_argmax", "optimize.golden_section_max")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_objective and args and not getattr(args[0], "_objective", False):
                args = (tracer._objective(args[0]), *args[1:])
            span = tracer._open(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(span)
                if size is not None:
                    tracer.size[span] = size(args, result)

        return traced

    def _objective(self, fn):
        index = self._name_index(OBJECTIVE)
        tracer = self

        def objective(x):
            span = tracer._open(index)
            try:
                return fn(x)
            finally:
                tracer._close(span)

        objective._objective = True
        return objective

    # -- results -------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays, with self time computed."""
        parent = np.array(self.parent, dtype=np.int32)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": parent,
            "op": np.array(self.op, dtype=np.int32),
            "start": start,
            "end": end,
            "size": np.array(self.size, dtype=np.int64),
            "self_time": duration - child_time,
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())


def layer_metrics(tracer: Tracer, ops: int, rows: int) -> dict[str, float]:
    """Per-operation layer metrics from the spans of ``ops`` traced
    operations that produced ``rows`` output rows in total."""
    spans = tracer.spans()
    span_names = np.array(tracer.names, dtype=str)[spans["name_id"]]
    layer_of = np.array([n.split(".")[0] for n in span_names], dtype=str)
    parent_name = np.where(spans["parent"] >= 0, span_names[spans["parent"]], "")
    duration = spans["end"] - spans["start"]
    self_ms = spans["self_time"] * 1e3

    # A reversed path evaluates its inner path; count the outer call only.
    outer_rates = (np.char.endswith(span_names, "._rates")
                   & ~np.char.endswith(parent_name, "._rates"))

    def total(mask, values=None) -> float:
        return float(np.sum(values[mask]) if values is not None else np.count_nonzero(mask))

    def named(name):
        return span_names == name

    objective = named(OBJECTIVE)
    metrics = {}
    for layer in LAYERS:
        in_layer = (layer_of == layer) & ~objective
        metrics[f"{layer}.calls"] = total(in_layer)
        metrics[f"{layer}.self_ms"] = total(in_layer, self_ms)
    metrics["paths.nodes"] = total(outer_rates, spans["size"])
    metrics["paths.evals_per_row"] = total(outer_rates) / rows
    metrics["growth.segments"] = total(named("growth._segments"), spans["size"])
    metrics["optimize.objective_evals"] = total(objective)
    metrics["irr.degree"] = total(named("irr._durand_kerner"), spans["size"])
    metrics["scenario_io.parse_ms"] = total(named("scenario_io.parse_scenario"), duration) * 1e3
    metrics["scenario_io.write_ms"] = total(named("scenario_io.write_table"), duration) * 1e3
    metrics["scenario_io.csv_ms"] = total(named("scenario_io.read_cash_flow_csv"), duration) * 1e3
    per_op = {k: v / ops for k, v in metrics.items() if k != "paths.evals_per_row"}
    per_op["paths.evals_per_row"] = metrics["paths.evals_per_row"]
    return per_op
