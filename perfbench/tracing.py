"""Span tracing of the package's public functions, installed from outside.

``Tracer.install`` builds, for every public function and public method
defined in the layer modules, a wrapper that records one span per call:
name, start, end, parent span and the id of the CLI operation it belongs
to; ``enable`` puts the wrappers in place and ``disable`` takes them out.
Module-level functions are replaced wherever another package module bound
them by ``from ... import``, so calls between modules are caught as well.
Spans stay in memory (flat typed arrays) until ``write`` dumps them.

A few wrappers also read public state around the call (the MPS
orthogonality center, bond dimensions, gate counts, the number of grid
points a sweep produced); those readings become the per-layer counters.

``layer_metrics`` turns the spans of the traced operations into per-layer
metrics, one value per operation (the median over operations). A metric
whose function no longer exists, or that was never entered on a workload
where it is expected to run, is left out instead of being reported as 0,
so a refactor that routes around a wrapper cannot read as a free gain.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import sys
from array import array
from time import perf_counter_ns

LAYERS = ("protocols", "statevector", "mps", "linalg", "concurrence", "formulas", "sweep")

ALL = ("chain-sweep", "chain-center", "star-oracle")
CHAINS = ("chain-sweep", "chain-center")
STAR = ("star-oracle",)

# metric prefix -> (span names summed into it, fields, workloads expected to enter it)
FUNCTION_METRICS = {
    "mps.run_circuit": (("mps.MatrixProductState.run_circuit",), ("calls", "s", "self_s"), ALL),
    "linalg.svd_truncate": (("linalg.svd_truncate",), ("calls", "s"), ALL),
    "linalg.require_unitary": (("linalg.require_unitary",), ("calls", "s"), ALL),
    "mps.pair_rdm": (("mps.MatrixProductState.pair_rdm",), ("calls", "s"), ALL),
    "concurrence.wootters": (("concurrence.wootters_concurrence",), ("calls", "s", "self_s"), ALL),
    "concurrence.xstate": (("concurrence.xstate_concurrence",), ("calls",), ()),
    "linalg.hermitian_eigs": (("linalg.hermitian_eigs",), ("calls", "s"), ALL),
    "formulas.analytic_concurrence": (("formulas.analytic_concurrence",), ("calls", "s"), CHAINS),
    "sweep.rows_to_csv_text": (("sweep.rows_to_csv_text",), ("s",), CHAINS),
    "statevector.run_circuit": (("statevector.StateVector.run_circuit",), ("calls", "s"), STAR),
    "statevector.pair_rdm": (("statevector.StateVector.pair_rdm",), ("calls", "s"), STAR),
    "statevector.postselect": (("statevector.StateVector.postselect",), ("calls", "s"), STAR),
    "statevector.single_rdm": (("statevector.StateVector.single_rdm",), ("calls", "s"), STAR),
    "mps.postselect": (("mps.MatrixProductState.postselect",), ("calls", "s"), STAR),
    "protocols.build": (
        ("protocols.build_star", "protocols.build_linear", "protocols.build_periodic"),
        ("calls", "s"),
        ALL,
    ),
    "sweep.run_sweep": (("sweep.run_sweep",), ("self_s",), CHAINS),
    "sweep.run_oracle_check": (("sweep.run_oracle_check",), ("self_s",), STAR),
}

# layer module -> workloads expected to enter it
LAYER_EXPECTED = {layer: ALL for layer in LAYERS}
LAYER_EXPECTED.update(statevector=STAR, formulas=CHAINS)

UNITS = {"calls": "count", "s": "s", "self_s": "s"}

# derived metric -> (unit, better); computed in ``layer_metrics``
DERIVED_METRICS = {
    "linalg.require_unitary.calls_per_gate": ("ratio", "lower"),
    "mps.max_bond_dim": ("count", "lower"),
    "mps.discarded_weight_max": ("ratio", "lower"),
    "mps.center_moves": ("count", "lower"),
    "mps.center_moves_per_pair": ("ratio", "lower"),
    "sweep.output_bytes": ("B", "lower"),
    "sweep.points_skipped": ("count", "lower"),
    "sweep.points_skipped_frac": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better)."""
    out = {}
    for prefix, (_, fields, _) in FUNCTION_METRICS.items():
        better = "higher" if prefix == "concurrence.xstate" else "lower"
        for field in fields:
            out[f"{prefix}.{field}"] = (UNITS[field], better)
    for layer in LAYERS:
        for field in ("calls", "s", "self_s"):
            out[f"{layer}.{field}"] = (UNITS[field], "lower")
    out.update(DERIVED_METRICS)
    return out


# ------------------------------------------------------------------ hooks
# Each hook is (before, after): ``before(args)`` runs ahead of the span and
# its result is handed to ``after(tracer, args, result, before_value)``.


def _center(args):
    return args[0].center


def _center_moved(tracer, args, result, before):
    tracer.add("center_moves", abs(args[0].center - before))


def _mps_ran(tracer, args, result, before):
    tracer.add("gates", len(args[1].ops))
    tracer.top("max_bond_dim", result.max_bond_dimension)
    tracer.top("discarded_weight_max", result.discarded_weight_total)


def _sv_ran(tracer, args, result, before):
    tracer.add("gates", len(args[1].ops))


def _sweep_done(tracer, args, result, before):
    tracer.add("points_done", len({(row.theta, row.theta2) for row in result}))


def _oracle_done(tracer, args, result, before):
    tracer.add("points_done", result.n_points)


HOOKS = {
    "mps.MatrixProductState.pair_rdm": (_center, _center_moved),
    "mps.MatrixProductState.postselect": (_center, _center_moved),
    "mps.MatrixProductState.run_circuit": (None, _mps_ran),
    "statevector.StateVector.run_circuit": (None, _sv_ran),
    "sweep.run_sweep": (None, _sweep_done),
    "sweep.run_oracle_check": (None, _oracle_done),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_op = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.counters: dict[int, dict[str, float]] = {}
        self.broken: set[str] = set()  # span names whose hook could not read its state
        # (owner, attribute, original, wrapper) for every wrapped name
        self._patches: list[tuple[object, str, object, object]] = []

    # ----------------------------------------------------------- counters

    def add(self, key: str, value: float) -> None:
        bucket = self.counters.setdefault(self.op_id, {})
        bucket[key] = bucket.get(key, 0) + value

    def top(self, key: str, value: float) -> None:
        bucket = self.counters.setdefault(self.op_id, {})
        bucket[key] = max(bucket.get(key, value), value)

    # ------------------------------------------------------------ install

    def _wrap(self, func, name: str):
        name_id = len(self.names)
        self.names.append(name)
        before, after = HOOKS.get(name, (None, None))
        span_name, span_op, parent = self.span_name, self.span_op, self.parent
        start, end, stack = self.start, self.end, self.stack
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            state = None
            if before is not None:
                try:
                    state = before(args)
                except (AttributeError, TypeError, IndexError):
                    tracer.broken.add(name)
            idx = len(end)
            span_name.append(name_id)
            span_op.append(tracer.op_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = func(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if after is not None:
                try:
                    after(tracer, args, result, state)
                except (AttributeError, TypeError, IndexError):
                    tracer.broken.add(name)
            return result

        return traced

    def install(self) -> None:
        """Build wrappers for the public functions and methods of every layer module.

        Wrappers take effect between ``enable`` and ``disable``.
        """
        functions = {}
        for layer in LAYERS:
            module = sys.modules.get(f"symm_ent.{layer}")
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    functions[obj] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{attr}")
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "symm_ent" and not mod_name.startswith("symm_ent."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in functions:
                    self._patches.append((module, attr, obj, functions[obj]))

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                if not inspect.isfunction(raw.__func__):
                    continue
                wrapped = type(raw)(self._wrap(raw.__func__, f"{prefix}.{attr}"))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, f"{prefix}.{attr}")
            else:
                continue
            self._patches.append((cls, attr, raw, wrapped))

    def enable(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def disable(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # ------------------------------------------------------------- output

    def write(self, path) -> None:
        """Dump every span, columnar, as gzip-compressed JSON."""
        payload = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "op": self.span_op.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))

    def per_op_totals(self):
        """Per operation: {span name: [calls, busy_ns, self_ns]} and the same per layer.

        Busy time counts a span only when no enclosing span has the same
        name (or, per layer, lies in the same layer), so nesting is not
        counted twice; self time is busy time minus the child spans.
        """
        n = len(self.end)
        names, parent, span_op = self.span_name, self.parent, self.span_op
        layer_of = [LAYERS.index(name.split(".")[0]) for name in self.names]
        duration = [self.end[i] - self.start[i] for i in range(n)]
        children = [0] * n
        layer_mask = [0] * n  # bit set = some ancestor lies in that layer
        for i in range(n):
            p = parent[i]
            if p >= 0:
                children[p] += duration[i]
                layer_mask[i] = layer_mask[p] | (1 << layer_of[names[p]])
        by_name: dict[int, dict[str, list[int]]] = {}
        by_layer: dict[int, dict[str, list[int]]] = {}
        for i in range(n):
            nid = names[i]
            layer = layer_of[nid]
            own = duration[i] - children[i]
            nested = False
            p = parent[i]
            while p >= 0:
                if names[p] == nid:
                    nested = True
                    break
                p = parent[p]
            entry = by_name.setdefault(span_op[i], {}).setdefault(self.names[nid], [0, 0, 0])
            entry[0] += 1
            entry[1] += 0 if nested else duration[i]
            entry[2] += own
            entry = by_layer.setdefault(span_op[i], {}).setdefault(LAYERS[layer], [0, 0, 0])
            entry[0] += 1
            entry[1] += 0 if layer_mask[i] >> layer & 1 else duration[i]
            entry[2] += own
        return by_name, by_layer

    def layer_metrics(self, workload: str, ops: list[int], grid_points: int,
                      output_bytes: int, overhead_frac: float) -> tuple[dict, list[str]]:
        """Per-layer metrics (median over ``ops``) and the names left out as absent."""
        by_name, by_layer = self.per_op_totals()
        wrapped = set(self.names)
        field_index = {"calls": 0, "s": 1, "self_s": 2}
        values: dict[str, float] = {}
        absent: list[str] = []

        def total(op, span_names, index):
            return sum(by_name.get(op, {}).get(name, (0, 0, 0))[index] for name in span_names)

        for prefix, (span_names, fields, expected) in FUNCTION_METRICS.items():
            present = [name for name in span_names if name in wrapped]
            never_entered = all(total(op, present, 0) == 0 for op in ops)
            if not present or (workload in expected and never_entered):
                absent.extend(f"{prefix}.{field}" for field in fields)
                continue
            for field in fields:
                k = field_index[field]
                scale = 1 if k == 0 else 1e-9
                values[f"{prefix}.{field}"] = statistics.median(
                    total(op, present, k) * scale for op in ops
                )

        for layer in LAYERS:
            per_op = [by_layer.get(op, {}).get(layer, (0, 0, 0)) for op in ops]
            module_wrapped = any(name.split(".")[0] == layer for name in wrapped)
            if not module_wrapped or (
                workload in LAYER_EXPECTED[layer] and all(c == 0 for c, _, _ in per_op)
            ):
                absent.extend(f"{layer}.{field}" for field in ("calls", "s", "self_s"))
                continue
            values[f"{layer}.calls"] = statistics.median(c for c, _, _ in per_op)
            values[f"{layer}.s"] = statistics.median(b * 1e-9 for _, b, _ in per_op)
            values[f"{layer}.self_s"] = statistics.median(s * 1e-9 for _, _, s in per_op)

        def counter(key, hook_names):
            """Median over ops of a hook counter, or None if it was not read."""
            if any(name in self.broken for name in hook_names):
                return None
            readings = [self.counters.get(op, {}).get(key) for op in ops]
            if any(r is None for r in readings):
                return None
            return statistics.median(readings)

        def ratio(numerator, denominator):
            if numerator is None or not denominator:
                return None
            return numerator / denominator

        mps_run = ("mps.MatrixProductState.run_circuit",)
        moves = counter("center_moves", ("mps.MatrixProductState.pair_rdm",
                                         "mps.MatrixProductState.postselect"))
        gates = counter("gates", mps_run + ("statevector.StateVector.run_circuit",))
        done = counter("points_done", ("sweep.run_sweep", "sweep.run_oracle_check"))
        skipped = None if done is None else grid_points - done
        derived = {
            "linalg.require_unitary.calls_per_gate":
                ratio(values.get("linalg.require_unitary.calls"), gates),
            "mps.max_bond_dim": counter("max_bond_dim", mps_run),
            "mps.discarded_weight_max": counter("discarded_weight_max", mps_run),
            "mps.center_moves": moves,
            "mps.center_moves_per_pair": ratio(moves, values.get("mps.pair_rdm.calls")),
            "sweep.output_bytes": output_bytes,
            "sweep.points_skipped": skipped,
            "sweep.points_skipped_frac": ratio(skipped, grid_points),
            "trace.overhead_frac": overhead_frac,
        }
        for name, value in derived.items():
            if value is None:
                absent.append(name)
            else:
                values[name] = value
        return values, absent
