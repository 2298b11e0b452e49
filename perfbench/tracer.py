"""Span tracer installed from outside the library, for the traced run.

`Tracer.install()` replaces the functions and methods listed in BOUNDARIES by
wrappers that record one span each (name, start, end, parent span, task id).
A module-level function is replaced in every `diraclab` module namespace that
holds it, because modules import each other's functions by name.  A boundary
that no longer exists is recorded as absent instead of raising, so the
benchmark survives refactors that rename or delete internal kernels.

Spans live in flat arrays in memory and are written out once, at the end.
Self times and call counts are computed from the spans; a few work counts
(polynomial term products, RK4 steps, points flowed) are added up by hooks at
the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

# (span name, module, attribute path).  PER_LAYER below groups spans by name.
BOUNDARIES = [
    ("cli.run", "diraclab.cli", "run"),
    *[("jsonio." + f, "diraclab.jsonio", f) for f in (
        "poly_to_json", "poly_from_json", "tensor_to_json", "tensor_from_json",
        "map_to_json", "map_from_json", "rational_from_json", "rational_to_json",
        "structure_constants_from_json")],
    *[("fields." + f, "diraclab.fields", f) for f in (
        "PolyScalar.__mul__", "PolyScalar.__add__", "PolyScalar.__pow__",
        "PolyScalar.partial", "PolyScalar.compose", "PolyScalar.evaluate",
        "PolyScalar.evaluate_exact", "_AlternatingTensor.__add__",
        "_AlternatingTensor.__mul__", "_AlternatingTensor.wedge",
        "_AlternatingTensor.evaluate_at", "differential", "exterior_derivative",
        "interior_product", "apply_vector", "vector_bracket", "lie_derivative",
        "pullback_form", "pushforward_vector_at_point", "PolyMap.compose_scalar",
        "PolyMap.jacobian", "PolyMap.jacobian_at")],
    ("poisson.jacobiator", "diraclab.poisson", "jacobiator"),
    ("poisson.moser_verify", "diraclab.poisson", "moser_verify"),
    ("poisson.euler_linearize", "diraclab.poisson", "euler_linearize"),
    ("dirac.courant_bracket", "diraclab.dirac", "courant_bracket"),
    ("dirac.pairing", "diraclab.dirac", "pairing"),
    ("dirac.check_poisson_map", "diraclab.dirac", "check_poisson_map"),
    ("maningroup.check_manin_triple", "diraclab.maningroup", "check_manin_triple"),
    ("maningroup.compose", "diraclab.maningroup", "GroupChart.compose"),
    ("maningroup.ad", "diraclab.maningroup", "GroupChart.ad"),
    ("maningroup.ad", "diraclab.maningroup", "GroupChart.ad_inv"),
    ("maningroup.frame", "diraclab.maningroup", "GroupChart.frame"),
    *[("_rat." + f, "diraclab._rat", f) for f in (
        "matmul", "matvec", "transpose", "rref", "rank", "nullspace", "solve",
        "inverse", "in_span", "span_equal", "span_intersection")],
    ("realization.spray_build", "diraclab.realization", "SprayField.__init__"),
    ("realization.spray_build", "diraclab.realization", "SprayField.compiled"),
    ("realization.verify_dual_pair", "diraclab.realization", "verify_dual_pair"),
    ("realization.form", "diraclab.realization", "realization_form_batch"),
    ("realization.form", "diraclab.realization", "realization_form"),
    *[("realization." + f, "diraclab.realization", f) for f in (
        "source_target_batch", "lr_field_values", "invariant_vector_fields",
        "bracket_relations_residual", "closedness_residual")],
    ("_numeric.flow", "diraclab._numeric", "flow_points"),
    ("_numeric.flow_td", "diraclab._numeric", "flow_points_td"),
    ("_numeric.eval", "diraclab._numeric", "CompiledScalar.__call__"),
    ("_numeric.eval", "diraclab._numeric", "CompiledVectorField.value"),
    ("_numeric.eval", "diraclab._numeric", "CompiledVectorField.jacobian"),
    ("_numeric.compile", "diraclab._numeric", "CompiledScalar.__init__"),
    ("_numeric.compile", "diraclab._numeric", "CompiledVectorField.__init__"),
    ("_numeric.compile", "diraclab._numeric", "compile_bivector"),
    ("_numeric.linalg", "diraclab._numeric", "nullspace_basis"),
    ("_numeric.linalg", "diraclab._numeric", "span_residual"),
    ("_numeric.linalg", "diraclab._numeric", "orthonormal_basis"),
    ("_parallel.pmap", "diraclab._parallel", "pmap"),
]

# Boundaries that only count calls (no span): far too frequent to time.
COUNTED = [("fields.poly_new.calls", "diraclab.fields", "PolyScalar.__init__")]

EVAL_CLOSURE = "_numeric.eval"           # the evaluator compile_bivector returns
PER_POINT = "realization.per_point"      # the per-point function pmap maps


def _prefix(name: str) -> str:
    return name.split(".", 1)[0]


def _group(*names):
    return lambda n: n in names


# (metric, "self" | "calls" | "inclusive", span-name predicate, unit)
PER_LAYER = [
    ("cli.run.self_s", "self", _group("cli.run"), "s"),
    ("cli.run.calls", "calls", _group("cli.run"), "count"),
    ("jsonio.self_s", "self", lambda n: _prefix(n) == "jsonio", "s"),
    ("jsonio.calls", "calls", lambda n: _prefix(n) == "jsonio", "count"),
    ("fields.poly_mul.calls", "calls", _group("fields.PolyScalar.__mul__"), "count"),
    ("fields.self_s", "self", lambda n: _prefix(n) == "fields", "s"),
    ("poisson.jacobiator.self_s", "self", _group("poisson.jacobiator"), "s"),
    ("poisson.jacobiator.calls", "calls", _group("poisson.jacobiator"), "count"),
    ("dirac.courant_bracket.self_s", "self", _group("dirac.courant_bracket"), "s"),
    ("dirac.courant_bracket.calls", "calls", _group("dirac.courant_bracket"), "count"),
    ("dirac.pairing.self_s", "self", _group("dirac.pairing"), "s"),
    ("maningroup.check_manin_triple.self_s", "self",
     _group("maningroup.check_manin_triple"), "s"),
    ("rat.self_s", "self", lambda n: _prefix(n) == "_rat", "s"),
    ("poisson.moser_verify.self_s", "self", _group("poisson.moser_verify"), "s"),
    ("poisson.euler_linearize.self_s", "self", _group("poisson.euler_linearize"), "s"),
    ("maningroup.compose.calls", "calls", _group("maningroup.compose"), "count"),
    ("maningroup.compose.self_s", "self", _group("maningroup.compose"), "s"),
    ("maningroup.ad.calls", "calls", _group("maningroup.ad"), "count"),
    ("maningroup.frame.calls", "calls", _group("maningroup.frame"), "count"),
    ("realization.spray_build_s", "inclusive", _group("realization.spray_build"), "s"),
    ("realization.verify_dual_pair.self_s", "self",
     _group("realization.verify_dual_pair", PER_POINT), "s"),
    ("realization.form.self_s", "self", _group("realization.form"), "s"),
    ("numeric.flow.calls", "calls", _group("_numeric.flow"), "count"),
    ("numeric.flow.self_s", "self", _group("_numeric.flow"), "s"),
    ("numeric.flow_td.calls", "calls", _group("_numeric.flow_td"), "count"),
    ("numeric.flow_td.self_s", "self", _group("_numeric.flow_td"), "s"),
    ("numeric.eval.calls", "calls", _group("_numeric.eval"), "count"),
    ("numeric.eval.self_s", "self", _group("_numeric.eval"), "s"),
    ("numeric.compile.self_s", "self", _group("_numeric.compile"), "s"),
    ("numeric.linalg.self_s", "self", _group("_numeric.linalg"), "s"),
    ("parallel.pmap.self_s", "self", _group("_parallel.pmap"), "s"),
]

# Work counters added up by hooks: metric -> (unit, boundary whose hook feeds
# it; the counter is absent if that boundary was not found).
COUNTERS = {
    "fields.term_products": ("count", "fields.PolyScalar.__mul__"),
    "fields.poly_new.calls": ("count", "fields.poly_new.calls"),
    "realization.point_flows": ("count", "_numeric.flow"),
    "realization.certified_points": ("count", "realization.verify_dual_pair"),
    "numeric.rk4_steps": ("count", "_numeric.flow"),
    "numeric.point_steps": ("count", "_numeric.flow"),
    "numeric.computed_state_mb": ("MB", "_numeric.flow"),
    "numeric.flow_td.rk4_steps": ("count", "_numeric.flow_td"),
}


def schedule_steps(duration: float, h: float) -> int:
    """Number of RK4 steps of magnitude <= h covering `duration`.

    This is the schedule the integrator documents: floor(|d|/h) full steps
    plus one remainder step if anything is left over.
    """
    total = abs(float(duration))
    if total == 0.0:
        return 0
    nfull = int(math.floor(total / h + 1e-12))
    return nfull + (1 if total - nfull * h > 1e-15 else 0)


class Tracer:
    """Spans and counters of one traced pass; inactive until `begin_task`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.task = array("i")
        self.stack: list[int] = []
        self.task_id = -1
        self.active = False
        self.counters: Counter = Counter()
        self.found: set[str] = set()
        self.absent: list[str] = []
        self.hook_errors: Counter = Counter()
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.task.append(self.task_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    def begin_task(self, task_id: int, kind: str) -> None:
        self.task_id = task_id
        self.active = True
        self._root = self.open(self._id("task." + kind))

    def end_task(self) -> None:
        self.close(self._root)
        self.active = False

    def in_layer(self, prefix: str) -> bool:
        names, name = self.names, self.name
        return any(names[name[i]].startswith(prefix) for i in self.stack)

    # -- installation ------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap every boundary; `extra_modules` are other namespaces (the
        benchmark's own) that imported library functions by name."""
        self._extra = list(extra_modules)
        hooks = _hooks(self)
        for span, module, path in BOUNDARIES:
            self._replace(span, module, path,
                          lambda fn, s=span: self._span_wrapper(s, fn, hooks.get(s)))
        for span, module, path in COUNTED:
            self._replace(span, module, path, lambda fn, s=span: self._count_wrapper(s, fn))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def _replace(self, span, module, path, make) -> None:
        mod = sys.modules.get(module)
        owner, attr = mod, path
        if mod is not None and "." in path:
            cls_name, attr = path.split(".", 1)
            owner = getattr(mod, cls_name, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None or not callable(original):
            self.absent.append(f"{module}:{path}")
            return
        wrapper = make(original)
        if owner is mod:
            holders = [m for n, m in list(sys.modules.items())
                       if m is not None and (n == "diraclab" or n.startswith("diraclab."))]
            holders += self._extra
        else:
            holders = [owner]
        replaced = False
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is original:
                    self._undo.append((holder, name, value))
                    setattr(holder, name, wrapper)
                    replaced = True
        if replaced:
            self.found.add(span)
        else:
            self.absent.append(f"{module}:{path}")

    def _span_wrapper(self, span: str, fn, hook):
        nid = self._id(span)
        tracer = self
        params = _Params(fn) if hook else None
        wraps_evaluator = span == "_numeric.compile" and fn.__name__ == "compile_bivector"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if hook is not None:
                try:
                    hook(params.bind(args, kwargs))
                except (TypeError, AttributeError, KeyError, IndexError, ValueError):
                    tracer.hook_errors[span] += 1
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if wraps_evaluator:
                return tracer._span_wrapper(EVAL_CLOSURE, result, None)
            return result

        if span == "_parallel.pmap":
            @functools.wraps(fn)
            def pmap_wrapper(f, items, *args, **kwargs):
                if tracer.active:
                    f = tracer._span_wrapper(PER_POINT, f, None)
                return wrapper(f, items, *args, **kwargs)
            return pmap_wrapper
        return wrapper

    def _count_wrapper(self, counter: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counters[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "task": np.frombuffer(self.task, dtype=np.int32).copy(),
        }

    def self_times(self):
        """(span arrays, duration ns, self ns), one entry per span."""
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        return a, dur, dur - child

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def metrics(self) -> tuple[dict, list]:
        """Per-layer metrics {name: (value, unit)} and the absent ones."""
        a, dur, self_ns = self.self_times()
        nid, parent = a["name"], a["parent"]
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_sum = np.bincount(nid, weights=self_ns, minlength=k)
        boundary_spans = {b[0] for b in BOUNDARIES}
        out, absent = {}, []
        for metric, kind, member, unit in PER_LAYER:
            if not any(member(s) and s in self.found for s in boundary_spans):
                absent.append(metric)
                out[metric] = (0, unit)
                continue
            ids = [i for i, n in enumerate(self.names) if member(n)]
            if kind == "calls":
                value = int(calls[ids].sum())
            elif kind == "self":
                value = float(self_sum[ids].sum()) / 1e9
            else:
                # inclusive time of the outermost spans of the group
                in_group = np.zeros(k, dtype=bool)
                in_group[ids] = True
                span_in = in_group[nid]
                parent_in = np.where(parent >= 0, in_group[nid[np.maximum(parent, 0)]], False)
                value = float(dur[span_in & ~parent_in].sum()) / 1e9
            out[metric] = (value, unit)
        for counter, (unit, source) in COUNTERS.items():
            if self.hook_errors.get(source) or source not in self.found:
                absent.append(counter)
                out[counter] = (0, unit)
            else:
                value = self.counters.get(counter, 0)
                out[counter] = (value / 1e6 if unit == "MB" else value, unit)
        flows = out["realization.point_flows"][0]
        certified = out["realization.certified_points"][0]
        out["realization.points_per_point_flow"] = (certified / flows if flows else 0.0, "ratio")
        return out, absent


class _Params:
    """Fast positional/keyword argument lookup by parameter name."""

    def __init__(self, fn):
        sig = inspect.signature(fn)
        self.pos = {name: i for i, name in enumerate(sig.parameters)}

    def bind(self, args, kwargs):
        pos = self.pos

        def get(name, default=None):
            if name in kwargs:
                return kwargs[name]
            i = pos.get(name)
            return args[i] if i is not None and i < len(args) else default
        return get


def _hooks(tracer: Tracer) -> dict:
    """Work counters fed from the arguments of a boundary call."""
    from diraclab.fields import PolyScalar

    c = tracer.counters

    def poly_mul(arg):
        a, b = arg("self"), arg("other")
        c["fields.term_products"] += len(a.terms) * (len(b.terms) if isinstance(b, PolyScalar) else 1)

    def flow(arg):
        x0 = np.asarray(arg("x0"))
        batch = 1 if x0.ndim == 1 else x0.shape[0]
        h = arg("config").step
        record = arg("record_times")
        if record is None:
            steps = schedule_steps(arg("t"), h)
        else:
            steps, cur = 0, 0.0
            for target in record:
                steps += schedule_steps(target - cur, h)
                cur = target
        m = x0.shape[-1]
        state = m + m * m if arg("with_jacobian", True) else m
        c["numeric.rk4_steps"] += steps
        c["numeric.point_steps"] += steps * batch
        c["numeric.computed_state_mb"] += 4 * steps * batch * state * 8   # bytes
        if tracer.in_layer("realization."):
            c["realization.point_flows"] += batch

    def flow_td(arg):
        c["numeric.flow_td.rk4_steps"] += schedule_steps(arg("T"), arg("config").step)

    def certified(arg):
        c["realization.certified_points"] += int(np.atleast_2d(np.asarray(arg("points"))).shape[0])

    def one_point(arg):
        c["realization.certified_points"] += 1

    return {
        "fields.PolyScalar.__mul__": poly_mul,
        "_numeric.flow": flow,
        "_numeric.flow_td": flow_td,
        "realization.verify_dual_pair": certified,
        "realization.invariant_vector_fields": one_point,
        "realization.bracket_relations_residual": one_point,
        "realization.closedness_residual": one_point,
    }
