"""Spans around the package's public functions, recorded from outside.

`from .grid import wedge` copies the binding into the importing module, so
a wrapper only takes effect if it replaces the function in every
`higgsflow.*` namespace that holds it. `install` does that rebinding and
returns the callable that undoes it; nothing under `src/` changes.

Each span records its id, parent span, operation id, name, start, end and
self time (its duration minus the time covered by its child spans). Spans
are kept in memory and written out once, at the end of the traced run.
"""

from __future__ import annotations

import csv
import functools
import inspect
import itertools
import os
import sys
import time

LAYERS = ("linalg", "grid", "geometry", "flows", "diagnostics", "extensions",
          "scenarios", "snapshots", "cli")

# several public functions report under one span name
GROUPS = {
    "linalg.sqrtm_hpd": "linalg.eigh",
    "linalg.min_eigvalsh": "linalg.eigh",
    "grid.dbar_flat": "grid.diff",
    "grid.d_flat": "grid.diff",
    "grid.dbar_adjoint": "grid.diff",
    "grid.pointwise_inner": "grid.norms",
    "grid.pointwise_norm2": "grid.norms",
    "grid.l2_norm": "grid.norms",
    "grid.sup_norm": "grid.norms",
    "grid.integrate": "grid.norms",
    "grid.integrate_top_form": "grid.norms",
    "flows.run_donaldson_flow": "flows.runner",
    "flows.run_ymh_flow": "flows.runner",
    "scenarios.build_scenario": "scenarios.build",
    "scenarios.random_valid_state": "scenarios.build",
    "scenarios.random_state_with_subbundle": "scenarios.build",
}


def _expm_matrices(args, kwargs, result):
    m = args[0]
    return {"matrices": m.size // (m.shape[-1] * m.shape[-1])}


def _wedge_bytes(args, kwargs, result):
    # computed from array sizes: both operands read, the product written
    return {"bytes_computed": args[0].comps.nbytes + args[1].comps.nbytes
            + result.comps.nbytes}


def _save_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _load_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _runner_counts(args, kwargs, result):
    return {"steps": result.steps, "rejected": result.rejected}


def _hs_dimension(args, kwargs, result):
    return {"n": args[0].base.n}


EXTRAS = {
    "linalg.expm_batched": _expm_matrices,
    "grid.wedge": _wedge_bytes,
    "snapshots.save_state": _save_bytes,
    "snapshots.load_state": _load_bytes,
    "flows.runner": _runner_counts,
    "geometry.hitchin_simpson_curvature": _hs_dimension,
}


class Span:
    __slots__ = ("sid", "parent", "op", "name", "start", "end", "child_s",
                 "outermost", "extra")

    def __init__(self, sid, parent, op, name, outermost):
        self.sid = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.start = None
        self.end = None
        self.child_s = 0.0
        self.outermost = outermost  # no enclosing span of the same name
        self.extra = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.op = 0
        self._stack: list[Span] = []
        self._depth: dict[str, int] = {}
        self._ids = itertools.count(1)

    def span(self, name: str):
        return _SpanContext(self, name)

    def _enter(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        sp = Span(next(self._ids), parent.sid if parent else None, self.op,
                  name, depth == 0)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        return sp

    def _exit(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack.pop()
        self._depth[sp.name] -= 1
        if self._stack:
            self._stack[-1].child_s += sp.duration
        self.spans.append(sp)

    def wrap(self, name: str, fn):
        extra = EXTRAS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sp = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(sp)
            if extra is not None:
                sp.extra = extra(args, kwargs, result)
            return result
        return wrapper

    def names_by_id(self) -> dict[int, str]:
        return {sp.sid: sp.name for sp in self.spans}

    def write_csv(self, path) -> None:
        t0 = min((sp.start for sp in self.spans), default=0.0)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "op", "name", "start_s", "end_s",
                          "self_s"])
            for sp in sorted(self.spans, key=lambda s: s.sid):
                out.writerow([sp.sid, sp.parent or "", sp.op, sp.name,
                              "%.9f" % (sp.start - t0), "%.9f" % (sp.end - t0),
                              "%.9f" % sp.self_s])


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.sp = None

    def __enter__(self):
        if self.tracer.enabled:
            self.sp = self.tracer._enter(self.name)
        return self

    def __exit__(self, *exc):
        if self.sp is not None:
            self.tracer._exit(self.sp)
        return False


def _public_functions(layer: str):
    mod = sys.modules[f"higgsflow.{layer}"]
    if layer == "cli":
        # the verbs run inside main; its self time is the CLI's own cost
        return mod, ["main"]
    names = [name for name, val in vars(mod).items()
             if not name.startswith("_") and inspect.isfunction(val)
             and val.__module__ == mod.__name__]
    return mod, names


def rebind(make_wrapper, qualified_names=None):
    """Replace public functions in every higgsflow namespace that holds them.

    make_wrapper(span_name, fn) returns the replacement. With
    qualified_names, only those "layer.function" names are replaced.
    Returns a callable that restores the original bindings.
    """
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if name == "higgsflow" or name.startswith("higgsflow.")]
    undo = []
    for layer in LAYERS:
        mod, names = _public_functions(layer)
        for fname in names:
            qual = f"{layer}.{fname}"
            if qualified_names is not None and qual not in qualified_names:
                continue
            fn = getattr(mod, fname)
            wrapper = make_wrapper(GROUPS.get(qual, qual), fn)
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is fn:
                        setattr(ns, attr, wrapper)
                        undo.append((ns, attr, fn))

    def restore():
        for ns, attr, fn in reversed(undo):
            setattr(ns, attr, fn)
    return restore


def install(tracer: Tracer):
    """Wrap every public function of every layer in a span."""
    return rebind(tracer.wrap)


def _stat(spans, key):
    return sum(sp.extra[key] for sp in spans if sp.extra)


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Aggregate the spans into the per-layer metrics, as (value, unit)."""
    by_name: dict[str, list[Span]] = {}
    for sp in tracer.spans:
        by_name.setdefault(sp.name, []).append(sp)

    def calls(name):
        return len(by_name.get(name, []))

    def total_s(name):
        return sum(sp.duration for sp in by_name.get(name, []) if sp.outermost)

    def self_s(name):
        return sum(sp.self_s for sp in by_name.get(name, []))

    out: dict[str, tuple[float, str]] = {}

    def triple(name):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.total_s"] = (total_s(name), "s")
        out[f"{name}.self_s"] = (self_s(name), "s")

    triple("linalg.expm_batched")
    out["linalg.expm_batched.matrices"] = (
        _stat(by_name.get("linalg.expm_batched", []), "matrices"), "count")
    triple("linalg.inv")
    out["linalg.eigh.total_s"] = (total_s("linalg.eigh"), "s")

    triple("grid.wedge")
    out["grid.wedge.bytes_computed"] = (
        _stat(by_name.get("grid.wedge", []), "bytes_computed"), "B")
    triple("grid.diff")
    out["grid.contract_lambda.total_s"] = (total_s("grid.contract_lambda"), "s")
    triple("grid.norms")

    for fn in ("chern_connection", "curvature", "hitchin_simpson_curvature",
               "validate_structure"):
        triple(f"geometry.{fn}")
    names = tracer.names_by_id()
    hs = by_name.get("geometry.hitchin_simpson_curvature", [])
    discarded = sum(1 for sp in hs if sp.extra["n"] >= 2
                    and names.get(sp.parent) == "flows.einstein_deviation")
    out["geometry.hs_discard_ratio"] = (discarded / len(hs) if hs else 0.0,
                                        "ratio")

    for fn in ("donaldson_step", "ymh_step", "einstein_deviation"):
        triple(f"flows.{fn}")
    out["flows.complex_gauge_apply.total_s"] = (
        total_s("flows.complex_gauge_apply"), "s")
    out["flows.gauge_from_metric.total_s"] = (
        total_s("flows.gauge_from_metric"), "s")
    out["flows.runner.self_s"] = (self_s("flows.runner"), "s")
    runners = by_name.get("flows.runner", [])
    steps, rejected = _stat(runners, "steps"), _stat(runners, "rejected")
    attempted = steps + rejected
    out["flows.steps"] = (steps, "count")
    out["flows.rejected"] = (rejected, "count")
    out["flows.accept_ratio"] = (steps / attempted if attempted else 0.0,
                                 "ratio")
    in_runner = _inside(tracer, by_name.get("flows.einstein_deviation", []),
                        "flows.runner")
    out["flows.deviations_per_step"] = (
        in_runner / attempted if attempted else 0.0, "1/step")

    for fn in ("chern_weil_report", "flatness_certificate",
               "topological_integrals"):
        triple(f"diagnostics.{fn}")
    for fn in ("split_extension", "gauss_codazzi_blocks", "rho_sweep",
               "verify_filtration", "invariant_section_check"):
        triple(f"extensions.{fn}")

    triple("scenarios.build")

    for fn in ("save_state", "load_state"):
        name = f"snapshots.{fn}"
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.total_s"] = (total_s(name), "s")
        out[f"{name}.bytes"] = (_stat(by_name.get(name, []), "bytes"), "B")
    out["cli.main.self_s"] = (self_s("cli.main"), "s")

    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = (
            sum(sp.self_s for sp in tracer.spans
                if sp.name.startswith(layer + ".")), "s")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out


def _inside(tracer: Tracer, spans, ancestor: str) -> int:
    """How many of spans have an ancestor span named ancestor."""
    parent_of = {sp.sid: sp.parent for sp in tracer.spans}
    name_of = tracer.names_by_id()
    count = 0
    for sp in spans:
        pid = sp.parent
        while pid is not None:
            if name_of[pid] == ancestor:
                count += 1
                break
            pid = parent_of[pid]
    return count
