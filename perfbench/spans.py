"""Spans around the public entry points of the lfpsoc modules, recorded from
outside the package.

Each target is replaced on the module where its callers look it up (for
example `lfpsoc.scenario.run_ekf`, the name `run_scenario` calls), so no
source file changes. A target that no longer exists is reported as absent,
and so is every metric computed from it. Spans stay in memory and are
written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import time


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _dir_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def count_trace(fn, args, kwargs, trace) -> dict:
    return {"samples": len(trace), "clamp_steps": len(trace.clamp_steps)}


def count_ekf(fn, args, kwargs, outputs) -> dict:
    return {"steps": len(outputs),
            "soc_clamped": sum(bool(o.soc_clamped) for o in outputs)}


def count_ammkf(fn, args, kwargs, result) -> dict:
    """Filter-steps of one `run_ammkf` call: phase-1 steps, plus every bank
    interval times its filters, plus the tail after the last interval."""
    arguments = _bound(fn, args, kwargs)
    bank, n_steps = arguments["bank_cfg"], len(arguments["trace"])
    length = bank.interval_len
    intervals = len(result.diagnostics)
    if result.convergence_step is None:
        phase1, converged = n_steps // length * length, n_steps
    else:
        phase1 = converged = result.convergence_step
    tail = n_steps - phase1 - intervals * length
    edge = sum(d.optimal_index in (0, bank.n - 1) for d in result.diagnostics)
    return {"filter_steps": phase1 + intervals * length * bank.n + tail,
            "intervals": intervals, "convergence_step": converged,
            "edge_picks": edge}


def count_rls(fn, args, kwargs, points) -> dict:
    return {"samples": len(points),
            "degenerate": sum(bool(p.degenerate) for p in points),
            "unidentified": sum(p.params is None for p in points)}


def count_artifacts(fn, args, kwargs, result) -> dict:
    return {"bytes": _dir_bytes(_bound(fn, args, kwargs)["out_dir"])}


def count_ingest(fn, args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


def count_cli(fn, args, kwargs, result) -> dict:
    argv = list(_bound(fn, args, kwargs)["argv"])
    return {"bytes": _dir_bytes(argv[argv.index("--out") + 1])}


# (module, name its callers look up, layer, counter of its result)
TARGETS = [
    ("lfpsoc.scenario", "run_sweep", "scenario.sweep", None),
    ("lfpsoc.scenario", "run_scenario", "scenario", None),
    ("lfpsoc.scenario", "write_artifacts", "scenario.artifacts",
     count_artifacts),
    ("lfpsoc.cli", "main", "cli", count_cli),
    ("lfpsoc.scenario", "resolve_curves", "curve", None),
    ("lfpsoc.cli", "resolve_curves", "curve", None),
    ("lfpsoc.scenario", "generate_profile", "profiles", None),
    ("lfpsoc.cli", "generate_profile", "profiles", None),
    ("lfpsoc.scenario", "simulate_profile", "ecm", count_trace),
    ("lfpsoc.cli", "simulate_profile", "ecm", count_trace),
    ("lfpsoc.scenario", "run_ekf", "ekf", count_ekf),
    ("lfpsoc.cli", "run_ekf", "ekf", count_ekf),
    ("lfpsoc.scenario", "run_ammkf", "multimodel", count_ammkf),
    ("lfpsoc.cli", "run_ammkf", "multimodel", count_ammkf),
    ("lfpsoc.multimodel", "run_interval", "multimodel.interval", None),
    ("lfpsoc.scenario", "identify_stream", "rls", count_rls),
    ("lfpsoc.cli", "identify_stream", "rls", count_rls),
    ("lfpsoc.cli", "ingest_trace", "traceio", count_ingest),
    ("lfpsoc.scenario", "compute_metrics", "metrics", None),
    ("lfpsoc.cli", "compute_metrics", "metrics", None),
]

# layers whose spans only orchestrate others; the rest of an op's time is
# covered by named module spans
ORCHESTRATION = ("op", "scenario.sweep", "scenario", "cli")


class Span:
    __slots__ = ("id", "name", "layer", "parent", "op", "start", "end",
                 "counts")

    def __init__(self, id, name, layer, parent, op):
        self.id, self.name, self.layer = id, name, layer
        self.parent, self.op = parent, op
        self.start = self.end = 0.0
        self.counts: dict | None = {}

    def as_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    """Records a span per call of each installed target."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.op = None
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._installed: list[tuple] = []
        self._layers: set[str] = set()

    def install(self):
        self.absent = []
        for module_name, attr, layer, counter in self.targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._layers.add(layer)
            setattr(module, attr,
                    self._wrap(fn, f"{module_name}.{attr}", layer, counter))
            self._installed.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed = []

    def present(self, layer: str) -> bool:
        return layer in self._layers

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run `fn` inside a span; used for the op itself."""
        return self._wrap(fn, name, layer, None)(*args, **kwargs)

    def _wrap(self, fn, name, layer, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, layer, parent, self.op)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    span.counts = counter(fn, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, ValueError,
                        OSError):
                    span.counts = None  # the result no longer has the field
            return result
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def op_layers(spans: list[Span], op) -> dict:
    """Per layer of one op: calls, total time, self time and summed counts
    (None when a counter failed)."""
    spans = [s for s in spans if s.op == op]
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = (child_time.get(s.parent, 0.0)
                                    + s.end - s.start)
    layers: dict[str, dict] = {}
    for s in spans:
        entry = layers.setdefault(s.layer, {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0, "counts": {}})
        entry["calls"] += 1
        entry["total_s"] += s.end - s.start
        entry["self_s"] += s.end - s.start - child_time.get(s.id, 0.0)
        if s.counts is None or entry["counts"] is None:
            entry["counts"] = None
        else:
            for k, v in s.counts.items():
                entry["counts"][k] = entry["counts"].get(k, 0) + v
    return layers


def _t(layer):
    return lambda L: L.get(layer, {}).get("total_s", 0.0)


def _self(layer):
    return lambda L: L.get(layer, {}).get("self_s", 0.0)


def _c(layer, key):
    def value(L):
        if layer not in L:
            return 0
        counts = L[layer]["counts"]
        return None if counts is None else counts.get(key, 0)
    return value


def _rate(layer, key, scale):
    def value(L):
        count = _c(layer, key)(L)
        if count is None:
            return None
        return _t(layer)(L) / count * scale if count else 0.0
    return value


def _mean_count(layer, key):
    def value(L):
        total = _c(layer, key)(L)
        if total is None or layer not in L:
            return total
        return total / L[layer]["calls"]
    return value


def _ratio(layer, num, den):
    def value(L):
        n, d = _c(layer, num)(L), _c(layer, den)(L)
        if n is None or d is None:
            return None
        return n / d if d else 0.0
    return value


def _coverage(L):
    op = L.get("op", {}).get("total_s", 0.0)
    if not op:
        return 0.0
    return 1.0 - sum(L.get(x, {}).get("self_s", 0.0)
                     for x in ORCHESTRATION) / op


# name -> (unit, better, layer the value needs, value from one op's layers)
PER_OP_METRICS = {
    "multimodel.run_s": ("s", "lower", "multimodel", _t("multimodel")),
    "multimodel.us_per_filter_step": ("us", "lower", "multimodel",
                                      _rate("multimodel", "filter_steps", 1e6)),
    "multimodel.filter_steps": ("count", "lower", "multimodel",
                                _c("multimodel", "filter_steps")),
    "multimodel.intervals": ("count", "lower", "multimodel",
                             _c("multimodel", "intervals")),
    "multimodel.convergence_step": ("step", "lower", "multimodel",
                                    _mean_count("multimodel",
                                                "convergence_step")),
    "multimodel.edge_pick_ratio": ("ratio", "lower", "multimodel",
                                   _ratio("multimodel", "edge_picks",
                                          "intervals")),
    "ekf.run_s": ("s", "lower", "ekf", _t("ekf")),
    "ekf.steps": ("count", "higher", "ekf", _c("ekf", "steps")),
    "ekf.us_per_step": ("us", "lower", "ekf", _rate("ekf", "steps", 1e6)),
    "ekf.soc_clamped": ("count", "lower", "ekf", _c("ekf", "soc_clamped")),
    "rls.identify_s": ("s", "lower", "rls", _t("rls")),
    "rls.us_per_sample": ("us", "lower", "rls", _rate("rls", "samples", 1e6)),
    "rls.degenerate": ("count", "lower", "rls", _c("rls", "degenerate")),
    "rls.unidentified": ("count", "lower", "rls", _c("rls", "unidentified")),
    "ecm.simulate_s": ("s", "lower", "ecm", _t("ecm")),
    "ecm.samples": ("count", "higher", "ecm", _c("ecm", "samples")),
    "ecm.clamp_steps": ("count", "lower", "ecm", _c("ecm", "clamp_steps")),
    "scenario.self_s": ("s", "lower", "scenario", _self("scenario")),
    "scenario.sweep_self_s": ("s", "lower", "scenario.sweep",
                              _self("scenario.sweep")),
    "scenario.artifacts_s": ("s", "lower", "scenario.artifacts",
                             _t("scenario.artifacts")),
    "scenario.artifact_bytes": ("bytes", "lower", "scenario.artifacts",
                                _c("scenario.artifacts", "bytes")),
    "traceio.ingest_s": ("s", "lower", "traceio", _t("traceio")),
    "traceio.bytes_read": ("bytes", "lower", "traceio",
                           _c("traceio", "bytes")),
    "cli.self_s": ("s", "lower", "cli", _self("cli")),
    "cli.bytes_written": ("bytes", "lower", "cli", _c("cli", "bytes")),
    "curve.resolve_s": ("s", "lower", "curve", _t("curve")),
    "profiles.generate_s": ("s", "lower", "profiles", _t("profiles")),
    "metrics.compute_s": ("s", "lower", "metrics", _t("metrics")),
    "trace.coverage": ("ratio", "higher", "op", _coverage),
}


def op_metrics(layers: dict, tracer: Tracer) -> dict:
    """The per-op layer metrics of one traced op; None marks a metric whose
    target is absent or whose counter no longer fits the result."""
    return {name: (fn(layers) if layer == "op" or tracer.present(layer)
                   else None)
            for name, (_, _, layer, fn) in PER_OP_METRICS.items()}


def interval_ms(spans: list[Span]) -> list[float]:
    return [(s.end - s.start) * 1e3 for s in spans
            if s.layer == "multimodel.interval" and s.op is not None]


def percentile(values: list[float], q: int):
    """The q-th percentile (1..99) by the exclusive method of `statistics`."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]
