"""Spans and per-layer counters for the traced run.

The tracer wraps each layer's public functions at the module where the caller
looks them up: ``cli``, ``plantsim``, ``models.evaluate`` and
``models.ensemble`` bind those names when they are imported, so patching the
defining module alone would miss their calls. The wrappers are installed for
traced passes only and removed afterwards.

Every wrapped call pushes a frame. When it returns, its duration is added to
its parent frame's child time, so self time is duration minus child time.
Calls made once per simulated second (``predict``, ``predict_tree`` and
``decide`` inside ``run_policy``) are only aggregated into a count and a total
per pass; every other call is also recorded as a span with its name, start,
end, parent span and pass identifier. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

LAYERS = ("cli", "ingest", "features", "models", "detect", "plantsim", "cba")


@dataclass
class PassTotals:
    calls: Counter = field(default_factory=Counter)  # metric name -> calls
    incl_ns: Counter = field(default_factory=Counter)  # name -> inclusive time
    self_ns: Counter = field(default_factory=Counter)  # name -> self time
    counts: Counter = field(default_factory=Counter)  # work done, from observers


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (pass_id, span_id, parent_id, name, start_ns, end_ns)
        self.passes: dict[int, PassTotals] = {}
        self._pass_id: int | None = None
        self._totals: PassTotals | None = None
        self._stack: list[list] = []  # frames: [span_id or None, start_ns, child_ns]
        self._next_id = 0
        self.observer_errors: set[str] = set()

    @contextmanager
    def traced_pass(self, pass_id: int):
        self._pass_id = pass_id
        self._totals = self.passes[pass_id] = PassTotals()
        try:
            with self.span("pass"):
                yield self._totals
        finally:
            self._pass_id = self._totals = None

    @contextmanager
    def span(self, name: str):
        frame = self._enter(True)
        try:
            yield
        finally:
            self._exit(frame, name)

    def _enter(self, record: bool) -> list:
        span_id = None
        if record:
            span_id, self._next_id = self._next_id, self._next_id + 1
        frame = [span_id, 0, 0]
        self._stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def _exit(self, frame: list, name: str) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, start, child = frame
        duration = end - start
        totals = self._totals
        totals.calls[name] += 1
        totals.incl_ns[name] += duration
        totals.self_ns[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is not None:
            parent = next((f[0] for f in reversed(self._stack) if f[0] is not None), None)
            self.spans.append((self._pass_id, span_id, parent, name, start, end))

    def wrap(self, fn: Callable, name, record: bool, observe: Callable | None) -> Callable:
        """Wrap fn; name is a metric name or a function of the bound arguments."""
        namer = name if callable(name) else None
        sig = inspect.signature(fn) if namer else None

        def wrapper(*args, **kwargs):
            label = namer(sig.bind(*args, **kwargs).arguments) if namer else name
            frame = self._enter(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, label)
            if observe is not None:
                try:
                    observe(self._totals.counts, args, kwargs, result)
                except Exception as exc:  # noqa: BLE001 - a stale counter must not fail the program
                    self.observer_errors.add(f"{label}: {type(exc).__name__}: {exc}")
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for pass_id, span_id, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"pass": pass_id, "id": span_id, "parent": parent, "name": name,
                         "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )


# ------------------------------------------------------------------- hooks


def _observe_ingest(counts, args, kwargs, result):
    _, report = result
    counts["ingest.rows_read"] += report.rows_read
    counts["ingest.rows_dropped"] += report.rows_dropped_sentinel + report.rows_dropped_unparseable


def _observe_lag(counts, args, kwargs, result):
    counts["features.lag_rows"] += result.n_rows


def _observe_tree(counts, args, kwargs, result):
    nodes, stack = 0, [result.root]
    while stack:
        node = stack.pop()
        nodes += 1
        if not node.is_leaf:
            stack += (node.left, node.right)
    counts["models.tree.nodes"] += nodes


def _observe_events(counts, args, kwargs, result):
    counts["detect.events"] += len(result)


def _observe_trials(counts, args, kwargs, result):
    config = kwargs["config"] if "config" in kwargs else args[1]
    counts["cba.trials"] += config.trials


def _observe_sim(counts, args, kwargs, result):
    counts["plantsim.sim_seconds"] += result.duration_s


def _by_kind(prefix: str, param: str):
    return lambda bound: f"{prefix}.{bound[param]}"


def _policy_kind(bound: dict) -> str:
    kind = type(bound["policy"]).__name__.removesuffix("Policy").lower()
    return f"plantsim.run_policy.{kind}"


# (module, attribute, metric name or namer, record spans, observer)
HOOKS = (
    ("pdmecon.cli", "load_historian_csv", "ingest.load", True, _observe_ingest),
    ("pdmecon.cli", "write_sensor_csv", "ingest.write", True, None),
    ("pdmecon.cli", "make_lag_matrix", "features.lag_matrix", True, _observe_lag),
    ("pdmecon.models.evaluate", "make_lag_matrix", "features.lag_matrix", True, _observe_lag),
    ("pdmecon.cli", "fit_model", _by_kind("models.fit", "kind"), True, None),
    ("pdmecon.models.evaluate", "fit_model", _by_kind("models.fit", "kind"), True, None),
    ("pdmecon.cli", "evaluate_cv", _by_kind("models.evaluate.cv", "model_kind"), True, None),
    ("pdmecon.models.evaluate", "predict", "models.predict", False, None),
    ("pdmecon.plantsim", "predict", "models.predict", False, None),
    ("pdmecon.models.ensemble", "fit_tree", "models.tree.fit", True, _observe_tree),
    ("pdmecon.models.ensemble", "predict_tree", "models.tree.predict", False, None),
    ("pdmecon.cli", "load_model", "models.io.load", True, None),
    ("pdmecon.cli", "model_to_dict", "models.io.to_dict", True, None),
    ("pdmecon.cli", "generate_trace", "plantsim.generate_trace", True, None),
    ("pdmecon.plantsim", "generate_trace", "plantsim.generate_trace", True, None),
    ("pdmecon.cli", "compare_policies", "plantsim.compare_policies", True, None),
    ("pdmecon.plantsim", "run_policy", _policy_kind, True, _observe_sim),
    ("pdmecon.plantsim", "decide", "detect.decide", False, None),
    ("pdmecon.cli", "run_all_detectors", "detect.run_all", True, _observe_events),
    ("pdmecon.cli", "load_ledger", "cba.load_ledger", True, None),
    ("pdmecon.cli", "bridge_from_simulation", "cba.bridge", True, None),
    ("pdmecon.cli", "net_benefit", "cba.net_benefit", True, _observe_trials),
)


@contextmanager
def installed(tracer: Tracer):
    """Patch every hook for the duration of the block; yields the hooks not found."""
    patched, missing = [], []
    try:
        for module_name, attr, name, record, observe in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, tracer.wrap(original, name, record, observe))
            patched.append((module, attr, original))
        yield missing
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


# ----------------------------------------------------------------- metrics

CLI_COMMANDS = ("synth", "ingest", "train", "evaluate", "detect", "simulate", "cba")
MODEL_KINDS = ("linear", "forest", "boost")


def layer_metrics(t: PassTotals, artifact_bytes: int, model_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, by name (seconds, counts, rates)."""
    s = lambda name: t.incl_ns[name] / 1e9  # noqa: E731
    m: dict[str, float] = {}
    m["ingest.load_s"] = s("ingest.load")
    m["ingest.load_calls"] = t.calls["ingest.load"]
    m["ingest.rows_read"] = t.counts["ingest.rows_read"]
    m["ingest.rows_dropped"] = t.counts["ingest.rows_dropped"]
    m["ingest.rows_per_s"] = _ratio(t.counts["ingest.rows_read"], m["ingest.load_s"])
    m["ingest.write_s"] = s("ingest.write")
    m["features.lag_matrix_s"] = s("features.lag_matrix")
    m["features.lag_rows"] = t.counts["features.lag_rows"]
    m["models.tree.fit_s"] = s("models.tree.fit")
    m["models.tree.fit_calls"] = t.calls["models.tree.fit"]
    m["models.tree.nodes"] = t.counts["models.tree.nodes"]
    m["models.tree.predict_calls"] = t.calls["models.tree.predict"]
    for kind in MODEL_KINDS:
        m[f"models.fit_s.{kind}"] = s(f"models.fit.{kind}")
        m[f"models.evaluate.cv_s.{kind}"] = s(f"models.evaluate.cv.{kind}")
    m["models.predict_s"] = s("models.predict")
    m["models.predict_calls"] = t.calls["models.predict"]
    m["models.predict_us_per_call"] = _ratio(1e6 * m["models.predict_s"], t.calls["models.predict"])
    m["models.io.load_s"] = s("models.io.load")
    m["models.io.to_dict_s"] = s("models.io.to_dict")
    m["models.io.model_bytes"] = model_bytes
    policy_s = 0.0
    for kind in ("predictive", "preventive"):
        m[f"plantsim.run_policy_s.{kind}"] = s(f"plantsim.run_policy.{kind}")
        policy_s += m[f"plantsim.run_policy_s.{kind}"]
    m["plantsim.sim_s_per_wall_s"] = _ratio(t.counts["plantsim.sim_seconds"], policy_s)
    m["plantsim.generate_trace_s"] = s("plantsim.generate_trace")
    m["detect.decide_s"] = s("detect.decide")
    m["detect.decide_calls"] = t.calls["detect.decide"]
    m["detect.run_all_s"] = s("detect.run_all")
    m["detect.events"] = t.counts["detect.events"]
    m["cba.net_benefit_s"] = s("cba.net_benefit")
    m["cba.trials_per_s"] = _ratio(t.counts["cba.trials"], m["cba.net_benefit_s"])
    m["cba.load_ledger_s"] = s("cba.load_ledger")
    m["cba.bridge_s"] = s("cba.bridge")
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = s(f"cli.{command}")
    m["cli.artifact_bytes"] = artifact_bytes
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(ns for name, ns in t.self_ns.items() if name.split(".")[0] == layer) / 1e9
    return m


COUNT_METRICS = (
    "ingest.load_calls",
    "ingest.rows_read",
    "ingest.rows_dropped",
    "features.lag_rows",
    "models.tree.fit_calls",
    "models.tree.nodes",
    "models.tree.predict_calls",
    "models.predict_calls",
    "models.io.model_bytes",
    "detect.decide_calls",
    "detect.events",
    "cli.artifact_bytes",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
