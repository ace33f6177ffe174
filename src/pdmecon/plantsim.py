"""Synthetic DPIT traces and maintenance-policy simulation.

generate_trace replays the experiment profile: a warmup ramp to baseline, then
piecewise-constant setpoints applied at configured offsets, plus Gaussian
sensor noise from a seeded stream. A fault injection (SpikeRamp, StuckAt)
defines its own faulty reading from its prior, the clean reading the first
second the fault wins (the latest-listed active fault wins). fault_readings
applies a list of faults in one pass, for inject_faults (synth) and run_policy
(simulate) alike:

- a spike ramps linearly from at_s to peak_kpa over rise_s seconds, then holds;
- a stuck-at fault holds its prior from at_s for duration_s seconds.

Both refuse a fault that starts after the trace ends and a spike whose peak is
not above the clean reading at its at_s.

run_policy runs the plant in operating spans and computes each stop rather
than stepping to it:

- at each restart, one call fills the readings to the end of the run: trace
  value + linear fouling drift since the restart + the faults not yet cleared.
  No decision can change them before the next stop, so the stop is the first of
  these seconds:
- a breakdown, once the readings stay above fail_limit_kpa for more than
  grace_s consecutive seconds (one cumulative count finds it);
- a preventive policy's maintenance, cycle_s seconds after the restart;
- a predictive policy's HALT, at the first reading >= hard_limit_kpa, or the
  maintenance schedule_window_s after its first SCHEDULE. That is the first
  second whose forecast over the horizon crosses limit_kpa (before max_lag
  seconds of history, the reading itself). Blocks of 256 seconds, doubling up
  to 2048 (fewer for a long horizon), are forecast in one batch: one model
  call per horizon step covers the whole block. The comparisons are decide's,
  and decide makes the directive at the SCHEDULE second. Maintenance wins a
  tie with a breakdown;
- maintenance and repair both halt production for their whole outage in one
  step, reset fouling, and on completion clear every fault that has started.

Outage seconds record the plain trace value in the observation buffer so a
cleared spike cannot poison post-restart forecasts. Time is conserved exactly:
uptime + downtime == duration for every run.

A scenario file is read by Scenario's own fields, a fault or a policy by its
"kind"; the policies stay JSON objects until build_policies binds the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Annotated, ClassVar, Literal

import numpy as np

from . import format_table
from .detect import decide
from .errors import ValidationError
from .features import LagSpec
from .ingest import Channel, SensorFrame, Series
from .jsonio import from_dict, plain
from .models import LinearModel, predict

# Setpoint offsets replaying the recorded change sequence (35, 20, 35, 20, 40
# kPa); the run is assumed to start one stabilization period (warmup) before
# the first change.
DEFAULT_SETPOINT_SEGMENTS = (
    (1200, 35.0),
    (1800, 20.0),
    (2460, 35.0),
    (3180, 20.0),
    (4200, 40.0),
)


@dataclass(frozen=True)
class TracePlan:
    duration_s: int = 8700
    baseline_kpa: float = 30.0
    segments: tuple[tuple[int, float], ...] = DEFAULT_SETPOINT_SEGMENTS
    noise_sigma_kpa: float = 0.2
    warmup_s: int = 1200

    def __post_init__(self):
        if self.duration_s < 1:
            raise ValidationError("duration_s must be >= 1")
        if self.noise_sigma_kpa < 0:
            raise ValidationError("noise_sigma_kpa must be >= 0")
        if self.warmup_s < 0:
            raise ValidationError("warmup_s must be >= 0")
        offsets = [o for o, _ in self.segments]
        if any(b <= a for a, b in zip(offsets, offsets[1:])):
            raise ValidationError("segment offsets must be strictly increasing")
        if offsets and (offsets[0] < 0 or offsets[-1] >= self.duration_s):
            raise ValidationError("segment offsets must lie within [0, duration_s)")


def generate_trace(plan: TracePlan, seed: int = 0) -> Series:
    """Deterministic synthetic DPIT series for a plan and seed, one reading per second."""
    n = plan.duration_s
    t = np.arange(n)
    base = np.full(n, plan.baseline_kpa)
    for offset, setpoint in plan.segments:
        base[t >= offset] = setpoint
    if plan.warmup_s > 0:
        ramp = t < plan.warmup_s
        base[ramp] = plan.baseline_kpa * t[ramp] / plan.warmup_s
    noise = np.random.default_rng(seed).standard_normal(n) * plan.noise_sigma_kpa
    return Series(timestamps=t.astype(np.int64), values=base + noise, name="DPIT301")


@dataclass(frozen=True)
class SpikeRamp:
    """Pressure ramps linearly from the clean reading the first second the fault wins
    to peak_kpa over rise_s seconds from at_s, then holds (until maintenance clears it)."""

    kind: ClassVar[str] = "spike_ramp"
    at_s: int
    peak_kpa: float
    rise_s: int

    def __post_init__(self):
        if self.at_s < 0 or self.rise_s < 1:
            raise ValidationError("SpikeRamp requires at_s >= 0 and rise_s >= 1")

    @property
    def end_s(self) -> float:
        """A spike has no end of its own; only maintenance clears it."""
        return math.inf

    def reading(self, t, prior):
        """The reading at second(s) t >= at_s; prior is the clean reading the first second the fault wins."""
        return prior + (self.peak_kpa - prior) * (np.minimum(t - self.at_s, self.rise_s) / self.rise_s)


@dataclass(frozen=True)
class StuckAt:
    """The reading freezes at the clean reading the first second the fault wins, until at_s + duration_s."""

    kind: ClassVar[str] = "stuck_at"
    at_s: int
    duration_s: int

    def __post_init__(self):
        if self.at_s < 0 or self.duration_s < 1:
            raise ValidationError("StuckAt requires at_s >= 0 and duration_s >= 1")

    @property
    def end_s(self) -> int:
        """The first second at which the reading is free again."""
        return self.at_s + self.duration_s

    def reading(self, t, prior):
        """The reading at second(s) t in [at_s, end_s): the prior itself."""
        return prior


FaultInjection = Annotated[SpikeRamp | StuckAt, "kind"]


def fault_readings(clean: np.ndarray, injections: list[FaultInjection], start: int = 0) -> np.ndarray:
    """The readings at seconds start.., where clean[k] is the clean reading at second start + k.

    Each second the latest-listed active fault wins; a fault's prior is clean at the first second it wins.
    """
    t = np.arange(start, start + len(clean))
    readings = clean.copy()
    free = np.ones(len(clean), dtype=bool)  # not yet won by a later-listed fault
    for inj in reversed(injections):
        wins = free & (inj.at_s <= t) & (t < inj.end_s)
        if wins.any():
            readings[wins] = inj.reading(t[wins], clean[wins.argmax()])
            free &= ~wins
    return readings


def _check_injections(clean: np.ndarray, injections: list[FaultInjection]) -> None:
    """Refuse a fault that starts after the clean trace ends or a spike that does not rise above it."""
    for inj in injections:
        if inj.at_s >= len(clean):
            raise ValidationError(f"injection at_s {inj.at_s} beyond duration {len(clean)}")
        if isinstance(inj, SpikeRamp) and inj.peak_kpa <= clean[inj.at_s]:
            raise ValidationError(
                f"SpikeRamp peak {inj.peak_kpa} must exceed the clean reading {clean[inj.at_s]:.3f}"
            )


def inject_faults(series: Series, injections: list[FaultInjection]) -> Series:
    """Apply faults to a standalone series (spikes hold to the end)."""
    _check_injections(series.values, injections)
    return replace(series, values=fault_readings(series.values, injections))


@dataclass(frozen=True)
class BreakdownRule:
    fail_limit_kpa: float = 50.0
    grace_s: int = 5
    repair_duration_s: int = 1800

    def __post_init__(self):
        if self.grace_s < 0:
            raise ValidationError("grace_s must be >= 0")
        if self.repair_duration_s < 1:
            raise ValidationError("repair_duration_s must be >= 1")


@dataclass(frozen=True)
class PreventivePolicy:
    kind: ClassVar[str] = "preventive"
    cycle_s: int = 1800
    maint_duration_s: int = 300
    breakdown: BreakdownRule = field(default_factory=BreakdownRule)

    def __post_init__(self):
        if self.cycle_s < 1 or self.maint_duration_s < 1:
            raise ValidationError("cycle_s and maint_duration_s must be >= 1")
        _check_repair_dominates(self.maint_duration_s, self.breakdown)


@dataclass(frozen=True)
class PredictivePolicy:
    kind: ClassVar[str] = "predictive"
    model: object  # a trained model: kind, n_features and predict(X)
    lag_spec: LagSpec
    limit_kpa: float = 40.0
    hard_limit_kpa: float = 50.0
    horizon_s: int = 60
    schedule_window_s: int = 300
    maint_duration_s: int = 300
    breakdown: BreakdownRule = field(default_factory=BreakdownRule)

    def __post_init__(self):
        if self.model is None or self.lag_spec is None:
            raise ValidationError("a predictive policy requires a trained model and its lag spec")
        if self.model.n_features != self.lag_spec.n_features:
            raise ValidationError(
                f"model expects {self.model.n_features} features but the lag spec "
                f"provides {self.lag_spec.n_features}"
            )
        if self.horizon_s < 1 or self.schedule_window_s < 1 or self.maint_duration_s < 1:
            raise ValidationError("horizon_s, schedule_window_s, maint_duration_s must be >= 1")
        if self.limit_kpa >= self.hard_limit_kpa:
            raise ValidationError("limit_kpa must be below hard_limit_kpa")
        _check_repair_dominates(self.maint_duration_s, self.breakdown)


def _check_repair_dominates(maint_duration_s: int, breakdown: BreakdownRule) -> None:
    # repairs must cost more than planned maintenance or the comparison is moot
    if maint_duration_s >= breakdown.repair_duration_s:
        raise ValidationError(
            f"maint_duration_s {maint_duration_s} must be shorter than "
            f"repair_duration_s {breakdown.repair_duration_s}"
        )


PolicyConfig = Annotated[PreventivePolicy | PredictivePolicy, "kind"]


@dataclass(frozen=True)
class EconParams:
    fouling_rate_kpa_per_s: float = 0.0
    revenue_rate_per_s: float = 1.0

    def __post_init__(self):
        if self.fouling_rate_kpa_per_s < 0:
            raise ValidationError("fouling_rate_kpa_per_s must be >= 0")


@dataclass(frozen=True)
class SimOutcome:
    duration_s: int
    uptime_s: int
    downtime_s: int
    maintenance_count: int
    breakdown_count: int
    revenue_rate_per_s: float
    revenue_units: float

    def __post_init__(self):
        if self.uptime_s + self.downtime_s != self.duration_s:
            raise ValidationError(
                f"time not conserved: {self.uptime_s} + {self.downtime_s} != {self.duration_s}"
            )
        if self.revenue_units != self.uptime_s * self.revenue_rate_per_s:
            raise ValidationError(
                f"revenue {self.revenue_units} inconsistent with uptime {self.uptime_s} "
                f"x rate {self.revenue_rate_per_s}"
            )


def _forecast(model, windows: np.ndarray, lags: np.ndarray, horizon: int) -> np.ndarray:
    """Iterated multi-step forecasts, one row per (rows, max_lag) lag window, shape (rows, horizon).

    Predictions feed back as lag inputs. The work buffer is time-major, so each step reads
    its lag inputs as whole rows; a row's forecast does not depend on the rows beside it.
    """
    max_lag = windows.shape[1]
    work = np.empty((max_lag + horizon, len(windows)))
    work[:max_lag] = windows.T
    for pos in range(max_lag, max_lag + horizon):
        if isinstance(model, LinearModel):
            acc = np.zeros(len(windows))
            for coef, lag in zip(model.coefficients, lags):
                acc += coef * work[pos - lag]  # a fixed-order sum: the same bits for any number of rows
            work[pos] = model.intercept + acc
        else:
            work[pos] = predict(model, work[pos - lags].T)
    return work[max_lag:].T


def _first(mask: np.ndarray) -> int:
    """The index of the first True in mask, or len(mask) when there is none."""
    return int(mask.argmax()) if mask.any() else len(mask)


def _first_schedule(policy: PredictivePolicy, obs: np.ndarray, start: int, stop: int):
    """The first second in [start, stop) whose forecast crosses limit_kpa, with that forecast;
    (stop, None) when there is none. Blocks of 256 seconds, doubling up to 2048, are forecast at once;
    a long horizon shrinks the blocks so the work buffer stays within 2**20 numbers (8 MB)."""
    lags, max_lag, limit = policy.lag_spec.lags, int(policy.lag_spec.max_lag), policy.limit_kpa
    cap = max(1, min(2048, 2**20 // (max_lag + policy.horizon_s)))
    early = min(max(start, max_lag - 1), stop)  # too little history: the forecast is the reading itself
    t = start + _first(obs[start:early] > limit)
    if t < early:
        return t, obs[t : t + 1]
    windows = np.lib.stride_tricks.sliding_window_view(obs, max_lag)  # row t + 1 - max_lag ends at second t
    lo, block = early, min(256, cap)
    while lo < stop:
        hi = min(lo + block, stop)
        forecast = _forecast(policy.model, windows[lo + 1 - max_lag : hi + 1 - max_lag], lags, policy.horizon_s)
        i = _first((forecast > limit).any(axis=1))
        if i < len(forecast):
            return lo + i, forecast[i]
        lo, block = hi, min(2 * block, cap)
    return stop, None


def run_policy(
    plan: TracePlan,
    injections: list[FaultInjection],
    policy: PolicyConfig,
    econ: EconParams = EconParams(),
    seed: int = 0,
) -> SimOutcome:
    """Simulate plant operation under one maintenance policy.

    Deterministic given (plan, injections, policy, econ, seed).
    """
    trace = generate_trace(plan, seed).values
    _check_injections(trace, injections)
    duration = plan.duration_s
    breakdown = policy.breakdown
    grace = breakdown.grace_s

    pending = list(injections)  # not yet cleared by maintenance
    obs = np.empty(duration)
    start = downtime = maintenance_count = breakdown_count = 0

    while start < duration:
        clean = trace[start:] + econ.fouling_rate_kpa_per_s * np.arange(duration - start)
        obs[start:] = readings = fault_readings(clean, pending, start)
        # breakdown: the first second ending more than grace_s consecutive readings above fail_limit_kpa
        above = np.concatenate(([0], np.cumsum(readings > breakdown.fail_limit_kpa)))
        broken = start + grace + _first(above[grace + 1 :] - above[: -grace - 1] == grace + 1)
        if isinstance(policy, PredictivePolicy):
            due = start + _first(readings >= policy.hard_limit_kpa)  # HALT
            t, forecast = _first_schedule(policy, obs, start, min(due, broken))
            if forecast is not None:
                directive = decide(
                    forecast, policy.limit_kpa, policy.hard_limit_kpa, obs[t], policy.schedule_window_s
                )
                due = min(due, t + directive.schedule_within_s)  # a later SCHEDULE is never due sooner
        else:
            due = start + policy.cycle_s
        t = min(due, broken)
        if t >= duration:
            break  # no stop before the end of the run
        if due <= broken:  # maintenance wins a tie with a breakdown
            outage = policy.maint_duration_s
            maintenance_count += 1
        else:
            outage = breakdown.repair_duration_s
            breakdown_count += 1

        # the stop second t and the rest of the outage are down; the plant restarts at end
        end = min(t + outage, duration)
        obs[t + 1 : end] = trace[t + 1 : end]
        downtime += end - t
        pending = [f for f in pending if f.at_s >= end]
        start = end

    uptime = duration - downtime
    return SimOutcome(
        duration_s=duration,
        uptime_s=uptime,
        downtime_s=downtime,
        maintenance_count=maintenance_count,
        breakdown_count=breakdown_count,
        revenue_rate_per_s=econ.revenue_rate_per_s,
        revenue_units=uptime * econ.revenue_rate_per_s,
    )


@dataclass(frozen=True)
class ComparisonReport:
    outcomes: dict[str, SimOutcome]
    downtime_avoided_s: int | None = None
    maintenance_avoided: int | None = None
    revenue_delta: float | None = None

    def to_dict(self) -> dict:
        doc = plain(self)
        return {"schema_version": 1, "outcomes": doc.pop("outcomes"), "deltas": doc}


@dataclass(frozen=True)
class _ComparisonDoc:
    schema_version: Literal[1]
    outcomes: dict[str, SimOutcome]
    deltas: dict = field(default_factory=dict)


def comparison_from_dict(doc) -> ComparisonReport:
    doc = from_dict(_ComparisonDoc, doc, "comparison")
    return from_dict(ComparisonReport, doc.deltas, "comparison.deltas", outcomes=doc.outcomes)


def compare_policies(
    plan: TracePlan,
    injections: list[FaultInjection],
    policies: dict[str, PolicyConfig],
    econ: EconParams = EconParams(),
    seed: int = 0,
) -> ComparisonReport:
    """Run every policy on the same trace and report per-policy outcomes.

    When both a "preventive" and a "predictive" policy are present, deltas are
    reported as preventive minus predictive for downtime and maintenance count
    and predictive minus preventive for revenue (the bridge value consumed by
    the cost-benefit ledger).
    """
    if len(policies) < 2:
        raise ValidationError("compare_policies needs at least 2 policies")
    outcomes = {name: run_policy(plan, injections, pol, econ, seed) for name, pol in policies.items()}
    downtime_avoided = maintenance_avoided = revenue_delta = None
    if "preventive" in outcomes and "predictive" in outcomes:
        prev, pred = outcomes["preventive"], outcomes["predictive"]
        downtime_avoided = prev.downtime_s - pred.downtime_s
        maintenance_avoided = prev.maintenance_count - pred.maintenance_count
        revenue_delta = pred.revenue_units - prev.revenue_units
    return ComparisonReport(
        outcomes=outcomes,
        downtime_avoided_s=downtime_avoided,
        maintenance_avoided=maintenance_avoided,
        revenue_delta=revenue_delta,
    )


def format_comparison(report: ComparisonReport) -> str:
    headers = ["policy", "uptime_s", "downtime_s", "maintenance", "breakdowns", "revenue"]
    rows = [
        [
            name,
            str(o.uptime_s),
            str(o.downtime_s),
            str(o.maintenance_count),
            str(o.breakdown_count),
            f"{o.revenue_units:.1f}",
        ]
        for name, o in report.outcomes.items()
    ]
    lines = [format_table(headers, rows)]
    if report.revenue_delta is not None:
        lines.append(
            f"deltas: downtime avoided {report.downtime_avoided_s} s, "
            f"maintenance avoided {report.maintenance_avoided}, "
            f"revenue delta {report.revenue_delta:.1f}"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class Scenario:
    schema_version: Literal[1]
    policies: dict  # name -> JSON policy object, read by build_policies with the model bound
    description: str = ""
    plan: TracePlan = TracePlan()
    injections: tuple[FaultInjection, ...] = ()
    econ: EconParams = EconParams()

    def build_policies(self, model=None, lag_spec: LagSpec | None = None) -> dict[str, PolicyConfig]:
        return {
            name: from_dict(PolicyConfig, doc, f"scenario.policies.{name}", model=model, lag_spec=lag_spec)
            for name, doc in self.policies.items()
        }


def scenario_from_dict(doc) -> Scenario:
    return from_dict(Scenario, doc, "scenario")


def trace_to_frame(series: Series) -> SensorFrame:
    """Wrap a trace as a single-channel SensorFrame for CSV export."""
    return SensorFrame(
        timestamps=series.timestamps,
        channels=(Channel(name=series.name or "DPIT301", values=series.values),),
    )
