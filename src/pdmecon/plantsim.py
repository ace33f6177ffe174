"""Synthetic DPIT traces and maintenance-policy simulation.

generate_trace replays the experiment profile: a warmup ramp to baseline, then
piecewise-constant setpoints applied at configured offsets, plus Gaussian
sensor noise from a seeded stream. inject_fault overlays sensor/process
faults. run_policy steps the plant one second at a time:

- pressure = trace value + linear fouling drift since the last maintenance,
  unless an injected fault overrides the reading;
- a preventive policy maintains every cycle_s of operating time, a predictive
  policy forecasts pressure over a horizon with a trained model and applies
  the threshold decision rule each step;
- any policy whose pressure stays above fail_limit_kpa for more than grace_s
  consecutive seconds suffers a breakdown (longer outage than maintenance);
- maintenance and repair both halt production, reset fouling, and clear any
  injected fault that has already started.

Downtime seconds record the plain trace value in the observation buffer so a
cleared spike cannot poison post-restart forecasts. Time is conserved exactly:
uptime + downtime == duration for every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import format_table
from .detect import Action, decide
from .errors import ValidationError
from .features import LagSpec
from .ingest import Channel, SensorFrame, Series
from .jsonio import from_dict, tagged
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
    sample_period_s: int = 1
    baseline_kpa: float = 30.0
    segments: tuple[tuple[int, float], ...] = DEFAULT_SETPOINT_SEGMENTS
    noise_sigma_kpa: float = 0.2
    warmup_s: int = 1200

    def __post_init__(self):
        if self.duration_s < 1:
            raise ValidationError("duration_s must be >= 1")
        if self.sample_period_s != 1:
            raise ValidationError("sample_period_s is fixed at 1 second")
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
    """Deterministic synthetic DPIT series for a plan and seed."""
    n = plan.duration_s
    t = np.arange(n)
    base = np.full(n, plan.baseline_kpa)
    for offset, setpoint in plan.segments:
        base[t >= offset] = setpoint
    if plan.warmup_s > 0:
        ramp = t < plan.warmup_s
        base[ramp] = plan.baseline_kpa * t[ramp] / plan.warmup_s
    noise = np.random.default_rng(seed).standard_normal(n) * plan.noise_sigma_kpa
    return Series(timestamps=t.astype(np.int64), values=base + noise, name="DPIT301", unit="kPa")


@dataclass(frozen=True)
class SpikeRamp:
    """Pressure ramps linearly from its prior value to peak_kpa over rise_s
    seconds, then holds (until cleared by maintenance inside a simulation)."""

    at_s: int
    peak_kpa: float
    rise_s: int

    def __post_init__(self):
        if self.at_s < 0 or self.rise_s < 1:
            raise ValidationError("SpikeRamp requires at_s >= 0 and rise_s >= 1")


@dataclass(frozen=True)
class StuckAt:
    """The reading freezes at its current value for duration_s seconds."""

    at_s: int
    duration_s: int

    def __post_init__(self):
        if self.at_s < 0 or self.duration_s < 1:
            raise ValidationError("StuckAt requires at_s >= 0 and duration_s >= 1")


FaultInjection = SpikeRamp | StuckAt


def injection_from_dict(doc, what: str = "injection") -> FaultInjection:
    cls, fields = tagged(doc, "kind", {"spike_ramp": SpikeRamp, "stuck_at": StuckAt}, what)
    return from_dict(cls, fields, what)


def inject_fault(series: Series, injection: FaultInjection) -> Series:
    """Apply one fault to a standalone series (spikes hold to the end)."""
    values = series.values.copy()
    n = len(values)
    if injection.at_s >= n:
        raise ValidationError(f"injection at_s {injection.at_s} beyond series length {n}")
    if isinstance(injection, SpikeRamp):
        prior = values[injection.at_s - 1] if injection.at_s > 0 else values[0]
        if injection.peak_kpa <= prior:
            raise ValidationError(
                f"SpikeRamp peak {injection.peak_kpa} must exceed the prior value {prior:.3f}"
            )
        end = min(injection.at_s + injection.rise_s, n - 1)
        for t in range(injection.at_s, end + 1):
            values[t] = prior + (injection.peak_kpa - prior) * (t - injection.at_s) / injection.rise_s
        values[end + 1 :] = injection.peak_kpa
    else:
        stop = min(injection.at_s + injection.duration_s, n)
        values[injection.at_s : stop] = values[injection.at_s]
    return Series(timestamps=series.timestamps, values=values, name=series.name, unit=series.unit)


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
    cycle_s: int = 1800
    maint_duration_s: int = 300
    breakdown: BreakdownRule = field(default_factory=BreakdownRule)

    def __post_init__(self):
        if self.cycle_s < 1 or self.maint_duration_s < 1:
            raise ValidationError("cycle_s and maint_duration_s must be >= 1")
        _check_repair_dominates(self.maint_duration_s, self.breakdown)


@dataclass(frozen=True)
class PredictivePolicy:
    model: object  # any trained ForecastModel
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


PolicyConfig = PreventivePolicy | PredictivePolicy


def policy_from_dict(
    doc, model=None, lag_spec: LagSpec | None = None, what: str = "policy"
) -> PolicyConfig:
    cls, fields = tagged(
        doc, "kind", {"preventive": PreventivePolicy, "predictive": PredictivePolicy}, what
    )
    if cls is PreventivePolicy:
        return from_dict(cls, fields, what)
    return from_dict(cls, fields, what, model=model, lag_spec=lag_spec)


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

    def to_dict(self) -> dict:
        return {
            "duration_s": self.duration_s,
            "uptime_s": self.uptime_s,
            "downtime_s": self.downtime_s,
            "maintenance_count": self.maintenance_count,
            "breakdown_count": self.breakdown_count,
            "revenue_rate_per_s": self.revenue_rate_per_s,
            "revenue_units": self.revenue_units,
        }


class _FaultState:
    """Tracks one injection inside a run; cleared by completed maintenance."""

    def __init__(self, injection: FaultInjection):
        self.injection = injection
        self.cleared = False
        self.prior: float | None = None  # pressure captured at activation

    def active(self, t: int) -> bool:
        if self.cleared or t < self.injection.at_s:
            return False
        if isinstance(self.injection, StuckAt):
            return t < self.injection.at_s + self.injection.duration_s
        return True

    def value(self, t: int, normal_pressure: float) -> float:
        if self.prior is None:
            self.prior = normal_pressure
        inj = self.injection
        if isinstance(inj, SpikeRamp):
            frac = min(t - inj.at_s, inj.rise_s) / inj.rise_s
            return self.prior + (inj.peak_kpa - self.prior) * frac
        return self.prior


def _forecast(model, recent: np.ndarray, lags: np.ndarray, horizon: int) -> np.ndarray:
    """Iterated multi-step forecast feeding predictions back as lag inputs."""
    max_lag = int(lags[-1])
    work = np.empty(max_lag + horizon)
    work[:max_lag] = recent[-max_lag:]
    if isinstance(model, LinearModel):
        intercept, coefs = model.intercept, model.coefficients
        for h in range(horizon):
            pos = max_lag + h
            work[pos] = intercept + coefs @ work[pos - lags]
    else:
        for h in range(horizon):
            pos = max_lag + h
            work[pos] = predict(model, work[pos - lags][None, :])[0]
    return work[max_lag:]


def run_policy(
    plan: TracePlan,
    injections: list[FaultInjection],
    policy: PolicyConfig,
    fouling_rate_kpa_per_s: float = 0.0,
    revenue_rate_per_s: float = 1.0,
    seed: int = 0,
) -> SimOutcome:
    """Simulate plant operation under one maintenance policy.

    Deterministic given (plan, injections, policy, rates, seed).
    """
    if fouling_rate_kpa_per_s < 0:
        raise ValidationError("fouling_rate_kpa_per_s must be >= 0")
    for inj in injections:
        if inj.at_s >= plan.duration_s:
            raise ValidationError(f"injection at_s {inj.at_s} beyond duration {plan.duration_s}")

    trace = generate_trace(plan, seed).values
    duration = plan.duration_s
    breakdown = policy.breakdown
    predictive = isinstance(policy, PredictivePolicy)
    if predictive:
        n_lags = policy.lag_spec.n_features
        if policy.model.n_features != n_lags:
            raise ValidationError(
                f"model expects {policy.model.n_features} features but the lag spec "
                f"provides {n_lags}"
            )
        lags = policy.lag_spec.lags
        max_lag = int(policy.lag_spec.max_lag)

    faults = [_FaultState(inj) for inj in injections]
    obs = np.empty(duration)
    operating = True
    down_remaining = 0
    since_maint = 0
    breach_run = 0
    scheduled_due: int | None = None
    uptime = downtime = 0
    maintenance_count = breakdown_count = 0

    for t in range(duration):
        if operating:
            normal = trace[t] + fouling_rate_kpa_per_s * since_maint
            fault = next((f for f in reversed(faults) if f.active(t)), None)
            pressure = fault.value(t, normal) if fault else normal
            obs[t] = pressure

            start_maint = False
            if predictive:
                if scheduled_due is not None and t >= scheduled_due:
                    start_maint = True
                else:
                    if t + 1 >= max_lag:
                        horizon = _forecast(policy.model, obs[: t + 1], lags, policy.horizon_s)
                    else:
                        horizon = np.array([pressure])  # not enough history yet
                    directive = decide(
                        horizon,
                        policy.limit_kpa,
                        policy.hard_limit_kpa,
                        pressure,
                        policy.schedule_window_s,
                    )
                    if directive.action is Action.HALT:
                        start_maint = True
                    elif directive.action is Action.SCHEDULE:
                        due = t + directive.schedule_within_s
                        scheduled_due = due if scheduled_due is None else min(scheduled_due, due)
            else:
                if since_maint >= policy.cycle_s:
                    start_maint = True

            if start_maint:
                operating = False
                down_remaining = policy.maint_duration_s
                maintenance_count += 1
            else:
                if pressure > breakdown.fail_limit_kpa:
                    breach_run += 1
                else:
                    breach_run = 0
                if breach_run > breakdown.grace_s:
                    operating = False
                    down_remaining = breakdown.repair_duration_s
                    breakdown_count += 1
        else:
            obs[t] = trace[t]

        if operating:
            uptime += 1
            since_maint += 1
        else:
            downtime += 1
            down_remaining -= 1
            if down_remaining <= 0:
                operating = True
                since_maint = 0
                breach_run = 0
                scheduled_due = None
                for f in faults:
                    if f.injection.at_s <= t:
                        f.cleared = True

    return SimOutcome(
        duration_s=duration,
        uptime_s=uptime,
        downtime_s=downtime,
        maintenance_count=maintenance_count,
        breakdown_count=breakdown_count,
        revenue_rate_per_s=revenue_rate_per_s,
        revenue_units=uptime * revenue_rate_per_s,
    )


@dataclass(frozen=True)
class ComparisonReport:
    outcomes: dict  # policy name -> SimOutcome
    downtime_avoided_s: int | None = None
    maintenance_avoided: int | None = None
    revenue_delta: float | None = None

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "outcomes": {name: o.to_dict() for name, o in self.outcomes.items()},
            "deltas": {
                "downtime_avoided_s": self.downtime_avoided_s,
                "maintenance_avoided": self.maintenance_avoided,
                "revenue_delta": self.revenue_delta,
            },
        }


@dataclass(frozen=True)
class _ComparisonDoc:
    schema_version: Literal[1]
    outcomes: dict
    deltas: dict = field(default_factory=dict)


def comparison_from_dict(doc) -> ComparisonReport:
    doc = from_dict(_ComparisonDoc, doc, "comparison")
    outcomes = {
        name: from_dict(SimOutcome, o, f"comparison.outcomes.{name}") for name, o in doc.outcomes.items()
    }
    return from_dict(ComparisonReport, doc.deltas, "comparison.deltas", outcomes=outcomes)


def compare_policies(
    plan: TracePlan,
    injections: list[FaultInjection],
    policies: dict[str, PolicyConfig],
    econ: EconParams | None = None,
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
    econ = econ or EconParams()
    outcomes = {
        name: run_policy(
            plan, injections, pol, econ.fouling_rate_kpa_per_s, econ.revenue_rate_per_s, seed
        )
        for name, pol in policies.items()
    }
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


@dataclass
class Scenario:
    plan: TracePlan
    injections: list
    policy_docs: dict  # name -> raw policy dict; model bound at build time
    econ: EconParams

    def build_policies(self, model=None, lag_spec: LagSpec | None = None) -> dict[str, PolicyConfig]:
        return {
            name: policy_from_dict(doc, model, lag_spec, f"scenario.policies.{name}")
            for name, doc in self.policy_docs.items()
        }


@dataclass(frozen=True)
class _ScenarioDoc:
    schema_version: Literal[1]
    policies: dict
    description: str = ""
    plan: TracePlan = TracePlan()
    injections: tuple[dict, ...] = ()
    econ: EconParams = EconParams()


def scenario_from_dict(doc) -> Scenario:
    doc = from_dict(_ScenarioDoc, doc, "scenario")
    injections = [
        injection_from_dict(d, f"scenario.injections[{i}]") for i, d in enumerate(doc.injections)
    ]
    return Scenario(plan=doc.plan, injections=injections, policy_docs=doc.policies, econ=doc.econ)


def trace_to_frame(series: Series, channel_name: str | None = None) -> SensorFrame:
    """Wrap a trace as a single-channel SensorFrame for CSV export."""
    name = channel_name or series.name or "DPIT301"
    return SensorFrame(
        timestamps=series.timestamps,
        channels=(Channel(name=name, values=series.values, unit=series.unit),),
    )
