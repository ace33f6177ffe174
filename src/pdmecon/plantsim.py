"""Synthetic DPIT traces and maintenance-policy simulation.

generate_trace replays the experiment profile as an array of readings, one
per second: a warmup ramp to baseline, then piecewise-constant setpoints
applied at configured offsets, plus Gaussian sensor noise from a seeded
stream. A fault injection (SpikeRamp, StuckAt) defines its own faulty reading
from its prior, the clean reading the first second the fault wins (the
latest-listed active fault wins). fault_readings applies a list of faults in
one pass, for inject_faults (synth) and run_policy (simulate) alike:

- a spike ramps linearly from at_s to peak_kpa over rise_s seconds, then holds;
- a stuck-at fault holds its prior from at_s for duration_s seconds.

Both refuse a fault that starts after the trace ends and a spike whose peak is
not above the clean reading at its at_s; fault_readings refuses a spike whose
rise, peak_kpa minus its prior, overflows a float64. generate_trace and
run_policy turn a MemoryError from their trace-sized arrays into a
ValidationError naming duration_s, and a forecast's into one naming horizon_s.
A plan, or a fouling rate, that takes a reading beyond float64 range is refused
by its field, and SimOutcome refuses revenue (uptime x rate) beyond it.

run_policy runs the plant in operating spans and computes each stop rather
than stepping to it:

- at each restart, one call fills the readings to the end of the run: trace
  value + linear fouling drift since the restart + the faults not yet cleared.
  No decision can change them before the next stop, so the stop is the first of
  these seconds:
- a breakdown, once the readings stay above the BreakdownRule's fail_limit_kpa
  for more than grace_s consecutive seconds (one cumulative count finds it);
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
cleared spike cannot poison post-restart forecasts. Time is conserved by
construction: SimOutcome derives uptime_s = duration_s - downtime_s and
revenue_units = uptime_s x revenue_rate_per_s. It refuses what no run gives:
a duration_s beyond MAX_SECONDS, or more stops than seconds of downtime,
since each stop is down for at least one second.

A scenario file is read by Scenario's own fields, a fault or a policy by its
"kind"; the policies stay JSON objects until build_policies binds the model.
Its one BreakdownRule is the plant every policy runs on: compare_policies passes
it to each run_policy, and a policy whose maintenance lasts as long as its
repair is refused, by build_policies naming the policy and by run_policy.
A policy named "preventive" or "predictive" must be of that kind, since
ComparisonReport picks the pair by name and derives its deltas from it; the
cost-benefit bridge prices those deltas. comparison.json is the fields of
ComparisonReport, which jsonio.from_dict reads back.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Annotated, ClassVar, Literal

import numpy as np

from . import format_table
from .detect import decide
from .errors import ValidationError
from .features import LagSpec
from .jsonio import from_dict
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
TRACE_CHANNEL = "DPIT301"  # the channel a synthetic trace is written as, and the CLI's default channel
# A run or a forecast holds one float64 per second: 2^53 seconds would take 2^56 bytes, so no
# longer duration_s or horizon_s could ever be allocated, and numpy cannot even size some.
MAX_SECONDS = 2**53


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
        if self.duration_s > MAX_SECONDS:
            raise ValidationError(f"duration_s must be <= 2^53 = {MAX_SECONDS}")
        if self.noise_sigma_kpa < 0:
            raise ValidationError("noise_sigma_kpa must be >= 0")
        if self.warmup_s < 0:
            raise ValidationError("warmup_s must be >= 0")
        _check_float_range("warmup_s", self.warmup_s)
        offsets = [o for o, _ in self.segments]
        if any(b <= a for a, b in zip(offsets, offsets[1:])):
            raise ValidationError("segment offsets must be strictly increasing")
        if offsets and (offsets[0] < 0 or offsets[-1] >= self.duration_s):
            raise ValidationError("segment offsets must lie within [0, duration_s)")


def _check_float_range(name: str, seconds: int) -> None:
    """A ramp divides by its length in seconds as a float, so the length must lie within float range."""
    if seconds > sys.float_info.max:
        raise ValidationError(f"{name} must be at most the largest float64, {sys.float_info.max:.6g}")


def _trace_sized(func):
    """func(plan, ...), its MemoryError from an array of plan.duration_s readings turned into a ValidationError."""

    @functools.wraps(func)
    def wrapper(plan, *args, **kwargs):
        try:
            return func(plan, *args, **kwargs)
        except MemoryError:
            raise ValidationError(
                f"not enough memory for a run of duration_s {plan.duration_s}; use a shorter duration_s"
            ) from None

    return wrapper


@_trace_sized
def generate_trace(plan: TracePlan, seed: int = 0) -> np.ndarray:
    """Deterministic synthetic DPIT readings for a plan and seed, one per second."""
    n = plan.duration_s
    t = np.arange(n)
    base = np.full(n, plan.baseline_kpa)
    for offset, setpoint in plan.segments:
        base[t >= offset] = setpoint
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        if plan.warmup_s > 0:
            ramp = t < plan.warmup_s
            base[ramp] = plan.baseline_kpa * t[ramp] / plan.warmup_s
        noise = np.random.default_rng(seed).standard_normal(n) * plan.noise_sigma_kpa
        trace = base + noise
    _check_finite(base, "baseline_kpa", plan.baseline_kpa)  # only the ramp can overflow
    _check_finite(trace, "noise_sigma_kpa", plan.noise_sigma_kpa)
    return trace


def _check_finite(readings: np.ndarray, name: str, value: float) -> None:
    if (i := _first(~np.isfinite(readings))) < len(readings):
        raise ValidationError(f"{name} {value} takes the reading at second {i} beyond float64 range")


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
        _check_float_range("rise_s", self.rise_s)

    @property
    def end_s(self) -> float:
        """A spike has no end of its own; only maintenance clears it."""
        return math.inf

    def reading(self, t, prior):
        """The reading at second(s) t >= at_s; prior is the clean reading the first second the fault wins."""
        if not math.isfinite(self.peak_kpa - float(prior)):  # then every reading between the two is finite
            raise ValidationError(f"peak_kpa {self.peak_kpa} minus its prior reading {prior} is beyond float64 range")
        return prior + (self.peak_kpa - prior) * np.minimum((t - self.at_s) / self.rise_s, 1.0)


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


def inject_faults(trace: np.ndarray, injections: list[FaultInjection]) -> np.ndarray:
    """The readings of a standalone trace with the faults applied (spikes hold to the end)."""
    _check_injections(trace, injections)
    return fault_readings(trace, injections)


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

    def check_repair_dominates(self, policy, what: str) -> None:
        """Refuse a policy whose maintenance lasts as long as a repair: the comparison would be moot."""
        if policy.maint_duration_s >= self.repair_duration_s:
            raise ValidationError(
                f"{what}: maint_duration_s {policy.maint_duration_s} must be shorter than "
                f"repair_duration_s {self.repair_duration_s}"
            )


@dataclass(frozen=True)
class PreventivePolicy:
    kind: ClassVar[str] = "preventive"
    cycle_s: int = 1800
    maint_duration_s: int = 300

    def __post_init__(self):
        if self.cycle_s < 1 or self.maint_duration_s < 1:
            raise ValidationError("cycle_s and maint_duration_s must be >= 1")


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
        if self.horizon_s > MAX_SECONDS:
            raise ValidationError(f"horizon_s must be <= 2^53 = {MAX_SECONDS}")
        if self.limit_kpa >= self.hard_limit_kpa:
            raise ValidationError("limit_kpa must be below hard_limit_kpa")


PolicyConfig = Annotated[PreventivePolicy | PredictivePolicy, "kind"]


@dataclass(frozen=True)
class EconParams:
    fouling_rate_kpa_per_s: float = 0.0
    revenue_rate_per_s: float = 1.0

    def __post_init__(self):
        if self.fouling_rate_kpa_per_s < 0:
            raise ValidationError("fouling_rate_kpa_per_s must be >= 0")
        if self.revenue_rate_per_s < 0:
            raise ValidationError("revenue_rate_per_s must be >= 0")


@dataclass(frozen=True)
class SimOutcome:
    duration_s: int
    uptime_s: int = field(init=False)  # duration_s - downtime_s
    downtime_s: int
    maintenance_count: int
    breakdown_count: int
    revenue_rate_per_s: float
    revenue_units: float = field(init=False)  # uptime_s x revenue_rate_per_s

    def __post_init__(self):
        object.__setattr__(self, "uptime_s", self.duration_s - self.downtime_s)
        if self.duration_s < 1:
            raise ValidationError("duration_s must be >= 1")
        if self.duration_s > MAX_SECONDS:  # no longer run can be simulated
            raise ValidationError(f"duration_s must be <= 2^53 = {MAX_SECONDS}")
        for name in ("uptime_s", "downtime_s", "maintenance_count", "breakdown_count", "revenue_rate_per_s"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.maintenance_count + self.breakdown_count > self.downtime_s:
            raise ValidationError(
                f"maintenance_count + breakdown_count must be <= downtime_s {self.downtime_s}: "
                "each stop is down for at least one second"
            )
        object.__setattr__(self, "revenue_units", self.uptime_s * self.revenue_rate_per_s)
        if not math.isfinite(self.revenue_units):
            raise ValidationError(
                f"revenue_rate_per_s {self.revenue_rate_per_s} x uptime_s {self.uptime_s} is beyond float64 range"
            )


def _forecast(model, windows: np.ndarray, lags: np.ndarray, horizon: int) -> np.ndarray:
    """Iterated multi-step forecasts, one row per (rows, max_lag) lag window, shape (rows, horizon).

    Predictions feed back as lag inputs. The work buffer is time-major, so each step reads
    its lag inputs as whole rows; a row's forecast does not depend on the rows beside it.
    """
    max_lag = windows.shape[1]
    try:
        work = np.empty((max_lag + horizon, len(windows)))
    except MemoryError:
        raise ValidationError(
            f"not enough memory for a forecast of horizon_s {horizon}; use a shorter horizon_s"
        ) from None
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
    lo, block = early, min(256, cap)
    while lo < stop:
        hi = min(lo + block, stop)
        # built here, once a full window exists: a run shorter than max_lag never gets this far
        windows = np.lib.stride_tricks.sliding_window_view(obs, max_lag)  # row t + 1 - max_lag ends at second t
        forecast = _forecast(policy.model, windows[lo + 1 - max_lag : hi + 1 - max_lag], lags, policy.horizon_s)
        i = _first((forecast > limit).any(axis=1))
        if i < len(forecast):
            return lo + i, forecast[i]
        lo, block = hi, min(2 * block, cap)
    return stop, None


@_trace_sized
def run_policy(
    plan: TracePlan,
    injections: list[FaultInjection],
    policy: PolicyConfig,
    econ: EconParams = EconParams(),
    seed: int = 0,
    breakdown: BreakdownRule = BreakdownRule(),
) -> SimOutcome:
    """Simulate plant operation under one maintenance policy on a plant that breaks down by the breakdown rule.

    Refuses a policy whose maintenance lasts as long as a repair. Deterministic given the arguments.
    """
    breakdown.check_repair_dominates(policy, f"{policy.kind} policy")
    trace = generate_trace(plan, seed)
    _check_injections(trace, injections)
    duration = plan.duration_s
    grace = breakdown.grace_s

    pending = list(injections)  # not yet cleared by maintenance
    obs = np.empty(duration)
    start = downtime = maintenance_count = breakdown_count = 0

    while start < duration:
        with np.errstate(over="ignore"):  # refused below; the first restart's drift is the largest
            clean = trace[start:] + econ.fouling_rate_kpa_per_s * np.arange(duration - start)
        _check_finite(clean, "fouling_rate_kpa_per_s", econ.fouling_rate_kpa_per_s)
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

    return SimOutcome(
        duration_s=duration,
        downtime_s=downtime,
        maintenance_count=maintenance_count,
        breakdown_count=breakdown_count,
        revenue_rate_per_s=econ.revenue_rate_per_s,
    )


@dataclass(frozen=True)
class Deltas:
    """A comparison's preventive-versus-predictive deltas, None without that pair: preventive minus
    predictive for downtime and maintenance count, and predictive minus preventive for revenue
    (what the predictive policy gains, the value the cost-benefit bridge prices)."""

    downtime_avoided_s: int | None = None
    maintenance_avoided: int | None = None
    revenue_delta: float | None = None


@dataclass(frozen=True)
class ComparisonReport:
    """The comparison.json document, written and read back (jsonio.from_dict) by its fields. Its outcomes
    share one duration_s and revenue_rate_per_s, and its deltas are derived from them."""

    schema_version: Literal[1]
    outcomes: dict[str, SimOutcome]
    deltas: Deltas = field(init=False)

    def __post_init__(self):
        for name in ("duration_s", "revenue_rate_per_s"):
            if len({getattr(o, name) for o in self.outcomes.values()}) > 1:
                raise ValidationError(f"outcomes disagree on {name}; every policy runs one plan at one revenue rate")
        deltas = Deltas()
        if "preventive" in self.outcomes and "predictive" in self.outcomes:
            prev, pred = self.outcomes["preventive"], self.outcomes["predictive"]
            deltas = Deltas(
                downtime_avoided_s=prev.downtime_s - pred.downtime_s,
                maintenance_avoided=prev.maintenance_count - pred.maintenance_count,
                revenue_delta=pred.revenue_units - prev.revenue_units,
            )
        object.__setattr__(self, "deltas", deltas)


def compare_policies(
    plan: TracePlan,
    injections: list[FaultInjection],
    policies: dict[str, PolicyConfig],
    econ: EconParams = EconParams(),
    seed: int = 0,
    breakdown: BreakdownRule = BreakdownRule(),
) -> ComparisonReport:
    """Run every policy on one trace and one breakdown rule; the report holds the outcomes and derives their deltas."""
    if len(policies) < 2:
        raise ValidationError("compare_policies needs at least 2 policies")
    outcomes = {name: run_policy(plan, injections, pol, econ, seed, breakdown) for name, pol in policies.items()}
    return ComparisonReport(1, outcomes)


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
    if report.deltas.revenue_delta is not None:
        lines.append(
            f"deltas: downtime avoided {report.deltas.downtime_avoided_s} s, "
            f"maintenance avoided {report.deltas.maintenance_avoided}, "
            f"revenue delta {report.deltas.revenue_delta:.1f}"
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
    breakdown: BreakdownRule = BreakdownRule()  # the one plant every policy runs on

    def build_policies(self, model=None, lag_spec: LagSpec | None = None) -> dict[str, PolicyConfig]:
        policies = {}
        for name, doc in self.policies.items():
            policy = from_dict(PolicyConfig, doc, f"scenario.policies.{name}", model=model, lag_spec=lag_spec)
            if name in ("preventive", "predictive") and policy.kind != name:
                raise ValidationError(
                    f"scenario.policies.{name} is of kind {policy.kind!r}, "
                    f"but the name {name!r} is reserved for a policy of kind {name!r}"
                )
            self.breakdown.check_repair_dominates(policy, f"scenario.policies.{name}")
            policies[name] = policy
        return policies
