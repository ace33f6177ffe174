"""Rule-based sensor fault detection and the maintenance decision rule.

Four fault families are covered, each as a pure scan over a uniformly sampled
(1 Hz) series:

- outliers, via sample-to-sample gradient and via distance from the rolling
  median in robust MAD units;
- spikes: sustained short-window uptrends with a minimum total rise;
- stuck-at: rolling variance below a floor for a minimum duration;
- high variance: rolling variance above a ceiling.

Adjacent flagged samples merge into one inclusive [start, end] event; every
detector returns events sorted by start with no overlaps. All constants live
in DetectorConfig. Rolling variance is population variance (ddof=0) on a
series centered by its global mean, which keeps the cumulative-sum form
accurate for near-constant kPa-scale data.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError
from .ingest import series_values
from .jsonio import dumps


class FaultKind(str, Enum):
    OUTLIER = "Outlier"
    SPIKE = "Spike"
    STUCK_AT = "StuckAt"
    HIGH_VARIANCE = "HighVariance"
    LIMIT_BREACH = "LimitBreach"


@dataclass(frozen=True)
class FaultEvent:
    kind: FaultKind
    start_index: int
    end_index: int  # inclusive
    severity: float

    def __post_init__(self):
        if self.start_index > self.end_index:
            raise ValidationError(f"event start {self.start_index} > end {self.end_index}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "start": self.start_index,
            "end": self.end_index,
            "severity": self.severity,
        }


@dataclass(frozen=True)
class DetectorConfig:
    """Thresholds and windows for all detectors; units are kPa, samples, kPa^2.

    stuck_eps_var must sit below slope^2 * (w^2 - 1) / 12 of the slowest drift
    that should still count as live signal (w = stuck_window).
    """

    gradient_max_rate: float = 10.0  # kPa/s
    mad_window: int = 11
    mad_k: float = 5.0
    spike_window: int = 10
    spike_min_rise: float = 5.0  # kPa
    stuck_window: int = 30
    stuck_eps_var: float = 1e-6  # kPa^2
    stuck_min_duration: int = 60
    var_window: int = 30
    var_threshold: float = 25.0  # kPa^2

    def __post_init__(self):
        for name in ("mad_window", "spike_window", "stuck_window", "var_window"):
            if getattr(self, name) < 2:
                raise ValidationError(f"{name} must be >= 2")
        for name in (
            "gradient_max_rate",
            "mad_k",
            "spike_min_rise",
            "stuck_eps_var",
            "var_threshold",
        ):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be > 0")
        if self.mad_window % 2 == 0 or self.mad_window < 3:
            raise ValidationError("mad_window must be odd and >= 3")
        if self.stuck_min_duration < 1:
            raise ValidationError("stuck_min_duration must be >= 1")


def _flag_runs(flags: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of True as inclusive (start, end) pairs."""
    idx = np.flatnonzero(flags)
    if len(idx) == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [len(idx) - 1]))
    return [(int(idx[s]), int(idx[e])) for s, e in zip(starts, ends)]


def _rolling_var(values: np.ndarray, window: int) -> np.ndarray:
    """Population variance for every length-`window` slice (one per start)."""
    x = values - values.mean()  # translation-invariant; improves conditioning
    c1 = np.concatenate(([0.0], np.cumsum(x)))
    c2 = np.concatenate(([0.0], np.cumsum(x * x)))
    s1 = c1[window:] - c1[:-window]
    s2 = c2[window:] - c2[:-window]
    return np.maximum(s2 / window - (s1 / window) ** 2, 0.0)


def detect_outliers_gradient(series, max_rate: float) -> list[FaultEvent]:
    """Flag samples whose step from the previous sample exceeds max_rate kPa/s."""
    if max_rate <= 0:
        raise ValidationError("max_rate must be > 0")
    values = series_values(series)
    if len(values) < 2:
        raise ValidationError("need at least 2 samples")
    excess = np.abs(np.diff(values)) - max_rate
    flags = np.concatenate(([False], excess > 0))
    events = []
    for start, end in _flag_runs(flags):
        events.append(
            FaultEvent(FaultKind.OUTLIER, start, end, float(excess[start - 1 : end].max()))
        )
    return events


def detect_outliers_distance(series, window: int, k: float) -> list[FaultEvent]:
    """Flag samples farther than k rolling MADs from the rolling median.

    The window is centered, so the first and last window//2 samples are never
    flagged. The MAD is floored at 1e-9 to avoid flagging identical data.
    """
    values = series_values(series)
    if window % 2 == 0 or window < 3:
        raise ValidationError("window must be odd and >= 3")
    if window > len(values):
        raise ValidationError(f"window {window} larger than series ({len(values)})")
    half = window // 2
    n = len(values)
    flags = np.zeros(n, dtype=bool)
    deviations = np.zeros(n)
    strides = np.lib.stride_tricks.sliding_window_view(values, window)
    medians = np.median(strides, axis=1)
    mads = np.median(np.abs(strides - medians[:, None]), axis=1)
    centers = np.arange(half, n - half)
    dev = np.abs(values[centers] - medians)
    limit = k * np.maximum(mads, 1e-9)
    flags[centers] = dev > limit
    deviations[centers] = dev - limit
    return [
        FaultEvent(FaultKind.OUTLIER, start, end, float(deviations[start : end + 1].max()))
        for start, end in _flag_runs(flags)
    ]


def detect_spike(series, window: int, min_rise: float) -> list[FaultEvent]:
    """Flag short-window uptrends: total rise >= min_rise with >= 80% of the
    in-window steps non-decreasing. Overlapping windows merge; severity is the
    rise over the merged span."""
    if window < 2:
        raise ValidationError("window must be >= 2")
    if min_rise <= 0:
        raise ValidationError("min_rise must be > 0")
    values = series_values(series)
    n = len(values)
    if n < window:
        return []
    steps_up = (np.diff(values) >= 0).astype(np.float64)
    c = np.concatenate(([0.0], np.cumsum(steps_up)))
    up_share = (c[window - 1 :] - c[: -(window - 1)]) / (window - 1)
    rise = values[window - 1 :] - values[: n - window + 1]
    window_hits = (rise >= min_rise) & (up_share >= 0.8)
    covered = _window_coverage(window_hits, window, n)
    return [
        FaultEvent(FaultKind.SPIKE, start, end, float(values[end] - values[start]))
        for start, end in _flag_runs(covered)
    ]


def _window_coverage(hits: np.ndarray, window: int, n: int) -> np.ndarray:
    """Samples covered by at least one flagged length-`window` slice."""
    covered = np.zeros(n, dtype=bool)
    for start, end in _flag_runs(hits):
        covered[start : end + window] = True
    return covered


def detect_stuck(series, config: DetectorConfig) -> list[FaultEvent]:
    """Flag spans where rolling variance stays below stuck_eps_var for at
    least stuck_min_duration samples. Severity is the span length."""
    values = series_values(series)
    w = config.stuck_window
    if w > len(values):
        raise ValidationError(f"stuck_window {w} larger than series ({len(values)})")
    low = _rolling_var(values, w) < config.stuck_eps_var
    events = []
    for start, end in _flag_runs(_window_coverage(low, w, len(values))):
        duration = end - start + 1
        if duration >= config.stuck_min_duration:
            events.append(FaultEvent(FaultKind.STUCK_AT, start, end, float(duration)))
    return events


def detect_high_variance(series, config: DetectorConfig) -> list[FaultEvent]:
    """Flag spans where rolling variance exceeds var_threshold. Severity is
    the worst excess over the threshold."""
    values = series_values(series)
    w = config.var_window
    if w > len(values):
        raise ValidationError(f"var_window {w} larger than series ({len(values)})")
    var = _rolling_var(values, w)
    high = var > config.var_threshold
    events = []
    for start, end in _flag_runs(_window_coverage(high, w, len(values))):
        severity = float(var[start : min(end, len(var) - 1) + 1].max() - config.var_threshold)
        events.append(FaultEvent(FaultKind.HIGH_VARIANCE, start, end, severity))
    return events


def run_all_detectors(series, config: DetectorConfig | None = None) -> list[FaultEvent]:
    """Run every detector with its configured constants; events sorted by start."""
    config = config or DetectorConfig()
    events = []
    events += detect_outliers_gradient(series, config.gradient_max_rate)
    events += detect_outliers_distance(series, config.mad_window, config.mad_k)
    events += detect_spike(series, config.spike_window, config.spike_min_rise)
    events += detect_stuck(series, config)
    events += detect_high_variance(series, config)
    return sorted(events, key=lambda e: (e.start_index, e.end_index, e.kind.value))


class Action(str, Enum):
    CONTINUE = "ContinueOperation"
    SCHEDULE = "ScheduleWithin"
    HALT = "HaltNow"


@dataclass(frozen=True)
class MaintenanceDirective:
    action: Action
    schedule_within_s: int | None = None
    # trigger indices are relative to the forecast horizon (0 = now)
    trigger: FaultEvent | None = None

    def __post_init__(self):
        if self.action is Action.SCHEDULE and (
            self.schedule_within_s is None or self.schedule_within_s <= 0
        ):
            raise ValidationError("ScheduleWithin requires a positive duration")


def decide(
    forecast,
    limit: float,
    hard_limit: float,
    current: float,
    schedule_window_s: int = 300,
) -> MaintenanceDirective:
    """Convert a pressure forecast into a maintenance directive.

    current >= hard_limit halts immediately; otherwise any forecast value
    above limit schedules maintenance within schedule_window_s; otherwise the
    plant continues running.
    """
    forecast = np.asarray(forecast, dtype=np.float64).ravel()
    if len(forecast) == 0:
        raise ValidationError("forecast horizon is empty")
    if limit >= hard_limit:
        raise ValidationError(f"limit {limit} must be below hard_limit {hard_limit}")
    if current >= hard_limit:
        trig = FaultEvent(FaultKind.LIMIT_BREACH, 0, 0, float(current - hard_limit))
        return MaintenanceDirective(Action.HALT, trigger=trig)
    above = np.flatnonzero(forecast > limit)
    if len(above):
        i = int(above[0])
        trig = FaultEvent(FaultKind.LIMIT_BREACH, i, i, float(forecast[i] - limit))
        return MaintenanceDirective(Action.SCHEDULE, schedule_within_s=schedule_window_s, trigger=trig)
    return MaintenanceDirective(Action.CONTINUE)


def events_to_jsonl(events: list[FaultEvent]) -> str:
    """One compact JSON object per line: {kind, start, end, severity}."""
    return "\n".join(dumps(e.to_dict()) for e in events)


def format_events(events: list[FaultEvent]) -> str:
    header = f"{'kind':<13}{'start':>8}{'end':>8}{'severity':>12}"
    lines = [header]
    for e in events:
        lines.append(f"{e.kind.value:<13}{e.start_index:>8}{e.end_index:>8}{e.severity:>12.3f}")
    if not events:
        lines.append("(no events)")
    return "\n".join(lines)
