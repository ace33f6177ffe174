"""Rule-based sensor fault detection and the maintenance decision rule.

Four fault families are covered, each as a pure scan over a uniformly sampled
(1 Hz) series:

- outliers, via sample-to-sample gradient and via distance from the rolling
  median in robust MAD units;
- spikes: sustained short-window uptrends with a minimum total rise;
- stuck-at: rolling variance below a floor for a minimum duration;
- high variance: rolling variance above a ceiling.

Every detector is ``detect_*(values, config: DetectorConfig) ->
list[FaultEvent]`` over one sensor's readings and reads its thresholds and
windows from the config, which checks their ranges itself. A detector refuses
only what depends on the data: too few samples, a window longer than the
series (detect_spike instead finds no event there), or readings so large that
the rolling variance overflows. Adjacent flagged samples merge into one
inclusive [start, end] event; every detector returns events sorted by start
with no overlaps. An event is written by its fields. Rolling variance is
population variance (ddof=0) on a series centered by its global mean, which
keeps the cumulative-sum form accurate for near-constant kPa-scale data.
The rolling median and MAD are taken a fixed chunk of windows at a time, so
beyond its two outputs the distance detector copies at most 512 KB of
windows, however long the series or the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import format_table
from .errors import ValidationError
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
    start: int
    end: int  # inclusive
    severity: float

    def __post_init__(self):
        if self.start > self.end:
            raise ValidationError(f"event start {self.start} > end {self.end}")


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


def _readings(values) -> np.ndarray:
    """values as float64, refused beyond the bound the detectors' sums allow.

    The rolling variance sums up to n squared deviations from the mean, each at
    most (2 |x|)^2, so every |value| must be at most sqrt(float64 max / (4 * n));
    NaN fails the check too.
    """
    values = np.asarray(values, dtype=np.float64)
    bound = math.sqrt(np.finfo(np.float64).max / (4 * max(len(values), 1)))
    largest = float(np.abs(values).max(initial=0.0))  # NaN propagates
    if not largest <= bound:
        raise ValidationError(
            f"cannot run the detectors on readings as large as |x| = {largest:.6g}: with {len(values)} "
            f"readings, the rolling variance overflows float64 beyond |x| = {bound:.6g}"
        )
    return values


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


# cells of a chunk's copy of its sliding windows: 2**16 float64 (512 KB), so
# the median and MAD need one output each beside the readings, whatever the window
_CHUNK_CELLS = 2**16


def _rolling_median_mad(values: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Median and median absolute deviation of every length-`window` slice (one per start).

    The window is odd, so each median is the slice's middle order statistic,
    which one partition finds (np.median partitions twice, once more to look
    for the NaN that _readings refuses). The slices are taken a chunk of
    starts at a time, in one reused buffer of at most _CHUNK_CELLS cells (one
    start per chunk when the window is longer): each chunk's copy is
    partitioned for the medians, then overwritten by its deviations, which are
    partitioned in place. Each slice is partitioned on its own, so chunking
    moves no bit.
    """
    strides = np.lib.stride_tricks.sliding_window_view(values, window)
    mid, n = window // 2, len(strides)
    medians, mads = np.empty(n), np.empty(n)
    step = max(1, _CHUNK_CELLS // window)  # starts per chunk
    buffer = np.empty((min(step, n), window))
    for start in range(0, n, step):
        chunk = strides[start : start + step]
        part, median = buffer[: len(chunk)], medians[start : start + step]
        part[...] = chunk
        part.partition(mid, axis=1)
        median[...] = part[:, mid]
        np.subtract(chunk, median[:, None], out=part)
        np.abs(part, out=part)
        part.partition(mid, axis=1)
        mads[start : start + step] = part[:, mid]
    return medians, mads


def detect_outliers_gradient(values, config: DetectorConfig) -> list[FaultEvent]:
    """Flag samples whose step from the previous sample exceeds gradient_max_rate kPa/s."""
    values = _readings(values)
    if len(values) < 2:
        raise ValidationError("need at least 2 samples")
    excess = np.abs(np.diff(values)) - config.gradient_max_rate
    flags = np.concatenate(([False], excess > 0))
    return [
        FaultEvent(FaultKind.OUTLIER, start, end, float(excess[start - 1 : end].max()))
        for start, end in _flag_runs(flags)
    ]


def detect_outliers_distance(values, config: DetectorConfig) -> list[FaultEvent]:
    """Flag samples farther than mad_k rolling MADs from the rolling median.

    The window is centered, so the first and last mad_window // 2 samples are
    never flagged. The MAD is floored at 1e-9 to avoid flagging identical data.
    """
    values = _readings(values)
    window = config.mad_window
    if window > len(values):
        raise ValidationError(f"mad_window {window} larger than series ({len(values)})")
    medians, mads = _rolling_median_mad(values, window)
    centers = slice(window // 2, len(values) - window // 2)
    excess = np.zeros(len(values))  # distance beyond the limit at each window's center
    excess[centers] = np.abs(values[centers] - medians) - config.mad_k * np.maximum(mads, 1e-9)
    return [
        FaultEvent(FaultKind.OUTLIER, start, end, float(excess[start : end + 1].max()))
        for start, end in _flag_runs(excess > 0)
    ]


def detect_spike(values, config: DetectorConfig) -> list[FaultEvent]:
    """Flag spike_window-long uptrends: total rise >= spike_min_rise with >= 80%
    of the in-window steps non-decreasing. Overlapping windows merge; severity
    is the rise over the merged span."""
    values = _readings(values)
    window = config.spike_window
    n = len(values)
    if n < window:
        return []
    steps_up = (np.diff(values) >= 0).astype(np.float64)
    c = np.concatenate(([0.0], np.cumsum(steps_up)))
    up_share = (c[window - 1 :] - c[: -(window - 1)]) / (window - 1)
    rise = values[window - 1 :] - values[: n - window + 1]
    window_hits = (rise >= config.spike_min_rise) & (up_share >= 0.8)
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


def detect_stuck(values, config: DetectorConfig) -> list[FaultEvent]:
    """Flag spans where rolling variance stays below stuck_eps_var for at
    least stuck_min_duration samples. Severity is the span length."""
    values = _readings(values)
    w = config.stuck_window
    if w > len(values):
        raise ValidationError(f"stuck_window {w} larger than series ({len(values)})")
    low = _rolling_var(values, w) < config.stuck_eps_var
    return [
        FaultEvent(FaultKind.STUCK_AT, start, end, float(end - start + 1))
        for start, end in _flag_runs(_window_coverage(low, w, len(values)))
        if end - start + 1 >= config.stuck_min_duration
    ]


def detect_high_variance(values, config: DetectorConfig) -> list[FaultEvent]:
    """Flag spans where rolling variance exceeds var_threshold. Severity is
    the worst excess over the threshold."""
    values = _readings(values)
    w = config.var_window
    if w > len(values):
        raise ValidationError(f"var_window {w} larger than series ({len(values)})")
    excess = _rolling_var(values, w) - config.var_threshold
    return [
        FaultEvent(FaultKind.HIGH_VARIANCE, start, end, float(excess[start : min(end, len(excess) - 1) + 1].max()))
        for start, end in _flag_runs(_window_coverage(excess > 0, w, len(values)))
    ]


DETECTORS = (detect_outliers_gradient, detect_outliers_distance, detect_spike, detect_stuck, detect_high_variance)


def run_all_detectors(values, config: DetectorConfig) -> list[FaultEvent]:
    """Run every detector in DETECTORS; events sorted by start, end and kind."""
    events = [event for detect in DETECTORS for event in detect(values, config)]
    return sorted(events, key=lambda e: (e.start, e.end, e.kind.value))


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
    """One compact JSON object of the event's fields per line: {kind, start, end, severity}."""
    return "\n".join(map(dumps, events))


def format_events(events: list[FaultEvent]) -> str:
    """Text table of the events, one row each; "(no events)" under the header when empty."""
    rows = [[e.kind.value, str(e.start), str(e.end), f"{e.severity:.3f}"] for e in events]
    table = format_table(["kind", "start", "end", "severity"], rows)
    return table if events else f"{table}\n(no events)"
