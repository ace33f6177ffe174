import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmecon import detect
from pdmecon.detect import (
    DETECTORS,
    Action,
    DetectorConfig,
    FaultKind,
    decide,
    detect_high_variance,
    detect_outliers_distance,
    detect_outliers_gradient,
    detect_spike,
    detect_stuck,
    events_to_jsonl,
    run_all_detectors,
)
from pdmecon.errors import ValidationError


def assert_sorted_non_overlapping(events):
    """Per-detector contract: sorted by start, no overlaps after merging."""
    for prev, cur in zip(events, events[1:]):
        assert prev.start <= cur.start
        assert prev.end < cur.start


# --- gradient outliers ---

def test_gradient_constant_none():
    assert detect_outliers_gradient(np.full(50, 30.0), DetectorConfig()) == []


def test_gradient_isolated_jump():
    events = detect_outliers_gradient(np.array([0.0, 0.0, 100.0, 0.0, 0.0]), DetectorConfig())
    assert len(events) == 1
    (event,) = events
    assert event.kind is FaultKind.OUTLIER
    assert event.start <= 2 <= event.end
    assert event.severity >= 90.0


def test_gradient_subthreshold_ramp():
    assert detect_outliers_gradient(np.arange(100.0), DetectorConfig(gradient_max_rate=2.0)) == []


def test_gradient_scale_covariance():
    rng = np.random.default_rng(6)
    series = np.cumsum(rng.normal(size=200)) + rng.normal(scale=4, size=200)
    base = detect_outliers_gradient(series, DetectorConfig(gradient_max_rate=5.0))
    scaled = detect_outliers_gradient(3.5 * series, DetectorConfig(gradient_max_rate=3.5 * 5.0))
    assert [(e.start, e.end) for e in base] == [
        (e.start, e.end) for e in scaled
    ]


def test_gradient_errors():
    with pytest.raises(ValidationError, match="gradient_max_rate must be > 0"):
        DetectorConfig(gradient_max_rate=0.0)
    with pytest.raises(ValidationError, match="at least 2 samples"):
        detect_outliers_gradient(np.zeros(1), DetectorConfig())


# --- distance outliers ---

def test_distance_single_displaced_point():
    series = np.full(60, 30.0)
    series[25] = 80.0
    events = detect_outliers_distance(series, DetectorConfig(mad_window=11, mad_k=5.0))
    assert len(events) == 1
    assert events[0].start == events[0].end == 25


def test_distance_noiseless_ramp_none():
    assert detect_outliers_distance(np.arange(100.0), DetectorConfig(mad_window=11, mad_k=3.0)) == []


def test_distance_identical_series_none():
    assert detect_outliers_distance(np.full(40, 5.0), DetectorConfig(mad_window=11, mad_k=5.0)) == []


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(1, 15).map(lambda k: 2 * k + 1),  # the odd windows 3..31
    st.lists(st.integers(-3, 3).map(float) | st.floats(-1e3, 1e3), min_size=31, max_size=120),
)
def test_rolling_median_and_mad_equal_np_median(window, readings):
    # small integers repeat, so most windows hold ties; a chunk of one cell takes one start per chunk
    values = np.array(readings)
    strides = np.lib.stride_tricks.sliding_window_view(values, window)
    expected = np.median(strides, axis=1)
    for chunk_cells in (detect._CHUNK_CELLS, 1):
        with patch.object(detect, "_CHUNK_CELLS", chunk_cells):
            medians, mads = detect._rolling_median_mad(values, window)
        np.testing.assert_array_equal(medians, expected)
        np.testing.assert_array_equal(mads, np.median(np.abs(strides - expected[:, None]), axis=1))


def test_rolling_median_and_mad_peak_below_three_times_the_readings():
    # two outputs of one float64 per start, plus one chunk's copy of its windows
    values = np.random.default_rng(3).normal(30.0, 2.0, size=10**6)
    tracemalloc.start()
    try:
        detect._rolling_median_mad(values, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * values.nbytes, f"peak {peak} bytes is {peak / values.nbytes:.2f} x the readings"


def test_distance_window_errors():
    with pytest.raises(ValidationError, match="odd"):
        DetectorConfig(mad_window=10)
    with pytest.raises(ValidationError, match="mad_window 7 larger than series"):
        detect_outliers_distance(np.zeros(5), DetectorConfig(mad_window=7))


# --- spikes ---

def spike_series():
    series = np.full(120, 30.0)
    series[50:60] = 30.0 + 1.2 * np.arange(1, 11)  # 12 kPa rise over 10 s
    series[60:] = 42.0
    return series


def test_spike_ramp_detected():
    events = detect_spike(spike_series(), DetectorConfig(spike_window=10, spike_min_rise=5.0))
    assert len(events) == 1
    assert events[0].kind is FaultKind.SPIKE
    assert events[0].start <= 50
    assert events[0].end >= 59
    assert events[0].severity >= 5.0


def test_spike_constant_none():
    assert detect_spike(np.full(60, 30.0), DetectorConfig()) == []


def test_spike_decreasing_none():
    assert detect_spike(np.linspace(100, 0, 80), DetectorConfig()) == []


def test_spike_series_shorter_than_window_none():
    assert detect_spike(np.arange(5.0) * 10, DetectorConfig(spike_window=10)) == []


def test_spike_errors():
    with pytest.raises(ValidationError, match="spike_window must be >= 2"):
        DetectorConfig(spike_window=1)
    with pytest.raises(ValidationError, match="spike_min_rise must be > 0"):
        DetectorConfig(spike_min_rise=0.0)


# --- stuck-at ---

def test_stuck_gaussian_noise_none():
    rng = np.random.default_rng(0)
    series = 30.0 + rng.normal(scale=1.0, size=500)
    assert detect_stuck(series, DetectorConfig()) == []


def test_stuck_constant_segment_detected():
    rng = np.random.default_rng(1)
    series = 30.0 + rng.normal(scale=1.0, size=400)
    series[100:220] = 33.0
    events = detect_stuck(series, DetectorConfig())
    assert len(events) == 1
    (event,) = events
    assert event.kind is FaultKind.STUCK_AT
    assert event.start >= 100
    assert event.end <= 220
    assert event.end - event.start + 1 >= 100  # spans most of the segment


def test_stuck_short_segment_gated():
    rng = np.random.default_rng(2)
    series = 30.0 + rng.normal(scale=1.0, size=400)
    series[100:140] = 33.0  # 40 samples < min_duration 60
    assert detect_stuck(series, DetectorConfig()) == []


# --- high variance ---

def test_high_variance_constant_none():
    assert detect_high_variance(np.full(100, 30.0), DetectorConfig()) == []


def test_high_variance_alternating_segment():
    series = np.full(300, 30.0)
    series[100:180] = 30.0 + 10.0 * (-1.0) ** np.arange(80)  # variance 100 > 25
    events = detect_high_variance(series, DetectorConfig())
    assert len(events) == 1
    assert events[0].start <= 100
    assert events[0].end >= 179 - 1
    assert events[0].severity > 0


def test_high_variance_slow_ramp_none():
    config = DetectorConfig(var_threshold=1.0)
    series = 30.0 + 0.01 * np.arange(600)
    # windowed population variance of a slope-m ramp is m^2 (w^2 - 1) / 12
    w = config.var_window
    assert 0.01**2 * (w**2 - 1) / 12 < 1.0
    assert detect_high_variance(series, config) == []


def test_rolling_variance_matches_numpy_oracle():
    from pdmecon.detect import _rolling_var

    rng = np.random.default_rng(3)
    values = 30.0 + rng.normal(scale=2.0, size=200)
    for window in (2, 5, 30, 200):
        got = _rolling_var(values, window)
        expected = np.array(
            [np.var(values[s : s + window]) for s in range(len(values) - window + 1)]
        )
        np.testing.assert_allclose(got, expected, atol=1e-10)


@pytest.mark.parametrize("detect", DETECTORS, ids=lambda d: d.__name__)
def test_readings_beyond_the_overflow_bound_are_refused(detect):
    # the rolling variance's cumulative sum of squares overflowed near 1e200, and high variance went unseen
    series = 1e200 * (np.arange(200) % 7)
    with pytest.raises(ValidationError) as caught:
        detect(series, DetectorConfig())
    assert str(caught.value) == (
        "cannot run the detectors on readings as large as |x| = 6e+200: with 200 readings, "
        "the rolling variance overflows float64 beyond |x| = 4.74038e+152"
    )
    with pytest.raises(ValidationError, match=r"as large as \|x\| = nan"):
        detect(np.where(np.arange(200) == 50, np.nan, 30.0), DetectorConfig())


def test_readings_at_the_overflow_bound_are_detected():
    bound = np.sqrt(np.finfo(np.float64).max / (4 * 200))
    for scale in (1e10, bound):
        events = detect_high_variance(scale / 6 * (np.arange(200) % 7), DetectorConfig())
        assert len(events) == 1 and np.isfinite(events[0].severity)
    alternating = np.where(np.arange(200) % 2, bound, -bound)
    assert all(np.isfinite(e.severity) for e in run_all_detectors(alternating, DetectorConfig()))


# --- combined behavior ---

def test_constant_series_triggers_only_stuck():
    series = np.full(200, 30.0)
    events = run_all_detectors(series, DetectorConfig())
    assert {e.kind for e in events} == {FaultKind.STUCK_AT}


def test_events_sorted_and_merged_on_messy_data():
    rng = np.random.default_rng(13)
    series = 30.0 + rng.normal(scale=0.5, size=600)
    series[50] = 90.0
    series[200:260] = 31.0
    series[400:440] = 30.0 + 8.0 * (-1.0) ** np.arange(40)
    config = DetectorConfig()
    per_detector = [detect(series, config) for detect in DETECTORS]
    assert any(per_detector)
    for events in per_detector:
        assert_sorted_non_overlapping(events)
    combined = run_all_detectors(series, config)
    assert [e.start for e in combined] == sorted(e.start for e in combined)


def test_translation_covariance_local_detectors():
    def build(pos, n=400):
        series = np.full(n, 30.0)
        series[pos] = 75.0
        return series

    config = DetectorConfig()
    shift = 37
    for detector in (detect_outliers_gradient, detect_outliers_distance, detect_spike):
        base = detector(build(120), config)
        moved = detector(build(120 + shift), config)
        assert len(base) == len(moved) > 0
        for a, b in zip(base, moved):
            assert (b.start, b.end) == (a.start + shift, a.end + shift)


def test_translation_covariance_stuck():
    rng = np.random.default_rng(17)
    series = 30.0 + rng.normal(scale=1.0, size=500)
    series[150:280] = 32.0
    shift = 40
    base = detect_stuck(series, DetectorConfig())
    moved = detect_stuck(np.roll(series, shift), DetectorConfig())
    assert len(base) == len(moved) == 1
    assert moved[0].start == base[0].start + shift
    assert moved[0].end == base[0].end + shift


def test_jsonl_output():
    series = np.full(30, 30.0)
    series[10] = 99.0
    events = detect_outliers_gradient(series, DetectorConfig())
    lines = events_to_jsonl(events).splitlines()
    assert lines == ['{"end": 11, "kind": "Outlier", "severity": 59.0, "start": 10}']  # the step up and back down


# --- decision rule ---

def test_decide_continue_below_limit():
    d = decide(np.full(60, 35.0), 40.0, 50.0, current=35.0)
    assert d.action is Action.CONTINUE
    assert d.trigger is None


def test_decide_schedule_on_forecast_crossing():
    forecast = np.concatenate([np.full(30, 38.0), np.full(30, 41.0)])
    d = decide(forecast, 40.0, 50.0, current=38.0)
    assert d.action is Action.SCHEDULE
    assert d.schedule_within_s == 300
    assert d.trigger.kind is FaultKind.LIMIT_BREACH
    assert d.trigger.start == 30


def test_decide_halt_on_hard_limit():
    d = decide(np.full(10, 20.0), 40.0, 50.0, current=55.0)
    assert d.action is Action.HALT


def test_decide_errors():
    with pytest.raises(ValidationError, match="empty"):
        decide(np.array([]), 40.0, 50.0, current=30.0)
    with pytest.raises(ValidationError, match="below"):
        decide(np.array([30.0]), 50.0, 40.0, current=30.0)


def test_decide_monotone_in_forecast():
    rng = np.random.default_rng(23)
    for _ in range(100):
        forecast = rng.uniform(20, 45, size=20)
        before = decide(forecast, 40.0, 50.0, current=30.0)
        bumped = forecast.copy()
        i = rng.integers(0, 20)
        bumped[i] += rng.uniform(0, 10)
        after = decide(bumped, 40.0, 50.0, current=30.0)
        if before.action is Action.SCHEDULE:
            assert after.action is Action.SCHEDULE
