import numpy as np
import pytest

import pdmecon
from pdmecon.detect import DetectorConfig, detect_stuck
from pdmecon.errors import ValidationError
from pdmecon.features import LagSpec
from pdmecon.jsonio import from_dict
from pdmecon.models import LinearModel
from pdmecon.plantsim import (
    BreakdownRule,
    EconParams,
    PredictivePolicy,
    PreventivePolicy,
    SpikeRamp,
    StuckAt,
    TracePlan,
    compare_policies,
    generate_trace,
    inject_fault,
    run_policy,
    scenario_from_dict,
    trace_to_frame,
)

PERSISTENCE_LAGS = LagSpec(1, 2)


def persistence_model() -> LinearModel:
    # next value = current value; enough for threshold-crossing decisions
    return LinearModel(intercept=0.0, coefficients=np.array([1.0, 0.0]))


def quiet_plan(duration=2000, sigma=0.0, warmup=0, baseline=30.0):
    return TracePlan(
        duration_s=duration,
        baseline_kpa=baseline,
        segments=(),
        noise_sigma_kpa=sigma,
        warmup_s=warmup,
    )


def predictive(maint=120, repair=600, **kw):
    return PredictivePolicy(
        model=persistence_model(),
        lag_spec=PERSISTENCE_LAGS,
        limit_kpa=40.0,
        hard_limit_kpa=50.0,
        horizon_s=30,
        schedule_window_s=300,
        maint_duration_s=maint,
        breakdown=BreakdownRule(fail_limit_kpa=50.0, grace_s=5, repair_duration_s=repair),
        **kw,
    )


def preventive(cycle=700, maint=120, repair=600):
    return PreventivePolicy(
        cycle_s=cycle,
        maint_duration_s=maint,
        breakdown=BreakdownRule(fail_limit_kpa=50.0, grace_s=5, repair_duration_s=repair),
    )


# --- trace generation ---

def test_noiseless_trace_is_ramp_then_baseline():
    plan = TracePlan(duration_s=300, segments=(), noise_sigma_kpa=0.0, warmup_s=100)
    values = generate_trace(plan, seed=0).values
    np.testing.assert_allclose(values[:100], 30.0 * np.arange(100) / 100)
    np.testing.assert_allclose(values[100:], 30.0)


def test_default_segments_apply_at_offsets():
    plan = TracePlan(noise_sigma_kpa=0.0)
    values = generate_trace(plan, seed=0).values
    assert len(values) == 8700
    for offset, setpoint in [(1200, 35.0), (1800, 20.0), (2460, 35.0), (3180, 20.0), (4200, 40.0)]:
        assert values[offset] == setpoint
        assert values[offset - 1] != setpoint or offset == 2460  # previous segment differs
    np.testing.assert_allclose(values[4200:], 40.0)


def test_trace_seed_determinism():
    plan = quiet_plan(duration=500, sigma=0.2)
    a = generate_trace(plan, seed=9).values
    b = generate_trace(plan, seed=9).values
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, generate_trace(plan, seed=10).values)


def test_plan_validation():
    with pytest.raises(ValidationError, match="increasing"):
        TracePlan(segments=((100, 35.0), (100, 20.0)))
    with pytest.raises(ValidationError, match="within"):
        TracePlan(duration_s=500, segments=((600, 35.0),))
    with pytest.raises(ValidationError, match="sigma"):
        TracePlan(noise_sigma_kpa=-1.0)
    with pytest.raises(ValidationError, match="unknown"):
        from_dict(TracePlan, {"durations": 100}, "trace plan")


# --- fault injection ---

def test_stuck_injection_freezes_span():
    trace = generate_trace(quiet_plan(duration=600, sigma=0.3), seed=4)
    injected = inject_fault(trace, StuckAt(at_s=100, duration_s=120))
    assert np.ptp(injected.values[100:220]) == 0.0
    events = detect_stuck(injected.values, DetectorConfig())
    assert any(e.start_index >= 90 and e.end_index <= 230 for e in events)
    # original untouched
    assert np.ptp(trace.values[100:220]) > 0.0


def test_spike_injection_reaches_peak_and_holds():
    trace = generate_trace(quiet_plan(duration=500), seed=0)
    injected = inject_fault(trace, SpikeRamp(at_s=200, peak_kpa=55.0, rise_s=60))
    assert injected.values.max() >= 55.0
    np.testing.assert_allclose(injected.values[260:], 55.0)
    assert injected.values[229] == pytest.approx(30.0 + (55.0 - 30.0) * 29 / 60)


def test_injection_bounds_checked():
    trace = generate_trace(quiet_plan(duration=100), seed=0)
    with pytest.raises(ValidationError, match="beyond"):
        inject_fault(trace, SpikeRamp(at_s=100, peak_kpa=55.0, rise_s=10))
    with pytest.raises(ValidationError, match="exceed"):
        inject_fault(trace, SpikeRamp(at_s=50, peak_kpa=10.0, rise_s=10))


# --- policy simulation ---

def test_preventive_cadence_matches_hand_stepped_timeline():
    plan = TracePlan(duration_s=8700, segments=(), noise_sigma_kpa=0.0, warmup_s=1200)
    policy = PreventivePolicy(cycle_s=1800, maint_duration_s=300)
    outcome = run_policy(plan, [], policy, seed=0)
    # maintenance at 1800, 3900, 6000, 8100 -> 4 events, 1200 s down
    assert outcome.maintenance_count == 4
    assert outcome.downtime_s == 1200
    assert outcome.uptime_s == 8700 - 1200
    assert outcome.breakdown_count == 0


def test_predictive_idle_when_forecast_never_crosses():
    plan = quiet_plan(duration=1500)
    outcome = run_policy(plan, [], predictive(), seed=0)
    assert outcome.maintenance_count == 0
    assert outcome.breakdown_count == 0
    assert outcome.uptime_s == plan.duration_s
    assert outcome.downtime_s == 0


def test_no_triggers_means_zero_downtime_for_both_kinds():
    plan = quiet_plan(duration=600)
    for policy in (preventive(cycle=10000), predictive()):
        outcome = run_policy(plan, [], policy, seed=0)
        assert outcome.downtime_s == 0


def test_spike_breaks_preventive_but_not_predictive():
    plan = quiet_plan(duration=2000)
    spike = [SpikeRamp(at_s=900, peak_kpa=60.0, rise_s=60)]
    prev = run_policy(plan, spike, preventive(), seed=0)
    pred = run_policy(plan, spike, predictive(), seed=0)
    assert prev.breakdown_count == 1
    assert prev.downtime_s >= 600
    assert pred.breakdown_count == 0
    assert pred.maintenance_count >= 1
    assert pred.downtime_s == pred.maintenance_count * 120
    assert pred.downtime_s < prev.downtime_s
    assert pred.revenue_units > prev.revenue_units


def test_fouling_drives_predictive_maintenance():
    plan = quiet_plan(duration=3000)
    outcome = run_policy(plan, [], predictive(), fouling_rate_kpa_per_s=0.01, seed=0)
    # pressure crosses 40 kPa after ~1000 s of fouling; maintenance resets it
    assert outcome.maintenance_count >= 1
    assert outcome.breakdown_count == 0


def test_time_conservation_random_configs():
    rng = np.random.default_rng(31)
    for _ in range(10):
        duration = int(rng.integers(300, 1500))
        plan = quiet_plan(duration=duration, sigma=float(rng.uniform(0, 0.4)))
        policy = preventive(cycle=int(rng.integers(100, 600)), maint=50, repair=200)
        outcome = run_policy(plan, [], policy, fouling_rate_kpa_per_s=float(rng.uniform(0, 0.005)), seed=int(rng.integers(0, 100)))
        assert outcome.uptime_s + outcome.downtime_s == duration


def test_run_policy_seed_determinism():
    plan = quiet_plan(duration=1200, sigma=0.2)
    spike = [SpikeRamp(at_s=600, peak_kpa=58.0, rise_s=90)]
    a = run_policy(plan, spike, predictive(), seed=77)
    b = run_policy(plan, spike, predictive(), seed=77)
    assert a == b


def test_monotone_economics_in_repair_duration():
    plan = quiet_plan(duration=2400)
    spike = [SpikeRamp(at_s=900, peak_kpa=60.0, rise_s=60)]
    deltas = []
    for repair in (400, 800, 1200):
        report = compare_policies(
            plan,
            spike,
            {"preventive": preventive(repair=repair), "predictive": predictive(repair=repair)},
            EconParams(),
            seed=0,
        )
        deltas.append(report.revenue_delta)
    assert deltas == sorted(deltas)
    assert deltas[0] > 0


def test_compare_identical_policies_zero_deltas():
    plan = quiet_plan(duration=1000)
    policy = preventive(cycle=400)
    report = compare_policies(
        plan, [], {"preventive": policy, "predictive": policy}, EconParams(), seed=0
    )
    assert report.downtime_avoided_s == 0
    assert report.maintenance_avoided == 0
    assert report.revenue_delta == 0.0


def test_compare_requires_two_policies():
    with pytest.raises(ValidationError, match="2 policies"):
        compare_policies(quiet_plan(100), [], {"only": preventive()}, EconParams(), seed=0)


def test_policy_validation():
    with pytest.raises(ValidationError, match="shorter"):
        PreventivePolicy(cycle_s=100, maint_duration_s=500, breakdown=BreakdownRule(repair_duration_s=300))
    with pytest.raises(ValidationError, match="below"):
        PredictivePolicy(
            model=persistence_model(),
            lag_spec=PERSISTENCE_LAGS,
            limit_kpa=50.0,
            hard_limit_kpa=40.0,
        )


def test_bundled_scenarios_load():
    for name in ("scenario1_delay_maintenance.json", "scenario2_avoid_breakdown.json"):
        import json

        doc = json.loads(pdmecon.data_path(name).read_text())
        scenario = scenario_from_dict(doc)
        assert set(scenario.policy_docs) == {"preventive", "predictive"}
        policies = scenario.build_policies(model=persistence_model(), lag_spec=PERSISTENCE_LAGS)
        assert isinstance(policies["preventive"], PreventivePolicy)
        assert isinstance(policies["predictive"], PredictivePolicy)


def test_predictive_requires_model():
    import json

    doc = json.loads(pdmecon.data_path("scenario1_delay_maintenance.json").read_text())
    scenario = scenario_from_dict(doc)
    with pytest.raises(ValidationError, match="model"):
        scenario.build_policies(model=None, lag_spec=None)


def test_predictive_with_tree_ensemble_forecaster():
    # exercises the generic (non-linear) branch of the per-step forecaster
    from pdmecon.models import ForestHyperparams, fit_forest

    rng = np.random.default_rng(0)
    history = 30.0 + rng.normal(scale=0.2, size=400)
    spec = LagSpec(1, 3)
    from pdmecon.features import make_lag_matrix

    sup = make_lag_matrix(history, spec)
    forest = fit_forest(sup.X, sup.y, ForestHyperparams(n_trees=3), seed=1)
    policy = PredictivePolicy(
        model=forest,
        lag_spec=spec,
        horizon_s=10,
        maint_duration_s=50,
        breakdown=BreakdownRule(repair_duration_s=200),
    )
    plan = quiet_plan(duration=400, sigma=0.2)
    outcome = run_policy(plan, [SpikeRamp(at_s=200, peak_kpa=60.0, rise_s=40)], policy, seed=2)
    assert outcome.uptime_s + outcome.downtime_s == 400
    assert outcome.breakdown_count == 0  # hard-limit halt still protects the plant
    assert outcome.maintenance_count >= 1


def test_model_feature_mismatch_rejected():
    policy = PredictivePolicy(model=persistence_model(), lag_spec=LagSpec(1, 5))
    with pytest.raises(ValidationError, match="features"):
        run_policy(quiet_plan(duration=100), [], policy, seed=0)


def test_comparison_report_dict_roundtrip():
    plan = quiet_plan(duration=1200)
    report = compare_policies(
        plan,
        [SpikeRamp(at_s=600, peak_kpa=60.0, rise_s=60)],
        {"preventive": preventive(), "predictive": predictive()},
        EconParams(revenue_rate_per_s=2.0),
        seed=3,
    )
    from pdmecon.plantsim import comparison_from_dict

    clone = comparison_from_dict(report.to_dict())
    assert clone == report


def test_stuck_sensor_inside_simulation():
    # the frozen reading hides everything; neither policy should break down
    plan = quiet_plan(duration=1500)
    stuck = [StuckAt(at_s=300, duration_s=400)]
    pred = run_policy(plan, stuck, predictive(), seed=0)
    assert pred.breakdown_count == 0
    assert pred.maintenance_count == 0  # frozen 30 kPa never crosses the limit
    assert pred.uptime_s == plan.duration_s
    prev = run_policy(plan, stuck, preventive(cycle=600), seed=0)
    assert prev.breakdown_count == 0
    assert prev.uptime_s + prev.downtime_s == plan.duration_s


def test_trace_export_roundtrip(tmp_path):
    from pdmecon.ingest import load_historian_csv, write_sensor_csv

    trace = generate_trace(quiet_plan(duration=400, sigma=0.2), seed=3)
    frame = trace_to_frame(trace)
    out = tmp_path / "trace.csv"
    write_sensor_csv(frame, out)
    loaded, report = load_historian_csv(out)
    assert report.rows_retained == 400
    np.testing.assert_array_equal(loaded.channel("DPIT301").values, trace.values)
