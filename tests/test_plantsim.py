import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pdmecon
from pdmecon import plantsim
from pdmecon.cba import load_ledger
from pdmecon.detect import Action, DetectorConfig, decide, detect_stuck
from pdmecon.errors import ValidationError
from pdmecon.features import LagSpec, make_lag_matrix
from pdmecon.jsonio import dumps, from_dict
from pdmecon.models import BoostHyperparams, ForestHyperparams, LinearModel, fit_model, predict
from pdmecon.plantsim import (
    MAX_SECONDS,
    TRACE_CHANNEL,
    BreakdownRule,
    ComparisonReport,
    Deltas,
    EconParams,
    PredictivePolicy,
    PreventivePolicy,
    Scenario,
    SimOutcome,
    SpikeRamp,
    StuckAt,
    TracePlan,
    _forecast,
    compare_policies,
    generate_trace,
    inject_faults,
    run_policy,
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


# the plant the preventive() and predictive() policies below run on
RULE = BreakdownRule(fail_limit_kpa=50.0, grace_s=5, repair_duration_s=600)


def predictive(maint=120, **kw):
    return PredictivePolicy(
        model=persistence_model(),
        lag_spec=PERSISTENCE_LAGS,
        limit_kpa=40.0,
        hard_limit_kpa=50.0,
        horizon_s=30,
        schedule_window_s=300,
        maint_duration_s=maint,
        **kw,
    )


def preventive(cycle=700, maint=120):
    return PreventivePolicy(cycle_s=cycle, maint_duration_s=maint)


# --- trace generation ---

def test_noiseless_trace_is_ramp_then_baseline():
    plan = TracePlan(duration_s=300, segments=(), noise_sigma_kpa=0.0, warmup_s=100)
    values = generate_trace(plan, seed=0)
    np.testing.assert_allclose(values[:100], 30.0 * np.arange(100) / 100)
    np.testing.assert_allclose(values[100:], 30.0)


def test_default_segments_apply_at_offsets():
    plan = TracePlan(noise_sigma_kpa=0.0)
    values = generate_trace(plan, seed=0)
    assert len(values) == 8700
    for offset, setpoint in [(1200, 35.0), (1800, 20.0), (2460, 35.0), (3180, 20.0), (4200, 40.0)]:
        assert values[offset] == setpoint
        assert values[offset - 1] != setpoint or offset == 2460  # previous segment differs
    np.testing.assert_allclose(values[4200:], 40.0)


def test_trace_seed_determinism():
    plan = quiet_plan(duration=500, sigma=0.2)
    a = generate_trace(plan, seed=9)
    b = generate_trace(plan, seed=9)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, generate_trace(plan, seed=10))


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
    injected = inject_faults(trace, [StuckAt(at_s=100, duration_s=120)])
    assert np.ptp(injected[100:220]) == 0.0
    events = detect_stuck(injected, DetectorConfig())
    assert any(e.start >= 90 and e.end <= 230 for e in events)
    # original untouched
    assert np.ptp(trace[100:220]) > 0.0


def test_spike_injection_reaches_peak_and_holds():
    trace = generate_trace(quiet_plan(duration=500), seed=0)
    injected = inject_faults(trace, [SpikeRamp(at_s=200, peak_kpa=55.0, rise_s=60)])
    assert injected.max() >= 55.0
    np.testing.assert_allclose(injected[260:], 55.0)
    assert injected[229] == pytest.approx(30.0 + (55.0 - 30.0) * 29 / 60)


def test_synth_and_simulation_share_one_ramp():
    trace = generate_trace(quiet_plan(duration=400, sigma=0.3), seed=6)
    spike = SpikeRamp(at_s=150, peak_kpa=52.5, rise_s=70)
    injected = inject_faults(trace, [spike])
    expected = spike.reading(np.arange(150, 400), trace[150])
    np.testing.assert_array_equal(injected[150:], expected)
    np.testing.assert_array_equal(injected[:150], trace[:150])


def test_spike_rising_slower_than_int64_counts_ramps():
    # np.minimum(t - at_s, rise_s) raised OverflowError converting rise_s to a C long
    spike = SpikeRamp(at_s=10, peak_kpa=60.0, rise_s=10**30)
    t = np.arange(10, 20)
    np.testing.assert_array_equal(spike.reading(t, 30.0), 30.0 + 30.0 * ((t - 10) / 1e30))
    assert spike.reading(np.array([10**18]), 30.0)[0] > 30.0


def test_injection_bounds_checked():
    trace = generate_trace(quiet_plan(duration=100), seed=0)
    with pytest.raises(ValidationError, match="beyond"):
        inject_faults(trace, [SpikeRamp(at_s=100, peak_kpa=55.0, rise_s=10)])
    with pytest.raises(ValidationError, match="exceed"):
        inject_faults(trace, [SpikeRamp(at_s=50, peak_kpa=10.0, rise_s=10)])


@pytest.mark.parametrize("policy", [preventive, predictive])
def test_simulation_refuses_what_synth_refuses(policy):
    plan = quiet_plan(duration=200)
    trace = generate_trace(plan, seed=0)
    for spike, text in [
        (SpikeRamp(at_s=100, peak_kpa=20.0, rise_s=50), "SpikeRamp peak 20.0 must exceed the clean reading 30.000"),
        (SpikeRamp(at_s=100, peak_kpa=30.0, rise_s=50), "SpikeRamp peak 30.0 must exceed the clean reading 30.000"),
        (StuckAt(at_s=200, duration_s=5), "injection at_s 200 beyond duration 200"),
    ]:
        with pytest.raises(ValidationError) as synth:
            inject_faults(trace, [spike])
        with pytest.raises(ValidationError) as simulate:
            run_policy(plan, [spike], policy(), seed=0, breakdown=RULE)
        assert str(synth.value) == str(simulate.value) == text


def test_a_stuck_reading_inside_a_ramp_holds_the_clean_reading():
    trace = generate_trace(quiet_plan(duration=1200), seed=0)
    spike, stuck = SpikeRamp(at_s=600, peak_kpa=60.0, rise_s=120), StuckAt(at_s=650, duration_s=300)
    values = inject_faults(trace, [spike, stuck])
    np.testing.assert_array_equal(values[650:950], 30.0)
    # freezing the already-faulted series instead would hold the ramp's 42.5 kPa
    frozen_ramp = inject_faults(trace, [spike])
    frozen_ramp[650:950] = frozen_ramp[650]
    assert frozen_ramp[650] == 42.5
    np.testing.assert_array_equal(np.flatnonzero(values != frozen_ramp), np.arange(650, 950))


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
    outcome = run_policy(plan, [], predictive(), seed=0, breakdown=RULE)
    assert outcome.maintenance_count == 0
    assert outcome.breakdown_count == 0
    assert outcome.uptime_s == plan.duration_s
    assert outcome.downtime_s == 0


def test_no_triggers_means_zero_downtime_for_both_kinds():
    plan = quiet_plan(duration=600)
    for policy in (preventive(cycle=10000), predictive()):
        outcome = run_policy(plan, [], policy, seed=0, breakdown=RULE)
        assert outcome.downtime_s == 0


def test_spike_breaks_preventive_but_not_predictive():
    plan = quiet_plan(duration=2000)
    spike = [SpikeRamp(at_s=900, peak_kpa=60.0, rise_s=60)]
    prev = run_policy(plan, spike, preventive(), seed=0, breakdown=RULE)
    pred = run_policy(plan, spike, predictive(), seed=0, breakdown=RULE)
    assert prev.breakdown_count == 1
    assert prev.downtime_s >= 600
    assert pred.breakdown_count == 0
    assert pred.maintenance_count >= 1
    assert pred.downtime_s == pred.maintenance_count * 120
    assert pred.downtime_s < prev.downtime_s
    assert pred.revenue_units > prev.revenue_units


def test_fouling_drives_predictive_maintenance():
    plan = quiet_plan(duration=3000)
    outcome = run_policy(plan, [], predictive(), EconParams(fouling_rate_kpa_per_s=0.01), seed=0, breakdown=RULE)
    # pressure crosses 40 kPa after ~1000 s of fouling; maintenance resets it
    assert outcome.maintenance_count >= 1
    assert outcome.breakdown_count == 0


def test_fouling_counts_from_each_restart():
    # 30 kPa + 0.01 kPa/s first exceeds the 40 kPa limit 1001 s after each restart;
    # maintenance follows 300 s later and lasts 120 s: 1301-1420, then 2722-2799 (cut)
    plan = quiet_plan(duration=2800)
    outcome = run_policy(plan, [], predictive(), EconParams(fouling_rate_kpa_per_s=0.01), seed=0, breakdown=RULE)
    assert outcome.maintenance_count == 2
    assert outcome.downtime_s == 120 + 78


def test_time_conservation_random_configs():
    rng = np.random.default_rng(31)
    for _ in range(10):
        duration = int(rng.integers(300, 1500))
        plan = quiet_plan(duration=duration, sigma=float(rng.uniform(0, 0.4)))
        policy = preventive(cycle=int(rng.integers(100, 600)), maint=50)
        econ = EconParams(fouling_rate_kpa_per_s=float(rng.uniform(0, 0.005)))
        outcome = run_policy(plan, [], policy, econ, int(rng.integers(0, 100)), replace(RULE, repair_duration_s=200))
        assert outcome.uptime_s + outcome.downtime_s == duration


def test_run_policy_seed_determinism():
    plan = quiet_plan(duration=1200, sigma=0.2)
    spike = [SpikeRamp(at_s=600, peak_kpa=58.0, rise_s=90)]
    a = run_policy(plan, spike, predictive(), seed=77, breakdown=RULE)
    b = run_policy(plan, spike, predictive(), seed=77, breakdown=RULE)
    assert a == b


def test_monotone_economics_in_repair_duration():
    plan = quiet_plan(duration=2400)
    spike = [SpikeRamp(at_s=900, peak_kpa=60.0, rise_s=60)]
    deltas = []
    for repair in (400, 800, 1200):
        report = compare_policies(
            plan,
            spike,
            {"preventive": preventive(), "predictive": predictive()},
            EconParams(),
            seed=0,
            breakdown=replace(RULE, repair_duration_s=repair),
        )
        deltas.append(report.deltas.revenue_delta)
    assert deltas == sorted(deltas)
    assert deltas[0] > 0


def test_compare_identical_policies_zero_deltas():
    plan = quiet_plan(duration=1000)
    policy = preventive(cycle=400)
    report = compare_policies(
        plan, [], {"preventive": policy, "predictive": policy}, EconParams(), seed=0, breakdown=RULE
    )
    assert report.deltas == Deltas(downtime_avoided_s=0, maintenance_avoided=0, revenue_delta=0.0)


def test_compare_requires_two_policies():
    with pytest.raises(ValidationError, match="2 policies"):
        compare_policies(quiet_plan(100), [], {"only": preventive()}, EconParams(), seed=0, breakdown=RULE)


def test_policy_validation():
    # the plant's repairs must outlast every policy's maintenance, whoever calls run_policy
    for policy in (preventive(maint=500), predictive(maint=500)):
        with pytest.raises(ValidationError, match=f"^{policy.kind} policy: maint_duration_s 500 must be shorter than"):
            run_policy(quiet_plan(100), [], policy, breakdown=replace(RULE, repair_duration_s=500))
    with pytest.raises(ValidationError, match="below"):
        PredictivePolicy(
            model=persistence_model(),
            lag_spec=PERSISTENCE_LAGS,
            limit_kpa=50.0,
            hard_limit_kpa=40.0,
        )


def test_bundled_scenarios_load():
    # every bundled scenario*.json is a scenario with the policy pair, and every other bundled file a ledger
    files = set((Path(pdmecon.__file__).parent / "data").glob("*.json"))
    scenarios = {path for path in files if path.name.startswith("scenario")}
    assert len(scenarios) >= 2 and len(files - scenarios) >= 1
    for path in sorted(scenarios):
        scenario = from_dict(Scenario, json.loads(path.read_text()), "scenario")
        assert set(scenario.policies) == {"preventive", "predictive"}
        policies = scenario.build_policies(model=persistence_model(), lag_spec=PERSISTENCE_LAGS)
        assert isinstance(policies["preventive"], PreventivePolicy)
        assert isinstance(policies["predictive"], PredictivePolicy)
    for path in sorted(files - scenarios):
        assert load_ledger(path)


def test_predictive_requires_model():
    import json

    doc = json.loads(pdmecon.data_path("scenario1_delay_maintenance.json").read_text())
    scenario = from_dict(Scenario, doc, "scenario")
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
    )
    plan = quiet_plan(duration=400, sigma=0.2)
    spike = [SpikeRamp(at_s=200, peak_kpa=60.0, rise_s=40)]
    outcome = run_policy(plan, spike, policy, seed=2, breakdown=BreakdownRule(repair_duration_s=200))
    assert outcome.uptime_s + outcome.downtime_s == 400
    assert outcome.breakdown_count == 0  # hard-limit halt still protects the plant
    assert outcome.maintenance_count >= 1


def test_model_feature_mismatch_rejected():
    with pytest.raises(ValidationError, match="features"):
        PredictivePolicy(model=persistence_model(), lag_spec=LagSpec(1, 5))


def test_comparison_report_dict_roundtrip():
    plan = quiet_plan(duration=1200)
    report = compare_policies(
        plan,
        [SpikeRamp(at_s=600, peak_kpa=60.0, rise_s=60)],
        {"preventive": preventive(), "predictive": predictive()},
        EconParams(revenue_rate_per_s=2.0),
        seed=3,
        breakdown=RULE,
    )
    assert report.deltas.revenue_delta is not None
    assert from_dict(ComparisonReport, json.loads(dumps(report)), "comparison") == report


def test_comparison_without_the_pair_round_trips_with_null_deltas():
    report = compare_policies(
        quiet_plan(duration=1200),
        [SpikeRamp(at_s=600, peak_kpa=60.0, rise_s=60)],
        {"calendar": preventive(), "forecast": predictive()},
        EconParams(),
        seed=3,
        breakdown=RULE,
    )
    doc = json.loads(dumps(report))
    assert doc["deltas"] == {"downtime_avoided_s": None, "maintenance_avoided": None, "revenue_delta": None}
    assert sorted(doc) == ["deltas", "outcomes", "schema_version"]
    assert from_dict(ComparisonReport, doc, "comparison") == report


def ran(uptime, maintenance, duration=1000, rate=1.5):
    return SimOutcome(duration, duration - uptime, maintenance, 0, rate)


def with_deltas(outcomes, deltas):
    """A comparison document of the outcomes that states the given deltas."""
    return {**json.loads(dumps(ComparisonReport(1, outcomes))), "deltas": json.loads(dumps(deltas))}


def test_comparison_report_derives_its_deltas_from_the_pair():
    report = ComparisonReport(1, {"predictive": ran(900, 1), "preventive": ran(700, 3), "other": ran(10, 9)})
    assert report.deltas == Deltas(downtime_avoided_s=200, maintenance_avoided=2, revenue_delta=900 * 1.5 - 700 * 1.5)
    assert from_dict(ComparisonReport, with_deltas(report.outcomes, report.deltas), "comparison") == report
    unpaired = {"preventive": ran(700, 3), "other": ran(10, 9)}
    assert ComparisonReport(1, unpaired).deltas == Deltas()
    with pytest.raises(ValidationError, match=r'^comparison.deltas must be \{"downtime_avoided_s": null,'):
        from_dict(ComparisonReport, with_deltas(unpaired, Deltas(0, 0, 0.0)), "comparison")


@pytest.mark.parametrize("deltas", [
    Deltas(downtime_avoided_s=-99999, maintenance_avoided=2, revenue_delta=-1e6),
    Deltas(downtime_avoided_s=200, maintenance_avoided=2, revenue_delta=300.5),
    Deltas(),
])
def test_comparison_report_refuses_other_deltas(deltas):
    derived = r'\{"downtime_avoided_s": 200, "maintenance_avoided": 2, "revenue_delta": 300.0\}'
    doc = with_deltas({"preventive": ran(700, 3), "predictive": ran(900, 1)}, deltas)
    with pytest.raises(ValidationError, match=rf"^comparison.deltas must be {derived}, as the other fields give it, got"):
        from_dict(ComparisonReport, doc, "comparison")


@pytest.mark.parametrize(
    "field, other", [("duration_s", ran(900, 1, duration=100_000)), ("revenue_rate_per_s", ran(900, 1, rate=2.0))]
)
def test_comparison_report_refuses_outcomes_of_different_runs(field, other):
    # whatever rate the bridge is later given: the outcomes are not of one run
    with pytest.raises(ValidationError, match=f"^outcomes disagree on {field};"):
        ComparisonReport(1, {"preventive": ran(700, 3), "predictive": other})
    with pytest.raises(ValidationError, match=f"^outcomes disagree on {field};"):
        ComparisonReport(1, {"a": ran(700, 3), "b": ran(700, 3), "c": other})


def test_sim_outcome_refuses_what_no_run_gives():
    # a run holds one reading per second, and every stop is down for at least one second
    assert SimOutcome(MAX_SECONDS, 2, 1, 1, 1.0).uptime_s == MAX_SECONDS - 2
    with pytest.raises(ValidationError, match=rf"^duration_s must be <= 2\^53 = {MAX_SECONDS}$"):
        SimOutcome(MAX_SECONDS + 1, 2, 1, 1, 1.0)
    with pytest.raises(ValidationError, match=r"^maintenance_count \+ breakdown_count must be <= downtime_s 2: "):
        SimOutcome(100, 2, 2, 1, 1.0)
    with pytest.raises(ValidationError, match=r"^maintenance_count \+ breakdown_count must be <= downtime_s 0: "):
        SimOutcome(100, 0, 1, 0, 1.0)


def test_stuck_sensor_inside_simulation():
    # the frozen reading hides everything; neither policy should break down
    plan = quiet_plan(duration=1500)
    stuck = [StuckAt(at_s=300, duration_s=400)]
    pred = run_policy(plan, stuck, predictive(), seed=0, breakdown=RULE)
    assert pred.breakdown_count == 0
    assert pred.maintenance_count == 0  # frozen 30 kPa never crosses the limit
    assert pred.uptime_s == plan.duration_s
    prev = run_policy(plan, stuck, preventive(cycle=600), seed=0, breakdown=RULE)
    assert prev.breakdown_count == 0
    assert prev.uptime_s + prev.downtime_s == plan.duration_s


def test_trace_export_roundtrip(tmp_path):
    from pdmecon.ingest import SensorFrame, load_historian_csv, write_sensor_csv

    trace = generate_trace(quiet_plan(duration=400, sigma=0.2), seed=3)
    out = tmp_path / "trace.csv"
    write_sensor_csv(SensorFrame(np.arange(len(trace)), (TRACE_CHANNEL,), trace[None]), out)
    loaded, report = load_historian_csv(out)
    assert report.rows_retained == 400
    np.testing.assert_array_equal(loaded.channel("DPIT301"), trace)


def test_a_long_horizon_forecasts_in_smaller_blocks(monkeypatch):
    # 2,048 seconds of a 5,000-step horizon would need an 82 MB work buffer; blocks shrink to keep it at 8 MB
    forecast, sizes = plantsim._forecast, []

    def recorded(model, windows, lags, horizon):
        sizes.append(windows.shape[0] * (windows.shape[1] + horizon))
        return forecast(model, windows, lags, horizon)

    monkeypatch.setattr(plantsim, "_forecast", recorded)
    outcome = run_policy(quiet_plan(duration=1500), [], replace(predictive(), horizon_s=5000), seed=0, breakdown=RULE)
    assert outcome.downtime_s == 0
    assert 2**19 < max(sizes) <= 2**20


# --- the per-second loop as it stood with a fault-state object per injection ---

class _FaultState:
    """Tracks one injection inside a run; cleared by completed maintenance."""

    def __init__(self, injection):
        self.injection = injection
        self.cleared = False
        self.prior = None  # pressure captured at the first read

    def active(self, t):
        if self.cleared or t < self.injection.at_s:
            return False
        if isinstance(self.injection, StuckAt):
            return t < self.injection.at_s + self.injection.duration_s
        return True

    def value(self, t, normal_pressure):
        if self.prior is None:
            self.prior = normal_pressure
        inj = self.injection
        if isinstance(inj, SpikeRamp):
            frac = min(t - inj.at_s, inj.rise_s) / inj.rise_s
            return self.prior + (inj.peak_kpa - self.prior) * frac
        return self.prior


def reference_reading(faults, t, normal):
    """The latest-listed active fault's reading at second t, else the normal reading."""
    fault = next((f for f in reversed(faults) if f.active(t)), None)
    return fault.value(t, normal) if fault else normal


def reference_run_policy(plan, injections, policy, econ, seed, breakdown):
    trace = generate_trace(plan, seed)
    duration = plan.duration_s
    predictive = isinstance(policy, PredictivePolicy)
    if predictive:
        lags = policy.lag_spec.lags
        max_lag = int(policy.lag_spec.max_lag)

    faults = [_FaultState(inj) for inj in injections]
    obs = np.empty(duration)
    operating = True
    down_remaining = 0
    since_maint = 0
    breach_run = 0
    scheduled_due = None
    uptime = downtime = 0
    maintenance_count = breakdown_count = 0

    for t in range(duration):
        if operating:
            pressure = reference_reading(faults, t, trace[t] + econ.fouling_rate_kpa_per_s * since_maint)
            obs[t] = pressure

            start_maint = False
            if predictive:
                if scheduled_due is not None and t >= scheduled_due:
                    start_maint = True
                else:
                    if t + 1 >= max_lag:
                        horizon = _forecast(policy.model, obs[None, t + 1 - max_lag : t + 1], lags, policy.horizon_s)[0]
                    else:
                        horizon = np.array([pressure])
                    directive = decide(
                        horizon, policy.limit_kpa, policy.hard_limit_kpa, pressure, policy.schedule_window_s
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

    assert uptime + downtime == duration
    return SimOutcome(
        duration_s=duration,
        downtime_s=downtime,
        maintenance_count=maintenance_count,
        breakdown_count=breakdown_count,
        revenue_rate_per_s=econ.revenue_rate_per_s,
    )


def short_plan(draw, duration):
    """A plan with up to three setpoint jumps, optional noise and an optional warmup ramp."""
    offsets = draw(st.lists(st.integers(0, duration - 1), max_size=3, unique=True))
    return TracePlan(
        duration_s=duration,
        segments=tuple((o, draw(st.floats(15.0, 60.0))) for o in sorted(offsets)),
        noise_sigma_kpa=draw(st.sampled_from([0.0, 0.3])),
        warmup_s=draw(st.sampled_from([0, duration // 4])),
    )


# A short seeded trace that crosses the policies' limits, for fitting tiny tree models.
TRAINING_PLAN = TracePlan(duration_s=200, segments=((60, 45.0), (130, 60.0)), noise_sigma_kpa=0.3, warmup_s=0)


def forecast_model(draw, n_lags):
    """A linear model near persistence, or a forest or boost model of at most 3 trees
    of depth at most 3 fitted on TRAINING_PLAN."""
    kind = draw(st.sampled_from(["linear", "forest", "boost"]))
    if kind == "linear":
        coefficients = np.zeros(n_lags)
        coefficients[0] = draw(st.floats(0.9, 1.05))
        return LinearModel(intercept=draw(st.floats(-0.5, 0.5)), coefficients=coefficients)
    trees, depth = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    hp = (
        ForestHyperparams(n_trees=trees, max_depth=depth)
        if kind == "forest"
        else BoostHyperparams(n_stages=trees, max_depth=depth, learning_rate=draw(st.sampled_from([0.5, 1.0])))
    )
    return fit_on_training_plan(kind, hp, n_lags, draw(st.integers(0, 3)), draw(st.integers(0, 3)))


def fit_on_training_plan(kind, hyperparams, n_lags, trace_seed, fit_seed):
    sup = make_lag_matrix(generate_trace(TRAINING_PLAN, seed=trace_seed), LagSpec(1, n_lags))
    return fit_model(kind, sup.X, sup.y, hyperparams, seed=fit_seed)


def fault_list(draw, clean):
    """Up to four overlapping faults, each spike peaking above the clean reading where it starts."""
    injections = []
    for _ in range(draw(st.integers(0, 4))):
        at_s = draw(st.integers(0, len(clean) - 1))
        if draw(st.booleans()):
            peak = float(clean[at_s]) + draw(st.floats(0.1, 30.0))
            injections.append(SpikeRamp(at_s=at_s, peak_kpa=peak, rise_s=draw(st.integers(1, 120))))
        else:
            injections.append(StuckAt(at_s=at_s, duration_s=draw(st.integers(1, 200))))
    return injections


@st.composite
def simulation_case(draw):
    """A short plan with setpoint jumps, up to four overlapping faults (each spike peaking
    above the clean reading where it starts) and a policy that maintains often enough
    for faults to start during downtime."""
    duration = draw(st.integers(30, 800))
    plan = short_plan(draw, duration)
    seed = draw(st.integers(0, 3))
    injections = fault_list(draw, generate_trace(plan, seed))
    maint = draw(st.integers(1, 60))
    breakdown = BreakdownRule(
        fail_limit_kpa=draw(st.floats(35.0, 60.0)),
        grace_s=draw(st.integers(0, 10)),
        repair_duration_s=maint + draw(st.integers(1, 100)),
    )
    if draw(st.booleans()):
        policy = PreventivePolicy(cycle_s=draw(st.integers(1, 300)), maint_duration_s=maint)
    else:
        n_lags = draw(st.integers(1, 3))
        model = forecast_model(draw, n_lags)
        limit = draw(st.floats(31.0, 45.0))
        policy = PredictivePolicy(
            model=model,
            lag_spec=LagSpec(1, n_lags),
            limit_kpa=limit,
            hard_limit_kpa=limit + draw(st.floats(0.5, 15.0)),
            # tree models predict one row per call, so their horizon stays short
            horizon_s=draw(st.integers(1, 10 if isinstance(model, LinearModel) else 3)),
            schedule_window_s=draw(st.integers(1, 120)),
            maint_duration_s=maint,
        )
    econ = EconParams(fouling_rate_kpa_per_s=draw(st.floats(0.0, 0.01)))
    return plan, injections, policy, econ, seed, breakdown


# Two cases the draws reach only rarely, pinned. A fault that starts under a
# later-listed stuck reading takes its prior when it is first read (at 150 s,
# above the fail limit), not when it starts (at 50 s, below it).
HIDDEN_FAULT = (
    TracePlan(duration_s=400, segments=((100, 45.0),), noise_sigma_kpa=0.0, warmup_s=0),
    [StuckAt(at_s=50, duration_s=300), StuckAt(at_s=0, duration_s=150)],
    PreventivePolicy(cycle_s=1000, maint_duration_s=20),
    EconParams(),
    0,
    BreakdownRule(fail_limit_kpa=40.0),
)
# A spike that starts on the last second of a maintenance (100-119 s) is cleared with it.
FAULT_AT_RESTART = (
    quiet_plan(duration=400),
    [SpikeRamp(at_s=119, peak_kpa=60.0, rise_s=1)],
    preventive(cycle=100, maint=20),
    EconParams(),
    0,
    RULE,
)


# A forest of eight stumps: the cases above draw at most three trees, and from eight
# trees on numpy's mean(axis=0) averages one row differently from many.
FOREST_OF_STUMPS = (
    TracePlan(duration_s=400, segments=((150, 46.0), (250, 30.0)), noise_sigma_kpa=0.3, warmup_s=0),
    [SpikeRamp(at_s=300, peak_kpa=65.0, rise_s=40)],
    PredictivePolicy(
        model=fit_on_training_plan("forest", ForestHyperparams(n_trees=8, max_depth=1), 3, 0, 0),
        lag_spec=LagSpec(1, 3),
        horizon_s=5,
        maint_duration_s=20,
    ),
    EconParams(),
    1,
    BreakdownRule(repair_duration_s=100),
)


def block_edge(schedule_s):
    """Persistence forecasts cross the 40 kPa limit first at schedule_s. With lags 1-2 the
    first forecast block covers seconds 1-256, so 256 is its last second and 257 the next
    block's first. The run ends inside the maintenance, so its downtime shows the second."""
    plan = TracePlan(duration_s=600, segments=((schedule_s, 45.0),), noise_sigma_kpa=0.0, warmup_s=0)
    return plan, [], predictive(), EconParams(), 0, RULE


# Second 0 has too little history to forecast, so its reading (45 kPa) schedules
# maintenance for 300 s; the run ends 50 s into it.
EARLY_SCHEDULE = (
    TracePlan(duration_s=350, segments=((0, 45.0),), noise_sigma_kpa=0.0, warmup_s=0),
    [],
    predictive(),
    EconParams(),
    0,
    RULE,
)
# Persistence forecasts of exactly the 40 kPa limit do not cross it.
AT_THE_LIMIT = (quiet_plan(duration=400, baseline=40.0), [], predictive(), EconParams(), 0, RULE)


def shorter_than_the_lags(baseline):
    """A 20 s run under a model on lags 5..30: no second has a full window, so every
    forecast is the reading itself. At 45 kPa second 0 schedules maintenance for second 5."""
    policy = PredictivePolicy(
        model=LinearModel(intercept=0.0, coefficients=np.eye(26)[0]), lag_spec=LagSpec(5, 30), schedule_window_s=5
    )
    return quiet_plan(duration=20, baseline=baseline), [], policy, EconParams(), 0, BreakdownRule()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(simulation_case())
@example(HIDDEN_FAULT)
@example(FAULT_AT_RESTART)
@example(FOREST_OF_STUMPS)
@example(block_edge(256))
@example(block_edge(257))
@example(EARLY_SCHEDULE)
@example(AT_THE_LIMIT)
@example(shorter_than_the_lags(30.0))
@example(shorter_than_the_lags(45.0))
def test_run_policy_matches_the_fault_state_reference(case):
    assert run_policy(*case) == reference_run_policy(*case)


@st.composite
def injection_case(draw):
    """A short trace with up to four overlapping faults, each spike peaking above the
    clean reading where it starts."""
    duration = draw(st.integers(30, 600))
    trace = generate_trace(short_plan(draw, duration), seed=draw(st.integers(0, 3)))
    return trace, fault_list(draw, trace)


# A spike that starts under a later-listed stuck reading ramps from the clean
# reading when the stuck reading ends (45 kPa at 150 s), not from the one where
# it starts (30 kPa at 100 s).
SPIKE_UNDER_STUCK = (
    generate_trace(TracePlan(duration_s=400, segments=((120, 45.0),), noise_sigma_kpa=0.0, warmup_s=0)),
    [SpikeRamp(at_s=100, peak_kpa=60.0, rise_s=100), StuckAt(at_s=50, duration_s=100)],
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(injection_case())
@example(SPIKE_UNDER_STUCK)
def test_inject_faults_matches_the_fault_state_reference(case):
    trace, injections = case
    faults = [_FaultState(inj) for inj in injections]
    expected = [reference_reading(faults, t, trace[t]) for t in range(len(trace))]
    np.testing.assert_array_equal(inject_faults(trace, injections), expected)


# --- the bundled scenarios under tree models fitted on the seed-1 trace ---

SEED1_LAGS = LagSpec(5, 30)


@pytest.fixture(scope="module")
def seed1_models():
    """A forest of eight trees and a boost model fitted on the default plan's seed-1 trace."""
    sup = make_lag_matrix(generate_trace(TracePlan(), seed=1), SEED1_LAGS)
    return {
        "forest": fit_model("forest", sup.X, sup.y, ForestHyperparams(n_trees=8, max_depth=4), seed=1),
        "boost": fit_model("boost", sup.X, sup.y, BoostHyperparams(n_stages=10, max_depth=3), seed=1),
    }


def bundled_scenario(name):
    return from_dict(Scenario, json.loads(pdmecon.data_path(name).read_text()), "scenario")


def test_a_forest_backed_run_forecasts_in_blocks(monkeypatch, seed1_models):
    # scenario 2 cut to 1,200 s with the spike at 600 s; one forecast per second made 52,320 predict calls
    scenario = bundled_scenario("scenario2_avoid_breakdown.json")
    plan = replace(scenario.plan, duration_s=1200, warmup_s=0)
    injections = [replace(scenario.injections[0], at_s=600)]
    policy = scenario.build_policies(seed1_models["forest"], SEED1_LAGS)["predictive"]
    rows = []

    def counted(model, X):
        rows.append(len(X))
        return predict(model, X)

    monkeypatch.setattr(plantsim, "predict", counted)
    outcome = run_policy(plan, injections, policy, scenario.econ, seed=1, breakdown=scenario.breakdown)
    assert 0 < len(rows) <= 1000
    assert (outcome.uptime_s, outcome.maintenance_count, outcome.breakdown_count) == (900, 1, 0)


# (uptime_s, downtime_s, maintenance_count, breakdown_count) per policy, recorded with
# one forecast per second and the forest's one-row mean before forecasts were batched
SEED1_OUTCOMES = {
    ("forest", "scenario1_delay_maintenance.json"): {"preventive": (7500, 1200, 4, 0), "predictive": (8100, 600, 2, 0)},
    ("forest", "scenario2_avoid_breakdown.json"): {"preventive": (6000, 2700, 3, 1), "predictive": (8400, 300, 1, 0)},
    ("boost", "scenario1_delay_maintenance.json"): {"preventive": (7500, 1200, 4, 0), "predictive": (8700, 0, 0, 0)},
    ("boost", "scenario2_avoid_breakdown.json"): {"preventive": (6000, 2700, 3, 1), "predictive": (8400, 300, 1, 0)},
}


@pytest.mark.parametrize("kind, name", list(SEED1_OUTCOMES))
def test_bundled_scenarios_keep_their_tree_model_outcomes(seed1_models, kind, name):
    scenario = bundled_scenario(name)
    policies = scenario.build_policies(seed1_models[kind], SEED1_LAGS)
    report = compare_policies(
        scenario.plan, list(scenario.injections), policies, scenario.econ, seed=1, breakdown=scenario.breakdown
    )
    assert report.outcomes == {
        policy: SimOutcome(uptime + downtime, downtime, maintenance, breakdowns, 1.0)
        for policy, (uptime, downtime, maintenance, breakdowns) in SEED1_OUTCOMES[(kind, name)].items()
    }
