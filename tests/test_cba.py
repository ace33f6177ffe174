import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdmecon
from pdmecon import cba
from pdmecon.cba import (
    BRIDGED_MAINTENANCE_ITEM,
    BRIDGED_REVENUE_ITEM,
    ItemKind,
    LedgerKind,
    LineItem,
    McConfig,
    Normal,
    Point,
    Triangular,
    Uniform,
    _sample_matrix,
    _TrialStreams,
    bridge_from_simulation,
    format_summary_table,
    load_ledger,
    net_benefit,
)
from pdmecon.errors import ValidationError
from pdmecon.jsonio import dumps
from pdmecon.plantsim import ComparisonReport, SimOutcome


def item(name, ledger=LedgerKind.DIRECT_SAVING, category="Operating", amount=Point(1.0)):
    return LineItem(name=name, ledger=ledger, category=category, kind=ItemKind.VARIABLE, amount=amount)


def outcome(uptime, downtime, maint, brk=0, rate=1.0):
    return SimOutcome(
        duration_s=uptime + downtime,
        downtime_s=downtime,
        maintenance_count=maint,
        breakdown_count=brk,
        revenue_rate_per_s=rate,
    )


# --- sampling ---

def test_point_always_returns_value():
    np.testing.assert_array_equal(Point(5.0).sample(_TrialStreams(0, 10)), np.full(10, 5.0))


def test_uniform_degenerate_and_support():
    streams = _TrialStreams(1, 500)
    np.testing.assert_array_equal(Uniform(4.0, 4.0).sample(streams), np.full(500, 4.0))
    draws = Uniform(500.0, 1000.0).sample(streams)
    assert ((500.0 <= draws) & (draws <= 1000.0)).all()


def test_triangular_support_and_validation():
    draws = Triangular(1.0, 2.0, 4.0).sample(_TrialStreams(2, 200))
    assert ((1.0 <= draws) & (draws <= 4.0)).all()
    with pytest.raises(ValidationError):
        Triangular(3.0, 2.0, 4.0)


def test_normal_truncated_at_zero():
    draws = Normal(0.5, 2.0).sample(_TrialStreams(3, 300))
    assert (draws >= 0.0).all()
    with pytest.raises(ValidationError):
        Normal(1.0, -1.0)


def test_normal_hopeless_truncation_rejected():
    with pytest.raises(ValidationError, match="no sample"):
        Normal(-1e9, 1.0).sample(_TrialStreams(4, 1))
    with pytest.raises(ValidationError):
        Normal(-5.0, 0.0)


@pytest.mark.parametrize("constant", [Point(4.0), Uniform(4.0, 4.0), Triangular(4.0, 4.0, 4.0)])
def test_constant_amounts_draw_nothing(constant):
    streams, fresh = _TrialStreams(5, 50), _TrialStreams(5, 50)
    constant.sample(streams)
    np.testing.assert_array_equal(streams.doubles(), fresh.doubles())


def test_streams_step_each_trials_default_rng_stream():
    streams = _TrialStreams(2**40 + 3, 20)
    rngs = [np.random.default_rng((2**40 + 3, t)) for t in range(20)]
    for _ in range(3):
        np.testing.assert_array_equal(streams.doubles(), [rng.random() for rng in rngs])


# from 2^96 a seed has more 32-bit words than SeedSequence's 4-word pool holds, so the rest are mixed in after
@pytest.mark.parametrize(
    "seed", [2**96 - 1, 2**96, 2**128 + 3, 2**200 + 11], ids=["2^96-1", "2^96", "2^128+3", "2^200+11"]
)
def test_streams_of_seeds_beyond_the_entropy_pool_match_default_rng(seed):
    streams = _TrialStreams(seed, 50)
    rngs = [np.random.default_rng((seed, t)) for t in range(50)]
    for _ in range(3):
        np.testing.assert_array_equal(streams.doubles(), [rng.random() for rng in rngs])


# --- the per-trial oracle ---

def oracle_draw(amount, rng):
    """One trial's draw as net_benefit made it before the trial streams were vectorised."""
    if isinstance(amount, Point):
        return amount.value
    if isinstance(amount, (Uniform, Triangular)) and amount.low == amount.high:
        return amount.low
    if isinstance(amount, Uniform):
        return float(rng.uniform(amount.low, amount.high))
    if isinstance(amount, Triangular):
        return float(rng.triangular(amount.low, amount.mode, amount.high))
    for _ in range(10000):
        v = float(rng.normal(amount.mu, amount.sigma))
        if v >= 0:
            return v
    raise ValidationError(
        f"Normal(mu={amount.mu}, sigma={amount.sigma}) produced no sample >= 0 "
        f"in 10000 draws; check the parameters"
    )


def oracle_sample_matrix(items, config):
    samples = np.empty((config.trials, len(items)))
    for t in range(config.trials):
        rng = np.random.default_rng((config.seed, t))
        for j, line_item in enumerate(items):
            samples[t, j] = oracle_draw(line_item.amount, rng)
    return samples


MAGNITUDE = st.floats(-1e150, 1e150, allow_nan=False)
WIDTH = st.sampled_from([0.0]) | st.floats(0.0, 1e150, allow_nan=False)
POINTS = st.builds(Point, MAGNITUDE)
UNIFORMS = st.builds(lambda low, width: Uniform(low, low + width), MAGNITUDE, WIDTH)
TRIANGULARS = st.builds(
    lambda low, left, right: Triangular(low, low + left, low + left + right), MAGNITUDE, WIDTH, WIDTH
)
# mu >= -sigma keeps at least a sixth of the mass above zero, so rejection stays short
NORMALS = st.builds(
    lambda sigma, mu_over_sigma, mu: Normal(mu_over_sigma * sigma if sigma else mu, sigma),
    st.sampled_from([0.0]) | st.floats(1e-300, 1e6),
    st.floats(-1.0, 1e3),
    st.floats(0.0, 1e6),
)
AMOUNTS = POINTS | UNIFORMS | TRIANGULARS | NORMALS
PLACES = [
    (LedgerKind.DIRECT_SAVING, "Operating"),
    (LedgerKind.INDIRECT_SAVING, "MaintenanceCycleDelay"),
    (LedgerKind.IMPLEMENTATION_COST, "Labor"),
]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    amounts=st.lists(AMOUNTS, min_size=1, max_size=6),
    places=st.lists(st.sampled_from(PLACES), min_size=6, max_size=6),
    seed=st.integers(0, 2**64 - 1),
    trials=st.integers(1, 300),
    hopeless_at=st.integers(0, 6),
)
def test_sample_matrix_equals_the_per_trial_default_rng_loop(amounts, places, seed, trials, hopeless_at):
    items = [
        item(f"i{j}", ledger, category, amount) for j, (amount, (ledger, category)) in enumerate(zip(amounts, places))
    ]
    config = McConfig(trials=trials, seed=seed)
    assert _sample_matrix(items, config).tobytes() == oracle_sample_matrix(items, config).tobytes()
    # a hopeless truncation fails in its first trial, with the message the loop gave
    items.insert(min(hopeless_at, len(items)), item("hopeless", amount=Normal(-1e9, 1.0)))
    with pytest.raises(ValidationError) as expected:
        oracle_sample_matrix(items, config)
    with pytest.raises(ValidationError, match="no sample") as got:
        net_benefit(items, config)
    assert str(got.value) == str(expected.value)


# --- per-item simulation ---

def simulate_item(line_item, config):
    return net_benefit([line_item], config).item_summaries[line_item.name]


def test_simulate_point_item():
    summary = simulate_item(item("a", amount=Point(5.0)), McConfig(trials=200, seed=0))
    assert summary.mean == 5.0
    assert summary.sd == 0.0
    assert summary.max == summary.min == 5.0


def test_simulate_uniform_matches_analytic_moments():
    summary = simulate_item(
        item("rev", amount=Uniform(500.0, 1000.0)), McConfig(trials=10000, seed=1)
    )
    assert summary.mean == pytest.approx(750.0, abs=5.0)
    assert summary.sd == pytest.approx(500.0 / math.sqrt(12.0), abs=5.0)
    assert 500.0 <= summary.min <= summary.max <= 1000.0


def test_summary_percentile_ordering():
    summary = simulate_item(item("x", amount=Uniform(1.0, 10.0)), McConfig(trials=2000, seed=4))
    assert summary.min <= summary.p5 <= summary.p50 <= summary.p95 <= summary.max


def test_sampling_soundness_bound():
    a, b, trials = 50.0, 500.0, 10000
    summary = simulate_item(item("m", amount=Uniform(a, b)), McConfig(trials=trials, seed=2))
    assert abs(summary.mean - (a + b) / 2) < 4 * (b - a) / math.sqrt(12 * trials)


# --- net benefit ---

def point_ledger():
    return [
        item("direct", LedgerKind.DIRECT_SAVING, "Operating", Point(10.0)),
        item("indirect", LedgerKind.INDIRECT_SAVING, "LostProductivityAvoidance", Point(5.0)),
        item("cost", LedgerKind.IMPLEMENTATION_COST, "Equipment", Point(12.0)),
    ]


def test_net_benefit_point_arithmetic():
    result = net_benefit(point_ledger(), McConfig(trials=50, seed=0))
    np.testing.assert_array_equal(result.net_samples, np.full(50, 3.0))
    assert result.net.mean == 3.0
    assert result.net.sd == 0.0


def test_net_benefit_all_zero():
    items = [item("z", amount=Point(0.0))]
    result = net_benefit(items, McConfig(trials=20, seed=0))
    np.testing.assert_array_equal(result.net_samples, 0.0)


def test_identity_holds_per_trial_exactly():
    items = [
        item("a", LedgerKind.DIRECT_SAVING, "Operating", Uniform(10.0, 20.0)),
        item("b", LedgerKind.DIRECT_SAVING, "Financing", Triangular(0.0, 5.0, 10.0)),
        item("c", LedgerKind.INDIRECT_SAVING, "MaintenanceCycleDelay", Normal(4.0, 2.0)),
        item("d", LedgerKind.IMPLEMENTATION_COST, "Labor", Uniform(3.0, 9.0)),
    ]
    result = net_benefit(items, McConfig(trials=3000, seed=7))
    recomputed = (
        result.ledger_samples[LedgerKind.DIRECT_SAVING]
        + result.ledger_samples[LedgerKind.INDIRECT_SAVING]
        - result.ledger_samples[LedgerKind.IMPLEMENTATION_COST]
    )
    np.testing.assert_array_equal(result.net_samples, recomputed)


def test_mean_linearity_within_three_standard_errors():
    items = [
        item("a", LedgerKind.DIRECT_SAVING, "Operating", Uniform(100.0, 200.0)),
        item("b", LedgerKind.INDIRECT_SAVING, "LostProductivityAvoidance", Uniform(50.0, 150.0)),
        item("c", LedgerKind.IMPLEMENTATION_COST, "Equipment", Uniform(80.0, 120.0)),
    ]
    trials = 10000
    result = net_benefit(items, McConfig(trials=trials, seed=11))
    expected = 150.0 + 100.0 - 100.0
    var = (100.0**2 + 100.0**2 + 40.0**2) / 12.0
    se = math.sqrt(var / trials)
    assert abs(result.net.mean - expected) < 3 * se


def test_net_benefit_validation():
    with pytest.raises(ValidationError, match="no items"):
        net_benefit([], McConfig(trials=10, seed=0))
    with pytest.raises(ValidationError, match="duplicate"):
        net_benefit([item("same"), item("same")], McConfig(trials=10, seed=0))
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        McConfig(trials=10, seed=-1)


def test_out_of_memory_names_the_trial_count(monkeypatch):
    def no_memory(seed, trials):
        raise MemoryError

    monkeypatch.setattr(cba, "_TrialStreams", no_memory)
    with pytest.raises(ValidationError, match="not enough memory for 123 trials"):
        net_benefit(point_ledger(), McConfig(trials=123, seed=0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("ledgers, category", [
    ((LedgerKind.DIRECT_SAVING, LedgerKind.DIRECT_SAVING), "Operating"),  # each trial's sum overflows
    ((LedgerKind.DIRECT_SAVING, LedgerKind.IMPLEMENTATION_COST), "Equipment"),  # each trial nets 0; the mean overflows
])
def test_overflowing_ledger_is_refused_without_warnings(ledgers, category):
    ledger = [item("saving", ledgers[0], amount=Point(1e308)), item("other", ledgers[1], category, Point(1e308))]
    with pytest.raises(ValidationError, match="net benefit is not finite"):
        net_benefit(ledger, McConfig(trials=100, seed=1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_spread_is_refused_when_written_without_warnings():
    # the mean fits a float, the squared deviations behind the standard deviation do not
    result = net_benefit([item("huge", amount=Uniform(1e200, 2e200))], McConfig(trials=100, seed=1))
    with pytest.raises(ValidationError, match="not finite"):
        dumps(result.to_dict())


def test_seed_determinism():
    items = point_ledger() + [item("u", amount=Uniform(0.0, 1.0))]
    a = net_benefit(items, McConfig(trials=500, seed=42))
    b = net_benefit(items, McConfig(trials=500, seed=42))
    np.testing.assert_array_equal(a.net_samples, b.net_samples)
    assert a.net == b.net


# --- taxonomy ---

def test_taxonomy_enforced():
    with pytest.raises(ValidationError, match="category"):
        LineItem("x", LedgerKind.DIRECT_SAVING, "Equipment", ItemKind.VARIABLE, Point(1.0))
    with pytest.raises(ValidationError, match="OneOff"):
        LineItem("x", LedgerKind.DIRECT_SAVING, "DisposalGain", ItemKind.VARIABLE, Point(1.0))
    with pytest.raises(ValidationError, match="DisposalGain"):
        LineItem("x", LedgerKind.DIRECT_SAVING, "Operating", ItemKind.ONE_OFF, Point(1.0))
    # valid one-off disposal gain
    LineItem("gain", LedgerKind.DIRECT_SAVING, "DisposalGain", ItemKind.ONE_OFF, Point(9.0))


# --- ledger file ---

def test_bundled_ledger_loads():
    items = load_ledger(pdmecon.data_path("sample_ledger.json"))
    assert len(items) == 4
    amounts = {i.name: i.amount for i in items}
    assert amounts["Inspection cost savings"] == Uniform(500.0, 950.0)
    assert amounts["Maintenance cost savings"] == Uniform(50.0, 500.0)
    assert amounts["Avoidance of lost revenue"] == Uniform(500.0, 1000.0)
    assert amounts["Materials cost savings"] == Uniform(1.0, 10.0)


def test_ledger_file_errors(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        load_ledger(tmp_path / "missing.json")
    empty = tmp_path / "empty.json"
    empty.write_text('{"schema_version": 1, "items": []}', encoding="utf-8")
    with pytest.raises(ValidationError, match="non-empty"):
        load_ledger(empty)
    bad_tri = tmp_path / "tri.json"
    bad_tri.write_text(
        '{"schema_version": 1, "items": [{"name": "broken", "ledger": "DirectSaving",'
        ' "category": "Operating", "kind": "Variable",'
        ' "amount": {"dist": "triangular", "low": 5, "mode": 2, "high": 4}}]}',
        encoding="utf-8",
    )
    with pytest.raises(ValidationError, match="Triangular"):
        load_ledger(bad_tri)
    bad_ledger = tmp_path / "led.json"
    bad_ledger.write_text(
        '{"schema_version": 1, "items": [{"name": "x", "ledger": "Savings",'
        ' "amount": {"dist": "point", "value": 1}}]}',
        encoding="utf-8",
    )
    with pytest.raises(ValidationError, match="'x'"):
        load_ledger(bad_ledger)


# --- bridge ---

def comparison(uptime_prev, uptime_pred, maint_prev, maint_pred, duration=2000):
    return ComparisonReport(
        schema_version=1,
        outcomes={
            "preventive": outcome(uptime_prev, duration - uptime_prev, maint_prev),
            "predictive": outcome(uptime_pred, duration - uptime_pred, maint_pred),
        },
    )


def test_bridge_zero_deltas_yield_zero_points():
    items = bridge_from_simulation(comparison(1800, 1800, 3, 3), 2.0, [], 5.0)
    by_name = {i.name: i for i in items}
    assert by_name[BRIDGED_REVENUE_ITEM].amount == Point(0.0)
    assert by_name[BRIDGED_MAINTENANCE_ITEM].amount == Point(0.0)


def test_bridge_positive_revenue_delta():
    items = bridge_from_simulation(comparison(1400, 1900, 4, 1), 2.0, [], 10.0)
    by_name = {i.name: i.amount for i in items}
    assert by_name[BRIDGED_REVENUE_ITEM] == Point((1900 - 1400) * 2.0)
    assert by_name[BRIDGED_MAINTENANCE_ITEM] == Point(3 * 10.0)


def test_bridge_zero_unit_cost_ignores_count_delta():
    items = bridge_from_simulation(comparison(1500, 1700, 5, 1), 1.0, [], 0.0)
    by_name = {i.name: i.amount for i in items}
    assert by_name[BRIDGED_MAINTENANCE_ITEM] == Point(0.0)


def test_bridge_overwrites_existing_items():
    base = load_ledger(pdmecon.data_path("sample_ledger.json"))
    items = bridge_from_simulation(comparison(1400, 1900, 4, 1), 1.0, base, 2.0)
    assert len(items) == len(base)  # overwritten in place, nothing duplicated
    by_name = {i.name: i.amount for i in items}
    assert by_name[BRIDGED_REVENUE_ITEM] == Point(500.0)
    assert by_name["Inspection cost savings"] == Uniform(500.0, 950.0)


def test_bridge_requires_both_policies():
    report = ComparisonReport(schema_version=1, outcomes={"preventive": outcome(100, 300, 1)})
    with pytest.raises(ValidationError, match="predictive"):
        bridge_from_simulation(report, 1.0, [], 0.0)


@pytest.mark.parametrize(
    "revenue_rate, unit_cost, name, price",
    [(-5.0, 0.0, "revenue_rate", "-5.0"), (math.nan, 0.0, "revenue_rate", "nan"),
     (1.0, -3.0, "unit_maintenance_cost", "-3.0"), (None, math.inf, "unit_maintenance_cost", "inf")],
)
def test_bridge_refuses_a_negative_or_non_finite_price(revenue_rate, unit_cost, name, price):
    # a negative price would turn a loss into a saving: -5.0 x -300 s of downtime avoided is +1,500
    with pytest.raises(ValidationError, match=f"^{name} must be a finite number >= 0, got {price}$"):
        bridge_from_simulation(comparison(1800, 1500, 3, 4), revenue_rate, [], unit_cost)


def reference_bridge_amounts(prev, pred, revenue_rate, unit_cost):
    """The two bridged amounts computed straight from the outcomes, as the bridge did before it read the deltas."""
    if revenue_rate is None:
        revenue_rate = pred.revenue_rate_per_s
    return (pred.uptime_s - prev.uptime_s) * revenue_rate, (prev.maintenance_count - pred.maintenance_count) * unit_cost


RATES = st.sampled_from([0.0, 0.1, 1 / 3, 1.0]) | st.floats(1e-3, 1e6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    duration=st.integers(1, 10**7),
    fractions=st.tuples(st.floats(0, 1), st.floats(0, 1)),
    counts=st.tuples(st.integers(0, 10**4), st.integers(0, 10**4)),
    simulated_rate=RATES,
    revenue_rate=st.none() | RATES,
    unit_cost=st.none() | RATES,
)
def test_bridge_prices_the_report_deltas_as_the_outcomes_once_gave_them(
    duration, fractions, counts, simulated_rate, revenue_rate, unit_cost
):
    prev, pred = (  # at most one stop per second of downtime, as in any run
        outcome(up, duration - up, min(maint, duration - up), rate=simulated_rate)
        for up, maint in zip((round(f * duration) for f in fractions), counts)
    )
    items = bridge_from_simulation(
        ComparisonReport(1, {"preventive": prev, "predictive": pred}), revenue_rate, [], unit_cost
    )
    by_name = {i.name: i.amount.value for i in items}
    got = by_name[BRIDGED_REVENUE_ITEM], by_name[BRIDGED_MAINTENANCE_ITEM]
    expected = reference_bridge_amounts(prev, pred, revenue_rate, 0.0 if unit_cost is None else unit_cost)
    assert [float(v).hex() for v in got] == [float(v).hex() for v in expected]


def test_format_table_columns():
    result = net_benefit(point_ledger(), McConfig(trials=10, seed=0))
    table = format_summary_table(result.item_summaries)
    header = table.splitlines()[0]
    assert header.split() == ["item", "Average", "SD", "Max", "Min"]
