import math

import numpy as np
import pytest

import pdmecon
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
    bridge_from_simulation,
    format_summary_table,
    load_ledger,
    net_benefit,
)
from pdmecon.errors import ValidationError
from pdmecon.plantsim import ComparisonReport, SimOutcome


def item(name, ledger=LedgerKind.DIRECT_SAVING, category="Operating", amount=Point(1.0)):
    return LineItem(name=name, ledger=ledger, category=category, kind=ItemKind.VARIABLE, amount=amount)


def outcome(uptime, downtime, maint, brk=0, rate=1.0):
    return SimOutcome(
        duration_s=uptime + downtime,
        uptime_s=uptime,
        downtime_s=downtime,
        maintenance_count=maint,
        breakdown_count=brk,
        revenue_rate_per_s=rate,
        revenue_units=uptime * rate,
    )


# --- sampling ---

def test_point_always_returns_value():
    rng = np.random.default_rng(0)
    assert all(Point(5.0).sample(rng) == 5.0 for _ in range(10))


def test_uniform_degenerate_and_support():
    rng = np.random.default_rng(1)
    assert Uniform(4.0, 4.0).sample(rng) == 4.0
    draws = [Uniform(500.0, 1000.0).sample(rng) for _ in range(500)]
    assert all(500.0 <= d <= 1000.0 for d in draws)


def test_triangular_support_and_validation():
    rng = np.random.default_rng(2)
    draws = [Triangular(1.0, 2.0, 4.0).sample(rng) for _ in range(200)]
    assert all(1.0 <= d <= 4.0 for d in draws)
    with pytest.raises(ValidationError):
        Triangular(3.0, 2.0, 4.0)


def test_normal_truncated_at_zero():
    rng = np.random.default_rng(3)
    draws = [Normal(0.5, 2.0).sample(rng) for _ in range(300)]
    assert all(d >= 0.0 for d in draws)
    with pytest.raises(ValidationError):
        Normal(1.0, -1.0)


def test_normal_hopeless_truncation_rejected():
    rng = np.random.default_rng(4)
    with pytest.raises(ValidationError, match="no sample"):
        Normal(-1e9, 1.0).sample(rng)
    with pytest.raises(ValidationError):
        Normal(-5.0, 0.0)


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
        outcomes={
            "preventive": outcome(uptime_prev, duration - uptime_prev, maint_prev),
            "predictive": outcome(uptime_pred, duration - uptime_pred, maint_pred),
        }
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
    report = ComparisonReport(outcomes={"preventive": outcome(100, 0, 1)})
    with pytest.raises(ValidationError, match="predictive"):
        bridge_from_simulation(report, 1.0, [], 0.0)


def test_format_table_columns():
    result = net_benefit(point_ledger(), McConfig(trials=10, seed=0))
    table = format_summary_table(result.item_summaries)
    header = table.splitlines()[0]
    assert header.split() == ["item", "Average", "SD", "Max", "Min"]
