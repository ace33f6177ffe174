"""Acceptance suite: one test per criterion, each timed against its budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

import pdmecon
from pdmecon.cba import (
    BRIDGED_REVENUE_ITEM,
    McConfig,
    bridge_from_simulation,
    load_ledger,
    net_benefit,
)
from pdmecon.detect import (
    DetectorConfig,
    FaultKind,
    detect_outliers_distance,
    detect_outliers_gradient,
    run_all_detectors,
)
from pdmecon.features import LagSpec, make_lag_matrix, walk_forward_splits
from pdmecon.models import (
    BoostHyperparams,
    ForestHyperparams,
    fit_boost,
    fit_forest,
    fit_ols,
    predict,
    predict_tree,
    rmse,
)
from pdmecon.plantsim import TracePlan, compare_policies, generate_trace, scenario_from_dict

RUN = [sys.executable, "-m", "pdmecon"]


@contextmanager
def criterion(num, description, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"CRITERION {num:2d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"CRITERION {num:2d} PASS ({elapsed:.2f}s): {description}")


def cli(*args):
    result = subprocess.run([*RUN, *map(str, args)], capture_output=True, text=True)
    assert result.returncode == 0, f"{args}: exit {result.returncode}\n{result.stderr}"
    return result


def write_series_csv(path, values):
    from pdmecon.ingest import SensorFrame, Channel, write_sensor_csv

    frame = SensorFrame(
        timestamps=np.arange(len(values), dtype=np.int64),
        channels=(Channel("DPIT301", np.asarray(values)),),
    )
    write_sensor_csv(frame, path)
    return path


def ar_series(n, phi=0.5, c=1.0, lag=5):
    y = np.empty(n)
    y[:lag] = [1.0, 3.0, 2.0, 5.0, 4.0][:lag]
    for t in range(lag, n):
        y[t] = phi * y[t - lag] + c
    return y


def test_criterion_01_rmse_units():
    with criterion(1, "RMSE unit correctness (hand value, identity, offset)", 1.0):
        assert rmse(np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(3.53553, abs=1e-5)
        assert abs(rmse(np.zeros(2), np.array([3.0, 4.0])) - math.sqrt(12.5)) < 1e-9
        y = np.random.default_rng(0).normal(size=100)
        assert rmse(y, y) == 0.0
        for c in (-4.0, 0.3):
            assert abs(rmse(y, y + c) - abs(c)) < 1e-9


def test_criterion_02_ols_oracle():
    with criterion(2, "OLS matches normal-equations oracle on 100 instances (<1e-8)", 5.0):
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(10, 51))
            p = int(rng.integers(1, 6))
            X = rng.normal(size=(n, p))
            y = X @ rng.normal(size=p) + rng.normal(size=n)
            model = fit_ols(X, y)
            A = np.column_stack([np.ones(n), X])
            beta = np.linalg.solve(A.T @ A, A.T @ y)
            fitted = np.concatenate([[model.intercept], model.coefficients])
            worst = max(worst, float(np.max(np.abs(fitted - beta))))
        assert worst < 1e-8, f"worst deviation {worst:.2e}"


def test_criterion_03_boost_monotone():
    with criterion(3, "boosting training RMSE non-increasing on 20 random datasets", 30.0):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(30, 120))
            p = int(rng.integers(1, 5))
            X = rng.normal(size=(n, p))
            y = rng.normal(size=n) + X @ rng.normal(size=p)
            model = fit_boost(X, y, BoostHyperparams(n_stages=30, learning_rate=float(rng.uniform(0.05, 1.0))))
            seq = np.asarray(model.stage_train_rmse)
            assert np.all(np.diff(seq) <= 1e-12)


def test_criterion_04_forest_decomposition():
    with criterion(4, "forest prediction = mean of tree predictions (<1e-12, 1000 probes)", 10.0):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(150, 4))
        y = X @ np.array([1.0, -1.0, 2.0, 0.0]) + rng.normal(scale=0.2, size=150)
        forest = fit_forest(X, y, ForestHyperparams(n_trees=20), seed=3)
        probes = rng.normal(size=(1000, 4))
        per_tree = np.stack([predict_tree(t, probes) for t in forest.trees])
        assert np.max(np.abs(predict(forest, probes) - per_tree.mean(axis=0))) < 1e-12


def test_criterion_05_split_correctness():
    with criterion(5, "walk-forward split plan enumerated + leakage-free property", 1.0):
        plan = walk_forward_splits(12, 5)
        assert [(f.train, f.test) for f in plan.folds] == [
            ((0, 2), (2, 4)),
            ((0, 4), (4, 6)),
            ((0, 6), (6, 8)),
            ((0, 8), (8, 10)),
            ((0, 10), (10, 12)),
        ]
        rng = np.random.default_rng(2)
        for _ in range(300):
            k = int(rng.integers(1, 10))
            n = int(rng.integers(k + 1, 800))
            p = walk_forward_splits(n, k)
            t = n // (k + 1)
            for fold in p.folds:
                assert fold.train[1] <= fold.test[0]
                assert fold.test[1] - fold.test[0] == t
            for a, b in zip(p.folds, p.folds[1:]):
                assert b.test[0] == a.test[1]
            assert p.folds[-1].test[1] == n


def test_criterion_06_eval_report_shape_and_sanity(tmp_path):
    with criterion(6, "evaluate: 5 splits + average per model; linear RMSE sane", 60.0):
        # noiseless AR trace: the linear class contains the truth
        clean_csv = write_series_csv(tmp_path / "ar.csv", ar_series(500))
        hp = tmp_path / "hp.json"
        hp.write_text(
            json.dumps(
                {
                    "forest": {"n_trees": 10, "max_depth": 8},
                    "boost": {"n_stages": 20, "max_depth": 3},
                }
            ),
            encoding="utf-8",
        )
        cli(
            "evaluate",
            "--csv", clean_csv,
            "--kinds", "linear,forest,boost",
            "--k", 5,
            "--hyperparams", hp,
            "--seed", 1,
            "--out-dir", tmp_path / "clean",
        )
        doc = json.loads((tmp_path / "clean" / "evaluation.json").read_text())
        assert set(doc["reports"]) == {"linear", "forest", "boost"}
        for report in doc["reports"].values():
            assert len(report["per_split_rmse"]) == 5
            assert report["average_rmse"] == pytest.approx(
                np.mean(report["per_split_rmse"]), abs=1e-12
            )
        assert all(v < 1e-6 for v in doc["reports"]["linear"]["per_split_rmse"])

        # noisy trace: linear average RMSE within [0.5 sigma, 3 sigma]
        sigma = 0.5
        noisy = 30.0 + np.random.default_rng(5).normal(scale=sigma, size=600)
        noisy_csv = write_series_csv(tmp_path / "noisy.csv", noisy)
        cli(
            "evaluate",
            "--csv", noisy_csv,
            "--kinds", "linear",
            "--k", 5,
            "--seed", 1,
            "--out-dir", tmp_path / "noisy",
        )
        doc = json.loads((tmp_path / "noisy" / "evaluation.json").read_text())
        avg = doc["reports"]["linear"]["average_rmse"]
        assert 0.5 * sigma <= avg <= 3 * sigma, f"average RMSE {avg} outside noise band"


def test_criterion_07_monte_carlo_bands():
    with criterion(7, "Monte Carlo means/SDs inside the published bands (10^4 trials)", 5.0):
        items = load_ledger(pdmecon.data_path("sample_ledger.json"))
        result = net_benefit(items, McConfig(trials=10000, seed=1))
        bands = {
            "Inspection cost savings": ((720, 730), (127, 133), 500, 950),
            "Maintenance cost savings": ((270, 280), (127, 133), 50, 500),
            "Avoidance of lost revenue": ((745, 755), (141, 148), 500, 1000),
            "Materials cost savings": ((5.4, 5.6), (2.5, 2.7), 1, 10),
        }
        for name, ((mean_lo, mean_hi), (sd_lo, sd_hi), lo, hi) in bands.items():
            s = result.item_summaries[name]
            assert mean_lo <= s.mean <= mean_hi, f"{name} mean {s.mean}"
            assert sd_lo <= s.sd <= sd_hi, f"{name} sd {s.sd}"
            assert lo <= s.min <= s.max <= hi, f"{name} support [{s.min}, {s.max}]"


def test_criterion_08_net_benefit_identity():
    with criterion(8, "net = direct + indirect - implementation, exact per trial", 5.0):
        items = load_ledger(pdmecon.data_path("sample_ledger.json"))
        from pdmecon.cba import ItemKind, LedgerKind, LineItem, Uniform

        items = items + [
            LineItem(
                name="Program cost",
                ledger=LedgerKind.IMPLEMENTATION_COST,
                category="Equipment",
                kind=ItemKind.VARIABLE,
                amount=Uniform(300.0, 600.0),
            )
        ]
        result = net_benefit(items, McConfig(trials=10000, seed=3))
        recomputed = (
            result.ledger_samples[LedgerKind.DIRECT_SAVING]
            + result.ledger_samples[LedgerKind.INDIRECT_SAVING]
            - result.ledger_samples[LedgerKind.IMPLEMENTATION_COST]
        )
        assert len(result.net_samples) == 10000
        np.testing.assert_array_equal(result.net_samples, recomputed)


@pytest.fixture(scope="module")
def trained_linear():
    trace = generate_trace(TracePlan(), seed=1)
    lag_spec = LagSpec(5, 30)
    supervised = make_lag_matrix(trace, lag_spec)
    return fit_ols(supervised.X, supervised.y), lag_spec


def test_criterion_09_scenario_orderings(trained_linear):
    with criterion(9, "scenario 1: fewer predictive maintenances; scenario 2: less downtime", 60.0):
        model, lag_spec = trained_linear

        doc = json.loads(pdmecon.data_path("scenario1_delay_maintenance.json").read_text())
        sc1 = scenario_from_dict(doc)
        r1 = compare_policies(
            sc1.plan, sc1.injections, sc1.build_policies(model, lag_spec), sc1.econ, seed=7
        )
        assert (
            r1.outcomes["predictive"].maintenance_count
            <= r1.outcomes["preventive"].maintenance_count
        )

        doc = json.loads(pdmecon.data_path("scenario2_avoid_breakdown.json").read_text())
        sc2 = scenario_from_dict(doc)
        r2 = compare_policies(
            sc2.plan, sc2.injections, sc2.build_policies(model, lag_spec), sc2.econ, seed=7
        )
        assert r2.outcomes["predictive"].downtime_s < r2.outcomes["preventive"].downtime_s
        bridged = bridge_from_simulation(
            r2, 1.0, load_ledger(pdmecon.data_path("sample_ledger.json")), 10.0
        )
        revenue_item = next(i for i in bridged if i.name == BRIDGED_REVENUE_ITEM)
        assert revenue_item.amount.value > 0


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "stochastic commands re-run byte-identically under one seed", 60.0):
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps({"duration_s": 700, "segments": [], "noise_sigma_kpa": 0.2, "warmup_s": 50}),
            encoding="utf-8",
        )
        hp = tmp_path / "hp.json"
        hp.write_text(json.dumps({"forest": {"n_trees": 3, "max_depth": 4}}), encoding="utf-8")
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "plan": {"duration_s": 800, "segments": [], "noise_sigma_kpa": 0.2, "warmup_s": 0},
                    "injections": [
                        {"kind": "spike_ramp", "at_s": 400, "peak_kpa": 60.0, "rise_s": 60}
                    ],
                    "policies": {
                        "preventive": {"kind": "preventive", "cycle_s": 300, "maint_duration_s": 60,
                                       "breakdown": {"repair_duration_s": 240}},
                        "predictive": {"kind": "predictive", "horizon_s": 30, "maint_duration_s": 60,
                                       "breakdown": {"repair_duration_s": 240}},
                    },
                    "econ": {},
                }
            ),
            encoding="utf-8",
        )

        def artifacts(run_dir):
            run_dir.mkdir()
            cli("synth", "--plan", plan, "--seed", 9, "--out-dir", run_dir)
            csv = run_dir / "historian.csv"
            cli("train", "--csv", csv, "--kind", "forest", "--hyperparams", hp,
                "--min-lag", 2, "--max-lag", 6, "--seed", 9, "--out-dir", run_dir)
            cli("evaluate", "--csv", csv, "--kinds", "forest", "--k", 3, "--hyperparams", hp,
                "--min-lag", 2, "--max-lag", 6, "--seed", 9, "--out-dir", run_dir)
            cli("simulate", "--scenario", scenario, "--model", run_dir / "model.json",
                "--seed", 9, "--out-dir", run_dir)
            cli("cba", "--ledger", pdmecon.data_path("sample_ledger.json"), "--trials", 2000,
                "--bridge", run_dir / "comparison.json", "--seed", 9, "--out-dir", run_dir)
            return [
                "historian.csv",
                "model.json",
                "evaluation.json",
                "comparison.json",
                "net_benefit.json",
            ]

        names = artifacts(tmp_path / "a")
        artifacts(tmp_path / "b")
        for name in names:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"


def test_criterion_11_detector_suite():
    with criterion(11, "detector suite behaviors (stuck-only, spike, outliers, quiet ramp)", 5.0):
        config = DetectorConfig()

        constant = np.full(200, 30.0)
        kinds = {e.kind for e in run_all_detectors(constant, config)}
        assert kinds == {FaultKind.STUCK_AT}

        ramp = np.full(150, 30.0)
        ramp[60:70] = 30.0 + 1.2 * np.arange(1, 11)  # 12 kPa over 10 s
        ramp[70:] = 42.0
        kinds = {e.kind for e in run_all_detectors(ramp, config)}
        assert FaultKind.SPIKE in kinds

        displaced = np.full(120, 30.0)
        displaced[60] = 80.0
        assert detect_outliers_gradient(displaced, config.gradient_max_rate)
        assert detect_outliers_distance(displaced, config.mad_window, config.mad_k)

        slow = 30.0 + 0.01 * np.arange(400)
        assert run_all_detectors(slow, config) == []


def test_criterion_12_end_to_end(tmp_path):
    with criterion(12, "full pipeline synth->ingest->train->evaluate->simulate->cba", 120.0):
        out = tmp_path / "pipeline"
        cli("synth", "--seed", 1, "--out-dir", out)  # default setpoint plan
        cli("ingest", "--csv", out / "historian.csv", "--out-dir", out)
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["rows_retained"] == 8700
        cli("train", "--csv", out / "cleaned.csv", "--kind", "linear", "--seed", 1, "--out-dir", out)
        cli("evaluate", "--csv", out / "cleaned.csv", "--kinds", "linear", "--k", 5,
            "--seed", 1, "--out-dir", out)
        doc = json.loads((out / "evaluation.json").read_text())
        assert len(doc["reports"]["linear"]["per_split_rmse"]) == 5
        cli("simulate", "--scenario", pdmecon.data_path("scenario2_avoid_breakdown.json"),
            "--model", out / "model.json", "--seed", 1, "--out-dir", out)
        cli("cba", "--ledger", pdmecon.data_path("sample_ledger.json"), "--trials", 10000,
            "--bridge", out / "comparison.json", "--revenue-rate", 1.0,
            "--unit-maintenance-cost", 10.0, "--seed", 1, "--out-dir", out)
        result = json.loads((out / "net_benefit.json").read_text())
        assert result["items"]["Avoidance of lost revenue"]["mean"] > 0
        assert "net" in result
        # the un-bridged uniform rows still satisfy the analytic bands
        inspection = result["items"]["Inspection cost savings"]
        assert 720 <= inspection["mean"] <= 730 and 127 <= inspection["sd"] <= 133
        materials = result["items"]["Materials cost savings"]
        assert 5.4 <= materials["mean"] <= 5.6 and 2.5 <= materials["sd"] <= 2.7
