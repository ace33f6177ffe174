import math

import numpy as np
import pytest

from pdmecon.errors import ValidationError
from pdmecon.features import LagSpec
from pdmecon.jsonio import from_dict
from pdmecon.models import (
    BoostHyperparams,
    ForestHyperparams,
    Hyperparams,
    evaluate_cv,
    fit_model,
    format_eval_table,
    rmse,
)


def ar_series(n=400, phi=0.5, c=1.0, lag=5):
    """Noiseless y_t = phi * y_{t-lag} + c with varied initial conditions."""
    y = np.empty(n)
    y[:lag] = [1.0, 3.0, 2.0, 5.0, 4.0][:lag]
    for t in range(lag, n):
        y[t] = phi * y[t - lag] + c
    return y


def test_rmse_identity_zero():
    y = np.array([1.0, 2.0, 3.0])
    assert rmse(y, y) == 0.0


def test_rmse_hand_computed():
    assert rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(
        math.sqrt(12.5), abs=1e-9
    )


def test_rmse_constant_offset():
    y = np.random.default_rng(0).normal(size=50)
    for c in (-2.5, 0.75):
        assert rmse(y, y + c) == pytest.approx(abs(c), abs=1e-9)


def test_rmse_scale_equivariance():
    rng = np.random.default_rng(1)
    y, y_hat = rng.normal(size=40), rng.normal(size=40)
    for a in (-3.0, 0.5, 7.0):
        assert rmse(a * y, a * y_hat) == pytest.approx(abs(a) * rmse(y, y_hat), abs=1e-9)


def test_rmse_errors():
    with pytest.raises(ValidationError, match="mismatch"):
        rmse(np.zeros(3), np.zeros(4))
    with pytest.raises(ValidationError, match="empty"):
        rmse(np.zeros(0), np.zeros(0))


def test_linear_model_nails_noiseless_ar():
    report = evaluate_cv(ar_series(), LagSpec(5, 30), 5, "linear")
    assert len(report.per_split_rmse) == 5
    assert all(v < 1e-6 for v in report.per_split_rmse)


def test_report_shape_and_average():
    report = evaluate_cv(
        ar_series(260),
        LagSpec(5, 30),
        5,
        "forest",
        ForestHyperparams(n_trees=5, max_depth=6),
        seed=3,
    )
    assert len(report.per_split_rmse) == 5
    assert report.average_rmse == pytest.approx(np.mean(report.per_split_rmse), abs=1e-12)


def test_seed_determinism():
    series = ar_series(260) + np.random.default_rng(4).normal(scale=0.1, size=260)
    a = evaluate_cv(series, LagSpec(5, 30), 5, "forest", ForestHyperparams(n_trees=4, max_depth=5), seed=9)
    b = evaluate_cv(series, LagSpec(5, 30), 5, "forest", ForestHyperparams(n_trees=4, max_depth=5), seed=9)
    assert a == b


def test_unknown_kind_and_hyperparams_rejected():
    with pytest.raises(ValidationError, match="unknown model kind"):
        evaluate_cv(ar_series(), LagSpec(5, 30), 5, "arima")
    # an unknown field is refused where hyperparameters are read, by the file reader
    with pytest.raises(ValidationError, match=r"unknown field hyperparameters\.forest\.trees"):
        from_dict(Hyperparams, {"forest": {"trees": 3}}, "hyperparameters")
    with pytest.raises(ValidationError, match="forest hyperparameters must be ForestHyperparams, got dict"):
        evaluate_cv(ar_series(), LagSpec(5, 30), 5, "forest", {"n_trees": 3})


def test_another_kinds_hyperparameters_are_refused():
    X, y = np.zeros((10, 2)), np.zeros(10)
    with pytest.raises(ValidationError, match="boost hyperparameters must be BoostHyperparams, got ForestHyperparams"):
        fit_model("boost", X, y, ForestHyperparams())


def test_constant_series_hits_ridge_path_without_failing():
    # stuck-at data: every lag column is constant and collinear with the intercept
    report = evaluate_cv(np.full(200, 33.0), LagSpec(5, 30), 5, "linear")
    assert all(v < 1e-6 for v in report.per_split_rmse)


def test_format_eval_table_shape():
    reports = [
        evaluate_cv(ar_series(200), LagSpec(2, 6), 5, "linear"),
        evaluate_cv(ar_series(200), LagSpec(2, 6), 5, "boost", BoostHyperparams(n_stages=3), seed=1),
    ]
    table = format_eval_table(reports)
    lines = table.splitlines()
    assert lines[0].startswith("Split Number")
    assert "Linear Regression RMSE (kPa)" in lines[0]
    assert "Gradient Boosting RMSE (kPa)" in lines[0]
    assert len(lines) == 7  # header + 5 splits + average
    assert lines[-1].startswith("Average")
