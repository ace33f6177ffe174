import math

import numpy as np
import pytest

from pdmecon.errors import ValidationError
from pdmecon.features import LagSpec, make_lag_matrix
from pdmecon.models import LinearModel, fit_ols, predict


def normal_equations_oracle(X, y):
    A = np.column_stack([np.ones(len(y)), X])
    return np.linalg.solve(A.T @ A, A.T @ y)


def test_exact_linear_data():
    x = np.linspace(-3, 3, 20).reshape(-1, 1)
    y = 2.0 * x[:, 0] + 1.0
    model = fit_ols(x, y)
    assert model.intercept == pytest.approx(1.0, abs=1e-9)
    assert model.coefficients[0] == pytest.approx(2.0, abs=1e-9)
    assert not model.ridge_applied


def test_constant_target():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 4))
    model = fit_ols(X, np.full(30, 5.25))
    assert model.intercept == pytest.approx(5.25, abs=1e-9)
    np.testing.assert_allclose(model.coefficients, 0.0, atol=1e-9)


def test_random_instance_matches_normal_equations():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(50, 3))
    y = rng.normal(size=50)
    model = fit_ols(X, y)
    beta = normal_equations_oracle(X, y)
    assert abs(model.intercept - beta[0]) < 1e-8
    np.testing.assert_allclose(model.coefficients, beta[1:], atol=1e-8)


def test_oracle_sweep_well_conditioned():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(10, 51))
        p = int(rng.integers(1, 6))
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p) + rng.normal(size=n)
        model = fit_ols(X, y)
        beta = normal_equations_oracle(X, y)
        fitted = np.concatenate([[model.intercept], model.coefficients])
        assert np.max(np.abs(fitted - beta)) < 1e-8


def test_ridge_fallback_on_constant_column():
    # a constant feature is collinear with the intercept: near rank-deficient
    rng = np.random.default_rng(3)
    X = np.column_stack([np.full(40, 2.0), rng.normal(size=40)])
    y = 3.0 + 0.5 * X[:, 1]
    model = fit_ols(X, y)
    assert model.ridge_applied
    np.testing.assert_allclose(predict(model, X), y, atol=1e-5)


@pytest.mark.parametrize("scale", [1.0, 1e4, 1e10, 1e100])
def test_ridge_fallback_keeps_its_weight_on_large_periodic_readings(scale):
    # a period-7 series makes its 26 lag columns rank 7; an absolute ridge of 1e-8
    # vanished in rounding beside squares of 1e4 and beyond, and the solve raised
    # LinAlgError: Singular matrix
    values = (1 + np.arange(200) % 7 / 10) * scale
    data = make_lag_matrix(values, LagSpec(5, 30))
    model = fit_ols(data.X, data.y)
    assert model.ridge_applied
    np.testing.assert_allclose(predict(model, data.X), data.y, rtol=1e-6)


def test_dimension_errors():
    with pytest.raises(ValidationError, match="rows"):
        fit_ols(np.zeros((5, 2)), np.zeros(4))
    with pytest.raises(ValidationError, match="at least"):
        fit_ols(np.zeros((2, 2)), np.zeros(2))


def test_values_beyond_the_overflow_bound_are_refused():
    # the ridge fallback's normal equations overflowed on values near 1e200
    n = 200
    bound = math.sqrt(np.finfo(np.float64).max / (2 * n))
    X = np.random.default_rng(5).uniform(-1.0, 1.0, size=(n, 2))
    X *= bound / np.abs(X).max()
    for bad_X, bad_y in [(X * 1.5, X[:, 0]), (X, X[:, 0] * 1.5), (np.full((n, 2), 1e200), np.full(n, 1e200))]:
        largest = max(np.abs(bad_X).max(), np.abs(bad_y).max())
        with pytest.raises(ValidationError) as error:
            fit_ols(bad_X, bad_y)
        assert str(error.value) == (
            f"cannot fit a linear model on values as large as |x| = {largest:.6g}: with {n} rows, "
            f"the normal equations overflow float64 beyond |x| = {bound:.6g}"
        )
    with pytest.raises(ValidationError, match="as large as \\|x\\| = nan"):
        fit_ols(X, np.where(np.arange(n) == 7, np.nan, X[:, 0]))
    # at the bound the fit goes through: y is the first column
    model = fit_ols(X, X[:, 0])
    np.testing.assert_allclose(model.coefficients, [1.0, 0.0], atol=1e-9)


def test_predict_arithmetic():
    model = LinearModel(intercept=1.0, coefficients=np.array([2.0]))
    assert predict(model, np.array([[3.0]]))[0] == pytest.approx(7.0)
    with pytest.raises(ValidationError, match="features"):
        predict(model, np.zeros((2, 3)))
