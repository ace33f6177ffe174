import numpy as np
import pytest

from pdmecon.errors import ValidationError
from pdmecon.features import LagSpec, make_lag_matrix, walk_forward_splits


def brute_force_lag_rows(series, min_lag, max_lag):
    rows = []
    for t in range(max_lag, len(series)):
        rows.append(([series[t - lag] for lag in range(min_lag, max_lag + 1)], series[t], t))
    return rows


def test_shape_for_length_100_default_lags():
    series = np.arange(100.0)
    sup = make_lag_matrix(series, LagSpec(5, 30))
    assert sup.X.shape == (70, 26)
    assert sup.y.shape == (70,)
    assert len(brute_force_lag_rows(series, 5, 30)) == 70


def test_definition_unrolled_small_case():
    series = np.arange(10.0)
    spec = LagSpec(1, 2)
    sup = make_lag_matrix(series, spec)
    assert sup.X.shape == (8, 2)
    # row for t=2 holds [series[1], series[0]]; row i targets t = max_lag + i
    row = 2 - spec.max_lag
    np.testing.assert_array_equal(sup.X[row], [1.0, 0.0])
    assert sup.y[row] == 2.0


def test_constant_series():
    sup = make_lag_matrix(np.full(40, 7.5), LagSpec(2, 4))
    assert np.all(sup.X == 7.5)
    assert np.all(sup.y == 7.5)


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(11)
    series = rng.normal(size=60)
    spec = LagSpec(3, 9)
    sup = make_lag_matrix(series, spec)
    expected = brute_force_lag_rows(series, 3, 9)
    assert sup.n_rows == len(expected)
    for i, (feats, target, origin) in enumerate(expected):
        np.testing.assert_array_equal(sup.X[i], feats)
        assert sup.y[i] == target
        assert spec.max_lag + i == origin  # row i targets t = max_lag + i


def test_lag_windows_never_reach_forward():
    series = np.random.default_rng(0).normal(size=80)
    spec = LagSpec(5, 30)
    sup = make_lag_matrix(series, spec)
    for i in range(sup.n_rows):
        origin = spec.max_lag + i
        assert sup.y[i] == series[origin]
        assert (origin - spec.lags).max() < origin  # newest lag strictly precedes the target
        np.testing.assert_array_equal(sup.X[i], series[origin - spec.lags])


def test_too_short_series_error():
    with pytest.raises(ValidationError, match="31"):
        make_lag_matrix(np.arange(30.0), LagSpec(5, 30))


def test_lag_spec_validation():
    with pytest.raises(ValidationError):
        LagSpec(0, 5)
    with pytest.raises(ValidationError):
        LagSpec(6, 5)
    assert LagSpec(5, 30).n_features == 26


def folds(bounds):
    """Each fold's (train, test) row ranges: train [0, a), test [a, b) for consecutive boundaries a, b."""
    return [((0, a), (a, b)) for a, b in zip(bounds, bounds[1:])]


def test_enumerated_plan_n12_k5():
    bounds = walk_forward_splits(12, 5)
    assert bounds == (2, 4, 6, 8, 10, 12)
    expected = [
        ((0, 2), (2, 4)),
        ((0, 4), (4, 6)),
        ((0, 6), (6, 8)),
        ((0, 8), (8, 10)),
        ((0, 10), (10, 12)),
    ]
    assert folds(bounds) == expected


def test_enumerated_plan_n6_k5():
    bounds = walk_forward_splits(6, 5)
    assert [train[1] - train[0] for train, _ in folds(bounds)] == [1, 2, 3, 4, 5]
    assert all(test[1] - test[0] == 1 for _, test in folds(bounds))


def test_split_properties_random_sweep():
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(k + 1, 500))
        bounds = walk_forward_splits(n, k)
        t = n // (k + 1)
        assert len(bounds) == k + 1
        assert all(type(b) is int for b in bounds)
        assert bounds[0] >= t  # the first training window holds at least one test fold's rows
        assert all(b - a == t for a, b in zip(bounds, bounds[1:]))  # equal test folds; t >= 1, so training expands
        assert bounds[-1] == n  # coverage ends at n_rows


def test_split_too_small_error():
    with pytest.raises(ValidationError):
        walk_forward_splits(5, 5)


def test_train_targets_precede_test_targets():
    series = np.random.default_rng(1).normal(size=120)
    spec = LagSpec(5, 30)
    sup = make_lag_matrix(series, spec)
    bounds = walk_forward_splits(sup.n_rows, 5)
    for a, b in zip(bounds, bounds[1:]):
        train_origins = spec.max_lag + np.arange(a)
        test_origins = spec.max_lag + np.arange(a, b)
        np.testing.assert_array_equal(sup.y[:a], series[train_origins])
        np.testing.assert_array_equal(sup.y[a:b], series[test_origins])
        assert train_origins.max() < test_origins.min()
