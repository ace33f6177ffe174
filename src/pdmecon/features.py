"""Lag features and leakage-free walk-forward splits.

A supervised row at source position t predicts series[t] from the values
min_lag..max_lag seconds earlier, columns ordered by ascending lag so fitted
coefficients stay interpretable. Splits use an expanding training window; the
remainder of n/(k+1) is absorbed into the first training window so every test
fold has the same size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .ingest import Series


@dataclass(frozen=True)
class LagSpec:
    min_lag: int = 5
    max_lag: int = 30

    def __post_init__(self):
        if self.min_lag < 1 or self.max_lag < 1:
            raise ValidationError("lags must be positive")
        if self.min_lag > self.max_lag:
            raise ValidationError(f"min_lag {self.min_lag} > max_lag {self.max_lag}")

    @property
    def lags(self) -> np.ndarray:
        return np.arange(self.min_lag, self.max_lag + 1)

    @property
    def n_features(self) -> int:
        return self.max_lag - self.min_lag + 1

    def to_dict(self) -> dict:
        return {"min_lag": self.min_lag, "max_lag": self.max_lag}


@dataclass(frozen=True)
class SupervisedSet:
    """Design matrix X (rows x lag count), target y, and source-row indices."""

    X: np.ndarray
    y: np.ndarray
    origin_index: np.ndarray
    lags: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class Fold:
    train: tuple[int, int]  # [start, end)
    test: tuple[int, int]

    def __post_init__(self):
        if self.train[1] <= self.train[0] or self.test[1] <= self.test[0]:
            raise ValidationError(f"empty range in fold {self}")
        if self.train[1] > self.test[0]:
            raise ValidationError(f"fold leaks training rows into test: {self}")

    @property
    def train_indices(self) -> np.ndarray:
        return np.arange(*self.train)

    @property
    def test_indices(self) -> np.ndarray:
        return np.arange(*self.test)


@dataclass(frozen=True)
class SplitPlan:
    k: int
    folds: tuple[Fold, ...]

    def __post_init__(self):
        object.__setattr__(self, "folds", tuple(self.folds))
        if len(self.folds) != self.k:
            raise ValidationError(f"expected {self.k} folds, got {len(self.folds)}")
        for prev, cur in zip(self.folds, self.folds[1:]):
            if cur.test[0] != prev.test[1]:
                raise ValidationError("test ranges must be disjoint and consecutive")
            if cur.train[1] < prev.train[1]:
                raise ValidationError("training windows must expand")


def _series_values(series) -> np.ndarray:
    values = series.values if isinstance(series, Series) else series
    return np.asarray(values, dtype=np.float64)


def make_lag_matrix(series: Series | np.ndarray, spec: LagSpec | None = None) -> SupervisedSet:
    """Build the lag-feature supervised set for one sensor series.

    Row for target position t holds series[t - min_lag] ... series[t - max_lag]
    (ascending lag order); valid targets are t in [max_lag, len - 1].
    """
    spec = spec or LagSpec()
    values = _series_values(series)
    n = len(values)
    if n <= spec.max_lag:
        raise ValidationError(
            f"series of length {n} too short for max_lag {spec.max_lag}; "
            f"need at least {spec.max_lag + 1} samples"
        )
    targets = np.arange(spec.max_lag, n)
    X = np.empty((len(targets), spec.n_features), dtype=np.float64)
    for j, lag in enumerate(spec.lags):
        X[:, j] = values[targets - lag]
    return SupervisedSet(X=X, y=values[targets], origin_index=targets, lags=spec.lags)


def walk_forward_splits(n_rows: int, k: int = 5) -> SplitPlan:
    """Expanding-window time-series splits.

    Test size t = floor(n_rows / (k + 1)); fold i (1-based) trains on
    [0, n_rows - (k - i + 1) * t) and tests on the next t rows, so training
    always precedes testing and the test ranges tile the tail of the data.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if n_rows < k + 1:
        raise ValidationError(f"n_rows {n_rows} too small for k={k}; need >= {k + 1}")
    t = n_rows // (k + 1)
    folds = []
    for i in range(1, k + 1):
        train_end = n_rows - (k - i + 1) * t
        folds.append(Fold(train=(0, train_end), test=(train_end, train_end + t)))
    return SplitPlan(k=k, folds=tuple(folds))
