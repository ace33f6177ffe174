"""Lag features and leakage-free walk-forward splits.

A supervised row at source position t predicts values[t], one sensor's
reading, from its readings min_lag..max_lag seconds earlier, columns ordered
by ascending lag so fitted coefficients stay interpretable. Splits use an
expanding training window and are given as row boundaries: each fold trains
on every row before its test range, so a fold that leaks cannot be written
down. The remainder of n/(k+1) is absorbed into the first training window so
every test fold has the same size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


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


@dataclass(frozen=True)
class SupervisedSet:
    """Design matrix X (rows x lag count) and target y; row i's target is values[max_lag + i]."""

    X: np.ndarray
    y: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.y)


def make_lag_matrix(values, spec: LagSpec | None = None) -> SupervisedSet:
    """Build the lag-feature supervised set for one sensor's readings.

    Row for target position t holds values[t - min_lag] ... values[t - max_lag]
    (ascending lag order); valid targets are t in [max_lag, len - 1].
    """
    spec = spec or LagSpec()
    values = np.asarray(values, dtype=np.float64)
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
    return SupervisedSet(X=X, y=values[targets])


def walk_forward_splits(n_rows: int, k: int = 5) -> tuple[int, ...]:
    """Expanding-window time-series splits as k + 1 row boundaries b_0 < ... < b_k = n_rows.

    Fold i (1-based) trains on rows [0, b_{i-1}) and tests on [b_{i-1}, b_i).
    Test size t = floor(n_rows / (k + 1)) and b_i = n_rows - (k - i) * t, so
    training always precedes testing, the window expands and the test ranges
    tile the tail of the data.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if n_rows < k + 1:
        raise ValidationError(f"n_rows {n_rows} too small for k={k}; need >= {k + 1}")
    t = n_rows // (k + 1)
    return tuple(n_rows - (k - i) * t for i in range(k + 1))
