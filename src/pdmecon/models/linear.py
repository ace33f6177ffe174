"""Ordinary least squares with a ridge fallback for degenerate designs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..errors import ValidationError
from .tree import as_rows

RIDGE_EPS = 1e-8
# Condition numbers beyond this are treated as near rank-deficient; constant
# lag columns (stuck-at sensors) land here.
COND_LIMIT = 1e10


@dataclass(frozen=True)
class LinearHyperparams:
    """Ordinary least squares has no hyperparameters."""


@dataclass(frozen=True)
class LinearModel:
    intercept: float
    coefficients: np.ndarray
    ridge_applied: bool = False

    kind: ClassVar[str] = "linear"
    hyperparams: ClassVar[LinearHyperparams] = LinearHyperparams()

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", np.asarray(self.coefficients, dtype=np.float64)
        )

    @property
    def n_features(self) -> int:
        return len(self.coefficients)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.intercept + as_rows(X, self.n_features) @ self.coefficients


def fit_ols(X: np.ndarray, y: np.ndarray) -> LinearModel:
    """Fit y ~ intercept + X @ coefficients by least squares.

    Solved through an SVD-backed factorization. If the design is near rank
    deficient (condition number > COND_LIMIT) a diagonal ridge of RIDGE_EPS is
    added to the normal equations and the result is flagged via ridge_applied.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    n, p = X.shape
    if n != len(y):
        raise ValidationError(f"X has {n} rows but y has {len(y)} entries")
    if n < p + 1:
        raise ValidationError(f"need at least {p + 1} rows to fit {p} features, got {n}")

    A = np.column_stack([np.ones(n), X])
    beta, _, rank, sv = np.linalg.lstsq(A, y, rcond=None)
    cond = np.inf if sv[-1] == 0 else sv[0] / sv[-1]
    ridge_applied = False
    if rank < A.shape[1] or cond > COND_LIMIT:
        gram = A.T @ A + RIDGE_EPS * np.eye(A.shape[1])
        beta = np.linalg.solve(gram, A.T @ y)
        ridge_applied = True
    return LinearModel(intercept=float(beta[0]), coefficients=beta[1:], ridge_applied=ridge_applied)
