"""Ordinary least squares with a ridge fallback for degenerate designs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated, ClassVar

import numpy as np

from ..errors import ValidationError
from .tree import as_rows, as_training

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
    coefficients: Annotated[np.ndarray, np.float64]
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
    deficient (condition number > COND_LIMIT) a diagonal ridge of RIDGE_EPS
    times the largest diagonal entry of the normal equations is added to them,
    so the ridge keeps its weight at any scale of the readings, and the result
    is flagged via ridge_applied.
    The normal equations sum n products of two inputs, so every |value| of X
    and y must be at most sqrt(float64 max / (2 * n)), which leaves half the
    range for rounding; NaN fails the check too.
    """
    X, y = as_training(X, y)
    n, p = X.shape
    if n < p + 1:
        raise ValidationError(f"need at least {p + 1} rows to fit {p} features, got {n}")
    bound = math.sqrt(np.finfo(np.float64).max / (2 * n))
    largest = float(np.maximum(np.abs(X).max(initial=0.0), np.abs(y).max()))  # NaN propagates
    if not largest <= bound:
        raise ValidationError(
            f"cannot fit a linear model on values as large as |x| = {largest:.6g}: with {n} rows, "
            f"the normal equations overflow float64 beyond |x| = {bound:.6g}"
        )

    A = np.column_stack([np.ones(n), X])
    beta, _, rank, sv = np.linalg.lstsq(A, y, rcond=None)
    cond = np.inf if sv[-1] == 0 else sv[0] / sv[-1]
    ridge_applied = False
    if rank < A.shape[1] or cond > COND_LIMIT:
        gram = A.T @ A
        gram += RIDGE_EPS * gram.diagonal().max() * np.eye(A.shape[1])
        beta = np.linalg.solve(gram, A.T @ y)
        ridge_applied = True
    return LinearModel(intercept=float(beta[0]), coefficients=beta[1:], ridge_applied=ridge_applied)
