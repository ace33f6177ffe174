"""RMSE metric and the walk-forward evaluation harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import format_table
from ..errors import ValidationError
from ..features import LagSpec, make_lag_matrix, walk_forward_splits
from .ensemble import BoostHyperparams, BoostModel, ForestHyperparams, ForestModel, fit_boost, fit_forest
from .linear import LinearHyperparams, LinearModel, fit_ols

# kind -> (hyperparameter dataclass, fit(X, y, hyperparams, seed), model dataclass)
MODELS = {
    "linear": (LinearHyperparams, lambda X, y, hyperparams, seed: fit_ols(X, y), LinearModel),
    "forest": (ForestHyperparams, fit_forest, ForestModel),
    "boost": (BoostHyperparams, fit_boost, BoostModel),
}
MODEL_KINDS = tuple(MODELS)
AnyHyperparams = LinearHyperparams | ForestHyperparams | BoostHyperparams

KIND_LABELS = {
    "linear": "Linear Regression",
    "forest": "Random Forest",
    "boost": "Gradient Boosting",
}


def rmse(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Root mean square error: sqrt of the mean squared prediction error."""
    y = np.asarray(y, dtype=np.float64).ravel()
    y_hat = np.asarray(y_hat, dtype=np.float64).ravel()
    if len(y) == 0:
        raise ValidationError("rmse of empty vectors is undefined")
    if len(y) != len(y_hat):
        raise ValidationError(f"length mismatch: {len(y)} vs {len(y_hat)}")
    return float(np.sqrt(np.mean((y - y_hat) ** 2)))


@dataclass(frozen=True)
class EvalReport:
    model_kind: str
    per_split_rmse: tuple[float, ...]
    average_rmse: float

    def __post_init__(self):
        object.__setattr__(self, "per_split_rmse", tuple(self.per_split_rmse))
        if not self.per_split_rmse:
            raise ValidationError("report needs at least one split")
        mean = float(np.mean(self.per_split_rmse))
        if abs(self.average_rmse - mean) > 1e-9:
            raise ValidationError(
                f"average_rmse {self.average_rmse} is not the mean of the splits ({mean})"
            )


@dataclass(frozen=True)
class Hyperparams:
    """A hyperparameters file: one object per model kind, each optional."""

    linear: LinearHyperparams = LinearHyperparams()
    forest: ForestHyperparams = ForestHyperparams()
    boost: BoostHyperparams = BoostHyperparams()


def fit_model(kind: str, X: np.ndarray, y: np.ndarray, hyperparams: AnyHyperparams | None = None, seed: int = 0):
    """Fit one of the regressor kinds in MODELS.

    hyperparams is the kind's hyperparameter dataclass, or None for its defaults.
    """
    if kind not in MODELS:
        raise ValidationError(f"unknown model kind '{kind}'; expected one of {MODEL_KINDS}")
    cls, fit, _ = MODELS[kind]
    if hyperparams is None:
        hyperparams = cls()
    elif not isinstance(hyperparams, cls):
        raise ValidationError(f"{kind} hyperparameters must be {cls.__name__}, got {type(hyperparams).__name__}")
    return fit(X, y, hyperparams, seed)


def predict(model, X: np.ndarray) -> np.ndarray:
    """Uniform prediction contract over every model kind."""
    if getattr(model, "kind", None) not in MODELS:
        raise ValidationError(f"cannot predict with object of type {type(model).__name__}")
    return model.predict(X)


def evaluate_cv(
    series,
    lag_spec: LagSpec,
    k: int,
    model_kind: str,
    hyperparams: AnyHyperparams | None = None,
    seed: int = 0,
) -> EvalReport:
    """Walk-forward evaluation: fit a fresh model per fold, report test RMSE.

    The report has one RMSE per split plus their arithmetic mean, mirroring
    the shape of a per-split results table.
    """
    supervised = make_lag_matrix(series, lag_spec)
    plan = walk_forward_splits(supervised.n_rows, k)
    per_split = []
    for fold in plan.folds:
        tr, te = fold.train_indices, fold.test_indices
        model = fit_model(model_kind, supervised.X[tr], supervised.y[tr], hyperparams, seed)
        per_split.append(rmse(supervised.y[te], predict(model, supervised.X[te])))
    return EvalReport(
        model_kind=model_kind,
        per_split_rmse=tuple(per_split),
        average_rmse=float(np.mean(per_split)),
    )


def format_eval_table(reports: list[EvalReport]) -> str:
    """Aligned text table: one row per split plus an Average row."""
    if not reports:
        raise ValidationError("no reports to format")
    n_splits = len(reports[0].per_split_rmse)
    if any(len(r.per_split_rmse) != n_splits for r in reports):
        raise ValidationError("reports disagree on split count")
    headers = ["Split Number"] + [
        f"{KIND_LABELS[r.model_kind]} RMSE (kPa)" for r in reports
    ]
    rows = [[str(i + 1)] + [f"{r.per_split_rmse[i]:.2f}" for r in reports] for i in range(n_splits)]
    rows.append(["Average"] + [f"{r.average_rmse:.2f}" for r in reports])
    return format_table(headers, rows)
