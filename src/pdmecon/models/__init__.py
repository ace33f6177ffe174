"""Forecast regressors: linear, random forest, gradient boosting.

Every model carries its `kind`, `hyperparams` and `n_features` and answers `predict(X)`.
"""

from .ensemble import BoostHyperparams, BoostModel, ForestHyperparams, ForestModel, fit_boost, fit_forest
from .evaluate import (
    KIND_LABELS,
    MODEL_KINDS,
    EvalReport,
    Hyperparams,
    evaluate_cv,
    fit_model,
    format_eval_table,
    predict,
    rmse,
)
from .io import load_model, model_from_dict, model_to_dict
from .linear import LinearHyperparams, LinearModel, fit_ols
from .tree import RegressionTree, TreeParams, fit_tree, predict_tree

__all__ = [
    "BoostHyperparams",
    "BoostModel",
    "EvalReport",
    "ForestHyperparams",
    "ForestModel",
    "Hyperparams",
    "KIND_LABELS",
    "LinearHyperparams",
    "LinearModel",
    "MODEL_KINDS",
    "RegressionTree",
    "TreeParams",
    "evaluate_cv",
    "fit_boost",
    "fit_forest",
    "fit_model",
    "fit_ols",
    "fit_tree",
    "format_eval_table",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "predict",
    "predict_tree",
    "rmse",
]
