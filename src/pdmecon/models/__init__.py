"""Forecast regressors: linear, random forest, gradient boosting."""

from .ensemble import (
    BOOST_DEFAULTS,
    FOREST_DEFAULTS,
    BoostModel,
    ForestModel,
    fit_boost,
    fit_forest,
    predict_boost,
    predict_forest,
)
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
from .io import LoadedModel, load_model, model_from_dict, model_to_dict
from .linear import LinearModel, fit_ols, predict_linear
from .tree import NodeView, RegressionTree, TreeParams, fit_tree, predict_tree

ForecastModel = LinearModel | ForestModel | BoostModel

__all__ = [
    "BOOST_DEFAULTS",
    "FOREST_DEFAULTS",
    "BoostModel",
    "EvalReport",
    "ForecastModel",
    "ForestModel",
    "Hyperparams",
    "KIND_LABELS",
    "LinearModel",
    "LoadedModel",
    "MODEL_KINDS",
    "NodeView",
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
    "predict_boost",
    "predict_forest",
    "predict_linear",
    "predict_tree",
    "rmse",
]
