"""Bagged forests and squared-loss gradient boosting over the regression tree.

Every tree considers all features at every split. Per-tree randomness comes
from a stream derived as default_rng((seed, tree_index)), so fitting order and
worker count cannot change the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import ValidationError
from .tree import RegressionTree, TreeParams, fit_tree, predict_tree, presort, stack_trees, walk_stacked

FOREST_DEFAULTS = TreeParams(max_depth=None, min_samples_leaf=1)
BOOST_DEFAULTS = TreeParams(max_depth=3, min_samples_leaf=1)


@dataclass
class ForestModel:
    trees: list[RegressionTree]
    bootstrap: bool
    seed: int
    params: TreeParams

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def n_features(self) -> int:
        return self.trees[0].n_features

    @cached_property
    def stacked(self) -> tuple:
        """The trees as one node array for walk_stacked, built on first use."""
        return stack_trees(self.trees)


@dataclass
class BoostModel:
    init_value: float
    stages: list[RegressionTree]
    learning_rate: float
    seed: int
    params: TreeParams
    n_features: int
    # training RMSE after each stage; non-increasing under squared loss
    stage_train_rmse: list[float] = field(default_factory=list)

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @cached_property
    def stacked(self) -> tuple:
        """The stages as one node array for walk_stacked, built on first use."""
        return stack_trees(self.stages)


def fit_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_trees: int = 100,
    params: TreeParams | None = None,
    seed: int = 0,
    bootstrap: bool = True,
) -> ForestModel:
    """Fit n_trees regression trees, each on a bootstrap resample of the rows.

    bootstrap=False fits every tree on the full data (test hook: all trees are
    then identical and the forest collapses to a single tree).
    """
    params = params or FOREST_DEFAULTS
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    if n_trees < 1:
        raise ValidationError("n_trees must be >= 1")
    n = len(y)
    presorted = None if bootstrap else presort(X)
    trees = []
    for i in range(n_trees):
        if bootstrap:
            rng = np.random.default_rng((seed, i))
            idx = rng.integers(0, n, size=n)
            trees.append(fit_tree(X[idx], y[idx], params))
        else:
            trees.append(fit_tree(X, y, params, presorted=presorted))
    return ForestModel(trees=trees, bootstrap=bootstrap, seed=seed, params=params)


def _rows(X: np.ndarray, n_features: int) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != n_features:
        raise ValidationError(f"model was trained on {n_features} features, got {X.shape[1]}")
    return X


def predict_forest(model: ForestModel, X: np.ndarray) -> np.ndarray:
    return walk_stacked(model.stacked, _rows(X, model.n_features)).mean(axis=0)


def fit_boost(
    X: np.ndarray,
    y: np.ndarray,
    n_stages: int = 100,
    learning_rate: float = 0.1,
    params: TreeParams | None = None,
    seed: int = 0,
) -> BoostModel:
    """Gradient boosting under squared loss.

    Stage m fits a tree to the residuals of the running prediction F and adds
    learning_rate * tree; with squared loss this makes the recorded per-stage
    training RMSE non-increasing. No row subsampling is performed, so the seed
    only tags the model for provenance.
    """
    params = params or BOOST_DEFAULTS
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    if n_stages < 1:
        raise ValidationError("n_stages must be >= 1")
    if not 0.0 < learning_rate <= 1.0:
        raise ValidationError(f"learning_rate must be in (0, 1], got {learning_rate}")

    init_value = float(y.mean())
    F = np.full(len(y), init_value)
    presorted = presort(X)
    stages = []
    stage_rmse = []
    for _ in range(n_stages):
        tree = fit_tree(X, y - F, params, presorted=presorted)
        F = F + learning_rate * predict_tree(tree, X)
        stages.append(tree)
        stage_rmse.append(float(np.sqrt(np.mean((y - F) ** 2))))
    return BoostModel(
        init_value=init_value,
        stages=stages,
        learning_rate=learning_rate,
        seed=seed,
        params=params,
        n_features=X.shape[1],
        stage_train_rmse=stage_rmse,
    )


def predict_boost(model: BoostModel, X: np.ndarray) -> np.ndarray:
    X = _rows(X, model.n_features)
    out = np.full(X.shape[0], model.init_value)
    if model.stages:
        for pred in walk_stacked(model.stacked, X):
            out = out + model.learning_rate * pred
    return out
