"""Bagged forests and squared-loss gradient boosting over the regression tree.

Every tree considers all features at every split. Per-tree randomness comes
from a stream derived as default_rng((seed, tree_index)), so fitting order and
worker count cannot change the result. The hyperparameter classes
(ForestHyperparams, BoostHyperparams) check their own ranges on construction,
so a fitted and a loaded model pass the same checks. Each model keeps the
hyperparameters it was fitted with and its seed, and checks on construction
that it holds n_trees / n_stages trees, all as wide as the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import ClassVar

import numpy as np

from ..errors import ValidationError
from .tree import RegressionTree, TreeParams, as_rows, fit_tree, predict_tree, presort, stack_trees, walk_stacked


@dataclass(frozen=True)
class ForestHyperparams:
    n_trees: int = 100
    max_depth: int | None = None
    min_samples_leaf: int = 1
    bootstrap: bool = True

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValidationError("n_trees must be >= 1")
        TreeParams(self.max_depth, self.min_samples_leaf)  # checks both


@dataclass(frozen=True)
class BoostHyperparams:
    n_stages: int = 100
    learning_rate: float = 0.1
    max_depth: int | None = 3
    min_samples_leaf: int = 1

    def __post_init__(self):
        if self.n_stages < 1:
            raise ValidationError("n_stages must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValidationError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        TreeParams(self.max_depth, self.min_samples_leaf)  # checks both


def _check_trees(trees: list[RegressionTree], name: str, count: int, count_name: str, n_features: int) -> None:
    if len(trees) != count:
        raise ValidationError(f"{name} holds {len(trees)} trees, but hyperparams.{count_name} is {count}")
    for i, tree in enumerate(trees):
        if tree.n_features != n_features:
            raise ValidationError(
                f"{name}[{i}].n_features is {tree.n_features}, but the model has {n_features} features"
            )


@dataclass
class ForestModel:
    trees: list[RegressionTree]
    hyperparams: ForestHyperparams
    seed: int

    kind: ClassVar[str] = "forest"

    def __post_init__(self):
        if not self.trees:
            raise ValidationError("trees must hold at least one tree")
        _check_trees(self.trees, "trees", self.hyperparams.n_trees, "n_trees", self.n_features)

    @property
    def n_features(self) -> int:
        return self.trees[0].n_features

    @cached_property
    def stacked(self) -> tuple:
        """The trees as one node array for walk_stacked, built on first use."""
        return stack_trees(self.trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        # summed tree by tree, so a row sums the same alone as among many (mean(axis=0) does not)
        preds = walk_stacked(self.stacked, as_rows(X, self.n_features))
        return reduce(np.add, preds) / len(preds)


@dataclass
class BoostModel:
    init_value: float
    stages: list[RegressionTree]
    hyperparams: BoostHyperparams
    seed: int
    n_features: int
    # training RMSE after each stage; non-increasing under squared loss
    stage_train_rmse: list[float] = field(default_factory=list)

    kind: ClassVar[str] = "boost"

    def __post_init__(self):
        _check_trees(self.stages, "stages", self.hyperparams.n_stages, "n_stages", self.n_features)

    @cached_property
    def stacked(self) -> tuple:
        """The stages as one node array for walk_stacked, built on first use."""
        return stack_trees(self.stages)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = as_rows(X, self.n_features)
        out = np.full(X.shape[0], self.init_value)
        for pred in walk_stacked(self.stacked, X):
            out = out + self.hyperparams.learning_rate * pred
        return out


def fit_forest(
    X: np.ndarray,
    y: np.ndarray,
    hyperparams: ForestHyperparams = ForestHyperparams(),
    seed: int = 0,
) -> ForestModel:
    """Fit n_trees regression trees, each on a bootstrap resample of the rows.

    With bootstrap=False every tree is fitted on the full data, so all trees
    are identical and share one presort of X.
    """
    hp = hyperparams
    params = TreeParams(hp.max_depth, hp.min_samples_leaf)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    n = len(y)
    presorted = None if hp.bootstrap else presort(X)
    trees = []
    for i in range(hp.n_trees):
        if hp.bootstrap:
            rng = np.random.default_rng((seed, i))
            idx = rng.integers(0, n, size=n)
            trees.append(fit_tree(X[idx], y[idx], params))
        else:
            trees.append(fit_tree(X, y, params, presorted=presorted))
    return ForestModel(trees=trees, hyperparams=hp, seed=seed)


def fit_boost(
    X: np.ndarray,
    y: np.ndarray,
    hyperparams: BoostHyperparams = BoostHyperparams(),
    seed: int = 0,
) -> BoostModel:
    """Gradient boosting under squared loss.

    Stage m fits a tree to the residuals of the running prediction F and adds
    learning_rate * tree; with squared loss this makes the recorded per-stage
    training RMSE non-increasing. No row subsampling is performed, so the seed
    only tags the model for provenance.
    """
    hp = hyperparams
    params = TreeParams(hp.max_depth, hp.min_samples_leaf)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()

    init_value = float(y.mean())
    F = np.full(len(y), init_value)
    presorted = presort(X)
    stages = []
    stage_rmse = []
    for _ in range(hp.n_stages):
        tree = fit_tree(X, y - F, params, presorted=presorted)
        F = F + hp.learning_rate * predict_tree(tree, X)
        stages.append(tree)
        stage_rmse.append(float(np.sqrt(np.mean((y - F) ** 2))))
    return BoostModel(
        init_value=init_value,
        stages=stages,
        hyperparams=hp,
        seed=seed,
        n_features=X.shape[1],
        stage_train_rmse=stage_rmse,
    )
