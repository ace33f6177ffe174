import json

import numpy as np
import pytest

from pdmecon.errors import ValidationError
from pdmecon.models import (
    BoostHyperparams,
    BoostModel,
    ForestHyperparams,
    fit_boost,
    fit_forest,
    fit_tree,
    model_to_dict,
    predict,
    predict_tree,
)


@pytest.fixture
def data():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(80, 4))
    y = X @ np.array([1.0, -2.0, 0.5, 0.0]) + rng.normal(scale=0.3, size=80)
    return X, y


def test_single_tree_without_bootstrap_equals_tree(data):
    X, y = data
    forest = fit_forest(X, y, ForestHyperparams(n_trees=1, bootstrap=False), seed=0)
    tree = fit_tree(X, y)
    np.testing.assert_array_equal(predict(forest, X), predict_tree(tree, X))


def test_forest_prediction_is_mean_of_trees(data):
    X, y = data
    forest = fit_forest(X, y, ForestHyperparams(n_trees=12), seed=5)
    probes = np.random.default_rng(9).normal(size=(200, 4))
    per_tree = np.stack([predict_tree(t, probes) for t in forest.trees])
    np.testing.assert_allclose(predict(forest, probes), per_tree.mean(axis=0), atol=1e-12)


def test_forest_seed_determinism(data):
    X, y = data
    a = fit_forest(X, y, ForestHyperparams(n_trees=5), seed=33)
    b = fit_forest(X, y, ForestHyperparams(n_trees=5), seed=33)
    assert json.dumps(model_to_dict(a), sort_keys=True) == json.dumps(model_to_dict(b), sort_keys=True)


def test_forest_errors(data):
    X, y = data
    with pytest.raises(ValidationError, match="n_trees"):
        fit_forest(X, y, ForestHyperparams(n_trees=0))


def test_boost_zero_stage_model_predicts_init():
    model = BoostModel(
        init_value=10.0,
        stages=[],
        hyperparams=BoostHyperparams(learning_rate=0.1, max_depth=3),
        seed=0,
        n_features=2,
    )
    np.testing.assert_array_equal(predict(model, np.zeros((3, 2))), [10.0, 10.0, 10.0])


def test_boost_memorizes_in_one_stage_with_unit_rate():
    rng = np.random.default_rng(12)
    X = rng.permutation(30).astype(float).reshape(-1, 1)
    y = rng.normal(size=30)
    model = fit_boost(X, y, BoostHyperparams(n_stages=1, learning_rate=1.0, max_depth=None))
    assert model.stage_train_rmse[-1] == pytest.approx(0.0, abs=1e-12)


def test_boost_training_rmse_monotone(data):
    X, y = data
    model = fit_boost(X, y, BoostHyperparams(n_stages=40, learning_rate=0.1))
    seq = np.array(model.stage_train_rmse)
    assert np.all(np.diff(seq) <= 1e-12)


def test_boost_param_errors(data):
    X, y = data
    with pytest.raises(ValidationError, match="n_stages"):
        fit_boost(X, y, BoostHyperparams(n_stages=0))
    with pytest.raises(ValidationError, match="learning_rate"):
        fit_boost(X, y, BoostHyperparams(learning_rate=0.0))
    with pytest.raises(ValidationError, match="learning_rate"):
        fit_boost(X, y, BoostHyperparams(learning_rate=1.5))


def test_boost_first_stage_rmse_not_worse_than_mean_model(data):
    X, y = data
    model = fit_boost(X, y, BoostHyperparams(n_stages=1, learning_rate=0.1))
    baseline = float(np.sqrt(np.mean((y - y.mean()) ** 2)))
    assert model.stage_train_rmse[0] <= baseline + 1e-12
