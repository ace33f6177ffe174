import json
from pathlib import Path

import numpy as np
import pytest

import pdmecon
from pdmecon.cli import main
from pdmecon.errors import ValidationError
from pdmecon.features import LagSpec
from pdmecon.models import (
    MODEL_KINDS,
    BoostHyperparams,
    ForestHyperparams,
    RegressionTree,
    fit_forest,
    fit_model,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    predict_tree,
)
from pdmecon.jsonio import from_dict, plain, write_json


@pytest.fixture
def data():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(60, 3))
    y = X @ np.array([2.0, 0.0, -1.0]) + rng.normal(scale=0.2, size=60)
    return X, y


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_roundtrip_preserves_predictions(tmp_path, data, kind):
    X, y = data
    hyperparams = {"forest": ForestHyperparams(n_trees=4), "boost": BoostHyperparams(n_stages=6)}.get(kind)
    model = fit_model(kind, X, y, hyperparams, seed=2)
    doc = model_to_dict(model, seed=2, lag_spec=LagSpec(1, 3))
    path = tmp_path / "model.json"
    write_json(path, doc)
    loaded = load_model(path)
    assert loaded.model.kind == kind
    assert loaded.lag_spec == LagSpec(1, 3)
    assert model_to_dict(loaded.model, seed=2, lag_spec=loaded.lag_spec) == doc
    probes = np.random.default_rng(5).normal(size=(40, 3))
    np.testing.assert_array_equal(predict(loaded.model, probes), predict(model, probes))


def test_serialized_document_is_stable(data):
    X, y = data
    a = model_to_dict(fit_forest(X, y, ForestHyperparams(n_trees=3), seed=7), seed=7)
    b = model_to_dict(fit_forest(X, y, ForestHyperparams(n_trees=3), seed=7), seed=7)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["schema_version"] == 2


def test_bad_documents_rejected(tmp_path):
    with pytest.raises(ValidationError, match="schema_version"):
        model_from_dict({"kind": "linear"})
    with pytest.raises(ValidationError, match="kind"):
        model_from_dict({"schema_version": 1, "kind": "mystery"})
    with pytest.raises(ValidationError, match="not found"):
        load_model(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    with pytest.raises(ValidationError, match="JSON"):
        load_model(bad)


def test_deep_tree_roundtrip():
    # monotone data grows a long chain; the iterative walkers must not recurse
    n = 3000
    X = np.arange(n, dtype=float).reshape(-1, 1)
    y = np.arange(n, dtype=float) ** 1.5
    from pdmecon.models import fit_tree

    tree = fit_tree(X, y)
    clone = from_dict(RegressionTree, plain(tree), "tree")
    probes = np.linspace(0, n, 500).reshape(-1, 1)
    np.testing.assert_array_equal(predict_tree(clone, probes), predict_tree(tree, probes))


# x0 <= 0.5 -> 1.0; else x1 <= -1.0 -> 2.0, else 3.0
SPLITS = {
    "feature": [0, -1, 1, -1, -1],
    "threshold": [0.5, 0.0, -1.0, 0.0, 0.0],
    "left": [1, -1, 3, -1, -1],
    "right": [2, -1, 4, -1, -1],
    "value": [2.0, 1.0, 2.5, 2.0, 3.0],
    "params": {"max_depth": None, "min_samples_leaf": 1},
    "n_features": 2,
}

# one leaf splits on no feature, so it is a valid tree at any width
LEAF = {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1], "value": [5.0], "params": SPLITS["params"]}


def document(kind, trees, n_features=2):
    tree_params = {"max_depth": None, "min_samples_leaf": 1}
    if kind == "forest":
        hyperparams = {"n_trees": len(trees), "bootstrap": True, **tree_params}
        params = {"trees": trees}
    else:
        hyperparams = {"n_stages": len(trees), "learning_rate": 0.5, **tree_params}
        params = {"init_value": 1.0, "stages": trees, "n_features": n_features}
    return {"schema_version": 2, "kind": kind, "seed": 4, "hyperparams": hyperparams, "params": params}


def test_version_1_document_exits_1_asking_to_retrain(tmp_path, capsys):
    # the retired format: trees as nested {"f", "t", "l", "r"} / {"v"} dicts
    v1_tree = {"root": {"f": 0, "t": 0.5, "l": {"v": 1.0}, "r": {"v": 2.0}}, "params": {}, "n_features": 2}
    doc = {**document("forest", [v1_tree]), "schema_version": 1}
    path = tmp_path / "model.json"
    write_json(path, doc)
    scenario = Path(pdmecon.__file__).parent / "data" / "scenario2_avoid_breakdown.json"
    argv = ["simulate", "--scenario", str(scenario), "--model", str(path), "--seed", "1", "--out-dir", str(tmp_path)]
    assert main(argv) == 1
    assert "model.schema_version is 1; only version 2 is read, so retrain the model" in capsys.readouterr().err


@pytest.mark.parametrize("version", [0, 3, -1])
def test_unknown_schema_version_is_not_told_to_retrain(version):
    with pytest.raises(ValidationError, match=r"^model\.schema_version must be 1 or 2, got ") as info:
        model_from_dict({**document("forest", [SPLITS]), "schema_version": version})
    assert "retrain" not in str(info.value)


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("kind, key, bad", [("forest", "trees", 1), ("boost", "stages", 0)])
def test_trees_must_share_the_model_width(width, kind, key, bad):
    wide = {**SPLITS, "n_features": 3}
    doc = document(kind, [wide, wide], n_features=3)
    model_from_dict(doc)
    doc["params"][key][bad] = {**LEAF, "n_features": width}
    with pytest.raises(ValidationError, match=rf"model\.params: {key}\[{bad}\]\.n_features is {width}, but"):
        model_from_dict(doc)


@pytest.mark.parametrize("held", [1, 2])
@pytest.mark.parametrize("kind, count", [("forest", "n_trees"), ("boost", "n_stages")])
def test_tree_count_must_match_the_hyperparameters(held, kind, count):
    doc = document(kind, [SPLITS] * held)
    model_from_dict(doc)
    doc["hyperparams"][count] = 3
    with pytest.raises(ValidationError, match=rf"model\.params: .* holds {held} trees, but hyperparams\.{count} is 3"):
        model_from_dict(doc)


def test_boost_document_without_stages_is_refused():
    doc = document("boost", [])
    with pytest.raises(ValidationError, match=r"n_stages must be >= 1"):
        model_from_dict(doc)
