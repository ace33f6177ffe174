import json

import numpy as np
import pytest

from pdmecon.errors import ValidationError
from pdmecon.features import LagSpec
from pdmecon.models import (
    MODEL_KINDS,
    ForestHyperparams,
    fit_forest,
    fit_model,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    predict_tree,
)
from pdmecon.jsonio import plain, write_json


@pytest.fixture
def data():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(60, 3))
    y = X @ np.array([2.0, 0.0, -1.0]) + rng.normal(scale=0.2, size=60)
    return X, y


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_roundtrip_preserves_predictions(tmp_path, data, kind):
    X, y = data
    model = fit_model(kind, X, y, {"forest": {"n_trees": 4}, "boost": {"n_stages": 6}}.get(kind), seed=2)
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
    from pdmecon.models.io import _tree_from_dict

    tree = fit_tree(X, y)
    doc = plain(tree)
    clone = _tree_from_dict(doc)
    probes = np.linspace(0, n, 500).reshape(-1, 1)
    np.testing.assert_array_equal(predict_tree(clone, probes), predict_tree(tree, probes))


def v1_tree(root, n_features=2):
    return {"root": root, "params": {"max_depth": None, "min_samples_leaf": 1}, "n_features": n_features}


# x0 <= 0.5 -> 1.0; else x1 <= -1.0 -> 2.0, else 3.0
V1_SPLITS = {"f": 0, "t": 0.5, "l": {"v": 1.0}, "r": {"f": 1, "t": -1.0, "l": {"v": 2.0}, "r": {"v": 3.0}}}


def v1_document(kind, trees, n_features=2):
    tree_params = {"max_depth": None, "min_samples_leaf": 1}
    if kind == "forest":
        hyperparams = {"n_trees": len(trees), "bootstrap": True, **tree_params}
        params = {"trees": trees}
    else:
        hyperparams = {"n_stages": len(trees), "learning_rate": 0.5, **tree_params}
        params = {"init_value": 1.0, "stages": trees, "n_features": n_features}
    return {"schema_version": 1, "kind": kind, "seed": 4, "hyperparams": hyperparams, "params": params}


@pytest.mark.parametrize("kind, expected", [("forest", [3.0, 3.5, 4.0]), ("boost", [4.0, 4.5, 5.0])])
def test_v1_document_loads_and_predicts_as_its_v2_roundtrip(kind, expected):
    doc = v1_document(kind, [v1_tree(V1_SPLITS), v1_tree({"v": 5.0})])
    v1 = model_from_dict(doc).model
    probes = np.array([[0.0, 0.0], [1.0, -2.0], [1.0, 0.0]])
    np.testing.assert_array_equal(predict(v1, probes), expected)
    v2_doc = json.loads(json.dumps(model_to_dict(v1, seed=4)))
    assert v2_doc["schema_version"] == 2
    assert v2_doc["params"]["trees" if kind == "forest" else "stages"][0]["left"] == [1, -1, 3, -1, -1]
    np.testing.assert_array_equal(predict(model_from_dict(v2_doc).model, probes), expected)


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("kind, key, bad", [("forest", "trees", 1), ("boost", "stages", 0)])
def test_trees_must_share_the_model_width(version, kind, key, bad):
    doc = v1_document(kind, [v1_tree(V1_SPLITS), v1_tree(V1_SPLITS)])
    if version == 2:
        doc = model_to_dict(model_from_dict(doc).model)
    doc["params"][key][bad]["n_features"] = 3
    with pytest.raises(ValidationError, match=rf"model\.params\.{key}\[{bad}\]\.n_features"):
        model_from_dict(doc)


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("kind, count", [("forest", "n_trees"), ("boost", "n_stages")])
def test_tree_count_must_match_the_hyperparameters(version, kind, count):
    doc = v1_document(kind, [v1_tree(V1_SPLITS), v1_tree(V1_SPLITS)])
    if version == 2:
        doc = model_to_dict(model_from_dict(doc).model)
    doc["hyperparams"][count] = 3
    with pytest.raises(ValidationError, match=rf"model\.hyperparams\.{count} is 3, but .* holds 2 trees"):
        model_from_dict(doc)
