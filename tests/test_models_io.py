import json

import numpy as np
import pytest

from pdmecon.errors import ValidationError
from pdmecon.features import LagSpec
from pdmecon.models import (
    fit_boost,
    fit_forest,
    fit_ols,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
)
from pdmecon.jsonio import write_json


@pytest.fixture
def data():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(60, 3))
    y = X @ np.array([2.0, 0.0, -1.0]) + rng.normal(scale=0.2, size=60)
    return X, y


@pytest.mark.parametrize("kind", ["linear", "forest", "boost"])
def test_roundtrip_preserves_predictions(tmp_path, data, kind):
    X, y = data
    if kind == "linear":
        model = fit_ols(X, y)
    elif kind == "forest":
        model = fit_forest(X, y, n_trees=4, seed=2)
    else:
        model = fit_boost(X, y, n_stages=6, seed=2)
    path = tmp_path / "model.json"
    write_json(path, model_to_dict(model, seed=2, lag_spec=LagSpec(1, 3)))
    loaded = load_model(path)
    assert loaded.kind == kind
    assert loaded.lag_spec == LagSpec(1, 3)
    probes = np.random.default_rng(5).normal(size=(40, 3))
    np.testing.assert_array_equal(predict(loaded.model, probes), predict(model, probes))


def test_serialized_document_is_stable(data):
    X, y = data
    a = model_to_dict(fit_forest(X, y, n_trees=3, seed=7), seed=7)
    b = model_to_dict(fit_forest(X, y, n_trees=3, seed=7), seed=7)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["schema_version"] == 1


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
    from pdmecon.models.io import _tree_from_dict, _tree_to_dict

    tree = fit_tree(X, y)
    doc = _tree_to_dict(tree)
    clone = _tree_from_dict(doc)
    probes = np.linspace(0, n, 500).reshape(-1, 1)
    np.testing.assert_array_equal(predict(clone, probes), predict(tree, probes))
