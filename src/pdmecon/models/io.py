"""Versioned JSON serialization for trained models.

Trees serialize as nested {"f", "t", "l", "r"} / {"v"} dicts; the walkers are
iterative because unlimited-depth trees can exceed the recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal

from ..errors import ValidationError
from ..features import LagSpec
from ..jsonio import from_dict, load_json
from .ensemble import BoostModel, ForestModel
from .evaluate import BoostHyperparams, ForestHyperparams
from .linear import LinearModel
from .tree import RegressionTree, TreeNode, TreeParams

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class LoadedModel:
    model: object
    kind: str
    seed: int
    lag_spec: LagSpec | None


def _tree_to_dict(tree: RegressionTree) -> dict:
    wrapper: dict = {}
    stack = [(tree.root, wrapper, "root")]
    while stack:
        node, holder, key = stack.pop()
        if node.is_leaf:
            holder[key] = {"v": node.value}
        else:
            encoded: dict = {"f": node.feature, "t": node.threshold}
            holder[key] = encoded
            stack.append((node.left, encoded, "l"))
            stack.append((node.right, encoded, "r"))
    return {
        "root": wrapper["root"],
        "params": tree.params.to_dict(),
        "n_features": tree.n_features,
    }


@dataclass(frozen=True)
class _TreeDoc:
    root: dict
    params: TreeParams
    n_features: int


@dataclass(frozen=True)
class _Leaf:
    v: float


@dataclass(frozen=True)
class _Split:
    f: int
    t: float
    l: dict  # noqa: E741 - the serialized node keys
    r: dict


def _tree_from_dict(doc, what: str = "tree") -> RegressionTree:
    tree = from_dict(_TreeDoc, doc, what)
    root = TreeNode()
    stack = [(tree.root, root, f"{what}.root")]
    while stack:
        encoded, node, where = stack.pop()
        if isinstance(encoded, dict) and "v" in encoded:
            node.value = from_dict(_Leaf, encoded, where).v
            continue
        split = from_dict(_Split, encoded, where)
        if not 0 <= split.f < tree.n_features:
            raise ValidationError(f"{where}.f {split.f} is not a feature index below {tree.n_features}")
        node.feature, node.threshold = split.f, split.t
        node.left, node.right = TreeNode(), TreeNode()
        stack.append((split.l, node.left, f"{where}.l"))
        stack.append((split.r, node.right, f"{where}.r"))
    return RegressionTree(root=root, params=tree.params, n_features=tree.n_features)


def model_to_dict(model, seed: int = 0, lag_spec: LagSpec | None = None) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "seed": seed}
    if lag_spec is not None:
        doc["lag_spec"] = lag_spec.to_dict()
    if isinstance(model, LinearModel):
        doc["kind"] = "linear"
        doc["hyperparams"] = {}
        doc["params"] = {
            "intercept": model.intercept,
            "coefficients": [float(c) for c in model.coefficients],
            "ridge_applied": model.ridge_applied,
        }
    elif isinstance(model, ForestModel):
        doc["kind"] = "forest"
        doc["seed"] = model.seed
        doc["hyperparams"] = {
            "n_trees": model.n_trees,
            "bootstrap": model.bootstrap,
            **model.params.to_dict(),
        }
        doc["params"] = {"trees": [_tree_to_dict(t) for t in model.trees]}
    elif isinstance(model, BoostModel):
        doc["kind"] = "boost"
        doc["seed"] = model.seed
        doc["hyperparams"] = {
            "n_stages": model.n_stages,
            "learning_rate": model.learning_rate,
            **model.params.to_dict(),
        }
        doc["params"] = {
            "init_value": model.init_value,
            "stages": [_tree_to_dict(t) for t in model.stages],
            "stage_train_rmse": list(model.stage_train_rmse),
            "n_features": model.n_features,
        }
    else:
        raise ValidationError(f"cannot serialize model of type {type(model).__name__}")
    return doc


@dataclass(frozen=True)
class _ModelDoc:
    schema_version: Literal[1]
    kind: str
    seed: int = 0
    lag_spec: LagSpec | None = None
    hyperparams: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class _LinearParams:
    intercept: float
    coefficients: tuple[float, ...]
    ridge_applied: bool = False


@dataclass(frozen=True)
class _ForestParams:
    trees: tuple[dict, ...]


@dataclass(frozen=True)
class _BoostParams:
    init_value: float
    stages: tuple[dict, ...]
    n_features: int
    stage_train_rmse: tuple[float, ...] = ()


def model_from_dict(doc) -> LoadedModel:
    doc = from_dict(_ModelDoc, doc, "model")
    if doc.kind == "linear":
        p = from_dict(_LinearParams, doc.params, "model.params")
        model = LinearModel(p.intercept, p.coefficients, p.ridge_applied)
    elif doc.kind == "forest":
        hp = from_dict(ForestHyperparams, doc.hyperparams, "model.hyperparams")
        p = from_dict(_ForestParams, doc.params, "model.params")
        if not p.trees:
            raise ValidationError("model.params.trees must hold at least one tree")
        model = ForestModel(
            trees=[_tree_from_dict(t, f"model.params.trees[{i}]") for i, t in enumerate(p.trees)],
            bootstrap=hp.bootstrap,
            seed=doc.seed,
            params=TreeParams(hp.max_depth, hp.min_samples_leaf),
        )
    elif doc.kind == "boost":
        hp = from_dict(BoostHyperparams, doc.hyperparams, "model.hyperparams")
        p = from_dict(_BoostParams, doc.params, "model.params")
        model = BoostModel(
            init_value=p.init_value,
            stages=[_tree_from_dict(t, f"model.params.stages[{i}]") for i, t in enumerate(p.stages)],
            learning_rate=hp.learning_rate,
            seed=doc.seed,
            params=TreeParams(hp.max_depth, hp.min_samples_leaf),
            n_features=p.n_features,
            stage_train_rmse=list(p.stage_train_rmse),
        )
    else:
        raise ValidationError(f"unknown model kind {doc.kind!r} in document")
    return LoadedModel(model=model, kind=doc.kind, seed=doc.seed, lag_spec=doc.lag_spec)


def load_model(path: str | Path) -> LoadedModel:
    return model_from_dict(load_json(path, "model"))
