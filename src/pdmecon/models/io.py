"""Versioned JSON serialization for trained models.

A document holds the model's "kind", "seed", "hyperparams" (the fields of its
hyperparameter dataclass; a forest's n_trees and a booster's n_stages must
match its tree count), an optional "lag_spec" and the per-kind "params".
Schema version 2 stores each tree as its node arrays: "feature", "threshold",
"left", "right" and "value" lists of equal length in the layout of
models.tree, plus "params" and "n_features". The loader checks that the
arrays describe a tree (children point forward, every node has two children
or none and every node but the root one parent, split features exist) before
anything walks them. Version 1 documents, whose trees are nested
{"f", "t", "l", "r"} / {"v"} dicts, still load; that reader is iterative
because unlimited-depth trees can exceed the recursion limit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Literal

import numpy as np

from ..errors import ValidationError
from ..features import LagSpec
from ..jsonio import from_dict, load_json
from .ensemble import BoostModel, ForestModel
from .evaluate import MODELS
from .linear import LinearModel
from .tree import NodeLists, RegressionTree, TreeParams

SCHEMA_VERSION = 2


@dataclass(frozen=True)
class LoadedModel:
    model: object
    lag_spec: LagSpec | None


def _tree_to_dict(tree: RegressionTree) -> dict:
    return {
        "feature": tree.feature.tolist(),
        "threshold": tree.threshold.tolist(),
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "value": tree.value.tolist(),
        "params": tree.params.to_dict(),
        "n_features": tree.n_features,
    }


@dataclass(frozen=True)
class _TreeDoc:
    feature: tuple[int, ...]
    threshold: tuple[float, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    value: tuple[float, ...]
    params: TreeParams
    n_features: int


def _tree_from_dict(doc, what: str = "tree") -> RegressionTree:
    tree = from_dict(_TreeDoc, doc, what)
    n = len(tree.value)
    if n == 0:
        raise ValidationError(f"{what}.value must hold at least one node")
    for name in ("feature", "threshold", "left", "right"):
        if len(getattr(tree, name)) != n:
            raise ValidationError(f"{what}.{name} has {len(getattr(tree, name))} entries but {what}.value has {n}")

    def first(bad: np.ndarray) -> int | None:
        return int(np.argmax(bad)) if bad.any() else None

    def indices(name: str) -> np.ndarray:
        try:
            return np.array(getattr(tree, name), dtype=np.intp)
        except OverflowError:
            raise ValidationError(f"{what}.{name} holds an integer out of range") from None

    feature, left, right = indices("feature"), indices("left"), indices("right")
    leaf = left == -1
    if (i := first(leaf != (right == -1))) is not None:
        raise ValidationError(
            f"{what}.left[{i}] is {left[i]} but {what}.right[{i}] is {right[i]}; a node has two children or none"
        )
    nodes = np.arange(n)
    for name, child in (("left", left), ("right", right)):
        if (i := first(~leaf & ~((nodes < child) & (child < n)))) is not None:
            raise ValidationError(f"{what}.{name}[{i}] is {child[i]}; a child must point forward, into ({i}, {n})")
    parents = np.bincount(np.concatenate([left[~leaf], right[~leaf]]), minlength=n)
    if (i := first(parents[1:] != 1)) is not None:
        raise ValidationError(
            f"{what}: node {i + 1} is a child of {parents[i + 1]} nodes; every node but the root has one parent"
        )
    if (i := first(~leaf & ~((0 <= feature) & (feature < tree.n_features)))) is not None:
        raise ValidationError(f"{what}.feature[{i}] {feature[i]} is not a feature index below {tree.n_features}")
    return RegressionTree(
        feature=feature,
        threshold=np.array(tree.threshold, dtype=np.float64),
        left=left,
        right=right,
        value=np.array(tree.value, dtype=np.float64),
        params=tree.params,
        n_features=tree.n_features,
    )


@dataclass(frozen=True)
class _TreeDocV1:
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


def _tree_from_v1(doc, what: str) -> RegressionTree:
    tree = from_dict(_TreeDocV1, doc, what)
    nodes = NodeLists()
    stack = [(tree.root, 0, f"{what}.root")]
    while stack:
        encoded, node, where = stack.pop()
        if isinstance(encoded, dict) and "v" in encoded:
            nodes.value[node] = from_dict(_Leaf, encoded, where).v
            continue
        split = from_dict(_Split, encoded, where)
        if not 0 <= split.f < tree.n_features:
            raise ValidationError(f"{where}.f {split.f} is not a feature index below {tree.n_features}")
        lnode, rnode = nodes.split(node, split.f, split.t)
        stack.append((split.l, lnode, f"{where}.l"))
        stack.append((split.r, rnode, f"{where}.r"))
    return nodes.tree(tree.params, tree.n_features)


def _check_widths(trees: list[RegressionTree], n_features: int, what: str) -> None:
    for i, tree in enumerate(trees):
        if tree.n_features != n_features:
            raise ValidationError(
                f"{what}[{i}].n_features is {tree.n_features}, but the model has {n_features} features"
            )


def model_to_dict(model, seed: int = 0, lag_spec: LagSpec | None = None) -> dict:
    """The model's document: its kind, its hyperparameters and its fitted params.

    A forest or boost model records the seed it was fitted with; a linear
    model, which has none, records `seed`.
    """
    doc = {"schema_version": SCHEMA_VERSION, "kind": model.kind, "hyperparams": asdict(model.hyperparams)}
    if lag_spec is not None:
        doc["lag_spec"] = lag_spec.to_dict()
    if model.kind == "linear":
        doc["seed"] = seed
        doc["params"] = {
            "intercept": model.intercept,
            "coefficients": [float(c) for c in model.coefficients],
            "ridge_applied": model.ridge_applied,
        }
    elif model.kind == "forest":
        doc["seed"] = model.seed
        doc["params"] = {"trees": [_tree_to_dict(t) for t in model.trees]}
    else:
        doc["seed"] = model.seed
        doc["params"] = {
            "init_value": model.init_value,
            "stages": [_tree_to_dict(t) for t in model.stages],
            "stage_train_rmse": list(model.stage_train_rmse),
            "n_features": model.n_features,
        }
    return doc


@dataclass(frozen=True)
class _ModelDoc:
    schema_version: Literal[1, 2]
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


def _check_count(count: int, name: str, trees: tuple, key: str) -> None:
    if count != len(trees):
        raise ValidationError(
            f"model.hyperparams.{name} is {count}, but model.params.{key} holds {len(trees)} trees"
        )


def model_from_dict(doc) -> LoadedModel:
    doc = from_dict(_ModelDoc, doc, "model")
    if doc.kind not in MODELS:
        raise ValidationError(f"unknown model kind {doc.kind!r} in document")
    hp = from_dict(MODELS[doc.kind][0], doc.hyperparams, "model.hyperparams")
    read_tree = _tree_from_v1 if doc.schema_version == 1 else _tree_from_dict
    if doc.kind == "linear":
        p = from_dict(_LinearParams, doc.params, "model.params")
        model = LinearModel(p.intercept, p.coefficients, p.ridge_applied)
    elif doc.kind == "forest":
        p = from_dict(_ForestParams, doc.params, "model.params")
        if not p.trees:
            raise ValidationError("model.params.trees must hold at least one tree")
        _check_count(hp.n_trees, "n_trees", p.trees, "trees")
        trees = [read_tree(t, f"model.params.trees[{i}]") for i, t in enumerate(p.trees)]
        _check_widths(trees, trees[0].n_features, "model.params.trees")
        model = ForestModel(trees=trees, hyperparams=hp, seed=doc.seed)
    else:
        p = from_dict(_BoostParams, doc.params, "model.params")
        _check_count(hp.n_stages, "n_stages", p.stages, "stages")
        stages = [read_tree(t, f"model.params.stages[{i}]") for i, t in enumerate(p.stages)]
        _check_widths(stages, p.n_features, "model.params.stages")
        model = BoostModel(
            init_value=p.init_value,
            stages=stages,
            hyperparams=hp,
            seed=doc.seed,
            n_features=p.n_features,
            stage_train_rmse=list(p.stage_train_rmse),
        )
    return LoadedModel(model=model, lag_spec=doc.lag_spec)


def load_model(path: str | Path) -> LoadedModel:
    return model_from_dict(load_json(path, "model"))
