"""Versioned JSON serialization for trained models.

A document is the fields of _ModelDoc, the one class that both writes it
(through jsonio.plain) and reads it back (through jsonio.from_dict): the
"schema_version", the model's "kind", "seed", "hyperparams" (the fields of its
hyperparameter dataclass), "lag_spec" (left out when none was given) and
"params", the model's other dataclass fields, read into the model class that
MODELS names for the kind. A tree is its nodes in preorder as models.tree
holds them: "feature" per node (-1 at a leaf), "threshold" per split, "value"
per leaf, plus "n_features". The model and tree classes check themselves on
construction (a forest's n_trees and a booster's n_stages match its tree
count, the trees share one width, the arrays describe one tree), so a loaded
model has passed the same checks as a fitted one before anything walks it.
model_from_dict and load_model return the pair (model, lag_spec).
Only schema version 3 is read; a version-1 (nested-dict trees) or version-2
(per-node arrays) model must be retrained.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Literal

from ..errors import ValidationError
from ..features import LagSpec
from ..jsonio import from_dict, load_json, plain
from .evaluate import MODELS

SCHEMA_VERSION = 3


@dataclass(frozen=True)
class _ModelDoc:
    schema_version: Literal[1, 2, 3]  # 1 and 2 are known only to ask for a retrain
    kind: str
    seed: int = 0
    lag_spec: LagSpec | None = None
    hyperparams: dict = field(default_factory=dict)  # written from the kind's hyperparameter dataclass
    params: dict = field(default_factory=dict)  # written from the model's other fields


def model_to_dict(model, seed: int = 0, lag_spec: LagSpec | None = None) -> dict:
    """The model's document: its kind, its hyperparameters and its fitted params.

    The params are the model's dataclass fields other than hyperparams and
    seed. A forest or boost model records the seed it was fitted with; a
    linear model, which has none, records `seed`.
    """
    params = {f.name: getattr(model, f.name) for f in fields(model) if f.name not in ("hyperparams", "seed")}
    seed = getattr(model, "seed", seed)
    doc = plain(_ModelDoc(SCHEMA_VERSION, model.kind, seed, lag_spec, model.hyperparams, params))
    if lag_spec is None:
        del doc["lag_spec"]  # absent, as a model saved without one has always been written
    return doc


def model_from_dict(doc) -> tuple[object, LagSpec | None]:
    doc = from_dict(_ModelDoc, doc, "model")
    if doc.kind not in MODELS:
        raise ValidationError(f"unknown model kind {doc.kind!r} in document")
    if doc.schema_version != SCHEMA_VERSION:
        raise ValidationError(
            f"model.schema_version is {doc.schema_version}; only version {SCHEMA_VERSION} is read, "
            "so retrain the model"
        )
    hyperparams_class, _, model_class = MODELS[doc.kind]
    hp = from_dict(hyperparams_class, doc.hyperparams, "model.hyperparams")
    # a linear model declares neither field, so from_dict passes it neither
    model = from_dict(model_class, doc.params, "model.params", hyperparams=hp, seed=doc.seed)
    return model, doc.lag_spec


def load_model(path: str | Path) -> tuple[object, LagSpec | None]:
    return model_from_dict(load_json(path, "model"))
