"""The document readers against the hand-written per-kind readers they replaced.

The reference readers below are the scenario, injections, ledger and
comparison readers as they stood before jsonio read tagged objects by their
`kind` or `dist` tag. For any one-edit mutation of a valid document, both must
build equal objects or refuse it with the same text. Two differences are
intended: an item without an `amount` may be refused as "... is required" or
for another fault of the same item, where the reference always named the
missing amount first; and an injections file names its array `injections` in
both of its forms, where the reference named it `injections.injections`.
"""

import json
import re
from dataclasses import dataclass, field
from typing import Literal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pdmecon
from pdmecon import cli
from pdmecon.cba import ItemKind, LineItem, Normal, Point, Triangular, Uniform, _LedgerDoc, load_ledger
from pdmecon.errors import ValidationError
from pdmecon.features import LagSpec
from pdmecon.jsonio import _wrong, from_dict, json_object, load_json
from pdmecon.models import LinearModel
from pdmecon.plantsim import (
    ComparisonReport,
    EconParams,
    PredictivePolicy,
    PreventivePolicy,
    SimOutcome,
    SpikeRamp,
    StuckAt,
    TracePlan,
    comparison_from_dict,
    scenario_from_dict,
)
from test_cli import mutated, small_scenario

# --- the reference readers ---------------------------------------------------


def tagged(doc, tag, classes, what):
    rest = dict(json_object(doc, what))
    name = rest.pop(tag, None)
    cls = classes.get(name) if isinstance(name, str) else None
    if cls is None:
        raise _wrong(f"{what}.{tag}", f"one of {list(classes)}", name)
    return cls, rest


def injection_from_dict(doc, what="injection"):
    cls, fields = tagged(doc, "kind", {"spike_ramp": SpikeRamp, "stuck_at": StuckAt}, what)
    return from_dict(cls, fields, what)


def policy_from_dict(doc, model=None, lag_spec=None, what="policy"):
    cls, fields = tagged(doc, "kind", {"preventive": PreventivePolicy, "predictive": PredictivePolicy}, what)
    if cls is PreventivePolicy:
        return from_dict(cls, fields, what)
    return from_dict(cls, fields, what, model=model, lag_spec=lag_spec)


def amount_from_dict(doc, what="amount"):
    kinds = {"point": Point, "uniform": Uniform, "triangular": Triangular, "normal": Normal}
    cls, fields = tagged(doc, "dist", kinds, what)
    return from_dict(cls, fields, what)


def item_from_dict(doc, what="item"):
    fields = {"kind": ItemKind.VARIABLE.value, **json_object(doc, what)}
    if isinstance(fields.get("name"), str):
        what = f"{what} {fields['name']!r}"
    amount = amount_from_dict(fields.pop("amount", None), f"{what}.amount")
    return from_dict(LineItem, fields, what, amount=amount)


@dataclass(frozen=True)
class _ScenarioDoc:
    schema_version: Literal[1]
    policies: dict
    description: str = ""
    plan: TracePlan = TracePlan()
    injections: tuple[dict, ...] = ()
    econ: EconParams = EconParams()


def reference_scenario(path, model, lag_spec):
    doc = from_dict(_ScenarioDoc, load_json(path, "scenario"), "scenario")
    injections = [injection_from_dict(d, f"scenario.injections[{i}]") for i, d in enumerate(doc.injections)]
    policies = {
        name: policy_from_dict(d, model, lag_spec, f"scenario.policies.{name}") for name, d in doc.policies.items()
    }
    return doc.plan, injections, policies, doc.econ


@dataclass(frozen=True)
class _InjectionsFile:
    injections: tuple[dict, ...] = ()


def reference_injections(path):
    doc = load_json(path, "injections")
    if not isinstance(doc, dict):
        doc = {"injections": doc}
    try:
        entries = from_dict(_InjectionsFile, doc, "injections").injections
    except ValidationError as exc:  # intended: both forms name the array injections, not injections.injections
        raise ValidationError(str(exc).replace("injections.injections", "injections")) from None
    return [injection_from_dict(d, f"injections[{i}]") for i, d in enumerate(entries)]


def reference_ledger(path):
    doc = from_dict(_LedgerDoc, load_json(path, "ledger"), "ledger")
    if not doc.items:
        raise ValidationError(f"{path}: ledger must contain a non-empty 'items' list")
    return [item_from_dict(d, f"ledger item {i}") for i, d in enumerate(doc.items)]


@dataclass(frozen=True)
class _ComparisonDoc:
    schema_version: Literal[1]
    outcomes: dict
    deltas: dict = field(default_factory=dict)


def reference_comparison(path):
    doc = from_dict(_ComparisonDoc, load_json(path, "comparison"), "comparison")
    outcomes = {name: from_dict(SimOutcome, o, f"comparison.outcomes.{name}") for name, o in doc.outcomes.items()}
    return from_dict(ComparisonReport, doc.deltas, "comparison.deltas", outcomes=outcomes)


# --- the readers under test ----------------------------------------------------


def new_scenario(path, model, lag_spec):
    scenario = scenario_from_dict(load_json(path, "scenario"))
    return scenario.plan, list(scenario.injections), scenario.build_policies(model, lag_spec), scenario.econ


def new_comparison(path):
    return comparison_from_dict(load_json(path, "comparison"))


# --- the property ----------------------------------------------------------------

MODEL, LAG_SPEC = LinearModel(intercept=0.0, coefficients=np.array([1.0, 0.0])), LagSpec(1, 2)

SCENARIO = small_scenario()
SCENARIO["injections"].append({"kind": "stuck_at", "at_s": 50, "duration_s": 20})

INJECTIONS = [
    {"kind": "spike_ramp", "at_s": 100, "peak_kpa": 60.0, "rise_s": 30},
    {"kind": "stuck_at", "at_s": 50, "duration_s": 20},
]

LEDGER = json.loads(pdmecon.data_path("sample_ledger.json").read_text())
for entry, amount in zip(LEDGER["items"][1:], [
    {"dist": "point", "value": 120},
    {"dist": "triangular", "low": 1, "mode": 2, "high": 4},
    {"dist": "normal", "mu": 5, "sigma": 1},
]):
    entry["amount"] = amount

COMPARISON = {
    "schema_version": 1,
    "outcomes": {
        name: {"duration_s": 400, "uptime_s": up, "downtime_s": 400 - up, "maintenance_count": 1,
               "breakdown_count": brk, "revenue_rate_per_s": 1.0, "revenue_units": float(up)}
        for name, up, brk in [("preventive", 200, 1), ("predictive", 350, 0)]
    },
    "deltas": {"downtime_avoided_s": 150, "maintenance_avoided": 0, "revenue_delta": 150.0},
}

MISSING_AMOUNT = re.compile(r"(ledger item \d+(?: '.*')?)\.amount must be a JSON object, got null")

# (id, document to mutate, reference reader, reader under test)
DOCUMENTS = [
    ("scenario", SCENARIO, reference_scenario, new_scenario),
    ("injections", INJECTIONS, reference_injections, cli._injections),
    ("injections-object", {"injections": INJECTIONS}, reference_injections, cli._injections),
    ("ledger", LEDGER, reference_ledger, load_ledger),
    ("comparison", COMPARISON, reference_comparison, new_comparison),
]


def read(reader, *args):
    """What reader makes of args: the object it builds, or the text of its ValidationError."""
    try:
        return reader(*args)
    except ValidationError as exc:
        return f"error: {exc}"


@pytest.mark.parametrize("document", DOCUMENTS, ids=[d[0] for d in DOCUMENTS])
@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_readers_match_the_per_kind_reference(tmp_path, document, data):
    _, base, reference, reader = document
    doc = data.draw(mutated(base) | st.just(base), label="document")
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    args = (path, MODEL, LAG_SPEC) if reader is new_scenario else (path,)
    if reader is new_scenario and data.draw(st.booleans(), label="without a model"):
        args = (path, None, None)
    expected, got = read(reference, *args), read(reader, *args)
    missing = MISSING_AMOUNT.search(expected) if isinstance(expected, str) else None
    if missing and got != expected:  # the item is refused, if not for its amount first
        item = missing.group(1)
        assert isinstance(got, str) and re.match(rf"error: (unknown field )?{re.escape(item)}\.", got), got
    else:
        assert got == expected


# (id, document whose injections hold an empty object and then null, reference reader, reader under test)
OBJECT_THEN_NULL = [
    ("injections", [{}, None], reference_injections, cli._injections),
    ("injections-object", {"injections": [{}, None]}, reference_injections, cli._injections),
    ("scenario", {**SCENARIO, "injections": [{}, None]}, reference_scenario, new_scenario),
]


@pytest.mark.parametrize("document", OBJECT_THEN_NULL, ids=[d[0] for d in OBJECT_THEN_NULL])
def test_every_entry_is_an_object_before_any_entry_is_read(tmp_path, document):
    _, doc, reference, reader = document
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    args = (path, MODEL, LAG_SPEC) if reader is new_scenario else (path,)
    expected = read(reference, *args)
    assert expected.endswith("injections[1] must be a JSON object, got null"), expected
    assert read(reader, *args) == expected


@pytest.mark.parametrize("document", DOCUMENTS, ids=[d[0] for d in DOCUMENTS])
def test_each_unmutated_document_is_read_whole(tmp_path, document):
    _, base, reference, reader = document
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(base), encoding="utf-8")
    args = (path, MODEL, LAG_SPEC) if reader is new_scenario else (path,)
    got = read(reader, *args)
    assert not isinstance(got, str), got
    assert got == read(reference, *args)
