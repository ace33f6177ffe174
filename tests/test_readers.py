"""The document readers against the hand-written per-kind readers they replaced.

The reference readers below are the scenario, injections, ledger and
comparison readers as they stood before jsonio read tagged objects by their
`kind` or `dist` tag. For any one-edit mutation of a valid document, both must
build equal objects or refuse it with the same text. Two differences are
intended: an item without an `amount` may be refused as "... is required" or
for another fault of the same item, where the reference always named the
missing amount first; and an injections file names its array `injections` in
both of its forms, where the reference named it `injections.injections`.
Neither scenario reader judges the policies as a set: a policy named
`preventive` or `predictive` of the other kind, or one whose maintenance lasts
as long as the scenario's repair, is refused by `compare_policies`, not when
the file is read. The comparison reference builds the one class,
`ComparisonReport`, that writes the file. It also spells out the derived-field
rule that from_dict applies to every class: uptime_s, revenue_units and deltas
may be left out, and a value the file states must be the one the other fields
give.
"""

import copy
import json
import re
from dataclasses import asdict, dataclass, field
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
from pdmecon.ingest import IngestReport
from pdmecon.jsonio import _wrong, dumps, from_dict, json_object, load_json
from pdmecon.models import LinearModel
from pdmecon.plantsim import (
    BreakdownRule,
    ComparisonReport,
    Deltas,
    EconParams,
    PredictivePolicy,
    PreventivePolicy,
    Scenario,
    SimOutcome,
    SpikeRamp,
    StuckAt,
    TracePlan,
    compare_policies,
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
    breakdown: BreakdownRule = BreakdownRule()


def reference_scenario(path, model, lag_spec):
    doc = from_dict(_ScenarioDoc, load_json(path, "scenario"), "scenario")
    injections = [injection_from_dict(d, f"scenario.injections[{i}]") for i, d in enumerate(doc.injections)]
    policies = {
        name: policy_from_dict(d, model, lag_spec, f"scenario.policies.{name}") for name, d in doc.policies.items()
    }
    return doc.plan, injections, policies, doc.econ, doc.breakdown


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
class _ComparisonFile:
    schema_version: Literal[1]
    outcomes: dict
    deltas: dict = None  # None when left out; a stated null is not an object


@dataclass(frozen=True)
class _OutcomeFile:
    duration_s: int
    downtime_s: int
    maintenance_count: int
    breakdown_count: int
    revenue_rate_per_s: float
    uptime_s: int = None  # None when left out
    revenue_units: float = None


def derived_wrong(where, derived, stated):
    return _wrong(where, f"{json.dumps(derived)}, as the other fields give it", stated)


def reference_outcome(doc, what):
    given = from_dict(_OutcomeFile, doc, what)
    try:
        outcome = SimOutcome(
            given.duration_s, given.downtime_s, given.maintenance_count, given.breakdown_count, given.revenue_rate_per_s
        )
    except ValidationError as exc:
        raise ValidationError(f"{what}: {exc}") from None
    uptime = given.duration_s - given.downtime_s
    for name, derived in [("uptime_s", uptime), ("revenue_units", uptime * given.revenue_rate_per_s)]:
        if getattr(given, name) is not None and getattr(given, name) != derived:
            raise derived_wrong(f"{what}.{name}", derived, doc[name])
    return outcome


def reference_comparison(path):
    raw = load_json(path, "comparison")
    doc = from_dict(_ComparisonFile, raw, "comparison")
    outcomes = {name: reference_outcome(o, f"comparison.outcomes.{name}") for name, o in doc.outcomes.items()}
    stated = None if doc.deltas is None else from_dict(Deltas, doc.deltas, "comparison.deltas")
    try:
        report = ComparisonReport(doc.schema_version, outcomes)
    except ValidationError as exc:  # the report's own refusal, named as from_dict names it
        raise ValidationError(f"comparison: {exc}") from None
    if stated is not None and stated != report.deltas:
        raise derived_wrong("comparison.deltas", asdict(report.deltas), raw["deltas"])
    return report


# --- the readers under test ----------------------------------------------------


def new_scenario(path, model, lag_spec):
    scenario = from_dict(Scenario, load_json(path, "scenario"), "scenario")
    policies = scenario.build_policies(model, lag_spec)
    return scenario.plan, list(scenario.injections), policies, scenario.econ, scenario.breakdown


def new_comparison(path):
    return from_dict(ComparisonReport, load_json(path, "comparison"), "comparison")


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


# --- derived fields ----------------------------------------------------------------


def simulated_comparison():
    scenario = from_dict(Scenario, SCENARIO, "scenario")
    policies = scenario.build_policies(MODEL, LAG_SPEC)
    return compare_policies(
        scenario.plan, list(scenario.injections), policies, scenario.econ, seed=1, breakdown=scenario.breakdown
    )


SIMULATED = simulated_comparison()
SIMULATED_DOC = json.loads(dumps(SIMULATED))
# where each derived value sits in a comparison document
DERIVED = [("outcomes", name, key) for name in SIMULATED_DOC["outcomes"] for key in ("uptime_s", "revenue_units")]
DERIVED.append(("deltas",))


def other(value):
    """Any JSON value of value's type other than value itself."""
    if isinstance(value, int):
        return st.integers(-(2**60), 2**60).filter(lambda v: v != value)
    return st.floats(-1e12, 1e12).filter(lambda v: v != value)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_changed_derived_value_is_refused_naming_it(data):
    path = data.draw(st.sampled_from(DERIVED), label="derived value")
    doc = copy.deepcopy(SIMULATED_DOC)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    derived = parent[path[-1]]
    if path == ("deltas",):
        key = data.draw(st.sampled_from(sorted(derived)), label="delta")
        stated = {**derived, key: data.draw(st.none() | other(derived[key]), label="stated")}
    else:
        stated = data.draw(other(derived), label="stated")
    parent[path[-1]] = stated
    expected = f"{'.'.join(('comparison', *path))} must be {json.dumps(derived)}, as the other fields give it, got "
    with pytest.raises(ValidationError, match=f"^{re.escape(expected)}"):
        from_dict(ComparisonReport, doc, "comparison")


@settings(max_examples=50, deadline=None, derandomize=True)
@given(dropped=st.sets(st.sampled_from(DERIVED)))
def test_derived_values_left_out_are_derived(dropped):
    doc = copy.deepcopy(SIMULATED_DOC)
    for path in dropped:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
    assert from_dict(ComparisonReport, doc, "comparison") == SIMULATED


@st.composite
def outcomes(draw, duration, rate):
    downtime = draw(st.integers(0, duration))
    maintenance = draw(st.integers(0, downtime))
    return SimOutcome(duration, downtime, maintenance, draw(st.integers(0, downtime - maintenance)), rate)


@st.composite
def comparisons(draw):
    duration, rate = draw(st.integers(1, 2**53)), draw(st.floats(0, 1e6))
    names = draw(st.sets(st.sampled_from(["preventive", "predictive", "other"]), min_size=1))
    return ComparisonReport(1, {name: draw(outcomes(duration, rate)) for name in sorted(names)})


REPORTS = st.just(SIMULATED) | comparisons() | st.builds(IngestReport, *[st.integers(0, 10**9)] * 4)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(report=REPORTS)
def test_reports_read_back_what_they_write(report):
    assert from_dict(type(report), json.loads(dumps(report)), "report") == report


@dataclass(frozen=True)
class _Toy:
    a: int
    double: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "double", 2 * self.a)


def test_an_unknown_field_beside_a_derived_one_is_refused():
    assert from_dict(_Toy, {"a": 2, "double": 4}, "toy") == from_dict(_Toy, {"a": 2}, "toy") == _Toy(2)
    with pytest.raises(ValidationError, match=r"^unknown field toy\.triple; allowed: \['a', 'double'\]$"):
        from_dict(_Toy, {"a": 2, "double": 4, "triple": 6}, "toy")
