"""Artifact bytes pinned to golden files.

Each artifact type is built by hand, with no fitting, so BLAS and the tree
search cannot move the bytes; the files in tests/golden/ hold what the
writers produced before `jsonio.plain` replaced the hand-written to_dict
copies, and every change to how artifacts are written must keep them. The
model files, rewritten from the same hand-built models when trees became
preorder arrays (schema 3), must also load and write back unchanged and
predict what they did before.

The sampled net-benefit files are the exception: they pin the Monte Carlo
draws themselves. They were written by the per-trial default_rng((seed, t))
loop that net_benefit ran before its trial streams were computed all at once,
from a ledger that reaches every arm and every degenerate case.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from pdmecon.cba import (
    ItemKind,
    LedgerKind,
    LineItem,
    McConfig,
    McSummary,
    NetBenefitResult,
    Normal,
    Point,
    Triangular,
    Uniform,
    _sample_matrix,
    net_benefit,
)
from pdmecon.detect import FaultEvent, FaultKind, events_to_jsonl
from pdmecon.features import LagSpec
from pdmecon.ingest import IngestReport
from pdmecon.jsonio import dumps, plain, write_json, write_text
from pdmecon.models import (
    BoostHyperparams,
    BoostModel,
    EvalReport,
    ForestHyperparams,
    ForestModel,
    LinearModel,
    RegressionTree,
    load_model,
    model_to_dict,
)
from pdmecon.plantsim import ComparisonReport, SimOutcome

GOLDEN = Path(__file__).parent / "golden"


def split_tree(scale):
    # preorder: x0 <= 0.5 -> leaf 1; else x1 <= -1.0 -> leaf 2, else leaf 3
    return RegressionTree(
        feature=np.array([0, -1, 1, -1, -1]),
        threshold=np.array([0.5, -1.0]),
        value=np.array([1.0, 2.0, 3.0]) / scale,
        n_features=2,
    )


LEAF = RegressionTree(feature=np.array([-1]), threshold=np.array([]), value=np.array([0.1]), n_features=2)

SAMPLES = np.array([1.0, 2.5, 4.0, 7.25, 3.1])


def outcome(uptime_s, maintenance_count, breakdown_count):
    return SimOutcome(
        duration_s=3600,
        downtime_s=3600 - uptime_s,
        maintenance_count=maintenance_count,
        breakdown_count=breakdown_count,
        revenue_rate_per_s=1.5,
    )


# the documents as the CLI writes them; events.jsonl is text
ARTIFACTS = {
    "model_linear.json": model_to_dict(
        LinearModel(intercept=0.1, coefficients=[1 / 3, -2.5, 1e-7], ridge_applied=True), seed=5, lag_spec=LagSpec(2, 4)
    ),
    # the model's own seed is written, not the one passed in
    "model_forest.json": model_to_dict(
        ForestModel(trees=[split_tree(3), LEAF], hyperparams=ForestHyperparams(n_trees=2, max_depth=2), seed=4),
        seed=9,
        lag_spec=LagSpec(1, 2),
    ),
    "model_boost.json": model_to_dict(
        BoostModel(
            init_value=1 / 7,
            stages=[split_tree(7), LEAF],
            hyperparams=BoostHyperparams(n_stages=2, learning_rate=0.5, max_depth=2),
            seed=4,
            n_features=2,
            stage_train_rmse=[0.75, 0.5],
        )
    ),
    "evaluation.json": {
        "schema_version": 1,
        "channel": "DPIT301",
        "k": 2,
        "lag_spec": LagSpec(5, 30),
        "seed": 3,
        "reports": {
            "linear": EvalReport("linear", (0.5, 0.25)),
            "boost": EvalReport("boost", [1 / 3, 2 / 3]),
        },
    },
    "ingest_report.json": IngestReport(
        rows_read=10, rows_dropped_sentinel=2, rows_dropped_unparseable=1, channels_retained=3
    ),
    "comparison.json": ComparisonReport(1, {"preventive": outcome(3000, 2, 1), "predictive": outcome(3240, 1, 0)}),
    "net_benefit.json": NetBenefitResult(
        item_summaries={"Fewer breakdowns": McSummary.from_samples(SAMPLES), "Sensors": McSummary.from_samples([2.0])},
        ledger_summaries={
            LedgerKind.DIRECT_SAVING: McSummary.from_samples(SAMPLES),
            LedgerKind.IMPLEMENTATION_COST: McSummary.from_samples([2.0]),
        },
        net=McSummary.from_samples(SAMPLES - 2.0),
        net_samples=SAMPLES - 2.0,
    ).to_dict(),
    "events.jsonl": events_to_jsonl(
        [FaultEvent(FaultKind.SPIKE, 3, 7, 1.25), FaultEvent(FaultKind.STUCK_AT, 10, 10, 0.1 + 0.2)]
    )
    + "\n",
}


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_artifact_bytes_match_the_golden_file(tmp_path, name):
    doc, path = ARTIFACTS[name], tmp_path / name
    if isinstance(doc, str):
        write_text(path, doc)
    else:
        write_json(path, doc)
    assert path.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(name for name in ARTIFACTS if name.startswith("model_")))
def test_model_file_loads_and_writes_back_the_same_bytes(tmp_path, name):
    model, lag_spec = load_model(GOLDEN / name)
    seed = json.loads((GOLDEN / name).read_text(encoding="utf-8"))["seed"]
    path = tmp_path / name
    write_json(path, model_to_dict(model, seed=seed, lag_spec=lag_spec))
    assert path.read_bytes() == (GOLDEN / name).read_bytes()


# x0 in (0, 0.5, 1) by x1 in (-2, -1, 0) reaches every leaf of split_tree
PROBES = np.array([[a, b] for a in (0.0, 0.5, 1.0) for b in (-2.0, -1.0, 0.0)])

# what the hand-built trees predicted on PROBES when trees were stored as per-node arrays (schema 2)
PROBE_PREDICTIONS = {
    "model_forest.json": [0.21666666666666667] * 6 + [0.3833333333333333] * 2 + [0.55],
    "model_boost.json": [0.2642857142857143] * 6 + [0.3357142857142857] * 2 + [0.4071428571428571],
}


@pytest.mark.parametrize("name", sorted(PROBE_PREDICTIONS))
def test_golden_tree_model_predicts_the_floats_it_always_has(name):
    assert load_model(GOLDEN / name)[0].predict(PROBES).tolist() == PROBE_PREDICTIONS[name]


D, I, C = LedgerKind.DIRECT_SAVING, LedgerKind.INDIRECT_SAVING, LedgerKind.IMPLEMENTATION_COST
SAMPLED_LEDGER = [
    LineItem(name, ledger, category, ItemKind.VARIABLE, amount)
    for name, ledger, category, amount in [
        ("uniform", D, "Operating", Uniform(10.0, 90.0)),
        ("normal below zero", D, "Financing", Normal(-0.5, 2.0)),
        ("triangular", C, "Equipment", Triangular(1.0, 3.0, 8.0)),
        ("point", I, "LostProductivityAvoidance", Point(120.5)),
        ("uniform degenerate", I, "MaintenanceCycleDelay", Uniform(4.0, 4.0)),
        ("triangular mode at low", C, "Supplies/Inventories", Triangular(2.0, 2.0, 6.0)),
        ("normal sigma zero", D, "Operating", Normal(7.0, 0.0)),
        ("triangular mode at high", C, "Labor", Triangular(0.0, 5.0, 5.0)),
        ("triangular degenerate", C, "Labor", Triangular(3.0, 3.0, 3.0)),
        ("normal", I, "LostProductivityAvoidance", Normal(50.0, 10.0)),
        ("uniform last", D, "Financing", Uniform(-5.0, 5.0)),
    ]
]

# sha256 of the little-endian float64 (500 trials x 11 items) sample matrix
SAMPLE_MATRIX_SHA256 = {
    0: "cc46162d5ce281d9848d7e0f351dc2f515cc5c942f2c6fc06dda7ab97aa4c8d3",
    2**40 + 3: "7d01c7206343222789525242c7703e91e998cdd8e7cded6d15bf5e76acf877b2",
}


@pytest.mark.parametrize("seed", sorted(SAMPLE_MATRIX_SHA256))
def test_sampled_net_benefit_matches_the_golden_draws(tmp_path, seed):
    config = McConfig(trials=500, seed=seed)
    matrix = _sample_matrix(SAMPLED_LEDGER, config)
    assert hashlib.sha256(np.ascontiguousarray(matrix, dtype="<f8").tobytes()).hexdigest() == SAMPLE_MATRIX_SHA256[seed]
    path = tmp_path / "net_benefit.json"
    write_json(path, net_benefit(SAMPLED_LEDGER, config).to_dict())
    assert path.read_bytes() == (GOLDEN / f"net_benefit_sampled_seed{seed}.json").read_bytes()


def test_plain_writes_fields_and_refuses_what_json_cannot_hold():
    assert plain({"k": (LagSpec(1, 2), np.arange(2))}) == {"k": [{"min_lag": 1, "max_lag": 2}, [0, 1]]}
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        dumps({"k": {1}})
