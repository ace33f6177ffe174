import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pdmecon
from pdmecon import cli

RUN = [sys.executable, "-m", "pdmecon"]


def run_cli(*args, env=None):
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [*RUN, *map(str, args)], capture_output=True, text=True, env=merged
    )


@pytest.fixture
def small_plan(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(
        json.dumps(
            {
                "duration_s": 600,
                "baseline_kpa": 30.0,
                "segments": [[200, 33.0], [400, 36.0]],
                "noise_sigma_kpa": 0.2,
                "warmup_s": 60,
            }
        ),
        encoding="utf-8",
    )
    return path


@pytest.fixture
def historian_csv(tmp_path, small_plan):
    out_dir = tmp_path / "synth"
    result = run_cli("synth", "--plan", small_plan, "--seed", 5, "--out-dir", out_dir)
    assert result.returncode == 0, result.stderr
    return out_dir / "historian.csv"


def test_synth_then_ingest_roundtrip(tmp_path, small_plan):
    out_dir = tmp_path / "out"
    plan_doc = json.loads(small_plan.read_text())
    plan_doc["noise_sigma_kpa"] = 0.0
    quiet = tmp_path / "quiet_plan.json"
    quiet.write_text(json.dumps(plan_doc), encoding="utf-8")

    result = run_cli("synth", "--plan", quiet, "--seed", 1, "--out-dir", out_dir)
    assert result.returncode == 0, result.stderr
    result = run_cli("ingest", "--csv", out_dir / "historian.csv", "--out-dir", out_dir)
    assert result.returncode == 0, result.stderr
    report = json.loads((out_dir / "ingest_report.json").read_text())
    assert report["rows_read"] == 600
    assert report["rows_dropped_sentinel"] == 0
    assert report["rows_dropped_unparseable"] == 0
    assert report["rows_retained"] == 600


def test_noiseless_default_plan_roundtrips_all_rows(tmp_path):
    quiet = tmp_path / "quiet.json"
    quiet.write_text(json.dumps({"noise_sigma_kpa": 0.0}), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert run_cli("synth", "--plan", quiet, "--seed", 1, "--out-dir", out_dir).returncode == 0
    assert run_cli("ingest", "--csv", out_dir / "historian.csv", "--out-dir", out_dir).returncode == 0
    report = json.loads((out_dir / "ingest_report.json").read_text())
    assert report["rows_retained"] == 8700
    assert report["rows_dropped_sentinel"] == 0
    assert report["rows_dropped_unparseable"] == 0


def test_train_writes_model_with_lag_spec(tmp_path, historian_csv):
    out_dir = tmp_path / "model"
    result = run_cli(
        "train",
        "--csv", historian_csv,
        "--channel", "DPIT301",
        "--kind", "linear",
        "--min-lag", 2,
        "--max-lag", 8,
        "--seed", 3,
        "--out-dir", out_dir,
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads((out_dir / "model.json").read_text())
    assert doc["kind"] == "linear"
    assert doc["schema_version"] == 2
    assert doc["lag_spec"] == {"min_lag": 2, "max_lag": 8}
    assert len(doc["params"]["coefficients"]) == 7


def test_evaluate_report_shape(tmp_path, historian_csv):
    out_dir = tmp_path / "eval"
    hp = tmp_path / "hp.json"
    hp.write_text(
        json.dumps(
            {
                "forest": {"n_trees": 3, "max_depth": 4},
                "boost": {"n_stages": 3, "max_depth": 2},
            }
        ),
        encoding="utf-8",
    )
    result = run_cli(
        "evaluate",
        "--csv", historian_csv,
        "--kinds", "linear,forest,boost",
        "--k", 5,
        "--min-lag", 2,
        "--max-lag", 8,
        "--hyperparams", hp,
        "--seed", 2,
        "--out-dir", out_dir,
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads((out_dir / "evaluation.json").read_text())
    assert set(doc["reports"]) == {"linear", "forest", "boost"}
    for report in doc["reports"].values():
        assert len(report["per_split_rmse"]) == 5
    assert "Average" in result.stdout
    assert "Split Number" in result.stdout


def test_detect_outputs(tmp_path, historian_csv):
    out_dir = tmp_path / "detect"
    result = run_cli("detect", "--csv", historian_csv, "--out-dir", out_dir)
    assert result.returncode == 0, result.stderr
    assert (out_dir / "events.jsonl").exists()
    summary = json.loads((out_dir / "detect_summary.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["total"] >= 0


def test_simulate_and_cba_pipeline(tmp_path, historian_csv):
    model_dir = tmp_path / "model"
    result = run_cli(
        "train",
        "--csv", historian_csv,
        "--kind", "linear",
        "--min-lag", 2,
        "--max-lag", 8,
        "--seed", 3,
        "--out-dir", model_dir,
    )
    assert result.returncode == 0, result.stderr

    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "plan": {
                    "duration_s": 1500,
                    "baseline_kpa": 30.0,
                    "segments": [],
                    "noise_sigma_kpa": 0.1,
                    "warmup_s": 0,
                },
                "injections": [{"kind": "spike_ramp", "at_s": 700, "peak_kpa": 60.0, "rise_s": 60}],
                "policies": {
                    "preventive": {
                        "kind": "preventive",
                        "cycle_s": 500,
                        "maint_duration_s": 100,
                        "breakdown": {"fail_limit_kpa": 50.0, "grace_s": 5, "repair_duration_s": 400},
                    },
                    "predictive": {
                        "kind": "predictive",
                        "limit_kpa": 40.0,
                        "hard_limit_kpa": 50.0,
                        "horizon_s": 30,
                        "schedule_window_s": 120,
                        "maint_duration_s": 100,
                        "breakdown": {"fail_limit_kpa": 50.0, "grace_s": 5, "repair_duration_s": 400},
                    },
                },
                "econ": {"fouling_rate_kpa_per_s": 0.0, "revenue_rate_per_s": 1.0},
            }
        ),
        encoding="utf-8",
    )
    sim_dir = tmp_path / "sim"
    result = run_cli(
        "simulate",
        "--scenario", scenario,
        "--model", model_dir / "model.json",
        "--seed", 5,
        "--out-dir", sim_dir,
    )
    assert result.returncode == 0, result.stderr
    comparison = json.loads((sim_dir / "comparison.json").read_text())
    assert comparison["outcomes"]["preventive"]["breakdown_count"] >= 1
    assert comparison["outcomes"]["predictive"]["breakdown_count"] == 0
    assert comparison["deltas"]["revenue_delta"] > 0

    cba_dir = tmp_path / "cba"
    result = run_cli(
        "cba",
        "--ledger", pdmecon.data_path("sample_ledger.json"),
        "--trials", 2000,
        "--bridge", sim_dir / "comparison.json",
        "--revenue-rate", 1.0,
        "--unit-maintenance-cost", 10.0,
        "--seed", 1,
        "--out-dir", cba_dir,
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads((cba_dir / "net_benefit.json").read_text())
    assert doc["items"]["Avoidance of lost revenue"]["sd"] == 0.0
    assert doc["items"]["Avoidance of lost revenue"]["mean"] > 0
    assert "net" in doc


def test_rerun_is_byte_identical(tmp_path, historian_csv):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        result = run_cli(
            "evaluate",
            "--csv", historian_csv,
            "--kinds", "forest",
            "--k", 3,
            "--min-lag", 2,
            "--max-lag", 6,
            "--hyperparams", write_hp(tmp_path),
            "--seed", 11,
            "--out-dir", d,
        )
        assert result.returncode == 0, result.stderr
    assert (dirs[0] / "evaluation.json").read_bytes() == (dirs[1] / "evaluation.json").read_bytes()


def write_hp(tmp_path):
    hp = tmp_path / "hp2.json"
    hp.write_text(json.dumps({"forest": {"n_trees": 2, "max_depth": 3}}), encoding="utf-8")
    return hp


def test_synth_with_injections(tmp_path, small_plan):
    inj = tmp_path / "inj.json"
    inj.write_text(
        json.dumps([{"kind": "stuck_at", "at_s": 300, "duration_s": 120}]), encoding="utf-8"
    )
    out_dir = tmp_path / "inj_out"
    result = run_cli(
        "synth", "--plan", small_plan, "--injections", inj, "--seed", 4, "--out-dir", out_dir
    )
    assert result.returncode == 0, result.stderr

    from pdmecon.ingest import load_historian_csv, select_channel
    import numpy as np

    frame, _ = load_historian_csv(out_dir / "historian.csv")
    values = select_channel(frame, "DPIT301").values
    assert np.ptp(values[300:420]) == 0.0


def test_exit_codes(tmp_path):
    # unknown flag -> validation error
    assert run_cli("synth", "--bogus", "1").returncode == 1
    # missing input file -> validation error
    assert run_cli("ingest", "--csv", tmp_path / "missing.csv").returncode == 1
    # missing required seed -> validation error
    result = run_cli("synth", "--out-dir", tmp_path)
    assert result.returncode == 1
    assert "--seed" in result.stderr
    # unknown subcommand
    assert run_cli("frobnicate").returncode == 1


def test_no_temp_files_left_behind(tmp_path, historian_csv):
    out_dir = tmp_path / "clean_run"
    result = run_cli("detect", "--csv", historian_csv, "--out-dir", out_dir)
    assert result.returncode == 0, result.stderr
    leftovers = [p.name for p in out_dir.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_bad_scenario_config_is_validation_error(tmp_path, historian_csv):
    model_dir = tmp_path / "m"
    run_cli("train", "--csv", historian_csv, "--kind", "linear",
            "--min-lag", 2, "--max-lag", 6, "--seed", 1, "--out-dir", model_dir)
    scenario = tmp_path / "bad_scenario.json"
    scenario.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "plan": {"duration_s": 300, "segments": [], "warmup_s": 0},
                "policies": {
                    "preventive": {"kind": "preventive", "cycles": 100},
                    "predictive": {"kind": "predictive"},
                },
            }
        ),
        encoding="utf-8",
    )
    result = run_cli("simulate", "--scenario", scenario, "--model", model_dir / "model.json",
                     "--seed", 1, "--out-dir", tmp_path)
    assert result.returncode == 1
    assert "cycles" in result.stderr


def test_out_dir_env_var(tmp_path, small_plan):
    env_dir = tmp_path / "from_env"
    result = run_cli(
        "synth", "--plan", small_plan, "--seed", 2, env={"PDMECON_OUT_DIR": str(env_dir)}
    )
    assert result.returncode == 0, result.stderr
    assert (env_dir / "historian.csv").exists()


# --- malformed inputs: exit 1 with the file or field named -------------------

def run_main(argv):
    """cli.main in-process; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


SMALL_PLAN = {"duration_s": 300, "segments": [[100, 33.0]], "noise_sigma_kpa": 0.2, "warmup_s": 30}


SMALL_TREES = {"forest": {"n_trees": 2, "max_depth": 3}, "boost": {"n_stages": 3, "max_depth": 2}}


def small_scenario():
    doc = json.loads(pdmecon.data_path("scenario2_avoid_breakdown.json").read_text())
    doc["plan"] = {**doc["plan"], "duration_s": 400, "warmup_s": 0}
    doc["injections"][0]["at_s"] = 200
    return doc


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small historian CSV, linear, forest and boost models on lags 2..4, the
    bundled ledger, a shortened bundled scenario and the comparison it produces."""
    d = tmp_path_factory.mktemp("inputs")
    (d / "plan.json").write_text(json.dumps(SMALL_PLAN))
    (d / "scenario.json").write_text(json.dumps(small_scenario()))
    (d / "ledger.json").write_text(pdmecon.data_path("sample_ledger.json").read_text())
    (d / "hyperparams.json").write_text(json.dumps(SMALL_TREES))
    train = ["train", "--csv", d / "historian.csv", "--min-lag", 2, "--max-lag", 4, "--seed", 1, "--out-dir", d]
    steps = [
        ["synth", "--plan", d / "plan.json", "--seed", 1, "--out-dir", d],
        train,
        train + ["--kind", "forest", "--hyperparams", d / "hyperparams.json", "--out", "forest_model.json"],
        train + ["--kind", "boost", "--hyperparams", d / "hyperparams.json", "--out", "boost_model.json"],
        ["simulate", "--scenario", d / "scenario.json", "--model", d / "model.json", "--seed", 1, "--out-dir", d],
    ]
    for argv in steps:
        code, err = run_main(argv)
        assert code == 0, err
    return d


def command(d, name, out):
    """Valid argv for one command; a test swaps one input path for a malformed file."""
    return {
        "synth": ["synth", "--plan", d / "plan.json", "--seed", 1, "--out-dir", out],
        "ingest": ["ingest", "--csv", d / "historian.csv", "--out-dir", out],
        "train": ["train", "--csv", d / "historian.csv", "--kind", "forest", "--min-lag", 2,
                  "--max-lag", 4, "--seed", 1, "--out-dir", out],
        "evaluate": ["evaluate", "--csv", d / "historian.csv", "--kinds", "linear,forest,boost", "--k", 1,
                     "--min-lag", 2, "--max-lag", 4, "--seed", 1, "--out-dir", out],
        "detect": ["detect", "--csv", d / "historian.csv", "--out-dir", out],
        "simulate": ["simulate", "--scenario", d / "scenario.json", "--model", d / "model.json",
                     "--seed", 1, "--out-dir", out],
        "cba": ["cba", "--ledger", d / "ledger.json", "--bridge", d / "comparison.json", "--trials", 20,
                "--seed", 1, "--out-dir", out],
    }[name]


def with_flag(argv, flag, path):
    argv = list(argv)
    if flag in argv:
        argv[argv.index(flag) + 1] = path
    else:
        argv += [flag, path]
    return argv


def edited(doc, *path, value=None, drop=False):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def model_doc(d, name="model.json"):
    return json.loads((d / name).read_text())


def tree_edited(d, kind, i, field, change):
    """The trained forest or boost model with change() applied to one field of tree i."""
    doc = model_doc(d, f"{kind}_model.json")
    tree = doc["params"]["trees" if kind == "forest" else "stages"][i]
    tree[field] = change(tree[field])
    return doc


def ledger_doc(d):
    return json.loads((d / "ledger.json").read_text())


def comparison_doc(d):
    return json.loads((d / "comparison.json").read_text())


# (id, command, flag, malformed document or raw text from the inputs dir, text stderr must hold)
MALFORMED = [
    ("plan-list", "synth", "--plan", lambda d: [SMALL_PLAN], "trace plan must be a JSON object"),
    ("plan-short-segment", "synth", "--plan", lambda d: {"segments": [[1]]}, "trace plan.segments[0]"),
    ("plan-string-duration", "synth", "--plan", lambda d: {"duration_s": "10"}, "trace plan.duration_s"),
    ("injection-missing-peak", "synth", "--injections",
     lambda d: [{"kind": "spike_ramp", "at_s": 10, "rise_s": 5}], "injections[0].peak_kpa"),
    ("injections-number", "synth", "--injections", lambda d: 3, "injections.injections must be an array"),
    ("ingest-config-list", "ingest", "--config", lambda d: [], "ingest config must be a JSON object"),
    ("ingest-sentinels-number", "ingest", "--config", lambda d: {"sentinel_tokens": 5},
     "ingest config.sentinel_tokens"),
    ("ingest-unknown-field", "ingest", "--config", lambda d: {"bogus": 1}, "bogus"),
    ("hyperparams-string", "train", "--hyperparams", lambda d: {"forest": {"n_trees": "3"}},
     "hyperparameters.forest.n_trees"),
    ("hyperparams-number", "train", "--hyperparams", lambda d: {"forest": 3}, "hyperparameters.forest"),
    ("detector-config-list", "detect", "--config", lambda d: [], "detector config must be a JSON object"),
    ("detector-string-window", "detect", "--config", lambda d: {"mad_window": "11"},
     "detector config.mad_window"),
    ("scenario-list", "simulate", "--scenario", lambda d: [small_scenario()], "scenario must be a JSON object"),
    ("scenario-plan-list", "simulate", "--scenario", lambda d: edited(small_scenario(), "plan", value=[]),
     "scenario.plan"),
    ("scenario-fouling-string", "simulate", "--scenario",
     lambda d: edited(small_scenario(), "econ", "fouling_rate_kpa_per_s", value="x"),
     "scenario.econ.fouling_rate_kpa_per_s"),
    ("scenario-grace-string", "simulate", "--scenario",
     lambda d: edited(small_scenario(), "policies", "preventive", "breakdown", "grace_s", value="5"),
     "scenario.policies.preventive.breakdown.grace_s"),
    ("model-list", "simulate", "--model", lambda d: [model_doc(d)], "model must be a JSON object"),
    ("model-missing-intercept", "simulate", "--model",
     lambda d: edited(model_doc(d), "params", "intercept", drop=True), "model.params.intercept"),
    ("model-tree-short-threshold", "simulate", "--model",
     lambda d: tree_edited(d, "forest", 0, "threshold", lambda t: t[:-1]), "model.params.trees[0].threshold"),
    ("model-tree-backward-child", "simulate", "--model",
     lambda d: tree_edited(d, "forest", 0, "left", lambda c: [0] + c[1:]), "model.params.trees[0].left[0]"),
    ("model-tree-shared-child", "simulate", "--model",
     lambda d: tree_edited(d, "forest", 0, "right", lambda c: [c[0] - 1] + c[1:]), "is a child of 2 nodes"),
    ("model-tree-one-child", "simulate", "--model",
     lambda d: tree_edited(d, "boost", 0, "right", lambda c: [-1] + c[1:]), "model.params.stages[0].right[0] is -1"),
    ("model-tree-feature-range", "simulate", "--model",
     lambda d: tree_edited(d, "forest", 1, "feature", lambda f: [3] + f[1:]), "model.params.trees[1].feature[0]"),
    ("model-forest-mixed-width", "simulate", "--model",
     lambda d: tree_edited(d, "forest", 1, "n_features", lambda n: 5), "model.params.trees[1].n_features"),
    ("model-boost-stage-width", "simulate", "--model",
     lambda d: tree_edited(d, "boost", 1, "n_features", lambda n: 5), "model.params.stages[1].n_features"),
    ("model-forest-tree-count", "simulate", "--model",
     lambda d: edited(model_doc(d, "forest_model.json"), "hyperparams", "n_trees", value=3), "model.hyperparams.n_trees"),
    ("model-boost-stage-count", "simulate", "--model",
     lambda d: edited(model_doc(d, "boost_model.json"), "hyperparams", "n_stages", value=2), "model.hyperparams.n_stages"),
    ("ledger-list", "cba", "--ledger", lambda d: [ledger_doc(d)], "ledger must be a JSON object"),
    ("ledger-amount-string", "cba", "--ledger",
     lambda d: edited(ledger_doc(d), "items", 0, "amount", value={"dist": "point", "value": "abc"}),
     "amount.value"),
    ("ledger-amount-number", "cba", "--ledger", lambda d: edited(ledger_doc(d), "items", 0, "amount", value=5),
     "amount must be a JSON object"),
    ("ledger-amount-nan", "cba", "--ledger",
     lambda d: json.dumps(edited(ledger_doc(d), "items", 0, "amount", value={"dist": "point", "value": math.nan})),
     "bad.json: NaN is not allowed"),
    ("bridge-list", "cba", "--bridge", lambda d: [comparison_doc(d)], "comparison must be a JSON object"),
    ("bridge-missing-uptime", "cba", "--bridge",
     lambda d: edited(comparison_doc(d), "outcomes", "preventive", "uptime_s", drop=True),
     "comparison.outcomes.preventive.uptime_s"),
    ("ledger-uniform-overflow", "cba", "--ledger",
     lambda d: edited(ledger_doc(d), "items", 0, "amount", value={"dist": "uniform", "low": -1e308, "high": 1e308}),
     "overflows"),
    ("ledger-net-overflow", "cba", "--ledger",
     lambda d: edited(
         edited(ledger_doc(d), "items", 0, "amount", value={"dist": "point", "value": 1e308}),
         "items", 1, "amount", value={"dist": "point", "value": 1e308},
     ),
     "not finite"),
]


@pytest.mark.parametrize("case", MALFORMED, ids=[c[0] for c in MALFORMED])
def test_malformed_input_exits_1_naming_the_field(tmp_path, inputs, case):
    _, name, flag, make, expected = case
    doc = make(inputs)
    bad = tmp_path / "bad.json"
    bad.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    code, err = run_main(with_flag(command(inputs, name, out), flag, bad))
    assert code == 1, err
    assert expected in err, err
    assert not out.exists() or not any(out.iterdir())  # nothing written, not even a temp file


# --- property: any mutation of a valid config exits 0 or 1 ------------------

# Integers stay small because they size the work (durations, tree counts,
# windows); floats stay moderate so an integral float cannot do the same.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.floats(-1e3, 1e3, allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


def locations(doc, path=()):
    yield path
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from locations(value, path + (key,))


@st.composite
def mutated(draw, doc):
    """doc with one key dropped, one value replaced by arbitrary JSON, or wrapped in a list."""
    op = draw(st.sampled_from(["drop", "replace", "wrap"]))
    if op == "wrap":
        return [doc]
    path = draw(st.sampled_from([p for p in locations(doc) if p or op == "replace"]))
    if not path:
        return draw(JSON_VALUES)
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if op == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON_VALUES)
    return doc


# (id, command, flag, valid document to mutate)
MUTATED_TARGETS = [
    ("simulate--scenario", "simulate", "--scenario", lambda d: small_scenario()),
    ("simulate--model", "simulate", "--model", model_doc),
    ("simulate--model-forest", "simulate", "--model", lambda d: model_doc(d, "forest_model.json")),
    ("cba--ledger", "cba", "--ledger", ledger_doc),
    ("cba--bridge", "cba", "--bridge", comparison_doc),
    ("synth--plan", "synth", "--plan", lambda d: SMALL_PLAN),
    ("synth--injections", "synth", "--injections", lambda d: [{"kind": "stuck_at", "at_s": 50, "duration_s": 20}]),
    ("evaluate--hyperparams", "evaluate", "--hyperparams", lambda d: SMALL_TREES),
    ("ingest--config", "ingest", "--config",
     lambda d: {"sentinel_tokens": ["Bad Input"], "timestamp_formats": ["iso8601"]}),
    ("detect--config", "detect", "--config", lambda d: {"mad_window": 11, "stuck_window": 30, "var_threshold": 25.0}),
]


@pytest.mark.parametrize("target", MUTATED_TARGETS, ids=[t[0] for t in MUTATED_TARGETS])
@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_config_exits_0_or_1(tmp_path, inputs, target, data):
    _, name, flag, base = target
    doc = data.draw(mutated(base(inputs)), label="document")
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, err = run_main(with_flag(command(inputs, name, tmp_path / "out"), flag, path))
    assert code in (0, 1), err
