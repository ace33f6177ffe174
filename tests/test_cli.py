import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import warnings

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
    assert doc["schema_version"] == 3
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


@pytest.mark.parametrize(
    "values, rows",
    [
        ([30.0] * 100, [["StuckAt", "0", "99", "100.000"]]),  # one event: the whole flat trace
        ([30.0 + 0.01 * t for t in range(400)], [["(no", "events)"]]),  # a slow ramp flags nothing
    ],
    ids=["one-event", "no-events"],
)
def test_detect_prints_a_table_of_the_events(tmp_path, values, rows):
    csv_path = tmp_path / "trace.csv"
    csv_path.write_text(
        "Timestamp,DPIT301\n" + "".join(f"1970-01-01T00:{t // 60:02d}:{t % 60:02d},{v!r}\n" for t, v in enumerate(values))
    )
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["detect", "--csv", str(csv_path), "--out-dir", str(tmp_path / "out")]) == 0
    assert [line.split() for line in stdout.getvalue().splitlines()] == [["kind", "start", "end", "severity"], *rows]


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
                    },
                    "predictive": {
                        "kind": "predictive",
                        "limit_kpa": 40.0,
                        "hard_limit_kpa": 50.0,
                        "horizon_s": 30,
                        "schedule_window_s": 120,
                        "maint_duration_s": 100,
                    },
                },
                "breakdown": {"fail_limit_kpa": 50.0, "grace_s": 5, "repair_duration_s": 400},
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

    from pdmecon.ingest import load_historian_csv
    import numpy as np

    frame, _ = load_historian_csv(out_dir / "historian.csv")
    values = frame.channel("DPIT301")
    assert np.ptp(values[300:420]) == 0.0


def test_synth_overlapping_injections_read_the_clean_trace(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"duration_s": 1200, "segments": [], "noise_sigma_kpa": 0.0, "warmup_s": 0}))
    inj = tmp_path / "inj.json"
    inj.write_text(json.dumps([
        {"kind": "spike_ramp", "at_s": 600, "peak_kpa": 60.0, "rise_s": 120},
        {"kind": "stuck_at", "at_s": 650, "duration_s": 300},
    ]))
    code, err = run_main(["synth", "--plan", plan, "--injections", inj, "--seed", 1, "--out-dir", tmp_path])
    assert code == 0, err

    from pdmecon.ingest import load_historian_csv

    frame, _ = load_historian_csv(tmp_path / "historian.csv")
    values = frame.channel("DPIT301")
    assert values[649] == 30.0 + 30.0 * 49 / 120
    assert set(values[650:950]) == {30.0}  # the stuck reading holds the clean trace, not the ramp
    assert values[950] == 60.0


def test_exit_codes(tmp_path, historian_csv):
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
    # --out-dir naming an existing file
    not_a_dir = tmp_path / "not_a_dir"
    not_a_dir.write_text("", encoding="utf-8")
    result = run_cli("synth", "--seed", 1, "--out-dir", not_a_dir)
    assert result.returncode == 1
    assert f"cannot use {not_a_dir} as the output directory" in result.stderr
    # an output file that is an existing directory
    taken = tmp_path / "taken"
    for target, argv in (
        ("model.json", ["train", "--csv", historian_csv, "--min-lag", 2, "--max-lag", 4, "--seed", 1]),
        ("historian.csv", ["synth", "--plan", tmp_path / "plan.json", "--seed", 1]),
    ):
        (taken / target).mkdir(parents=True)
        result = run_cli(*argv, "--out-dir", taken)
        assert result.returncode == 1, result.stderr
        assert f"cannot write {taken / target}: it is a directory" in result.stderr
    # an output file under an existing file
    (taken / "file").write_text("", encoding="utf-8")
    result = run_cli("synth", "--plan", tmp_path / "plan.json", "--seed", 1, "--out-dir", taken, "--out", "file/x.csv")
    assert result.returncode == 1, result.stderr
    assert f"cannot write {taken / 'file' / 'x.csv'}" in result.stderr


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


# a plan whose reading is -1e308 throughout, and a spike from it to 1e308: the rise overflows a float64
LOW_PLAN = {"duration_s": 100, "segments": [], "warmup_s": 0, "noise_sigma_kpa": 0, "baseline_kpa": -1e308}
HIGH_SPIKE = {"kind": "spike_ramp", "at_s": 10, "peak_kpa": 1e308, "rise_s": 5}


SMALL_TREES = {"forest": {"n_trees": 2, "max_depth": 3}, "boost": {"n_stages": 3, "max_depth": 2}}


def small_scenario():
    doc = json.loads(pdmecon.data_path("scenario2_avoid_breakdown.json").read_text())
    doc["plan"] = {**doc["plan"], "duration_s": 400, "warmup_s": 0}
    doc["injections"][0]["at_s"] = 200
    return doc


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small historian CSV, linear, forest and boost models on lags 2..4, the
    bundled ledger, a shortened bundled scenario, the comparison it produces and
    that comparison with 2 maintenances avoided (maintained.json)."""
    d = tmp_path_factory.mktemp("inputs")
    (d / "plan.json").write_text(json.dumps(SMALL_PLAN))
    (d / "spike.json").write_text(json.dumps([HIGH_SPIKE]))
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
    comparison = comparison_doc(d)
    count = comparison["outcomes"]["predictive"]["maintenance_count"] + 2  # 2 maintenances avoided
    maintained = edited(tampered(comparison, "preventive", maintenance_count=count), "deltas", drop=True)
    (d / "maintained.json").write_text(json.dumps(maintained))
    return d


def command(d, name, out):
    """Valid argv for one command; a test swaps one input path for a malformed file."""
    return {
        "synth": ["synth", "--plan", d / "plan.json", "--seed", 1, "--out-dir", out],
        # synth with a spike from at_s 10 to peak_kpa 1e308
        "synth-spike": ["synth", "--plan", d / "plan.json", "--injections", d / "spike.json", "--seed", 1,
                        "--out-dir", out],
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
        "cba-priced": ["cba", "--ledger", d / "ledger.json", "--bridge", d / "comparison.json", "--trials", 20,
                       "--seed", 1, "--unit-maintenance-cost", 10, "--out-dir", out],
        # cba bridging the comparison with its preventive maintenance count raised: 2 maintenances avoided
        "cba-maintained": ["cba", "--ledger", d / "ledger.json", "--bridge", d / "maintained.json", "--trials", 20,
                           "--seed", 1, "--out-dir", out],
    }[name]


def with_flag(argv, flag, path):
    """argv with flag set to path, or without flag when path is None."""
    argv = list(argv)
    if path is None:
        at = argv.index(flag)
        del argv[at : at + 2]
    elif flag in argv:
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


def tree_edited(d, kind, i, **changes):
    """The trained forest or boost model with each change(old value or None) applied to its field of tree i."""
    doc = model_doc(d, f"{kind}_model.json")
    tree = doc["params"]["trees" if kind == "forest" else "stages"][i]
    for field, change in changes.items():
        tree[field] = change(tree.get(field))
    return doc


def ledger_doc(d):
    return json.loads((d / "ledger.json").read_text())


def comparison_doc(d):
    return json.loads((d / "comparison.json").read_text())


def rated(doc, policy, rate):
    """One outcome of a comparison document as if simulated at another revenue rate."""
    outcome = dict(doc["outcomes"][policy], revenue_rate_per_s=rate)
    outcome["revenue_units"] = outcome["uptime_s"] * rate
    return outcome


class FlagValue(str):
    """A malformed flag value given on the command line rather than as a file."""


def tampered(doc, policy, **fields):
    """A comparison document with fields of one outcome replaced."""
    return edited(doc, "outcomes", policy, value={**doc["outcomes"][policy], **fields})


def lengthened(doc, policy, duration):
    """A comparison document in which one outcome ran for another duration, the extra seconds up."""
    outcome = doc["outcomes"][policy]
    uptime = duration - outcome["downtime_s"]
    return tampered(doc, policy, duration_s=duration, uptime_s=uptime,
                    revenue_units=uptime * outcome["revenue_rate_per_s"])


def beyond_2_53(doc):
    """A comparison document whose outcomes both ran 10**400 seconds longer, the extra seconds up."""
    for policy, outcome in doc["outcomes"].items():
        doc = tampered(doc, policy, duration_s=outcome["duration_s"] + 10**400, uptime_s=outcome["uptime_s"] + 10**400)
    return doc


# (id, command, flag, malformed document, raw text or flag value from the inputs dir (None leaves the flag
# out), text stderr must hold)
MALFORMED = [
    ("plan-list", "synth", "--plan", lambda d: [SMALL_PLAN], "trace plan must be a JSON object"),
    ("plan-short-segment", "synth", "--plan", lambda d: {"segments": [[1]]}, "trace plan.segments[0]"),
    ("plan-string-duration", "synth", "--plan", lambda d: {"duration_s": "10"}, "trace plan.duration_s"),
    ("plan-sample-period", "synth", "--plan", lambda d: {**SMALL_PLAN, "sample_period_s": 1},
     "error: unknown field trace plan.sample_period_s"),
    ("plan-zero-duration", "synth", "--plan", lambda d: {**SMALL_PLAN, "duration_s": 0, "segments": []},
     "error: trace plan: duration_s must be >= 1"),
    ("plan-negative-warmup", "synth", "--plan", lambda d: {**SMALL_PLAN, "warmup_s": -1},
     "error: trace plan: warmup_s must be >= 0"),
    ("plan-float-overflow", "synth", "--plan", lambda d: '{"baseline_kpa": 1e999}', "bad.json: 1e999 overflows a float"),
    # 10^12 readings cannot be allocated: numpy raises MemoryError at once
    ("plan-duration-unallocatable", "synth", "--plan", lambda d: {**SMALL_PLAN, "duration_s": 10**12},
     "error: not enough memory for a run of duration_s 1000000000000; use a shorter duration_s"),
    # numpy cannot size an array of 10^19 or 2^62 readings
    ("plan-duration-unsizable", "synth", "--plan", lambda d: {**SMALL_PLAN, "duration_s": 10**19},
     "error: trace plan: duration_s must be <= 2^53 = 9007199254740992"),
    ("plan-duration-too-big", "synth", "--plan", lambda d: {**SMALL_PLAN, "duration_s": 2**62},
     "error: trace plan: duration_s must be <= 2^53 = 9007199254740992"),
    ("plan-warmup-beyond-float", "synth", "--plan", lambda d: {**SMALL_PLAN, "warmup_s": 10**400},
     "error: trace plan: warmup_s must be at most the largest float64, 1.79769e+308"),
    # baseline_kpa x second overflows in the warmup ramp, from its second second
    ("plan-baseline-overflows-ramp", "synth", "--plan", lambda d: {**SMALL_PLAN, "baseline_kpa": 1e308},
     "error: baseline_kpa 1e+308 takes the reading at second 2 beyond float64 range"),
    ("plan-noise-overflows", "synth", "--plan", lambda d: {**SMALL_PLAN, "noise_sigma_kpa": 1e308},
     "error: noise_sigma_kpa 1e+308 takes the reading at second"),
    ("injection-rise-beyond-float", "synth", "--injections",
     lambda d: [{"kind": "spike_ramp", "at_s": 10, "peak_kpa": 60.0, "rise_s": 10**400}],
     "error: injections[0]: rise_s must be at most the largest float64, 1.79769e+308"),
    ("injection-spike-zero-rise", "synth", "--injections",
     lambda d: [{"kind": "spike_ramp", "at_s": 10, "peak_kpa": 60.0, "rise_s": 0}],
     "error: injections[0]: SpikeRamp requires at_s >= 0 and rise_s >= 1"),
    ("injection-stuck-zero-duration", "synth", "--injections",
     lambda d: [{"kind": "stuck_at", "at_s": 10, "duration_s": 0}],
     "error: injections[0]: StuckAt requires at_s >= 0 and duration_s >= 1"),
    ("spike-rise-overflows", "synth-spike", "--plan", lambda d: LOW_PLAN,
     "error: peak_kpa 1e+308 minus its prior reading -1e+308 is beyond float64 range"),
    ("injection-missing-peak", "synth", "--injections",
     lambda d: [{"kind": "spike_ramp", "at_s": 10, "rise_s": 5}], "injections[0].peak_kpa"),
    ("injections-number", "synth", "--injections", lambda d: 3, "error: injections must be an array, got 3"),
    ("injections-entry-number", "synth", "--injections", lambda d: [3],
     "error: injections[0] must be a JSON object, got 3"),
    ("injections-object-entry-number", "synth", "--injections", lambda d: {"injections": [3]},
     "error: injections[0] must be a JSON object, got 3"),
    ("ingest-config-list", "ingest", "--config", lambda d: [], "ingest config must be a JSON object"),
    ("ingest-sentinels-number", "ingest", "--config", lambda d: {"sentinel_tokens": 5},
     "ingest config.sentinel_tokens"),
    ("ingest-unknown-field", "ingest", "--config", lambda d: {"bogus": 1}, "bogus"),
    ("hyperparams-string", "train", "--hyperparams", lambda d: {"forest": {"n_trees": "3"}},
     "hyperparameters.forest.n_trees"),
    ("hyperparams-number", "train", "--hyperparams", lambda d: {"forest": 3}, "hyperparameters.forest"),
    ("hyperparams-min-samples-leaf-zero", "train", "--hyperparams", lambda d: {"forest": {"min_samples_leaf": 0}},
     "error: hyperparameters.forest: min_samples_leaf must be >= 1"),
    ("detector-config-list", "detect", "--config", lambda d: [], "detector config must be a JSON object"),
    ("detector-string-window", "detect", "--config", lambda d: {"mad_window": "11"},
     "detector config.mad_window"),
    ("detector-zero-stuck-duration", "detect", "--config", lambda d: {"stuck_min_duration": 0},
     "error: detector config: stuck_min_duration must be >= 1"),
    # the series has SMALL_PLAN's 300 readings
    ("detector-stuck-window-beyond-series", "detect", "--config", lambda d: {"stuck_window": 301},
     "error: stuck_window 301 larger than series (300)"),
    ("detector-var-window-beyond-series", "detect", "--config", lambda d: {"var_window": 301},
     "error: var_window 301 larger than series (300)"),
    # the rolling variance's sums overflow float64 on readings this large
    ("detect-readings-beyond-the-overflow-bound", "detect", "--csv",
     lambda d: "Timestamp,DPIT301\n" + "".join(
         f"2020-02-26T15:{i // 60:02d}:{i % 60:02d},{i % 7}e200\n" for i in range(200)),
     "error: cannot run the detectors on readings as large as |x| = 6e+200: with 200 readings, "
     "the rolling variance overflows float64 beyond |x| = 4.74038e+152"),
    ("scenario-list", "simulate", "--scenario", lambda d: [small_scenario()], "scenario must be a JSON object"),
    ("scenario-plan-list", "simulate", "--scenario", lambda d: edited(small_scenario(), "plan", value=[]),
     "scenario.plan"),
    ("scenario-fouling-string", "simulate", "--scenario",
     lambda d: edited(small_scenario(), "econ", "fouling_rate_kpa_per_s", value="x"),
     "scenario.econ.fouling_rate_kpa_per_s"),
    ("scenario-grace-string", "simulate", "--scenario",
     lambda d: edited(small_scenario(), "breakdown", "grace_s", value="5"), "scenario.breakdown.grace_s"),
    ("scenario-negative-grace", "simulate", "--scenario",
     lambda d: edited(small_scenario(), "breakdown", "grace_s", value=-1),
     "error: scenario.breakdown: grace_s must be >= 0"),
    ("scenario-zero-repair", "simulate", "--scenario",
     lambda d: edited(small_scenario(), "breakdown", "repair_duration_s", value=0),
     "error: scenario.breakdown: repair_duration_s must be >= 1"),
    # every policy runs on the scenario's one plant: a policy has no breakdown rule of its own
    ("scenario-policy-breakdown", "simulate", "--scenario",
     lambda d: edited(small_scenario(), "policies", "preventive", "breakdown", value={"repair_duration_s": 6000}),
     "error: unknown field scenario.policies.preventive.breakdown"),
    # refused while the policies are read, before either one runs
    ("scenario-repair-as-short-as-maintenance", "simulate", "--scenario",
     lambda d: edited(small_scenario(), "breakdown", "repair_duration_s", value=300),
     "error: scenario.policies.preventive: maint_duration_s 300 must be shorter than repair_duration_s 300"),
    ("scenario-repair-shorter-than-predictive-maintenance", "simulate", "--scenario",
     lambda d: edited(small_scenario(), "policies", "predictive", "maint_duration_s", value=2000),
     "error: scenario.policies.predictive: maint_duration_s 2000 must be shorter than repair_duration_s 1800"),
    ("scenario-zero-cycle", "simulate", "--scenario",
     lambda d: edited(small_scenario(), "policies", "preventive", "cycle_s", value=0),
     "error: scenario.policies.preventive: cycle_s and maint_duration_s must be >= 1"),
    ("scenario-zero-horizon", "simulate", "--scenario",
     lambda d: edited(small_scenario(), "policies", "predictive", "horizon_s", value=0),
     "error: scenario.policies.predictive: horizon_s, schedule_window_s, maint_duration_s must be >= 1"),
    ("scenario-duration-unallocatable", "simulate", "--scenario",
     lambda d: edited(small_scenario(), "plan", "duration_s", value=10**12),
     "error: not enough memory for a run of duration_s 1000000000000; use a shorter duration_s"),
    ("scenario-warmup-beyond-float", "simulate", "--scenario",
     lambda d: edited(small_scenario(), "plan", "warmup_s", value=10**400),
     "error: scenario.plan: warmup_s must be at most the largest float64, 1.79769e+308"),
    ("scenario-rise-beyond-float", "simulate", "--scenario",
     lambda d: edited(small_scenario(), "injections", 0, "rise_s", value=10**400),
     "error: scenario.injections[0]: rise_s must be at most the largest float64, 1.79769e+308"),
    ("scenario-horizon-unsizable", "simulate", "--scenario",
     lambda d: edited(small_scenario(), "policies", "predictive", "horizon_s", value=10**19),
     "error: scenario.policies.predictive: horizon_s must be <= 2^53 = 9007199254740992"),
    # a forecast buffer of 2^40 rows cannot be allocated: numpy raises MemoryError at once
    ("scenario-horizon-unallocatable", "simulate", "--scenario",
     lambda d: edited(small_scenario(), "policies", "predictive", "horizon_s", value=2**40),
     "error: not enough memory for a forecast of horizon_s 1099511627776; use a shorter horizon_s"),
    # fouling_rate_kpa_per_s x second overflows from the second second
    ("scenario-fouling-overflows", "simulate", "--scenario",
     lambda d: edited(small_scenario(), "econ", "fouling_rate_kpa_per_s", value=1e308),
     "error: fouling_rate_kpa_per_s 1e+308 takes the reading at second 2 beyond float64 range"),
    ("scenario-spike-rise-overflows", "simulate", "--scenario",
     lambda d: {**small_scenario(), "plan": LOW_PLAN, "injections": [HIGH_SPIKE]},
     "error: peak_kpa 1e+308 minus its prior reading -1e+308 is beyond float64 range"),
    ("scenario-negative-fouling", "simulate", "--scenario",
     lambda d: edited(small_scenario(), "econ", "fouling_rate_kpa_per_s", value=-0.5),
     "error: scenario.econ: fouling_rate_kpa_per_s must be >= 0"),
    # the preventive outcome's 285 s of uptime x the rate overflows
    ("scenario-revenue-overflows", "simulate", "--scenario",
     lambda d: edited(small_scenario(), "econ", "revenue_rate_per_s", value=1e306),
     "error: revenue_rate_per_s 1e+306 x uptime_s 285 is beyond float64 range"),
    ("scenario-negative-revenue-rate", "simulate", "--scenario",
     lambda d: edited(small_scenario(), "econ", "revenue_rate_per_s", value=-1),
     "error: scenario.econ: revenue_rate_per_s must be >= 0"),
    ("model-list", "simulate", "--model", lambda d: [model_doc(d)], "model must be a JSON object"),
    ("model-missing-intercept", "simulate", "--model",
     lambda d: edited(model_doc(d), "params", "intercept", drop=True), "model.params.intercept"),
    ("model-coefficient-bool", "simulate", "--model",
     lambda d: edited(model_doc(d), "params", "coefficients", 0, value=True),
     "model.params.coefficients[0] must be a number"),
    ("model-tree-string-threshold", "simulate", "--model",
     lambda d: tree_edited(d, "forest", 0, threshold=lambda t: t[:2] + ["1"] + t[3:]),
     "model.params.trees[0].threshold[2] must be a number"),
    ("model-tree-fractional-feature", "simulate", "--model",
     lambda d: tree_edited(d, "forest", 0, feature=lambda f: [1.5] + f[1:]),
     "model.params.trees[0].feature[0] must be an integer"),
    ("model-tree-huge-feature", "simulate", "--model",
     lambda d: tree_edited(d, "boost", 0, feature=lambda f: [2**64] + f[1:]),
     "model.params.stages[0].feature holds an integer out of range"),
    ("model-tree-feature-minus-2", "simulate", "--model",
     lambda d: tree_edited(d, "forest", 0, feature=lambda f: [-2] + f[1:]),
     "model.params.trees[0]: feature[0] -2 is not -1 or a feature index below 3"),
    ("model-tree-short-threshold", "simulate", "--model",
     lambda d: tree_edited(d, "forest", 0, threshold=lambda t: t[:-1]), "model.params.trees[0]: threshold has"),
    ("model-tree-long-value", "simulate", "--model",
     lambda d: tree_edited(d, "boost", 0, value=lambda v: v + [0.0]), "model.params.stages[0]: value has"),
    # a leaf in front of the root: it is a whole tree, and the root's nodes follow it
    ("model-tree-leaf-ends-early", "simulate", "--model",
     lambda d: tree_edited(d, "forest", 0, feature=lambda f: [-1] + f, value=lambda v: [0.0] + v),
     "model.params.trees[0]: node 0 completes the tree, but"),
    # without its last leaf, the last split has one child
    ("model-tree-one-child", "simulate", "--model",
     lambda d: tree_edited(d, "boost", 0, feature=lambda f: f[:-1], value=lambda v: v[:-1]),
     "1 open subtree(s) have no nodes"),
    ("model-tree-feature-range", "simulate", "--model",
     lambda d: tree_edited(d, "forest", 1, feature=lambda f: [3] + f[1:]), "model.params.trees[1]: feature[0] 3"),
    # schema 2's per-node children and per-tree hyperparameters are not fields of a tree
    ("model-tree-left", "simulate", "--model",
     lambda d: tree_edited(d, "forest", 0, left=lambda _: [1, -1, -1]), "unknown field model.params.trees[0].left"),
    ("model-tree-params", "simulate", "--model",
     lambda d: tree_edited(d, "forest", 0, params=lambda _: {"max_depth": None, "min_samples_leaf": 50}),
     "unknown field model.params.trees[0].params"),
    ("model-forest-mixed-width", "simulate", "--model",
     lambda d: tree_edited(d, "forest", 1, n_features=lambda n: 5), "model.params: trees[1].n_features is 5"),
    ("model-boost-stage-width", "simulate", "--model",
     lambda d: tree_edited(d, "boost", 1, n_features=lambda n: 5), "model.params: stages[1].n_features is 5"),
    ("model-forest-tree-count", "simulate", "--model",
     lambda d: edited(model_doc(d, "forest_model.json"), "hyperparams", "n_trees", value=3),
     "model.params: trees holds 2 trees, but hyperparams.n_trees is 3"),
    ("model-boost-stage-count", "simulate", "--model",
     lambda d: edited(model_doc(d, "boost_model.json"), "hyperparams", "n_stages", value=2),
     "model.params: stages holds 3 trees, but hyperparams.n_stages is 2"),
    ("model-boost-learning-rate", "simulate", "--model",
     lambda d: edited(model_doc(d, "boost_model.json"), "hyperparams", "learning_rate", value=5),
     "model.hyperparams: learning_rate must be in (0, 1]"),
    ("model-forest-max-depth", "simulate", "--model",
     lambda d: edited(model_doc(d, "forest_model.json"), "hyperparams", "max_depth", value=-4),
     "model.hyperparams: max_depth must be >= 0 or None"),
    ("model-lag-spec-width", "simulate", "--model", lambda d: edited(model_doc(d), "lag_spec", "max_lag", value=5),
     "scenario.policies.predictive: model expects 3 features but the lag spec provides 4"),
    ("ledger-list", "cba", "--ledger", lambda d: [ledger_doc(d)], "ledger must be a JSON object"),
    ("ledger-amount-string", "cba", "--ledger",
     lambda d: edited(ledger_doc(d), "items", 0, "amount", value={"dist": "point", "value": "abc"}),
     "amount.value"),
    ("ledger-amount-number", "cba", "--ledger", lambda d: edited(ledger_doc(d), "items", 0, "amount", value=5),
     "amount must be a JSON object"),
    ("ledger-uniform-reversed", "cba", "--ledger",
     lambda d: edited(ledger_doc(d), "items", 0, "amount", value={"dist": "uniform", "low": 5, "high": 1}),
     "Uniform low 5.0 > high 1.0"),
    ("ledger-empty-name", "cba", "--ledger", lambda d: edited(ledger_doc(d), "items", 0, "name", value=""),
     "line item needs a name"),
    ("ledger-amount-nan", "cba", "--ledger",
     lambda d: json.dumps(edited(ledger_doc(d), "items", 0, "amount", value={"dist": "point", "value": math.nan})),
     "bad.json: NaN is not allowed"),
    ("bridge-list", "cba", "--bridge", lambda d: [comparison_doc(d)], "comparison must be a JSON object"),
    ("bridge-revenue-rates-disagree", "cba", "--bridge",
     lambda d: edited(comparison_doc(d), "outcomes", "predictive", value=rated(comparison_doc(d), "predictive", 2.0)),
     "disagree on revenue_rate_per_s"),
    # the deltas a comparison states are the ones its outcomes give
    ("bridge-deltas-disagree", "cba", "--bridge",
     lambda d: edited(comparison_doc(d), "deltas", value={
         **comparison_doc(d)["deltas"], "downtime_avoided_s": -99999, "revenue_delta": -1e6}),
     'error: comparison.deltas must be {"downtime_avoided_s": -5, "maintenance_avoided": -1, "revenue_delta": -5.0}, '
     'as the other fields give it, got {"downtime_avoided_s": -99999,'),
    # time is conserved and revenue consistent in each outcome, but they are not of one run
    ("bridge-durations-disagree", "cba", "--bridge",
     lambda d: lengthened(comparison_doc(d), "predictive", 100_000),
     "error: comparison: outcomes disagree on duration_s"),
    # uptime_s and revenue_units are derived and may be left out; downtime_s may not
    ("bridge-missing-downtime", "cba", "--bridge",
     lambda d: edited(comparison_doc(d), "outcomes", "preventive", "downtime_s", drop=True),
     "error: comparison.outcomes.preventive.downtime_s is required"),
    # time is conserved and revenue is uptime x rate, but no run has negative uptime or counts
    ("bridge-negative-uptime", "cba", "--bridge",
     lambda d: tampered(comparison_doc(d), "predictive", maintenance_count=-50, uptime_s=-1000, downtime_s=1400,
                        revenue_units=-1000.0),
     "error: comparison.outcomes.predictive: uptime_s must be >= 0, got -1000"),
    ("bridge-negative-maintenance-count", "cba", "--bridge",
     lambda d: tampered(comparison_doc(d), "preventive", maintenance_count=-1),
     "error: comparison.outcomes.preventive: maintenance_count must be >= 0, got -1"),
    ("bridge-zero-duration", "cba", "--bridge",
     lambda d: tampered(comparison_doc(d), "predictive", duration_s=0, uptime_s=0, downtime_s=0, revenue_units=0.0),
     "error: comparison.outcomes.predictive: duration_s must be >= 1"),
    # no run lasts beyond 2^53 s, or stops more often than it has seconds of downtime
    ("bridge-duration-too-long", "cba-priced", "--bridge", lambda d: beyond_2_53(comparison_doc(d)),
     "error: comparison.outcomes.predictive: duration_s must be <= 2^53 = 9007199254740992"),
    ("bridge-maintenance-count-beyond-float", "cba-priced", "--bridge",
     lambda d: edited(tampered(comparison_doc(d), "preventive", maintenance_count=10**400), "deltas", drop=True),
     "error: comparison.outcomes.preventive: maintenance_count + breakdown_count must be <= downtime_s"),
    ("bridge-more-stops-than-downtime", "cba-priced", "--bridge",
     lambda d: edited(tampered(comparison_doc(d), "preventive", maintenance_count=2**60), "deltas", drop=True),
     "error: comparison.outcomes.preventive: maintenance_count + breakdown_count must be <= downtime_s"),
    ("bridge-negative-revenue-rate", "cba", "--bridge",
     lambda d: edited(comparison_doc(d), "outcomes", "preventive", value=rated(comparison_doc(d), "preventive", -1.0)),
     "error: comparison.outcomes.preventive: revenue_rate_per_s must be >= 0, got -1.0"),
    ("ledger-uniform-overflow", "cba", "--ledger",
     lambda d: edited(ledger_doc(d), "items", 0, "amount", value={"dist": "uniform", "low": -1e308, "high": 1e308}),
     "overflows"),
    ("ledger-net-overflow", "cba", "--ledger",
     lambda d: edited(
         edited(ledger_doc(d), "items", 0, "amount", value={"dist": "point", "value": 1e308}),
         "items", 1, "amount", value={"dist": "point", "value": 1e308},
     ),
     "not finite"),
    # nested deeper than the parser's recursion allows
    *[
        (f"{flag.strip('-')}-nested-too-deeply", name, flag, lambda d: "[" * 100_000,
         "bad.json nests arrays or objects too deeply to read")
        for name, flag in [("synth", "--plan"), ("train", "--hyperparams"), ("simulate", "--scenario"),
                           ("cba", "--ledger"), ("simulate", "--model"), ("cba", "--bridge")]
    ],
    ("cba-revenue-rate-negative", "cba", "--revenue-rate", lambda d: FlagValue("-2"),
     "--revenue-rate must be a finite number >= 0, got -2.0"),
    ("cba-revenue-rate-nan", "cba", "--revenue-rate", lambda d: FlagValue("nan"),
     "--revenue-rate must be a finite number >= 0, got nan"),
    ("cba-unit-cost-negative", "cba", "--unit-maintenance-cost", lambda d: FlagValue("-10"),
     "--unit-maintenance-cost must be a finite number >= 0, got -10.0"),
    ("cba-unit-cost-infinite", "cba", "--unit-maintenance-cost", lambda d: FlagValue("inf"),
     "--unit-maintenance-cost must be a finite number >= 0, got inf"),
    # the comparison's downtime avoided is -5 s, its maintenance avoided 2 in cba-maintained
    ("cba-revenue-rate-overflows", "cba", "--revenue-rate", lambda d: FlagValue("1e308"),
     "error: revenue_rate 1e+308 x downtime_avoided_s -5 is beyond float64 range"),
    ("cba-unit-cost-overflows", "cba-maintained", "--unit-maintenance-cost", lambda d: FlagValue("1e308"),
     "error: unit_maintenance_cost 1e+308 x maintenance_avoided 2 is beyond float64 range"),
    # each amount is finite, but not their sum over the trials
    ("cba-unit-cost-sums-beyond-float", "cba-maintained", "--unit-maintenance-cost", lambda d: FlagValue("8e307"),
     "error: net benefit is not finite: the ledger's amounts overflow a float when summed"),
    ("cba-zero-trials", "cba", "--trials", lambda d: FlagValue("0"), "error: trials must be >= 1"),
    # a trial index must be one 32-bit seed word, and 10^13 trials are refused before any allocation
    ("cba-trials-past-one-seed-word", "cba", "--trials", lambda d: FlagValue(str(2**32 + 1)),
     "error: trials must be <= 2^32 = 4294967296"),
    ("cba-trials-huge", "cba", "--trials", lambda d: FlagValue("10000000000000"),
     "error: trials must be <= 2^32 = 4294967296"),
    ("seed-missing", "train", "--seed", lambda d: None, "error: --seed is required for this command"),
    ("seed-negative", "synth", "--seed", lambda d: FlagValue("-1"), "error: --seed must be >= 0"),
    ("evaluate-unknown-kind", "evaluate", "--kinds", lambda d: FlagValue("linear,bogus"),
     "error: unknown model kind 'bogus'"),
]


@pytest.mark.parametrize("case", MALFORMED, ids=[c[0] for c in MALFORMED])
def test_malformed_input_exits_1_naming_the_field(tmp_path, inputs, case):
    _, name, flag, make, expected = case
    doc = make(inputs)
    bad = tmp_path / "bad.json"
    bad.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    value = doc if doc is None or isinstance(doc, FlagValue) else bad
    code, err = run_main(with_flag(command(inputs, name, out), flag, value))
    assert code == 1, err
    assert expected in err, err
    assert not out.exists() or not any(out.iterdir())  # nothing written, not even a temp file


def policy_edited(policy, *path, value):
    return lambda d: edited(small_scenario(), "policies", policy, *path, value=value)


# (id, command, flag, document): values beyond what a run can reach, but each one runs
RUNS = [
    ("cycle", "simulate", "--scenario", policy_edited("preventive", "cycle_s", value=10**400)),
    ("grace", "simulate", "--scenario", lambda d: edited(small_scenario(), "breakdown", "grace_s", value=10**400)),
    ("repair", "simulate", "--scenario",
     lambda d: edited(small_scenario(), "breakdown", "repair_duration_s", value=10**400)),
    ("schedule-window", "simulate", "--scenario", policy_edited("predictive", "schedule_window_s", value=10**400)),
    ("stuck-duration", "simulate", "--scenario", lambda d: edited(
        small_scenario(), "injections", value=[{"kind": "stuck_at", "at_s": 100, "duration_s": 10**400}])),
    ("warmup", "simulate", "--scenario", lambda d: edited(small_scenario(), "plan", "warmup_s", value=10**300)),
    ("rise", "simulate", "--scenario", lambda d: edited(small_scenario(), "injections", 0, "rise_s", value=10**300)),
    ("fouling", "simulate", "--scenario",
     lambda d: edited(small_scenario(), "econ", "fouling_rate_kpa_per_s", value=1e300)),
    # 400 s x the rate overflows, but neither outcome's uptime (285 s at most) x the rate does
    ("revenue-rate", "simulate", "--scenario",
     lambda d: edited(small_scenario(), "econ", "revenue_rate_per_s", value=6e305)),
    ("baseline", "synth", "--plan", lambda d: {**SMALL_PLAN, "baseline_kpa": 1e300}),
    ("spike-rise", "synth-spike", "--plan", lambda d: {**LOW_PLAN, "baseline_kpa": -1e300}),
    ("scenario-spike-rise", "simulate", "--scenario", lambda d: {
        **small_scenario(), "plan": {**LOW_PLAN, "baseline_kpa": -1e300},
        "injections": [{**HIGH_SPIKE, "peak_kpa": 1e300}]}),
    ("noise", "synth", "--plan", lambda d: {**SMALL_PLAN, "noise_sigma_kpa": 1e300}),
]


@pytest.mark.parametrize("case", RUNS, ids=[c[0] for c in RUNS])
def test_huge_values_within_the_bounds_run(tmp_path, inputs, case):
    _, name, flag, make = case
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(make(inputs)), encoding="utf-8")
    code, err = run_main(with_flag(command(inputs, name, tmp_path / "out"), flag, doc))
    assert code == 0, err


def test_json_nested_about_as_deep_as_the_parser_allows_exits_1(tmp_path, inputs):
    # some of these depths parse and only the error message's rendering of the value recurses too deeply
    bad, out = tmp_path / "bad.json", tmp_path / "out"
    limit = sys.getrecursionlimit()
    for depth in range(limit - 200, limit + 10):
        bad.write_text('{"duration_s": ' + "[" * depth + "]" * depth + "}", encoding="utf-8")
        code, err = run_main(with_flag(command(inputs, "synth", out), "--plan", bad))
        assert code == 1, (depth, err)
        assert "trace plan.duration_s must be an integer" in err or "nests arrays or objects too deeply" in err, err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("name", ["evaluate", "detect", "simulate", "cba"])
def test_printed_tables_have_no_trailing_spaces(tmp_path, inputs, name):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main([str(a) for a in command(inputs, name, tmp_path)]) == 0
    lines = stdout.getvalue().splitlines()
    assert len(lines) > 1
    assert [line for line in lines if line.endswith(" ")] == []


def test_cba_bridge_prices_uptime_at_the_simulated_rate(tmp_path, inputs):
    doc = comparison_doc(inputs)
    doc["outcomes"] = {policy: rated(doc, policy, 2.0) for policy in doc["outcomes"]}
    uptime_delta = doc["outcomes"]["predictive"]["uptime_s"] - doc["outcomes"]["preventive"]["uptime_s"]
    assert uptime_delta != 0
    doc["deltas"]["revenue_delta"] = uptime_delta * 2.0
    comparison = tmp_path / "comparison.json"
    comparison.write_text(json.dumps(doc))
    for flags, rate in [([], 2.0), (["--revenue-rate", 3.0], 3.0)]:  # an explicit rate wins
        out = tmp_path / str(rate)
        code, err = run_main(with_flag(command(inputs, "cba", out), "--bridge", comparison) + flags)
        assert code == 0, err
        bridged = json.loads((out / "net_benefit.json").read_text())["items"]["Avoidance of lost revenue"]
        assert bridged["mean"] == uptime_delta * rate


@pytest.mark.parametrize("flag", ["--revenue-rate", "--unit-maintenance-cost"])
def test_cba_pricing_flags_need_a_bridge(tmp_path, inputs, flag):
    argv = with_flag(command(inputs, "cba", tmp_path / "out"), "--bridge", None)
    code, err = run_main(argv + [flag, 5.0])
    assert code == 1, err
    assert "--revenue-rate and --unit-maintenance-cost" in err and "--bridge" in err, err
    assert not (tmp_path / "out").exists()


def test_simulate_refuses_the_spike_synth_refuses(tmp_path, inputs):
    scenario = small_scenario()
    scenario["injections"][0]["peak_kpa"] = 20.0  # below the 30 kPa clean reading at at_s
    for name, doc in [("scenario", scenario), ("plan", scenario["plan"]), ("injections", scenario["injections"])]:
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    synth = ["synth", "--plan", tmp_path / "plan.json", "--injections", tmp_path / "injections.json",
             "--seed", 1, "--out-dir", tmp_path / "out"]
    simulate = with_flag(command(inputs, "simulate", tmp_path / "out"), "--scenario", tmp_path / "scenario.json")
    (synth_code, synth_err), (simulate_code, simulate_err) = run_main(synth), run_main(simulate)
    assert synth_code == simulate_code == 1
    assert simulate_err == synth_err
    assert "error: SpikeRamp peak 20.0 must exceed the clean reading 30." in simulate_err
    assert not (tmp_path / "out").exists()


def test_spike_rising_slower_than_int64_counts_exits_0(tmp_path, inputs):
    # np.minimum(t - at_s, rise_s) raised OverflowError converting rise_s 10^30 to a C long: exit 2
    spike = {"kind": "spike_ramp", "at_s": 100, "peak_kpa": 60.0, "rise_s": 10**30}
    (tmp_path / "injections.json").write_text(json.dumps([spike]))
    (tmp_path / "scenario.json").write_text(json.dumps(edited(small_scenario(), "injections", value=[spike])))
    synth = with_flag(command(inputs, "synth", tmp_path / "synth"), "--injections", tmp_path / "injections.json")
    simulate = with_flag(command(inputs, "simulate", tmp_path / "sim"), "--scenario", tmp_path / "scenario.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = [run_main(synth), run_main(simulate)]
    assert [code for code, _ in results] == [0, 0], results
    assert not caught, [str(w.message) for w in caught]
    rows = (tmp_path / "synth" / "historian.csv").read_text().splitlines()[1:]
    held = {row.split(",")[1] for row in rows[100:]}
    assert len(rows) == 300 and len(held) == 1  # the ramp's rise rounds away: the reading holds its prior
    assert (tmp_path / "sim" / "comparison.json").exists()


@pytest.mark.parametrize("csv", ["directory", "latin-1"])
def test_unreadable_csv_exits_1_naming_the_file(tmp_path, csv):
    path = tmp_path / csv
    if csv == "directory":
        path.mkdir()
    else:
        path.write_bytes("Timestamp,P \xb1\n".encode("latin-1"))
    out = tmp_path / "out"
    for name in ("ingest", "train", "evaluate", "detect"):
        code, err = run_main(with_flag(command(tmp_path, name, out), "--csv", path))
        assert code == 1, err
        assert f"cannot read {path}" in err, err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "text, expected",
    [
        ("Timestamp,,DPIT301\n2020-02-26T15:44:00,1.0,2.0\n", "header column 2 names no channel"),
        ("Timestamp,DPIT301,\n2020-02-26T15:44:00,1.0,2.0\n", "header column 3 names no channel"),
        (f"Timestamp,DPIT301\n2020-02-26T15:44:00,{'1' * 131_073}\n", "line 2: field larger than field limit"),
        ("Timestamp\n2020-02-26T15:44:00\n", "header must have a timestamp column plus >= 1 channel"),
    ],
    ids=["empty-channel-name", "trailing-comma", "cell-beyond-field-limit", "no-channel-column"],
)
def test_csv_the_loader_refuses_exits_1_naming_the_file(tmp_path, text, expected):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    for name in ("ingest", "train", "evaluate", "detect"):
        code, err = run_main(with_flag(command(tmp_path, name, out), "--csv", path))
        assert code == 1, err
        assert f"error: {path}: {expected}" in err, err
    assert not out.exists() or not any(out.iterdir())


def test_scenario_with_swapped_policy_names_exits_1_before_any_policy_runs(tmp_path, inputs):
    scenario = small_scenario()
    policies = scenario["policies"]
    scenario["policies"] = {"preventive": policies["predictive"], "predictive": policies["preventive"]}
    (tmp_path / "swapped.json").write_text(json.dumps(scenario))
    out = tmp_path / "out"
    code, err = run_main(with_flag(command(inputs, "simulate", out), "--scenario", tmp_path / "swapped.json"))
    assert code == 1, err
    assert (
        "error: scenario.policies.preventive is of kind 'predictive', "
        "but the name 'preventive' is reserved for a policy of kind 'preventive'"
    ) in err, err
    assert not out.exists() or not any(out.iterdir())


def test_policies_named_outside_the_pair_run_without_deltas(tmp_path, inputs):
    scenario = small_scenario()
    scenario["policies"] = {"calendar": scenario["policies"]["preventive"], "forecast": scenario["policies"]["predictive"]}
    (tmp_path / "renamed.json").write_text(json.dumps(scenario))
    out = tmp_path / "out"
    code, err = run_main(with_flag(command(inputs, "simulate", out), "--scenario", tmp_path / "renamed.json"))
    assert code == 0, err
    comparison = json.loads((out / "comparison.json").read_text())
    assert sorted(comparison["outcomes"]) == ["calendar", "forecast"]
    assert comparison["deltas"] == {"downtime_avoided_s": None, "maintenance_avoided": None, "revenue_delta": None}


def test_simulate_a_run_shorter_than_the_lag_window_exits_0(tmp_path, inputs):
    # the model reads lags 2..4, so no second of a 3 s run has a full window
    scenario = {**small_scenario(), "plan": {"duration_s": 3, "segments": [], "warmup_s": 0}, "injections": []}
    (tmp_path / "short.json").write_text(json.dumps(scenario))
    out = tmp_path / "out"
    code, err = run_main(with_flag(command(inputs, "simulate", out), "--scenario", tmp_path / "short.json"))
    assert code == 0, err
    outcomes = json.loads((out / "comparison.json").read_text())["outcomes"]
    assert sorted(outcomes) == ["predictive", "preventive"]
    for outcome in outcomes.values():
        assert outcome["duration_s"] == outcome["uptime_s"] + outcome["downtime_s"] == 3


@pytest.mark.parametrize("name", ["train", "evaluate", "detect"])
def test_unknown_channel_exits_1_naming_the_available_ones(tmp_path, inputs, name):
    out = tmp_path / "out"
    code, err = run_main(with_flag(command(inputs, name, out), "--channel", "DPIT999"))
    assert code == 1, err
    assert "unknown channel 'DPIT999'; available: DPIT301" in err, err
    assert not out.exists() or not any(out.iterdir())


def test_csv_naming_a_channel_twice_exits_1(tmp_path):
    path = tmp_path / "twice.csv"
    path.write_text("Timestamp,A, A\n2020-02-26T15:44:00,1.0,2.0\n", encoding="utf-8")
    out = tmp_path / "out"
    code, err = run_main(["ingest", "--csv", path, "--out-dir", out])
    assert code == 1, err
    assert f"error: {path}: header names channel 'A' twice" in err, err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("kinds", ["", " , ", "linear,linear", "forest,linear, forest"])
def test_evaluate_rejects_empty_or_repeated_kinds(tmp_path, inputs, kinds):
    out = tmp_path / "out"
    code, err = run_main(with_flag(command(inputs, "evaluate", out), "--kinds", kinds))
    assert code == 1, err
    assert ("names no model kind" if kinds.strip(" ,") == "" else "twice") in err, err
    assert not out.exists()  # rejected before any fitting, so not even the directory


@pytest.mark.parametrize(
    "name, kind_flag, kinds",
    [("train", "--kind", "forest"), ("train", "--kind", "boost"), ("evaluate", "--kinds", "forest,boost")],
)
def test_tree_fit_on_readings_beyond_the_overflow_bound_exits_1(tmp_path, name, kind_flag, kinds):
    # squared sums of readings near 1e200 overflow; the split search used to pick splits from NaN
    path = tmp_path / "huge.csv"
    rows = (f"2020-02-26T15:{i // 60:02d}:{i % 60:02d},{1 + i % 7 / 10}e200" for i in range(60))
    path.write_text("Timestamp,DPIT301\n" + "\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = with_flag(with_flag(command(tmp_path, name, out), "--csv", path), kind_flag, kinds)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = run_main(argv)
    assert code == 1, err
    assert "error: cannot fit a tree on targets as large as |y| = " in err, err
    assert "split search overflows float64 beyond |y| = " in err, err
    assert not caught, [str(w.message) for w in caught]
    assert not (out / "model.json").exists() and not (out / "evaluation.json").exists()


@pytest.mark.parametrize("name", ["train", "evaluate"])
def test_linear_fit_on_readings_beyond_the_overflow_bound_exits_1(tmp_path, name):
    # the ridge fallback's normal equations overflowed on readings near 1e200
    path = tmp_path / "huge.csv"
    rows = (f"2020-02-26T15:{i // 60:02d}:{i % 60:02d},{1 + i % 7 / 10}e200" for i in range(200))
    path.write_text("Timestamp,DPIT301\n" + "\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = with_flag(command(tmp_path, name, out), "--csv", path)
    argv = with_flag(argv, "--kind", "linear") if name == "train" else with_flag(argv, "--kinds", "linear")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = run_main(argv)
    assert code == 1, err
    assert "error: cannot fit a linear model on values as large as |x| = 1.6e+200: with " in err, err
    assert "rows, the normal equations overflow float64 beyond |x| = " in err, err
    assert not caught, [str(w.message) for w in caught]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("scale", ["e4", "e10"])
@pytest.mark.parametrize("name", ["train", "evaluate"])
def test_linear_fit_on_large_periodic_readings_takes_the_ridge(tmp_path, name, scale):
    # an absolute ridge vanished beside the squares of these readings: the solve raised
    # LinAlgError: Singular matrix and the command exited 2
    path = tmp_path / "periodic.csv"
    rows = (f"2020-02-26T15:{i // 60:02d}:{i % 60:02d},{1 + i % 7 / 10}{scale}" for i in range(200))
    path.write_text("Timestamp,DPIT301\n" + "\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    kind = ["--kind", "linear"] if name == "train" else ["--kinds", "linear"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = run_main([name, "--csv", path, *kind, "--seed", 1, "--out-dir", out])  # lags 5..30
    assert code == 0, err
    assert not caught, [str(w.message) for w in caught]
    if name == "train":
        assert json.loads((out / "model.json").read_text())["params"]["ridge_applied"] is True
    else:
        report = json.loads((out / "evaluation.json").read_text())["reports"]["linear"]
        assert all(math.isfinite(r) for r in report["per_split_rmse"])


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
