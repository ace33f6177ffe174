import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

import pdmecon
from pdmecon import cli

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    """The benchmark's tracing module, read from its file."""
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read the benchmark's file, write nothing beside it
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_every_tracer_hook_resolves(tracing):
    # a hook that names a function the program no longer has is only a note in a traced
    # benchmark run, whose exit status stays 0, so the names are checked here
    with tracing.installed(tracing.Tracer()) as missing:
        assert missing == []


def test_every_tracer_counter_counts_the_seven_commands(tracing, tmp_path):
    # a counter that raises is only a note in a traced benchmark run too, so each one runs here
    d = tmp_path
    scenario = json.loads(pdmecon.data_path("scenario2_avoid_breakdown.json").read_text())
    scenario["plan"] = {**scenario["plan"], "duration_s": 400, "warmup_s": 0}
    scenario["injections"][0]["at_s"] = 200
    inputs = {
        "plan.json": {"duration_s": 400, "segments": [[200, 33.0]], "warmup_s": 0},
        "scenario.json": scenario,
        "hyperparams.json": {"forest": {"n_trees": 2, "max_depth": 2}, "boost": {"n_stages": 2, "max_depth": 2}},
    }
    for name, doc in inputs.items():
        (d / name).write_text(json.dumps(doc), encoding="utf-8")
    cleaned, hp, seed = d / "cleaned.csv", d / "hyperparams.json", ["--seed", 1, "--out-dir", d]
    commands = [
        ["synth", "--plan", d / "plan.json", *seed],
        ["ingest", "--csv", d / "historian.csv", "--out-dir", d],
        ["train", "--csv", cleaned, "--kind", "forest", "--hyperparams", hp, *seed],
        ["evaluate", "--csv", cleaned, "--kinds", "linear,forest,boost", "--k", 2, "--hyperparams", hp, *seed],
        ["detect", "--csv", cleaned, "--out-dir", d],
        ["simulate", "--scenario", d / "scenario.json", "--model", d / "model.json", *seed],
        ["cba", "--ledger", pdmecon.data_path("sample_ledger.json"), "--bridge", d / "comparison.json",
         "--trials", 100, *seed],
    ]
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as missing, tracer.traced_pass(0) as totals:
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                assert cli.main([str(a) for a in argv]) == 0, err.getvalue()
    assert missing == []
    assert tracer.observer_errors == set()
    assert totals.calls["models.tree.fit"] > 0
    for count in ("models.tree.nodes", "ingest.rows_read", "features.lag_rows", "plantsim.sim_seconds", "cba.trials"):
        assert totals.counts[count] > 0, count
