import contextlib
import importlib.util
import io
import json
import subprocess
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


def seven_commands(d):
    """The seven commands on small inputs written into d, each argv as strings."""
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
    return [[str(a) for a in argv] for argv in commands]


COUNTS = ("models.tree.nodes", "ingest.rows_read", "features.lag_rows", "plantsim.sim_seconds", "cba.trials")


def test_every_tracer_counter_counts_the_seven_commands(tracing, tmp_path):
    # a counter that raises is only a note in a traced benchmark run too, so each one runs here
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as missing, tracer.traced_pass(0) as totals:
        for argv in seven_commands(tmp_path):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                assert cli.main(argv) == 0, err.getvalue()
    assert missing == []
    assert tracer.observer_errors == set()
    assert totals.calls["models.tree.fit"] > 0
    for count in COUNTS:
        assert totals.counts[count] > 0, count


FRESH = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("benchmark_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = tracing
spec.loader.exec_module(tracing)
from pdmecon import cli
before = sorted(m for m in sys.modules if m.startswith("pdmecon."))
tracer, codes = tracing.Tracer(), []
with tracing.installed(tracer) as missing, tracer.traced_pass(0) as totals:
    for argv in json.loads(sys.argv[2]):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(argv))
print(json.dumps({"before": before, "missing": missing, "errors": sorted(tracer.observer_errors),
                  "codes": codes, "calls": totals.calls, "counts": totals.counts}))
"""


def test_a_tracer_installed_in_a_fresh_process_counts_the_seven_commands(tracing, tmp_path):
    # the tests above share a process in which earlier tests may have bound every layer on
    # pdmecon.cli; here the tracer's patches come first, before any command has bound a layer
    commands = seven_commands(tmp_path)
    proc = subprocess.run([sys.executable, "-B", "-c", FRESH, str(TRACING), json.dumps(commands)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["before"] == ["pdmecon.cli", "pdmecon.errors", "pdmecon.features", "pdmecon.jsonio"]
    assert doc["missing"] == [] and doc["errors"] == []
    assert doc["codes"] == [0] * len(commands), proc.stderr
    # every hook on pdmecon.cli that names its metric was called through the tracer's wrapper
    for module, _, name, _, _ in tracing.HOOKS:
        if module == "pdmecon.cli" and isinstance(name, str):
            assert doc["calls"].get(name, 0) > 0, name
    for count in COUNTS:
        assert doc["counts"].get(count, 0) > 0, count
