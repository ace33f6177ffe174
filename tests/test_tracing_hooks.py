import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_every_tracer_hook_resolves(monkeypatch):
    # a hook that names a function the program no longer has is only a note in a traced
    # benchmark run, whose exit status stays 0, so the names are checked here
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read the benchmark's file, write nothing beside it
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look their module up by name
    spec.loader.exec_module(tracing)
    with tracing.installed(tracing.Tracer()) as missing:
        assert missing == []
