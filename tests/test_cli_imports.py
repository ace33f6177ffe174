"""What a fresh `pdmecon` process imports: each command only the layers it runs.

Each check runs in its own interpreter, since a test process has long since
imported every layer.
"""

import json
import subprocess
import sys

import pytest

import pdmecon
from pdmecon import cli, plantsim

# what `import pdmecon.cli` loads; the parser and every --help read nothing else
BASE = {"pdmecon", "pdmecon.cli", "pdmecon.errors", "pdmecon.features", "pdmecon.jsonio"}

PROBE = """
import contextlib, io, json, sys
from pdmecon import cli
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(sys.argv[1:])
        except SystemExit as exc:
            code = exc.code
print(json.dumps({"code": code, "modules": sorted(m for m in sys.modules if m.split(".")[0] == "pdmecon")}))
"""


def loaded(*argv) -> tuple[int | None, set[str]]:
    """The exit code of `pdmecon argv` in a fresh interpreter, and the pdmecon packages
    and modules loaded (a submodule of pdmecon.models counts as pdmecon.models)."""
    proc = subprocess.run([sys.executable, "-c", PROBE, *map(str, argv)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    return doc["code"], {".".join(m.split(".")[:2]) for m in doc["modules"]}


@pytest.fixture(scope="module")
def historian(tmp_path_factory):
    d = tmp_path_factory.mktemp("footprint")
    (d / "plan.json").write_text(json.dumps({"duration_s": 300, "segments": [[100, 33.0]], "warmup_s": 30}))
    code, _ = loaded("synth", "--plan", d / "plan.json", "--seed", 1, "--out-dir", d)
    assert code == 0
    return d / "historian.csv"


def test_importing_the_cli_loads_no_layer():
    assert loaded() == (None, BASE)


@pytest.mark.parametrize("command", [None, "synth", "ingest", "train", "evaluate", "detect", "simulate", "cba"])
def test_help_exits_0_and_loads_no_layer(command):
    assert loaded(*([command] if command else []), "--help") == (0, BASE)


def test_each_command_loads_only_the_layers_it_runs(historian, tmp_path):
    out = ["--out-dir", tmp_path]
    seeded = ["--seed", 1, *out]
    ledger = pdmecon.data_path("sample_ledger.json")
    assert loaded("ingest", "--csv", historian, *out) == (0, BASE | {"pdmecon.ingest"})
    assert loaded("detect", "--csv", historian, *out) == (0, BASE | {"pdmecon.ingest", "pdmecon.detect"})
    fitted = BASE | {"pdmecon.ingest", "pdmecon.models"}
    assert loaded("train", "--csv", historian, "--min-lag", 2, "--max-lag", 4, *seeded) == (0, fitted)
    assert loaded("evaluate", "--csv", historian, "--kinds", "linear", "--k", 2, *seeded) == (0, fitted)
    assert loaded("cba", "--ledger", ledger, "--trials", 100, *seeded) == (0, BASE | {"pdmecon.cba"})


def test_a_layer_name_read_on_the_module_binds_its_layer():
    assert cli.FaultInjection is plantsim.FaultInjection
    # any other name still raises AttributeError, which the tracer's getattr(module, name, None) needs
    # to report a hook that names a missing function
    assert not hasattr(cli, "no_such_name")
