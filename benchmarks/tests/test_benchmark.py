"""Fast tests of the benchmark itself: smoke runs, output checks, seeded inputs.

Run with ``python3 -m pytest benchmarks/tests -q``. Every workload runs once
on reduced inputs, so the module takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

from checks import OutputChecker, check_document  # noqa: E402
from workloads import WORKLOADS, write_dirty_historian  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = [sys.executable, str(ROOT / "benchmarks" / "run.py")]


@pytest.fixture
def workdir(request):
    path = ROOT / ".bench_runs" / "tests" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run(*args, cwd=ROOT):
    return subprocess.run([*RUN, *args], capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_runs_every_workload_and_reports_every_metric(trace, section):
    proc = run("--workload", "all", "--smoke", "--seed", "3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = {m["name"] for m in SPEC[section]}
    for workload in WORKLOADS:
        reported = {k.split("/", 1)[1] for k in result["metrics"] if k.startswith(workload + "/")}
        assert reported == names, workload


def test_single_workload_result_line_has_exactly_the_result_keys():
    proc = run("--workload", "walkthrough", "--smoke", "--seed", "2", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == 7 and result["failed"] == 0
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0


def test_fails_without_the_program(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(ROOT / "benchmarks", workdir / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "walkthrough", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, cwd=workdir, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize(
    "name,data",
    [
        ("a.json", b'{"x": NaN}'),
        ("a.json", b'{"x": Infinity}'),
        ("events.jsonl", b'{"x": 1}\n{"x": -Infinity}\n'),
        ("a.json", b'{"x": '),
        ("comparison.json", b'{"outcomes": {"p": {"uptime_s": 5, "downtime_s": 4, "duration_s": 10}}}'),
        (
            "net_benefit.json",
            b'{"net": {"mean": 3.0}, "ledgers": {"DirectSaving": {"mean": 1.0},'
            b' "IndirectSaving": {"mean": 1.0}, "ImplementationCost": {"mean": 0.0}}}',
        ),
        ("ingest_report.json", b'{"rows_read": 5, "rows_retained": 5, "rows_dropped_sentinel": 1,'
                               b' "rows_dropped_unparseable": 0}'),
    ],
)
def test_check_document_rejects(name, data):
    assert check_document(name, data)


def test_check_document_accepts_a_consistent_net_benefit():
    doc = {"net": {"mean": 0.3}, "ledgers": {"DirectSaving": {"mean": 0.1}, "IndirectSaving": {"mean": 0.2},
                                              "ImplementationCost": {"mean": 0.0}}}
    assert check_document("net_benefit.json", json.dumps(doc).encode()) == []


def test_checker_flags_changed_bytes_and_wrong_digest(workdir):
    (workdir / "a.json").write_text('{"x": 1}')
    checker = OutputChecker({"a.json": "0" * 64})
    problems, sizes = checker.check(workdir, ("a.json", "missing.json"))
    assert sizes == {"a.json": 8}
    assert any("expected" in p for p in problems) and any("not written" in p for p in problems)
    (workdir / "a.json").write_text('{"x": 2}')
    problems, _ = checker.check(workdir, ("a.json",))
    assert any("first pass" in p for p in problems)


def test_dirty_historian_is_seeded(workdir):
    paths = []
    for i, seed in enumerate((4, 4, 5)):
        paths.append(workdir / f"h{i}.csv")
        write_dirty_historian(paths[-1], seed, 2000)
    assert paths[0].read_bytes() == paths[1].read_bytes() != paths[2].read_bytes()
    rows = paths[0].read_text().splitlines()
    assert rows[1].startswith("05/01/2026 06:00:00,")
    assert sum("Bad Input" in r for r in rows) > 0


def test_benchmark_json_lists_every_workload():
    import run

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}


@pytest.mark.parametrize(
    "wall,busy,steal,charged",
    [
        (10.0, 8.0, 2.0, 2.0),  # one busy CPU: all of its steal lengthened the span
        (10.0, 16.0, 4.0, 2.0),  # two busy CPUs, 2 s stolen from each: the span lost one CPU's share
        (10.0, 3.0, 1.0, 1.0),  # mostly idle machine: never divided below one CPU
        (10.0, 8.0, 0.0, 0.0),
    ],
)
def test_charged_steal_counts_one_cpu_of_steal(wall, busy, steal, charged):
    import run

    assert run.charged_steal(wall, busy, steal) == pytest.approx(charged)

