"""Benchmark workloads: seeded input generators and the CLI steps of one pass.

A workload has a setup, which writes every input file the program reads into
an inputs directory, and a pass, which is a fixed list of CLI commands run
back to back. The workload seed drives every ``--seed`` flag and every input
generator, so the same seed gives byte-identical inputs. The program sees only
the generated files: even the bundled scenario and ledger are copied into the
inputs directory first.

Smoke mode shrinks every input so one pass of every workload takes about a
second; every output check stays on.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Callable

import numpy as np

from pdmecon import cli

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "pdmecon" / "data"
SCENARIO_2 = "scenario2_avoid_breakdown.json"
LEDGER = "sample_ledger.json"


@dataclass(frozen=True)
class Step:
    """One CLI command of a pass and the files it writes, relative to the pass directory."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[Path, int, bool], None]  # (inputs dir, seed, smoke)
    steps: Callable[[Path, Path, int, bool], list[Step]]  # (inputs dir, pass dir, seed, smoke)


def run_cli(argv: list[str]) -> None:
    """Run one CLI command during setup; setup failures abort the benchmark."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"setup command {argv[0]} exited {rc}: {err.getvalue().strip()}")


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------- generators


SMOKE_PLAN = {"duration_s": 1500, "segments": [[300, 35.0], [800, 20.0], [1100, 40.0]], "warmup_s": 300}


def write_plan(path: Path, smoke: bool) -> Path | None:
    """The trace plan behind ``synth``: the default plan, or a short one in smoke mode."""
    if not smoke:
        return None
    write_json(path, SMOKE_PLAN)
    return path


def synth_training_data(inputs: Path, seed: int, smoke: bool) -> None:
    """Synthesize and clean the training CSV with the program itself (setup, untimed)."""
    argv = ["synth", "--seed", seed, "--out-dir", inputs]
    plan = write_plan(inputs / "plan.json", smoke)
    if plan:
        argv += ["--plan", plan]
    run_cli(argv)
    run_cli(["ingest", "--csv", inputs / "historian.csv", "--out-dir", inputs])


def write_short_scenario(path: Path, duration_s: int, spike_at_s: int) -> None:
    """Bundled scenario 2 with three overrides: a shorter plan, no warmup ramp,
    and the pressure spike moved inside the shorter run."""
    doc = json.loads((DATA_DIR / SCENARIO_2).read_text(encoding="utf-8"))
    doc["plan"]["duration_s"] = duration_s
    doc["plan"]["warmup_s"] = 0
    doc["injections"][0]["at_s"] = spike_at_s
    write_json(path, doc)


HISTORIAN_CHANNELS = ("DPIT301", "DPIT302", "DPIT303", "DPIT304")
BAD_CELLS = ("#N/A", "--", "1.2.3", "nan", "inf")
HISTORIAN_START = datetime(2026, 1, 5, 6, 0, 0, tzinfo=timezone.utc)


def write_dirty_historian(path: Path, seed: int, n_rows: int) -> None:
    """A dirty multi-channel historian export.

    Timestamps are ``dd/mm/YYYY HH:MM:SS``, which the ISO parser rejects, so
    every row goes through the strptime fallback. About 1% of rows carry a
    ``"Bad Input"`` sentinel and about 0.5% an unparseable cell, a quarter of
    those in the timestamp column. Each channel has a setpoint profile with
    noise plus one spike ramp, one stuck-at span, one high-variance burst and
    a few single-sample outliers, so every detector finds events.
    """
    rng = np.random.default_rng((seed, 1))
    t = np.arange(n_rows)
    columns = []
    for _ in HISTORIAN_CHANNELS:
        levels = rng.uniform(20.0, 40.0, size=6)
        v = levels[np.minimum(t * len(levels) // n_rows, len(levels) - 1)]
        v = v + rng.normal(0.0, 0.2, size=n_rows)
        span = n_rows // 10
        spike, stuck, burst = (int(rng.integers(k * 3 * span, (k * 3 + 2) * span)) for k in range(3))
        ramp = np.minimum(np.arange(n_rows - spike), 8) * 2.5
        v[spike:] += ramp
        v[spike + 60 :] -= 20.0  # the spike clears after a minute
        v[stuck : stuck + min(300, n_rows // 10)] = v[stuck]
        v[burst : burst + min(120, n_rows // 20)] += rng.normal(0.0, 8.0, size=min(120, n_rows // 20))
        outliers = rng.integers(0, n_rows, size=4)
        v[outliers] += 30.0
        columns.append(v)

    sentinel_rows = rng.random(n_rows) < 0.01
    bad_rows = (rng.random(n_rows) < 0.005) & ~sentinel_rows
    sentinel_cols = rng.integers(0, len(HISTORIAN_CHANNELS), size=n_rows)
    bad_cols = rng.integers(0, len(HISTORIAN_CHANNELS) + 1, size=n_rows)  # 0 = timestamp
    bad_tokens = rng.integers(0, len(BAD_CELLS), size=n_rows)

    lines = ["Timestamp," + ",".join(HISTORIAN_CHANNELS)]
    for i in range(n_rows):
        stamp = (HISTORIAN_START + timedelta(seconds=i)).strftime("%d/%m/%Y %H:%M:%S")
        cells = [stamp] + [f"{col[i]:.3f}" for col in columns]
        if sentinel_rows[i]:
            cells[1 + sentinel_cols[i]] = "Bad Input"
        elif bad_rows[i]:
            j = bad_cols[i]
            cells[j] = "31/02/2026 25:61:00" if j == 0 else BAD_CELLS[bad_tokens[i]]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ----------------------------------------------------------------- workloads


def _walkthrough_setup(inputs: Path, seed: int, smoke: bool) -> None:
    write_plan(inputs / "plan.json", smoke)
    if smoke:
        write_short_scenario(inputs / "scenario.json", duration_s=800, spike_at_s=400)
    else:
        write_json(inputs / "scenario.json", json.loads((DATA_DIR / SCENARIO_2).read_text(encoding="utf-8")))
    write_json(inputs / "ledger.json", json.loads((DATA_DIR / LEDGER).read_text(encoding="utf-8")))


def _walkthrough_steps(inputs: Path, out: Path, seed: int, smoke: bool) -> list[Step]:
    s, o = str(seed), str(out)
    cleaned = str(out / "cleaned.csv")
    synth = ["synth", "--seed", s, "--out-dir", o]
    if smoke:
        synth += ["--plan", str(inputs / "plan.json")]
    return [
        Step(tuple(synth), ("historian.csv",)),
        Step(("ingest", "--csv", str(out / "historian.csv"), "--out-dir", o), ("cleaned.csv", "ingest_report.json")),
        Step(("train", "--csv", cleaned, "--kind", "linear", "--seed", s, "--out-dir", o), ("model.json",)),
        Step(
            ("evaluate", "--csv", cleaned, "--kinds", "linear", "--k", "5", "--seed", s, "--out-dir", o),
            ("evaluation.json",),
        ),
        Step(("detect", "--csv", cleaned, "--out-dir", o), ("events.jsonl", "detect_summary.json")),
        Step(
            ("simulate", "--scenario", str(inputs / "scenario.json"), "--model", str(out / "model.json"),
             "--seed", s, "--out-dir", o),
            ("comparison.json",),
        ),
        Step(
            ("cba", "--ledger", str(inputs / "ledger.json"), "--trials", "500" if smoke else "10000",
             "--bridge", str(out / "comparison.json"), "--revenue-rate", "1.0",
             "--unit-maintenance-cost", "10.0", "--seed", s, "--out-dir", o),
            ("net_benefit.json",),
        ),
    ]


# Hyperparameters are fixed rather than drawn from the seed, so that the cost of
# a pass does not move from one seed to the next.
MODEL_SELECT_HP = {"forest": {"n_trees": 3, "max_depth": 8}, "boost": {"n_stages": 20, "max_depth": 3}}
MODEL_SELECT_HP_SMOKE = {"forest": {"n_trees": 1, "max_depth": 3}, "boost": {"n_stages": 2, "max_depth": 2}}


def _model_select_setup(inputs: Path, seed: int, smoke: bool) -> None:
    synth_training_data(inputs, seed, smoke)
    write_json(inputs / "hyperparams.json", MODEL_SELECT_HP_SMOKE if smoke else MODEL_SELECT_HP)


def _model_select_steps(inputs: Path, out: Path, seed: int, smoke: bool) -> list[Step]:
    return [
        Step(
            ("evaluate", "--csv", str(inputs / "cleaned.csv"), "--kinds", "forest,boost", "--k", "5",
             "--hyperparams", str(inputs / "hyperparams.json"), "--seed", str(seed), "--out-dir", str(out)),
            ("evaluation.json",),
        )
    ]


FOREST_POLICY_HP = {"forest": {"n_trees": 2, "max_depth": 6}}
FOREST_POLICY_HP_SMOKE = {"forest": {"n_trees": 1, "max_depth": 3}}


def _forest_policy_setup(inputs: Path, seed: int, smoke: bool) -> None:
    synth_training_data(inputs, seed, smoke)
    write_json(inputs / "hyperparams.json", FOREST_POLICY_HP_SMOKE if smoke else FOREST_POLICY_HP)
    if smoke:
        write_short_scenario(inputs / "scenario.json", duration_s=400, spike_at_s=200)
    else:
        write_short_scenario(inputs / "scenario.json", duration_s=1200, spike_at_s=600)


def _forest_policy_steps(inputs: Path, out: Path, seed: int, smoke: bool) -> list[Step]:
    s, o = str(seed), str(out)
    return [
        Step(
            ("train", "--csv", str(inputs / "cleaned.csv"), "--kind", "forest",
             "--hyperparams", str(inputs / "hyperparams.json"), "--seed", s, "--out-dir", o),
            ("model.json",),
        ),
        Step(
            ("simulate", "--scenario", str(inputs / "scenario.json"), "--model", str(out / "model.json"),
             "--seed", s, "--out-dir", o),
            ("comparison.json",),
        ),
    ]


def _historian_clean_setup(inputs: Path, seed: int, smoke: bool) -> None:
    write_dirty_historian(inputs / "historian_dirty.csv", seed, 3000 if smoke else 43200)


def _historian_clean_steps(inputs: Path, out: Path, seed: int, smoke: bool) -> list[Step]:
    steps = [
        Step(
            ("ingest", "--csv", str(inputs / "historian_dirty.csv"), "--out-dir", str(out)),
            ("cleaned.csv", "ingest_report.json"),
        )
    ]
    for channel in HISTORIAN_CHANNELS:
        sub = f"detect_{channel}"
        steps.append(
            Step(
                ("detect", "--csv", str(out / "cleaned.csv"), "--channel", channel, "--out-dir", str(out / sub)),
                (f"{sub}/events.jsonl", f"{sub}/detect_summary.json"),
            )
        )
    return steps


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "walkthrough",
            "The README's seven-step chain is the ROADMAP's definition of end to end; no tree code "
            "runs in it, so it is the control workload for tree changes.",
            _walkthrough_setup,
            _walkthrough_steps,
        ),
        Workload(
            "model-select",
            "Walk-forward forest and boost evaluation is the write side of the tree layer; neither "
            "plantsim nor cba runs, so it is the control for simulation and Monte Carlo changes.",
            _model_select_setup,
            _model_select_steps,
        ),
        Workload(
            "forest-policy",
            "Forest training plus a forest-backed predictive simulation is the read side of the tree "
            "layer (predict, model JSON) and the model-agnostic forecast path in plantsim.",
            _forest_policy_setup,
            _forest_policy_steps,
        ),
        Workload(
            "historian-clean",
            "A dirty dd/mm/YYYY export runs the drop branches and the strptime fallback that the clean "
            "ISO walkthrough CSV never reaches, and runs the detectors on four channels.",
            _historian_clean_setup,
            _historian_clean_steps,
        ),
    )
}
