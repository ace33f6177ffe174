"""Command-line entry point.

Subcommands wire the library into reproducible, config-driven runs:

    synth     write a synthetic historian CSV from a trace plan
    ingest    clean a historian CSV and report what was dropped
    train     fit a forecast model on one channel and save it as JSON
    evaluate  walk-forward RMSE report for one or more model kinds
    detect    run the rule-based fault detectors over one channel
    simulate  compare maintenance policies on a scenario config
    cba       Monte Carlo net-benefit analysis over a cost ledger

Structured inputs come from JSON config files; flags cover paths, the seed,
and the output directory (default from $PDMECON_OUT_DIR). Configs reject
unknown fields, wrong types and NaN/Infinity (see pdmecon.jsonio). Artifacts
are strict JSON or CSV written atomically; the same inputs and seed give
byte-identical output. Exit codes: 0 success, 1 bad input (usage, a missing
or malformed file or config), 2 only for a fault inside the program.

Each command imports only the layers it runs (`ingest` imports ingest alone,
`cba` without --bridge no simulator), since each command is a fresh process
and importing every layer cost more than some commands' work; the parser
reads no layer, so `--help` imports none. A command binds its layers' names
on this module rather than importing them inside itself, so a wrapper set on
`pdmecon.cli` before it runs (a tracer's) is the function it calls.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import TRACE_CHANNEL
from .errors import ValidationError
from .features import LagSpec, make_lag_matrix
from .jsonio import atomic_path, from_dict, load_json, write_json, write_text

# The names this module takes from each layer: a command binds its layers' names before it runs
# (_bind), and any other read of a name binds that name's layer (module __getattr__, PEP 562).
_LAYER_NAMES = {
    "ingest": ("IngestConfig", "SensorFrame", "load_historian_csv", "write_sensor_csv"),
    "detect": ("DetectorConfig", "events_to_jsonl", "format_events", "run_all_detectors"),
    "models": (
        "MODEL_KINDS", "Hyperparams", "evaluate_cv", "fit_model", "format_eval_table", "load_model", "model_to_dict"
    ),
    "plantsim": (
        "ComparisonReport", "FaultInjection", "Scenario", "TracePlan", "compare_policies", "format_comparison",
        "generate_trace", "inject_faults",
    ),
    "cba": ("McConfig", "bridge_from_simulation", "format_summary_table", "load_ledger", "net_benefit"),
}
_LAYER_OF = {name: layer for layer, names in _LAYER_NAMES.items() for name in names}


def _bind(*layers: str) -> None:
    """Import each layer and bind its names here. A name already bound keeps its value, so a
    wrapper set on this module before the command runs is the function the command calls."""
    scope = globals()
    for layer in layers:
        module = importlib.import_module(f".{layer}", __package__)
        for name in _LAYER_NAMES[layer]:
            scope.setdefault(name, getattr(module, name))


def __getattr__(name: str):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_LAYER_OF[name])
    return globals()[name]


ENV_OUT_DIR = "PDMECON_OUT_DIR"


class _Parser(argparse.ArgumentParser):
    # bad usage (unknown flags, missing args) is a validation error -> exit 1
    def error(self, message):
        raise ValidationError(message)


def _out_dir(args) -> Path:
    out = Path(args.out_dir or os.environ.get(ENV_OUT_DIR, "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot use {out} as the output directory: {exc}") from None
    return out


def _config(path: str | None, cls, what: str):
    """The config dataclass from a JSON file, or its defaults when no file is given."""
    return from_dict(cls, load_json(path, what), what) if path else cls()


def _injections(path: str) -> list[FaultInjection]:
    """The injections file: an array of injections, or an object holding it as "injections".
    Either way an error names the array injections, its first entry injections[0]."""
    _bind("plantsim")
    doc = load_json(path, "injections")
    if isinstance(doc, dict):
        if doc.keys() - {"injections"}:
            unknown = ", ".join(f"injections.{key}" for key in sorted(doc.keys() - {"injections"}))
            raise ValidationError(f"unknown field {unknown}; allowed: ['injections']")
        doc = doc.get("injections", [])
    return from_dict(list[FaultInjection], doc, "injections")


def _seed(args) -> int:
    if args.seed is None:
        raise ValidationError("--seed is required for this command")
    if args.seed < 0:
        raise ValidationError("--seed must be >= 0")
    return args.seed


def _check_kind(kind: str) -> None:
    """The check of train --kind and of each kind evaluate --kinds names."""
    _bind("models")
    if kind not in MODEL_KINDS:
        raise ValidationError(f"unknown model kind '{kind}'; expected one of {MODEL_KINDS}")


def cmd_synth(args) -> int:
    _bind("ingest", "plantsim")
    plan = _config(args.plan, TracePlan, "trace plan")
    injections = _injections(args.injections) if args.injections else []
    trace = inject_faults(generate_trace(plan, _seed(args)), injections)
    out = _out_dir(args) / args.out
    with atomic_path(out) as tmp:
        write_sensor_csv(SensorFrame(np.arange(len(trace)), (TRACE_CHANNEL,), trace[None]), tmp)
    print(f"wrote {len(trace)} rows to {out}")
    return 0


def cmd_ingest(args) -> int:
    _bind("ingest")
    config = _config(args.config, IngestConfig, "ingest config")
    frame, report = load_historian_csv(args.csv, config)
    out = _out_dir(args)
    with atomic_path(out / "cleaned.csv") as tmp:
        write_sensor_csv(frame, tmp)
    write_json(out / "ingest_report.json", report)
    print(
        f"read {report.rows_read} rows: kept {report.rows_retained}, "
        f"dropped {report.rows_dropped_sentinel} sentinel + "
        f"{report.rows_dropped_unparseable} unparseable; "
        f"{report.channels_retained} channels"
    )
    return 0


def cmd_train(args) -> int:
    _bind("ingest", "models")
    _check_kind(args.kind)
    seed = _seed(args)
    lag_spec = LagSpec(min_lag=args.min_lag, max_lag=args.max_lag)
    values = load_historian_csv(args.csv)[0].channel(args.channel)
    supervised = make_lag_matrix(values, lag_spec)
    hp = getattr(_config(args.hyperparams, Hyperparams, "hyperparameters"), args.kind)
    model = fit_model(args.kind, supervised.X, supervised.y, hp, seed)
    out = _out_dir(args) / args.out
    write_json(out, model_to_dict(model, seed=seed, lag_spec=lag_spec))
    print(f"trained {args.kind} on {supervised.n_rows} rows x {lag_spec.n_features} lags -> {out}")
    return 0


def cmd_evaluate(args) -> int:
    _bind("ingest", "models")
    seed = _seed(args)
    lag_spec = LagSpec(min_lag=args.min_lag, max_lag=args.max_lag)
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    if not kinds:
        raise ValidationError(f"--kinds names no model kind; expected a subset of {MODEL_KINDS}")
    for i, kind in enumerate(kinds):
        _check_kind(kind)
        if kind in kinds[:i]:
            raise ValidationError(f"--kinds names '{kind}' twice")
    values = load_historian_csv(args.csv)[0].channel(args.channel)
    hp = _config(args.hyperparams, Hyperparams, "hyperparameters")
    reports = [
        evaluate_cv(values, lag_spec, args.k, kind, getattr(hp, kind), seed) for kind in kinds
    ]
    doc = {
        "schema_version": 1,
        "channel": args.channel,
        "k": args.k,
        "lag_spec": lag_spec,
        "seed": seed,
        "reports": {r.model_kind: r for r in reports},
    }
    out = _out_dir(args) / "evaluation.json"
    write_json(out, doc)
    print(format_eval_table(reports))
    print(f"wrote {out}")
    return 0


def cmd_detect(args) -> int:
    _bind("ingest", "detect")
    config = _config(args.config, DetectorConfig, "detector config")
    values = load_historian_csv(args.csv)[0].channel(args.channel)
    events = run_all_detectors(values, config)
    out = _out_dir(args)
    write_text(out / "events.jsonl", events_to_jsonl(events) + ("\n" if events else ""))
    counts = Counter(e.kind.value for e in events)
    write_json(
        out / "detect_summary.json",
        {"schema_version": 1, "channel": args.channel, "total": len(events), "by_kind": counts},
    )
    print(format_events(events))
    return 0


def cmd_simulate(args) -> int:
    _bind("models", "plantsim")
    seed = _seed(args)
    scenario = from_dict(Scenario, load_json(args.scenario, "scenario"), "scenario")
    model, lag_spec = load_model(args.model) if args.model else (None, None)
    policies = scenario.build_policies(model=model, lag_spec=lag_spec)
    report = compare_policies(scenario.plan, scenario.injections, policies, scenario.econ, seed, scenario.breakdown)
    out = _out_dir(args) / "comparison.json"
    write_json(out, report)
    print(format_comparison(report))
    print(f"wrote {out}")
    return 0


def cmd_cba(args) -> int:
    _bind("cba")
    seed = _seed(args)
    if not args.bridge and (args.revenue_rate is not None or args.unit_maintenance_cost is not None):
        raise ValidationError("--revenue-rate and --unit-maintenance-cost price simulated deltas; give --bridge")
    items = load_ledger(args.ledger)
    if args.bridge:
        _bind("plantsim")
        comparison = from_dict(ComparisonReport, load_json(args.bridge, "comparison"), "comparison")
        items = bridge_from_simulation(comparison, args.revenue_rate, items, args.unit_maintenance_cost)
    config = McConfig(seed=seed) if args.trials is None else McConfig(trials=args.trials, seed=seed)
    result = net_benefit(items, config)
    out = _out_dir(args) / "net_benefit.json"
    write_json(out, result.to_dict())
    print(format_summary_table(result.item_summaries))
    print()
    print(format_summary_table({"Net benefit": result.net}, title_col="total"))
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pdmecon", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--out-dir", default=None, help=f"output directory (default ${ENV_OUT_DIR} or .)")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="RNG seed (required)")

    p = sub.add_parser("synth", help="write a synthetic historian CSV")
    p.add_argument("--plan", help="trace plan JSON (partial; defaults fill the rest)")
    p.add_argument("--injections", help="JSON list of fault injections")
    p.add_argument("--out", default="historian.csv", help="output CSV filename")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="clean a historian CSV")
    p.add_argument("--csv", required=True, help="historian CSV export")
    p.add_argument("--config", help="ingest config JSON (sentinel tokens, timestamp formats)")
    common(p, seed=False)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="fit a forecast model on one channel")
    p.add_argument("--csv", required=True)
    p.add_argument("--channel", default=TRACE_CHANNEL)
    p.add_argument("--kind", default="linear", help="model kind (default: linear)")
    p.add_argument("--min-lag", type=int, default=LagSpec.min_lag)
    p.add_argument("--max-lag", type=int, default=LagSpec.max_lag)
    p.add_argument("--hyperparams", help="JSON object keyed by model kind")
    p.add_argument("--out", default="model.json", help="output model filename")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="walk-forward RMSE report")
    p.add_argument("--csv", required=True)
    p.add_argument("--channel", default=TRACE_CHANNEL)
    p.add_argument("--kinds", default="linear,forest,boost", help="comma-separated model kinds")
    p.add_argument("--k", type=int, default=5, help="number of splits")
    p.add_argument("--min-lag", type=int, default=LagSpec.min_lag)
    p.add_argument("--max-lag", type=int, default=LagSpec.max_lag)
    p.add_argument("--hyperparams", help="JSON object keyed by model kind")
    common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("detect", help="run rule-based fault detectors")
    p.add_argument("--csv", required=True)
    p.add_argument("--channel", default=TRACE_CHANNEL)
    p.add_argument("--config", help="detector config JSON")
    common(p, seed=False)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("simulate", help="compare maintenance policies on a scenario")
    p.add_argument("--scenario", required=True, help="scenario config JSON")
    p.add_argument("--model", help="trained model JSON (needed for predictive policies)")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("cba", help="Monte Carlo net-benefit analysis")
    p.add_argument("--ledger", required=True, help="ledger JSON file")
    p.add_argument("--trials", type=int)
    p.add_argument("--bridge", help="comparison JSON to bridge simulated deltas into the ledger")
    p.add_argument(
        "--revenue-rate", type=float, help="currency units per uptime second (default: the comparison's rate)"
    )
    p.add_argument(
        "--unit-maintenance-cost", type=float, help="currency units per avoided maintenance (default: 0)"
    )
    common(p)
    p.set_defaults(func=cmd_cba)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"unexpected failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
