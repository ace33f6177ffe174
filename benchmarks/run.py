"""Seeded benchmark for the pdmecon historian-to-verdict chain.

Runs one workload (or ``all``) through the CLI and checks every artifact it
writes. The load is a closed loop with one client: each pass calls
``pdmecon.cli.main(argv)`` in-process for every command of the workload, back
to back on one Python thread, and the next pass starts when the previous one
is done. numpy's BLAS is set to ``nproc`` threads.

    python3 benchmarks/run.py --workload walkthrough --seed 1 --seconds 26 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 26 --trace 1
    python3 benchmarks/run.py --workload all --seed 1 --smoke --trace 1

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics plus the tracing
overhead. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report. A fuller record of the run, and in traced runs the
spans, are written under ``.bench_runs/results/`` in the checkout. The exit
code is 0 only when every command succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import OutputChecker, expected_digests
from tracing import COUNT_METRICS, Tracer, installed, layer_metrics

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_runs"
WORKLOAD_NAMES = ("walkthrough", "model-select", "forest-policy", "historian-clean")
SETUP_PROBES = 9  # at least this many fresh-process set-ups per untraced run
DEFAULT_SECONDS = 26


def machine_cpu_s() -> tuple[float, float]:
    """(busy, steal) seconds of this machine's CPUs since boot, each summed over CPUs.

    Steal time is what a virtual machine's CPUs lose to other guests on the
    same host; it lengthens wall time without the program doing more work.
    """
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(f) for f in fh.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    tick = os.sysconf("SC_CLK_TCK")
    return (user + nice + system + irq + softirq) / tick, steal / tick


def charged_steal(wall: float, busy: float, steal: float) -> float:
    """The part of a span's machine-wide steal that lengthened the span.

    Steal is summed over CPUs, so when several CPUs are busy and stolen from
    at once, the span's wall time grows by only about one CPU's share. The
    mean number of CPUs that were running or waiting to run, (busy + steal) /
    wall, is that divisor; it is never taken below one.
    """
    if wall <= 0 or steal <= 0:
        return 0.0
    return steal / max(1.0, (busy + steal) / wall)


def span_clock():
    """Start a wall-clock span; calling the result gives (wall, charged steal) so far."""
    wall0, (busy0, steal0) = time.perf_counter(), machine_cpu_s()

    def stop() -> tuple[float, float]:
        wall, (busy, steal) = time.perf_counter() - wall0, machine_cpu_s()
        return wall, charged_steal(wall, busy - busy0, steal - steal0)

    return stop


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> None:
    """Set numpy's BLAS to nproc threads; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc())


def import_program():
    """Import pdmecon from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import pdmecon
        from pdmecon import cli
    except ImportError as exc:
        raise SystemExit(f"benchmark: cannot import pdmecon from {SRC}: {exc}") from None
    if not Path(pdmecon.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"benchmark: pdmecon resolved to {pdmecon.__file__}, outside {SRC}")
    return cli


# ------------------------------------------------------------- environment


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def environment() -> dict:
    import numpy as np  # after pin_blas_threads

    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
    }


# ------------------------------------------------------------------ passes


def run_pass(cli, steps, out_dir: Path, checker, tracer=None, pass_id: int = 0) -> dict:
    """Run every step of one pass, then check every artifact it wrote."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    codes, errors = [], []
    if tracer is None:
        scope = contextlib.nullcontext()
    else:
        scope = contextlib.ExitStack()
        totals = scope.enter_context(tracer.traced_pass(pass_id))
        missing = scope.enter_context(installed(tracer))
    clock, cpu0 = span_clock(), time.process_time()
    with scope:
        for step in steps:
            out, err = io.StringIO(), io.StringIO()
            command = tracer.span(f"cli.{step.command}") if tracer else contextlib.nullcontext()
            with command, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                codes.append(cli.main(list(step.argv)))
            errors.append(err.getvalue().strip())
    wall, steal = clock()
    result = {"wall_s": wall, "steal_s": steal, "pass_s": wall - steal, "cpu_s": time.process_time() - cpu0}

    problems, artifact_bytes, model_bytes, failed = [], 0, 0, 0
    for step, code, err in zip(steps, codes, errors):
        step_problems = [] if code == 0 else [f"{step.command} exited {code}: {err}"]
        found, sizes = checker.check(out_dir, step.outputs)
        step_problems += found
        artifact_bytes += sum(sizes.values())
        model_bytes += sum(n for name, n in sizes.items() if Path(name).name == "model.json")
        failed += bool(step_problems)
        problems += step_problems
    result.update(attempted=len(steps), failed=failed, problems=problems, traced=tracer is not None)
    if tracer is not None:
        result["layers"] = layer_metrics(totals, artifact_bytes, model_bytes)
        result["missing_hooks"] = missing
    return result


def probe_setup(workload: str, seed: int, smoke: bool) -> float:
    """Seconds for a fresh interpreter to import the program and build the inputs, less charged steal."""
    probe_dir = WORK / f"probe-{os.getpid()}"
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
            "--setup-probe", str(probe_dir)] + (["--smoke"] if smoke else [])
    clock = span_clock()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline().strip()
        wall, steal = clock()
        elapsed = wall - steal
        proc.stdout.read()
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(probe_dir, ignore_errors=True)
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode}, said {line!r})")
    return elapsed


# ----------------------------------------------------------------- metrics


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, as (percent, value)."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def end_to_end(setup: list[float], passes: list[dict], attempted: int, failed: int) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s.p50": (statistics.median(p["pass_s"] for p in passes), "s"),
        "cpu_s.p50": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": (1 - failed / attempted, "ratio"),
    }


def per_layer(traced: list[dict], untraced: list[dict], units: dict[str, str]) -> tuple[dict, list[str]]:
    problems = []
    layers = {}
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced]
        if name in COUNT_METRICS:
            if len(set(values)) > 1:
                problems.append(f"count {name} differs between traced passes: {values}")
            layers[name] = (values[0], units.get(name, ""))
        else:
            layers[name] = (statistics.median(values), units.get(name, ""))
    traced_p50 = statistics.median(p["pass_s"] for p in traced)
    untraced_p50 = statistics.median(p["pass_s"] for p in untraced)
    layers["trace.pass_s.p50"] = (traced_p50, "s")
    layers["trace.untraced_pass_s.p50"] = (untraced_p50, "s")
    layers["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")
    return layers, problems


# ------------------------------------------------------------------- report


def print_report(head: dict, metrics: dict, passes: list[dict], setup: list[float], problems: list[str],
                 trace_notes: list[str]) -> None:
    print(f"workload {head['workload']}  seed {head['seed']}  trace {head['trace']}"
          f"  smoke {'yes' if head['smoke'] else 'no'}")
    print("env " + json.dumps(head["env"], sort_keys=True))
    notes = {"setup_s": f"median of {len(setup)} fresh-process set-ups"}
    if not head["trace"]:
        times = [p["pass_s"] for p in passes]
        tail = tail_percentile(times)
        notes["pass_s.p50"] = (
            f"n={len(times)} passes; wall p50 {statistics.median(p['wall_s'] for p in passes):.4f} s less "
            f"charged host steal p50 {statistics.median(p['steal_s'] for p in passes):.4f} s; "
            + (f"p{tail[0]:.0f} = {tail[1]:.4f} s with 10 samples beyond it" if tail
               else "no percentile above the median has 10 samples beyond it"))
        notes["cpu_s.p50"] = f"n={len(times)} passes, user + system over all threads"
        attempted, failed = head["attempted"], head["failed"]
        notes["success_rate"] = f"error_rate = {failed}/{attempted} = {failed / attempted:g}"
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:<36} {shown} {unit:<6}{note}")
    for note in trace_notes:
        print(f"  trace note: {note}")
    for problem in problems:
        print(f"  FAILED: {problem}")


# ---------------------------------------------------------------------- run


def run_workload(args) -> int:
    cli = import_program()
    from workloads import WORKLOADS  # imports pdmecon

    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        inputs = Path(args.setup_probe)
        inputs.mkdir(parents=True)
        workload.setup(inputs, args.seed, args.smoke)
        print("ready", flush=True)
        return 0

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs, out_dir = run_dir / "inputs", run_dir / "out"
    inputs.mkdir(parents=True)
    try:
        workload.setup(inputs, args.seed, args.smoke)
        setup: list[float] = []
        steps = workload.steps(inputs, out_dir, args.seed, args.smoke)
        checker = OutputChecker(None if args.smoke else expected_digests(args.workload, args.seed))
        tracer = Tracer() if args.trace else None
        passes: list[dict] = []
        start = time.perf_counter()
        while True:
            # Untraced runs time one set-up probe before each pass, so set-up is
            # sampled under the same host conditions as the passes.
            if not args.trace:
                setup.append(probe_setup(args.workload, args.seed, args.smoke))
            traced = tracer if args.trace and len(passes) % 2 == 1 else None
            passes.append(run_pass(cli, steps, out_dir, checker, traced, len(passes)))
            if args.trace and len({p["traced"] for p in passes}) < 2:
                continue
            # Stop when the next pass would end past the deadline by more than
            # half a pass, so a run measures --seconds give or take half a pass.
            next_pass = statistics.median(p["pass_s"] for p in passes) + (statistics.median(setup) if setup else 0)
            if args.smoke or time.perf_counter() - start + next_pass / 2 >= args.seconds:
                break
        while not args.trace and not args.smoke and len(setup) < SETUP_PROBES:
            setup.append(probe_setup(args.workload, args.seed, args.smoke))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [q for p in passes for q in p["problems"]]
    trace_notes = []
    if args.trace:
        trace_notes = [f"hook not found: {h}" for h in next(p["missing_hooks"] for p in passes if p["traced"])]
        trace_notes += [f"counter failed: {e}" for e in sorted(tracer.observer_errors)]
        units = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        units = {m["name"]: m["unit"] for m in units["per_layer"]}
        metrics, count_problems = per_layer(
            [p for p in passes if p["traced"]], [p for p in passes if not p["traced"]], units
        )
        problems += count_problems
    else:
        metrics = end_to_end(setup, passes, attempted, failed)
    correct = failed == 0 and not problems

    head = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "env": environment(), "attempted": attempted, "failed": failed}
    print_report(head, metrics, [p for p in passes if not p["traced"]], setup, problems, trace_notes)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    record = dict(head, correct=correct, setup_samples_s=setup, problems=problems,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  first_pass_sha256=checker.reference,
                  passes=[{k: p[k] for k in ("pass_s", "wall_s", "steal_s", "cpu_s", "traced", "attempted", "failed")}
                          for p in passes],
                  trace_notes=trace_notes)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(results / f"{stem}.spans.jsonl")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process and print every metric of each."""
    import_program()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name}: no result (exit {proc.returncode})")
            summary["correct"] = False
            code = code or 1
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return code


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass on reduced inputs, every check on")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
