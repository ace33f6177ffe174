"""Output checks applied to every artifact of every pass.

A command's artifacts must exist, parse as strict JSON (``NaN`` and
``Infinity`` rejected) when they are JSON or JSON Lines, be byte-identical to
the same artifact from the run's first pass, and, for the default seed, match
the sha256 digests in ``expected.json``. Two invariants are checked on the
documents themselves: time conservation in every simulated outcome and the
net-benefit ledger identity.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"
NET_IDENTITY_RTOL = 1e-9


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def strict_loads(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_comparison(doc: dict) -> list[str]:
    problems = []
    for name, o in doc["outcomes"].items():
        if o["uptime_s"] + o["downtime_s"] != o["duration_s"]:
            problems.append(
                f"outcome {name}: uptime {o['uptime_s']} + downtime {o['downtime_s']} "
                f"!= duration {o['duration_s']}"
            )
    return problems


def check_net_benefit(doc: dict) -> list[str]:
    ledgers = doc["ledgers"]
    direct = ledgers["DirectSaving"]["mean"]
    indirect = ledgers["IndirectSaving"]["mean"]
    implementation = ledgers["ImplementationCost"]["mean"]
    net = doc["net"]["mean"]
    expected = direct + indirect - implementation
    scale = max(abs(net), abs(direct) + abs(indirect) + abs(implementation), 1e-300)
    if abs(net - expected) > NET_IDENTITY_RTOL * scale:
        return [f"net mean {net!r} != direct + indirect - implementation = {expected!r}"]
    return []


def check_ingest_report(doc: dict) -> list[str]:
    dropped = doc["rows_dropped_sentinel"] + doc["rows_dropped_unparseable"]
    if doc["rows_retained"] + dropped != doc["rows_read"]:
        return [f"ingest report does not reconcile: {doc}"]
    return []


INVARIANTS = {
    "comparison.json": check_comparison,
    "net_benefit.json": check_net_benefit,
    "ingest_report.json": check_ingest_report,
}


def check_document(name: str, data: bytes) -> list[str]:
    """Strict-JSON parse plus the invariant for this artifact kind, if any."""
    if not name.endswith((".json", ".jsonl")):
        return []
    try:
        text = data.decode("utf-8")
        if name.endswith(".jsonl"):
            docs = [strict_loads(line) for line in text.splitlines() if line.strip()]
        else:
            docs = [strict_loads(text)]
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        return [f"{name}: not strict JSON: {exc}"]
    invariant = INVARIANTS.get(Path(name).name)
    if invariant is None:
        return []
    try:
        return [f"{name}: {p}" for p in invariant(docs[0])]
    except (KeyError, TypeError) as exc:
        return [f"{name}: missing field for invariant check: {exc!r}"]


class OutputChecker:
    """Checks one run's artifacts: first pass as reference, digests for the default seed."""

    def __init__(self, expected_digests: dict[str, str] | None):
        self.expected = expected_digests or {}
        self.reference: dict[str, str] = {}  # artifact -> sha256 of its first-pass bytes

    def check(self, out_dir: Path, outputs: tuple[str, ...]) -> tuple[list[str], dict[str, int]]:
        """Return (problems, artifact sizes in bytes) for one command's outputs."""
        problems: list[str] = []
        sizes: dict[str, int] = {}
        for name in outputs:
            path = out_dir / name
            try:
                data = path.read_bytes()
            except FileNotFoundError:
                problems.append(f"{name}: not written")
                continue
            sizes[name] = len(data)
            problems += check_document(name, data)
            digest = sha256(data)
            first = self.reference.setdefault(name, digest)
            if digest != first:
                problems.append(f"{name}: differs from the first pass")
            if name in self.expected and digest != self.expected[name]:
                problems.append(f"{name}: sha256 {digest} != expected {self.expected[name]}")
        return problems, sizes


def expected_digests(workload: str, seed: int) -> dict[str, str] | None:
    """Recorded digests for this workload, if the seed is the recorded default seed."""
    doc = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
    if seed != doc["seed"]:
        return None
    return doc["digests"][workload]
