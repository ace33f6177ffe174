"""Three-ledger cost-benefit model with Monte Carlo sampling.

Line items belong to one of three ledgers (implementation cost, direct saving,
indirect saving) under a fixed category taxonomy; amounts are points or
probability distributions in abstract currency units per year (one-off items
are flagged and added once per annual run). Each trial samples every item
independently from a per-trial stream derived as default_rng((seed, trial)),
so trials can run concurrently without changing the result, and computes

    net = direct total + indirect total - implementation total

which holds exactly on every stored sample, not just in expectation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Literal

import numpy as np

from . import format_table
from .errors import ValidationError
from .jsonio import from_dict, json_object, load_json, tagged
from .plantsim import ComparisonReport


class LedgerKind(str, Enum):
    IMPLEMENTATION_COST = "ImplementationCost"
    DIRECT_SAVING = "DirectSaving"
    INDIRECT_SAVING = "IndirectSaving"


class ItemKind(str, Enum):
    FIXED = "Fixed"
    VARIABLE = "Variable"
    ONE_OFF = "OneOff"


# Categories permitted per ledger; extra categories are rejected so reports
# stay comparable across runs.
CATEGORY_TAXONOMY = {
    LedgerKind.IMPLEMENTATION_COST: ("Equipment", "Supplies/Inventories", "Labor"),
    LedgerKind.DIRECT_SAVING: ("Operating", "Financing", "DisposalGain"),
    LedgerKind.INDIRECT_SAVING: ("LostProductivityAvoidance", "MaintenanceCycleDelay"),
}


@dataclass(frozen=True)
class Point:
    value: float

    def sample(self, rng: np.random.Generator) -> float:
        return self.value


@dataclass(frozen=True)
class Uniform:
    low: float
    high: float

    def __post_init__(self):
        if self.low > self.high:
            raise ValidationError(f"Uniform low {self.low} > high {self.high}")
        if not np.isfinite(self.high - self.low):
            raise ValidationError(f"Uniform range [{self.low}, {self.high}] overflows a float")

    def sample(self, rng: np.random.Generator) -> float:
        if self.low == self.high:
            return self.low
        return float(rng.uniform(self.low, self.high))


@dataclass(frozen=True)
class Triangular:
    low: float
    mode: float
    high: float

    def __post_init__(self):
        if not self.low <= self.mode <= self.high:
            raise ValidationError(
                f"Triangular requires low <= mode <= high, got ({self.low}, {self.mode}, {self.high})"
            )

    def sample(self, rng: np.random.Generator) -> float:
        if self.low == self.high:
            return self.low
        return float(rng.triangular(self.low, self.mode, self.high))


@dataclass(frozen=True)
class Normal:
    """Gaussian truncated at zero by rejection resampling."""

    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ValidationError("Normal sigma must be >= 0")
        if self.mu < 0 and self.sigma == 0:
            raise ValidationError("Normal(mu < 0, sigma = 0) can never yield a sample >= 0")

    def sample(self, rng: np.random.Generator) -> float:
        # bounded rejection loop: a spec whose mass sits almost entirely below
        # zero is a config mistake, not something to grind against
        for _ in range(10000):
            v = float(rng.normal(self.mu, self.sigma))
            if v >= 0:
                return v
        raise ValidationError(
            f"Normal(mu={self.mu}, sigma={self.sigma}) produced no sample >= 0 "
            f"in 10000 draws; check the parameters"
        )


AmountSpec = Point | Uniform | Triangular | Normal


def amount_from_dict(doc, what: str = "amount") -> AmountSpec:
    kinds = {"point": Point, "uniform": Uniform, "triangular": Triangular, "normal": Normal}
    cls, fields = tagged(doc, "dist", kinds, what)
    return from_dict(cls, fields, what)


@dataclass(frozen=True)
class LineItem:
    name: str
    ledger: LedgerKind
    category: str
    kind: ItemKind
    amount: AmountSpec
    assumptions: str = ""

    def __post_init__(self):
        if not self.name:
            raise ValidationError("line item needs a name")
        allowed = CATEGORY_TAXONOMY[self.ledger]
        if self.category not in allowed:
            raise ValidationError(
                f"item '{self.name}': category '{self.category}' not valid for "
                f"{self.ledger.value}; allowed: {list(allowed)}"
            )
        if self.category == "DisposalGain" and self.kind is not ItemKind.ONE_OFF:
            raise ValidationError(f"item '{self.name}': DisposalGain must be OneOff")
        if self.kind is ItemKind.ONE_OFF and self.category != "DisposalGain":
            raise ValidationError(
                f"item '{self.name}': only DisposalGain items may be OneOff"
            )


def item_from_dict(doc, what: str = "item") -> LineItem:
    """A ledger item; kind defaults to Variable."""
    fields = {"kind": ItemKind.VARIABLE.value, **json_object(doc, what)}
    if isinstance(fields.get("name"), str):
        what = f"{what} {fields['name']!r}"
    amount = amount_from_dict(fields.pop("amount", None), f"{what}.amount")
    return from_dict(LineItem, fields, what, amount=amount)


@dataclass(frozen=True)
class McConfig:
    trials: int = 10000
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")


@dataclass(frozen=True)
class McSummary:
    mean: float
    sd: float  # sample standard deviation (divisor n-1)
    max: float
    min: float
    p5: float
    p50: float
    p95: float

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "McSummary":
        samples = np.asarray(samples, dtype=np.float64)
        sd = float(samples.std(ddof=1)) if len(samples) > 1 else 0.0
        p5, p50, p95 = (float(v) for v in np.percentile(samples, [5, 50, 95]))
        return cls(
            mean=float(samples.mean()),
            sd=sd,
            max=float(samples.max()),
            min=float(samples.min()),
            p5=p5,
            p50=p50,
            p95=p95,
        )

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "sd": self.sd,
            "max": self.max,
            "min": self.min,
            "p5": self.p5,
            "p50": self.p50,
            "p95": self.p95,
        }


@dataclass
class NetBenefitResult:
    item_summaries: dict  # name -> McSummary
    ledger_summaries: dict  # LedgerKind -> McSummary
    net: McSummary
    net_samples: np.ndarray
    ledger_samples: dict = field(default_factory=dict)  # LedgerKind -> ndarray

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "items": {name: s.to_dict() for name, s in self.item_summaries.items()},
            "ledgers": {k.value: s.to_dict() for k, s in self.ledger_summaries.items()},
            "net": self.net.to_dict(),
        }


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng((seed, trial))


def _sample_matrix(items: list[LineItem], config: McConfig) -> np.ndarray:
    samples = np.empty((config.trials, len(items)))
    for t in range(config.trials):
        rng = _trial_rng(config.seed, t)
        for j, item in enumerate(items):
            samples[t, j] = item.amount.sample(rng)
    return samples


def net_benefit(ledger: list[LineItem], config: McConfig) -> NetBenefitResult:
    """Sample the whole ledger and aggregate per item, per ledger, and net."""
    if not ledger:
        raise ValidationError("ledger has no items")
    names = [item.name for item in ledger]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValidationError(f"duplicate item names: {dupes}")

    samples = _sample_matrix(ledger, config)
    item_summaries = {
        item.name: McSummary.from_samples(samples[:, j]) for j, item in enumerate(ledger)
    }
    ledger_samples = {}
    for kind in LedgerKind:
        cols = [j for j, item in enumerate(ledger) if item.ledger is kind]
        ledger_samples[kind] = samples[:, cols].sum(axis=1) if cols else np.zeros(config.trials)
    net_samples = (
        ledger_samples[LedgerKind.DIRECT_SAVING]
        + ledger_samples[LedgerKind.INDIRECT_SAVING]
        - ledger_samples[LedgerKind.IMPLEMENTATION_COST]
    )
    return NetBenefitResult(
        item_summaries=item_summaries,
        ledger_summaries={k: McSummary.from_samples(v) for k, v in ledger_samples.items()},
        net=McSummary.from_samples(net_samples),
        net_samples=net_samples,
        ledger_samples=ledger_samples,
    )


@dataclass(frozen=True)
class _LedgerDoc:
    schema_version: Literal[1]
    items: tuple[dict, ...]
    notes: str = ""


def load_ledger(path: str | Path) -> list[LineItem]:
    """Load and validate a ledger JSON file."""
    doc = from_dict(_LedgerDoc, load_json(path, "ledger"), "ledger")
    if not doc.items:
        raise ValidationError(f"{path}: ledger must contain a non-empty 'items' list")
    return [item_from_dict(d, f"ledger item {i}") for i, d in enumerate(doc.items)]


BRIDGED_REVENUE_ITEM = "Avoidance of lost revenue"
BRIDGED_MAINTENANCE_ITEM = "Maintenance cost savings"


def bridge_from_simulation(
    comparison: ComparisonReport,
    revenue_rate: float,
    ledger: list[LineItem],
    unit_maintenance_cost: float = 0.0,
) -> list[LineItem]:
    """Convert simulated preventive-vs-predictive deltas into ledger entries.

    Overwrites (or appends) two point-valued items: avoided lost revenue from
    the uptime delta, and maintenance cost savings from the count delta.
    """
    if "preventive" not in comparison.outcomes or "predictive" not in comparison.outcomes:
        raise ValidationError("bridge needs both a 'preventive' and a 'predictive' outcome")
    prev = comparison.outcomes["preventive"]
    pred = comparison.outcomes["predictive"]
    revenue_delta = (pred.uptime_s - prev.uptime_s) * revenue_rate
    maint_delta = prev.maintenance_count - pred.maintenance_count
    bridged = {
        BRIDGED_REVENUE_ITEM: LineItem(
            name=BRIDGED_REVENUE_ITEM,
            ledger=LedgerKind.INDIRECT_SAVING,
            category="LostProductivityAvoidance",
            kind=ItemKind.VARIABLE,
            amount=Point(revenue_delta),
            assumptions="bridged from simulation: uptime delta x revenue rate",
        ),
        BRIDGED_MAINTENANCE_ITEM: LineItem(
            name=BRIDGED_MAINTENANCE_ITEM,
            ledger=LedgerKind.DIRECT_SAVING,
            category="Operating",
            kind=ItemKind.VARIABLE,
            amount=Point(maint_delta * unit_maintenance_cost),
            assumptions="bridged from simulation: maintenance count delta x unit cost",
        ),
    }
    out = [bridged.pop(item.name, item) for item in ledger]
    out.extend(bridged.values())
    return out


def format_summary_table(summaries: dict, title_col: str = "item") -> str:
    """Aligned text table in the Average / SD / Max / Min column order."""
    headers = [title_col, "Average", "SD", "Max", "Min"]
    rows = [
        [name, f"{s.mean:.1f}", f"{s.sd:.1f}", f"{s.max:.1f}", f"{s.min:.1f}"]
        for name, s in summaries.items()
    ]
    return format_table(headers, rows)
