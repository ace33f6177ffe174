"""Three-ledger cost-benefit model with Monte Carlo sampling.

Line items belong to one of three ledgers (implementation cost, direct saving,
indirect saving) under a fixed category taxonomy; amounts are points or
probability distributions, each named by its "dist" in a ledger file, in
abstract currency units per year (one-off items are flagged and added once per
annual run). Each trial samples every item, in ledger order, from its own
stream default_rng((seed, trial)), so a trial's draws do not depend on how
many trials run or in what order, and computes

    net = direct total + indirect total - implementation total

which holds exactly on every stored sample, not just in expectation.

The trial streams are computed all at once: _TrialStreams holds the PCG64
state of every trial as uint64 arrays, seeded by numpy's SeedSequence hash and
stepped by PCG64 (O'Neill 2014), both ported to array arithmetic. NumPy keeps
those bit streams stable (NEP 19), so the draws are bit for bit the ones that
one default_rng((seed, trial)) per trial gives. Normal draws through numpy's
ziggurat, which Python cannot reach, so it alone runs one reused generator
per trial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Annotated, ClassVar, Literal

import numpy as np

from . import format_table
from .errors import ValidationError
from .jsonio import from_dict, json_object, load_json, plain

if TYPE_CHECKING:  # the simulator, models and detectors load only for a bridge, which passes one in
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


MAX_TRIALS = 2**32

_MASK32, _MASK64 = 2**32 - 1, 2**64 - 1
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit multiplier as its high and low 64 bits
_PCG_MULT_HI, _PCG_MULT_LO = divmod(0x2360ED051FC65DA44385DF649FCCF645, 2**64)
_U32, _U64 = np.uint32, np.uint64


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays; the hash constant steps once per call."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ _U32(const)
        const = const * mult & _MASK32
        value = value * _U32(const)
        return value ^ (value >> _U32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _U32(_MIX_MULT_L) * x - _U32(_MIX_MULT_R) * y
    return result ^ (result >> _U32(16))


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of a * b for uint64 a and a constant b, in 32-bit limbs."""
    a0, a1 = a & _U64(_MASK32), a >> _U64(32)
    b0, b1 = _U64(b & _MASK32), _U64(b >> 32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U64(32)) + (p01 & _U64(_MASK32)) + (p10 & _U64(_MASK32))
    return a1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo


class _TrialStreams:
    """The PCG64 streams of default_rng((seed, t)) for every trial t, stepped together.

    Each stream's 128-bit state and increment are held as (hi, lo) uint64
    arrays. uint64 array arithmetic wraps silently, which is the mod 2^64
    the generator needs.
    """

    def __init__(self, seed: int, trials: int):
        self.trials = trials
        # SeedSequence((seed, t)).pool: the entropy is seed's 32-bit words,
        # least significant first (0 is one zero word), then t as one word
        seed_words = [seed & _MASK32]
        while seed > _MASK32:
            seed >>= 32
            seed_words.append(seed & _MASK32)
        entropy = [np.full(trials, w, dtype=np.uint32) for w in seed_words]
        entropy.append(np.arange(trials, dtype=np.uint32))
        hashmix = _hasher(_INIT_A, _MULT_A)
        pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(trials, np.uint32)) for i in range(_POOL_SIZE)]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in entropy[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = _mix(pool[dst], hashmix(word))
        # generate_state(4, uint64): eight words cycled from the pool, paired little-endian
        hashmix = _hasher(_INIT_B, _MULT_B)
        words = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
        state_hi, state_lo, seq_hi, seq_lo = (words[2 * i] | (words[2 * i + 1] << _U64(32)) for i in range(4))
        # PCG64's srandom: inc = (initseq << 1) | 1, step, add initstate, step
        self.inc_hi = (seq_hi << _U64(1)) | (seq_lo >> _U64(63))
        self.inc_lo = (seq_lo << _U64(1)) | _U64(1)
        self.hi, self.lo = _add128(self.inc_hi, self.inc_lo, state_hi, state_lo)
        self._step()

    def _step(self) -> None:
        """state = state * multiplier + inc mod 2^128."""
        hi = _mulhi64(self.lo, _PCG_MULT_LO) + self.lo * _U64(_PCG_MULT_HI) + self.hi * _U64(_PCG_MULT_LO)
        self.hi, self.lo = _add128(hi, self.lo * _U64(_PCG_MULT_LO), self.inc_hi, self.inc_lo)

    def doubles(self) -> np.ndarray:
        """One draw per trial in [0, 1), as Generator.random gives: 53 bits of XSL-RR output."""
        self._step()
        x = self.hi ^ self.lo
        rot = self.hi >> _U64(58)
        out = (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))
        return (out >> _U64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)

    def per_trial(self, draw) -> np.ndarray:
        """draw(rng) once per trial on a Generator positioned at that trial's state."""
        bitgen = np.random.PCG64(0)
        rng = np.random.Generator(bitgen)
        out = np.empty(self.trials)
        his, los = self.hi.tolist(), self.lo.tolist()
        for t, (hi, lo, inc_hi, inc_lo) in enumerate(zip(his, los, self.inc_hi.tolist(), self.inc_lo.tolist())):
            bitgen.state = {
                "bit_generator": "PCG64",
                "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
                "has_uint32": 0,
                "uinteger": 0,
            }
            out[t] = draw(rng)
            state = bitgen.state["state"]["state"]
            his[t], los[t] = state >> 64, state & _MASK64
        self.hi, self.lo = np.array(his, dtype=np.uint64), np.array(los, dtype=np.uint64)
        return out


@dataclass(frozen=True)
class Point:
    dist: ClassVar[str] = "point"
    value: float

    def sample(self, streams: _TrialStreams) -> np.ndarray:
        return np.full(streams.trials, self.value, dtype=np.float64)


@dataclass(frozen=True)
class Uniform:
    dist: ClassVar[str] = "uniform"
    low: float
    high: float

    def __post_init__(self):
        if self.low > self.high:
            raise ValidationError(f"Uniform low {self.low} > high {self.high}")
        if not np.isfinite(self.high - self.low):
            raise ValidationError(f"Uniform range [{self.low}, {self.high}] overflows a float")

    def sample(self, streams: _TrialStreams) -> np.ndarray:
        if self.low == self.high:
            return np.full(streams.trials, self.low, dtype=np.float64)
        return self.low + (self.high - self.low) * streams.doubles()


@dataclass(frozen=True)
class Triangular:
    dist: ClassVar[str] = "triangular"
    low: float
    mode: float
    high: float

    def __post_init__(self):
        if not self.low <= self.mode <= self.high:
            raise ValidationError(
                f"Triangular requires low <= mode <= high, got ({self.low}, {self.mode}, {self.high})"
            )

    def sample(self, streams: _TrialStreams) -> np.ndarray:
        if self.low == self.high:
            return np.full(streams.trials, self.low, dtype=np.float64)
        # numpy's random_triangular; an overflowing spread gives inf or NaN there
        # too, silently, and net_benefit refuses it
        base = self.high - self.low
        leftbase = self.mode - self.low
        ratio = leftbase / base
        leftprod = leftbase * base
        rightprod = (self.high - self.mode) * base
        u = streams.doubles()
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(u <= ratio, self.low + np.sqrt(u * leftprod), self.high - np.sqrt((1.0 - u) * rightprod))


@dataclass(frozen=True)
class Normal:
    """Gaussian truncated at zero by rejection resampling."""

    dist: ClassVar[str] = "normal"
    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ValidationError("Normal sigma must be >= 0")
        if self.mu < 0 and self.sigma == 0:
            raise ValidationError("Normal(mu < 0, sigma = 0) can never yield a sample >= 0")

    def sample(self, streams: _TrialStreams) -> np.ndarray:
        return streams.per_trial(self._draw)

    def _draw(self, rng: np.random.Generator) -> float:
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


AmountSpec = Annotated[Point | Uniform | Triangular | Normal, "dist"]


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
                f"category '{self.category}' not valid for {self.ledger.value}; allowed: {list(allowed)}"
            )
        if self.category == "DisposalGain" and self.kind is not ItemKind.ONE_OFF:
            raise ValidationError("DisposalGain must be OneOff")
        if self.kind is ItemKind.ONE_OFF and self.category != "DisposalGain":
            raise ValidationError("only DisposalGain items may be OneOff")


def item_from_dict(doc, what: str = "item") -> LineItem:
    """A ledger item, named in errors by its name when it has one; kind defaults to Variable."""
    fields = {"kind": ItemKind.VARIABLE.value, **json_object(doc, what)}
    if isinstance(fields.get("name"), str):
        what = f"{what} {fields['name']!r}"
    return from_dict(LineItem, fields, what)


@dataclass(frozen=True)
class McConfig:
    trials: int = 10000
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if self.trials > MAX_TRIALS:
            raise ValidationError(f"trials must be <= 2^32 = {MAX_TRIALS}, so that a trial index is one 32-bit seed word")
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


@dataclass
class NetBenefitResult:
    item_summaries: dict  # name -> McSummary
    ledger_summaries: dict  # LedgerKind -> McSummary
    net: McSummary
    net_samples: np.ndarray
    ledger_samples: dict = field(default_factory=dict)  # LedgerKind -> ndarray

    def to_dict(self) -> dict:
        """The summaries, without the samples, ledgers keyed by their value."""
        ledgers = {k.value: s for k, s in self.ledger_summaries.items()}
        return plain({"schema_version": 1, "items": self.item_summaries, "ledgers": ledgers, "net": self.net})


def _sample_matrix(items: list[LineItem], config: McConfig) -> np.ndarray:
    """(trials x items) draws; every trial's stream serves its items in ledger order."""
    streams = _TrialStreams(config.seed, config.trials)
    return np.column_stack([item.amount.sample(streams) for item in items])


def net_benefit(ledger: list[LineItem], config: McConfig) -> NetBenefitResult:
    """Sample the whole ledger and aggregate per item, per ledger, and net."""
    if not ledger:
        raise ValidationError("ledger has no items")
    names = [item.name for item in ledger]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValidationError(f"duplicate item names: {dupes}")

    try:
        samples = _sample_matrix(ledger, config)
        ledger_samples = {}
        # an overflow is refused, here or when the result is written, rather than warned about
        with np.errstate(over="ignore", invalid="ignore"):
            for kind in LedgerKind:
                cols = [j for j, item in enumerate(ledger) if item.ledger is kind]
                ledger_samples[kind] = samples[:, cols].sum(axis=1) if cols else np.zeros(config.trials)
            net_samples = (
                ledger_samples[LedgerKind.DIRECT_SAVING]
                + ledger_samples[LedgerKind.INDIRECT_SAVING]
                - ledger_samples[LedgerKind.IMPLEMENTATION_COST]
            )
            totals = np.column_stack([samples, *ledger_samples.values(), net_samples]).sum(axis=0)
            if not np.isfinite(totals).all():
                raise ValidationError("net benefit is not finite: the ledger's amounts overflow a float when summed")
            return NetBenefitResult(
                item_summaries={item.name: McSummary.from_samples(samples[:, j]) for j, item in enumerate(ledger)},
                ledger_summaries={k: McSummary.from_samples(v) for k, v in ledger_samples.items()},
                net=McSummary.from_samples(net_samples),
                net_samples=net_samples,
                ledger_samples=ledger_samples,
            )
    except MemoryError:
        raise ValidationError(f"not enough memory for {config.trials} trials; use fewer trials") from None


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
    revenue_rate: float | None,
    ledger: list[LineItem],
    unit_maintenance_cost: float | None = None,
) -> list[LineItem]:
    """Price a comparison's preventive-versus-predictive deltas as ledger entries.

    Overwrites (or appends) two point-valued items: avoided lost revenue, the
    downtime avoided at revenue_rate (the simulated rate when it is None), and
    maintenance cost savings, the maintenance avoided at unit_maintenance_cost
    (0 when it is None). A price that is negative or not finite is refused, and so is an amount beyond float64
    range, each naming its price.
    """
    deltas = comparison.deltas
    if deltas.downtime_avoided_s is None:
        raise ValidationError("bridge needs both a 'preventive' and a 'predictive' outcome")
    if revenue_rate is None:
        revenue_rate = next(iter(comparison.outcomes.values())).revenue_rate_per_s  # the report's outcomes share it
    unit_cost = 0.0 if unit_maintenance_cost is None else unit_maintenance_cost
    revenue, saving = deltas.downtime_avoided_s * revenue_rate, deltas.maintenance_avoided * unit_cost
    for price, value, delta, amount in [
        ("revenue_rate", revenue_rate, f"downtime_avoided_s {deltas.downtime_avoided_s}", revenue),
        ("unit_maintenance_cost", unit_cost, f"maintenance_avoided {deltas.maintenance_avoided}", saving),
    ]:
        if not 0 <= value < np.inf:
            raise ValidationError(f"{price} must be a finite number >= 0, got {value}")
        if not np.isfinite(amount):
            raise ValidationError(f"{price} {value} x {delta} is beyond float64 range")
    bridged = {
        BRIDGED_REVENUE_ITEM: LineItem(
            name=BRIDGED_REVENUE_ITEM,
            ledger=LedgerKind.INDIRECT_SAVING,
            category="LostProductivityAvoidance",
            kind=ItemKind.VARIABLE,
            amount=Point(revenue),
            assumptions="bridged from simulation: uptime delta x revenue rate",
        ),
        BRIDGED_MAINTENANCE_ITEM: LineItem(
            name=BRIDGED_MAINTENANCE_ITEM,
            ledger=LedgerKind.DIRECT_SAVING,
            category="Operating",
            kind=ItemKind.VARIABLE,
            amount=Point(saving),
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
