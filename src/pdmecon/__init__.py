"""Predictive-maintenance analytics for filtration units.

Sensor ingestion, lag-feature forecasting with walk-forward evaluation,
rule-based fault detection, preventive-vs-predictive plant simulation, and a
Monte Carlo cost-benefit engine, plus a CLI that chains them into
reproducible runs.
"""

from importlib import resources as _resources
from pathlib import Path

__version__ = "0.1.0"
TRACE_CHANNEL = "DPIT301"  # the channel a synthetic trace is written as, and the CLI's default channel


def data_path(name: str) -> Path:
    """Path to a bundled data file (sample ledger, scenario configs)."""
    return Path(str(_resources.files("pdmecon").joinpath("data", name)))


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Left-aligned text table, columns two spaces apart, no line ending in a space."""
    widths = [max([len(h)] + [len(row[c]) for row in rows]) for c, h in enumerate(headers)]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in [headers, *rows])
