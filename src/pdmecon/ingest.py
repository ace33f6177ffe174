"""Historian CSV ingestion.

Loads sensor exports into an in-memory SensorFrame: one strictly increasing
timestamp column (integer epoch seconds) plus N numeric channels. Cleaning is
whole-row: any row containing a sentinel token (default "Bad Input") or a cell
that fails to parse is dropped and counted, which keeps all channels aligned
without imputation.

Assumptions:
- Header row is mandatory; the first column is the timestamp.
- Decimal separator is "." regardless of locale.
- Timestamps have second resolution; duplicate or backward timestamps are
  rejected (plant historians emit monotone time).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import IngestError, ValidationError

ISO8601 = "iso8601"
EPOCH_SECONDS = "epoch"

DEFAULT_TIMESTAMP_FORMATS = (ISO8601, "%d/%m/%Y %H:%M:%S", "%d/%m/%Y %H:%M")


@dataclass(frozen=True)
class Series:
    """A single sensor channel: aligned timestamps and values."""

    timestamps: np.ndarray  # int64 epoch seconds
    values: np.ndarray  # float64
    name: str = ""
    unit: str = "kPa"

    def __post_init__(self):
        object.__setattr__(self, "timestamps", np.asarray(self.timestamps, dtype=np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.timestamps.shape != self.values.shape:
            raise ValidationError(
                f"series '{self.name}': {len(self.timestamps)} timestamps "
                f"vs {len(self.values)} values"
            )

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Channel:
    name: str
    values: np.ndarray
    unit: str = "kPa"

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))


@dataclass(frozen=True)
class SensorFrame:
    """Cleaned multi-channel table of sensor readings.

    Invariants (enforced at construction): timestamps strictly increasing,
    every channel exactly n_rows long, no NaN or infinite values.
    """

    timestamps: np.ndarray
    channels: tuple[Channel, ...]

    def __post_init__(self):
        object.__setattr__(self, "timestamps", np.asarray(self.timestamps, dtype=np.int64))
        object.__setattr__(self, "channels", tuple(self.channels))
        if len(self.timestamps) and np.any(np.diff(self.timestamps) <= 0):
            bad = int(np.argmax(np.diff(self.timestamps) <= 0)) + 1
            raise ValidationError(f"timestamps not strictly increasing at row {bad}")
        for ch in self.channels:
            if len(ch.values) != len(self.timestamps):
                raise ValidationError(
                    f"channel '{ch.name}' has {len(ch.values)} values, expected {self.n_rows}"
                )
            if not np.all(np.isfinite(ch.values)):
                raise ValidationError(f"channel '{ch.name}' contains NaN or infinite values")

    @property
    def n_rows(self) -> int:
        return len(self.timestamps)

    @property
    def channel_names(self) -> list[str]:
        return [ch.name for ch in self.channels]

    def channel(self, name: str) -> Channel:
        for ch in self.channels:
            if ch.name == name:
                return ch
        raise ValidationError(
            f"unknown channel '{name}'; available: {', '.join(self.channel_names)}"
        )


@dataclass(frozen=True)
class IngestReport:
    rows_read: int
    rows_dropped_sentinel: int
    rows_dropped_unparseable: int
    channels_retained: int

    @property
    def rows_retained(self) -> int:
        return self.rows_read - self.rows_dropped_sentinel - self.rows_dropped_unparseable

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "rows_read": self.rows_read,
            "rows_dropped_sentinel": self.rows_dropped_sentinel,
            "rows_dropped_unparseable": self.rows_dropped_unparseable,
            "rows_retained": self.rows_retained,
            "channels_retained": self.channels_retained,
        }


@dataclass(frozen=True)
class IngestConfig:
    """Cleaning and parsing knobs for load_historian_csv.

    timestamp_formats are tried in order per cell; entries are either the
    ISO8601 sentinel, the EPOCH_SECONDS sentinel, or strptime patterns.
    """

    sentinel_tokens: tuple[str, ...] = ("Bad Input",)
    timestamp_formats: tuple[str, ...] = DEFAULT_TIMESTAMP_FORMATS

    def __post_init__(self):
        if not self.timestamp_formats:
            raise ValidationError("at least one timestamp format is required")


def _parse_timestamp(text: str, formats: tuple[str, ...]) -> int | None:
    """Return integer epoch seconds, or None if no configured format matches."""
    for fmt in formats:
        if fmt == ISO8601:
            try:
                dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
            except ValueError:
                continue
        elif fmt == EPOCH_SECONDS:
            try:
                return int(float(text))
            except ValueError:
                continue
        else:
            try:
                dt = datetime.strptime(text, fmt)
            except ValueError:
                continue
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return int(dt.timestamp())
    return None


def load_historian_csv(
    path: str | Path, config: IngestConfig | None = None
) -> tuple[SensorFrame, IngestReport]:
    """Parse, clean, and type-coerce a historian CSV export.

    Args:
        path: CSV file with a header row; first column is the timestamp.
        config: sentinel tokens and timestamp formats (defaults per IngestConfig).

    Returns:
        (SensorFrame, IngestReport); the report's totals reconcile with the
        frame's row count.

    Raises:
        IngestError: missing/empty/header-only file, no parseable rows, or
            non-monotone timestamps (with row context).
    """
    config = config or IngestConfig()
    path = Path(path)
    if not path.exists():
        raise IngestError(f"file not found: {path}")

    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"empty file: {path}") from None
        names = [h.strip() for h in header]
        if len(names) < 2:
            raise IngestError(f"{path}: header must have a timestamp column plus >= 1 channel")
        channel_names = names[1:]
        n_channels = len(channel_names)

        timestamps: list[int] = []
        columns: list[list[float]] = [[] for _ in range(n_channels)]
        rows_read = 0
        dropped_sentinel = 0
        dropped_unparseable = 0
        first_failure: str | None = None

        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue  # blank line, not a data row
            rows_read += 1
            cells = [c.strip() for c in row]
            if any(c in config.sentinel_tokens for c in cells):
                dropped_sentinel += 1
                continue
            if len(cells) != n_channels + 1:
                dropped_unparseable += 1
                if first_failure is None:
                    first_failure = f"line {lineno}: expected {n_channels + 1} cells, got {len(cells)}"
                continue
            ts = _parse_timestamp(cells[0], config.timestamp_formats)
            if ts is None:
                dropped_unparseable += 1
                if first_failure is None:
                    first_failure = (
                        f"line {lineno}, column '{names[0]}': "
                        f"'{cells[0]}' matches none of {list(config.timestamp_formats)}"
                    )
                continue
            try:
                values = [float(c) for c in cells[1:]]
            except ValueError:
                dropped_unparseable += 1
                if first_failure is None:
                    bad = next(c for c in cells[1:] if not _is_float(c))
                    col = channel_names[cells[1:].index(bad)]
                    first_failure = f"line {lineno}, column '{col}': '{bad}' is not numeric"
                continue
            if not all(np.isfinite(values)):
                dropped_unparseable += 1
                if first_failure is None:
                    first_failure = f"line {lineno}: non-finite value"
                continue
            timestamps.append(ts)
            for col, v in zip(columns, values):
                col.append(v)

    if rows_read == 0:
        raise IngestError(f"{path}: header-only file, no data rows")
    if not timestamps:
        detail = f" (first failure: {first_failure})" if first_failure else ""
        raise IngestError(f"{path}: no rows survived cleaning{detail}")

    ts_arr = np.asarray(timestamps, dtype=np.int64)
    if np.any(np.diff(ts_arr) <= 0):
        bad = int(np.argmax(np.diff(ts_arr) <= 0)) + 1
        raise IngestError(
            f"{path}: timestamps must be strictly increasing; violation at retained row {bad} "
            f"(epoch {ts_arr[bad]} after {ts_arr[bad - 1]})"
        )

    frame = SensorFrame(
        timestamps=ts_arr,
        channels=tuple(Channel(name, np.asarray(col)) for name, col in zip(channel_names, columns)),
    )
    report = IngestReport(
        rows_read=rows_read,
        rows_dropped_sentinel=dropped_sentinel,
        rows_dropped_unparseable=dropped_unparseable,
        channels_retained=n_channels,
    )
    return frame, report


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def select_channel(frame: SensorFrame, name: str) -> Series:
    """Project one channel out of a frame, preserving row order and timestamps."""
    ch = frame.channel(name)
    return Series(timestamps=frame.timestamps, values=ch.values, name=ch.name, unit=ch.unit)


def write_sensor_csv(frame: SensorFrame, path: str | Path) -> None:
    """Write a frame in the ingest CSV format (round-trips through load_historian_csv).

    Timestamps are emitted as naive-UTC ISO-8601; values use repr so floats
    survive the round trip bit-exactly.
    """
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["Timestamp"] + [ch.name for ch in frame.channels])
        iso = [
            datetime.fromtimestamp(int(t), tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")
            for t in frame.timestamps
        ]
        cols = [ch.values for ch in frame.channels]
        for i, stamp in enumerate(iso):
            writer.writerow([stamp] + [repr(float(c[i])) for c in cols])
