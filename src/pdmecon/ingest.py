"""Historian CSV ingestion.

Loads sensor exports into an in-memory SensorFrame: one strictly increasing
timestamp column (integer epoch seconds) plus N named channels, held as one
float64 array of N rows; frame.channel(name) is one channel's row. Cleaning is
whole-row: any row containing a sentinel token (default "Bad Input") or a cell
that fails to parse is dropped and counted, which keeps all channels aligned
without imputation.

The file is read in blocks of BLOCK_ROWS rows, a whole column at a time.
Timestamp cells of exactly the shape YYYY-MM-DDThh:mm:ss (ISO8601), DD/MM/YYYY
hh:mm:ss or DD/MM/YYYY hh:mm are parsed in one vectorised pass per block; every
other cell is tried against the configured formats in order, and the first
format that matches decides.

Assumptions:
- Header row is mandatory; the first column is the timestamp, and every
  channel column has a name of its own (not empty, not shared).
- A cell is at most the csv module's field limit (131,072 characters by
  default); a longer one refuses the file rather than raising that limit,
  which is process-wide.
- Decimal separator is "." regardless of locale.
- Timestamps have second resolution; duplicate or backward timestamps are
  rejected (plant historians emit monotone time).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import IngestError, ValidationError
from .jsonio import plain

ISO8601 = "iso8601"
EPOCH_SECONDS = "epoch"

DEFAULT_TIMESTAMP_FORMATS = (ISO8601, "%d/%m/%Y %H:%M:%S", "%d/%m/%Y %H:%M")
# 0001-01-01T00:00:00 and 9999-12-31T23:59:59 UTC, the range of datetime
EPOCH_MIN, EPOCH_MAX = -62135596800, 253402300799
BLOCK_ROWS = 4096  # CSV rows parsed, or written, per block of whole columns


@dataclass(frozen=True)
class SensorFrame:
    """Cleaned multi-channel table of sensor readings: one name per channel and
    one float64 array of shape (channels, rows), a row of readings per channel.
    Readings carry no unit; the detectors, models and simulator read kPa.

    Invariants (enforced at construction): timestamps strictly increasing,
    values shaped (len(names), n_rows), no NaN or infinite values.
    """

    timestamps: np.ndarray  # int64 epoch seconds
    names: tuple[str, ...]
    values: np.ndarray  # float64, (channels, rows)

    def __post_init__(self):
        object.__setattr__(self, "timestamps", np.asarray(self.timestamps, dtype=np.int64))
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if len(self.timestamps) and np.any(np.diff(self.timestamps) <= 0):
            bad = int(np.argmax(np.diff(self.timestamps) <= 0)) + 1
            raise ValidationError(f"timestamps not strictly increasing at row {bad}")
        if self.values.shape != (len(self.names), self.n_rows):
            raise ValidationError(
                f"values of shape {self.values.shape}, expected {(len(self.names), self.n_rows)} (channels x rows)"
            )
        finite = np.isfinite(self.values).all(axis=1)
        if not finite.all():
            raise ValidationError(f"channel '{self.names[int(finite.argmin())]}' contains NaN or infinite values")

    @property
    def n_rows(self) -> int:
        return len(self.timestamps)

    def channel(self, name: str) -> np.ndarray:
        """The named channel's readings, a row of values."""
        if name not in self.names:
            raise ValidationError(f"unknown channel '{name}'; available: {', '.join(self.names)}")
        return self.values[self.names.index(name)]


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
        return {"schema_version": 1, **plain(self), "rows_retained": self.rows_retained}


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
    """Return integer epoch seconds, or None if no configured format matches
    or the time lies outside the years 1 to 9999 that the cleaned CSV can write."""
    for fmt in formats:
        try:
            if fmt == EPOCH_SECONDS:
                ts = int(float(text))
            else:
                if fmt == ISO8601:
                    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
                else:
                    dt = datetime.strptime(text, fmt)
                if dt.tzinfo is None:
                    dt = dt.replace(tzinfo=timezone.utc)
                ts = int(dt.timestamp())
        except (ValueError, OverflowError):  # OverflowError: an epoch cell of inf or 1e400
            continue
        return ts if EPOCH_MIN <= ts <= EPOCH_MAX else None
    return None


# the exact shape of each built-in format's cells, letters YMDhms standing for ASCII digits;
# no two of these shapes, nor an EPOCH_SECONDS cell, can match one cell
_TEMPLATES = {
    ISO8601: "YYYY-MM-DDThh:mm:ss", "%d/%m/%Y %H:%M:%S": "DD/MM/YYYY hh:mm:ss", "%d/%m/%Y %H:%M": "DD/MM/YYYY hh:mm"
}


def _template_epochs(cells: list[str], template: str) -> tuple[np.ndarray, np.ndarray]:
    """(hit, epochs): which cells have exactly the template's shape and name a real time, and those times."""
    n, width = len(cells), len(template)
    codes = np.array(cells, dtype=f"U{width}").view(np.uint32).reshape(n, width)
    digit = np.array([c in "YMDhms" for c in template])
    shape = np.where(digit, (codes >= 48) & (codes <= 57), codes == [ord(c) for c in template])
    # by Python length: a U array drops trailing NULs, so it cannot tell "...:00" from "...:00\x00"
    hit = shape.all(axis=1) & (np.fromiter(map(len, cells), np.intp, n) == width)
    digits = np.where(hit[:, None] & digit, codes - 48, 0)

    def field(letter: str) -> np.ndarray:
        pos = [i for i, c in enumerate(template) if c == letter]
        return digits[:, pos] @ 10 ** np.arange(len(pos) - 1, -1, -1) if pos else np.zeros(n, np.int64)

    year, month, day, hour, minute, second = map(field, "YMDhms")
    months = (year - 1970) * 12 + month - 1
    first, after = ((months + k).astype("datetime64[M]").astype("datetime64[D]").astype(np.int64) for k in (0, 1))
    hit &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= after - first)
    hit &= (hour <= 23) & (minute <= 59) & (second <= 59)
    return hit, (first + day - 1) * 86400 + hour * 3600 + minute * 60 + second


def _parse_timestamps(cells: list[str], formats: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(ok, epochs) for a column of cells, as _parse_timestamp gives them one by one: the cells of a
    built-in shape in one pass per shape, while only built-ins and EPOCH_SECONDS precede its format."""
    ok, epochs = np.zeros(len(cells), bool), np.zeros(len(cells), np.int64)
    for fmt in formats:
        if fmt not in _TEMPLATES and fmt != EPOCH_SECONDS:
            break
        if fmt in _TEMPLATES and not ok.all():
            hit, stamps = _template_epochs(cells, _TEMPLATES[fmt])
            ok, epochs = ok | hit, np.where(hit, stamps, epochs)
    for i in np.flatnonzero(~ok):
        ts = _parse_timestamp(cells[i], formats)
        if ts is not None:
            ok[i], epochs[i] = True, ts
    return ok, epochs


def _floats(cells: list[str]) -> list[float]:
    """The cells as floats, NaN where a cell is not a number; never through a U array,
    which drops trailing NULs, so that "1.5\x00" is refused as float() refuses it."""
    out, rest = [], iter(cells)
    while True:
        try:
            out.extend(map(float, rest))  # keeps what it parsed before a bad cell, and resumes after it
            return out
        except ValueError:
            out.append(math.nan)


def _row_fault(row: list[str], names: list[str], formats: tuple[str, ...]) -> str:
    """Why an unparseable row is dropped, worded for the first-failure detail."""
    cells = [c.strip() for c in row]
    if len(cells) != len(names):
        return f": expected {len(names)} cells, got {len(cells)}"
    if _parse_timestamp(cells[0], formats) is None:
        return f", column '{names[0]}': '{cells[0]}' matches none of {list(formats)}"
    for name, cell in zip(names[1:], cells[1:]):
        try:
            float(cell)
        except ValueError:
            return f", column '{name}': '{cell}' is not numeric"
    return ": non-finite value"


def _lines(path: Path):
    """The file's lines, read as they are parsed; a file that cannot be opened,
    read or decoded as UTF-8 is an IngestError naming it."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            yield from fh
    except FileNotFoundError:
        raise IngestError(f"file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read {path}: {exc}") from None


def _blocks(path: Path):
    """The file's header row (None if it has none), then its rows in lists of up to
    BLOCK_ROWS; a line the csv module cannot parse is an IngestError naming the file and line."""
    reader = csv.reader(_lines(path))
    try:
        yield next(reader, None)
        while block := list(islice(reader, BLOCK_ROWS)):
            yield block
    except csv.Error as exc:
        raise IngestError(f"{path}: line {reader.line_num}: {exc}") from None


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
        IngestError: missing, unreadable, non-UTF-8, empty or header-only
            file, a line the csv module cannot parse (a cell longer than its
            field limit, say), a header channel cell that is empty or names a
            channel twice, no parseable rows, or non-monotone timestamps
            (with row context).
    """
    config = config or IngestConfig()
    path = Path(path)
    blocks = _blocks(path)
    header = next(blocks)
    if header is None:
        raise IngestError(f"empty file: {path}")
    names = [h.strip() for h in header]
    if len(names) < 2:
        raise IngestError(f"{path}: header must have a timestamp column plus >= 1 channel")
    if not all(names[1:]):
        raise IngestError(f"{path}: header column {names.index('', 1) + 1} names no channel")
    twice = [name for i, name in enumerate(names[1:], 1) if name in names[1:i]]
    if twice:
        raise IngestError(f"{path}: header names channel '{twice[0]}' twice")
    width, tokens, formats = len(names), set(config.sentinel_tokens), config.timestamp_formats

    stamps, values = [np.zeros(0, np.int64)], [np.zeros((width - 1, 0))]
    rows_read = dropped_sentinel = dropped_unparseable = 0
    first_failure: str | None = None
    lineno = 2  # the number of the block's first row; blank rows are numbered too
    for block in blocks:
        lengths = np.fromiter(map(len, block), np.intp, len(block))
        full = np.flatnonzero(lengths == width)
        columns = [list(map(str.strip, col)) for col in zip(*(block[i] for i in full))] or [[]] * width
        sentinel = np.zeros(len(full), bool)
        for col in columns:
            if not tokens.isdisjoint(col):
                sentinel |= np.fromiter(map(tokens.__contains__, col), bool, len(full))
        ok, epochs = _parse_timestamps(columns[0], formats)
        readings = np.array([_floats(col) for col in columns[1:]]).reshape(width - 1, len(full))
        ok &= np.isfinite(readings).all(axis=0) & ~sentinel
        stamps.append(epochs[ok])
        values.append(readings[:, ok])
        # rare: rows of the wrong width; a blank line has no cells and is not a data row
        odd = np.flatnonzero((lengths != width) & (lengths > 0))
        odd_sentinel = np.array([not tokens.isdisjoint(c.strip() for c in block[i]) for i in odd], bool)
        failed = np.concatenate([full[~ok & ~sentinel], odd[~odd_sentinel]])
        rows_read += len(full) + len(odd)
        dropped_sentinel += int(sentinel.sum() + odd_sentinel.sum())
        dropped_unparseable += len(failed)
        if first_failure is None and len(failed):
            i = int(failed.min())
            first_failure = f"line {lineno + i}{_row_fault(block[i], names, formats)}"
        lineno += len(block)

    if rows_read == 0:
        raise IngestError(f"{path}: header-only file, no data rows")
    ts_arr = np.concatenate(stamps)
    if not len(ts_arr):
        detail = f" (first failure: {first_failure})" if first_failure else ""
        raise IngestError(f"{path}: no rows survived cleaning{detail}")

    if np.any(np.diff(ts_arr) <= 0):
        bad = int(np.argmax(np.diff(ts_arr) <= 0)) + 1
        raise IngestError(
            f"{path}: timestamps must be strictly increasing; violation at retained row {bad} "
            f"(epoch {ts_arr[bad]} after {ts_arr[bad - 1]})"
        )

    frame = SensorFrame(timestamps=ts_arr, names=tuple(names[1:]), values=np.concatenate(values, axis=1))
    report = IngestReport(
        rows_read=rows_read,
        rows_dropped_sentinel=dropped_sentinel,
        rows_dropped_unparseable=dropped_unparseable,
        channels_retained=width - 1,
    )
    return frame, report


def write_sensor_csv(frame: SensorFrame, path: str | Path) -> None:
    """Write a frame in the ingest CSV format (round-trips through load_historian_csv).

    Timestamps are emitted as naive-UTC ISO-8601 with four-digit years; values
    use repr so floats survive the round trip bit-exactly. Rows are formatted
    and written a block at a time.
    """
    ts = frame.timestamps
    if len(ts) and not (EPOCH_MIN <= ts.min() and ts.max() <= EPOCH_MAX):
        raise ValueError(f"timestamps {ts.min()}..{ts.max()} lie outside the years 1 to 9999")
    with open(Path(path), "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(["Timestamp", *frame.names])  # names may need quoting
        for s in range(0, len(ts), BLOCK_ROWS):
            cols = [ts[s : s + BLOCK_ROWS].astype("datetime64[s]").astype(str).tolist()]
            cols += [map(repr, row) for row in frame.values[:, s : s + BLOCK_ROWS].tolist()]
            fh.write("\n".join(map(",".join, zip(*cols))) + "\n")
