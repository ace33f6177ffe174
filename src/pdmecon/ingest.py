"""Historian CSV ingestion.

Loads sensor exports into an in-memory SensorFrame: one strictly increasing
timestamp column (integer epoch seconds) plus N named channels, held as one
float64 array of N rows; frame.channel(name) is one channel's row. Cleaning is
whole-row: any row containing a sentinel token (default "Bad Input") or a cell
that fails to parse is dropped and counted, which keeps all channels aligned
without imputation. IngestReport holds the counts, is written by its fields as
ingest_report.json, and derives rows_retained from them.

The file is read in blocks of BLOCK_ROWS rows, a whole column at a time.
A block whose lines hold no quote and one comma fewer than the header has cells
is split at its commas and line ends in one pass, each column a strided slice of
the cells; a block of blank or wrong-width lines, and every block from the first
quote on, is read by the csv module instead. Timestamp cells of exactly the
shape YYYY-MM-DDThh:mm:ss (ISO8601), DD/MM/YYYY hh:mm:ss or DD/MM/YYYY hh:mm
are parsed by arithmetic on columns of character codes; every other cell is
tried against the configured formats in order, and the first format that
matches decides.

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
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain, islice
from pathlib import Path
from typing import Literal, NamedTuple

import numpy as np

from .errors import IngestError, ValidationError

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
    rows_retained: int = field(init=False)  # rows_read less both kinds of dropped row
    schema_version: Literal[1] = 1

    def __post_init__(self):
        retained = self.rows_read - self.rows_dropped_sentinel - self.rows_dropped_unparseable
        object.__setattr__(self, "rows_retained", retained)


@dataclass(frozen=True)
class IngestConfig:
    """Cleaning and parsing knobs for load_historian_csv.

    timestamp_formats are tried in order per cell; entries are either the
    ISO8601 sentinel, the EPOCH_SECONDS sentinel, or strptime patterns.
    A sentinel token is matched against stripped cells, so it may not begin
    or end with whitespace.
    """

    sentinel_tokens: tuple[str, ...] = ("Bad Input",)
    timestamp_formats: tuple[str, ...] = DEFAULT_TIMESTAMP_FORMATS

    def __post_init__(self):
        if not self.timestamp_formats:
            raise ValidationError("at least one timestamp format is required")
        for i, token in enumerate(self.sentinel_tokens):
            if token != token.strip():
                raise ValidationError(
                    f"sentinel_tokens[{i}] {json.dumps(token)} begins or ends with whitespace, "
                    "so it can never match: cells are stripped before they are matched"
                )


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
_TEMPLATE_WIDTH = max(map(len, _TEMPLATES.values()))


def _template_epochs(codes: np.ndarray, lengths: np.ndarray, template: str) -> tuple[np.ndarray, np.ndarray]:
    """(hit, epochs) for cells given as rows of character codes and their Python lengths: which cells
    have exactly the template's shape and name a real time, and those times."""
    # by Python length: a U array drops trailing NULs, so it cannot tell "...:00" from "...:00\x00"
    hit = lengths == len(template)
    fields = dict.fromkeys("YMDhms", 0)
    for i, c in enumerate(template):  # the separators first, so that a column of another shape is soon done
        if c not in fields:
            hit &= codes[:, i] == ord(c)
    if not hit.any():
        return hit, np.zeros(len(hit), np.int64)
    for i, c in enumerate(template):
        if c in fields:
            digit = codes[:, i] - 48  # uint32, so a code below "0" wraps far past 9
            hit &= digit <= 9
            fields[c] = fields[c] * 10 + digit
    # the fields of a cell that misses are zeroed, so that no stray code reaches the month arithmetic
    year, month, day, hour, minute, second = (np.where(hit, fields[c], 0).astype(np.int64) for c in "YMDhms")
    months = (year - 1970) * 12 + month - 1
    first, after = ((months + k).astype("datetime64[M]").astype("datetime64[D]").astype(np.int64) for k in (0, 1))
    hit &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= after - first)
    hit &= (hour <= 23) & (minute <= 59) & (second <= 59)
    return hit, (first + day - 1) * 86400 + hour * 3600 + minute * 60 + second


def _parse_timestamps(cells: list[str], formats: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(ok, epochs) for a column of cells, as _parse_timestamp gives them one by one: the cells of a
    built-in shape by column arithmetic, while only built-ins and EPOCH_SECONDS precede its format,
    each shape reading only the cells that no earlier one matched; every other cell one by one."""
    n = len(cells)
    ok, epochs = np.zeros(n, bool), np.zeros(n, np.int64)
    templates = []
    for fmt in formats:
        if fmt not in _TEMPLATES and fmt != EPOCH_SECONDS:
            break
        if fmt in _TEMPLATES:
            templates.append(_TEMPLATES[fmt])
    if templates and n:
        codes = np.array(cells, dtype=f"U{_TEMPLATE_WIDTH}").view(np.uint32).reshape(n, _TEMPLATE_WIDTH)
        lengths = np.fromiter(map(len, cells), np.intp, n)
        todo = np.arange(n)
        for template in templates:
            hit, stamps = _template_epochs(codes[todo], lengths[todo], template)
            ok[todo[hit]], epochs[todo[hit]] = True, stamps[hit]
            if not len(todo := todo[~hit]):
                break
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


@contextmanager
def _reading(path: Path):
    """The file, open for reading; a file that cannot be opened, read or decoded
    as UTF-8 is an IngestError naming it."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            yield fh
    except FileNotFoundError:
        raise IngestError(f"file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read {path}: {exc}") from None


class _Block(NamedTuple):
    """Up to BLOCK_ROWS records of the file, blank lines included."""

    starts: np.ndarray  # the file line each row of the header's width starts on
    columns: list[list[str]]  # the stripped cells of those rows, column by column
    odd: list[tuple[int, list[str]]]  # start line and raw cells of each row of another width, blank lines left out
    text: str | None  # the block's text when it was split, else None


# the ASCII characters that str.strip removes, line ends aside
_SPACE = "".join(c for c in map(chr, range(128)) if c.isspace() and c not in "\r\n")


def _split_block(text: str, first: int, records: int, width: int) -> _Block | None:
    """The text of a block's lines from file line first on, free of quotes, tokenised with one split;
    None unless every line holds width cells."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if not text.endswith("\n"):
        text += "\n"
    # each line end becomes a cell of its own, which must come after every width cells
    cells = text.replace("\n", ",\n,").split(",")
    if len(cells) != records * (width + 1) + 1 or cells[width :: width + 1].count("\n") != records:
        return None
    columns = [cells[j : -1 : width + 1] for j in range(width)]
    if not text.isascii() or any(map(text.__contains__, _SPACE)):
        columns = [list(map(str.strip, col)) for col in columns]
    return _Block(first + np.arange(records), columns, [], text)


def _numbered(reader, lines_before: int):
    """(the file line it starts on, row) for each row of a csv reader whose line 1 is file line lines_before + 1."""
    start = lines_before + 1
    for row in reader:
        yield start, row
        start = lines_before + reader.line_num + 1


def _row_block(numbered: list[tuple[int, list[str]]], width: int) -> _Block:
    """A block of rows as the csv module read them, each with the file line it starts on."""
    starts, rows = zip(*numbered)
    lengths = np.fromiter(map(len, rows), np.intp, len(rows))
    full = np.flatnonzero(lengths == width)
    columns = [list(map(str.strip, col)) for col in zip(*map(rows.__getitem__, full))] or [[]] * width
    odd = [numbered[i] for i in np.flatnonzero((lengths != width) & (lengths > 0)).tolist()]
    return _Block(np.array(starts)[full], columns, odd, None)


def _blocks(path: Path):
    """The file's header row (None if it has none), then its records in _Blocks of up to BLOCK_ROWS.

    A block of lines that hold no quote, each with one comma fewer than the header has
    cells and none longer than the csv field limit, is split at its commas and line ends
    in one pass; any other block is read by the csv module, and so is every block from
    the first quote on, as a quoted cell may span lines. A line the csv module cannot
    parse is an IngestError naming the file and its line."""
    with _reading(path) as fh:
        reader, lines_before = csv.reader(fh), 0
        try:
            header = next(reader, None)
            yield header
            if header is None:
                return
            width, limit, lines_before = len(header), csv.field_size_limit(), reader.line_num
            while lines := list(islice(fh, BLOCK_ROWS)):
                if '"' in (text := "".join(lines)):
                    break
                block = max(map(len, lines)) <= limit and _split_block(text, lines_before + 1, len(lines), width)
                if not block:
                    reader = csv.reader(lines)
                    block = _row_block(list(_numbered(reader, lines_before)), width)
                yield block
                lines_before += len(lines)
            reader = csv.reader(chain(lines, fh))
            rows = _numbered(reader, lines_before)
            while numbered := list(islice(rows, BLOCK_ROWS)):
                yield _row_block(numbered, width)
        except csv.Error as exc:
            raise IngestError(f"{path}: line {lines_before + reader.line_num}: {exc}") from None


def _sentinel_rows(columns: list[list[str]], tokens: set[str]) -> np.ndarray:
    """Which rows hold a sentinel token in some column; each column is scanned in C, once
    to count a token's cells and once more to find them."""
    rows = np.zeros(len(columns[0]), bool)
    for col in columns:
        for token in tokens:
            i = -1
            for _ in range(col.count(token)):
                rows[i := col.index(token, i + 1)] = True
    return rows


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
    for block in blocks:
        n, columns = len(block.starts), block.columns
        # a split cell holds no comma or line end, so no token can equal one unless it is in the text
        if block.text is None or any(map(block.text.__contains__, tokens)):
            sentinel = _sentinel_rows(columns, tokens)
        else:
            sentinel = np.zeros(n, bool)
        ok, epochs = _parse_timestamps(columns[0], formats)
        readings = np.array([_floats(col) for col in columns[1:]], np.float64).reshape(width - 1, n)
        ok &= np.isfinite(readings).all(axis=0) & ~sentinel
        stamps.append(epochs[ok])
        values.append(readings[:, ok])
        # rare: rows of the wrong width
        odd_sentinel = [not tokens.isdisjoint(map(str.strip, row)) for _, row in block.odd]
        failed = ~ok & ~sentinel
        rows_read += n + len(block.odd)
        dropped_sentinel += int(sentinel.sum()) + sum(odd_sentinel)
        dropped_unparseable += int(failed.sum()) + odd_sentinel.count(False)
        if first_failure is None:
            faults = [(int(block.starts[i]), [col[i] for col in columns]) for i in np.flatnonzero(failed)[:1]]
            faults += [odd for odd, s in zip(block.odd, odd_sentinel) if not s][:1]
            if faults:
                line, row = min(faults)
                first_failure = f"line {line}{_row_fault(row, names, formats)}"

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
