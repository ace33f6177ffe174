import csv
import os
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pdmecon import ingest
from pdmecon.errors import IngestError, ValidationError
from pdmecon.ingest import (
    DEFAULT_TIMESTAMP_FORMATS,
    EPOCH_MAX,
    EPOCH_MIN,
    EPOCH_SECONDS,
    ISO8601,
    IngestConfig,
    IngestReport,
    SensorFrame,
    Channel,
    load_historian_csv,
    select_channel,
    write_sensor_csv,
)


def write_csv(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_clean_csv_passes_through(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        [
            "Timestamp,P1,P2",
            "2020-02-26T15:44:00,1.0,2.0",
            "2020-02-26T15:44:01,1.5,2.5",
            "2020-02-26T15:44:02,2.0,3.0",
        ],
    )
    frame, report = load_historian_csv(path)
    assert frame.n_rows == 3
    assert frame.channel_names == ["P1", "P2"]
    assert report.rows_read == 3
    assert report.rows_dropped_sentinel == 0
    assert report.rows_dropped_unparseable == 0
    assert report.channels_retained == 2
    np.testing.assert_array_equal(frame.channel("P1").values, [1.0, 1.5, 2.0])


def test_sentinel_row_dropped_whole(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        [
            "Timestamp,P1,P2",
            "2020-02-26T15:44:00,1.0,2.0",
            "2020-02-26T15:44:01,Bad Input,2.5",
            "2020-02-26T15:44:02,2.0,3.0",
        ],
    )
    frame, report = load_historian_csv(path)
    assert frame.n_rows == 2
    assert report.rows_dropped_sentinel == 1
    # surviving rows keep their order
    np.testing.assert_array_equal(frame.channel("P1").values, [1.0, 2.0])


def test_report_reconciles_and_counts_all_data_rows(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        [
            "Timestamp,P1",
            "2020-02-26T15:44:00,1.0",
            "not a time,2.0",
            "2020-02-26T15:44:02,oops",
            "2020-02-26T15:44:03,Bad Input",
            "2020-02-26T15:44:04,4.0",
        ],
    )
    frame, report = load_historian_csv(path)
    assert report.rows_read == 5
    assert report.rows_dropped_sentinel == 1
    assert report.rows_dropped_unparseable == 2
    assert report.rows_read == frame.n_rows + report.rows_dropped_sentinel + report.rows_dropped_unparseable


def test_wide_plant_export(tmp_path):
    # 8701 data rows x 82 columns (timestamp + 81 channels), d/m/yyyy h:mm:ss stamps
    rng = np.random.default_rng(3)
    n, channels = 8701, 81
    values = rng.normal(30, 1, size=(n, channels))
    lines = ["Timestamp," + ",".join(f"S{i:03d}" for i in range(channels))]
    base = np.datetime64("2020-02-26T15:24:00")
    for i in range(n):
        ts = base + np.timedelta64(i, "s")
        d = ts.astype("datetime64[s]").item()
        stamp = f"{d.day}/{d.month}/{d.year} {d.hour}:{d.minute:02d}:{d.second:02d}"
        row = [stamp] + [f"{v:.4f}" for v in values[i]]
        if i in (100, 5000):  # a couple of bad cells, as in real exports
            row[3] = "Bad Input"
        lines.append(",".join(row))
    path = write_csv(tmp_path / "plant_export.csv", lines)
    frame, report = load_historian_csv(path)
    assert report.rows_read == 8701
    assert frame.n_rows <= 8701
    assert frame.n_rows == 8699
    assert report.channels_retained == 81
    diffs = np.diff(frame.timestamps)
    assert np.all(diffs >= 1)
    assert np.count_nonzero(diffs == 2) == 2  # gaps left by the two dropped rows


def test_dmy_hm_format_without_seconds(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        ["Timestamp,P1", "26/2/2020 15:44,1.0", "26/2/2020 15:45,2.0"],
    )
    frame, _ = load_historian_csv(path)
    assert frame.n_rows == 2
    assert frame.timestamps[1] - frame.timestamps[0] == 60


def test_nan_and_inf_cells_dropped(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        [
            "Timestamp,P1",
            "2020-02-26T15:44:00,1.0",
            "2020-02-26T15:44:01,nan",
            "2020-02-26T15:44:02,inf",
            "2020-02-26T15:44:03,4.0",
        ],
    )
    frame, report = load_historian_csv(path)
    assert frame.n_rows == 2
    assert report.rows_dropped_unparseable == 2


def test_errors_missing_empty_header_only(tmp_path):
    with pytest.raises(IngestError, match="not found"):
        load_historian_csv(tmp_path / "nope.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(IngestError, match="empty"):
        load_historian_csv(empty)
    header_only = write_csv(tmp_path / "h.csv", ["Timestamp,P1"])
    with pytest.raises(IngestError, match="no data rows"):
        load_historian_csv(header_only)


def test_unreadable_file_is_an_ingest_error(tmp_path):
    with pytest.raises(IngestError, match=f"cannot read {tmp_path}: .*Is a directory"):
        load_historian_csv(tmp_path)
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("Timestamp,Druck in kPa \xb1 0,1\n2020-02-26T15:44:00,1.0\n".encode("latin-1"))
    with pytest.raises(IngestError, match=f"cannot read {latin1}: 'utf-8' codec can't decode"):
        load_historian_csv(latin1)


@pytest.mark.skipif(os.geteuid() == 0, reason="root reads files whatever their mode")
def test_file_without_read_permission_is_an_ingest_error(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["Timestamp,P1", "2020-02-26T15:44:00,1.0"])
    path.chmod(0)
    with pytest.raises(IngestError, match=f"cannot read {path}: .*Permission denied"):
        load_historian_csv(path)


def test_error_when_no_timestamp_format_matches(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        ["Timestamp,P1", "week 4,1.0", "week 5,2.0"],
    )
    with pytest.raises(IngestError, match="week 4"):
        load_historian_csv(path)


def test_duplicate_timestamps_rejected(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        [
            "Timestamp,P1",
            "2020-02-26T15:44:00,1.0",
            "2020-02-26T15:44:00,2.0",
        ],
    )
    with pytest.raises(IngestError, match="strictly increasing"):
        load_historian_csv(path)


def test_crlf_line_endings_accepted(tmp_path):
    path = tmp_path / "crlf.csv"
    path.write_bytes(
        b"Timestamp,P1\r\n2020-02-26T15:44:00,1.0\r\n2020-02-26T15:44:01,2.0\r\n"
    )
    frame, report = load_historian_csv(path)
    assert frame.n_rows == 2
    assert report.rows_dropped_unparseable == 0


def test_epoch_timestamp_format_opt_in(tmp_path):
    from pdmecon.ingest import EPOCH_SECONDS, ISO8601

    path = write_csv(
        tmp_path / "t.csv",
        ["Timestamp,P1", "1000,1.0", "1001,2.0", "1002,3.0"],
    )
    config = IngestConfig(timestamp_formats=(ISO8601, EPOCH_SECONDS))
    frame, report = load_historian_csv(path, config)
    assert report.rows_dropped_unparseable == 0
    np.testing.assert_array_equal(frame.timestamps, [1000, 1001, 1002])
    # default config does not accept bare epoch integers
    with pytest.raises(IngestError):
        load_historian_csv(path)


def test_epoch_cells_outside_the_datetime_range_are_dropped(tmp_path):
    from pdmecon.ingest import EPOCH_SECONDS

    # inf and 1e400 overflow int(); 1e300 overflows int64; 1e12 s is the year 33658,
    # which the cleaned CSV cannot write; 253402300800 is one second past 9999
    cells = ["inf", "-inf", "1e400", "1e300", "1e12", "-1e12", "253402300800"]
    path = write_csv(tmp_path / "t.csv", ["Timestamp,P1", "1000,1.0", *(f"{c},2.0" for c in cells), "1001,3.0"])
    frame, report = load_historian_csv(path, IngestConfig(timestamp_formats=(EPOCH_SECONDS,)))
    np.testing.assert_array_equal(frame.timestamps, [1000, 1001])
    assert report.rows_dropped_unparseable == len(cells)
    write_sensor_csv(frame, tmp_path / "cleaned.csv")
    edges = write_csv(tmp_path / "edges.csv", ["Timestamp,P1", "-62135596800,1.0", "253402300799,2.0"])
    frame, _ = load_historian_csv(edges, IngestConfig(timestamp_formats=(EPOCH_SECONDS,)))
    write_sensor_csv(frame, tmp_path / "edges_cleaned.csv")
    np.testing.assert_array_equal(load_historian_csv(tmp_path / "edges_cleaned.csv")[0].timestamps, frame.timestamps)


def test_custom_sentinels(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        ["Timestamp,P1", "2020-02-26T15:44:00,N/A", "2020-02-26T15:44:01,2.0"],
    )
    config = IngestConfig(sentinel_tokens=("N/A",))
    frame, report = load_historian_csv(path, config)
    assert report.rows_dropped_sentinel == 1
    assert frame.n_rows == 1


def test_roundtrip_identity(tmp_path):
    rng = np.random.default_rng(7)
    frame = SensorFrame(
        timestamps=np.arange(50, dtype=np.int64) + 1_000_000,
        channels=(
            Channel("DPIT301", rng.normal(30, 0.3, 50)),
            Channel("FIT301", rng.normal(2, 0.1, 50)),
        ),
    )
    out = tmp_path / "frame.csv"
    write_sensor_csv(frame, out)
    frame2, report = load_historian_csv(out)
    assert report.rows_dropped_sentinel == report.rows_dropped_unparseable == 0
    np.testing.assert_array_equal(frame2.timestamps, frame.timestamps)
    assert frame2.channel_names == frame.channel_names
    for name in frame.channel_names:
        np.testing.assert_array_equal(frame2.channel(name).values, frame.channel(name).values)


def test_select_channel():
    frame = SensorFrame(
        timestamps=np.arange(4, dtype=np.int64),
        channels=(Channel("DPIT301", [1.0, 2.0, 3.0, 4.0]),),
    )
    series = select_channel(frame, "DPIT301")
    assert len(series) == frame.n_rows
    np.testing.assert_array_equal(series.values, [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(series.timestamps, frame.timestamps)
    with pytest.raises(ValidationError, match="DPIT301"):
        select_channel(frame, "DPIT999")


def test_frame_invariants_enforced():
    with pytest.raises(ValidationError, match="strictly increasing"):
        SensorFrame(timestamps=np.array([1, 1]), channels=(Channel("a", [0.0, 1.0]),))
    with pytest.raises(ValidationError, match="NaN"):
        SensorFrame(timestamps=np.array([1, 2]), channels=(Channel("a", [0.0, np.nan]),))
    with pytest.raises(ValidationError, match="values"):
        SensorFrame(timestamps=np.array([1, 2]), channels=(Channel("a", [0.0]),))


# ---------------------------------------------------------------- block-wise loader and writer against row-by-row references


def reference_load(path, config=None):
    """load_historian_csv one row at a time, every cell parsed by _parse_timestamp or float."""
    config = config or IngestConfig()
    path = Path(path)
    reader = csv.reader(ingest._lines(path))
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError(f"empty file: {path}") from None
    names = [h.strip() for h in header]
    if len(names) < 2:
        raise IngestError(f"{path}: header must have a timestamp column plus >= 1 channel")
    channel_names = names[1:]
    n_channels = len(channel_names)

    timestamps, columns = [], [[] for _ in range(n_channels)]
    rows_read = dropped_sentinel = dropped_unparseable = 0
    first_failure = None

    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
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
        ts = ingest._parse_timestamp(cells[0], config.timestamp_formats)
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
    frame = SensorFrame(ts_arr, tuple(Channel(name, np.asarray(col)) for name, col in zip(channel_names, columns)))
    return frame, IngestReport(rows_read, dropped_sentinel, dropped_unparseable, n_channels)


def _is_float(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def reference_write(frame, path):
    """write_sensor_csv one row at a time through csv.writer and datetime."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["Timestamp"] + [ch.name for ch in frame.channels])
        iso = [
            datetime.fromtimestamp(int(t), tz=timezone.utc).replace(tzinfo=None).isoformat()
            for t in frame.timestamps
        ]
        cols = [ch.values for ch in frame.channels]
        for i, stamp in enumerate(iso):
            writer.writerow([stamp] + [repr(float(c[i])) for c in cols])


def _renderings(t: int) -> list[str]:
    """One time in every shape the formats under test accept, or nearly accept."""
    d = datetime.fromtimestamp(t, tz=timezone.utc)
    ymd, dmy = f"{d.year:04d}-{d.month:02d}-{d.day:02d}", f"{d.day:02d}/{d.month:02d}/{d.year:04d}"
    hms = f"{d.hour:02d}:{d.minute:02d}:{d.second:02d}"
    return [
        f"{ymd}T{hms}",
        f"{ymd} {hms}",
        f"{dmy} {hms}",
        f"{dmy} {hms[:5]}",
        f"{d.day}/{d.month}/{d.year} {d.hour}:{d.minute:02d}",
        str(t),
    ]


ODD_STAMPS = [
    "Bad Input", "", "31/02/2026 25:61:00", "٢٠٢٦-02-26T15:44:00", "２０２０-02-26T15:44:00", "٢٦/02/2020 15:44:00",
    "2020-02-26T15:44:60", "2020-02-26T24:00:00", "0000-01-01T00:00:00", "00/01/0000 00:00", "29/02/2020 00:00:00",
    "29/02/2021 00:00:00", "2020-02-26T15:44:00\x00", "2020-02-26T15:44:0\x00", "2020-02-26T15:44:00Z",
    "1e400", "inf", "253402300800", "26/2/2020 15:44", "26/02/2020\t15:44:00",
]
ODD_VALUES = ["Bad Input", "N/A", "", "oops", "nan", "-inf", "1.5\x00", "١٢", "１２", "1_000", "1e400", " 2.5 "]
FORMAT_ORDERS = [
    DEFAULT_TIMESTAMP_FORMATS,
    (ISO8601,),
    (EPOCH_SECONDS, ISO8601),
    (ISO8601, EPOCH_SECONDS),
    ("%Y-%m-%d %H:%M:%S", ISO8601),
    ("%Y-%d-%mT%H:%M:%S", ISO8601),  # takes ISO-shaped cells first, day and month swapped
    ("%d/%m/%Y %H:%M", "%d/%m/%Y %H:%M:%S", EPOCH_SECONDS),
    ("%d/%m/%Y %H:%M:%S", "%Y-%m-%d %H:%M:%S", "%d/%m/%Y %H:%M"),
]
padding = st.sampled_from(["", "", " ", " \t"])
odd_stamps = st.sampled_from(ODD_STAMPS) | st.text("0123456789-/:T .Z\x00٣", max_size=20)
odd_values = st.sampled_from(ODD_VALUES) | st.floats().map(repr) | st.text("0123456789.e+-naif \x00١", max_size=6)


@st.composite
def dirty_exports(draw):
    """(channels, rows): rows of increasing times in mixed shapes, odd cells and wrong widths."""
    channels = draw(st.integers(1, 3))
    base = draw(st.integers(EPOCH_MIN, EPOCH_MAX - 61 * 40))
    rows = []
    for i in range(draw(st.integers(0, 14))):
        width = draw(st.sampled_from([channels + 1] * 6 + [0, 1, channels + 2]))
        if width == 0:
            rows.append([])
            continue
        # mostly cells that parse, so that most exports keep some rows
        stamp = draw(st.sampled_from(_renderings(base + 61 * i)) if draw(st.integers(0, 3)) else odd_stamps)
        cells = [stamp] + [draw(st.floats(-1e6, 1e6).map(repr) if draw(st.integers(0, 5)) else odd_values)
                           for _ in range(width - 1)]
        rows.append([draw(padding) + c + draw(padding) for c in cells])
    return channels, rows


def _load_or_error(load, path, config):
    try:
        return load(path, config)
    except IngestError as exc:
        return str(exc)


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of three rows, so that a handful of rows crosses block boundaries."""
    monkeypatch.setattr(ingest, "BLOCK_ROWS", 3)


@settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(export=dirty_exports(), formats=st.sampled_from(FORMAT_ORDERS), tokens=st.sampled_from([("Bad Input",), ("N/A", "oops")]))
@example(export=(1, [["2020-02-26T15:44:00", "1.0"], ["2020-02-26T15:44:01", "Bad Input", "2"]]),
         formats=DEFAULT_TIMESTAMP_FORMATS, tokens=("Bad Input",))
@example(export=(2, [[" 2020-02-26T15:44:00 ", "\t1.0 ", " 2"], ["2020-02-26T15:44:01", "1.5\x00", "2"]]),
         formats=DEFAULT_TIMESTAMP_FORMATS, tokens=("Bad Input",))
@example(export=(1, [["2020-02-26T15:44:00\x00", "1.0"], ["26/02/2020 15:44:0\x00", "2"], ["2020-02-26T15:44:02", "3"]]),
         formats=DEFAULT_TIMESTAMP_FORMATS, tokens=("Bad Input",))
@example(export=(1, [["٢٠٢٠-02-26T15:44:00", "١٢"], ["٢٦/02/2020 15:45:00", "１２"], ["２６/02/2020 15:46", "3"]]),
         formats=DEFAULT_TIMESTAMP_FORMATS, tokens=("Bad Input",))
@example(export=(1, [["29/02/2020 00:00:00", "1"], ["29/02/2021 00:00:00", "2"], ["2024-02-29T00:00:00", "3"]]),
         formats=DEFAULT_TIMESTAMP_FORMATS, tokens=("Bad Input",))
@example(export=(1, [["2020-02-26T15:44:60", "1"], ["0000-01-01T00:00:00", "2"], ["26/2/2020 15:44", "3"]]),
         formats=DEFAULT_TIMESTAMP_FORMATS, tokens=("Bad Input",))
@example(export=(1, [["1582731840", "1"], ["2020-02-26T15:44:01", "2"], ["2020-02-26 15:44:02", "3"]]),
         formats=(EPOCH_SECONDS, ISO8601), tokens=("Bad Input",))
@example(export=(1, [["2020-02-26 15:44:00", "1"], ["2020-02-26T15:44:01", "2"], ["2020-02-26T15:44:01", "3"]]),
         formats=("%Y-%m-%d %H:%M:%S", ISO8601), tokens=("Bad Input",))
@example(export=(1, [["week 4", "1"], ["31/02/2026 25:61:00", "2"], [], ["2020-02-26T15:44:00", "x", "y"]]),
         formats=DEFAULT_TIMESTAMP_FORMATS, tokens=("Bad Input",))
@example(export=(1, [["2020-05-06T00:00:00", "1"], ["2020-06-07T00:00:00", "2"], ["2020-07-30T00:00:00", "3"]]),
         formats=("%Y-%d-%mT%H:%M:%S", ISO8601), tokens=("Bad Input",))
def test_loader_matches_row_by_row_reference(tmp_path, small_blocks, export, formats, tokens):
    channels, rows = export
    path = tmp_path / "export.csv"
    header = ",".join(["Timestamp"] + [f"P{j}" for j in range(channels)])
    path.write_text("\n".join([header] + [",".join(row) for row in rows]) + "\n", encoding="utf-8")
    config = IngestConfig(sentinel_tokens=tokens, timestamp_formats=formats)
    expected = _load_or_error(reference_load, path, config)
    got = _load_or_error(load_historian_csv, path, config)
    if isinstance(expected, str):
        assert got == expected
        return
    (frame, report), (ref_frame, ref_report) = got, expected
    assert report == ref_report
    assert frame.timestamps.dtype == np.int64 and frame.timestamps.tobytes() == ref_frame.timestamps.tobytes()
    assert frame.channel_names == ref_frame.channel_names
    for ch, ref in zip(frame.channels, ref_frame.channels):
        assert ch.values.dtype == np.float64 and ch.values.tobytes() == ref.values.tobytes()


frames = st.integers(0, 3).flatmap(
    lambda channels: st.tuples(
        st.lists(st.integers(EPOCH_MIN, EPOCH_MAX) | st.sampled_from([EPOCH_MIN, EPOCH_MAX, 0]), unique=True, max_size=9),
        st.lists(st.text(max_size=4) | st.sampled_from(["a,b", 'q"t', " sp "]), min_size=channels, max_size=channels),
        st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 2.2e-308, 1e308]),
                 min_size=9 * channels, max_size=9 * channels),
    )
)


@settings(max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(frames)
@example(([EPOCH_MIN, -1, 0, EPOCH_MAX], ["DPIT301", "a,b"], [-0.0, 5e-324, 1e308, -1e308] + [0.0] * 5 + [0.1, 2.2e-308, 1.0, -3.5] + [0.0] * 5))
def test_writer_bytes_match_row_by_row_reference(tmp_path, small_blocks, frame_parts):
    stamps, names, values = frame_parts
    stamps = sorted(stamps)
    frame = SensorFrame(
        np.array(stamps, dtype=np.int64),
        tuple(Channel(name, values[j * 9 : j * 9 + len(stamps)]) for j, name in enumerate(names)),
    )
    write_sensor_csv(frame, tmp_path / "block.csv")
    reference_write(frame, tmp_path / "row.csv")
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "row.csv").read_bytes()


@pytest.mark.parametrize("stamp", [EPOCH_MIN - 1, EPOCH_MAX + 1, 2**62])
def test_writer_refuses_times_outside_the_years_1_to_9999(tmp_path, stamp):
    frame = SensorFrame(np.array([0, stamp]) if stamp > 0 else np.array([stamp, 0]), (Channel("P1", [1.0, 2.0]),))
    with pytest.raises(ValueError, match="outside the years 1 to 9999"):
        write_sensor_csv(frame, tmp_path / "out.csv")
