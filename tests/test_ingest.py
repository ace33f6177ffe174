import os

import numpy as np
import pytest

from pdmecon.errors import IngestError, ValidationError
from pdmecon.ingest import (
    IngestConfig,
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
