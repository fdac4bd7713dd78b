import ast
import csv
import io
import math
import re
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import esgrisk
from esgrisk.errors import DataError
from esgrisk.ingest import (
    EventKind,
    IngestReport,
    epoch_us,
    iter_messages,
    parse_stamps,
    parse_timestamp,
    read_calendar_events,
    read_market_index,
    read_columns,
    read_prices,
    utc_stamps,
)
from esgrisk import ingest


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def test_parse_timestamp_utc_identity():
    ts = parse_timestamp("2020-03-10T14:00:00Z")
    assert ts == datetime(2020, 3, 10, 14, 0, tzinfo=timezone.utc)


def test_parse_timestamp_naive_uses_source_tz():
    # 2020-03-10 is after the US DST switch: EDT, not EST, so +4h to UTC
    ts = parse_timestamp("2020-03-10 09:00", source_tz="America/New_York")
    assert ts == datetime(2020, 3, 10, 13, 0, tzinfo=timezone.utc)


def test_parse_timestamp_round_trip_across_dst():
    # wall-clock times straddling the 2020-03-08 US DST transition
    walls = ["2020-03-06 09:30", "2020-03-07 23:00", "2020-03-08 12:00", "2020-03-09 09:30"]
    tz = ZoneInfo("America/New_York")
    for wall in walls:
        ts = parse_timestamp(wall, source_tz="America/New_York")
        back = ts.astimezone(tz)
        assert back.strftime("%Y-%m-%d %H:%M") == wall


def test_parse_timestamp_rejects_garbage():
    with pytest.raises(ValueError):
        parse_timestamp("not a time")


def scalar_stamp(raw, source_tz):
    """parse_timestamp's aware UTC datetime of `raw`, or None where it refuses it."""
    try:
        return parse_timestamp(raw, source_tz)
    except (ValueError, OverflowError):
        return None


# near-misses of the numpy form: fields out of range, other suffixes and separators
STAMPS = st.builds(
    "{:04d}-{:02d}-{:02d}{}{:02d}:{:02d}:{:02d}{}{}".format,
    st.sampled_from([0, 1, 999, 1969, 1970, 2019, 2020, 2100, 9999]) | st.integers(0, 9999),
    st.integers(0, 13), st.integers(0, 32), st.sampled_from("TTT t"),
    st.integers(0, 25), st.integers(0, 61), st.integers(0, 61),
    st.sampled_from(["", "", "", ".000000", ".250000", ".5", ".000001"]),
    st.sampled_from(["", "Z", "z", "+00:00", "+00:00", "-00:00", "-05:00", "+05:30", " ", "\x00",
                     "+00:00x"]),
) | st.sampled_from(["", " ", "yesterday", " 2020-01-06T15:30:00Z", "2020-02-29T24:00:00Z",
                     "2020-01-06T15:30", "2020-01-06", "0001-01-01T00:00:00+05:00"]) | st.text(max_size=26)
ZONES = st.sampled_from(["UTC", "UTC", "America/New_York", "Asia/Kolkata"])


@settings(max_examples=400, deadline=None)
@given(raw=st.lists(STAMPS, max_size=8), source_tz=ZONES)
@example(raw=["2020-01-06T15:30:00Z", "2019-02-30T10:00:00Z", "2020-01-06T15:30:01+00:00"],
         source_tz="UTC")
@example(raw=["2020-01-01T24:00:00", "2020-01-01T23:59:60Z", "0001-01-01T00:00:00"],
         source_tz="America/New_York")
def test_parse_stamps_and_utc_stamps_match_scalar_parser(raw, source_tz):
    # a stamp either parses to parse_timestamp's instant and writes back as its
    # isoformat, or both refuse it; one refused stamp leaves its block's others alone
    us, parsed = parse_stamps(raw, source_tz)
    expected = [scalar_stamp(stamp, source_tz) for stamp in raw]
    assert parsed.tolist() == [ts is not None for ts in expected]
    kept = [ts for ts in expected if ts is not None]
    assert us[parsed].tolist() == [epoch_us(ts) for ts in kept]
    assert utc_stamps(us[parsed].tolist()) == [ts.isoformat() for ts in kept]


@given(st.integers(epoch_us(datetime.min.replace(tzinfo=timezone.utc)),
                   epoch_us(datetime.max.replace(tzinfo=timezone.utc))))
@example(0)
@example(epoch_us(datetime(1, 1, 1, tzinfo=timezone.utc)))
@example(-1)
def test_utc_stamps_match_isoformat(stamp_us):
    assert utc_stamps([stamp_us]) == [(ingest.EPOCH + timedelta(microseconds=stamp_us)).isoformat()]


def test_read_messages_valid_row(tmp_path):
    path = write_csv(
        tmp_path / "m.csv",
        ["id", "firm", "timestamp", "text"],
        [["1", "AAPL", "2020-03-10T14:00:00Z", "hello, \"quoted\" text"]],
    )
    report = IngestReport(path=str(path))
    messages = list(iter_messages(path, report=report))
    stamp_us = epoch_us(datetime(2020, 3, 10, 14, 0, tzinfo=timezone.utc))
    assert messages == [("1", "AAPL", stamp_us, 'hello, "quoted" text')]
    assert report.skips_total == 0


def test_read_messages_count_conservation(tmp_path):
    rows = [
        ["1", "AAPL", "2020-03-10T14:00:00Z", "ok"],
        ["", "AAPL", "2020-03-10T14:00:00Z", "no id"],
        ["2", "", "2020-03-10T14:00:00Z", "no firm"],
        ["3", "AAPL", "not-a-time", "bad ts"],
        ["1", "AAPL", "2020-03-10T15:00:00Z", "dup id"],
        ["4", "MSFT", "2020-03-10 09:00", "ok naive"],
    ]
    path = write_csv(tmp_path / "m.csv", ["id", "firm", "timestamp", "text"], rows)
    report = IngestReport(path=str(path))
    messages = list(iter_messages(path, report=report))
    assert len(messages) == 2
    assert report.total_rows == len(rows)
    assert report.valid_rows == 2
    assert report.skips_total == 4
    assert report.valid_rows + report.skips_total == report.total_rows
    reasons = [reason for _, reason in report.skips]
    assert any("duplicate id" in r for r in reasons)


def test_read_messages_deterministic(tmp_path):
    path = write_csv(
        tmp_path / "m.csv",
        ["id", "firm", "timestamp", "text"],
        [[str(i), "AAPL", "2020-03-10T14:00:00Z", f"t{i}"] for i in range(20)],
    )
    first = list(iter_messages(path, report=IngestReport(path=str(path))))
    second = list(iter_messages(path, report=IngestReport(path=str(path))))
    assert first == second


def firm_rows(prices, firm):
    """The (ordinal, return) pairs of one firm's rows in read_prices' columns."""
    firms, codes, ordinals, rets = prices
    mask = codes == firms.index(firm)
    return list(zip(ordinals[mask].tolist(), rets[mask].tolist()))


def test_read_prices_computes_returns_when_column_absent(tmp_path):
    path = write_csv(
        tmp_path / "p.csv",
        ["firm", "date", "close"],
        [["AAPL", "2020-01-02", "100"], ["AAPL", "2020-01-03", "101"]],
    )
    prices, _ = read_prices(path)
    rows = firm_rows(prices, "AAPL")
    assert math.isnan(rows[0][1])
    assert rows[1][1] == pytest.approx(0.01)


def test_read_prices_flat_close_zero_return(tmp_path):
    path = write_csv(
        tmp_path / "p.csv",
        ["firm", "date", "close"],
        [["AAPL", "2020-01-02", "100"], ["AAPL", "2020-01-03", "100"]],
    )
    prices, _ = read_prices(path)
    assert firm_rows(prices, "AAPL")[1][1] == 0.0


def test_read_prices_sorts_by_date(tmp_path):
    path = write_csv(
        tmp_path / "p.csv",
        ["firm", "date", "close", "return"],
        [
            ["AAPL", "2020-01-03", "101", "0.01"],
            ["AAPL", "2020-01-02", "100", ""],
        ],
    )
    prices, _ = read_prices(path)
    days = [date.fromordinal(day) for day, _ in firm_rows(prices, "AAPL")]
    assert days == sorted(days)
    assert math.isnan(firm_rows(prices, "AAPL")[0][1])  # blank return cell stays missing


def test_read_prices_duplicate_row_is_fatal(tmp_path):
    path = write_csv(
        tmp_path / "p.csv",
        ["firm", "date", "close"],
        [["AAPL", "2020-01-02", "100"], ["AAPL", "2020-01-02", "101"]],
    )
    with pytest.raises(DataError, match="2020-01-02"):
        read_prices(path)


def test_read_prices_skips_bad_rows(tmp_path):
    path = write_csv(
        tmp_path / "p.csv",
        ["firm", "date", "close"],
        [
            ["AAPL", "2020-01-02", "100"],
            ["AAPL", "nope", "100"],
            ["AAPL", "2020-01-06", "-5"],
            ["", "2020-01-07", "100"],
        ],
    )
    prices, report = read_prices(path)
    assert len(firm_rows(prices, "AAPL")) == 1
    assert report.skips_total == 3


def test_read_market_index(tmp_path):
    path = write_csv(
        tmp_path / "i.csv",
        ["date", "return"],
        [["2020-01-02", "0.001"], ["2020-01-03", "-0.002"]],
    )
    (dates, returns), _ = read_market_index(path)
    assert dates == [date(2020, 1, 2), date(2020, 1, 3)]
    assert returns[1] == pytest.approx(-0.002)


def test_read_market_index_sorts_and_skips(tmp_path):
    # a row may reuse the date of an earlier skipped row; only valid repeats are fatal
    path = write_csv(
        tmp_path / "i.csv",
        ["date", "return"],
        [
            ["2020-01-06", "0.003"],
            ["bogus", "0.1"],
            ["2020-01-03", "abc"],
            ["2020-01-07", "nan"],
            ["2020-01-03", "-0.002"],
            ["2020-01-02", "0.001"],
        ],
    )
    (dates, returns), report = read_market_index(path)
    assert dates == [date(2020, 1, 2), date(2020, 1, 3), date(2020, 1, 6)]
    assert returns.tolist() == [0.001, -0.002, 0.003]
    assert report.skips == [
        (3, "bad date 'bogus'"),
        (4, "bad return 'abc'"),
        (5, "non-finite return nan"),
    ]
    assert (report.valid_rows, report.total_rows) == (3, 6)


def test_read_market_index_duplicate_date_fatal(tmp_path):
    path = write_csv(
        tmp_path / "i.csv",
        ["date", "return"],
        [["2020-01-02", "0.001"], ["2020-01-02", "0.002"]],
    )
    with pytest.raises(DataError, match=r"i\.csv:3: duplicate market index date 2020-01-02"):
        read_market_index(path)


def test_read_calendar_events(tmp_path):
    path = write_csv(
        tmp_path / "e.csv",
        ["firm", "date"],
        [["AAPL", "2020-01-28"], ["AAPL", "bogus"], ["MSFT", "2020-02-03"]],
    )
    events, report = read_calendar_events(path, EventKind.EARNINGS)
    assert events.kind is EventKind.EARNINGS
    assert events.firms == ["AAPL", "MSFT"]
    assert events.days.dtype == np.int64
    assert events.days.tolist() == [date(2020, 1, 28).toordinal(), date(2020, 2, 3).toordinal()]
    assert report.skips_total == 1


def test_read_calendar_events_empty_file(tmp_path):
    path = write_csv(tmp_path / "e.csv", ["firm", "date"], [])
    events, _ = read_calendar_events(path, EventKind.CONTROVERSY)
    assert events.firms == [] and events.days.tolist() == []
    assert events.days.dtype == np.int64 and events.kind is EventKind.CONTROVERSY


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        read_prices(tmp_path / "missing.csv")


NAMES = ("a", "b", "c")
ROWS = st.lists(
    st.one_of(st.none(), st.lists(st.text(alphabet='x,"\r\n ', max_size=3), max_size=6)),
    max_size=8,
)


def csv_text(header, rows):
    """A CSV file body; a None row is a blank line."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        if row is None:
            buf.write("\n")
        else:
            writer.writerow(row)
    return buf.getvalue()


@settings(max_examples=300, deadline=None)
@given(
    header=st.lists(st.sampled_from(NAMES), min_size=1, max_size=4),
    rows=ROWS,
    picks=st.data(),
)
@example(
    header=["a", "b", "a"],
    rows=[None, ["1"], ["1", "2", "3", "4"], [], ["x\ny", ""], None],
    picks=None,
)
def test_read_columns_matches_dictreader(tmp_path_factory, header, rows, picks):
    """read_columns, flattened at several block sizes, reads as DictReader does."""
    if picks is None:
        required, optional = ["b", "a"], ["c", "a"]
    else:
        required = picks.draw(st.lists(st.sampled_from(sorted(set(header))), unique=True, min_size=1))
        optional = picks.draw(st.lists(st.sampled_from(NAMES + ("z",)), unique=True, max_size=2))
    path = tmp_path_factory.mktemp("rows") / "in.csv"
    path.write_text(csv_text(header, rows), encoding="utf-8")
    with open(path, newline="", encoding="utf-8") as fh:
        oracle = csv.DictReader(fh)
        expected = [
            (oracle.line_num, tuple(row.get(c) for c in (*required, *optional))) for row in oracle
        ]
    for block in (1, 3, ingest._BLOCK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_BLOCK", block)
            blocks = list(read_columns(path, "test", required, optional))
        assert all(0 < len(lines) <= block for lines, _ in blocks)
        assert all(len(col) == len(lines) for lines, cols in blocks for col in cols)
        flat = [(n, cells) for lines, cols in blocks for n, cells in zip(lines, zip(*cols))]
        assert flat == expected


def test_rows_before_a_malformed_record_are_read(tmp_path):
    # an oversized cell ends the reading, but only after the rows before it in its block
    path = tmp_path / "in.csv"
    path.write_text("a,b\n1,2\n\n3,4\n5," + "x" * (csv.field_size_limit() + 1) + "\n7,8\n")
    seen = []
    with pytest.raises(DataError, match=r"in.csv:5: malformed test record: field larger"):
        for lines, (a, b) in read_columns(path, "test", ("a", "b")):
            seen.extend(zip(lines, a, b))
    assert seen == [(2, "1", "2"), (4, "3", "4")]


def test_read_columns_names_missing_columns(tmp_path):
    path = write_csv(tmp_path / "m.csv", ["id", "text"], [["1", "x"]])
    with pytest.raises(DataError, match=r"missing messages columns \['firm'\], found \['id', 'text'\]"):
        list(read_columns(path, "messages", ("id", "firm")))


def test_only_read_columns_parses_csv():
    """Every CSV input goes through ingest.read_columns, so no module grows its own reader."""
    package = Path(esgrisk.__file__).parent
    ingest_py = package / "ingest.py"
    tree = ast.parse(ingest_py.read_text(encoding="utf-8"))
    helper = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "read_columns")
    offenders = []
    for path in sorted(package.rglob("*.py")):
        for num, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            if path == ingest_py and helper.lineno <= num <= helper.end_lineno:
                continue
            if "DictReader" in line or "csv.reader(" in line:
                offenders.append(f"{path.relative_to(package)}:{num}: {line.strip()}")
    assert offenders == []


def test_only_ordinals_and_typed_parse_dates():
    """A date cell becomes a day through ingest.ordinals; pipeline._typed reads config dates."""
    package = Path(esgrisk.__file__).parent
    allowed = {"ingest.py": "ordinals", "pipeline.py": "_typed"}
    offenders = []
    for path in sorted(package.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        spans = [(n.lineno, n.end_lineno) for n in ast.parse(text).body
                 if isinstance(n, ast.FunctionDef) and n.name == allowed.get(path.name)]
        for num, line in enumerate(text.splitlines(), start=1):
            if re.search(r"\bdate\.fromisoformat", line) and not any(a <= num <= b for a, b in spans):
                offenders.append(f"{path.relative_to(package)}:{num}: {line.strip()}")
    assert offenders == []
