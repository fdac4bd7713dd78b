"""Block column readers against the row loops they replaced.

oracle_iter_messages, oracle_read_prices, oracle_read_market_index,
oracle_read_calendar_events, oracle_read_classified and
oracle_load_kept_events are the former row-loop ingest.iter_messages,
ingest.read_prices, ingest.read_market_index, ingest.read_calendar_events,
pipeline._read_classified and pipeline.load_kept_events, kept here as
the reference. At read block sizes 1, 3 and the default, the column
readers must give the same messages, rows or column bytes, the same
IngestReport and the same first DataError; the former
load_kept_events' (firm, node, date) keys and the former
read_calendar_events' (firm, date) rows are compared as the columns
their successors return. The differences are on
purpose: a blank firm in classified.csv, and a blank firm or a repeated
(firm, node, date) on a kept events.csv row, are now DataErrors that
the oracles let through; and a message stamp whose UTC instant is past
datetime's range is a bad timestamp, where the former reader stopped
with OverflowError.
"""

import csv
import io
import logging
import math
import re
from array import array
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import read_rows
from esgrisk import ingest, pipeline
from esgrisk.aggregate import label_mask
from esgrisk.errors import DataError
from esgrisk.ingest import (
    EventKind,
    IngestReport,
    epoch_us,
    iter_messages,
    parse_timestamp,
    read_calendar_events,
    read_market_index,
    read_prices,
)
from esgrisk.pipeline import CLASSIFIED_COLUMNS, EVENT_COLUMNS, load_kept_events
from esgrisk.taxonomy import node_sort_key, parse_node
from esgrisk.trading import TradingCalendar

BLOCKS = (1, 3, ingest._BLOCK)
START = date(2020, 1, 1)
CALENDAR = TradingCalendar([
    START + timedelta(days=d) for d in range(5, 38) if (START + timedelta(days=d)).weekday() < 5
])


def oracle_iter_messages(path, source_tz):
    """The former iter_messages, each Message as an (id, firm, epoch us, text) tuple."""
    report = IngestReport(path=str(path))
    seen_ids = set()
    messages = []
    for line, (msg_id, firm, raw_ts, text) in read_rows(
        path, "messages", ("id", "firm", "timestamp", "text")
    ):
        msg_id = (msg_id or "").strip()
        firm = (firm or "").strip()
        raw_ts = (raw_ts or "").strip()
        if not msg_id:
            report.skip(line, "missing id")
            continue
        if msg_id in seen_ids:
            report.skip(line, f"duplicate id {msg_id!r}")
            continue
        if not firm:
            report.skip(line, "missing firm")
            continue
        if text is None:
            report.skip(line, "missing text column value")
            continue
        try:
            ts = parse_timestamp(raw_ts, source_tz)
        except (ValueError, KeyError, OverflowError):
            report.skip(line, f"bad timestamp {raw_ts!r}")
            continue
        seen_ids.add(msg_id)
        report.keep()
        messages.append((msg_id, firm, epoch_us(ts), text))
    return messages, report.as_dict()


def oracle_read_prices(path):
    """The former read_prices: one pass over read_rows, then one sort."""
    report = IngestReport(path=str(path))
    codes = {}
    ordinals = {}
    keys, values = array("q"), array("d")
    rows = read_rows(path, "prices", ("firm", "date", "close"), optional=("return",))
    for line, (firm, raw_day, raw_close, raw_ret) in rows:
        firm = (firm or "").strip()
        if not firm:
            report.skip(line, "missing firm")
            continue
        day = ordinals.get(raw_day)
        if day is None:
            try:
                day = ordinals[raw_day] = date.fromisoformat((raw_day or "").strip()).toordinal()
            except ValueError:
                report.skip(line, f"bad date {raw_day!r}")
                continue
        try:
            close = float(raw_close or "")
        except ValueError:
            report.skip(line, f"bad close {raw_close!r}")
            continue
        if not math.isfinite(close) or close <= 0:
            report.skip(line, f"close must be positive, got {close}")
            continue
        ret = math.nan
        raw_ret = (raw_ret or "").strip()
        if raw_ret:
            try:
                ret = float(raw_ret)
            except ValueError:
                report.skip(line, f"bad return {raw_ret!r}")
                continue
            if not math.isfinite(ret):
                report.skip(line, f"non-finite return {ret}")
                continue
        keys.extend((codes.setdefault(firm, len(codes)), day, line))
        values.extend((close, ret))
    report.keep(len(values) // 2)

    firm_code, ordinal, lines = np.frombuffer(keys, dtype=np.int64).reshape(-1, 3).T
    order = np.lexsort((ordinal, firm_code))
    firm_code, ordinal, lines = firm_code[order], ordinal[order], lines[order]
    close, ret = np.frombuffer(values).reshape(-1, 2)[order].T
    same_firm = firm_code[1:] == firm_code[:-1]
    repeat = same_firm & (ordinal[1:] == ordinal[:-1])
    if repeat.any():
        k = 1 + np.flatnonzero(repeat)[np.argmin(lines[1:][repeat])]
        firm, day = list(codes)[firm_code[k]], date.fromordinal(int(ordinal[k]))
        raise DataError(f"{path}:{lines[k]}: duplicate price row for {firm} {day}")
    derive = np.flatnonzero(same_firm & np.isnan(ret[1:])) + 1
    ret[derive] = close[derive] / close[derive - 1] - 1.0
    return (list(codes), firm_code, ordinal, ret), report


def oracle_read_market_index(path):
    """The former read_market_index: a row loop, a dict of date -> return."""
    report = IngestReport(path=str(path))
    returns = {}
    for line, (raw_day, raw_ret) in read_rows(path, "market index", ("date", "return")):
        try:
            day = date.fromisoformat((raw_day or "").strip())
        except ValueError:
            report.skip(line, f"bad date {raw_day!r}")
            continue
        try:
            ret = float(raw_ret or "")
        except ValueError:
            report.skip(line, f"bad return {raw_ret!r}")
            continue
        if not math.isfinite(ret):
            report.skip(line, f"non-finite return {ret}")
            continue
        if day in returns:
            raise DataError(f"{path}:{line}: duplicate market index date {day}")
        returns[day] = ret
        report.keep()
    dates = sorted(returns)
    return (dates, np.array([returns[day] for day in dates])), report


def oracle_read_calendar_events(path, kind):
    """The former read_calendar_events: a row loop, one (firm, date, kind) row per valid row."""
    report = IngestReport(path=str(path))
    rows = []
    for line, (firm, raw_day) in read_rows(path, "calendar", ("firm", "date")):
        firm = (firm or "").strip()
        if not firm:
            report.skip(line, "missing firm")
            continue
        try:
            day = date.fromisoformat((raw_day or "").strip())
        except ValueError:
            report.skip(line, f"bad date {raw_day!r}")
            continue
        report.keep()
        rows.append((firm, day, kind))
    rows.sort(key=lambda r: r[:2])
    return rows, report


def oracle_read_classified(path):
    """The former _read_classified: a row loop, each stamp parsed on its own."""
    codes = {}
    label_masks = {}
    firms, masks, scores = array("q"), array("q"), array("d")
    stamps = array("q")
    for line, (_, firm, raw_ts, raw_nodes, _, raw_score) in read_rows(
        path, "classified", CLASSIFIED_COLUMNS
    ):
        try:
            stamps.append(epoch_us(parse_timestamp(raw_ts or "")))
        except ValueError:
            raise DataError(f"{path}:{line}: bad timestamp in classified file") from None
        raw_nodes = raw_nodes or ""
        mask = label_masks.get(raw_nodes)
        if mask is None:
            try:
                mask = label_mask({parse_node(n) for n in raw_nodes.split("|") if n})
            except DataError as exc:
                raise DataError(f"{path}:{line}: {exc}") from None
            label_masks[raw_nodes] = mask
        try:
            score = float((raw_score or "").strip() or 0.0)
        except ValueError:
            score = math.nan
        if not math.isfinite(score):
            raise DataError(f"{path}:{line}: bad score {raw_score!r}")
        firms.append(codes.setdefault((firm or "").strip(), len(codes)))
        masks.append(mask)
        scores.append(score)
    return list(codes), firms, stamps, masks, scores


def oracle_load_kept_events(path, calendar):
    """The former load_kept_events: every cell parsed on every kept row."""
    out = []
    rows = read_rows(path, "event", EVENT_COLUMNS)
    for line, (firm, raw_node, raw_day, *_, kept, _, _) in rows:
        if (kept or "").strip() != "true":
            continue
        raw_day = (raw_day or "").strip()
        try:
            day = date.fromisoformat(raw_day)
        except ValueError:
            raise DataError(f"{path}:{line}: bad date {raw_day!r}") from None
        if day not in calendar:
            raise DataError(f"{path}:{line}: {day} is not a trading day in this calendar")
        try:
            node = parse_node(raw_node or "")
        except DataError as exc:
            raise DataError(f"{path}:{line}: {exc}") from None
        out.append(((firm or "").strip(), node, day))
    return out


def outcome(read, *args):
    try:
        return read(*args)
    except DataError as exc:
        return str(exc)


def error_line(result) -> float:
    """The line a DataError names, or infinity for a successful read."""
    if isinstance(result, str):
        return int(re.search(r":(\d+): ", result).group(1))
    return math.inf


def at_blocks(read, *args):
    """read(*args) at every block size; all must agree."""
    results = []
    for block in BLOCKS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_BLOCK", block)
            results.append(outcome(read, *args))
    assert all(r == results[0] for r in results[1:])
    return results[0]


# --- generated files ---------------------------------------------------------

# quoted multi-line cells, short rows (cut before the last cells) and long
# rows (an extra, sometimes multi-line, cell) are drawn for every file kind
LAYOUT = st.sampled_from(["row"] * 6 + ["blank", "short", "long", "long-multiline"])


@st.composite
def csv_files(draw, header, cells):
    """The text of a CSV file: rows drawn cell by cell, then laid out."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    rows = draw(st.lists(st.tuples(*cells), max_size=24))
    if rows and draw(st.booleans()):  # repeats of earlier rows
        for k in draw(st.lists(st.integers(0, 99), max_size=3)):
            rows.insert(draw(st.integers(0, len(rows))), rows[k % len(rows)])
    for row in rows:
        layout = draw(LAYOUT)
        if layout == "blank":  # a blank line, then the row
            buf.write("\n")
        if layout == "short":
            writer.writerow(row[: draw(st.integers(1, len(row) - 1))])
        elif layout.startswith("long"):
            writer.writerow([*row, "x\ny" if layout == "long-multiline" else "x"])
        else:
            writer.writerow(row)
    return buf.getvalue()


def pool(good, bad):
    return st.sampled_from(good * 4 + bad)


DAYS = [(START + timedelta(days=d)).isoformat() for d in range(3, 40)]
PRICE_CELLS = (
    pool(["A", " A", "B", "C\nD"], ["", " "]),
    pool(DAYS + [f" {DAYS[9]} "], ["nope", "", "2020-02-30"]),
    pool(["100", "101.5", "99", "1e2", " 50 "], ["abc", "", "0", "-5", "inf", "nan"]),
    pool(["", " ", "0.01", "-0.02", "0"], ["abc", "inf", "-inf", "nan"]),
)
INDEX_CELLS = (
    pool([(START + timedelta(days=d)).isoformat() for d in range(400)] + [f" {DAYS[9]} "],
         ["nope", "", "2020-02-30"]),
    pool(["0.01", "-0.02", "0", " 0.003 ", "1e-3"], ["abc", "", " ", "nan", "inf", "-inf"]),
)
CALENDAR_CELLS = (
    pool(["A", " A", "B", "C\nD"], ["", " "]),
    pool(DAYS + [f" {DAYS[9]} "], ["nope", "", "2020-02-30"]),
)
STAMPS = ["2020-01-06T15:30:00+00:00", "2020-01-07T20:01:02+00:00", "2020-01-08T15:30:00Z",
          "2020-01-08 09:00:00", "2020-01-09T15:30:00.250000+00:00"]
CLASSIFIED_CELLS = (
    st.sampled_from(["m1", "m2"]),
    pool(["A", " A", "B", "C\nD"], ["", " "]),
    pool(STAMPS, ["yesterday", "", "2020-13-45T00:00:00+00:00"]),
    pool(["", "ClimateChange", "Environment|ClimateChange", "climate_change", "Social"], ["Bogus"]),
    st.sampled_from(["", "oil spill", "a\nb"]),
    pool(["0.5", "-0.25", "0.0", " 1 "], ["", " ", "abc", "nan", "inf"]),
)
MESSAGE_CELLS = (
    pool(["m1", " m1", "m2", "m3", "m4", "m5"], ["", " "]),
    pool(["A", " A", "B", "C\nD"], ["", " "]),
    pool(STAMPS + ["2020-01-08T09:00:00-05:00"],
         ["yesterday", "", "2019-02-30T10:00:00Z", "2019-01-05T25:61:00+00:00",
          "0001-01-01T00:00:00+05:00"]),
    st.sampled_from(["", "oil spill", "a\nb", "hello"]),
)
EVENT_DAYS = [d for d in DAYS if date.fromisoformat(d) in CALENDAR]
EVENT_CELLS = (
    pool(["A", " A", "B", "C\nD"], ["", " "]),
    pool(["ClimateChange", "Environment", "esg", "climate_change"], ["Bogus", ""]),
    pool(EVENT_DAYS[:5] + [f" {EVENT_DAYS[0]} "], ["2020-01-04", "2020-13-45", ""]),
    st.just("12"), st.just("0.3"), st.just("-0.5"), st.just("negative"),
    st.sampled_from(["true", "true", " true", "false", ""]),
    st.just(""), st.just(""),
)


def write(tmp_path_factory, name, text):
    path = tmp_path_factory.mktemp("columns") / name
    path.write_text(text, encoding="utf-8")
    return path


def prices_result(path, read=read_prices):
    (names, firm, ordinal, ret), report = read(path)
    return names, firm.tobytes(), ordinal.tobytes(), ret.tobytes(), report.as_dict()


def index_result(path, read=read_market_index):
    (dates, returns), report = read(path)
    return dates, returns.tobytes(), report.as_dict()


def calendar_result(path, read=read_calendar_events):
    (firms, days, kind), report = read(path, EventKind.EARNINGS)
    return firms, days.tobytes(), kind, report.as_dict()


def oracle_calendar_columns(path, kind):
    """oracle_read_calendar_events' rows as read_calendar_events' columns."""
    rows, report = oracle_read_calendar_events(path, kind)
    days = np.array([day.toordinal() for _, day, _ in rows], np.int64)
    return ([firm for firm, _, _ in rows], days, kind), report


def classified_result(path, read=pipeline._read_classified):
    names, *columns = read(path)
    return names, *(np.asarray(c).tobytes() for c in columns)


def kept_result(path, read=load_kept_events):
    names, *columns = read(path, CALENDAR)
    return names, *(np.asarray(c).tobytes() for c in columns)


def oracle_kept_columns(path, calendar):
    """oracle_load_kept_events' keys as load_kept_events' columns: names coded by
    first row, then firm code, node_sort_key and calendar index per event."""
    keys = oracle_load_kept_events(path, calendar)
    codes = {}
    firm = [codes.setdefault(name, len(codes)) for name, _, _ in keys]
    return (list(codes), firm, [node_sort_key(node) for _, node, _ in keys],
            [calendar.index_of(day) for _, _, day in keys])


def first_strict_row(path, rows_before: float, kept_only: bool):
    """(line, message) of the first row before line `rows_before` with a blank
    firm or, among kept events, a repeated (firm, node, date); else None."""
    seen = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            if reader.line_num >= rows_before:
                return None
            if kept_only and (row["kept"] or "").strip() != "true":
                continue
            if not (firm := (row["firm"] or "").strip()):
                return reader.line_num, "missing firm"
            if kept_only:
                key = (firm, parse_node(row["node"]), date.fromisoformat(row["date"].strip()))
                if key in seen:
                    return reader.line_num, f"duplicate kept event {firm} {key[1]} {key[2]}"
                seen.add(key)
    return None


def messages_result(path, source_tz, read=iter_messages):
    report = IngestReport(path=str(path))
    return list(read(path, source_tz, report=report)), report.as_dict()


MESSAGES_HEADER = "id,firm,timestamp,text\n"


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=csv_files(["id", "firm", "timestamp", "text"], MESSAGE_CELLS),
       source_tz=st.sampled_from(["UTC", "America/New_York"]))
@example(  # a duplicate whose first occurrence was skipped, then a repeat of a valid id
    text=MESSAGES_HEADER + "m1,,2020-01-06T15:30:00Z,x\nm1,A,2020-01-06T15:30:00Z,y\n"
    "m2,A,2020-01-07T15:30:00Z,z\n m1 ,B,2020-01-08T15:30:00Z,w\n",
    source_tz="UTC",
)
@example(  # two blank ids, and rows failing several checks at once
    text=MESSAGES_HEADER + ",A,2020-01-06T15:30:00Z,x\n ,A,2020-01-06T15:30:00Z,x\n"
    "m1,A,2020-01-06T15:30:00Z,x\nm1, ,yesterday\n , ,yesterday\nm2, ,yesterday\nm2,A\n"
    "m2,A,yesterday,x\nm2,A,2020-01-06 10:30:00,x\n",
    source_tz="America/New_York",
)
def test_messages_match_row_oracle(tmp_path_factory, text, source_tz):
    path = write(tmp_path_factory, "messages.csv", text)
    expected = outcome(oracle_iter_messages, path, source_tz)
    assert at_blocks(messages_result, path, source_tz) == expected


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=csv_files(["firm", "date", "close", "return"], PRICE_CELLS), drop_return=st.booleans())
def test_prices_match_row_oracle(tmp_path_factory, text, drop_return):
    if drop_return:
        text = text.replace("firm,date,close,return\n", "firm,date,close\n", 1)
    path = write(tmp_path_factory, "prices.csv", text)
    expected = outcome(prices_result, path, oracle_read_prices)
    assert at_blocks(prices_result, path) == expected


INDEX_HEADER = "date,return\n"


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=csv_files(["date", "return"], INDEX_CELLS))
@example(  # a date reused by a skipped row, nan and inf returns, a short row
    text=INDEX_HEADER + "2020-01-06,nan\n2020-01-06,0.01\n2020-01-07,inf\n2020-01-08\n"
    "2020-01-07,abc\n2020-01-07, -0.02 \n",
)
@example(  # a duplicate date in the next block at block size 3
    text=INDEX_HEADER + "2020-01-06,0.01\nnope,0.01\n2020-01-07,0.02\n2020-01-06,0.03\n",
)
def test_market_index_matches_row_oracle(tmp_path_factory, text):
    path = write(tmp_path_factory, "market_index.csv", text)
    expected = outcome(index_result, path, oracle_read_market_index)
    assert at_blocks(index_result, path) == expected


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=csv_files(["firm", "date"], CALENDAR_CELLS))
@example(text="firm,date\nA\n,2020-01-06\n B ,2020-01-07\nA,nope\nA, 2020-01-06 \n")
def test_calendar_events_match_row_oracle(tmp_path_factory, text):
    path = write(tmp_path_factory, "earnings.csv", text)
    expected = outcome(calendar_result, path, oracle_calendar_columns)
    assert at_blocks(calendar_result, path) == expected


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=csv_files(CLASSIFIED_COLUMNS, CLASSIFIED_CELLS))
def test_classified_matches_row_oracle(tmp_path_factory, text):
    path = write(tmp_path_factory, "classified.csv", text)
    expected = outcome(classified_result, path, oracle_read_classified)
    if strict := first_strict_row(path, error_line(expected), kept_only=False):
        expected = f"{path}:{strict[0]}: {strict[1]}"
    assert at_blocks(classified_result, path) == expected


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=csv_files(EVENT_COLUMNS, EVENT_CELLS))
def test_kept_events_match_row_oracle(tmp_path_factory, text):
    path = write(tmp_path_factory, "events.csv", text)
    expected = outcome(kept_result, path, oracle_kept_columns)
    if strict := first_strict_row(path, error_line(expected), kept_only=True):
        expected = f"{path}:{strict[0]}: {strict[1]}"
    assert at_blocks(kept_result, path) == expected


# --- one bad cell in a large file ----------------------------------------------


def clean_prices(path, n_rows):
    days = [START + timedelta(days=d) for d in range(n_rows // 2 + 1)]
    lines = ["firm,date,close"]
    lines += [f"{firm},{day},{100 + i % 7}" for firm in "AB" for i, day in enumerate(days)]
    path.write_text("\n".join(lines[: n_rows + 1]) + "\n", encoding="utf-8")
    return path


def test_bad_cell_skips_only_its_row(tmp_path):
    block = ingest._BLOCK
    path = clean_prices(tmp_path / "prices.csv", 3 * block + 10)
    assert read_prices(path)[1].skips_total == 0

    lines = path.read_text(encoding="utf-8").splitlines()
    bad = block + 7  # a row of the second block; line 1 is the header
    lines[bad - 1] = lines[bad - 1].rsplit(",", 1)[0] + ",abc"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    (_, firm, _, _), report = read_prices(path)
    assert report.skips == [(bad, "bad close 'abc'")] and len(firm) == 3 * block + 9
    assert prices_result(path) == prices_result(path, oracle_read_prices)


# --- skip logging ---------------------------------------------------------------


def test_skips_log_one_warning_per_file(tmp_path, caplog):
    path = tmp_path / "prices.csv"
    path.write_text(
        "firm,date,close,return\nA,2020-01-06,100,\n,2020-01-07,1,\nA,nope,1,\n"
        "A,2020-01-08,abc,\n ,nope,1,\nA,2020-01-09,abc,xyz\n",
        encoding="utf-8",
    )
    with caplog.at_level(logging.DEBUG, logger="esgrisk.ingest"):
        read_prices(path)
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == [f"{path}: skipped 5 of 6 rows; first at line 3: missing firm"]
    debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert debug == [
        f"{path}:3 skipped: missing firm",
        f"{path}:4 skipped: bad date 'nope'",
        f"{path}:5 skipped: bad close 'abc'",
        f"{path}:6 skipped: missing firm",  # a row's first failing check names it
        f"{path}:7 skipped: bad close 'abc'",
    ]
    caplog.clear()
    path.write_text("firm,date,close\nA,2020-01-06,100\n", encoding="utf-8")
    read_prices(path)
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
