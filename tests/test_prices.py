"""Columnar price input against the per-row reader and aligner it replaced.

oracle_read_prices and oracle_align_firm_returns are the former
ingest.read_prices (one record per row, per-firm lists) and
study.align_firm_returns (a row-by-row walk onto the grid), kept here as
the reference: the columnar pair must give the same firms, the same
matrix to the last bit, the same IngestReport and the same errors.
"""

import csv
import io
import logging
import math
import tracemalloc
from contextlib import contextmanager
from datetime import date, timedelta

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import read_rows
from esgrisk.errors import DataError
from esgrisk.ingest import IngestReport, read_prices
from esgrisk.study import align_firm_returns
from esgrisk.trading import TradingCalendar

START = date(2020, 1, 1)
# weekdays of 2020-01-06 .. 2020-02-07 without the 2020-01-20 holiday: prices
# dated 2020-01-01 .. 2020-02-10 fall before, inside, between and after its days
CALENDAR = TradingCalendar([
    START + timedelta(days=d) for d in range(5, 38)
    if (START + timedelta(days=d)).weekday() < 5 and d != 19
])
NOTE = "%s: %d price dates outside the trading calendar"


def oracle_read_prices(path):
    """The former read_prices: {firm: [(day, return or None)]} sorted by day."""
    report = IngestReport(path=str(path))
    raw = {}
    seen = set()
    rows = read_rows(path, "prices", ("firm", "date", "close"), optional=("return",))
    for line, (firm, raw_day, raw_close, raw_ret) in rows:
        firm = (firm or "").strip()
        if not firm:
            report.skip(line, "missing firm")
            continue
        try:
            day = date.fromisoformat((raw_day or "").strip())
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
        ret = None
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
        key = (firm, day)
        if key in seen:
            raise DataError(f"{path}:{line}: duplicate price row for {firm} {day}")
        seen.add(key)
        report.keep()
        raw.setdefault(firm, []).append((day, close, ret))

    out = {}
    for firm, rows in raw.items():
        rows.sort(key=lambda r: r[0])
        series = []
        prev_close = None
        for day, close, ret in rows:
            if ret is None and prev_close is not None:
                ret = close / prev_close - 1.0
            series.append((day, ret))
            prev_close = close
        out[firm] = series
    return out, report


def oracle_align_firm_returns(prices, calendar):
    """The former align_firm_returns, plus the log notes it would write."""
    out = np.full((len(prices), len(calendar)), np.nan)
    notes = []
    for arr, (firm, rows) in zip(out, prices.items()):
        dropped = 0
        for day, ret in rows:
            if ret is None:
                continue
            if day not in calendar:
                dropped += 1
                continue
            arr[calendar.index_of(day)] = ret
        if dropped:
            notes.append(NOTE % (firm, dropped))
    return list(prices), out, notes


@contextmanager
def study_notes():
    """Collect the messages esgrisk.study logs at INFO and above."""
    notes = []
    handler = logging.Handler(logging.INFO)
    handler.emit = lambda record: notes.append(record.getMessage())
    logger = logging.getLogger("esgrisk.study")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield notes
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def columnar(path):
    with study_notes() as notes:
        prices, report = read_prices(path)
        firms, matrix = align_firm_returns(prices, CALENDAR)
    return firms, matrix.tobytes(), report.as_dict(), notes


def reference(path):
    prices, report = oracle_read_prices(path)
    firms, matrix, notes = oracle_align_firm_returns(prices, CALENDAR)
    return firms, matrix.tobytes(), report.as_dict(), notes


def outcome(read, path):
    try:
        return read(path)
    except DataError as exc:
        return str(exc)


FIRMS = ("A", " A", "B", "C")
CLOSES = ("100", "101.5", "99", "1e2", " 50 ")
RETURNS = ("", " ", "0.01", "-0.02", "0")
SKIPS = (
    ("", None, None, None),  # missing firm
    (None, "nope", None, None),
    (None, "", None, None),
    (None, "2020-02-30", None, None),
    (None, None, "abc", None),  # bad close
    (None, None, "", None),
    (None, None, "0", None),  # non-positive or non-finite close
    (None, None, "-5", None),
    (None, None, "inf", None),
    (None, None, "nan", None),
    (None, None, None, "abc"),  # bad return
    (None, None, None, "inf"),  # non-finite return
    (None, None, None, "-inf"),
    (None, None, None, "nan"),
)


def day_text(offset, padded):
    text = (START + timedelta(days=offset)).isoformat()
    return f" {text} " if padded else text


@st.composite
def price_files(draw):
    """(has return column, rows): a None row is a blank line."""
    cell = st.tuples(
        st.sampled_from(FIRMS), st.integers(0, 40), st.booleans(),
        st.sampled_from(CLOSES), st.sampled_from(RETURNS),
    )
    keys = draw(st.lists(cell, max_size=20, unique_by=lambda c: (c[0].strip(), c[1])))
    rows = [[firm, day_text(day, padded), close, ret] for firm, day, padded, close, ret in keys]
    if rows:  # pairs and triples of one (firm, date), with their own closes and returns
        repeats = st.lists(st.tuples(st.integers(0, 99), st.integers(1, 2)), max_size=3)
        for k, copies in draw(repeats):
            firm, day = rows[k % len(keys)][:2]
            for _ in range(copies):
                close, ret = draw(st.sampled_from(CLOSES)), draw(st.sampled_from(RETURNS))
                rows.append([firm, day, close, ret])
    for skip in draw(st.lists(st.sampled_from(SKIPS), max_size=6)):
        firm, day, _, close, ret = draw(cell)
        fill = (firm, day_text(day, False), close, ret)
        rows.append([mine if mine is not None else other for mine, other in zip(skip, fill)])
    rows = draw(st.permutations(rows))
    has_return = draw(st.booleans())
    if not has_return:
        rows = [row[:3] for row in rows]
    else:  # a short row leaves its return cell out, which reads as blank
        rows = [row[:3] if draw(st.booleans()) and not row[3] else row for row in rows]
    for at in draw(st.lists(st.integers(0, len(rows)), max_size=3)):
        rows.insert(at, None)
    return has_return, rows


def write_prices(path, has_return, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["firm", "date", "close", "return"][: 4 if has_return else 3])
    for row in rows:
        if row is None:
            buf.write("\n")
        else:
            writer.writerow(row)
    path.write_text(buf.getvalue(), encoding="utf-8")
    return path


@settings(max_examples=400, deadline=None)
@given(case=price_files())
@example(case=(False, [  # each firm's first row has no return, even after another firm
    ["B", "2020-01-07", "50"], ["A", "2020-01-06", "100"], ["A", "2020-01-08", "110"],
    ["B", "2020-01-06", "40"], None, ["A", "2020-01-11", "121"], ["A", "2020-02-10", "1"],
]))
@example(case=(True, [  # B's pair repeats before A's triple does
    ["A", "2020-01-06", "100", ""], ["B", "2020-01-07", "50", ""],
    ["B", "2020-01-07", "51", "0.01"], ["A", "2020-01-06", "101", ""],
    ["A", "2020-01-06", "102", ""],
]))
def test_columnar_prices_match_row_oracle(tmp_path_factory, case):
    path = write_prices(tmp_path_factory.mktemp("prices") / "prices.csv", *case)
    assert outcome(columnar, path) == outcome(reference, path)


def test_outside_calendar_note_counts_rows_with_returns(tmp_path, caplog):
    path = write_prices(tmp_path / "p.csv", False, [
        ["A", "2020-01-01", "100"],  # A's first row: no return, so not counted
        ["A", "2020-01-04", "101"],  # Saturday
        ["A", "2020-01-06", "102"],
        ["A", "2020-01-20", "103"],  # holiday
        ["A", "2020-02-10", "104"],  # after the last trading day
        ["B", "2020-01-06", "50"],
        ["B", "2020-01-07", "51"],
    ])
    prices, _ = read_prices(path)
    with caplog.at_level(logging.INFO, logger="esgrisk.study"):
        firms, matrix = align_firm_returns(prices, CALENDAR)
    notes = [r.getMessage() for r in caplog.records if r.name == "esgrisk.study"]
    assert notes == ["A: 3 price dates outside the trading calendar"]
    assert firms == ["A", "B"]
    assert np.count_nonzero(~np.isnan(matrix[0])) == 1  # only 2020-01-06
    assert matrix[0, CALENDAR.index_of(date(2020, 1, 6))] == 102 / 101 - 1.0
    assert matrix[1, CALENDAR.index_of(date(2020, 1, 7))] == 51 / 50 - 1.0


def test_read_prices_peak_memory_is_bounded_by_its_columns(tmp_path):
    """The traced peak of read_prices stays within a small multiple of the
    columns it returns: each unsorted buffer goes once its sorted copy exists."""
    days = [START + timedelta(days=d) for d in range(500)]
    lines = ["firm,date,close,return"]
    for f in range(40):  # every other return blank, so half are derived
        lines += [f"F{f:02d},{day},{100 + (i * 7 + f) % 13},{'' if i % 2 else 0.001}"
                  for i, day in enumerate(days)]
    path = tmp_path / "prices.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tracemalloc.start()
    try:
        (_, firm, ordinal, ret), _ = read_prices(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(firm) == 20_000
    assert peak < 3.2 * (firm.nbytes + ordinal.nbytes + ret.nbytes)
