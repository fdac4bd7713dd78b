"""File ingestion: messages, prices, market index, calendar events.

All inputs are UTF-8, RFC-4180 CSV with a header row, read through
read_columns; blank lines are skipped. Malformed rows are skipped and
recorded in an IngestReport so that valid + skipped == total always
holds, with a debug line per row and one warning per file; only
structural problems that would corrupt downstream arithmetic (duplicate
price rows, duplicate index dates, unreadable or undecodable files,
malformed CSV records) are fatal.

Every CSV reader is a check table: an ordered table of (mask, reason)
checks over a block's columns, each distinct cell `decoded` once, which
ends in IngestReport.skip_failing for the input readers here and in
`require` for the artifact and lexicon readers.
"""

from __future__ import annotations

import csv
import enum
import logging
from array import array
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from itertools import accumulate, compress, islice, repeat
from operator import is_not, itemgetter
from pathlib import Path
from typing import Callable, NamedTuple, Sequence
from zoneinfo import ZoneInfo

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)

MAX_SKIPS_STORED = 1000
# rows per read_columns block: with one list per column, a block makes
# fewer new objects than the cyclic GC's first threshold (700)
_BLOCK = 512

# read_prices' columns: firm names, then per valid row firm code, date ordinal and return
PriceColumns = tuple[list[str], np.ndarray, np.ndarray, np.ndarray]
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


class EventKind(enum.Enum):
    EARNINGS = "EarningsRelease"
    CONTROVERSY = "ControversyNews"

    def __str__(self) -> str:
        return self.value


class CalendarEvents(NamedTuple):
    """One confound calendar as columns sorted by (firm, date): each row's firm name and date ordinal."""

    firms: list[str]
    days: np.ndarray
    kind: EventKind


@dataclass
class IngestReport:
    """Row accounting for one input file."""

    path: str
    total_rows: int = 0
    valid_rows: int = 0
    skips: list[tuple[int, str]] = field(default_factory=list)
    skips_total: int = 0

    def skip(self, line_num: int, reason: str) -> None:
        self.total_rows += 1
        self.skips_total += 1
        if len(self.skips) < MAX_SKIPS_STORED:
            self.skips.append((line_num, reason))
        log.debug("%s:%d skipped: %s", self.path, line_num, reason)

    def log_skips(self) -> None:
        """One warning for the whole file: how many rows were skipped, and the first."""
        if self.skips:
            line, reason = self.skips[0]
            log.warning("%s: skipped %d of %d rows; first at line %d: %s",
                        self.path, self.skips_total, self.total_rows, line, reason)

    def skip_failing(self, lines: Sequence[int], checks) -> np.ndarray:
        """Skip each row that fails a check (see `failures`) and keep the rest; the mask of the rows kept."""
        keep = np.ones(len(lines), bool)
        for k, reason in failures(checks):
            self.skip(lines[k], reason)
            keep[k] = False
        self.keep(int(keep.sum()))
        return keep

    def keep(self, rows: int = 1) -> None:
        self.total_rows += rows
        self.valid_rows += rows

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "total_rows": self.total_rows,
            "valid_rows": self.valid_rows,
            "skipped_rows": self.skips_total,
            "skips": [{"line": line, "reason": reason} for line, reason in self.skips],
        }


def parse_timestamp(raw: str, source_tz: str = "UTC") -> datetime:
    """Parse an ISO-8601 timestamp into an aware UTC datetime.

    Naive timestamps are interpreted in source_tz. Raises ValueError on
    unparseable input (callers turn that into a skipped row).
    """
    raw = raw.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=ZoneInfo(source_tz))
    return ts.astimezone(timezone.utc)


def epoch_us(ts: datetime) -> int:
    """Exact microseconds since the Unix epoch of an aware datetime."""
    return (ts - EPOCH) // timedelta(microseconds=1)


# parse_stamps' numpy form: the bounds of each of its first 19 characters, d a digit
_STAMP_FORM = "dddd-dd-ddTdd:dd:dd"
_STAMP_LOW, _STAMP_HIGH = (
    np.array([ord(digit if c == "d" else c) for c in _STAMP_FORM], np.uint32) for digit in "09"
)
_UTC_SUFFIX = np.array([ord(c) for c in "+00:00"], np.uint32)
# (19 characters) x (year, month, day, hour, minute, second): each digit's place value
_FIELD_DIGITS = np.array([
    [10.0 ** (end - 1 - i) if start <= i < end else 0.0
     for start, end in [(0, 4), (5, 7), (8, 10), (11, 13), (14, 16), (17, 19)]]
    for i in range(19)
])


def parse_stamps(raw: Sequence[str | None], source_tz: str) -> tuple[np.ndarray, np.ndarray]:
    """(UTC epoch microseconds, parsed) of each stamp: parse_timestamp over a column.

    A stamp `YYYY-MM-DDTHH:MM:SS` followed by `+00:00`, `Z` or `z`, or by
    nothing when source_tz is UTC, is read with numpy, fields and all, as
    long as every field is in range. Every other stamp, a None cell
    reading as "", goes through parse_timestamp on its own; where that
    refuses one, `parsed` is False and its microseconds are 0.
    """
    n = len(raw)
    if None in raw:
        raw = [cell or "" for cell in raw]
    lengths = np.fromiter(map(len, raw), np.intp, n)
    codes = np.array(raw, dtype="U25").view(np.uint32).reshape(n, 25)  # cuts longer stamps
    head = codes[:, :19]
    fits = ((head >= _STAMP_LOW) & (head <= _STAMP_HIGH)).all(axis=1)
    suffix = np.where(
        lengths == 25, (codes[:, 19:] == _UTC_SUFFIX).all(axis=1),
        np.where(lengths == 20, (codes[:, 19] == ord("Z")) | (codes[:, 19] == ord("z")),
                 (lengths == 19) & (source_tz == "UTC")),
    )
    cand = np.flatnonzero(fits & suffix)
    fields = ((head[cand] - 48.0) @ _FIELD_DIGITS).astype(np.int64)  # exact: at most 9999
    year, month, day, hour, minute, second = fields.T
    months = ((year - 1970) * 12 + month - 1).astype("datetime64[M]")
    days = months.astype("datetime64[D]") + (day - 1)
    valid = ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (hour < 24)
             & (minute < 60) & (second < 60) & (days.astype("datetime64[M]") == months))
    us, ok = np.zeros(n, np.int64), np.zeros(n, bool)
    seconds = ((days.astype(np.int64) * 24 + hour) * 60 + minute) * 60 + second
    us[cand[valid]], ok[cand[valid]] = seconds[valid] * 1_000_000, True
    for k in np.flatnonzero(~ok):
        try:
            us[k], ok[k] = epoch_us(parse_timestamp(raw[k], source_tz)), True
        except (ValueError, KeyError, OverflowError):
            pass
    return us, ok


def utc_stamps(us: Sequence[int]) -> list[str]:
    """datetime.isoformat of each UTC epoch-microsecond stamp, `+00:00` and all."""
    whole = np.asarray(us, dtype=np.int64)
    text = np.datetime_as_string(whole.astype("datetime64[us]").astype("datetime64[s]")).tolist()
    out = [*map(str.__add__, text, repeat("+00:00"))]
    for k in np.flatnonzero(whole % 1_000_000):
        out[k] = (EPOCH + timedelta(microseconds=int(whole[k]))).isoformat()
    return out


def _breaks(row: list[str]) -> int:
    """Line breaks inside a row's quoted cells: \r\n, \r and \n each end one physical line."""
    return sum(c.count("\n") + c.count("\r") - c.count("\r\n") for c in row)


def read_columns(path: str | Path, what: str, required: Sequence[str], optional: Sequence[str] = ()):
    """Yield (lines, columns) for blocks of up to _BLOCK rows of a headed UTF-8 CSV file.

    Blank rows are dropped. `lines` holds each kept row's last physical
    line; `columns` holds one list of cells per `required` then `optional`
    column, in that order, with csv.DictReader's reading of them: a cell
    beyond the end of a short row, or of an absent optional column, is
    None; extra cells are ignored; a header name given twice names its
    last column. An unreadable file, a missing required column, an
    undecodable byte or a malformed record raises DataError naming the
    file, after the rows before it are yielded.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            index = {name: i for i, name in enumerate(header)}
            missing = [c for c in required if c not in index]
            if missing:
                raise DataError(f"{path}: missing {what} columns {missing}, found {header}")
            # short rows are padded with None, and an absent column (-1) is all None
            cols = [index.get(c, -1) for c in (*required, *optional)]
            width, pad = len(header), [None] * len(header)
            failure = None
            while failure is None:
                start, rows = reader.line_num, []
                try:
                    rows.extend(islice(reader, _BLOCK))
                except (UnicodeDecodeError, csv.Error) as exc:
                    failure = exc  # raised once the rows read before it are yielded
                if not rows:
                    break
                lines = range(start + 1, reader.line_num + 1)
                if len(lines) != len(rows):  # a quoted cell spans lines
                    lines = list(accumulate([1 + _breaks(row) for row in rows], initial=start))[1:]
                if set(map(len, rows)) != {width}:  # blank, short or long rows
                    lines = list(compress(lines, rows))
                    rows = [row if len(row) >= width else row + pad for row in rows if row]
                if rows:  # not zip(*rows), which makes one iterator per row
                    n = len(rows)
                    yield lines, [[*map(itemgetter(i), rows)] if i >= 0 else [None] * n for i in cols]
            if failure is not None:
                raise failure
        except UnicodeDecodeError as exc:
            line = reader.line_num + 1
            raise DataError(f"{path}:{line}: {what} is not UTF-8 at or after this line ({exc.reason})") from None
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: malformed {what} record: {exc}") from None


def iter_messages(path: str | Path, source_tz: str = "UTC", report: IngestReport | None = None):
    """Yield (id, firm, UTC epoch microseconds, text) per valid message, recording skips in `report`.

    Each block is converted a column at a time and checked against one
    table: a missing id, a duplicate id, a missing firm, a missing text
    column value and a bad timestamp, a row skipped with the first reason
    it meets. A duplicate repeats the id of an earlier valid row; the id
    and firm are stripped.
    """
    if report is None:
        report = IngestReport(path=str(path))
    seen: set[str] = set()
    for lines, (raw_ids, raw_firms, raw_ts, texts) in read_columns(
        path, "messages", ("id", "firm", "timestamp", "text")
    ):
        n = len(lines)
        ids = [(raw or "").strip() for raw in raw_ids]
        names = {raw: (raw or "").strip() for raw in set(raw_firms)}
        firms = [*map(names.__getitem__, raw_firms)]
        has_id, has_firm = filled(ids), filled(firms)
        has_text = np.fromiter(map(is_not, texts, repeat(None)), bool, n)
        us, parsed = parse_stamps(raw_ts, source_tz)
        # the first row of an id that passes every other check is valid, unless an
        # earlier block had the id; any later row of the id is a duplicate
        seen_before = np.fromiter(map(seen.__contains__, ids), bool, n)
        cand = np.flatnonzero(has_id & has_firm & has_text & parsed).tolist()
        first = dict(zip(reversed([ids[k] for k in cand]), reversed(cand)))
        repeat_of = np.fromiter(map(first.get, ids, repeat(n)), np.int64, n) < np.arange(n)
        keep = report.skip_failing(lines, [
            (has_id, lambda k: "missing id"),
            (~(seen_before | repeat_of), lambda k: f"duplicate id {ids[k]!r}"),
            (has_firm, lambda k: "missing firm"),
            (has_text, lambda k: "missing text column value"),
            (parsed, lambda k: f"bad timestamp {(raw_ts[k] or '').strip()!r}"),
        ])
        if not keep.all():
            ids, firms, texts = ([*compress(c, keep)] for c in (ids, firms, texts))
            us = us[keep]
        seen.update(ids)
        yield from zip(ids, firms, us.tolist(), texts)
    report.log_skips()


def filled(cells: Sequence[str | None]) -> np.ndarray:
    """Whether each cell holds more than whitespace; a None cell does not."""
    distinct = set(cells)
    blank = {raw for raw in distinct if not (raw or "").strip()}
    if not blank or blank == distinct:  # no cell or every cell blank, as in an absent column
        return np.full(len(cells), not blank)
    return ~np.fromiter(map(blank.__contains__, cells), bool, len(cells))


def floats(cells: Sequence[str | None]) -> tuple[np.ndarray, np.ndarray]:
    """(values, parsed): float() of each cell, or NaN and False where it refuses one.

    The whole column goes through map(float, ...); only a column that
    raises is converted again cell by cell.
    """
    n = len(cells)
    try:
        return np.fromiter(map(float, cells), np.float64, n), np.ones(n, bool)
    except (ValueError, TypeError):
        values, parsed = np.full(n, np.nan), np.zeros(n, bool)
        for k, cell in enumerate(cells):
            try:
                values[k], parsed[k] = float(cell), True
            except (ValueError, TypeError):
                pass
        return values, parsed


def decoded(cells: Sequence[str | None], cache: dict, convert: Callable[[str | None], int],
            errors: dict | None = None) -> np.ndarray:
    """convert(cell) of each cell, each distinct cell converted once through `cache`; -1 where
    convert raises ValueError or DataError, whose text `errors`, when given, keeps."""
    errors = {} if errors is None else errors
    for raw in set(cells).difference(cache):
        try:
            cache[raw] = convert(raw)
        except (ValueError, DataError) as exc:
            cache[raw], errors[raw] = -1, str(exc)
    return np.fromiter(map(cache.__getitem__, cells), np.int64, len(cells))


def ordinals(cells: Sequence[str | None], cache: dict[str | None, int]) -> np.ndarray:
    """date.fromisoformat(cell.strip()).toordinal() of each cell, -1 for a bad date or None; see `decoded`."""
    return decoded(cells, cache, lambda raw: date.fromisoformat((raw or "").strip()).toordinal())


def fresh(keys: Sequence, seen: set) -> np.ndarray:
    """Whether each key is new, in neither `seen` nor earlier in `keys`; adds every key to `seen`."""
    new = np.zeros(len(keys), bool)
    for k, key in enumerate(keys):
        new[k] = key not in seen
        seen.add(key)
    return new


def failures(checks: Sequence[tuple[np.ndarray, Callable[[int], str]]]):
    """Yield (row, reason) for each row that fails a check, naming the first it fails.

    `checks` is a reader's rule as (mask, reason) pairs in rule order: the
    mask is true on the rows that pass, and reason(row) says why one fails.
    """
    passes = np.array([mask for mask, _ in checks])
    for row in np.flatnonzero(~passes.all(axis=0)):
        yield int(row), checks[np.argmin(passes[:, row])][1](row)


def require(path: str | Path, lines: Sequence[int], checks) -> None:
    """Raise DataError as path:line: reason at the first row that fails a check (see `failures`)."""
    for k, reason in failures(checks):
        raise DataError(f"{path}:{lines[k]}: {reason}")


def code_firms(cells: Sequence[str | None], codes: dict[str, int]) -> np.ndarray:
    """Each row's firm code, coding a new stripped name in first-row order.

    A reader calls this on the rows that pass its checks only, or on a
    block whose every failing row raises, so a firm is coded by its first
    valid row.
    """
    names = {raw: (raw or "").strip() for raw in dict.fromkeys(cells)}
    code = {raw: codes.setdefault(name, len(codes)) for raw, name in names.items()}
    return np.fromiter(map(code.__getitem__, cells), np.int64, len(cells))


def read_prices(path: str | Path) -> tuple[PriceColumns, IngestReport]:
    """Read close prices into columns sorted by (firm, date), firms coded by first valid row.

    Each block is converted a column at a time and checked against one
    table: a row with a blank firm, a bad date, a bad or non-positive
    close, or a bad or non-finite return is skipped with the first reason
    it meets. A blank or absent `return` cell is close_t/close_{t-1} - 1
    over the firm's previous row, and NaN on its first row. A duplicate
    (firm, date) is fatal, reported at its earliest repeat in file order
    after every row is read.
    """
    report = IngestReport(path=str(path))
    codes: dict[str, int] = {}
    days: dict[str | None, int] = {}
    columns = [array(t) for t in "qqqdd"]  # firm code, ordinal, line, close, return
    blocks = read_columns(path, "prices", ("firm", "date", "close"), optional=("return",))
    for lines, (firms, raw_days, raw_closes, raw_rets) in blocks:
        n = len(lines)
        day = ordinals(raw_days, days)
        close, close_parsed = floats(raw_closes)
        given = filled(raw_rets)  # a blank return is derived from the closes
        ret, ret_parsed = floats(raw_rets) if given.any() else (np.full(n, np.nan), given)
        keep = report.skip_failing(lines, [
            (filled(firms), lambda k: "missing firm"),
            (day > 0, lambda k: f"bad date {raw_days[k]!r}"),
            (close_parsed, lambda k: f"bad close {raw_closes[k]!r}"),
            (np.isfinite(close) & (close > 0), lambda k: f"close must be positive, got {float(close[k])}"),
            (ret_parsed | ~given, lambda k: f"bad return {raw_rets[k].strip()!r}"),
            (np.isfinite(ret) | ~given, lambda k: f"non-finite return {float(ret[k])}"),
        ])
        if not keep.all():
            lines, firms = [*compress(lines, keep)], [*compress(firms, keep)]
            day, close, ret = day[keep], close[keep], ret[keep]
        lines = np.fromiter(lines, np.int64, len(lines))
        for column, part in zip(columns, (code_firms(firms, codes), day, lines, close, ret)):
            column.frombytes(part.tobytes())
    report.log_skips()

    keys = [np.frombuffer(c, dtype=np.int64) for c in columns[1::-1]]
    order = np.lexsort(keys)  # by firm code, then date; stable, so repeats stay in file order
    # with no view left on it, each unsorted buffer goes once its sorted copy exists
    del keys
    firm_code, ordinal, lines, close, ret = (np.frombuffer(columns.pop(0), t)[order] for t in "qqqdd")
    same_firm = firm_code[1:] == firm_code[:-1]
    repeat = same_firm & (ordinal[1:] == ordinal[:-1])
    if repeat.any():
        k = 1 + np.flatnonzero(repeat)[np.argmin(lines[1:][repeat])]
        firm, day = list(codes)[firm_code[k]], date.fromordinal(int(ordinal[k]))
        raise DataError(f"{path}:{lines[k]}: duplicate price row for {firm} {day}")
    del order, lines, repeat
    derive = np.flatnonzero(same_firm & np.isnan(ret[1:])) + 1
    ret[derive] = close[derive] / close[derive - 1] - 1.0
    return (list(codes), firm_code, ordinal, ret), report


def read_market_index(path: str | Path) -> tuple[tuple[list[date], np.ndarray], IngestReport]:
    """Read the market index into (dates, returns) columns sorted by date; one row per date.

    A row with a bad date or a bad or non-finite return is skipped; a valid row's repeated date is fatal.
    """
    report = IngestReport(path=str(path))
    days: dict[str | None, int] = {}
    seen: set[int] = set()
    returns: dict[int, float] = {}  # by ordinal
    for lines, (raw_days, raw_rets) in read_columns(path, "market index", ("date", "return")):
        day = ordinals(raw_days, days)
        ret, parsed = floats(raw_rets)
        keep = report.skip_failing(lines, [
            (day > 0, lambda k: f"bad date {raw_days[k]!r}"),
            (parsed, lambda k: f"bad return {raw_rets[k]!r}"),
            (np.isfinite(ret), lambda k: f"non-finite return {float(ret[k])}"),
        ])
        lines, day, ret = [*compress(lines, keep)], day[keep].tolist(), ret[keep].tolist()
        require(path, lines, [
            (fresh(day, seen), lambda k: f"duplicate market index date {date.fromordinal(day[k])}"),
        ])
        returns.update(zip(day, ret))
    report.log_skips()
    dates = sorted(returns)
    return ([*map(date.fromordinal, dates)], np.array([*map(returns.get, dates)], float)), report


def read_calendar_events(path: str | Path, kind: EventKind) -> tuple[CalendarEvents, IngestReport]:
    """Read firm,date confound events of one kind as columns sorted by (firm, date); empty files are fine.

    A row with a blank firm or a bad date is skipped with the first reason it meets.
    """
    report = IngestReport(path=str(path))
    cache: dict[str | None, int] = {}
    firms: list[str] = []
    days: list[int] = []
    for lines, (raw_firms, raw_days) in read_columns(path, "calendar", ("firm", "date")):
        day = ordinals(raw_days, cache)
        keep = report.skip_failing(lines, [
            (filled(raw_firms), lambda k: "missing firm"),
            (day > 0, lambda k: f"bad date {raw_days[k]!r}"),
        ])
        firms += [firm.strip() for firm in compress(raw_firms, keep)]
        days += day[keep].tolist()
    report.log_skips()
    order = sorted(range(len(firms)), key=lambda k: (firms[k], days[k]))
    return CalendarEvents([firms[k] for k in order], np.array([days[k] for k in order], np.int64), kind), report
