"""File ingestion: messages, prices, market index, calendar events.

All inputs are RFC-4180 CSV with a header row. Malformed rows are skipped
with a warning and recorded in an IngestReport so that
valid + skipped == total always holds; only structural problems that
would corrupt downstream arithmetic (duplicate price rows, duplicate
index dates, unreadable files) are fatal.
"""

from __future__ import annotations

import csv
import enum
import logging
import math
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path
from zoneinfo import ZoneInfo

from .errors import DataError

log = logging.getLogger(__name__)

MAX_SKIPS_STORED = 1000


class EventKind(enum.Enum):
    EARNINGS = "EarningsRelease"
    CONTROVERSY = "ControversyNews"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Message:
    id: str
    firm: str
    timestamp: datetime  # timezone-aware, UTC
    text: str


@dataclass(frozen=True)
class PriceRow:
    firm: str
    day: date
    close: float
    ret: float | None  # simple return vs previous close; None on the first day


@dataclass(frozen=True)
class MarketIndexRow:
    day: date
    ret: float


@dataclass(frozen=True)
class CalendarEventRow:
    firm: str
    day: date
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
        log.warning("%s:%d skipped: %s", self.path, line_num, reason)

    def keep(self) -> None:
        self.total_rows += 1
        self.valid_rows += 1

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


def _parse_date(raw: str) -> date:
    return date.fromisoformat(raw.strip())


def _require_columns(reader: csv.DictReader, path: Path, required: tuple[str, ...]) -> None:
    names = reader.fieldnames or []
    missing = [c for c in required if c not in names]
    if missing:
        raise DataError(f"{path}: missing required column(s) {missing}, found {names}")


def _open(path: str | Path):
    try:
        return open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def read_messages(
    path: str | Path, source_tz: str = "UTC"
) -> tuple[list[Message], IngestReport]:
    """Read a message corpus; see iter_messages for the streaming form."""
    report = IngestReport(path=str(path))
    messages = list(iter_messages(path, source_tz=source_tz, report=report))
    return messages, report


def iter_messages(path: str | Path, source_tz: str = "UTC", report: IngestReport | None = None):
    """Yield valid messages one at a time, recording skips in `report`.

    Message ids must be unique within the corpus; a repeated id is a
    skipped row, not a fatal error.
    """
    if report is None:
        report = IngestReport(path=str(path))
    seen_ids: set[str] = set()
    with _open(path) as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader, Path(path), ("id", "firm", "timestamp", "text"))
        for row in reader:
            line = reader.line_num
            msg_id = (row.get("id") or "").strip()
            firm = (row.get("firm") or "").strip()
            raw_ts = (row.get("timestamp") or "").strip()
            text = row.get("text")
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
            except (ValueError, KeyError):
                report.skip(line, f"bad timestamp {raw_ts!r}")
                continue
            seen_ids.add(msg_id)
            report.keep()
            yield Message(id=msg_id, firm=firm, timestamp=ts, text=text)


def read_prices(path: str | Path) -> tuple[dict[str, list[PriceRow]], IngestReport]:
    """Read close prices per firm, sorted by date.

    If the file has no `return` column, simple returns close_t/close_{t-1} - 1
    are computed per firm; the first observed day has no return. A duplicate
    (firm, date) pair is fatal.
    """
    report = IngestReport(path=str(path))
    raw: dict[str, list[tuple[date, float, float | None]]] = {}
    seen: set[tuple[str, date]] = set()
    with _open(path) as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader, Path(path), ("firm", "date", "close"))
        has_ret = "return" in (reader.fieldnames or [])
        for row in reader:
            line = reader.line_num
            firm = (row.get("firm") or "").strip()
            if not firm:
                report.skip(line, "missing firm")
                continue
            try:
                day = _parse_date(row.get("date") or "")
            except ValueError:
                report.skip(line, f"bad date {row.get('date')!r}")
                continue
            try:
                close = float(row.get("close") or "")
            except ValueError:
                report.skip(line, f"bad close {row.get('close')!r}")
                continue
            if not math.isfinite(close) or close <= 0:
                report.skip(line, f"close must be positive, got {close}")
                continue
            ret: float | None = None
            if has_ret:
                raw_ret = (row.get("return") or "").strip()
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

    out: dict[str, list[PriceRow]] = {}
    for firm, rows in raw.items():
        rows.sort(key=lambda r: r[0])
        series: list[PriceRow] = []
        prev_close: float | None = None
        for day, close, ret in rows:
            if ret is None and prev_close is not None:
                ret = close / prev_close - 1.0
            series.append(PriceRow(firm=firm, day=day, close=close, ret=ret))
            prev_close = close
        out[firm] = series
    return out, report


def read_market_index(path: str | Path) -> tuple[list[MarketIndexRow], IngestReport]:
    """Read the market index returns; exactly one row per date, sorted."""
    report = IngestReport(path=str(path))
    rows: list[MarketIndexRow] = []
    seen: set[date] = set()
    with _open(path) as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader, Path(path), ("date", "return"))
        for row in reader:
            line = reader.line_num
            try:
                day = _parse_date(row.get("date") or "")
            except ValueError:
                report.skip(line, f"bad date {row.get('date')!r}")
                continue
            try:
                ret = float(row.get("return") or "")
            except ValueError:
                report.skip(line, f"bad return {row.get('return')!r}")
                continue
            if not math.isfinite(ret):
                report.skip(line, f"non-finite return {ret}")
                continue
            if day in seen:
                raise DataError(f"{path}:{line}: duplicate market index date {day}")
            seen.add(day)
            report.keep()
            rows.append(MarketIndexRow(day=day, ret=ret))
    rows.sort(key=lambda r: r.day)
    return rows, report


def read_calendar_events(
    path: str | Path, kind: EventKind
) -> tuple[list[CalendarEventRow], IngestReport]:
    """Read firm,date confound events of one kind; empty files are fine."""
    report = IngestReport(path=str(path))
    rows: list[CalendarEventRow] = []
    with _open(path) as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader, Path(path), ("firm", "date"))
        for row in reader:
            line = reader.line_num
            firm = (row.get("firm") or "").strip()
            if not firm:
                report.skip(line, "missing firm")
                continue
            try:
                day = _parse_date(row.get("date") or "")
            except ValueError:
                report.skip(line, f"bad date {row.get('date')!r}")
                continue
            report.keep()
            rows.append(CalendarEventRow(firm=firm, day=day, kind=kind))
    rows.sort(key=lambda r: (r.firm, r.day))
    return rows, report
