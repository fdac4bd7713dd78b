"""Trading calendar and close-to-close day assignment.

The calendar is whatever dates the market index file contains. A message
belongs to trading day d when it was posted after the 4 p.m. exchange
close of the previous trading day and no later than 16:00:00 on d;
weekend and holiday posts roll forward to the next trading day.
"""

from __future__ import annotations

from bisect import bisect_left
from datetime import date, datetime, time, timedelta, timezone
from typing import Sequence
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

import numpy as np

from .errors import ConfigError, DataError
from .ingest import epoch_us

MARKET_CLOSE = time(16, 0)
DEFAULT_EXCHANGE_TZ = "America/New_York"


def check_zone(key: str, name: str) -> None:
    """ConfigError unless `name` is an IANA time zone this machine knows."""
    try:
        ZoneInfo(name)
    except (ZoneInfoNotFoundError, ValueError):
        raise ConfigError(f"{key}: unknown time zone {name!r}") from None


class TradingCalendar:
    """Strictly increasing sequence of trading dates with index lookups."""

    def __init__(self, dates: Sequence[date]):
        if not dates:
            raise DataError("trading calendar is empty")
        dates = tuple(dates)
        for prev, cur in zip(dates, dates[1:]):
            if cur <= prev:
                raise DataError(f"calendar dates not strictly increasing at {cur}")
        self.dates: tuple[date, ...] = dates
        self._index = {d: i for i, d in enumerate(dates)}

    def __len__(self) -> int:
        return len(self.dates)

    def __contains__(self, day: date) -> bool:
        return day in self._index

    def date_at(self, idx: int) -> date:
        return self.dates[idx]

    def index_of(self, day: date) -> int:
        """Exact index of a trading date; DataError when not in the calendar."""
        try:
            return self._index[day]
        except KeyError:
            raise DataError(f"{day} is not a trading day in this calendar") from None

    def position(self, day: date) -> int:
        """Virtual index: count of trading days strictly before `day`.

        For a trading date this equals index_of; for other dates it is the
        index of the next trading day on/after, or len(self) past the end.
        """
        return bisect_left(self.dates, day)


def assign_trading_index(
    ts_utc: datetime,
    calendar: TradingCalendar,
    exchange_tz: str = DEFAULT_EXCHANGE_TZ,
) -> int | None:
    """Index of the trading day whose close a UTC timestamp precedes; None after
    the final close, or before the first day, where the previous close is unknown."""
    local = ts_utc.astimezone(ZoneInfo(exchange_tz))
    candidate = local.date()
    if local.time() > MARKET_CLOSE:  # 16:00:00 sharp still belongs to the closing day
        candidate = candidate + timedelta(days=1)
    if candidate < calendar.dates[0]:
        return None
    idx = calendar.position(candidate)
    if idx >= len(calendar):
        return None
    return idx


def close_instants(days: Sequence[date], exchange_tz: str = DEFAULT_EXCHANGE_TZ) -> list[datetime]:
    """UTC instants of the 16:00 closes that bound each trading day's window.

    Element 0 is the close of the calendar day before days[0], element i+1
    the close of days[i]: day i owns the window (closes[i], closes[i+1]].
    """
    zone = ZoneInfo(exchange_tz)
    days = (days[0] - timedelta(days=1), *days)
    return [datetime.combine(day, MARKET_CLOSE, zone).astimezone(timezone.utc) for day in days]


def assign_trading_indices(
    stamps_us, calendar: TradingCalendar, exchange_tz: str = DEFAULT_EXCHANGE_TZ
) -> np.ndarray:
    """assign_trading_index over UTC epoch-microsecond stamps, with -1 for None."""
    edges = np.array([epoch_us(c) for c in close_instants(calendar.dates, exchange_tz)])
    idx = np.searchsorted(edges, np.asarray(stamps_us, dtype=np.int64), side="left") - 1
    idx[idx >= len(calendar)] = -1
    return idx
