"""Trading calendar and close-to-close day assignment.

The calendar is whatever dates the market index file contains. A message
belongs to trading day d when it was posted after the 4 p.m. exchange
close of the previous trading day and no later than 16:00:00 on d;
weekend and holiday posts roll forward to the next trading day.
"""

from __future__ import annotations

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
    """Strictly increasing trading dates; every index lookup reads one sorted array of their ordinals."""

    def __init__(self, dates: Sequence[date]):
        if not dates:
            raise DataError("trading calendar is empty")
        dates = tuple(dates)
        ordinals = np.fromiter(map(date.toordinal, dates), np.int64, len(dates))
        if (steps := np.flatnonzero(ordinals[1:] <= ordinals[:-1])).size:
            raise DataError(f"calendar dates not strictly increasing at {dates[steps[0] + 1]}")
        self.dates: tuple[date, ...] = dates
        self.ordinals = ordinals

    def __len__(self) -> int:
        return len(self.dates)

    def __contains__(self, day: date) -> bool:
        return self.lookup(day.toordinal()) >= 0

    def lookup(self, ordinals) -> np.ndarray:
        """Index of each date ordinal on the calendar, -1 for one off it."""
        idx = np.searchsorted(self.ordinals, ordinals)
        return np.where(self.ordinals[np.minimum(idx, len(self) - 1)] == ordinals, idx, -1)

    def index_of(self, day: date) -> int:
        """Exact index of a trading date; DataError when not in the calendar."""
        if (idx := int(self.lookup(day.toordinal()))) < 0:
            raise DataError(f"{day} is not a trading day in this calendar")
        return idx

    def position(self, ordinals) -> np.ndarray:
        """Count of trading days strictly before each date ordinal, a scalar or an array.

        A trading date's position is its index, and any other date's is the
        index of the next trading day. Dates outside the calendar clamp: one
        before the first trading day is at 0, one after the last at len(self).
        """
        return np.searchsorted(self.ordinals, ordinals)


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
    idx = int(calendar.position(candidate.toordinal()))
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
