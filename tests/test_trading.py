import random
from bisect import bisect_left
from datetime import date, datetime, time, timedelta, timezone
from itertools import accumulate
from zoneinfo import ZoneInfo

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esgrisk.errors import DataError
from esgrisk.trading import (
    TradingCalendar,
    assign_trading_index,
    assign_trading_indices,
    close_instants,
    epoch_us,
)

NY = ZoneInfo("America/New_York")

# Mon 2020-03-02 .. Fri 2020-03-13, weekdays only (covers the US DST switch
# on 2020-03-08)
DAYS = [
    date(2020, 3, 2), date(2020, 3, 3), date(2020, 3, 4), date(2020, 3, 5),
    date(2020, 3, 6), date(2020, 3, 9), date(2020, 3, 10), date(2020, 3, 11),
    date(2020, 3, 12), date(2020, 3, 13),
]


def cal():
    return TradingCalendar(DAYS)


def ny(y, m, d, hh, mm, ss=0):
    return datetime(y, m, d, hh, mm, ss, tzinfo=NY).astimezone(timezone.utc)


def assign_day(ts_utc, calendar, *exchange_tz):
    """The trading date a timestamp is assigned to, None when it is not assigned."""
    idx = assign_trading_index(ts_utc, calendar, *exchange_tz)
    return None if idx is None else calendar.dates[idx]


def test_calendar_requires_increasing_dates():
    with pytest.raises(DataError):
        TradingCalendar([date(2020, 3, 3), date(2020, 3, 2)])
    with pytest.raises(DataError):
        TradingCalendar([])


def test_calendar_lookup():
    c = cal()
    assert len(c) == 10
    assert c.dates[0] == date(2020, 3, 2)
    assert c.index_of(date(2020, 3, 10)) == 6
    assert date(2020, 3, 10) in c
    assert date(2020, 3, 7) not in c
    with pytest.raises(DataError):
        c.index_of(date(2020, 3, 7))


def test_position_of_non_trading_date_is_next_trading_day():
    c = cal()
    # Saturday 2020-03-07 sits between index 4 (Fri) and 5 (Mon)
    saturday, monday = date(2020, 3, 7).toordinal(), date(2020, 3, 9).toordinal()
    assert c.position(saturday) == c.position(monday) == 5
    assert c.position([saturday, monday]).tolist() == [5, 5]
    # dates outside the calendar clamp to its ends
    before, after = date(2020, 1, 1).toordinal(), date(2021, 1, 1).toordinal()
    assert c.position([before, after]).tolist() == [0, len(c)]


@settings(max_examples=300, deadline=None)
@given(gaps=st.lists(st.integers(1, 5), min_size=1, max_size=30),
       probes=st.lists(st.integers(-3, 160), max_size=40))
def test_calendar_lookups_match_dict_and_bisect(gaps, probes):
    """lookup, index_of, `in` and position against a dict and bisect, on and off a calendar with gaps."""
    ordinals = list(accumulate(gaps, initial=date(2020, 1, 1).toordinal()))[1:]
    c = TradingCalendar([date.fromordinal(o) for o in ordinals])
    index = {o: i for i, o in enumerate(ordinals)}
    probe = [ordinals[0] + p for p in probes]  # before, on, between and after its days
    assert c.lookup(probe).tolist() == [index.get(o, -1) for o in probe]
    assert c.position(probe).tolist() == [bisect_left(ordinals, o) for o in probe]
    for o in probe:
        day = date.fromordinal(o)
        assert (day in c) == (o in index)
        assert c.position(o) == bisect_left(ordinals, o)
        if o in index:
            assert c.index_of(day) == index[o]
        else:
            with pytest.raises(DataError, match=f"^{day} is not a trading day in this calendar$"):
                c.index_of(day)


def test_assign_before_close_is_same_day():
    assert assign_day(ny(2020, 3, 10, 15, 59), cal()) == date(2020, 3, 10)


def test_assign_at_close_is_same_day():
    # 16:00:00 sharp still belongs to the closing day
    assert assign_day(ny(2020, 3, 10, 16, 0, 0), cal()) == date(2020, 3, 10)


def test_assign_after_close_rolls_forward():
    assert assign_day(ny(2020, 3, 10, 16, 0, 1), cal()) == date(2020, 3, 11)
    assert assign_day(ny(2020, 3, 10, 23, 30), cal()) == date(2020, 3, 11)


def test_assign_weekend_rolls_to_monday():
    assert assign_day(ny(2020, 3, 7, 10, 0), cal()) == date(2020, 3, 9)


def test_assign_out_of_range_is_dropped():
    c = cal()
    # before the first calendar day
    assert assign_day(ny(2020, 2, 28, 10, 0), c) is None
    # after the last close
    assert assign_day(ny(2020, 3, 13, 16, 0, 1), c) is None
    assert assign_day(ny(2020, 3, 14, 9, 0), c) is None


def test_assign_respects_exchange_timezone():
    c = cal()
    # 20:00 UTC on 2020-03-10 is 16:00 EDT: still the same trading day
    ts = datetime(2020, 3, 10, 20, 0, tzinfo=timezone.utc)
    assert assign_day(ts, c, "America/New_York") == date(2020, 3, 10)
    # but one second later rolls over
    ts2 = datetime(2020, 3, 10, 20, 0, 1, tzinfo=timezone.utc)
    assert assign_day(ts2, c, "America/New_York") == date(2020, 3, 11)


def test_assignment_is_monotone_in_time():
    c = cal()
    rng = random.Random(17)
    start = datetime(2020, 3, 2, 0, 0, tzinfo=timezone.utc)
    stamps = sorted(
        start + timedelta(seconds=rng.randrange(11 * 24 * 3600)) for _ in range(300)
    )
    indices = [assign_trading_index(ts, c) for ts in stamps]
    kept = [i for i in indices if i is not None]
    assert kept == sorted(kept)


# Weekdays of 2020 from late February to mid November: both US DST switches
# (03-08, 11-01) and both EU ones (03-29, 10-25) fall inside.
YEAR_DAYS = [
    date(2020, 2, 24) + timedelta(days=i) for i in range(266)
    if (date(2020, 2, 24) + timedelta(days=i)).weekday() < 5
]


@st.composite
def calendars_and_stamps(draw):
    """A calendar with holidays, and stamps at, and 1 µs around, 16:00 closes
    of trading days, weekends, days before day 0 and days after the last close,
    plus stamps anywhere in those days."""
    tz = draw(st.sampled_from(["America/New_York", "Europe/London", "Asia/Tokyo"]))
    start = draw(st.integers(0, len(YEAR_DAYS) - 2))
    stop = draw(st.integers(start + 1, len(YEAR_DAYS)))
    holidays = set()
    if stop - start > 2:
        holidays = draw(st.sets(st.integers(start + 1, stop - 1), max_size=10))
    days = [YEAR_DAYS[i] for i in range(start, stop) if i not in holidays]
    zone = ZoneInfo(tz)
    stamps = []
    for _ in range(draw(st.integers(1, 40))):
        day = days[0] + timedelta(days=draw(st.integers(-4, (days[-1] - days[0]).days + 4)))
        close = datetime.combine(day, time(16, 0), zone).astimezone(timezone.utc)
        offset = draw(st.one_of(
            st.sampled_from([-1, 0, 1]),
            st.integers(-16 * 3600 * 10**6, 8 * 3600 * 10**6),
        ))
        stamps.append(close + timedelta(microseconds=offset))
    return TradingCalendar(days), tz, stamps


@settings(max_examples=200, deadline=None)
@given(calendars_and_stamps())
def test_vectorised_assignment_equals_scalar(case):
    calendar, tz, stamps = case
    got = assign_trading_indices([epoch_us(ts) for ts in stamps], calendar, tz)
    for ts, idx in zip(stamps, got.tolist()):
        expected = assign_trading_index(ts, calendar, tz)
        assert idx == (-1 if expected is None else expected), (ts, tz)


def test_close_instants_bound_every_window():
    closes = close_instants(DAYS)
    assert len(closes) == len(DAYS) + 1
    assert closes[0] == ny(2020, 3, 1, 16, 0)  # the calendar day before day 0
    assert closes[1] == ny(2020, 3, 2, 16, 0)
    # across the DST switch the UTC close moves from 21:00 to 20:00
    assert (closes[5].hour, closes[6].hour) == (21, 20)
    c = cal()
    for i, (lo, hi) in enumerate(zip(closes, closes[1:])):
        assert assign_trading_index(lo, c) == (i - 1 if i else None)
        assert assign_trading_index(lo + timedelta(microseconds=1), c) == i
        assert assign_trading_index(hi, c) == i
