from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import confound_columns, naive_esd

import esgrisk.detect as detect
from esgrisk.aggregate import SeriesStack
from esgrisk.detect import (
    DetectionConfig,
    RiskEvent,
    esd_outliers,
    exclude_confounded,
    filter_and_merge,
)
from esgrisk.errors import ConfigError, NumericError
from esgrisk.ingest import EventKind
from esgrisk.sentiment import Sign, classify_sign
from esgrisk.taxonomy import REPORT_ORDER, Node, node_sort_key
from esgrisk.trading import TradingCalendar


def weekday_calendar(n, start=date(2018, 1, 1)):
    days, d = [], start
    while len(days) < n:
        if d.weekday() < 5:
            days.append(d)
        d += timedelta(days=1)
    return TradingCalendar(days)


ROW = node_sort_key(Node.CLIMATE_CHANGE)  # the series row of series_for's stack


def series_for(counts, scores=None, totals=None):
    """One-firm stack ("A") whose ClimateChange row holds `counts`; every
    message scores -0.5 unless `scores` gives the day sums."""
    counts = np.asarray(counts, dtype=np.int64)
    stack = np.zeros((len(REPORT_ORDER), len(counts)), dtype=np.int64)
    stack[ROW] = counts
    sums = np.zeros(stack.shape)
    sums[ROW] = -0.5 * counts if scores is None else scores
    totals = counts if totals is None else totals
    return SeriesStack(stack, sums, np.asarray(totals, dtype=np.int64)[None, :])


def merge(days, stack, cal, config, **kwargs):
    """filter_and_merge over days of series_for's row, given as flat indices."""
    flat = [ROW * stack.counts.shape[1] + t for t in days]
    return filter_and_merge(flat, stack, ["A"], cal, config, **kwargs)


def test_esd_alternating_window_fixture():
    # trailing window [4,6,4,6,...] of 250 obs: mean 5, sample std ~1.002;
    # a count of 10 deviates by 5 >= 2 * 1.002
    counts = [4, 6] * 125 + [10]
    got = esd_outliers(counts, DetectionConfig())
    assert list(got) == [250]
    window = np.array([4.0, 6.0] * 125)
    assert np.std(window, ddof=1) == pytest.approx(1.002006020070253)


def test_esd_value_at_mean_is_not_outlier():
    counts = [4, 6] * 125 + [5]
    assert list(esd_outliers(counts, DetectionConfig())) == []


def test_esd_constant_window_never_flags():
    counts = [5] * 250 + [50]
    assert list(esd_outliers(counts, DetectionConfig())) == []


def test_esd_needs_complete_window():
    counts = [4, 6] * 100 + [10]  # only 200 days of history
    assert list(esd_outliers(counts, DetectionConfig())) == []
    assert list(esd_outliers([], DetectionConfig())) == []


def test_esd_spikes_only_by_default():
    counts = [4, 6] * 125 + [0]  # a dip of 5, same magnitude as the spike
    assert list(esd_outliers(counts, DetectionConfig())) == []
    two_sided = DetectionConfig(two_sided=True)
    assert list(esd_outliers(counts, two_sided)) == [250]


def test_esd_matches_naive_recomputation():
    rng = np.random.default_rng(101)
    for _ in range(50):
        n = int(rng.integers(260, 400))
        lam = float(rng.uniform(1.0, 15.0))
        counts = rng.poisson(lam, n)
        # sprinkle spikes so hits actually occur
        for t in rng.integers(250, n, 4):
            counts[t] += int(rng.integers(5, 40))
        for config in (DetectionConfig(), DetectionConfig(two_sided=True), DetectionConfig(z=3.0)):
            assert list(esd_outliers(counts, config)) == naive_esd(counts, config)


@st.composite
def esd_stacks(draw):
    """A (series x days) count stack and a config, mixing the kernel's edge cases.

    Rows are random counts, all zeros, a constant window before one free
    day, 0/1 counts, counts near 1e8 (past the int64 bound once window_len
    is 32), or a window of standard deviation k whose next day deviates by
    exactly z*k. Stacks may be shorter than the window, or hold no rows.
    """
    window_len = draw(st.sampled_from([2, 3, 5, 32]))
    config = DetectionConfig(
        z=draw(st.sampled_from([2.0, 2.5, 3.0])), window_len=window_len, two_sided=draw(st.booleans())
    )
    n = draw(st.integers(0, window_len + 12))
    kinds = ["counts", "zeros", "constant", "binary", "big"]
    if window_len in (3, 5) and n > window_len:
        kinds.append("tie")
    rows = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=5)):
        if kind == "zeros":
            row = [0] * n
        elif kind == "constant":
            row = [draw(st.integers(0, 50))] * (n - 1) + [draw(st.integers(0, 99))] * (n > 0)
        elif kind == "tie":
            # mean c+k, sample std k in both patterns; 2.5*k is whole since k is even
            k = 2 * draw(st.integers(1, 10))
            c = draw(st.integers(0, 40)) + 3 * k
            pattern = [0, 1, 2] if window_len == 3 else [0, 0, 1, 2, 2]
            last = c + k + draw(st.sampled_from([1, -1])) * int(config.z * k)
            head = draw(st.lists(st.integers(0, 30), min_size=n - window_len - 1, max_size=n - window_len - 1))
            row = head + [c + p * k for p in pattern] + [last]
        else:
            low, high = {"counts": (0, 30), "binary": (0, 1), "big": (10**8 - 50, 10**8 + 50)}[kind]
            row = draw(st.lists(st.integers(low, high), min_size=n, max_size=n))
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(len(rows), n), config


@settings(max_examples=300, deadline=None)
@given(case=esd_stacks())
def test_stacked_esd_matches_naive_per_row(case):
    stack, config = case
    n = stack.shape[1]
    got = esd_outliers(stack, config).tolist()
    assert got == [i * n + t for i, row in enumerate(stack) for t in naive_esd(row, config)]
    by_row = [esd_outliers(row, config).tolist() for row in stack]
    assert got == [i * n + t for i, days in enumerate(by_row) for t in days]


def test_stacked_esd_spans_row_blocks(monkeypatch):
    # three rows per block, so hits from every block must land on their own rows
    rng = np.random.default_rng(7)
    stack = rng.poisson(4.0, (10, 40))
    stack[:, 30] += 15
    config = DetectionConfig(window_len=20)
    monkeypatch.setattr(detect, "_BLOCK_CELLS", 3 * 40)
    got = esd_outliers(stack, config)
    assert got.tolist() == [i * 40 + t for i, row in enumerate(stack) for t in naive_esd(row, config)]
    assert len(got) >= 10


def test_esd_monotone_in_z():
    rng = np.random.default_rng(13)
    for _ in range(20):
        counts = rng.poisson(6.0, 320)
        counts[rng.integers(250, 320, 3)] += 25
        loose = set(esd_outliers(counts, DetectionConfig(z=2.0)).tolist())
        tight = set(esd_outliers(counts, DetectionConfig(z=3.0)).tolist())
        assert tight <= loose


def test_detection_config_validation():
    DetectionConfig().validate()
    with pytest.raises(ConfigError):
        DetectionConfig(z=0).validate()
    with pytest.raises(ConfigError):
        DetectionConfig(min_share=1.5).validate()
    with pytest.raises(ConfigError):
        DetectionConfig(window_len=0).validate()
    for z in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="finite"):
            DetectionConfig(z=z).validate()


def merge_fixture(outlier_days, n=300):
    """Series with huge counts on the given days over a quiet background."""
    counts = np.full(n, 5, dtype=np.int64)
    for t in outlier_days:
        counts[t] = 60
    return series_for(counts)


def test_filter_drops_small_counts():
    cal = weekday_calendar(300)
    series = merge_fixture([260])
    series.counts[ROW, 260] = 8  # below min_tweets
    assert merge([260], series, cal, DetectionConfig()) == []


def test_filter_drops_low_share():
    cal = weekday_calendar(300)
    counts = np.full(300, 5, dtype=np.int64)
    counts[260] = 12
    totals = counts.copy()
    totals[260] = 500  # the firm posted heavily; 12/500 is below 5%
    series = series_for(counts, totals=totals)
    assert merge([260], series, cal, DetectionConfig()) == []


def test_merge_within_gap():
    cal = weekday_calendar(300)
    series = merge_fixture([260, 263])
    events = merge([260, 263], series, cal, DetectionConfig())
    assert len(events) == 1
    ev = events[0]
    assert (ev.firm, ev.node) == ("A", Node.CLIMATE_CHANGE)
    assert ev.day == cal.dates[260]
    assert ev.day_index == 260
    assert ev.merged_outlier_days == (cal.dates[260], cal.dates[263])


def test_no_merge_beyond_gap():
    cal = weekday_calendar(300)
    series = merge_fixture([260, 266])
    events = merge([260, 266], series, cal, DetectionConfig())
    assert [e.day_index for e in events] == [260, 266]


def test_merge_chain_extends_from_anchor_only():
    # outliers at t, t+4, t+8: the second merges into t, the third is 8 > 5
    # days past the anchor and opens a new event
    cal = weekday_calendar(300)
    series = merge_fixture([260, 264, 268])
    events = merge([260, 264, 268], series, cal, DetectionConfig())
    assert [e.day_index for e in events] == [260, 268]
    assert len(events[0].merged_outlier_days) == 2


def test_final_events_are_gap_separated():
    rng = np.random.default_rng(31)
    cal = weekday_calendar(400)
    config = DetectionConfig()
    for _ in range(20):
        days = sorted(set(rng.integers(250, 395, 12).tolist()))
        series = merge_fixture(days, n=400)
        events = merge(days, series, cal, config)
        indices = [e.day_index for e in events]
        assert all(b - a > config.gap_days for a, b in zip(indices, indices[1:]))


@settings(max_examples=200, deadline=None)
@given(
    strong=st.lists(st.integers(0, 119), unique=True, max_size=30),
    weak=st.lists(st.integers(0, 119), unique=True, max_size=10),
    gap_days=st.integers(0, 8),
)
def test_merged_events_are_gap_separated_and_hold_their_days(strong, weak, gap_days):
    # strong days pass the size and share filters, weak days (background
    # counts) do not; outliers arrive unsorted
    weak = [t for t in weak if t not in strong]
    cal = weekday_calendar(120)
    config = DetectionConfig(gap_days=gap_days)
    events = merge(strong + weak, merge_fixture(strong, n=120), cal, config)
    indices = [e.day_index for e in events]
    assert all(b - a > gap_days for a, b in zip(indices, indices[1:]))
    merged = []
    for event in events:
        assert event.merged_outlier_days[0] == event.day
        for day in event.merged_outlier_days:
            assert 0 <= cal.index_of(day) - event.day_index <= gap_days
            merged.append(cal.index_of(day))
    assert merged == sorted(strong)


def test_event_sign_comes_from_event_day_sentiment():
    cal = weekday_calendar(300)
    counts = np.full(300, 5, dtype=np.int64)
    counts[260] = 60
    senti = np.zeros(300)
    senti[260] = 60 * 0.3  # mean score 0.3 on the event day
    series = series_for(counts, scores=senti)
    events = merge([260], series, cal, DetectionConfig())
    assert events[0].sign is Sign.POSITIVE
    assert events[0].score == pytest.approx(0.3)
    # threshold above the day score flips it to negative
    events = merge([260], series, cal, DetectionConfig(), sign_threshold=0.4)
    assert events[0].sign is Sign.NEGATIVE


def test_missing_sentiment_on_event_day_is_fatal():
    # artificial: both filters disabled so a zero-count day reaches merging,
    # where the missing day sentiment must be treated as corruption
    cal = weekday_calendar(300)
    counts = np.zeros(300, dtype=np.int64)
    series = series_for(counts, totals=np.ones(300, dtype=np.int64))
    config = DetectionConfig(min_tweets=0, min_share=0.0)
    with pytest.raises(NumericError):
        merge([260], series, cal, config)


def test_share_is_zero_without_firm_messages():
    # artificial: totals of 0 under a non-zero count give share 0.0, which
    # only a min_share of 0 lets through
    cal = weekday_calendar(300)
    series = merge_fixture([260])
    series.totals[0, 260] = 0
    assert merge([260], series, cal, DetectionConfig()) == []
    (event,) = merge([260], series, cal, DetectionConfig(min_share=0.0))
    assert event.share == 0.0 and event.count == 60


def row_events(r, days, stack, firms, cal, config):
    """The per-series rule on row r alone: filter its outlier days in order,
    then fold each into the open event or open the next one."""
    n = len(REPORT_ORDER)
    counts, sums, totals = stack.counts[r], stack.sums[r], stack.totals[r // n]
    groups = []
    for t in sorted(days):
        share = counts[t] / totals[t] if totals[t] else 0.0
        if counts[t] < config.min_tweets or share < config.min_share:
            continue
        if groups and t - groups[-1][0] <= config.gap_days:
            groups[-1].append(t)
        else:
            groups.append([t])
    events = []
    for first, *rest in groups:
        score = float(sums[first] / counts[first])
        events.append(RiskEvent(
            firm=firms[r // n], node=REPORT_ORDER[r % n], day=cal.dates[first],
            day_index=first, count=int(counts[first]),
            share=float(counts[first] / totals[first]), score=score, sign=classify_sign(score),
            merged_outlier_days=tuple(cal.dates[t] for t in (first, *rest)),
        ))
    return events


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_firms=st.integers(1, 3),
    n_days=st.integers(2, 12),
    gap_days=st.integers(0, 4),
    min_tweets=st.integers(1, 15),
    min_share=st.sampled_from([0.0, 0.05, 0.3]),
)
def test_stack_merge_equals_per_row_runs(seed, n_firms, n_days, gap_days, min_tweets, min_share):
    rng = np.random.default_rng(seed)
    n = len(REPORT_ORDER)
    counts = rng.integers(0, 20, (n_firms * n, n_days))
    # the last two days of each row and the first two of the next lie within
    # gap_days of each other as flat indices, and all pass the filters
    edges = np.arange(n_firms * n)[:, None] * n_days + [0, 1, n_days - 2, n_days - 1]
    counts.flat[edges] = 60
    sums = np.round(rng.uniform(-1, 1, counts.shape), 2) * counts
    totals = counts.reshape(n_firms, n, n_days).max(axis=1) + rng.integers(0, 20, (n_firms, n_days))
    stack = SeriesStack(counts, sums, totals)
    picked = rng.random(counts.size) < 0.3
    picked[edges.ravel()] = True
    outliers = rng.permutation(np.flatnonzero(picked))  # unsorted
    firms, cal = ["b", "a", "c"][:n_firms], weekday_calendar(n_days)
    config = DetectionConfig(gap_days=gap_days, min_tweets=min_tweets, min_share=min_share)

    events = filter_and_merge(outliers, stack, firms, cal, config)
    by_row = [
        row_events(r, [i % n_days for i in outliers if i // n_days == r], stack, firms, cal, config)
        for r in range(len(counts))
    ]
    assert events == [event for row in by_row for event in row]
    # each row opens its own event on day 0, however close the row before ended
    assert sum(e.day_index == 0 for e in events) == len(counts)


def make_event(cal, day_index, firm="A", sign=Sign.NEGATIVE):
    return RiskEvent(
        firm=firm, node=Node.CLIMATE_CHANGE, day=cal.dates[day_index],
        day_index=day_index, count=60, share=0.9, score=-0.5, sign=sign,
        merged_outlier_days=(cal.dates[day_index],),
    )


def test_exclusion_distance_example():
    # trading days around 2020-03-10; earnings two trading days later
    cal = TradingCalendar([date(2020, 3, d) for d in (9, 10, 11, 12, 13)])
    event = RiskEvent(
        firm="A", node=Node.CLIMATE_CHANGE, day=date(2020, 3, 10), day_index=1,
        count=60, share=0.9, score=-0.5, sign=Sign.NEGATIVE,
        merged_outlier_days=(date(2020, 3, 10),),
    )
    confound = confound_columns(EventKind.EARNINGS, ("A", date(2020, 3, 12)))
    kept, removed = exclude_confounded([event], [confound], cal, DetectionConfig())
    assert kept == []
    assert removed == [replace(event, removal_reason="confounded_earnings", distance_to_confound=2)]


def test_exclusion_outside_window_keeps_event():
    cal = weekday_calendar(40)
    event = make_event(cal, 10)
    confound = confound_columns(EventKind.CONTROVERSY, ("A", cal.dates[17]))
    kept, removed = exclude_confounded([event], [confound], cal, DetectionConfig())
    assert kept == [event] and removed == []


def test_exclusion_ignores_other_firms():
    cal = weekday_calendar(40)
    event = make_event(cal, 10, firm="A")
    confound = confound_columns(EventKind.EARNINGS, ("B", cal.dates[10]))
    kept, removed = exclude_confounded([event], [confound], cal, DetectionConfig())
    assert kept == [event] and removed == []


def test_exclusion_no_confounds_keeps_all():
    cal = weekday_calendar(40)
    events = [make_event(cal, 10), make_event(cal, 20)]
    kept, removed = exclude_confounded(events, [], cal, DetectionConfig())
    assert kept == events and removed == []


def test_exclusion_picks_nearest_confound():
    cal = weekday_calendar(40)
    event = make_event(cal, 10)
    confounds = [
        confound_columns(EventKind.EARNINGS, ("A", cal.dates[14])),
        confound_columns(EventKind.CONTROVERSY, ("A", cal.dates[9])),
    ]
    _, removed = exclude_confounded([event], confounds, cal, DetectionConfig())
    assert removed[0].distance_to_confound == -1
    assert removed[0].removal_reason == "confounded_controversy"


def test_exclusion_non_trading_confound_counts_from_next_trading_day():
    # calendar skips weekends; a Saturday confound acts like Monday
    cal = weekday_calendar(10, start=date(2020, 3, 2))
    event = make_event(cal, 4)  # Fri 2020-03-06
    saturday = date(2020, 3, 7)
    confound = confound_columns(EventKind.EARNINGS, ("A", saturday))
    _, removed = exclude_confounded([event], [confound], cal, DetectionConfig())
    assert removed[0].distance_to_confound == 1


def test_exclusion_window_grows_monotonically():
    rng = np.random.default_rng(41)
    cal = weekday_calendar(120)
    events = [make_event(cal, int(i)) for i in rng.integers(10, 110, 15)]
    confounds = [
        confound_columns(EventKind.EARNINGS, *(("A", cal.dates[int(i)]) for i in rng.integers(0, 120, 6)))
    ]
    removed_keys_prev: set = set()
    for halfwidth in (1, 3, 5, 9):
        config = DetectionConfig(exclusion_halfwidth=halfwidth)
        _, removed = exclude_confounded(events, confounds, cal, config)
        keys = {(e.firm, e.day_index) for e in removed}
        assert removed_keys_prev <= keys
        removed_keys_prev = keys


def test_select_risk_events():
    # the risk events are the unconfounded ones of negative sign: an empty removal_reason
    cal = weekday_calendar(40)
    neg1 = make_event(cal, 10)
    pos = make_event(cal, 15, sign=Sign.POSITIVE)
    neg2 = make_event(cal, 22)
    config = DetectionConfig()
    unconfounded, removed = exclude_confounded([neg1, pos, neg2], [], cal, config)
    assert unconfounded == [neg1, replace(pos, removal_reason="positive_sign"), neg2] and removed == []
    assert [e for e in unconfounded if not e.removal_reason] == [neg1, neg2]
    assert exclude_confounded([], [], cal, config) == ([], [])
    assert exclude_confounded([pos], [], cal, config) == ([replace(pos, removal_reason="positive_sign")], [])
