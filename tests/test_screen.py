"""Detect's screen: each event's events.csv fate, against a golden run and a row-loop oracle.

fate_run writes a small hand-built classified.csv, market index and
confound calendars and runs run_detect on them. Its events reach every
fate that events.csv can record, and the three files it writes are
pinned byte for byte below.
"""

from bisect import bisect_left
from dataclasses import replace
from datetime import date, timedelta

from conftest import confound_columns
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esgrisk.detect import DetectionConfig, RiskEvent, exclude_confounded
from esgrisk.ingest import EventKind
from esgrisk.pipeline import run_config_from_dict, run_detect
from esgrisk.sentiment import Sign
from esgrisk.taxonomy import Node
from esgrisk.trading import TradingCalendar

FATE_DAYS = [d for d in (date(2020, 1, 1) + timedelta(days=k) for k in range(56)) if d.weekday() < 5]
# firm, label, then (calendar index, sentiment) of each 30-message spike
FATE_SPIKES = [
    ("A", "ClimateChange", [(14, -0.5), (26, 0.5)]),  # kept, then positive_sign
    ("B", "ESG_ALL", [(15, -0.4), (30, -0.4)]),  # confounded_earnings +2, then confounded_controversy -3
    ("C", "HumanCapital", [(16, 0.6)]),  # positive, yet confounded_earnings +1
    ("D", "ESG_ALL", [(20, -0.3)]),  # controversy -2 and earnings +2: the earlier one wins
    ("E", "ESG_ALL", [(21, -0.3)]),  # earnings and controversy both +3: earnings, read first
    ("F", "ESG_ALL", [(18, -0.3)]),  # a Monday; the Saturday before counts as distance 0
    ("G", "ESG_ALL", [(22, -0.3)]),  # a Friday; the Saturday after counts as distance +1
    ("H", "Social", [(12, -0.3)]),  # earnings at +5, the window's edge
]
FATE_EARNINGS = [("A", 32), ("B", 17), ("C", 17), ("D", 22), ("E", 24), ("H", 17), ("Z", 20)]
FATE_CONTROVERSY = [("B", 27), ("D", 18), ("E", 24), ("A", 36)]
# confound rows dated off the calendar: (firm, date)
FATE_WEEKEND = {"earnings": [("G", date(2020, 2, 1))], "controversy": [("F", date(2020, 1, 25))]}


def fate_run(outdir):
    """Write the fate corpus under `outdir` and run detect on it with a 10-day window."""
    outdir.mkdir(parents=True, exist_ok=True)
    lines = ["id,firm,timestamp,nodes,terms,score"]
    for firm, label, spikes in FATE_SPIKES:
        spike = dict(spikes)
        for t, day in enumerate(FATE_DAYS):
            stamp = f"{day.isoformat()}T15:00:00Z"
            labeled = [(label, spike[t])] * 30 if t in spike else [(label, 0.0)] * (2 + t % 2)
            for k, (nodes, score) in enumerate(labeled + [("", 0.0)] * 5):
                lines.append(f"{firm}-{t}-{k},{firm},{stamp},{nodes},,{score}")
    (outdir / "classified.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    index = ["date,return"] + [f"{day.isoformat()},0.001" for day in FATE_DAYS]
    (outdir / "market_index.csv").write_text("\n".join(index) + "\n", encoding="utf-8")
    for kind, rows in (("earnings", FATE_EARNINGS), ("controversy", FATE_CONTROVERSY)):
        cells = [(firm, FATE_DAYS[t]) for firm, t in rows] + FATE_WEEKEND[kind]
        text = "firm,date\n" + "".join(f"{firm},{day.isoformat()}\n" for firm, day in cells)
        (outdir / f"{kind}.csv").write_text(text, encoding="utf-8")
    paths = {name: str(outdir / f"{name}.csv")
             for name in ("classified", "market_index", "earnings", "controversy")}
    cfg = run_config_from_dict({"paths": {**paths, "outdir": str(outdir)},
                                "detection": {"window_len": 10}})
    return run_detect(cfg)


# recorded from the record-loop screen that carried no fate on its events
FATE_EVENTS_CSV = (
    "firm,node,date,count,share,sentiment_score,sign,kept,removal_reason,distance_to_confound\n"
    "A,ESG_ALL,2020-01-21,30,0.8571428571428571,-0.5,negative,true,,\n"
    "A,ESG_ALL,2020-02-06,30,0.8571428571428571,0.5,positive,false,positive_sign,\n"
    "A,Environment,2020-01-21,30,0.8571428571428571,-0.5,negative,true,,\n"
    "A,Environment,2020-02-06,30,0.8571428571428571,0.5,positive,false,positive_sign,\n"
    "A,ClimateChange,2020-01-21,30,0.8571428571428571,-0.5,negative,true,,\n"
    "A,ClimateChange,2020-02-06,30,0.8571428571428571,0.5,positive,false,positive_sign,\n"
    "B,ESG_ALL,2020-01-22,30,0.8571428571428571,-0.4000000000000002,negative,false,confounded_earnings,2\n"
    "B,ESG_ALL,2020-02-12,30,0.8571428571428571,-0.4000000000000002,negative,false,confounded_controversy,-3\n"
    "C,ESG_ALL,2020-01-23,30,0.8571428571428571,0.6,positive,false,confounded_earnings,1\n"
    "C,Social,2020-01-23,30,0.8571428571428571,0.6,positive,false,confounded_earnings,1\n"
    "C,HumanCapital,2020-01-23,30,0.8571428571428571,0.6,positive,false,confounded_earnings,1\n"
    "D,ESG_ALL,2020-01-29,30,0.8571428571428571,-0.3,negative,false,confounded_controversy,-2\n"
    "E,ESG_ALL,2020-01-30,30,0.8571428571428571,-0.3,negative,false,confounded_earnings,3\n"
    "F,ESG_ALL,2020-01-27,30,0.8571428571428571,-0.3,negative,false,confounded_controversy,0\n"
    "G,ESG_ALL,2020-01-31,30,0.8571428571428571,-0.3,negative,false,confounded_earnings,1\n"
    "H,ESG_ALL,2020-01-17,30,0.8571428571428571,-0.3,negative,false,confounded_earnings,5\n"
    "H,Social,2020-01-17,30,0.8571428571428571,-0.3,negative,false,confounded_earnings,5\n"
)
FATE_COUNTS_CSV = (
    "node,count\n"
    "ESG_ALL,1\n"
    "Environment,1\n"
    "ClimateChange,1\n"
    "NaturalCapital,0\n"
    "PollutionAndWaste,0\n"
    "EnvironmentalOpportunities,0\n"
    "Social,0\n"
    "HumanCapital,0\n"
    "ProductLiability,0\n"
    "StakeholderOpposition,0\n"
    "SocialOpportunities,0\n"
    "Governance,0\n"
    "CorporateGovernance,0\n"
    "CorporateBehavior,0\n"
)
FATE_HISTOGRAM_CSV = (
    "distance,count\n"
    "-5,0\n"
    "-4,0\n"
    "-3,1\n"
    "-2,1\n"
    "-1,0\n"
    "0,1\n"
    "1,4\n"
    "2,1\n"
    "3,1\n"
    "4,0\n"
    "5,2\n"
)


def test_every_fate_matches_golden(tmp_path):
    out = fate_run(tmp_path)
    # csv.writer ends each events.csv row with CRLF
    assert (tmp_path / "events.csv").read_bytes() == FATE_EVENTS_CSV.replace("\n", "\r\n").encode()
    assert (tmp_path / "event_counts.csv").read_text(encoding="utf-8") == FATE_COUNTS_CSV
    assert (tmp_path / "removal_histogram.csv").read_text(encoding="utf-8") == FATE_HISTOGRAM_CSV
    assert out.kept == [e for e in out.detected if not e.removal_reason]
    assert out.positives == [e for e in out.detected if e.removal_reason == "positive_sign"]
    assert out.removed == [e for e in out.detected if e.distance_to_confound is not None]
    assert all(e.removal_reason.startswith("confounded_") for e in out.removed)


def oracle_exclude_confounded(events, confounds, calendar, config):
    """The former exclude_confounded, with the former sign split: one (firm, date,
    kind) record per confound row, placed by bisect over the calendar's dates.

    Returns (kept, removed) as lists of (event, removal_reason, distance).
    """
    by_firm = {}
    for firm, day, kind in confounds:
        by_firm.setdefault(firm, []).append((bisect_left(calendar.dates, day), kind))
    kept, removed = [], []
    for event in events:
        nearby = []
        for pos, kind in by_firm.get(event.firm, ()):
            distance = pos - event.day_index
            if abs(distance) <= config.exclusion_halfwidth:
                nearby.append((distance, kind))
        if not nearby:
            kept.append((event, "positive_sign" if event.sign is Sign.POSITIVE else "", None))
            continue
        distance, kind = min(nearby, key=lambda item: (abs(item[0]), item[0]))
        removed.append((event, f"confounded_{kind.name.lower()}", distance))
    return kept, removed


def fates(events):
    return [(replace(e, removal_reason="", distance_to_confound=None), e.removal_reason,
             e.distance_to_confound) for e in events]


FIRMS = st.sampled_from("ABC")


@settings(max_examples=300, deadline=None)
@given(
    gaps=st.lists(st.integers(1, 4), min_size=1, max_size=25),
    picks=st.lists(st.tuples(FIRMS, st.integers(0, 10**6), st.booleans()), max_size=12),
    # confound dates as day offsets from the first trading day: on, between and outside the calendar
    earnings=st.lists(st.tuples(FIRMS, st.integers(-8, 110)), max_size=10),
    controversy=st.lists(st.tuples(FIRMS, st.integers(-8, 110)), max_size=10),
    halfwidth=st.integers(0, 6),
)
@example(  # a positive event between a -2/+2 pair, and a +2 tie across the two calendars
    gaps=[1] * 10, picks=[("A", 5, True)], earnings=[("A", 7)], controversy=[("A", 3), ("A", 7)],
    halfwidth=2,
)
def test_screen_matches_record_loop_oracle(gaps, picks, earnings, controversy, halfwidth):
    dates = [date(2020, 1, 1) + timedelta(days=sum(gaps[:k])) for k in range(len(gaps))]
    calendar = TradingCalendar(dates)
    events = [
        RiskEvent(firm=firm, node=Node.CLIMATE_CHANGE, day=dates[i % len(dates)],
                  day_index=i % len(dates), count=20, share=0.5, score=0.3 if positive else -0.3,
                  sign=Sign.POSITIVE if positive else Sign.NEGATIVE,
                  merged_outlier_days=(dates[i % len(dates)],))
        for firm, i, positive in picks
    ]
    # each calendar sorted by (firm, date), as read_calendar_events gives it; earnings first
    rows = {kind: sorted((firm, dates[0] + timedelta(days=d)) for firm, d in cells)
            for kind, cells in ((EventKind.EARNINGS, earnings), (EventKind.CONTROVERSY, controversy))}
    columns = [confound_columns(kind, *r) for kind, r in rows.items()]
    records = [(firm, day, kind) for kind, r in rows.items() for firm, day in r]
    config = DetectionConfig(exclusion_halfwidth=halfwidth)

    unconfounded, removed = exclude_confounded(events, columns, calendar, config)
    kept, oracle_removed = oracle_exclude_confounded(events, records, calendar, config)
    assert fates(unconfounded) == kept
    assert fates(removed) == oracle_removed
