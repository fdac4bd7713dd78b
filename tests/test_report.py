import csv
import io
from datetime import date

import numpy as np

from esgrisk.detect import RiskEvent
from esgrisk.report import (
    fmt_offset,
    fmt_window,
    render_event_counts_csv,
    render_removal_histogram_csv,
    render_results_csv,
    render_results_text,
    render_scaar_curve_csv,
    significance_stars,
)
from esgrisk.sentiment import Sign
from esgrisk.study import EstimationConfig, NodeStudyResult
from esgrisk.taxonomy import REPORT_ORDER, Node


def test_significance_stars_thresholds():
    # two-sided normal p-values: 1.64 -> .101, 1.7 -> .089, 2.1 -> .036,
    # 2.7 -> .0069
    assert significance_stars(None) == ""
    assert significance_stars(1.64) == ""
    assert significance_stars(1.7) == "*"
    assert significance_stars(2.1) == "**"
    assert significance_stars(2.7) == "***"
    assert significance_stars(5.265) == "***"
    assert significance_stars(-2.7) == "***"
    assert significance_stars(0.0) == ""


def test_offset_and_window_formatting():
    assert fmt_offset(0) == "0"
    assert fmt_offset(1) == "+1"
    assert fmt_offset(-1) == "-1"
    assert fmt_window((-1, 1)) == "[-1;+1]"
    assert fmt_window((-1, 0)) == "[-1;0]"


def result_with(node, n, cells, config):
    """A result whose statistics, in report order (SCAAR per window, SAAR
    per offset, then CAAR and AAR alike), are the (value, t) pairs `cells`."""
    keys = [
        (stat, key)
        for stat, group in (
            ("SCAAR", config.event_windows), ("SAAR", config.saar_offsets),
            ("CAAR", config.event_windows), ("AAR", config.saar_offsets),
        )
        for key in group
    ]
    return NodeStudyResult(node=node, n=n, stats=dict(zip(keys, cells, strict=True)))


def result_for(node, value=-0.00289, t=-5.265, n=25):
    config = EstimationConfig()
    half = len(config.event_windows) + len(config.saar_offsets)
    return result_with(node, n, [(value, t)] * half + [(value * 0.02, t)] * half, config)


def test_results_csv_formatting():
    text = render_results_csv([result_for(Node.ESG_ALL)])
    rows = list(csv.DictReader(io.StringIO(text)))
    scaar_rows = [r for r in rows if r["stat"] == "SCAAR"]
    assert [r["window"] for r in scaar_rows] == ["[-1;0]", "[-1;+1]"]
    first = scaar_rows[0]
    assert first["node"] == "ESG_ALL"
    assert first["value"] == "-0.289"  # x 100, three decimals
    assert first["tvalue"] == "-5.265"
    assert first["significance"] == "***"
    assert first["n"] == "25"
    stats = {r["stat"] for r in rows}
    assert stats == {"SCAAR", "SAAR", "CAAR", "AAR"}


def test_results_csv_none_t_renders_na():
    text = render_results_csv([result_for(Node.ESG_ALL, t=None, n=1)])
    rows = list(csv.DictReader(io.StringIO(text)))
    assert all(r["tvalue"] == "n/a" for r in rows)
    assert all(r["significance"] == "" for r in rows)


def test_results_csv_empty_has_header_only():
    text = render_results_csv([])
    assert text == "node,stat,window,value,tvalue,significance,n\n"


def test_results_csv_round_trips_at_printed_precision():
    rng = np.random.default_rng(23)
    config = EstimationConfig()
    results = []
    for node in (Node.ESG_ALL, Node.ENVIRONMENT, Node.CLIMATE_CHANGE):
        results.append(
            result_for(node, value=float(rng.uniform(-0.05, 0.05)), t=float(rng.normal(0, 3)))
        )
    by_node = {r.node.value: r for r in results}
    text = render_results_csv(results)
    for row in csv.DictReader(io.StringIO(text)):
        res = by_node[row["node"]]
        if row["stat"] == "SCAAR":
            window = next(w for w in config.event_windows if fmt_window(w) == row["window"])
            value, t = res.stats["SCAAR", window]
            assert abs(float(row["value"]) / 100.0 - value) < 5.1e-6
            assert abs(float(row["tvalue"]) - t) < 5.1e-4


def test_results_csv_report_order():
    results = [result_for(Node.CLIMATE_CHANGE), result_for(Node.ESG_ALL), result_for(Node.ENVIRONMENT)]
    text = render_results_csv(results)
    names = [row["node"] for row in csv.DictReader(io.StringIO(text))]
    seen = list(dict.fromkeys(names))
    assert seen == ["ESG_ALL", "Environment", "ClimateChange"]


def test_results_text_contains_starred_values():
    text = render_results_text([result_for(Node.ESG_ALL)])
    assert "-0.289***" in text
    assert "(-5.265)" in text
    assert "Shareholder response" in text
    assert "SCAAR[-1;+1]" in text
    assert "SAAR(0)" in text


def test_results_text_indents_subcategories():
    text = render_results_text(
        [result_for(Node.ENVIRONMENT), result_for(Node.CLIMATE_CHANGE)]
    )
    lines = text.splitlines()
    assert any(line.startswith("Environment") for line in lines)
    assert any(line.startswith("  ClimateChange") for line in lines)


def test_results_text_golden():
    # a pillar and its indented subcategory, given out of report order; a
    # None t leaves its t cell blank, and t = 1.64/1.65, 1.96/2.1, 2.58/2.7
    # sit each side of the *, ** and *** cut-offs
    config = EstimationConfig()
    environment = [
        (-0.00289, -5.265), (0.0123, 2.7), (-0.5, None), (0.000004, 1.64), (0.25, -1.7),
        (-0.0000578, -2.1), (0.0000246, 2.05), (-0.0015, 0.0), (1.2345, 12.5), (-0.00001, -0.5),
    ]
    climate = [
        (0.1, 1.0), (-0.2, -2.58), (0.03, 1.96), (-0.004, None), (0.0005, 1.65),
        (0.00006, -3.3), (-0.7, 2.2), (0.8, -1.66), (-0.09, 1.645), (0.0, None),
    ]
    text = render_results_text(
        [
            result_with(Node.CLIMATE_CHANGE, 3, climate, config),
            result_with(Node.ENVIRONMENT, 128, environment, config),
        ]
    )
    assert text.split("\n") == [
        "Shareholder response around detected events",
        "",
        "Standardized abnormal returns, values x 100; t-values in parentheses",
        "node              SCAAR[-1;0]SCAAR[-1;+1]    SAAR(-1)     SAAR(0)    SAAR(+1)       n",
        "Environment         -0.289***    1.230***     -50.000       0.000     25.000*     128",
        "                     (-5.265)     (2.700)                 (1.640)    (-1.700)",
        "  ClimateChange        10.000  -20.000***     3.000**      -0.400      0.050*       3",
        "                      (1.000)    (-2.580)     (1.960)                 (1.650)",
        "",
        "Raw abnormal returns, percent; t-values in parentheses",
        "node               CAAR[-1;0] CAAR[-1;+1]     AAR(-1)      AAR(0)     AAR(+1)       n",
        "Environment          -0.006**     0.002**      -0.150  123.450***      -0.001     128",
        "                     (-2.100)     (2.050)     (0.000)    (12.500)    (-0.500)",
        "  ClimateChange      0.006***   -70.000**     80.000*     -9.000*       0.000       3",
        "                     (-3.300)     (2.200)    (-1.660)     (1.645)            ",
        "",
    ]


def test_results_csv_golden_non_default_config():
    config = EstimationConfig(event_windows=((-2, 0), (-1, 1)), saar_offsets=(-1, 0, 1, 2))
    cells = [
        (-0.0123456, -4.1), (0.0009995, 1.7), (0.3, None), (-0.02, 2.0), (0.0, 0.0),
        (0.01, -2.6), (-0.000246, -0.3), (0.0000246, 2.58), (0.5, 1.64), (-1.0, None),
        (0.00049, -1.99), (0.1, 3.0),
    ]
    text = render_results_csv([result_with(Node.SOCIAL, 7, cells, config)])
    assert text == (
        "node,stat,window,value,tvalue,significance,n\n"
        "Social,SCAAR,[-2;0],-1.235,-4.100,***,7\n"
        "Social,SCAAR,[-1;+1],0.100,1.700,*,7\n"
        "Social,SAAR,-1,30.000,n/a,,7\n"
        "Social,SAAR,0,-2.000,2.000,**,7\n"
        "Social,SAAR,+1,0.000,0.000,,7\n"
        "Social,SAAR,+2,1.000,-2.600,***,7\n"
        "Social,CAAR,[-2;0],-0.025,-0.300,,7\n"
        "Social,CAAR,[-1;+1],0.002,2.580,***,7\n"
        "Social,AAR,-1,50.000,1.640,,7\n"
        "Social,AAR,0,-100.000,n/a,,7\n"
        "Social,AAR,+1,0.049,-1.990,**,7\n"
        "Social,AAR,+2,10.000,3.000,***,7\n"
    )


def test_results_text_empty():
    text = render_results_text([])
    assert "(no events to study)" in text


def make_event(node, day_index=260, **fate):
    return RiskEvent(
        firm="A", node=node, day=date(2020, 1, 2), day_index=day_index,
        count=30, share=0.5, score=-0.4, sign=Sign.NEGATIVE,
        merged_outlier_days=(date(2020, 1, 2),), **fate,
    )


def test_event_counts_csv_zero_fills_all_nodes():
    text = render_event_counts_csv([])
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(REPORT_ORDER) == 14
    assert [r["node"] for r in rows] == [n.value for n in REPORT_ORDER]
    assert all(r["count"] == "0" for r in rows)


def test_event_counts_csv_counts_per_node():
    events = [make_event(Node.CLIMATE_CHANGE), make_event(Node.CLIMATE_CHANGE), make_event(Node.ESG_ALL)]
    rows = list(csv.DictReader(io.StringIO(render_event_counts_csv(events))))
    counts = {r["node"]: int(r["count"]) for r in rows}
    assert counts["ClimateChange"] == 2
    assert counts["ESG_ALL"] == 1
    assert counts["Environment"] == 0


def test_removal_histogram_bins():
    removed = [
        make_event(Node.ESG_ALL, removal_reason="confounded_earnings", distance_to_confound=-4),
        make_event(Node.ESG_ALL, removal_reason="confounded_controversy", distance_to_confound=2),
        make_event(Node.ESG_ALL, removal_reason="confounded_earnings", distance_to_confound=2),
    ]
    rows = list(csv.DictReader(io.StringIO(render_removal_histogram_csv(removed, 5))))
    assert [int(r["distance"]) for r in rows] == list(range(-5, 6))
    counts = {int(r["distance"]): int(r["count"]) for r in rows}
    assert counts[-4] == 1
    assert counts[2] == 2
    assert counts[0] == 0


def test_removal_histogram_empty():
    rows = list(csv.DictReader(io.StringIO(render_removal_histogram_csv([], 3))))
    assert len(rows) == 7
    assert all(r["count"] == "0" for r in rows)


def test_scaar_curve_csv():
    res = NodeStudyResult(node=Node.ESG_ALL, n=4)
    res.curve = ((-1, 0.1), (0, -0.1), (1, 0.0))
    rows = list(csv.DictReader(io.StringIO(render_scaar_curve_csv(res))))
    assert [(int(r["offset"]), float(r["scaar"])) for r in rows] == [(-1, 0.1), (0, -0.1), (1, 0.0)]
    empty = NodeStudyResult(node=Node.ESG_ALL, n=0)
    assert render_scaar_curve_csv(empty) == "offset,scaar\n"
