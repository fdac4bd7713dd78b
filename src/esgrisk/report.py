"""Result rendering: delimited files and aligned text tables.

Tables print SAAR/SCAAR (and raw AAR/CAAR) multiplied by 100 at three
decimals, with the cross-sectional t beneath each value and significance
stars from the normal approximation: *** p<0.01, ** p<0.05, * p<0.1.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Iterable, Sequence

from .detect import RemovedEvent, RiskEvent
from .study import EstimationConfig, NodeStudyResult, Window
from .taxonomy import REPORT_ORDER, SUBCATEGORIES, Node


def significance_stars(t: float | None) -> str:
    """Stars for a two-sided test of t against the standard normal."""
    if t is None:
        return ""
    p = math.erfc(abs(t) / math.sqrt(2.0))
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.1:
        return "*"
    return ""


def fmt_offset(off: int) -> str:
    return "0" if off == 0 else f"{off:+d}"


def fmt_window(window: Window) -> str:
    lo, hi = window
    return f"[{fmt_offset(lo)};{fmt_offset(hi)}]"


def _csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text of a header row and then `rows`, each line ended by a newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _ordered(results: Iterable[NodeStudyResult]) -> list[NodeStudyResult]:
    by_node = {r.node: r for r in results}
    return [by_node[node] for node in REPORT_ORDER if node in by_node]


def render_results_csv(results: Iterable[NodeStudyResult], config: EstimationConfig) -> str:
    """Long-format results: node,stat,window,value,tvalue,significance,n.

    Values are x 100 at three decimals; standardized statistics first,
    then the raw percent ones. Parsing the file recovers everything at
    printed precision. Empty results still produce the header.
    """
    rows: list[list] = []

    def row(node: Node, stat: str, window: str, value: float, t: float | None, n: int) -> None:
        rows.append([
            node.value,
            stat,
            window,
            f"{value * 100.0:.3f}",
            "n/a" if t is None else f"{t:.3f}",
            significance_stars(t),
            n,
        ])

    for res in _ordered(results):
        for window in config.event_windows:
            row(res.node, "SCAAR", fmt_window(window), res.scaar[window], res.t_scaar[window], res.n)
        for off in config.saar_offsets:
            row(res.node, "SAAR", fmt_offset(off), res.saar[off], res.t_saar[off], res.n)
        for window in config.event_windows:
            row(res.node, "CAAR", fmt_window(window), res.caar[window], res.t_caar[window], res.n)
        for off in config.saar_offsets:
            row(res.node, "AAR", fmt_offset(off), res.aar[off], res.t_aar[off], res.n)
    return _csv_text(["node", "stat", "window", "value", "tvalue", "significance", "n"], rows)


def _text_table(
    results: Sequence[NodeStudyResult],
    config: EstimationConfig,
    values_of,
    tvals_of,
    caption: str,
    window_stat: str,
    offset_stat: str,
) -> list[str]:
    headers = (
        [f"{window_stat}{fmt_window(w)}" for w in config.event_windows]
        + [f"{offset_stat}({fmt_offset(o)})" for o in config.saar_offsets]
    )
    label_width = max([len("node")] + [len(_label(r.node)) for r in results]) + 2
    col_width = max(max((len(h) for h in headers), default=8), 12)

    lines = [caption]
    header_line = "node".ljust(label_width) + "".join(h.rjust(col_width) for h in headers)
    header_line += "n".rjust(8)
    lines.append(header_line)
    for res in results:
        values, tvals = values_of(res), tvals_of(res)
        cells = []
        tcells = []
        for value, t in zip(values, tvals):
            cells.append(f"{value * 100.0:.3f}{significance_stars(t)}".rjust(col_width))
            tcells.append(("" if t is None else f"({t:.3f})").rjust(col_width))
        lines.append(_label(res.node).ljust(label_width) + "".join(cells) + str(res.n).rjust(8))
        lines.append(" " * label_width + "".join(tcells))
    return lines


def _label(node: Node) -> str:
    # indent subcategories beneath their pillar
    return ("  " + node.value) if node in SUBCATEGORIES else node.value


def render_results_text(results: Iterable[NodeStudyResult], config: EstimationConfig) -> str:
    """Aligned two-table report: standardized values, then raw percent."""
    ordered = _ordered(results)
    lines = ["Shareholder response around detected events", ""]
    if not ordered:
        lines.append("(no events to study)")
        return "\n".join(lines) + "\n"
    lines += _text_table(
        ordered,
        config,
        lambda r: [r.scaar[w] for w in config.event_windows] + [r.saar[o] for o in config.saar_offsets],
        lambda r: [r.t_scaar[w] for w in config.event_windows] + [r.t_saar[o] for o in config.saar_offsets],
        "Standardized abnormal returns, values x 100; t-values in parentheses",
        "SCAAR",
        "SAAR",
    )
    lines.append("")
    lines += _text_table(
        ordered,
        config,
        lambda r: [r.caar[w] for w in config.event_windows] + [r.aar[o] for o in config.saar_offsets],
        lambda r: [r.t_caar[w] for w in config.event_windows] + [r.t_aar[o] for o in config.saar_offsets],
        "Raw abnormal returns, percent; t-values in parentheses",
        "CAAR",
        "AAR",
    )
    return "\n".join(lines) + "\n"


def render_event_counts_csv(events: Iterable[RiskEvent]) -> str:
    """Final event counts per taxonomy node; every node gets a row."""
    counts = {node: 0 for node in REPORT_ORDER}
    for event in events:
        counts[event.node] += 1
    return _csv_text(["node", "count"], ([node.value, counts[node]] for node in REPORT_ORDER))


def render_removal_histogram_csv(removed: Iterable[RemovedEvent], halfwidth: int) -> str:
    """Signed distance histogram of confound removals, zero-filled bins."""
    counts = {d: 0 for d in range(-halfwidth, halfwidth + 1)}
    for rem in removed:
        counts[rem.distance] += 1
    return _csv_text(["distance", "count"], counts.items())


def render_scaar_curve_csv(result: NodeStudyResult) -> str:
    """Plot data for the running SAAR sum of one node (raw units)."""
    return _csv_text(["offset", "scaar"], ([off, str(value)] for off, value in result.curve))
