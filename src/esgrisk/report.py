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

from .detect import RiskEvent
from .study import NodeStudyResult, Window
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


def render_results_csv(results: Iterable[NodeStudyResult]) -> str:
    """Long-format results: node,stat,window,value,tvalue,significance,n.

    Values are x 100 at three decimals, one row per `stats` entry in its
    order: standardized statistics first, then the raw percent ones.
    Parsing the file recovers everything at printed precision. Empty
    results still produce the header.
    """
    rows = (
        [res.node.value, stat, fmt_window(key) if isinstance(key, tuple) else fmt_offset(key),
         f"{value * 100.0:.3f}", "n/a" if t is None else f"{t:.3f}", significance_stars(t), res.n]
        for res in _ordered(results)
        for (stat, key), (value, t) in res.stats.items()
    )
    return _csv_text(["node", "stat", "window", "value", "tvalue", "significance", "n"], rows)


def _text_table(results: Sequence[NodeStudyResult], keys: list, caption: str) -> list[str]:
    """A table of the `stats` entries at `keys`: a value row and a t row per node."""
    headers = [
        stat + (fmt_window(key) if isinstance(key, tuple) else f"({fmt_offset(key)})")
        for stat, key in keys
    ]
    label_width = max([len("node")] + [len(_label(r.node)) for r in results]) + 2
    col_width = max(max((len(h) for h in headers), default=8), 12)

    lines = [caption]
    header_line = "node".ljust(label_width) + "".join(h.rjust(col_width) for h in headers)
    header_line += "n".rjust(8)
    lines.append(header_line)
    for res in results:
        stats = [res.stats[key] for key in keys]
        cells = "".join(f"{v * 100.0:.3f}{significance_stars(t)}".rjust(col_width) for v, t in stats)
        tcells = "".join(("" if t is None else f"({t:.3f})").rjust(col_width) for _, t in stats)
        lines.append(_label(res.node).ljust(label_width) + cells + str(res.n).rjust(8))
        lines.append(" " * label_width + tcells)
    return lines


def _label(node: Node) -> str:
    # indent subcategories beneath their pillar
    return ("  " + node.value) if node in SUBCATEGORIES else node.value


def render_results_text(results: Iterable[NodeStudyResult]) -> str:
    """Aligned two-table report: standardized values, then raw percent."""
    ordered = _ordered(results)
    lines = ["Shareholder response around detected events", ""]
    if not ordered:
        lines.append("(no events to study)")
        return "\n".join(lines) + "\n"
    keys = list(ordered[0].stats)
    standardized = [key for key in keys if key[0].startswith("S")]
    raw = [key for key in keys if key not in standardized]
    lines += _text_table(
        ordered, standardized, "Standardized abnormal returns, values x 100; t-values in parentheses"
    )
    lines += ["", *_text_table(ordered, raw, "Raw abnormal returns, percent; t-values in parentheses")]
    return "\n".join(lines) + "\n"


def render_event_counts_csv(events: Iterable[RiskEvent]) -> str:
    """Final event counts per taxonomy node; every node gets a row."""
    counts = {node: 0 for node in REPORT_ORDER}
    for event in events:
        counts[event.node] += 1
    return _csv_text(["node", "count"], ([node.value, counts[node]] for node in REPORT_ORDER))


def render_removal_histogram_csv(removed: Iterable[RiskEvent], halfwidth: int) -> str:
    """Signed distance histogram of confound removals, zero-filled bins."""
    counts = {d: 0 for d in range(-halfwidth, halfwidth + 1)}
    for event in removed:
        counts[event.distance_to_confound] += 1
    return _csv_text(["distance", "count"], counts.items())


def render_scaar_curve_csv(result: NodeStudyResult) -> str:
    """Plot data for the running SAAR sum of one node (raw units)."""
    return _csv_text(["offset", "scaar"], ([off, str(value)] for off, value in result.curve))
