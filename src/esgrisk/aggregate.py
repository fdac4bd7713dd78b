"""Daily aggregation of classified messages into per-firm, per-node series.

Counts follow taxonomy closure: a message labeled ClimateChange counts for
ClimateChange, Environment and ESG_ALL on its trading day. The firm total
counts every day-assigned message of the firm, labeled or not; it is the
share denominator during detection.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .taxonomy import REPORT_ORDER, Node, expand_to_ancestors, node_sort_key
from .trading import TradingCalendar

# firm, trading-day index, subcategory labels (closure happens here), score
Record = tuple[str, int, frozenset[Node], float]


@dataclass
class CategorySeries:
    """Daily counts and sentiment mass for one (firm, node) pair."""

    firm: str
    node: Node
    counts: np.ndarray  # int64, len == len(calendar)
    senti_sum: np.ndarray  # float64, sum of message scores per day
    totals: np.ndarray  # int64, all messages of the firm per day (shared)

    def sentiment(self, day_index: int) -> float | None:
        """Mean message score on a day, None when the node had no messages."""
        n = int(self.counts[day_index])
        if n == 0:
            return None
        return float(self.senti_sum[day_index] / n)

    def share(self, day_index: int) -> float:
        """Node count as a fraction of the firm's total messages that day."""
        total = int(self.totals[day_index])
        if total == 0:
            return 0.0
        return float(self.counts[day_index] / total)


def build_series(records: Iterable[Record], calendar: TradingCalendar) -> list[CategorySeries]:
    """Count day-assigned messages per (firm, node, day) and sum their scores.

    Returns the non-empty series in (firm, taxonomy) order; a firm's series
    share one totals array. Each node's counts and sums are one bincount over
    the messages whose closure holds it, so sums add in record order.
    """
    n_days = len(calendar)
    firm_codes: dict[str, int] = {}
    masks: dict[frozenset[Node], int] = {}  # label set -> closure, bit i for REPORT_ORDER[i]
    keys, bits, scores = array("q"), array("q"), array("d")  # key = firm code * n_days + day
    for firm, day, labels, score in records:
        mask = masks.get(labels)
        if mask is None:
            mask = masks[labels] = sum(1 << node_sort_key(n) for n in expand_to_ancestors(labels))
        keys.append(firm_codes.setdefault(firm, len(firm_codes)) * n_days + day)
        bits.append(mask)
        scores.append(score)

    size = len(firm_codes) * n_days
    key, bits_arr, scores_arr = np.asarray(keys), np.asarray(bits), np.asarray(scores)
    totals = np.bincount(key, minlength=size).reshape(-1, n_days)
    per_node = []
    for bit, node in enumerate(REPORT_ORDER):
        has = (bits_arr & (1 << bit)) != 0
        counts = np.bincount(key[has], minlength=size).reshape(-1, n_days)
        sums = np.bincount(key[has], weights=scores_arr[has], minlength=size).reshape(-1, n_days)
        per_node.append((node, counts, sums))
    return [
        CategorySeries(firm, node, counts[code], sums[code], totals[code])
        for firm, code in sorted(firm_codes.items())
        for node, counts, sums in per_node
        if counts[code].any()
    ]
