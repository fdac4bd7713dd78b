"""Daily aggregation of classified messages into one (firm x node) series stack.

Counts follow taxonomy closure: a message labeled ClimateChange counts for
ClimateChange, Environment and ESG_ALL on its trading day. The firm total
counts every day-assigned message of the firm, labeled or not; it is the
share denominator during detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .taxonomy import REPORT_ORDER, Node, expand_to_ancestors, node_sort_key
from .trading import TradingCalendar


def label_mask(nodes: Iterable[Node]) -> int:
    """A label set as an int: bit i stands for REPORT_ORDER[i], ancestors included."""
    return sum(1 << node_sort_key(n) for n in expand_to_ancestors(frozenset(nodes)))


@dataclass(frozen=True)
class SeriesStack:
    """Daily counts and score sums of every (firm, node) pair, one row each.

    Row firm * len(REPORT_ORDER) + i is node REPORT_ORDER[i] of firm code
    `firm`; totals[firm] counts all of that firm's messages per day.
    """

    counts: np.ndarray  # int64 (rows x days)
    sums: np.ndarray  # float64 (rows x days), sum of message scores per day
    totals: np.ndarray  # int64 (firms x days)

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.counts)


def build_series(columns: Iterable, calendar: TradingCalendar) -> SeriesStack:
    """Count day-assigned messages per (firm, node, day) and sum their scores.

    `columns` holds the firm code, trading-day index, label_mask and score
    of each message. Each node's counts and sums are one bincount over the
    messages whose mask holds it, so sums add in message order.
    """
    firm, day, mask, score = columns
    firm, day, mask = (np.asarray(c, dtype=np.int64) for c in (firm, day, mask))
    shape = (int(firm.max(initial=-1)) + 1, len(calendar))  # (firms, days)
    key, size, score = firm * shape[1] + day, shape[0] * shape[1], np.asarray(score, np.float64)
    counts = np.empty((shape[0], len(REPORT_ORDER), shape[1]), dtype=np.int64)
    sums = np.empty(counts.shape)
    for bit in range(len(REPORT_ORDER)):
        has = (mask & (1 << bit)) != 0
        counts[:, bit] = np.bincount(key[has], minlength=size).reshape(shape)
        sums[:, bit] = np.bincount(key[has], weights=score[has], minlength=size).reshape(shape)
    totals = np.bincount(key, minlength=size).reshape(shape)
    return SeriesStack(counts.reshape(-1, shape[1]), sums.reshape(-1, shape[1]), totals)
