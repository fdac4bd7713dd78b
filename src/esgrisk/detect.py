"""Abnormal message-volume event detection.

A day is an outlier when its count deviates from the trailing-window mean
by at least z sample standard deviations. The window holds exactly
window_len observations strictly before the day (no shorter history, the
day itself never contaminates its own baseline) and the default direction
is spikes only. Outliers then pass absolute-size and share filters, merge
into events within a trading-day gap, and are screened against earnings
and controversy calendars.

The scan covers a whole (series x days) stack, a block of rows at a time.
Window sums of counts and of squared counts come from cumulative sums and
are exact in int64, so the deviation E/w and the sample std
sqrt(D/(w(w-1))), with E = w*x - sum and D = w*sum(x^2) - sum^2, derive
from exact integers; D = 0 never flags. A day is decided there when its
deviation and z stds differ by more than 1e-9 of the window mean,
deviation and threshold together, a margin far wider than the rounding of
the float rule. The rare day inside it, a tie included, and every day of
a series that is not integer or could overflow int64, take the float rule
(mean and std(ddof=1) of the window), which stays the definition of a hit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from datetime import date
from typing import Iterable, Sequence

import numpy as np

from .aggregate import SeriesStack
from .errors import ConfigError, NumericError
from .ingest import CalendarEvents, EventKind
from .sentiment import DEFAULT_SIGN_THRESHOLD, Sign, classify_sign
from .taxonomy import REPORT_ORDER, Node
from .trading import TradingCalendar

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DetectionConfig:
    z: float = 2.0
    window_len: int = 250
    min_tweets: int = 10
    min_share: float = 0.05
    gap_days: int = 5
    exclusion_halfwidth: int = 5
    two_sided: bool = False

    def validate(self) -> None:
        if not (math.isfinite(self.z) and self.z > 0):
            raise ConfigError(f"z must be a finite positive number, got {self.z}")
        if self.window_len < 2:
            raise ConfigError(f"window_len must be at least 2, got {self.window_len}")
        if self.min_tweets < 1:
            raise ConfigError(f"min_tweets must be positive, got {self.min_tweets}")
        if not 0.0 <= self.min_share <= 1.0:
            raise ConfigError(f"min_share must lie in [0, 1], got {self.min_share}")
        if self.gap_days < 0 or self.exclusion_halfwidth < 0:
            raise ConfigError("gap_days and exclusion_halfwidth must be non-negative")


@dataclass(frozen=True)
class RiskEvent:
    """One detected abnormal-volume event for a (firm, node) pair, with its events.csv fate.

    removal_reason is "" for a kept event, else positive_sign or
    confounded_<kind>; distance_to_confound is set on a confounded event only.
    """

    firm: str
    node: Node
    day: date
    day_index: int
    count: int
    share: float
    score: float
    sign: Sign
    merged_outlier_days: tuple[date, ...]
    removal_reason: str = ""
    distance_to_confound: int | None = None  # confound index minus event index, in trading days


# window_len * (largest count) at or below this keeps w*sum(x^2) and sum^2 in int64
_EXACT_LIMIT = math.isqrt(2**63 - 1)
_BLOCK_CELLS = 1 << 13  # stack cells per pass, which bounds the kernel's temporaries
_MARGIN = 1e-9  # relative gap that the float rule's rounding cannot close


def esd_outliers(counts: Sequence | np.ndarray, config: DetectionConfig) -> np.ndarray:
    """Flat indices of the outlier days of one count series or a (series x days) stack.

    The stack is a 2-D array or a list of equal-length series; it is read a
    block of rows at a time. Day t of a series is flagged when counts[t]
    deviates >= z sample stds from its window counts[t-window_len:t]; days
    without a complete window are never flagged, and a zero-variance window
    flags nothing. Index i*n_days + t is day t of series i, so for a single
    series the indices are day indices.
    """
    rows = counts if len(counts) and np.ndim(counts[0]) else [counts]
    n, w = len(rows[0]), config.window_len
    found = [np.empty(0, dtype=np.intp)]
    if n > w:
        step = max(1, _BLOCK_CELLS // n)
        for start in range(0, len(rows), step):
            row, day = np.nonzero(_esd_block(np.asarray(rows[start : start + step]), config))
            found.append((start + row) * n + w + day)
    return np.concatenate(found)


def _esd_block(x: np.ndarray, config: DetectionConfig) -> np.ndarray:
    """Hit mask of days window_len.. of each row of a 2-D block (see the module docstring)."""
    w, n = config.window_len, x.shape[1]
    bound = _EXACT_LIMIT // w  # rows of other values take the float rule on every day
    exact = ((-bound <= x) & (x <= bound) & (x == np.round(x))).all(axis=1)
    xi = np.where(exact[:, None], x, 0).astype(np.int64)
    sums = np.zeros((2, len(x), n + 1), dtype=np.int64)
    np.cumsum(xi, axis=1, out=sums[0, :, 1:])
    np.cumsum(xi * xi, axis=1, out=sums[1, :, 1:])
    # a running sum may wrap around, but each window's difference fits in int64 and is exact
    s1, s2 = sums[:, :, w:n] - sums[:, :, : n - w]  # day t's window is x[t-w:t]
    spread = w * s2 - s1 * s1  # D, which is w*(w-1) times the window's sample variance
    dev = (w * xi[:, w:] - s1) / w
    if config.two_sided:
        dev = np.abs(dev)
    thr = config.z * np.sqrt(spread / (w * (w - 1.0)))
    margin = _MARGIN * (np.abs(s1) / w + np.abs(dev) + thr)
    hit = (spread > 0) & (dev - thr > margin)
    unsure = (spread > 0) & (np.abs(dev - thr) <= margin)
    unsure[~exact] = True
    for i, j in zip(*np.nonzero(unsure)):  # the float rule, as a per-day recomputation has it
        window = x[i, j : j + w].astype(np.float64)
        sd, dev_ij = window.std(ddof=1), float(x[i, j + w]) - window.mean()
        hit[i, j] = sd > 0.0 and (abs(dev_ij) if config.two_sided else dev_ij) >= config.z * sd
    return hit


def filter_and_merge(
    outlier_indices: Sequence[int] | np.ndarray,
    stack: SeriesStack,
    firms: Sequence[str],
    calendar: TradingCalendar,
    config: DetectionConfig,
    sign_threshold: float = DEFAULT_SIGN_THRESHOLD,
) -> list[RiskEvent]:
    """Apply size/share filters, then merge nearby outliers of each row into events.

    Outliers are flat (row x day) indices into the stack, as esd_outliers
    gives them; firms names each firm code. Filters drop outliers with
    fewer than min_tweets messages or below min_share of the firm's volume.
    Of a row's survivors, the first outlier opens an event; later outliers
    within gap_days trading days of that event day fold into it, anything
    further opens the next event. The event day stays the first outlier
    day, and outliers of different rows never merge.
    """
    n_nodes, flat = len(REPORT_ORDER), np.sort(np.asarray(outlier_indices, dtype=np.intp))
    row, day = np.divmod(flat, stack.counts.shape[1])
    count, total = stack.counts[row, day], stack.totals[row // n_nodes, day]
    share = np.divide(count, total, out=np.zeros(len(count)), where=total > 0)
    keep = (count >= config.min_tweets) & (share >= config.min_share)
    rows, days, counts, shares, sums = (
        a[keep].tolist() for a in (row, day, count, share, stack.sums[row, day])
    )

    opens: list[int] = []  # the passing outliers that open an event
    for k, (r, t) in enumerate(zip(rows, days)):
        if not opens or r != rows[opens[-1]] or t - days[opens[-1]] > config.gap_days:
            opens.append(k)
    events: list[RiskEvent] = []
    for a, b in zip(opens, opens[1:] + [len(rows)]):
        firm, node = firms[rows[a] // n_nodes], REPORT_ORDER[rows[a] % n_nodes]
        if counts[a] == 0:  # count >= min_tweets >= 1 guarantees messages existed that day
            raise NumericError(f"no sentiment for {firm}/{node} on day index {days[a]}")
        score = sums[a] / counts[a]
        events.append(
            RiskEvent(
                firm=firm,
                node=node,
                day=calendar.dates[days[a]],
                day_index=days[a],
                count=counts[a],
                share=shares[a],
                score=score,
                sign=classify_sign(score, sign_threshold),
                merged_outlier_days=tuple(calendar.dates[t] for t in days[a:b]),
            )
        )
    return events


def exclude_confounded(
    events: Iterable[RiskEvent],
    confounds: Iterable[CalendarEvents],
    calendar: TradingCalendar,
    config: DetectionConfig,
) -> tuple[list[RiskEvent], list[RiskEvent]]:
    """Set each event's fate: (unconfounded, removed), each in input order.

    An event with a firm calendar confound within the exclusion window is
    removed as confounded_<kind>, with the signed distance of the nearest
    confound (positive means the confound came after the event). Of a -d/+d
    pair the earlier confound wins, and of equal distances the calendar
    given first. Distances are measured in trading days via the calendar;
    a confound on a non-trading date counts from the next trading day. An
    unconfounded event of positive sign is marked positive_sign.
    """
    by_firm: dict[str, list[tuple[int, EventKind]]] = {}
    for cal in confounds:
        for firm, pos in zip(cal.firms, calendar.position(cal.days).tolist()):
            by_firm.setdefault(firm, []).append((pos, cal.kind))

    unconfounded: list[RiskEvent] = []
    removed: list[RiskEvent] = []
    for event in events:
        nearby: list[tuple[int, EventKind]] = []
        for pos, kind in by_firm.get(event.firm, ()):
            distance = pos - event.day_index
            if abs(distance) <= config.exclusion_halfwidth:
                nearby.append((distance, kind))
        if not nearby:
            if event.sign is Sign.POSITIVE:
                event = replace(event, removal_reason="positive_sign")
            unconfounded.append(event)
            continue
        distance, kind = min(nearby, key=lambda item: (abs(item[0]), item[0]))
        reason = f"confounded_{kind.name.lower()}"
        removed.append(replace(event, removal_reason=reason, distance_to_confound=distance))
        log.info(
            "excluded %s/%s event on %s: %s at %+d trading days",
            event.firm, event.node, event.day, kind, distance,
        )
    return unconfounded, removed

