"""Market-model event study with standardized abnormal returns.

Per event: fit R_i = alpha + beta * R_m by OLS over the estimation window,
take the event-window prediction errors AR, and standardize each by the
forecast-error-corrected residual standard deviation

    SAR = AR / (s * sqrt(1 + 1/n + (R_m,t - mean_est(R_m))^2 / ssq_est(R_m))).

Events are stacked: windows are (events x days) arrays with NaN on missing
days, and one closed-form fit handles every row at once.

Cross-event aggregation averages SARs per offset (SAAR) and the per-event
sums of SARs over a window (SCAAR, no window-length renormalization).
Significance uses the cross-sectional t on the standardized values
(Boehmer/Musumeci/Poulsen): t = mean(v) / (std(v, ddof=1) / sqrt(N)).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from datetime import date
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .ingest import PriceColumns
from .taxonomy import Node
from .trading import TradingCalendar

log = logging.getLogger(__name__)

Window = tuple[int, int]

_BLOCK = 256  # events fitted per block of compute_event_abnormals
_MISSING = "missing event-window returns"


@dataclass(frozen=True)
class EstimationConfig:
    est_len: int = 120
    est_end: int = -2  # last estimation offset, relative to the event day
    min_obs: int = 100
    event_windows: tuple[Window, ...] = ((-1, 0), (-1, 1))
    saar_offsets: tuple[int, ...] = (-1, 0, 1)
    curve_span: int = 5
    scar_normalize: bool = False  # divide window sums by sqrt(window length)

    def validate(self) -> None:
        if self.est_len < 3:
            raise ConfigError(f"est_len must be at least 3, got {self.est_len}")
        if self.min_obs < 3 or self.min_obs > self.est_len:
            raise ConfigError(
                f"min_obs must lie in [3, est_len], got {self.min_obs} vs {self.est_len}"
            )
        if self.est_end >= 0:
            raise ConfigError("estimation window must end before the event day")
        for lo, hi in self.event_windows:
            if lo > hi:
                raise ConfigError(f"bad event window [{lo};{hi}]")
        if self.curve_span < 0:
            raise ConfigError("curve_span must be non-negative")

    def est_offsets(self) -> range:
        """Day offsets of the estimation window, ending at est_end."""
        return range(self.est_end - self.est_len + 1, self.est_end + 1)

    def required_offsets(self) -> tuple[int, ...]:
        need = set(self.saar_offsets)
        for lo, hi in self.event_windows:
            need.update(range(lo, hi + 1))
        return tuple(sorted(need))


@dataclass(frozen=True)
class MarketModelFit:
    """Market-model coefficients of stacked events, one array entry per event.

    `dropped` names why an event's fit is unusable, "" where it is usable;
    the numbers of a dropped event are undefined.
    """

    alpha: np.ndarray
    beta: np.ndarray
    resid_std: np.ndarray
    market_mean: np.ndarray
    market_ssq: np.ndarray
    n_obs: np.ndarray
    dropped: np.ndarray


def align_firm_returns(
    prices: PriceColumns, calendar: TradingCalendar
) -> tuple[list[str], np.ndarray]:
    """Firm names and their (firms x days) returns on the calendar grid, NaN where missing.

    Returns on dates outside the calendar are ignored with a log note:
    they cannot participate in a calendar-aligned study.
    """
    firms, firm_code, ordinal, ret = prices
    has_ret = ~np.isnan(ret)
    firm_code, ordinal, ret = firm_code[has_ret], ordinal[has_ret], ret[has_ret]
    idx = calendar.lookup(ordinal)
    inside = idx >= 0
    out = np.full((len(firms), len(calendar)), np.nan)
    out[firm_code[inside], idx[inside]] = ret[inside]
    outside = np.bincount(firm_code[~inside], minlength=len(firms))
    for name, dropped in zip(firms, outside.tolist()):
        if dropped:
            log.info("%s: %d price dates outside the trading calendar", name, dropped)
    return list(firms), out


def align_market_returns(
    dates: Sequence[date], returns: np.ndarray, calendar: TradingCalendar
) -> np.ndarray:
    idx = calendar.lookup(np.fromiter(map(date.toordinal, dates), np.int64, len(dates)))
    arr = np.full(len(calendar), np.nan)
    arr[idx[idx >= 0]] = np.asarray(returns)[idx >= 0]
    return arr


def fit_market_model(
    firm: np.ndarray, market: np.ndarray, config: EstimationConfig
) -> MarketModelFit:
    """Row-wise OLS of firm on market returns over stacked estimation windows.

    `firm` and `market` are (events x days) arrays, NaN on missing days. An
    event is dropped when fewer than min_obs days pair up ("thin estimation
    window"), else when its market days are all equal ("degenerate
    regressor"), else when the fit leaves zero residual variance
    ("degenerate residuals"): each makes SARs undefined.
    """
    ok = np.isfinite(firm) & np.isfinite(market)
    n_obs = ok.sum(axis=1)
    x = np.where(ok, market, 0.0)
    y = np.where(ok, firm, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        market_mean = x.sum(axis=1) / n_obs
        firm_mean = y.sum(axis=1) / n_obs
        dx = np.where(ok, x - market_mean[:, None], 0.0)
        dy = y - firm_mean[:, None]  # needs no mask: dx is 0 off it, resid masked
        market_ssq = (dx * dx).sum(axis=1)
        beta = (dx * dy).sum(axis=1) / market_ssq
        alpha = firm_mean - beta * market_mean
        resid = np.where(ok, dy - beta[:, None] * dx, 0.0)
        resid_std = np.sqrt((resid * resid).sum(axis=1) / (n_obs - 2))
    # the demeaned sum of squares of a constant series carries rounding
    # noise, so test the data itself as well
    flat = (market_ssq == 0.0) | (
        np.where(ok, market, -np.inf).max(axis=1) == np.where(ok, market, np.inf).min(axis=1)
    )
    # residual spread at the rounding floor of the response scale means an
    # exact linear (or constant) relation
    exact = resid_std <= np.abs(y).max(axis=1, initial=0.0) * 1e-12
    dropped = np.select(
        [n_obs < config.min_obs, flat, exact],
        ["thin estimation window", "degenerate regressor", "degenerate residuals"],
        "",
    )
    return MarketModelFit(alpha, beta, resid_std, market_mean, market_ssq, n_obs, dropped)


def abnormal_return(fit: MarketModelFit, firm_ret, market_ret):
    """Prediction error of the market model; the last axis runs over the fit's events."""
    return firm_ret - fit.alpha - fit.beta * market_ret


def standardize(fit: MarketModelFit, ar, market_ret):
    """Scale abnormal returns by their forecast-error standard deviation."""
    correction = 1.0 + 1.0 / fit.n_obs + (market_ret - fit.market_mean) ** 2 / fit.market_ssq
    return ar / (fit.resid_std * np.sqrt(correction))


@dataclass(frozen=True)
class EventAbnormals:
    """ARs and SARs of stacked events: one row per event, one column per offset.

    `offsets` is the contiguous range of day offsets the columns hold, NaN
    where a return is missing. `dropped` names why an event cannot be
    studied, "" where it can; such an event's row is all NaN, and every
    required offset of a studied event is finite.
    """

    offsets: range
    ar: np.ndarray
    sar: np.ndarray
    dropped: np.ndarray

    def columns(self, lo: int, hi: int) -> slice:
        """The columns of offsets lo..hi, both included."""
        return slice(lo - self.offsets.start, hi - self.offsets.start + 1)

    def take(self, rows) -> "EventAbnormals":
        """The events at `rows`, given as indices or a boolean mask."""
        return EventAbnormals(self.offsets, self.ar[rows], self.sar[rows], self.dropped[rows])


def _take(grid: np.ndarray, rows, cols: np.ndarray) -> np.ndarray:
    """grid[rows, cols], NaN where a column falls off the grid."""
    inside = (cols >= 0) & (cols < grid.shape[1])
    return np.where(inside, grid[rows, np.clip(cols, 0, grid.shape[1] - 1)], np.nan)


def compute_event_abnormals(
    firm_returns: np.ndarray,
    market_returns: np.ndarray,
    rows: np.ndarray,
    days: np.ndarray,
    config: EstimationConfig,
) -> EventAbnormals:
    """Fit the market model and collect ARs/SARs around stacked events.

    Event k is firm row rows[k] of the (firms x days) `firm_returns` on day
    days[k]. `market_returns` is one day series for every firm, or one row
    per firm row. An event whose fit is usable is still dropped ("missing
    event-window returns") if a required offset lacks a firm or market
    return; offsets needed only for the running-sum curve may be NaN.

    Events are fitted _BLOCK at a time into the output arrays, so the fit
    temporaries do not grow with the event count. Every statistic is
    row-wise, so the block size changes no value.
    """
    rows = np.asarray(rows, dtype=np.intp)
    days = np.asarray(days, dtype=np.intp)
    market_grid = np.atleast_2d(market_returns)
    required = config.required_offsets()
    span = (-config.curve_span, *required, config.curve_span)
    offsets = range(min(span), max(span) + 1)
    need = [off - offsets.start for off in required]
    ar, sar = np.empty((len(rows), len(offsets))), np.empty((len(rows), len(offsets)))
    dropped = np.empty(len(rows), dtype=f"U{len(_MISSING)}")  # the longest reason
    for start in range(0, len(rows), _BLOCK):
        block = slice(start, start + _BLOCK)
        grid_rows = rows[block, None]
        market_rows = grid_rows if len(market_grid) > 1 else 0

        def windows(offsets) -> tuple[np.ndarray, np.ndarray]:
            cols = days[block, None] + np.asarray(offsets, dtype=np.intp)
            return _take(firm_returns, grid_rows, cols), _take(market_grid, market_rows, cols)

        fit = fit_market_model(*windows(config.est_offsets()), config)
        # offsets x events, so that the per-event fit arrays broadcast along rows
        firm, market = (w.T for w in windows(offsets))
        with np.errstate(divide="ignore", invalid="ignore"):
            block_ar = abnormal_return(fit, firm, market)
            block_sar = standardize(fit, block_ar, market)
        block_ar, block_sar = block_ar.T, block_sar.T
        missing = np.isnan(block_ar[:, need]).any(axis=1)
        reason = np.where((fit.dropped == "") & missing, _MISSING, fit.dropped)
        block_ar[reason != ""] = block_sar[reason != ""] = np.nan
        ar[block], sar[block], dropped[block] = block_ar, block_sar, reason
    return EventAbnormals(offsets, ar, sar, dropped)


def bmp_tstat(values: Sequence[float]) -> float | None:
    """Cross-sectional t on standardized values; None when undefined.

    Uses the N-1 sample standard deviation. Fewer than two events or zero
    dispersion make the statistic undefined rather than infinite.
    """
    arr = np.asarray(values, dtype=np.float64)
    n = arr.size
    if n < 2:
        return None
    sd = float(arr.std(ddof=1))
    # identical values can leave rounding-level dispersion; still undefined
    if sd <= float(np.abs(arr).max()) * 1e-12:
        return None
    return float(arr.mean() / (sd / math.sqrt(n)))


@dataclass
class NodeStudyResult:
    """Aggregated study statistics for one taxonomy node.

    `stats` maps (stat, offset or window) to (mean, BMP t), in report order:
    SCAAR per event window, SAAR per offset, then CAAR and AAR alike.
    """

    node: Node
    n: int
    stats: dict[tuple[str, int | Window], tuple[float, float | None]] = field(default_factory=dict)
    curve: tuple[tuple[int, float], ...] = ()
    curve_n: int = 0


def aggregate_node(
    node: Node, abnormals: EventAbnormals, config: EstimationConfig
) -> NodeStudyResult:
    """Average the studied events' (S)ARs into SAAR/SCAAR rows with BMP t-values.

    Every statistic uses the same event set, so window sums decompose
    exactly into their per-offset averages.
    """
    result = NodeStudyResult(node=node, n=len(abnormals.sar))
    if not result.n:
        return result
    for prefix, grid in (("S", abnormals.sar), ("", abnormals.ar)):
        for window in config.event_windows:
            sums = grid[:, abnormals.columns(*window)].sum(axis=1)
            if prefix and config.scar_normalize:
                sums /= math.sqrt(window[1] - window[0] + 1)
            result.stats[f"{prefix}CAAR", window] = float(np.mean(sums)), bmp_tstat(sums)
        for off in config.saar_offsets:
            values = grid[:, abnormals.offsets.index(off)]
            result.stats[f"{prefix}AAR", off] = float(np.mean(values)), bmp_tstat(values)
    span = abnormals.sar[:, abnormals.columns(-config.curve_span, config.curve_span)]
    covered = span[np.isfinite(span).all(axis=1)]
    result.curve_n = len(covered)
    if result.curve_n:
        running = np.cumsum(covered.mean(axis=0)).tolist()
        result.curve = tuple(zip(range(-config.curve_span, config.curve_span + 1), running))
    return result
