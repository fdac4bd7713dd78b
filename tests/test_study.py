import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esgrisk import study
from esgrisk.errors import ConfigError
from esgrisk.study import (
    EstimationConfig,
    EventAbnormals,
    MarketModelFit,
    abnormal_return,
    aggregate_node,
    bmp_tstat,
    compute_event_abnormals,
    fit_market_model,
    standardize,
)
from esgrisk.taxonomy import Node


def closed_form_ols(x, y):
    xm = x.mean()
    ym = y.mean()
    dx = x - xm
    beta = float(dx @ (y - ym)) / float(dx @ dx)
    return ym - beta * xm, beta


def oracle_fit(firm, market, event_index, config):
    """The scalar per-event fit the stacked kernel replaced: np.polyfit over
    one event's window. Returns (alpha, beta, resid_std, market_mean,
    market_ssq, n_obs), or the drop reason."""
    n = firm.shape[0]
    idx = [event_index + off for off in config.est_offsets()]
    idx = [i for i in idx if 0 <= i < n]
    if not idx:
        return "thin estimation window"
    x_all = market[idx]
    y_all = firm[idx]
    ok = np.isfinite(x_all) & np.isfinite(y_all)
    n_obs = int(ok.sum())
    if n_obs < config.min_obs:
        return "thin estimation window"
    x = x_all[ok]
    y = y_all[ok]
    market_mean = float(x.mean())
    market_ssq = float(((x - market_mean) ** 2).sum())
    if market_ssq == 0.0 or float(x.max()) == float(x.min()):
        return "degenerate regressor"
    beta, alpha = np.polyfit(x, y, 1)
    resid = y - (alpha + beta * x)
    ssr = float(resid @ resid)
    resid_std = math.sqrt(ssr / (n_obs - 2)) if ssr > 0.0 else 0.0
    if resid_std <= float(np.abs(y).max()) * 1e-12:
        return "degenerate residuals"
    return float(alpha), float(beta), resid_std, market_mean, market_ssq, n_obs


def window(series, event_index, offsets):
    """series[event_index + offsets], NaN off either end of the series."""
    cols = event_index + np.asarray(offsets)
    inside = (cols >= 0) & (cols < len(series))
    return np.where(inside, series[np.clip(cols, 0, len(series) - 1)], np.nan)


def fit_one(firm, market, event_index, config=EstimationConfig()):
    """The stacked fit of one event's estimation window."""
    offsets = config.est_offsets()
    return fit_market_model(
        window(firm, event_index, offsets)[None], window(market, event_index, offsets)[None], config
    )


def one_event(firm, market, event_index, config=EstimationConfig()):
    """Abnormals of one event: the firm as a one-row matrix."""
    return compute_event_abnormals(firm[None], market, [0], [event_index], config)


def simulated(rng, n=130, alpha=2e-4, beta=1.3, idio=0.02):
    market = rng.normal(0.0, 0.01, n)
    firm = alpha + beta * market + rng.normal(0.0, idio, n)
    return firm, market


def test_estimation_offsets_default():
    offsets = list(EstimationConfig().est_offsets())
    assert offsets == list(range(-121, -1))
    assert offsets[0] == -121 and offsets[-1] == -2
    assert len(offsets) == 120


def test_estimation_config_validation():
    EstimationConfig().validate()
    with pytest.raises(ConfigError):
        EstimationConfig(est_len=2, min_obs=3).validate()
    with pytest.raises(ConfigError):
        EstimationConfig(min_obs=2).validate()
    with pytest.raises(ConfigError):
        EstimationConfig(est_len=50, min_obs=60).validate()
    with pytest.raises(ConfigError):
        EstimationConfig(est_end=0).validate()
    with pytest.raises(ConfigError):
        EstimationConfig(event_windows=((1, 0),)).validate()
    with pytest.raises(ConfigError):
        EstimationConfig(curve_span=-1).validate()


def test_required_offsets_union():
    config = EstimationConfig(event_windows=((-2, 0),), saar_offsets=(0, 3))
    assert config.required_offsets() == (-2, -1, 0, 3)


def test_fit_recovers_known_coefficients():
    rng = np.random.default_rng(7)
    firm, market = simulated(rng, idio=1e-4)
    fit = fit_one(firm, market, 121)
    assert fit.dropped[0] == ""
    assert fit.beta[0] == pytest.approx(1.3, abs=0.01)
    assert fit.alpha[0] == pytest.approx(2e-4, abs=5e-5)
    assert fit.n_obs[0] == 120


def test_fit_matches_closed_form():
    rng = np.random.default_rng(8)
    config = EstimationConfig()
    idx = [121 + off for off in config.est_offsets()]
    draws = [simulated(rng, beta=float(rng.uniform(-2, 2))) for _ in range(200)]
    firm, market = (np.stack(a) for a in zip(*draws))
    fit = fit_market_model(firm[:, idx], market[:, idx], config)
    assert (fit.dropped == "").all()
    for k in range(200):
        alpha, beta = closed_form_ols(market[k, idx], firm[k, idx])
        assert fit.alpha[k] == pytest.approx(alpha, rel=1e-10, abs=1e-14)
        assert fit.beta[k] == pytest.approx(beta, rel=1e-10)
        resid = firm[k, idx] - (alpha + beta * market[k, idx])
        assert fit.resid_std[k] == pytest.approx(
            math.sqrt(float(resid @ resid) / (len(idx) - 2)), rel=1e-10
        )
        assert fit.market_mean[k] == pytest.approx(float(market[k, idx].mean()), rel=1e-10)


@st.composite
def fit_rows(draw):
    """One event's series and day: NaN gaps, windows partly or wholly off the
    series, constant markets, exact lines and constant firms among noisy fits."""
    n = 40
    kind = draw(st.sampled_from(["noise", "flat_market", "line", "flat_firm"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    market = rng.normal(0.0, 0.01, n)
    if kind == "flat_market":
        market[:] = float(rng.choice([0.004, -0.013, 0.1]))
    alpha, beta = float(rng.uniform(-2e-4, 2e-4)), float(rng.uniform(-2.0, 2.0))
    noise = draw(st.sampled_from([1e-6, 1e-3, 0.02]))
    firm = alpha + beta * market
    if kind in ("noise", "flat_market"):
        firm = firm + rng.normal(0.0, noise, n)
    elif kind == "flat_firm":
        firm = np.full(n, alpha + 0.002)
    gap_rate = draw(st.sampled_from([0.0, 0.1, 0.4, 0.7]))
    firm[rng.random(n) < gap_rate] = np.nan
    market[rng.random(n) < gap_rate / 4] = np.nan
    return firm, market, draw(st.integers(-5, n + 25))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(fit_rows(), min_size=1, max_size=8))
def test_stacked_fit_matches_scalar_oracle(rows):
    config = EstimationConfig(est_len=20, min_obs=12)
    offsets = config.est_offsets()
    firm = np.stack([window(f, i, offsets) for f, _, i in rows])
    market = np.stack([window(m, i, offsets) for _, m, i in rows])
    fit = fit_market_model(firm, market, config)
    for k, (f, m, i) in enumerate(rows):
        expected = oracle_fit(f, m, i, config)
        if isinstance(expected, str):
            assert fit.dropped[k] == expected
            continue
        assert fit.dropped[k] == ""
        alpha, beta, resid_std, market_mean, market_ssq, n_obs = expected
        ok = np.isfinite(firm[k]) & np.isfinite(market[k])
        y_scale = float(np.abs(firm[k][ok]).max())
        x_scale = float(np.abs(market[k][ok] - market_mean).max())
        # relative to the value, or to the data's scale where the value is near 0
        for got, want, scale in (
            (fit.alpha[k], alpha, y_scale),
            (fit.beta[k], beta, y_scale / x_scale),
            (fit.resid_std[k], resid_std, 0.0),
            (fit.market_mean[k], market_mean, x_scale),
            (fit.market_ssq[k], market_ssq, 0.0),
        ):
            assert abs(got - want) <= 1e-10 * max(abs(want), scale), (got, want)
        assert fit.n_obs[k] == n_obs


def test_fit_thin_history_drops():
    rng = np.random.default_rng(9)
    firm, market = simulated(rng)
    assert fit_one(firm, market, 50).dropped[0] == "thin estimation window"


def test_fit_tolerates_gaps_down_to_min_obs():
    rng = np.random.default_rng(10)
    firm, market = simulated(rng)
    firm[10:30] = np.nan  # 20 missing days still leaves 100 paired obs
    fit = fit_one(firm, market, 121)
    assert fit.dropped[0] == ""
    assert fit.n_obs[0] == 100
    firm[30] = np.nan  # 99 obs is below the floor
    assert fit_one(firm, market, 121).dropped[0] == "thin estimation window"


def test_fit_constant_market_drops():
    rng = np.random.default_rng(11)
    firm, _ = simulated(rng)
    market = np.full(130, 0.004)
    assert fit_one(firm, market, 121).dropped[0] == "degenerate regressor"


def test_fit_exact_line_drops():
    # a firm tracking the market exactly leaves zero residual variance,
    # so no standardization is possible
    rng = np.random.default_rng(12)
    market = rng.normal(0.0, 0.01, 130)
    firm = 1e-4 + 1.1 * market
    assert fit_one(firm, market, 121).dropped[0] == "degenerate residuals"


def test_fit_constant_firm_drops_exact_recovers_near():
    rng = np.random.default_rng(13)
    market = rng.normal(0.0, 0.01, 130)
    c = 0.002
    assert fit_one(np.full(130, c), market, 121).dropped[0] != ""
    # with a sliver of noise the fit is well posed: beta near 0, alpha near c
    firm = c + rng.normal(0.0, 1e-8, 130)
    fit = fit_one(firm, market, 121)
    assert fit.dropped[0] == ""
    assert abs(fit.beta[0]) < 1e-5
    assert fit.alpha[0] == pytest.approx(c, abs=1e-7)


FIT_FIXTURE = MarketModelFit(
    alpha=0.0, beta=2.0, resid_std=0.02,
    market_mean=0.0, market_ssq=0.01, n_obs=120, dropped="",
)


def test_abnormal_return_fixtures():
    assert abnormal_return(FIT_FIXTURE, 0.03, 0.01) == pytest.approx(0.01)
    assert abnormal_return(FIT_FIXTURE, 0.02, 0.01) == pytest.approx(0.0)
    flat = MarketModelFit(
        alpha=0.0, beta=0.0, resid_std=0.02,
        market_mean=0.0, market_ssq=0.01, n_obs=120, dropped="",
    )
    assert abnormal_return(flat, 0.017, 0.05) == pytest.approx(0.017)


def test_abnormal_return_and_standardize_broadcast_over_events():
    # two events; rows of the returns are days, columns events
    fit = MarketModelFit(
        alpha=np.array([0.0, 0.001]), beta=np.array([2.0, 0.5]),
        resid_std=np.array([0.02, 0.01]), market_mean=np.array([0.0, 0.002]),
        market_ssq=np.array([0.01, 0.02]), n_obs=np.array([120, 90]),
        dropped=np.array(["", ""]),
    )
    firm = np.array([[0.03, -0.01], [0.02, 0.004]])
    market = np.array([[0.01, 0.02], [-0.01, 0.0]])
    ar = abnormal_return(fit, firm, market)
    sar = standardize(fit, ar, market)
    for k in range(2):
        one = MarketModelFit(*(np.asarray(v)[k] for v in vars(fit).values()))
        for d in range(2):
            assert ar[d, k] == abnormal_return(one, firm[d, k], market[d, k])
            assert sar[d, k] == pytest.approx(standardize(one, ar[d, k], market[d, k]), rel=1e-15)


def test_standardize_fixture():
    # s = 0.02, n = 120, market demeaned ssq = 0.01, event market ret 0.01:
    # correction = 1 + 1/120 + 0.0001/0.01, SAR = -0.004 / (0.02 sqrt(...))
    sar = standardize(FIT_FIXTURE, -0.004, 0.01)
    assert sar == pytest.approx(-0.19819149595051527, rel=1e-12)


def test_standardize_zero_ar_is_zero():
    assert standardize(FIT_FIXTURE, 0.0, 0.03) == 0.0


def test_standardize_correction_vanishes_for_typical_day():
    # huge estimation sample, event day at the market mean: SAR -> AR / s
    fit = MarketModelFit(
        alpha=0.0, beta=1.0, resid_std=0.02,
        market_mean=0.003, market_ssq=1e9, n_obs=10**9, dropped="",
    )
    assert standardize(fit, -0.004, 0.003) == pytest.approx(-0.2, rel=1e-8)


def test_sar_invariant_under_firm_return_scaling():
    rng = np.random.default_rng(14)
    firm, market = simulated(rng)
    for k in (3.0, 0.25):
        fit1 = fit_one(firm, market, 121)
        fit2 = fit_one(k * firm, market, 121)
        ar1 = abnormal_return(fit1, firm[121], market[121])
        ar2 = abnormal_return(fit2, k * firm[121], market[121])
        assert ar2[0] == pytest.approx(k * ar1[0], rel=1e-9)
        sar1 = standardize(fit1, ar1, market[121])
        sar2 = standardize(fit2, ar2, market[121])
        assert sar2[0] == pytest.approx(sar1[0], rel=1e-9)


def test_compute_event_abnormals_collects_curve_offsets():
    rng = np.random.default_rng(15)
    firm, market = simulated(rng)
    ev = one_event(firm, market, 121)
    assert ev.offsets == range(-5, 6)
    assert ev.dropped[0] == ""
    assert np.isfinite(ev.sar).all()
    # spot check one offset against a by-hand prediction error
    fit = fit_one(firm, market, 121)
    expected = float(firm[121]) - fit.alpha[0] - fit.beta[0] * float(market[121])
    assert ev.ar[0, ev.offsets.index(0)] == pytest.approx(expected, rel=1e-12)


def test_compute_event_abnormals_missing_required_drops():
    rng = np.random.default_rng(16)
    firm, market = simulated(rng)
    firm[121] = np.nan  # offset 0 is required by the default windows
    ev = one_event(firm, market, 121)
    assert ev.dropped[0] == "missing event-window returns"
    assert np.isnan(ev.sar).all()


def test_compute_event_abnormals_tolerates_missing_curve_day():
    rng = np.random.default_rng(17)
    firm, market = simulated(rng)
    firm[121 - 4] = np.nan  # only the running-sum curve wants offset -4
    ev = one_event(firm, market, 121)
    assert ev.dropped[0] == ""
    assert np.isnan(ev.sar[0, ev.offsets.index(-4)])
    assert np.isfinite(ev.sar[0, ev.columns(-1, 1)]).all()
    assert np.isnan(ev.sar[0, ev.columns(-5, 5)]).sum() == 1


def test_compute_event_abnormals_truncated_event_window_drops():
    rng = np.random.default_rng(18)
    firm, market = simulated(rng, n=122)
    assert one_event(firm, market, 121).dropped[0] == "missing event-window returns"


def test_compute_event_abnormals_fit_drop_comes_first():
    rng = np.random.default_rng(16)
    firm, market = simulated(rng)
    firm[10:31] = np.nan  # thin estimation window
    firm[121] = np.nan  # and a missing event day
    assert one_event(firm, market, 121).dropped[0] == "thin estimation window"


def test_compute_event_abnormals_rows_match_single_events():
    # three firms on one market, four events on various rows and days, one of
    # them so early that its estimation window runs off the grid
    rng = np.random.default_rng(21)
    market = rng.normal(0.0, 0.01, 200)
    firms = np.stack([0.5 * k * market + rng.normal(0.0, 0.02, 200) for k in range(3)])
    firms[1, 100:110] = np.nan  # inside the estimation window of the day-150 event
    rows, days = [2, 0, 1, 2], [180, 130, 150, 60]
    stacked = compute_event_abnormals(firms, market, rows, days, EstimationConfig())
    assert list(stacked.dropped) == ["", "", "", "thin estimation window"]
    for k, (row, day) in enumerate(zip(rows, days)):
        single = one_event(firms[row], market, day)
        assert single.dropped[0] == stacked.dropped[k]
        np.testing.assert_array_equal(single.sar[0], stacked.sar[k])
    # one market row per firm row reads the same as the shared market
    per_row = compute_event_abnormals(firms, np.stack([market] * 3), rows, days, EstimationConfig())
    np.testing.assert_array_equal(per_row.sar, stacked.sar)


def oracle_compute_event_abnormals(firm_returns, market_returns, rows, days, config):
    """The former one-shot compute_event_abnormals: every event's fit
    temporaries at once. Kept as the reference for the blocked kernel."""
    rows = np.asarray(rows, dtype=np.intp)
    days = np.asarray(days, dtype=np.intp)
    market_grid = np.atleast_2d(market_returns)
    market_rows = rows[:, None] if len(market_grid) > 1 else 0

    def windows(offsets):
        cols = days[:, None] + np.asarray(offsets, dtype=np.intp)
        return study._take(firm_returns, rows[:, None], cols), study._take(market_grid, market_rows, cols)

    fit = fit_market_model(*windows(config.est_offsets()), config)
    required = config.required_offsets()
    span = (-config.curve_span, *required, config.curve_span)
    offsets = range(min(span), max(span) + 1)
    firm, market = (w.T for w in windows(offsets))
    with np.errstate(divide="ignore", invalid="ignore"):
        ar = abnormal_return(fit, firm, market)
        sar = standardize(fit, ar, market)
    ar, sar = ar.T, sar.T
    need = [off - offsets.start for off in required]
    missing = np.isnan(ar[:, need]).any(axis=1)
    dropped = np.where((fit.dropped == "") & missing, "missing event-window returns", fit.dropped)
    ar[dropped != ""] = sar[dropped != ""] = np.nan
    return EventAbnormals(offsets, ar, sar, dropped)


def kernel_panel(rng, n_events):
    """(firms, market, rows, days) of 8 firms x 600 days with n_events events.

    Event k is, by k % 5: a thin estimation window (row 7 has no returns on
    days 150-299), a degenerate regressor (the market is constant on days
    0-129), a missing event-day return (row 6 has none on days 400-419), or,
    for 3 and 4, a usable event on rows 0-5. So every kind of drop falls on
    both sides of each block boundary.
    """
    market = rng.normal(0.0, 0.01, 600)
    market[:130] = 0.001
    firms = 2e-4 + rng.uniform(0.8, 1.2, (8, 1)) * market + rng.normal(0.0, 0.02, (8, 600))
    firms[7, 150:300] = np.nan
    firms[6, 400:420] = np.nan
    kinds = np.arange(n_events) % 5
    rows = np.where(kinds == 0, 7, np.where(kinds == 2, 6, rng.integers(0, 6, n_events)))
    days = np.select(
        [kinds == 0, kinds == 1, kinds == 2],
        [rng.integers(300, 341, n_events), rng.integers(121, 132, n_events),
         rng.integers(402, 420, n_events)],
        rng.integers(200, 590, n_events),
    )
    return firms, market, rows, days


@pytest.mark.parametrize("shared_market", [True, False], ids=["shared-market", "market-per-row"])
@pytest.mark.parametrize("extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 3)],
                         ids=["0", "1", "C-1", "C", "C+1", "2C+3"])
def test_blocked_kernel_matches_one_shot(extra, shared_market):
    blocks, plus = extra
    n = blocks * study._BLOCK + plus
    firms, market, rows, days = kernel_panel(np.random.default_rng(n), n)
    if not shared_market:
        market = np.stack([market] * len(firms))
    got = compute_event_abnormals(firms, market, rows, days, EstimationConfig())
    want = oracle_compute_event_abnormals(firms, market, rows, days, EstimationConfig())
    assert got.offsets == want.offsets
    for name in ("ar", "sar", "dropped"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    if n >= study._BLOCK + 5:  # each kind of event within 5 of the first boundary, both sides
        before, after = got.dropped[study._BLOCK - 5:study._BLOCK], got.dropped[study._BLOCK:][:5]
        assert set(before.tolist()) == set(after.tolist()) == {"", "thin estimation window", "degenerate regressor",
                           "missing event-window returns"}


def test_kernel_memory_beyond_outputs_does_not_grow():
    """Traced peak minus the output arrays, at 1x and 8x the events."""
    rng = np.random.default_rng(5)
    firms, market, *_ = kernel_panel(rng, 0)

    def overhead(n):
        rows, days = rng.integers(0, 6, n), rng.integers(200, 590, n)
        tracemalloc.start()
        try:
            out = compute_event_abnormals(firms, market, rows, days, EstimationConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - out.ar.nbytes - out.sar.nbytes - out.dropped.nbytes

    small, large = overhead(2 * study._BLOCK), overhead(16 * study._BLOCK)
    assert large < 1.1 * small + 65536, (small, large)


def events_with(*sar_rows):
    """Studied events from {offset: SAR} dicts over offsets -5..5; each AR is
    0.02 x its SAR and an absent offset reads NaN."""
    offsets = range(-5, 6)
    sar = np.array([[row.get(off, np.nan) for off in offsets] for row in sar_rows])
    sar = sar.reshape(len(sar_rows), len(offsets))
    return EventAbnormals(offsets, 0.02 * sar, sar, np.full(len(sar_rows), ""))


def test_car_and_scar_windows():
    config = EstimationConfig(event_windows=((-1, 1), (-1, 0), (0, 0)))
    ev = events_with({-1: 0.5, 0: -2.0, 1: 0.3})
    res = aggregate_node(Node.ESG_ALL, ev, config)
    assert res.stats["SCAAR", (-1, 1)][0] == pytest.approx(-1.2)
    assert res.stats["SCAAR", (-1, 0)][0] == pytest.approx(-1.5)
    assert res.stats["SCAAR", (0, 0)][0] == pytest.approx(-2.0)
    assert res.stats["CAAR", (-1, 1)][0] == pytest.approx(0.02 * -1.2)
    normed = aggregate_node(Node.ESG_ALL, ev, EstimationConfig(scar_normalize=True))
    assert normed.stats["SCAAR", (-1, 1)][0] == pytest.approx(-1.2 / math.sqrt(3))


def test_bmp_tstat_fixture():
    assert bmp_tstat([1.0, 2.0, 3.0]) == pytest.approx(3.4641016151377544, rel=1e-12)
    assert bmp_tstat([1.0, 2.0, 3.0]) == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)


def test_bmp_tstat_undefined_cases():
    assert bmp_tstat([0.7]) is None
    assert bmp_tstat([]) is None
    assert bmp_tstat([0.5, 0.5, 0.5]) is None
    # 0.4 is inexact in binary; identical values must still read as
    # zero dispersion rather than produce a t in the quadrillions
    assert bmp_tstat([0.4, 0.4, 0.4]) is None
    assert bmp_tstat([0.0, 0.0]) is None


def test_bmp_tstat_symmetries():
    rng = np.random.default_rng(19)
    values = rng.normal(0.5, 1.0, 40).tolist()
    t = bmp_tstat(values)
    assert bmp_tstat([-v for v in values]) == pytest.approx(-t)
    assert bmp_tstat([7.0 * v for v in values]) == pytest.approx(t, rel=1e-12)
    assert bmp_tstat([-1.0, 0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)


def test_scaar_curve_running_sum():
    config = EstimationConfig(curve_span=1)
    curve = aggregate_node(Node.ESG_ALL, events_with({-1: 0.1, 0: -0.2, 1: 0.1}), config).curve
    assert [off for off, _ in curve] == [-1, 0, 1]
    assert curve[0][1] == pytest.approx(0.1)
    assert curve[1][1] == pytest.approx(-0.1)
    assert curve[2][1] == pytest.approx(0.0, abs=1e-15)
    assert aggregate_node(Node.ESG_ALL, events_with(), config).curve == ()


def test_aggregate_node_means_and_additivity():
    rng = np.random.default_rng(20)
    config = EstimationConfig()
    events = events_with(*(
        {off: float(rng.normal(-0.5, 1.0)) for off in range(-5, 6)}
        for _ in range(9)
    ))
    result = aggregate_node(Node.CLIMATE_CHANGE, events, config)
    assert result.n == 9
    assert result.stats["SAAR", 0][0] == pytest.approx(np.mean(events.sar[:, 5]), rel=1e-12)
    # window sums decompose into per-offset averages over the same events
    assert result.stats["SCAAR", (-1, 1)][0] == pytest.approx(
        result.stats["SCAAR", (-1, 0)][0] + result.stats["SAAR", 1][0], abs=1e-12
    )
    assert result.stats["CAAR", (-1, 1)][0] == pytest.approx(
        result.stats["CAAR", (-1, 0)][0] + result.stats["AAR", 1][0], abs=1e-12
    )
    assert result.curve_n == 9
    assert result.curve[-1][1] == pytest.approx(
        sum(
            result.stats.get(("SAAR", off), (np.mean(events.sar[:, off + 5]),))[0]
            for off in range(-5, 6)
        ),
        rel=1e-9,
    )


def test_aggregate_node_empty():
    result = aggregate_node(Node.ESG_ALL, events_with(), EstimationConfig())
    assert result.n == 0
    assert result.stats == {}
    assert result.curve == () and result.curve_n == 0


def test_aggregate_node_single_event_has_no_t():
    events = events_with({off: 0.3 for off in range(-5, 6)})
    result = aggregate_node(Node.HUMAN_CAPITAL, events, EstimationConfig())
    assert result.n == 1
    assert result.stats["SAAR", 0][0] == pytest.approx(0.3)
    assert result.stats["SAAR", 0][1] is None
    assert result.stats["SCAAR", (-1, 1)][1] is None


def test_aggregate_node_curve_skips_partial_events():
    full = {off: 0.1 for off in range(-5, 6)}
    partial = {off: 9.9 for off in (-1, 0, 1)}
    result = aggregate_node(Node.ESG_ALL, events_with(full, partial), EstimationConfig())
    assert result.n == 2
    assert result.curve_n == 1
    # curve built from the fully covered event only
    assert result.curve[0] == (-5, pytest.approx(0.1))
    assert result.curve[-1][1] == pytest.approx(1.1)
    # but the headline stats still use both events
    assert result.stats["SAAR", 0][0] == pytest.approx(5.0)


def test_scar_normalization_flag():
    events = events_with(*({off: float(v) for off in range(-5, 6)} for v in (0.2, -1.0, 0.7)))
    plain = aggregate_node(Node.ESG_ALL, events, EstimationConfig())
    normed = aggregate_node(Node.ESG_ALL, events, EstimationConfig(scar_normalize=True))
    for window, length in (((-1, 1), 3), ((-1, 0), 2)):
        expected = plain.stats["SCAAR", window][0] / math.sqrt(length)
        assert normed.stats["SCAAR", window][0] == pytest.approx(expected, rel=1e-12)
