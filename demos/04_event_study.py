"""
Market-model event study on simulated return panels
===================================================

Fits the market model on a 120-day pre-event window, converts event-day
returns into abnormal and standardized abnormal returns, and aggregates
them across events. Two panels are compared: one with no effect and one
with a -0.5% return injected on the event day.
"""

import numpy as np

from esgrisk.study import (
    EstimationConfig,
    abnormal_return,
    aggregate_node,
    bmp_tstat,
    compute_event_abnormals,
    fit_market_model,
    standardize,
)
from esgrisk.synth import simulate_event_panel
from esgrisk.taxonomy import Node

config = EstimationConfig()  # 120-day window ending 2 days before the event

# --- one event in detail ----------------------------------------------
# The study works on stacked events: one row per event, here a single row.
rng = np.random.default_rng(3)
firm, market, idx = (a[0] for a in simulate_event_panel(rng, 1, injected_ar=-0.005))

est = idx + np.asarray(config.est_offsets())
fit = fit_market_model(firm[None, est], market[None, est], config)
print(f"fitted model: alpha {fit.alpha[0]:+.6f}, beta {fit.beta[0]:.3f}, "
      f"residual std {fit.resid_std[0]:.4f}, {fit.n_obs[0]} obs")

ar = abnormal_return(fit, firm[idx], market[idx])[0]
sar = standardize(fit, ar, market[idx])[0]
print(f"event day: return {firm[idx]:+.4f}, market {market[idx]:+.4f}, "
      f"AR {ar:+.4f}, SAR {sar:+.3f}")

# --- panels of 400 events ---------------------------------------------
for label, injected in (("null", 0.0), ("injected -0.5%", -0.005)):
    rng = np.random.default_rng(99)  # same seed, so only the injection differs
    # each simulated event has its own firm and market series: one row each
    firms, markets, days = simulate_event_panel(rng, 400, post_days=5, injected_ar=injected)
    events = compute_event_abnormals(firms, markets, np.arange(len(days)), days, config)
    res = aggregate_node(Node.ESG_ALL, events.take(events.dropped == ""), config)
    t0 = bmp_tstat(events.sar[:, events.offsets.index(0)])
    print(f"\npanel '{label}' ({res.n} events)")
    scaar, t_scaar = res.stats["SCAAR", (-1, 1)]
    print(f"  AAR(0)        {res.stats['AAR', 0][0]:+.5f}   t {t0:+.2f}")
    print(f"  SCAAR[-1;+1]  {scaar:+.3f}    t {t_scaar:+.2f}")
    print("  running SCAAR curve over [-5;+5]:")
    for off, val in res.curve:
        bar = "#" * int(abs(val) * 4)
        print(f"    {off:+d}: {val:+7.3f} {bar}")
