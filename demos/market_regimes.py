#!/usr/bin/env python3
"""Local versus global news regimes.

Each step one trade happens: a context direction is drawn, the state
collapses, the price is read off the collapsed state.  With local news the
contexts wander around the current state; with global news every trader's
context aligns with a shared news direction, and with zero noise that
alignment is perfect herding: all trades repeat the same outcome.
"""

import math

import numpy as np

from spheremarket import (
    GbmParams,
    GlobalRegime,
    LocalRegime,
    MarketConfig,
    NewsSeries,
    UniformRho,
    compare_with_gbm,
    run_market,
    summary_stats,
)

BASE = dict(rho=UniformRho(), n_steps=2000, seed=17,
            price_min=50.0, price_max=150.0)

print("=== local regime: uncoordinated traders ===")
local_cfg = MarketConfig(regime=LocalRegime(noise_angle=0.6), **BASE)
local = run_market(local_cfg)
stats = summary_stats(local)
print(f"trades: {stats.n_prices}, mean log return {stats.mean:+.2e}, "
      f"variance {stats.variance:.2e}")
print(f"excess kurtosis: {stats.excess_kurtosis:+.3f}")
print(f"lag-1 return autocorrelation: {stats.acf_returns[0]:+.3f}")

print("\n=== global regime: shared news direction with small noise ===")
news = NewsSeries(kind="constant", angle=0.8)
global_cfg = MarketConfig(regime=GlobalRegime(news=news, noise_angle=0.15), **BASE)
global_trades = run_market(global_cfg)
gstats = summary_stats(global_trades)
print(f"mean log return {gstats.mean:+.2e}, variance {gstats.variance:.2e}")
print(f"excess kurtosis: {gstats.excess_kurtosis:+.3f}")
share_o1 = global_trades.o1.mean()
print(f"fraction of trades agreeing with the news side: {share_o1:.3f}")

print("\n=== perfect herding: global news, zero noise ===")
herd_cfg = MarketConfig(regime=GlobalRegime(news=news, noise_angle=0.0), **BASE)
herd = run_market(herd_cfg)
prices = np.unique(herd.price)
print(f"distinct realized prices over {len(herd)} trades: {prices.size}")
print("after the first collapse the context never moves the state again")

print("\n=== side-by-side with the random-walk baseline ===")
cmp_cfg = MarketConfig(rho=UniformRho(), n_steps=5000, seed=23,
                       regime=LocalRegime(noise_angle=0.4))
gbm = GbmParams(s0=100.0, drift=0.02, sigma=0.2, horizon=5000 / 252.0, steps=5000)
report = compare_with_gbm(cmp_cfg, gbm)
sphere, walk = report["sphere_stats"], report["gbm_stats"]
print(f"{'':>24}{'sphere market':>16}{'gbm baseline':>16}")
for label, key in (("variance", "var_log_return"),
                   ("excess kurtosis", "excess_kurtosis"),
                   ("lag-1 acf", None)):
    if key:
        print(f"{label:>24}{sphere[key]:>16.3e}{walk[key]:>16.3e}")
    else:
        print(f"{label:>24}{sphere['acf_returns'][0]:>16.3f}"
              f"{walk['acf_returns'][0]:>16.3f}")
scan = report["direction_scan"]
print(f"\ncontext-spacing feasibility scan: theta = "
      f"{math.degrees(scan['theta']):.1f} deg -> {scan['verdict']}")
print("the trading statistics themselves carry the classical/non-classical flag")
