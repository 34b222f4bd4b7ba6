"""Trading as contextual measurement.

A stock's price is actualized only when it trades: each step draws a trade
context (a measurement direction), collapses the state with an elastic
measurement and reads the realized price off the collapsed state.  In the
local regime contexts wander around the current state (uncoordinated
traders); in the global regime every context aligns with a shared news
direction up to noise, the herding limit when the noise vanishes.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import block_kind, count, items, number, parse_block, require_finite
from .geometry import UnitVector3, angle_between, dot, from_polar, perturb, sample_uniform
from .kolmogorov_check import sphere_bell_scan
from .pricing import GbmParams, gbm_path_matrix
from .sphere_model import (
    MeasurementOutcome,
    RhoDistribution,
    simulate_measurement,
)
from .streams import map_chunks

ACF_LAGS = 10
MIN_TRADES = 30


@dataclass(frozen=True)
class NewsSeries:
    """Polar angle of the news direction per step: angle + rate * step,
    in the azimuth-zero plane."""

    kind: str = "constant"
    angle: float = 0.0
    rate: float = 0.0

    def __post_init__(self):
        require_finite(self, "angle", "rate")
        if self.kind not in ("constant", "drift"):
            raise ValueError(f"unknown news series kind: {self.kind!r}")
        if self.kind == "constant" and self.rate != 0.0:
            raise ValueError("constant news cannot have a drift rate")

    def direction(self, step: int) -> UnitVector3:
        return from_polar(self.angle + self.rate * step, 0.0)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "angle": self.angle, "rate": self.rate}

    @staticmethod
    def from_dict(d: dict) -> "NewsSeries":
        return NewsSeries(**parse_block(d, "news", optional={"kind": None, "angle": number,
                                                             "rate": number}))


def _check_noise(noise_angle: float):
    if not 0.0 <= noise_angle <= math.pi:
        raise ValueError("noise_angle must lie in [0, pi]")


@dataclass(frozen=True)
class LocalRegime:
    """Contexts wander around the current state by at most noise_angle.

    Each context is the state rotated by alpha ~ U[0, noise_angle] about a
    uniformly random axis k (``geometry.perturb``).  The angle gamma between
    context and state is therefore not U[0, noise_angle]: with v the state,
    cos gamma = cos alpha + (1 - cos alpha) (k.v)^2, so for the uniform
    elastic the O1 rate is (4/3 + (2/3) sin(a) / a) / 2 at noise_angle a.
    """

    noise_angle: float

    def __post_init__(self):
        _check_noise(self.noise_angle)

    def to_dict(self) -> dict:
        return {"kind": "local", "noise_angle": self.noise_angle}


@dataclass(frozen=True)
class GlobalRegime:
    """Contexts align with the shared news direction up to noise_angle."""

    news: NewsSeries
    noise_angle: float

    def __post_init__(self):
        _check_noise(self.noise_angle)

    def to_dict(self) -> dict:
        return {"kind": "global", "noise_angle": self.noise_angle,
                "news": self.news.to_dict()}


def regime_from_dict(d: dict):
    fields = {"kind": None, "noise_angle": number}
    if block_kind(d, "regime", ("local", "global")) == "local":
        return LocalRegime(noise_angle=parse_block(d, "regime", required=fields)["noise_angle"])
    p = parse_block(d, "regime", required={**fields, "news": None})
    return GlobalRegime(news=NewsSeries.from_dict(p["news"]), noise_angle=p["noise_angle"])


@dataclass(frozen=True)
class MarketConfig:
    rho: RhoDistribution
    n_steps: int
    regime: LocalRegime | GlobalRegime
    seed: int
    price_axis: UnitVector3 = UnitVector3(0.0, 0.0, 1.0)
    price_min: float = 50.0
    price_max: float = 150.0

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be positive")
        require_finite(self, "price_min", "price_max")
        if not self.price_min < self.price_max:
            raise ValueError("price_min must be below price_max")
        if self.price_min <= 0:
            raise ValueError("price_min must be positive (log returns)")

    def to_dict(self) -> dict:
        return {
            "rho": self.rho.to_dict(),
            "n_steps": self.n_steps,
            "regime": self.regime.to_dict(),
            "seed": self.seed,
            "price_axis": [self.price_axis.x, self.price_axis.y, self.price_axis.z],
            "price_min": self.price_min,
            "price_max": self.price_max,
        }

    @staticmethod
    def from_dict(d: dict) -> "MarketConfig":
        p = parse_block(
            d, "market",
            required={"rho": None, "n_steps": count, "regime": None, "seed": count},
            optional={"price_axis": lambda v, name: UnitVector3.normalized(*items(number, v, name, 3)),
                      "price_min": number, "price_max": number},
        )
        p["rho"] = RhoDistribution.from_dict(p["rho"])
        p["regime"] = regime_from_dict(p["regime"])
        return MarketConfig(**p)


@dataclass(frozen=True)
class TradeRecord:
    step: int
    direction: UnitVector3
    outcome: MeasurementOutcome
    realized_price: float


def price_of_state(cfg: MarketConfig, s: UnitVector3) -> float:
    """Affine in the projection on the price axis: price_min at -axis,
    price_max at +axis."""
    frac = (1.0 + dot(s, cfg.price_axis)) / 2.0
    return cfg.price_min + (cfg.price_max - cfg.price_min) * frac


def _trade_direction(cfg: MarketConfig, state: UnitVector3, step: int,
                     rng: np.random.Generator) -> UnitVector3:
    regime = cfg.regime
    if isinstance(regime, LocalRegime):
        return perturb(state, regime.noise_angle, rng)
    return perturb(regime.news.direction(step), regime.noise_angle, rng)


def _run_with_rng(cfg: MarketConfig, rng: np.random.Generator) -> list[TradeRecord]:
    state = sample_uniform(rng)
    trades = []
    for step in range(cfg.n_steps):
        direction = _trade_direction(cfg, state, step, rng)
        outcome = simulate_measurement(cfg.rho, state, direction, rng)
        state = outcome.collapsed_state
        trades.append(TradeRecord(step=step, direction=direction, outcome=outcome,
                                  realized_price=price_of_state(cfg, state)))
    return trades


def run_market(cfg: MarketConfig) -> list[TradeRecord]:
    """One market history; fully determined by (config, seed)."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    return _run_with_rng(cfg, rng)


def run_market_ensemble(cfg: MarketConfig, n_runs: int,
                        n_workers: int = 1) -> list[list[TradeRecord]]:
    """Independent runs; member r is chunk r of the counter-based streams of
    ``streams.map_chunks``, so the ensemble is identical for any worker
    count."""
    if n_runs < 1:
        raise ValueError("n_runs must be positive")
    return map_chunks(lambda rng, lo, size: _run_with_rng(cfg, rng), n_runs, 1, cfg.seed, n_workers)


@dataclass(frozen=True)
class SeriesSummary:
    """Moments and autocorrelations of a log-return series.

    mean is the sample mean; variance the unbiased (n-1) estimator;
    excess kurtosis the moment ratio m4/m2^2 - 3 with biased central
    moments, None (flagged) for constant series.  acf lag k is
    [sum_t (x_t - xbar)(x_{t+k} - xbar) / (n - k)] / [sum_t (x_t - xbar)^2 / n].
    """

    n_prices: int
    n_returns: int
    mean: float
    variance: float
    excess_kurtosis: Optional[float]
    kurtosis_defined: bool
    acf_returns: tuple
    acf_abs_returns: tuple

    def to_dict(self) -> dict:
        return {
            "n_prices": self.n_prices,
            "n_returns": self.n_returns,
            "mean_log_return": self.mean,
            "var_log_return": self.variance,
            "excess_kurtosis": self.excess_kurtosis,
            "kurtosis_defined": self.kurtosis_defined,
            "acf_returns": list(self.acf_returns),
            "acf_abs_returns": list(self.acf_abs_returns),
        }


def _acf(x: np.ndarray, lags: int) -> tuple:
    n = x.size
    xc = x - x.mean()
    denom = float(np.dot(xc, xc)) / n
    if denom == 0.0:
        return tuple(float("nan") for _ in range(lags))
    out = []
    for k in range(1, lags + 1):
        if n - k < 1:
            out.append(float("nan"))
            continue
        num = float(np.dot(xc[:-k], xc[k:])) / (n - k)
        out.append(num / denom)
    return tuple(out)


def summary_from_prices(prices: np.ndarray) -> SeriesSummary:
    prices = np.asarray(prices, dtype=float)
    if prices.size < MIN_TRADES:
        raise ValueError(f"need at least {MIN_TRADES} prices")
    if np.any(prices <= 0):
        raise ValueError("prices must be positive for log returns")
    x = np.diff(np.log(prices))
    mean = float(x.mean())
    variance = float(x.var(ddof=1))
    xc = x - x.mean()
    m2 = float(np.mean(xc ** 2))
    if m2 == 0.0:
        kurt, defined = None, False
    else:
        kurt, defined = float(np.mean(xc ** 4) / m2 ** 2 - 3.0), True
    return SeriesSummary(
        n_prices=prices.size,
        n_returns=x.size,
        mean=mean,
        variance=variance,
        excess_kurtosis=kurt,
        kurtosis_defined=defined,
        acf_returns=_acf(x, ACF_LAGS),
        acf_abs_returns=_acf(np.abs(x), ACF_LAGS),
    )


def summary_stats(trades: list[TradeRecord]) -> SeriesSummary:
    """Summary of the realized-price series of a market run (>= 30 trades)."""
    prices = np.array([t.realized_price for t in trades])
    return summary_from_prices(prices)


def representative_scan_angle(trades: list[TradeRecord]) -> float:
    """Median angle between consecutive trade directions, clamped into
    (0, pi); the spacing used for the three-direction feasibility scan."""
    dirs = [t.direction for t in trades]
    gaps = [angle_between(a, b) for a, b in zip(dirs, dirs[1:])]
    theta = statistics.median(gaps) if gaps else 0.0
    return min(max(theta, 1e-6), math.pi - 1e-6)


def compare_with_gbm(cfg: MarketConfig, gbm: GbmParams) -> dict:
    """``compare_trades_with_gbm`` on a fresh ``run_market(cfg)``."""
    return compare_trades_with_gbm(cfg, run_market(cfg), gbm)


def compare_trades_with_gbm(cfg: MarketConfig, trades: list[TradeRecord], gbm: GbmParams) -> dict:
    """Side-by-side statistics of the sphere market run ``trades`` of
    ``cfg`` and a GBM path.

    Step counts must match.  The GBM path uses the derived seed
    cfg.seed + 1.  The report also carries the classical-feasibility
    verdict of the agreement table for three coplanar directions spaced by
    the run's representative context angle.
    """
    if gbm.steps != cfg.n_steps:
        raise ValueError("gbm.steps must match cfg.n_steps")
    sphere_summary = summary_stats(trades)
    _, values = gbm_path_matrix(gbm, 1, seed=cfg.seed + 1)
    gbm_summary = summary_from_prices(values[0])
    theta = representative_scan_angle(trades)
    scan = sphere_bell_scan(cfg.rho, theta, seed=cfg.seed)
    return {
        "config": cfg.to_dict(),
        "gbm": gbm.to_dict(),
        "sphere_stats": sphere_summary.to_dict(),
        "gbm_stats": gbm_summary.to_dict(),
        "direction_scan": scan.to_dict(),
    }


def trades_to_csv(fileobj, trades: list[TradeRecord]):
    """Trade log as RFC-4180 CSV: step, direction components, outcome, price."""
    writer = csv.writer(fileobj)
    writer.writerow(["step", "ux", "uy", "uz", "outcome", "price"])
    for t in trades:
        writer.writerow([
            t.step,
            repr(t.direction.x), repr(t.direction.y), repr(t.direction.z),
            str(t.outcome.label),
            repr(t.realized_price),
        ])
