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
import itertools
import math
import statistics
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import (
    FieldError,
    block_kind,
    build,
    count,
    number,
    parse_block,
    require_finite,
    unit_vector,
)
from .geometry import (
    UnitVector3,
    _check_unit_rows,
    _dot,
    _on_sphere,
    _polar,
    _rotate,
    _xyz,
    sample_uniform,
)
from .kolmogorov_check import sphere_bell_scan
from .pricing import GbmParams, gbm_path_matrix
from .sphere_model import MeasurementOutcome, OutcomeLabel, RhoDistribution
from .streams import map_chunks

ACF_LAGS = 10
MIN_TRADES = 30
BLOCK_STEPS = 128  # steps whose uniforms one rng.random call draws
_TWO_PI = 2.0 * math.pi


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
            raise FieldError("kind", f"must be 'constant' or 'drift', got {self.kind!r}")
        if self.kind == "constant" and self.rate != 0.0:
            raise FieldError("rate", "must be 0: constant news cannot drift")

    def direction(self, step: int) -> UnitVector3:
        return UnitVector3(*self._direction_xyz(step))

    def _direction_xyz(self, step: int) -> tuple:
        return _polar(self.angle + self.rate * step, 0.0)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "angle": self.angle, "rate": self.rate}

    @staticmethod
    def from_dict(d: dict, path: str = "news") -> "NewsSeries":
        return build(NewsSeries, path, parse_block(d, path, optional={
            "kind": None, "angle": number, "rate": number}))


def _check_noise(noise_angle: float):
    if not 0.0 <= noise_angle <= math.pi:
        raise FieldError("noise_angle", f"must lie in [0, pi], got {noise_angle!r}")


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


def regime_from_dict(d: dict, path: str = "regime"):
    fields = {"kind": None, "noise_angle": number}
    if block_kind(d, path, ("local", "global")) == "local":
        p = parse_block(d, path, required=fields)
        return build(LocalRegime, path, {"noise_angle": p["noise_angle"]})
    p = parse_block(d, path, required={**fields, "news": None})
    return build(GlobalRegime, path, {"news": NewsSeries.from_dict(p["news"], f"{path}.news"),
                                      "noise_angle": p["noise_angle"]})


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
            raise FieldError("n_steps", "must be positive")
        require_finite(self, "price_min", "price_max")
        if not self.price_min < self.price_max:
            raise FieldError("price_min", "must be below price_max")
        if self.price_min <= 0:
            raise FieldError("price_min", "must be positive (log returns)")

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
    def from_dict(d: dict, path: str = "market") -> "MarketConfig":
        """The config of block ``d``; errors name keys under ``path``."""
        p = parse_block(
            d, path,
            required={"rho": None, "n_steps": count, "regime": None, "seed": count},
            optional={"price_axis": unit_vector, "price_min": number, "price_max": number},
        )
        p["rho"] = RhoDistribution.from_dict(p["rho"], f"{path}.rho")
        p["regime"] = regime_from_dict(p["regime"], f"{path}.regime")
        return build(MarketConfig, path, p)


@dataclass(frozen=True)
class TradeRecord:
    step: int
    direction: UnitVector3
    outcome: MeasurementOutcome
    realized_price: float


def _record(step: int, xyz: list, o1: bool, break_point: float, price: float) -> TradeRecord:
    u = UnitVector3(*xyz)
    outcome = (MeasurementOutcome(OutcomeLabel.O1, u, break_point) if o1
               else MeasurementOutcome(OutcomeLabel.O2, -u, break_point))
    return TradeRecord(step=step, direction=u, outcome=outcome, realized_price=price)


@dataclass(frozen=True, eq=False)
class TradeLog(Sequence):
    """A market history as columns, one row per trade: the step, the context
    direction (n, 3), whether the outcome was O1 (the state collapsed onto
    the direction; O2 onto its antipode), the elastic's break point and the
    realized price.

    Indexing and iteration build ``TradeRecord`` views on demand; a slice is
    a ``TradeLog`` of the column slices.  Two logs are equal when every
    column is; a log equals a list of records that equals its views.
    """

    step: np.ndarray
    direction: np.ndarray
    o1: np.ndarray
    break_point: np.ndarray
    price: np.ndarray

    def __post_init__(self):
        _check_unit_rows(self.direction)

    def _columns(self) -> tuple:
        return self.step, self.direction, self.o1, self.break_point, self.price

    def __len__(self) -> int:
        return len(self.step)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return TradeLog(*(c[i] for c in self._columns()))
        return _record(int(self.step[i]), self.direction[i].tolist(), bool(self.o1[i]),
                       float(self.break_point[i]), float(self.price[i]))

    def __iter__(self):
        return itertools.starmap(_record, zip(*(c.tolist() for c in self._columns())))

    def __eq__(self, other):
        if isinstance(other, TradeLog):
            return all(np.array_equal(a, b) for a, b in zip(self._columns(), other._columns()))
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented


def _pricer(cfg: MarketConfig):
    """The function from an (x, y, z) state to its price under ``cfg``."""
    axis, low, span = _xyz(cfg.price_axis), cfg.price_min, cfg.price_max - cfg.price_min
    return lambda s: low + span * ((1.0 + _dot(s, axis)) / 2.0)


def price_of_state(cfg: MarketConfig, s: UnitVector3) -> float:
    """Affine in the projection on the price axis: price_min at -axis,
    price_max at +axis."""
    return _pricer(cfg)(_xyz(s))


def _run_with_rng(cfg: MarketConfig, rng: np.random.Generator) -> TradeLog:
    """The initial state, then the steps in blocks of BLOCK_STEPS, each block
    drawing its uniforms with one ``rng.random`` call.

    Row t of a block holds step t's uniforms in the order of the scalar
    draws they stand for: the context's z, phi and angle (``perturb``) when
    noise_angle > 0, then the break point's ``rho.draws``.  Each column goes
    through its scalar draw's arithmetic, so the history is bit for bit the
    one those draws give.  States and contexts stay (x, y, z) tuples run
    through the ``geometry`` kernels; the collapse is ``break_elastic``'s.
    """
    regime, rho = cfg.regime, cfg.rho
    noise = regime.noise_angle
    news = None if isinstance(regime, LocalRegime) else regime.news
    width = (3 if noise > 0.0 else 0) + rho.draws
    price = _pricer(cfg)
    state = _xyz(sample_uniform(rng))
    directions, o1, prices, breaks = [], [], [], []
    for start in range(0, cfg.n_steps, BLOCK_STEPS):
        steps = range(start, min(start + BLOCK_STEPS, cfg.n_steps))
        u = rng.random((len(steps), width))
        breaks.append(rho.quantile(u[:, -1] if rho.draws else np.zeros(len(steps))))
        if noise > 0.0:
            kicks = zip((-1.0 + 2.0 * u[:, 0]).tolist(), (_TWO_PI * u[:, 1]).tolist(),
                        (noise * u[:, 2]).tolist())
        else:
            kicks = itertools.repeat(None)
        for step, x, kick in zip(steps, breaks[-1].tolist(), kicks):
            center = state if news is None else news._direction_xyz(step)
            d = center if kick is None else _rotate(center, _on_sphere(kick[0], kick[1]), kick[2])
            hit = x < _dot(state, d)
            state = d if hit else (-d[0], -d[1], -d[2])
            directions.append(d)
            o1.append(hit)
            prices.append(price(state))
    return TradeLog(step=np.arange(cfg.n_steps), direction=np.array(directions),
                    o1=np.array(o1), break_point=np.concatenate(breaks), price=np.array(prices))


def run_market(cfg: MarketConfig) -> TradeLog:
    """One market history; fully determined by (config, seed)."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    return _run_with_rng(cfg, rng)


def run_market_ensemble(cfg: MarketConfig, n_runs: int,
                        n_workers: int = 1) -> list[TradeLog]:
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


def summary_stats(trades: TradeLog) -> SeriesSummary:
    """Summary of the realized-price series of a market run (>= 30 trades)."""
    return summary_from_prices(trades.price)


def representative_scan_angle(trades: TradeLog) -> float:
    """Median angle between consecutive trade directions, clamped into
    (0, pi); the spacing used for the three-direction feasibility scan."""
    dirs = trades.direction.tolist()
    gaps = [math.acos(_dot(a, b)) for a, b in zip(dirs, dirs[1:])]
    theta = statistics.median(gaps) if gaps else 0.0
    return min(max(theta, 1e-6), math.pi - 1e-6)


def compare_with_gbm(cfg: MarketConfig, gbm: GbmParams) -> dict:
    """``compare_trades_with_gbm`` on a fresh ``run_market(cfg)``."""
    return compare_trades_with_gbm(cfg, run_market(cfg), gbm)


def compare_trades_with_gbm(cfg: MarketConfig, trades: TradeLog, gbm: GbmParams) -> dict:
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


def trades_to_csv(fileobj, trades: TradeLog):
    """Trade log as RFC-4180 CSV: step, direction components, outcome, price.

    Floats are written as their ``repr``, the shortest string that reads
    back to the same double."""
    writer = csv.writer(fileobj)
    writer.writerow(["step", "ux", "uy", "uz", "outcome", "price"])
    labels = (str(OutcomeLabel.O2), str(OutcomeLabel.O1))
    writer.writerows(zip(trades.step.tolist(), *trades.direction.T.tolist(),
                         [labels[hit] for hit in trades.o1.tolist()], trades.price.tolist()))
