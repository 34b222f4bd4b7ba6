"""Trading as contextual measurement.

A stock's price is actualized only when it trades: each step draws a trade
context (a measurement direction), collapses the state with an elastic
measurement and reads the realized price off the collapsed state.  In the
local regime contexts wander around the current state (uncoordinated
traders); in the global regime every context aligns with a shared news
direction up to noise, the herding limit when the noise vanishes.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .config import (
    MAX_COUNT,
    FieldError,
    block_kind,
    build,
    count,
    number,
    parse_block,
    require_finite,
    shown,
    unit_vector,
)
from .geometry import (
    UnitVector3,
    _check_unit_rows,
    _dot_arrays,
    _math_map,
    _on_sphere_arrays,
    _polar_arrays,
    _rotate,
    _rotate_arrays,
    _rotate_chain,
    sample_uniform,
)
from .sphere_model import MeasurementOutcome, OutcomeLabel, RhoDistribution
from .streams import check_workers, chunk_rng

if TYPE_CHECKING:
    from .pricing import GbmParams

ACF_LAGS = 10
MIN_TRADES = 30
ROWS = 1 << 16  # rows per stacked ensemble pass, sized like sphere_model.CHUNK_TRIALS
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

    def angle_at(self, step):
        """The polar angle at ``step``, an int or an array of them."""
        return self.angle + self.rate * step

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

    Each context is the state v rotated by alpha ~ U[0, noise_angle] about a
    uniform axis k, drawn as k's height z, its azimuth phi, then alpha.  So
    the angle gamma between context and state is not U[0, noise_angle]:
    cos gamma = cos alpha + (1 - cos alpha) (k.v)^2, and for the uniform
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
        # below 2**53 every step index in angle + rate * step is exact as a float
        if not 1 <= self.n_steps <= MAX_COUNT:
            raise FieldError("n_steps", f"must lie in [1, 2**53], got {shown(self.n_steps)}")
        try:
            UnitVector3(*self.price_axis)
        except (TypeError, ValueError):
            raise FieldError("price_axis",
                             f"must be a unit vector, got {self.price_axis!r}") from None
        require_finite(self, "price_min", "price_max")
        if not self.price_min < self.price_max:
            raise FieldError("price_min", "must be below", other="price_max")
        if self.price_min <= 0:
            raise FieldError("price_min", "must be positive (log returns)")
        # the news angle is affine in the step, so the last step's bounds the others
        if isinstance(self.regime, GlobalRegime) and not math.isfinite(
                self.regime.news.angle_at(self.n_steps - 1)):
            raise FieldError("regime.news.rate", f"{self.regime.news.rate!r} takes the news angle "
                             "(angle + rate * step) past the float range within", other="n_steps")

    def to_dict(self) -> dict:
        return {
            "rho": self.rho.to_dict(),
            "n_steps": self.n_steps,
            "regime": self.regime.to_dict(),
            "seed": self.seed,
            "price_axis": list(self.price_axis),
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
    column is.
    """

    step: np.ndarray
    direction: np.ndarray
    o1: np.ndarray
    break_point: np.ndarray
    price: np.ndarray

    def __post_init__(self):
        n = len(self.step)
        for name, want in [("direction", (n, 3))] + [(c, (n,)) for c in ("o1", "break_point", "price")]:
            if (shape := np.shape(getattr(self, name))) != want:
                raise ValueError(f"TradeLog column {name!r} has shape {shape}, not {want}")
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
        return NotImplemented


def _run_members(cfg: MarketConfig, rngs: list) -> list[TradeLog]:
    """One history per generator in ``rngs``, computed in stacked passes.

    Each generator draws as a history of its own: the initial state, then
    the uniforms of every step from one ``rng.random`` call.  Row t holds
    step t's uniforms in the order of the scalar draws they stand for: the
    context's axis k (height z, azimuth phi) and angle alpha if noise_angle
    > 0, which move the state v by gamma with cos gamma = cos alpha +
    (1 - cos alpha) (k.v)^2; then the break point's ``rho.draws``.

    Member r's n rows are rows r n .. r n + n - 1 of one stack, and every
    pass that does not wait on the step before runs once over all of them.
    Each column takes its draw's arithmetic lane by lane, so each history is
    its generator's alone, bit for bit.
    """
    rho, noise, n = cfg.rho, cfg.regime.noise_angle, cfg.n_steps
    width = (3 if noise > 0.0 else 0) + rho.draws
    starts, u = [], np.empty((len(rngs) * n, width))
    for lo, rng in zip(range(0, len(u), n), rngs):
        starts.append(sample_uniform(rng))
        rng.random(out=u[lo:lo + n])
    breaks = rho.quantile(u[:, -1] if rho.draws else np.zeros(len(u)))
    kicks = ((_on_sphere_arrays(-1.0 + 2.0 * u[:, 0], _TWO_PI * u[:, 1]), noise * u[:, 2])
             if noise > 0.0 else None)
    history = _local_history if isinstance(cfg.regime, LocalRegime) else _global_history
    direction, o1 = history(cfg, starts, kicks, breaks)
    price = _prices(cfg, tuple(direction.T), o1)
    return [TradeLog(step=np.arange(n), direction=direction[lo:lo + n], o1=o1[lo:lo + n],
                     break_point=breaks[lo:lo + n], price=price[lo:lo + n])
            for lo in range(0, len(u), n)]


def _before(starts: list, contexts: tuple) -> tuple:
    """The x, y and z arrays of the context before each of the stacked
    ``contexts`` (x, y and z arrays), and at each member's first step its start."""
    before = np.empty((3, len(contexts[0])))
    for b, c in zip(before, contexts):
        b[1:] = c[:-1]
    before[:, ::len(before[0]) // len(starts)] = np.transpose(starts)
    return tuple(before)


def _local_history(cfg: MarketConfig, starts: list, kicks, breaks: np.ndarray) -> tuple:
    """The contexts and outcomes of the local regime's members with initial
    states ``starts``: each context is the state before it, kicked by
    ``_rotate`` about its drawn axis (``kicks`` holds the axes and angles).

    Every operation of ``_rotate`` is odd in the vector (products, sums,
    the exact fused multiply-adds and the normalization), so a state of
    either sign gives the same context up to sign.  With a member's chain
    C_t = ``_rotate``(C_{t-1}, k_t, a_t) from C_{-1} its initial state, the
    context of step t is +-C_t and dot(state, context) is dot(C_{t-1}, C_t),
    whatever the outcomes.  Only the chains stay in a Python loop:
    ``_rotate_chain``, one flat loop on floats with no function call per
    step.  Step t is O1 when x_t < dot(C_{t-1}, C_t), and its context is
    -C_t when an odd number of O2s came before it in its member.

    Oddness holds in value but not for an exact zero that comes from a
    cancellation: x - x is +0 at either sign of x.  So the rows of C with a
    zero component are replayed in step order through ``_rotate`` from the
    logged state, or from the member's initial state at its first step.
    With noise 0 every C_t is the initial state and repeated negation is
    exact, so nothing needs replaying.
    """
    n = len(breaks) // len(starts)
    chain = _rotate_chain(starts, *kicks) if kicks else np.repeat(np.array(starts), n, axis=0)
    columns = tuple(chain.T)
    o1 = breaks < _dot_arrays(_before(starts, columns), columns)
    o2_before = np.zeros((len(starts), n), bool)
    o2_before[:, 1:] = ~o1.reshape(-1, n)[:, :-1]
    flip = np.logical_xor.accumulate(o2_before, axis=1).ravel()  # odd O2s before t
    direction = np.where(flip[:, None], -chain, chain)
    if kicks is not None:
        for t in np.flatnonzero((chain == 0.0).any(axis=1)).tolist():
            s = (starts[t // n] if t % n == 0
                 else (direction[t - 1] if o1[t - 1] else -direction[t - 1]).tolist())
            direction[t] = _rotate(s, tuple(float(k[t]) for k in kicks[0]), float(kicks[1][t]))
    return direction, o1


def _global_history(cfg: MarketConfig, starts: list, kicks, breaks: np.ndarray) -> tuple:
    """The contexts and outcomes of the global regime's members with
    initial states ``starts``, in array passes over all their steps.

    A context depends only on the news angle and its step's uniforms, so
    every context d_t comes out of the ``*_arrays`` kernels at once, bit for
    bit the scalar ``_polar``, ``_on_sphere`` and ``_rotate``; the news
    directions of the n steps are computed once and tiled over the members.
    The state before step t is +-d_{t-1}, and dot(-a, b) is exactly
    -dot(a, b) (up to the sign of a zero, which no comparison or price
    sees), so with g_t = dot(d_{t-1}, d_t) step t is O1 when x_t < g_t
    after an O1 and when x_t < -g_t after an O2 (``_global_o1``).
    """
    n = len(breaks) // len(starts)
    news = _polar_arrays(cfg.regime.news.angle_at(np.arange(n)), 0.0)
    d = tuple(np.tile(c, len(starts)) for c in news)
    if kicks is not None:
        d = _rotate_arrays(d, *kicks)
    return np.column_stack(d), _global_o1(breaks, _dot_arrays(_before(starts, d), d), n)


def _global_o1(breaks: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """The outcomes of the stacked members of n steps each, where step t is
    O1 when x_t < g_t after an O1 and when x_t < -g_t after an O2, and a
    member's first step follows an O1.

    Each step maps the outcome before it to O1 (both comparisons hold), O2
    (neither holds), itself (only x_t < g_t) or its opposite (only x_t <
    -g_t).  So step t's outcome is that of the last constant map at or
    before it, flipped once for each flip after that map: one running
    maximum over indices and one running count, with a constant O1 put in
    front of each member's first step.
    """
    above, below = (breaks < g).reshape(-1, n), (breaks < -g).reshape(-1, n)
    value = np.ones((len(above), n + 1), bool)
    value[:, 1:] = above
    const = np.ones_like(value)
    np.equal(above, below, out=const[:, 1:])
    flips = np.zeros_like(value)
    np.less(above, below, out=flips[:, 1:])
    value, const, flips = value.ravel(), const.ravel(), flips.ravel()
    last = np.maximum.accumulate(np.where(const, np.arange(len(const)), 0))
    count = np.cumsum(flips)
    o1 = value[last] ^ ((count - count[last]) & 1).astype(bool)
    return o1.reshape(-1, n + 1)[:, 1:].ravel()


def _prices(cfg: MarketConfig, direction: tuple, o1: np.ndarray) -> np.ndarray:
    """The realized prices of a history with contexts ``direction`` (x, y
    and z arrays).  A price is affine in the state's projection on the
    price axis: price_min at -axis, price_max at +axis.  The state after
    step t is d_t after an O1 and -d_t after an O2, and dot(-d, axis) is
    -dot(d, axis) up to the sign of a zero, which no price sees."""
    on_axis = _dot_arrays(direction, tuple(cfg.price_axis))
    projection = np.where(o1, on_axis, -on_axis)
    return cfg.price_min + (cfg.price_max - cfg.price_min) * ((1.0 + projection) / 2.0)


def run_market(cfg: MarketConfig) -> TradeLog:
    """One market history; fully determined by (config, seed)."""
    return _run_members(cfg, [np.random.default_rng(np.random.SeedSequence(cfg.seed))])[0]


def run_market_ensemble(cfg: MarketConfig, n_runs: int,
                        n_workers: int = 1) -> list[TradeLog]:
    """Independent runs: member r draws from ``streams.chunk_rng(cfg.seed,
    r)``, chunk r of the counter-based streams, exactly as a history of its
    own.  The members run in groups of ``max(1, ROWS // n_steps)``, each
    group in one stacked pass (``_run_members``), so the pass's temporaries
    stay fixed-size for any ``n_runs``; the local regime's rotation chain
    holds Python floats for one slab of steps at a time.

    ``n_workers`` is checked (at least 1) but starts no thread: the output
    never depended on it, and the rotation chain is a loop on Python floats
    that holds the GIL, so threads would only switch between its members."""
    if n_runs < 1:
        raise ValueError("n_runs must be positive")
    check_workers(n_workers)
    group = max(1, ROWS // cfg.n_steps)
    return [log for lo in range(0, n_runs, group)
            for log in _run_members(cfg, [chunk_rng(cfg.seed, r)
                                          for r in range(lo, min(n_runs, lo + group))])]


@dataclass(frozen=True)
class SeriesSummary:
    """Moments and autocorrelations of a log-return series.

    mean is the sample mean; variance the unbiased (n-1) estimator;
    excess kurtosis the moment ratio m4/m2^2 - 3 with biased central
    moments, None for constant series.  acf lag k is
    [sum_t (x_t - xbar)(x_{t+k} - xbar) / (n - k)] / [sum_t (x_t - xbar)^2 / n].
    """

    n_prices: int
    mean: float
    variance: float
    excess_kurtosis: Optional[float]
    acf_returns: tuple
    acf_abs_returns: tuple

    def to_dict(self) -> dict:
        return {
            "n_prices": self.n_prices,
            "n_returns": self.n_prices - 1,
            "mean_log_return": self.mean,
            "var_log_return": self.variance,
            "excess_kurtosis": self.excess_kurtosis,
            "kurtosis_defined": self.excess_kurtosis is not None,
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
    if not np.isfinite(prices).all():
        raise ValueError("prices must be finite")
    if np.any(prices <= 0):
        raise ValueError("prices must be positive for log returns")
    x = np.diff(np.log(prices))
    mean = float(x.mean())
    variance = float(x.var(ddof=1))
    xc = x - x.mean()
    m2 = float(np.mean(xc ** 2))
    return SeriesSummary(
        n_prices=prices.size,
        mean=mean,
        variance=variance,
        excess_kurtosis=None if m2 == 0.0 else float(np.mean(xc ** 4) / m2 ** 2 - 3.0),
        acf_returns=_acf(x, ACF_LAGS),
        acf_abs_returns=_acf(np.abs(x), ACF_LAGS),
    )


def summary_stats(trades: TradeLog) -> SeriesSummary:
    """Summary of the realized-price series of a market run (>= 30 trades)."""
    return summary_from_prices(trades.price)


def representative_scan_angle(trades: TradeLog) -> float:
    """Median angle between consecutive trade directions, clamped into
    (0, pi); the spacing used for the three-direction feasibility scan."""
    d = trades.direction
    gaps = sorted(_math_map(math.acos, _dot_arrays(tuple(d[:-1].T), tuple(d[1:].T))).tolist())
    # the middle gap, or the mean of the two middle ones; (g + g) / 2 is g exactly
    theta = (gaps[(len(gaps) - 1) // 2] + gaps[len(gaps) // 2]) / 2.0 if gaps else 0.0
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
    from .kolmogorov_check import sphere_bell_scan
    from .pricing import gbm_path_matrix

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
    back to the same double.  No field needs quoting: they are ints, float
    reprs and the labels O1 and O2."""
    labels = (str(OutcomeLabel.O2), str(OutcomeLabel.O1))
    fileobj.write("step,ux,uy,uz,outcome,price\r\n")
    fileobj.write("".join(
        f"{step},{ux!r},{uy!r},{uz!r},{labels[hit]},{price!r}\r\n"
        for step, ux, uy, uz, hit, price in zip(trades.step.tolist(), *trades.direction.T.tolist(),
                                                trades.o1.tolist(), trades.price.tolist())))
