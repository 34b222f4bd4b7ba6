"""Classical pricing baseline.

Intrinsic/time value split, the log-normal diffusion dS = mu S dt
+ sigma S dW simulated with exact log-normal stepping, Black-Scholes
closed forms for European calls and puts, the Cox-Ross-Rubinstein lattice,
a risk-neutral Monte Carlo pricer, and a finite-difference residual check
of the pricing PDE

    dV/dt + (1/2) sigma^2 S^2 d2V/dS2 + r S dV/dS - r V = 0.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from enum import Enum

import numpy as np

from .config import FieldError, build, count, member, number, parse_block, require_finite
from .ndtr import erfc
from .streams import map_chunks

CHUNK_PATHS = 1 << 14  # fixed batch granularity for counter-based streams


class OptionKind(Enum):
    CALL = "call"
    PUT = "put"


class ExerciseStyle(Enum):
    """Only European exercise is priced; reports echo it as ``style``."""

    EUROPEAN = "european"


class DegenerateParametersError(ValueError):
    """sigma * sqrt(tau) == 0: d1/d2 undefined, use the limit branches."""


@dataclass(frozen=True)
class OptionSpec:
    """Contract parameters: spot S, strike K, rate r, volatility sigma,
    time to expiry tau (years)."""

    spot: float
    strike: float
    rate: float
    sigma: float
    tau: float
    kind: OptionKind = OptionKind.CALL
    style: ExerciseStyle = ExerciseStyle.EUROPEAN

    def __post_init__(self):
        require_finite(self, "spot", "strike", "rate", "sigma", "tau")
        for name in ("spot", "strike"):
            if getattr(self, name) <= 0:
                raise FieldError(name, "must be positive")
        for name in ("sigma", "tau"):
            if getattr(self, name) < 0:
                raise FieldError(name, "must be nonnegative")

    def to_dict(self) -> dict:
        return {**asdict(self), "kind": self.kind.value, "style": self.style.value}

    @staticmethod
    def from_dict(d: dict, path: str = "spec") -> "OptionSpec":
        """The spec of block ``d``; errors name keys under ``path``."""
        return build(OptionSpec, path, parse_block(
            d, path, required=dict.fromkeys(("spot", "strike", "rate", "sigma", "tau"), number),
            optional={"kind": member(OptionKind), "style": member(ExerciseStyle)},
        ))


def _payoff(kind: OptionKind, s, strike):
    """max(s - strike, 0) for calls, max(strike - s, 0) for puts."""
    return np.maximum(s - strike, 0.0) if kind is OptionKind.CALL else np.maximum(strike - s, 0.0)


def intrinsic_value(spec: OptionSpec) -> float:
    """Payoff if exercised now: max(S-K, 0) for calls, max(K-S, 0) for puts."""
    return float(_payoff(spec.kind, spec.spot, spec.strike))


def time_value(spec: OptionSpec, total_value: float) -> float:
    """Premium above intrinsic value: Z = V - I.

    May be negative for deep in-the-money European puts (discounting can
    push the fair value below intrinsic); it is reported, not clamped.
    """
    if total_value < 0:
        raise ValueError("total option value cannot be negative")
    return total_value - intrinsic_value(spec)


def norm_cdf(t: float) -> float:
    """Standard normal CDF of the scalar t via the complementary error
    function."""
    return 0.5 * erfc(-t / math.sqrt(2.0))


def d1_d2(spec: OptionSpec) -> tuple[float, float]:
    if spec.sigma <= 0.0 or spec.tau <= 0.0:
        raise DegenerateParametersError(
            "d1/d2 need sigma > 0 and tau > 0; use the pricer's limit branches"
        )
    sig_sqrt = spec.sigma * math.sqrt(spec.tau)
    d1 = (math.log(spec.spot / spec.strike)
          + (spec.rate + 0.5 * spec.sigma ** 2) * spec.tau) / sig_sqrt
    return d1, d1 - sig_sqrt


def bs_price(spec: OptionSpec) -> float:
    """Black-Scholes value of a European option.

    Limit branches: tau = 0 returns intrinsic value; sigma = 0 returns the
    discounted deterministic payoff.
    """
    if spec.tau == 0.0:
        return intrinsic_value(spec)
    disc_k = spec.strike * math.exp(-spec.rate * spec.tau)
    if spec.sigma == 0.0:
        return float(_payoff(spec.kind, spec.spot, disc_k))
    d1, d2 = d1_d2(spec)
    # clamp into the no-arbitrage envelope: the exact value satisfies the
    # bounds strictly, so this only removes last-ulp rounding dust
    if spec.kind is OptionKind.CALL:
        value = norm_cdf(d1) * spec.spot - norm_cdf(d2) * disc_k
        return min(max(value, spec.spot - disc_k, 0.0), spec.spot)
    value = norm_cdf(-d2) * disc_k - norm_cdf(-d1) * spec.spot
    return min(max(value, disc_k - spec.spot, 0.0), disc_k)


@dataclass(frozen=True)
class GbmParams:
    """Diffusion parameters: start s0, drift, volatility, horizon split
    into equal steps."""

    s0: float
    drift: float
    sigma: float
    horizon: float
    steps: int

    def __post_init__(self):
        require_finite(self, "s0", "drift", "sigma", "horizon")
        if self.s0 <= 0:
            raise FieldError("s0", "must be positive")
        if self.sigma < 0:
            raise FieldError("sigma", "must be nonnegative")
        if self.steps < 1:
            raise FieldError("steps", "must be at least 1")
        if self.horizon <= 0:
            raise FieldError("horizon", "must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict, path: str = "compare_gbm") -> "GbmParams":
        """The parameters of block ``d``; errors name keys under ``path``."""
        return build(GbmParams, path, parse_block(
            d, path,
            required={**dict.fromkeys(("s0", "drift", "sigma", "horizon"), number), "steps": count},
        ))


def gbm_path_matrix(params: GbmParams, n_paths: int, seed: int,
                    n_workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(times, values) with values of shape (n_paths, steps + 1), stepped
    with the bias-free log-normal map
    S_{k+1} = S_k exp((mu - sigma^2/2) dt + sigma sqrt(dt) Z).

    Path i is driven by the generator of chunk i // CHUNK_PATHS on the
    counter-based streams of ``streams.map_chunks``, so the matrix is
    bit-identical for any worker count.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    dt = params.horizon / params.steps
    times = np.linspace(0.0, params.horizon, params.steps + 1)
    values = np.empty((n_paths, params.steps + 1))
    vol = params.sigma * math.sqrt(dt)

    def fill_chunk(rng, lo, size):
        z = rng.standard_normal((size, params.steps))
        log_steps = (params.drift - 0.5 * params.sigma ** 2) * dt + vol * z
        values[lo:lo + size, 0] = params.s0
        values[lo:lo + size, 1:] = params.s0 * np.exp(np.cumsum(log_steps, axis=1))

    map_chunks(fill_chunk, n_paths, CHUNK_PATHS, seed, n_workers)
    return times, values


def mc_price(spec: OptionSpec, n_paths: int, seed: int,
             n_workers: int = 1) -> tuple[float, float]:
    """Risk-neutral Monte Carlo price and its standard error.

    Terminal prices use the exact log-normal map with drift = r, so the
    only error is sampling noise.  Counter-based chunk seeding keeps the
    estimate identical for any worker count.
    """
    if n_paths < 2:
        raise ValueError("need at least two paths for a standard error")
    disc = math.exp(-spec.rate * spec.tau)
    loc = (spec.rate - 0.5 * spec.sigma ** 2) * spec.tau
    vol = spec.sigma * math.sqrt(spec.tau)

    def run_chunk(rng, lo, size):
        st = spec.spot * np.exp(loc + vol * rng.standard_normal(size))
        pay = disc * _payoff(spec.kind, st, spec.strike)
        return pay.sum(), np.square(pay).sum()

    parts = map_chunks(run_chunk, n_paths, CHUNK_PATHS, seed, n_workers)
    total = sum(p[0] for p in parts)
    total_sq = sum(p[1] for p in parts)
    mean = total / n_paths
    var = max(0.0, (total_sq - n_paths * mean * mean) / (n_paths - 1))
    return float(mean), float(math.sqrt(var / n_paths))


def binomial_price(spec: OptionSpec, steps: int) -> float:
    """Cox-Ross-Rubinstein lattice price of a European option.

    u = exp(sigma sqrt(dt)), d = 1/u, risk-neutral weight
    (exp(r dt) - d) / (u - d); parameters implying a weight outside [0, 1]
    are arbitrage-violating and rejected.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    if spec.sigma <= 0.0:
        raise ValueError("binomial lattice needs sigma > 0")
    if spec.tau <= 0.0:
        return intrinsic_value(spec)
    dt = spec.tau / steps
    u = math.exp(spec.sigma * math.sqrt(dt))
    d = 1.0 / u
    growth = math.exp(spec.rate * dt)
    p = (growth - d) / (u - d)
    if not 0.0 <= p <= 1.0:
        raise ValueError(
            f"arbitrage-violating parameters: risk-neutral weight {p!r} outside [0, 1]"
        )
    disc = math.exp(-spec.rate * dt)
    j = np.arange(steps + 1)
    terminal = spec.spot * u ** j * d ** (steps - j)
    vals = _payoff(spec.kind, terminal, spec.strike)
    for _ in range(steps):
        vals = disc * (p * vals[1:] + (1.0 - p) * vals[:-1])
    return float(vals[0])


def pde_residual(spec: OptionSpec, h_s: float, h_t: float, value_fn=None) -> float:
    """Central-difference residual of the pricing PDE at (S, tau).

    ``value_fn`` maps an OptionSpec to a value and defaults to ``bs_price``;
    passing another function (e.g. intrinsic value) gives a negative
    control.  Steps below 1e-4 * S are rejected to avoid catastrophic
    cancellation in the second difference.
    """
    if value_fn is None:
        value_fn = bs_price
    if spec.sigma <= 0.0:
        raise ValueError("residual check needs sigma > 0")
    if spec.tau <= h_t:
        raise ValueError("need an interior point: tau > h_t")
    if h_t <= 0:
        raise ValueError("h_t must be positive")
    if h_s < 1e-4 * spec.spot:
        raise ValueError("h_s below the cancellation guard 1e-4 * S")
    if spec.spot - h_s <= 0:
        raise ValueError("h_s too large: S - h_s must stay positive")

    def value(s, tau):
        return value_fn(replace(spec, spot=s, tau=tau))

    v = value(spec.spot, spec.tau)
    v_up = value(spec.spot + h_s, spec.tau)
    v_dn = value(spec.spot - h_s, spec.tau)
    # calendar time runs opposite to time-to-expiry: dV/dt = -dV/dtau
    v_t = (value(spec.spot, spec.tau - h_t) - value(spec.spot, spec.tau + h_t)) / (2.0 * h_t)
    v_s = (v_up - v_dn) / (2.0 * h_s)
    v_ss = (v_up - 2.0 * v + v_dn) / (h_s * h_s)
    return float(v_t + 0.5 * spec.sigma ** 2 * spec.spot ** 2 * v_ss
                 + spec.rate * spec.spot * v_s - spec.rate * v)


def pricing_report(spec: OptionSpec, method: str, value: float,
                   error_estimate: float | None = None, extra: dict | None = None) -> dict:
    """JSON-ready pricing report: inputs echoed, value, method, error."""
    report = {
        "inputs": spec.to_dict(),
        "method": method,
        "value": value,
        "error_estimate": error_estimate,
    }
    if extra:
        report.update(extra)
    return report
