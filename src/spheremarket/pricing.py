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
import sys
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .config import MAX_COUNT, Block, FieldError, count, member, require_finite, shown
from .ndtr import erfc
from .streams import map_chunks

CHUNK_PATHS = 1 << 14  # fixed batch granularity for counter-based streams
_BLOCK_BYTES = 1 << 19  # normals per row block of gbm_path_matrix, sized to stay in cache
# natural logs of the smallest normal and the largest finite float
_LOG_MIN, _LOG_MAX = math.log(sys.float_info.min), math.log(sys.float_info.max)
_SIGMA_MAX = math.sqrt(sys.float_info.max)  # the largest sigma whose square is finite


class OptionKind(Enum):
    CALL = "call"
    PUT = "put"


class DegenerateParametersError(ValueError):
    """sigma * sqrt(tau) == 0: d1/d2 undefined, use the limit branch."""


@dataclass(frozen=True)
class OptionSpec(Block):
    """Contract parameters: spot S, strike K, rate r, volatility sigma,
    time to expiry tau (years).  Exercise is European, the only style priced."""

    spot: float
    strike: float
    rate: float
    sigma: float
    tau: float
    kind: OptionKind = OptionKind.CALL
    PATH = "spec"
    CONVERTERS = {"kind": member(OptionKind), "style": member(("european",))}

    def __post_init__(self):
        require_finite(self, "spot", "strike", "rate", "sigma", "tau")
        for name in ("spot", "strike"):
            if getattr(self, name) <= 0:
                raise FieldError(name, "must be positive")
        for name in ("sigma", "tau"):
            if getattr(self, name) < 0:
                raise FieldError(name, "must be nonnegative")
        if not 0.0 < self.spot / self.strike < math.inf:  # d1 takes log(spot / strike)
            raise FieldError("spot", "makes spot / strike round to 0 or overflow, where its log "
                                     "is not finite, at this", other="strike")
        # the pricers take exp of +-rate tau (discount and growth) and of
        # sigma sqrt(tau) (the lattice's up factor), and square sigma
        if not abs(self.rate * self.tau) <= _LOG_MAX:
            raise FieldError("rate", f"makes |rate tau| exceed {_LOG_MAX:.2f}, where exp "
                                     "overflows, at this", other="tau")
        if not self.sigma * math.sqrt(self.tau) <= _LOG_MAX:
            raise FieldError("sigma", f"makes sigma sqrt(tau) exceed {_LOG_MAX:.2f}, where exp "
                                      "overflows, at this", other="tau")
        if self.sigma > _SIGMA_MAX:
            raise FieldError("sigma", f"must be at most {_SIGMA_MAX!r}, where sigma^2 overflows")

    def to_dict(self) -> dict:
        return {**super().to_dict(), "style": "european"}


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
    if not 0 <= total_value < math.inf:  # also rejects NaN
        raise ValueError(f"total_value must be finite and non-negative, not {total_value!r}")
    return total_value - intrinsic_value(spec)


def norm_cdf(t: float) -> float:
    """Standard normal CDF of the scalar t via the complementary error
    function."""
    return 0.5 * erfc(-t / math.sqrt(2.0))


def d1_d2(spec: OptionSpec) -> tuple[float, float]:
    sig_sqrt = spec.sigma * math.sqrt(spec.tau)
    if sig_sqrt == 0.0:
        raise DegenerateParametersError("d1/d2 need sigma sqrt(tau) > 0; use the pricer's "
                                        "limit branch")
    d1 = (math.log(spec.spot / spec.strike)
          + (spec.rate + 0.5 * spec.sigma ** 2) * spec.tau) / sig_sqrt
    return d1, d1 - sig_sqrt


def bs_price(spec: OptionSpec) -> float:
    """Black-Scholes value of a European option.

    Limit branch: where sigma sqrt(tau) is 0 the value is the discounted
    deterministic payoff, which at tau = 0 (discount exactly 1) is the
    intrinsic value.
    """
    disc_k = spec.strike * math.exp(-spec.rate * spec.tau)
    if spec.sigma * math.sqrt(spec.tau) == 0.0:
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
class GbmParams(Block):
    """Diffusion parameters: start s0, drift, volatility, horizon split into
    equal steps, 1 to 2**53 of them (``config.MAX_COUNT``, the count bound)."""

    s0: float
    drift: float
    sigma: float
    horizon: float
    steps: int
    PATH = "compare_gbm"

    def __post_init__(self):
        require_finite(self, "s0", "drift", "sigma", "horizon")
        if self.s0 <= 0:
            raise FieldError("s0", "must be positive")
        if self.sigma < 0:
            raise FieldError("sigma", "must be nonnegative")
        if not 1 <= count(self.steps, "steps") <= MAX_COUNT:
            raise FieldError("steps", f"must lie in [1, 2**53], got {shown(self.steps)}")
        if self.horizon <= 0:
            raise FieldError("horizon", "must be positive")
        dt = self.horizon / self.steps
        if dt == 0.0:
            raise FieldError("horizon", "leaves a time step of 0 when split into", other="steps")
        if self.sigma > 0 and self.sigma * math.sqrt(dt) == 0.0:
            raise FieldError("sigma", "is positive, but sigma sqrt(horizon / steps) rounds to 0 "
                                      "at this", other="horizon")
        # math.log rounds the 132 largest subnormals to _LOG_MIN, so at sigma 0
        # the band below would admit them
        if self.s0 < sys.float_info.min:
            raise FieldError("s0", f"must be at least {sys.float_info.min!r}, the smallest "
                                   "normal float")
        # The mean log price log(s0) + (drift - sigma^2/2) t is linear in t, and
        # sigma W_t leaves +-40 sigma sqrt(horizon) about it by the horizon with
        # probability below 1e-340: prices stay normal and finite if that band
        # does at both ends, each checked alone so that a NaN end fails too.
        growth = self.drift * self.horizon
        decay = 0.5 * self.sigma * self.sigma * self.horizon  # inf, not OverflowError
        spread = 40.0 * self.sigma * math.sqrt(self.horizon)
        start = math.log(self.s0)
        for end in (start, start + growth - decay):
            if not (_LOG_MIN <= end - spread and end + spread <= _LOG_MAX):
                terms = {"s0": abs(start), "drift": abs(growth), "sigma": decay + spread}
                raise FieldError(max(terms, key=terms.get),
                                 f"lets the log price log(s0) + (drift - sigma^2/2) t +- 40 sigma "
                                 f"sqrt(horizon) leave [{_LOG_MIN:.2f}, {_LOG_MAX:.2f}] before t "
                                 "reaches", other="horizon")


def gbm_path_matrix(params: GbmParams, n_paths: int, seed: int,
                    n_workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(times, values) with values of shape (n_paths, steps + 1), stepped
    with the bias-free log-normal map
    S_{k+1} = S_k exp((mu - sigma^2/2) dt + sigma sqrt(dt) Z).

    Path i is driven by the generator of chunk i // CHUNK_PATHS on the
    counter-based streams of ``streams.map_chunks``, so the matrix is
    bit-identical for any worker count.  Each chunk fills its rows in
    blocks of about 512 KiB of normals: a block is drawn, turned into log
    steps in place and summed straight into its rows of ``values`` while it
    is in cache.  The generator fills the blocks in turn with the normals
    of one draw for the whole chunk, so the call holds the output plus one
    block per worker.
    """
    if count(n_paths, "n_paths") < 1:
        raise ValueError("n_paths must be positive")
    dt = params.horizon / params.steps
    times = np.linspace(0.0, params.horizon, params.steps + 1)
    values = np.empty((n_paths, params.steps + 1))
    vol = params.sigma * math.sqrt(dt)
    loc = (params.drift - 0.5 * params.sigma ** 2) * dt
    rows = max(1, _BLOCK_BYTES // (8 * params.steps))

    def fill_chunk(rng, lo, size):
        values[lo:lo + size, 0] = params.s0
        z = np.empty((min(rows, size), params.steps))
        for start in range(lo, lo + size, rows):
            block = values[start:min(start + rows, lo + size), 1:]
            zb = z[:len(block)]
            rng.standard_normal(out=zb)
            zb *= vol
            zb += loc
            np.cumsum(zb, axis=1, out=block)
            np.exp(block, out=block)
            block *= params.s0

    map_chunks(fill_chunk, n_paths, CHUNK_PATHS, seed, n_workers)
    return times, values


def mc_price(spec: OptionSpec, n_paths: int, seed: int,
             n_workers: int = 1) -> tuple[float, float]:
    """Risk-neutral Monte Carlo price and its standard error.

    Terminal prices use the exact log-normal map with drift = r, so the
    only error is sampling noise.  Counter-based chunk seeding keeps the
    estimate identical for any worker count.  Payoffs whose squares sum past
    the float range raise ``FieldError`` on ``spot``, relative to ``strike``.
    """
    if count(n_paths, "n_paths") < 2:
        raise ValueError("need at least two paths for a standard error")
    disc = math.exp(-spec.rate * spec.tau)
    loc = (spec.rate - 0.5 * spec.sigma ** 2) * spec.tau
    vol = spec.sigma * math.sqrt(spec.tau)

    def run_chunk(rng, lo, size):
        st = spec.spot * np.exp(loc + vol * rng.standard_normal(size))
        pay = disc * _payoff(spec.kind, st, spec.strike)
        with np.errstate(over="ignore"):  # an overflowed sum is named below
            return float(pay.sum()), float(np.square(pay).sum())

    parts = map_chunks(run_chunk, n_paths, CHUNK_PATHS, seed, n_workers)
    total = total_sq = 0.0
    for part, part_sq in parts:  # left to right: from Python 3.12 on, sum() compensates
        total += part
        total_sq += part_sq
    mean = total / n_paths
    var = (total_sq - n_paths * mean * mean) / (n_paths - 1)
    if not math.isfinite(var):  # as it is whenever the sum of squares is not
        raise FieldError("spot", "overflows the Monte Carlo sum of squared payoffs, so the "
                         "standard error is not finite, at this", other="strike")
    return mean, math.sqrt(max(var, 0.0) / n_paths)


def binomial_price(spec: OptionSpec, steps: int) -> float:
    """Cox-Ross-Rubinstein lattice price of a European option.

    u = exp(sigma sqrt(dt)), d = 1/u, risk-neutral weight
    (exp(r dt) - d) / (u - d); parameters implying a weight outside [0, 1]
    are arbitrage-violating and rejected, as is a lattice whose u rounds to d
    or whose top terminal node spot u^steps overflows.

    Each step computes disc (p v_{j+1} + q v_j) in that order, as a full
    lattice would, but only on the live window of nodes (see ``_induct``):
    a payoff row is monotone in j and the step keeps that order under
    rounding, so the zeros and subnormals form one run at one end, the
    bottom for a call and the top for a put, whose row is turned over.

    Zeroing the subnormals is exact where the price is far above what they
    could add to it.  Each is below 2^-1022 and reaches the price with weight
    at most disc^i <= max(1, exp(-r tau)) from level i, so in exact arithmetic
    they add at most (steps + 1) max(1, exp(-r tau)) 2^-1022.  A price less
    than 2^100 times that (53 bits to its last place and 47 to spare) is
    stepped again with a floor that drops exact zeros only, which is exact
    by construction: p 0 + q 0 is +0.
    """
    if count(steps, "steps") < 1:
        raise ValueError("steps must be positive")
    if spec.tau <= 0.0:
        return intrinsic_value(spec)
    dt = spec.tau / steps
    u = math.exp(spec.sigma * math.sqrt(dt))
    d = 1.0 / u
    if not u > d:
        raise FieldError("sigma", f"leaves the lattice flat: binomial lattice needs u > d, but "
                         f"sigma {spec.sigma!r}, tau {spec.tau!r} and {steps} steps give "
                         f"u = d = {u!r} at this", other="tau")
    growth = math.exp(spec.rate * dt)
    p = (growth - d) / (u - d)
    if not 0.0 <= p <= 1.0:
        raise FieldError("sigma", "is below |rate| sqrt(dt): arbitrage-violating parameters: "
                         f"risk-neutral weight {p!r} outside [0, 1] at this", other="rate")
    with np.errstate(over="ignore"):  # the top node as the row below computes it
        top = spec.spot * np.power(u, float(steps))
    if not math.isfinite(top):
        raise FieldError("spot", f"overflows in the top lattice node spot u^{steps}, where "
                         f"u = exp(sigma sqrt(tau / {steps})), at this", other="sigma")
    disc = math.exp(-spec.rate * dt)
    j = np.arange(steps + 1)
    row = _payoff(spec.kind, spec.spot * u ** j * d ** (steps - j), spec.strike)
    a, b = p, 1.0 - p
    if spec.kind is OptionKind.PUT:  # turned over, a node still adds p (upper) + q (lower)
        row, a, b = row[::-1], b, a
    price = _induct(row, a, b, disc, sys.float_info.min)
    lost = sys.float_info.min * (steps + 1) * math.exp(max(0.0, -spec.rate * spec.tau))
    if price < lost * 2.0 ** 100:
        price = _induct(row, a, b, disc, math.ulp(0.0))
    return price


def _induct(row: np.ndarray, a: float, b: float, disc: float, floor: float) -> float:
    """The root of the backward induction v_j <- disc (a v_{j+1} + b v_j)
    from the terminal ``row``.

    Every node below lo holds 0, so a step computes only the nodes
    [lo - 1, n), in place; then lo moves past the values below ``floor``,
    which are overwritten with 0.0.
    """
    v = row.copy()
    t = np.empty(len(v) - 1)
    lo = 0
    for n in range(len(v) - 1, 0, -1):
        while lo <= n and v[lo] < floor:
            v[lo] = 0.0
            lo += 1
        if lo:
            lo -= 1
        w, tw = v[lo:n], t[lo:n]
        np.multiply(v[lo + 1:n + 1], a, tw)
        np.multiply(w, b, w)
        np.add(tw, w, w)
        np.multiply(w, disc, w)
    return float(v[0])


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
    # negated comparisons, so that a NaN step fails them too
    if not h_t > 0:
        raise ValueError(f"h_t must be positive, not {h_t!r}")
    if not h_t < spec.tau:
        raise ValueError(f"h_t must be below tau for an interior point, not {h_t!r}")
    if not h_s >= 1e-4 * spec.spot:
        raise ValueError(f"h_s must be at least the cancellation guard 1e-4 * S, not {h_s!r}")
    if not spec.spot - h_s > 0:
        raise ValueError(f"h_s must be below S, so that S - h_s stays positive, not {h_s!r}")

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
