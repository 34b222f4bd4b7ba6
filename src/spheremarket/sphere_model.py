"""Elastic sphere measurements.

A measurement along direction u stretches an elastic between u and -u; the
particle at state v drops orthogonally onto it (elastic coordinate v.u) and
the elastic breaks at a point x drawn from a density rho on [-1, 1].  The
particle ends at u (outcome O1) when the break falls below its coordinate,
at -u (outcome O2) otherwise.  The analytic outcome probabilities are
therefore CDF evaluations of rho at v.u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .config import Block, FieldError, block_kind, count, items, number, require_finite
from .geometry import UnitVector3, _check_unit_rows, _sphere_rows, dot
from .ndtr import ndtr
from .streams import check_workers, map_chunks

if TYPE_CHECKING:
    from .kolmogorov_check import AgreementTable

CHUNK_TRIALS = 1 << 16  # fixed batch granularity for counter-based streams
CHUNK_SAMPLES = 1 << 17  # hidden states per chunk of a hidden-state table
BLOCK_SAMPLES = 1 << 12  # hidden states whose arrays a chunk holds at once

# largest double strictly below 1; samples are clamped under it so an
# eigenstate (v.u == 1) can never tie with the break point
_BELOW_ONE = math.nextafter(1.0, -1.0)


class OutcomeLabel(Enum):
    O1 = "O1"  # particle reaches u: price inside the context's interval
    O2 = "O2"  # particle reaches -u

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class MeasurementOutcome:
    label: OutcomeLabel
    collapsed_state: UnitVector3
    break_point: float


class RhoDistribution(Block):
    """Break-point density on [-1, 1]; cdf(-1) = 0 and cdf(1) = 1.

    A break point is ``quantile`` of ``draws`` uniforms on [0, 1): one for
    every density but the delta, which needs none.  In floating point,
    ``quantile`` never falls by more than ``slack`` as u rises through
    [0, 1); a slack of 0 means it is nondecreasing.
    """

    PATH = "rho"
    kind: str = ""
    draws: int = 1
    slack = 0.0

    def cdf(self, x: float) -> float:
        if x != x:
            raise ValueError(f"{type(self).__name__}.cdf of NaN")
        if x >= 1.0:
            return 1.0
        if x <= -1.0:
            return 0.0
        return self._cdf_inside(x)

    def _cdf_inside(self, x: float) -> float:
        """The CDF at x strictly inside (-1, 1)."""
        raise NotImplementedError

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """The break points of the uniforms ``u``, elementwise."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """An array of ``size`` break points drawn from ``rng``."""
        return self.quantile(rng.random(size) if self.draws else np.zeros(size))

    @classmethod
    def from_dict(cls, d, path: str = PATH) -> "RhoDistribution":
        """The density of the kind block ``d`` names; errors name keys under ``path``."""
        kinds = {c.kind: c for c in (UniformRho, DeltaRho, PiecewiseConstantRho,
                                     TruncatedGaussianRho)}
        return super(RhoDistribution, kinds[block_kind(d, path, kinds)]).from_dict(d, path)


@dataclass(frozen=True)
class UniformRho(RhoDistribution):
    """Constant density 1/2: every break point equally likely."""

    kind = "uniform"

    def _cdf_inside(self, x):
        return (x + 1.0) / 2.0

    def quantile(self, u):
        x = 2.0 * u
        x -= 1.0  # -1 + 2u, rng.uniform(-1.0, 1.0)'s arithmetic, with one temporary
        return x


@dataclass(frozen=True)
class DeltaRho(RhoDistribution):
    """All mass at a single break point x0; the deterministic elastic.

    The CDF is a right-continuous step, so an outcome is fully decided by
    the sign of v.u - x0: the classical, predetermined regime.
    """

    x0: float
    kind = "delta"
    draws = 0

    def __post_init__(self):
        if not -1.0 < self.x0 < 1.0:
            raise FieldError("x0", "must lie strictly inside (-1, 1)")

    def _cdf_inside(self, x):
        return 1.0 if x >= self.x0 else 0.0

    def quantile(self, u):
        return np.full(np.shape(u), self.x0)


@dataclass(frozen=True)
class PiecewiseConstantRho(RhoDistribution):
    """Step density over a partition of [-1, 1].

    ``breakpoints`` are the ascending cell edges and must span the full
    interval (first -1, last 1); ``densities`` holds one nonnegative level
    per cell and is normalized to unit total mass.  Both are kept as float
    lists; the CDF and the sampler read array copies of them.  A break point
    is capped at its cell's top breakpoint, where the next cell starts, so
    ``quantile`` is nondecreasing across cells as well as within them.
    """

    breakpoints: list
    densities: list
    kind = "piecewise"
    CONVERTERS = dict.fromkeys(("breakpoints", "densities"), lambda v, name: items(number, v, name))

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        dens = np.asarray(self.densities, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise FieldError("breakpoints", "must hold at least two values")
        if dens.shape != (bp.size - 1,):
            raise FieldError("densities", "must have one entry per cell")
        for name, values in (("breakpoints", bp), ("densities", dens)):
            if not np.isfinite(values).all():
                raise FieldError(name, f"must be finite, got {values.tolist()}")
        if bp[0] != -1.0 or bp[-1] != 1.0:
            raise FieldError("breakpoints", "must span [-1, 1]")
        if np.any(np.diff(bp) <= 0):
            raise FieldError("breakpoints", "must be strictly ascending")
        if dens.min() < 0:
            raise FieldError("densities", "must be nonnegative")
        mass = dens * np.diff(bp)
        total = mass.sum()
        if total <= 0:
            raise FieldError("densities", "must give positive total mass")
        if math.isinf(float(dens.max()) / float(total)):
            raise FieldError("densities", f"give total mass {float(total)!r}, too small to "
                             "normalize to finite levels")
        dens = dens / total
        cum = np.concatenate([[0.0], np.cumsum(mass / total)])
        cum[-1] = 1.0  # pin against cumsum roundoff
        top = np.minimum(bp[1:], _BELOW_ONE)
        for name, value in (("breakpoints", bp.tolist()), ("densities", dens.tolist()),
                            ("_bp", bp), ("_dens", dens), ("_cum", cum), ("_top", top)):
            object.__setattr__(self, name, value)

    def _cdf_inside(self, x):
        i = int(np.searchsorted(self._bp, x, side="right")) - 1
        return float(min(1.0, self._cum[i] + self._dens[i] * (x - self._bp[i])))

    def quantile(self, u):
        idx = np.searchsorted(self._cum, u, side="right") - 1
        idx = np.clip(idx, 0, self._dens.size - 1)
        dens = self._dens[idx]
        x = self._bp[idx] + (u - self._cum[idx]) / np.where(dens > 0, dens, 1.0)
        # within a cell a subtract, a divide by a positive density, an add and
        # a minimum are each monotone in IEEE arithmetic; across cells, a
        # cell's break points start at its breakpoint and stop at the next
        return np.minimum(x, self._top[idx])


@dataclass(frozen=True)
class TruncatedGaussianRho(RhoDistribution):
    """Gaussian bump (center, width) renormalized to [-1, 1].

    The bump must put some mass inside [-1, 1] in double precision: a
    center far outside the interval with a narrow width is rejected.
    ``_lo`` and ``_hi`` hold the standard normal CDF at the ends -1 and 1
    standardized about |center|.  A negative center is handled as the
    mirror image of the density at -center, so its mass sits in the lower
    tail of ``ndtr``, where doubles are dense, instead of just below 1.
    """

    center: float
    width: float
    kind = "truncated_gaussian"

    def __post_init__(self):
        require_finite(self, "center", "width")
        if self.width <= 0:
            raise FieldError("width", "must be positive")
        c = abs(self.center)
        lo = ndtr((-1.0 - c) / self.width)
        hi = ndtr((1.0 - c) / self.width)
        if not hi > lo:
            raise FieldError("center", f"{self.center!r} at width {self.width!r} leaves the "
                             "truncated Gaussian no mass inside [-1, 1]")
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_hi", hi)

    def _cdf_inside(self, x):
        lo, hi = self._lo, self._hi
        if self.center < 0:
            p = hi - ndtr((self.center - x) / self.width)
        else:
            p = ndtr((x - self.center) / self.width) - lo
        return min(1.0, max(0.0, p / (hi - lo)))

    def quantile(self, u):
        from scipy.special import ndtri

        lo, hi = self._lo, self._hi
        if self.center < 0:
            x = self.center - self.width * ndtri(hi - u * (hi - lo))
        else:
            x = self.center + self.width * ndtri(lo + u * (hi - lo))
        return np.clip(x, -1.0, _BELOW_ONE)

    @property
    def slack(self):
        """2**-29 (1 + |c|) for center c, about 1.9e-9 (1 + |c|).

        For c >= 0, quantile is clip(c + w * ndtri(p)) with
        p = lo + u * (hi - lo); for c < 0 it is the mirror image
        clip(c - w * ndtri(p)) with p = hi - u * (hi - lo), p falling as u
        rises.  The map u -> p, the multiply, the add or subtract and the
        clip are monotone IEEE operations; ``ndtri`` is not, so quantile can
        fall between adjacent doubles.  ``ndtri`` is accurate to a few ulps
        relative to its value (over 3.2e8 adjacent pairs of p it fell by at
        most 1.01e-15 |z|), and |z| stays within max(|z_lo|, |z_hi|) for the
        ends standardized about |c|, z_lo = (-1 - |c|) / w and
        z_hi = (1 - |c|) / w, where w |z_lo| and w |z_hi| are at most
        1 + |c|.  So between any two u, w * ndtri moves against u by at most
        about 2e-15 (1 + |c|); the multiply and the add or subtract each
        round by at most 2**-53 of a value below 1 + 2 |c|, so quantile
        falls by less than 1e-14 (1 + |c|).  The slack is 10**5 times that,
        which also covers the rounding of d - slack and d + slack.
        """
        return 2.0 ** -29 * (1.0 + abs(self.center))


def transition_probabilities(rho: RhoDistribution, v: UnitVector3,
                             u: UnitVector3) -> tuple[float, float]:
    """(P[O1], P[O2]) for measuring along u with the particle at v.

    P[O1] is the rho-mass below the particle coordinate v.u, which ``dot``
    keeps inside [-1, 1]; the pair sums to 1 exactly by construction.
    """
    p1 = rho.cdf(dot(v, u))
    return p1, 1.0 - p1


def simulate_measurement(rho: RhoDistribution, state: UnitVector3,
                         u: UnitVector3, rng: np.random.Generator) -> MeasurementOutcome:
    """One elastic break: samples the break point x and collapses the state.

    Outcome is O1 iff the break lands strictly below the particle coordinate
    v.u; ties go to O2 (measure zero for continuous rho, and the documented
    convention for the deterministic delta elastic).
    """
    x = float(rho.sample(rng, 1)[0])
    if x < dot(state, u):
        return MeasurementOutcome(OutcomeLabel.O1, u, x)
    return MeasurementOutcome(OutcomeLabel.O2, -u, x)


def _thresholds(rho: RhoDistribution, d: float) -> tuple[float, float]:
    """(f, l), 0 <= f <= l <= 1: every u in [0, f) has rho.quantile(u) < d,
    no u in [l, 1) has, and the u in the band [f, l) must be decided by
    quantile itself.

    [0, 1) is bisected for a u0 whose quantile is at least t while the double
    before it (if any) has quantile below t: once at t = d - slack for f and
    once at t = d + slack for l.  Since quantile falls by at most
    ``rho.slack`` as u rises, every u before f is below d and no u from l on
    is; at slack 0 the band is empty.  Both lanes are bisected at once on the
    int64 bit patterns of [0, 1.0], which order as the doubles do, and every
    candidate goes through ``rho.quantile`` itself.
    """
    t = np.array([d - rho.slack, d + rho.slack])
    lo, hi = np.zeros(2, np.int64), np.full(2, np.float64(1.0).view(np.int64))
    while (open_ := lo < hi).any():
        mid = lo + (hi - lo) // 2
        below = rho.quantile(mid.view(np.float64)) < t
        lo = np.where(open_ & below, mid + 1, lo)
        hi = np.where(open_ & ~below, mid, hi)
    f, l = lo.view(np.float64).tolist()
    return f, l


def measurement_counts(rho: RhoDistribution, state: UnitVector3, u: UnitVector3,
                       n_trials: int, seed: int, n_workers: int = 1) -> tuple[int, int]:
    """(count O1, count O2) over independent trials.

    Trials run in chunks of CHUNK_TRIALS on the counter-based streams of
    ``streams.map_chunks``, so trial outcomes depend only on (seed, trial
    index) and never on worker scheduling.  Trial k is O1 when the break
    point quantile(uniform k) falls below v.u.  Each chunk draws the
    uniforms that ``rho.sample`` would and counts those below f of the
    ``_thresholds`` (f, l), plus those in the band [f, l) whose quantile
    falls below v.u, which gives the sampled counts without building break
    points; when f == l is 0 or 1, no trial draws.
    """
    if count(n_trials, "n_trials") < 1:
        raise ValueError("n_trials must be positive")
    check_workers(n_workers)
    d = dot(state, u)
    f, l = _thresholds(rho, d)
    if f == l and f in (0.0, 1.0):
        n1 = n_trials if f else 0
        return n1, n_trials - n1

    def run_chunk(rng, lo, size) -> int:
        r = rng.random(size)
        n1 = int(np.count_nonzero(r < f))
        if l > f and np.count_nonzero(r < l) > n1:
            n1 += int(np.count_nonzero(rho.quantile(r[(f <= r) & (r < l)]) < d))
        return n1

    n1 = sum(map_chunks(run_chunk, n_trials, CHUNK_TRIALS, seed, n_workers))
    return n1, n_trials - n1


def _direction_rows(directions: list[UnitVector3]) -> np.ndarray:
    """The (n, 3) array of at least two ``directions``, each checked to be a
    unit vector as ``UnitVector3`` checks it (NaN fails); a direction of
    other than three components fails the reshape."""
    if len(directions) < 2:
        raise ValueError("need at least two directions")
    rows = np.array(directions, float).reshape(len(directions), 3)
    _check_unit_rows(rows)
    return rows


def agreement_table(rho: RhoDistribution, directions: list[UnitVector3]) -> AgreementTable:
    """Pairwise sequential agreement among eigenstate-prepared measurements.

    A prior measurement along d_i collapsed the state onto d_i, so pair
    (i, j) agrees with P[O1] for the particle at d_i measured along d_j.
    """
    from .kolmogorov_check import AgreementTable, pair_index

    n = len(_direction_rows(directions))
    return AgreementTable(n, [transition_probabilities(rho, directions[i], directions[j])[0]
                              for i, j in zip(*pair_index(n))])


def _row_blocks(size: int) -> list[tuple[int, int]]:
    """(start, stop) of each block of a chunk of ``size`` samples:
    BLOCK_SAMPLES rows each but the last, which takes the rest and is never
    one row of a larger chunk.  numpy computes a one-row product with BLAS's
    gemv, whose bits can differ from the same row's in a larger product."""
    starts = range(0, max(size - 1, 1), BLOCK_SAMPLES)
    return list(zip(starts, [*starts[1:], size]))


def hidden_state_agreement_table(rho: RhoDistribution, directions: list[UnitVector3],
                                 n_samples: int = 100_000, seed: int = 0) -> AgreementTable:
    """Agreement table of the one-shot classical model.

    A hidden state (uniform initial position v plus one independent break
    point per direction) fixes all outcomes jointly, so the empirical table
    is a mixture of deterministic assignments and always classical.  It
    runs in chunks of CHUNK_SAMPLES on ``streams.map_chunks``, whose counts
    add exactly, so at most CHUNK_SAMPLES samples draw from chunk 0 alone.

    A chunk draws every state as ``geometry.sample_uniform_array`` does and
    then takes its samples in blocks of BLOCK_SAMPLES rows: their
    coordinates, their break points (the block's rows of one draw of the
    chunk's) and their counts, over ``_row_blocks``.  So it holds the two
    state draws and one block's arrays, and every count is the one whole
    chunk's.
    """
    from .kolmogorov_check import AgreementTable

    dirs_t = _direction_rows(directions).T
    n = len(directions)
    if count(n_samples, "n_samples") < 1:
        raise ValueError("n_samples must be positive")

    def run_chunk(rng, lo, size) -> np.ndarray:
        z = rng.uniform(-1.0, 1.0, size=size)
        phi = rng.uniform(0.0, 2.0 * math.pi, size=size)
        agree = 0
        for a, b in _row_blocks(size):
            # a coordinate may round just past +-1 and is not clipped: every
            # break point lies in [-1, 1), so it is below a coordinate past 1
            # and not below one past -1, as against the clip
            coords = _sphere_rows(z[a:b], phi[a:b]) @ dirs_t  # (b - a, n)
            outcomes = np.ascontiguousarray((rho.sample(rng, size=(b - a, n)) < coords).T)
            # row i against every later row gives pairs (i, i+1), ..., (i, n-1): the
            # pair_index order, without an array of every pair's outcomes at once
            agree += np.concatenate([np.count_nonzero(outcomes[i] == outcomes[i + 1:], axis=1)
                                     for i in range(n - 1)])
        return agree

    agree = sum(map_chunks(run_chunk, n_samples, CHUNK_SAMPLES, seed))
    return AgreementTable(n, agree / n_samples)
