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
from dataclasses import asdict, dataclass
from enum import Enum
from functools import partial

import numpy as np

from .config import block_kind, items, number, parse_block
from .geometry import UnitVector3, dot, sample_uniform_array
from .kolmogorov_check import AgreementTable, pair_indices
from .streams import chunk_rng, map_chunks

X_DOMAIN_TOL = 1e-9
CHUNK_TRIALS = 1 << 16  # fixed batch granularity for counter-based streams

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


class RhoDistribution:
    """Break-point density on [-1, 1]; cdf(-1) = 0 and cdf(1) = 1."""

    kind: str = ""

    def cdf(self, x: float) -> float:
        if x >= 1.0:
            return 1.0
        if x <= -1.0:
            return 0.0
        return self._cdf_inside(x)

    def _cdf_inside(self, x: float) -> float:
        """The CDF at x strictly inside (-1, 1)."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """An array of ``size`` break points drawn from ``rng``."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self)}

    @staticmethod
    def from_dict(d: dict) -> "RhoDistribution":
        numbers = partial(items, number)
        kinds = {
            "uniform": (UniformRho, {}),
            "delta": (DeltaRho, {"x0": number}),
            "piecewise": (PiecewiseConstantRho, {"breakpoints": numbers, "densities": numbers}),
            "truncated_gaussian": (TruncatedGaussianRho, {"center": number, "width": number}),
        }
        cls, fields = kinds[block_kind(d, "rho", kinds)]
        p = parse_block(d, "rho", required={"kind": None, **fields})
        del p["kind"]
        return cls(**p)


@dataclass(frozen=True)
class UniformRho(RhoDistribution):
    """Constant density 1/2: every break point equally likely."""

    kind = "uniform"

    def _cdf_inside(self, x):
        return (x + 1.0) / 2.0

    def sample(self, rng, size):
        return rng.uniform(-1.0, 1.0, size=size)


@dataclass(frozen=True)
class DeltaRho(RhoDistribution):
    """All mass at a single break point x0; the deterministic elastic.

    The CDF is a right-continuous step, so an outcome is fully decided by
    the sign of v.u - x0: the classical, predetermined regime.
    """

    x0: float
    kind = "delta"

    def __post_init__(self):
        if not -1.0 < self.x0 < 1.0:
            raise ValueError("delta break point must lie strictly inside (-1, 1)")

    def _cdf_inside(self, x):
        return 1.0 if x >= self.x0 else 0.0

    def sample(self, rng, size):
        return np.full(size, self.x0)


@dataclass(frozen=True)
class PiecewiseConstantRho(RhoDistribution):
    """Step density over a partition of [-1, 1].

    ``breakpoints`` are the ascending cell edges and must span the full
    interval (first -1, last 1); ``densities`` holds one nonnegative level
    per cell and is normalized to unit total mass.  Both are kept as float
    lists; the CDF and the sampler read array copies of them.
    """

    breakpoints: list
    densities: list
    kind = "piecewise"

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        dens = np.asarray(self.densities, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if dens.shape != (bp.size - 1,):
            raise ValueError("densities must have one entry per cell")
        for name, values in (("breakpoints", bp), ("densities", dens)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite, got {values.tolist()}")
        if bp[0] != -1.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must span [-1, 1]")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly ascending")
        if dens.min() < 0:
            raise ValueError("densities must be nonnegative")
        mass = dens * np.diff(bp)
        total = mass.sum()
        if total <= 0:
            raise ValueError("density must have positive total mass")
        dens = dens / total
        cum = np.concatenate([[0.0], np.cumsum(mass / total)])
        cum[-1] = 1.0  # pin against cumsum roundoff
        for name, value in (("breakpoints", bp.tolist()), ("densities", dens.tolist()),
                            ("_bp", bp), ("_dens", dens), ("_cum", cum)):
            object.__setattr__(self, name, value)

    def _cdf_inside(self, x):
        i = int(np.searchsorted(self._bp, x, side="right")) - 1
        return float(min(1.0, self._cum[i] + self._dens[i] * (x - self._bp[i])))

    def sample(self, rng, size):
        u = rng.random(size)
        idx = np.searchsorted(self._cum, u, side="right") - 1
        idx = np.clip(idx, 0, self._dens.size - 1)
        dens = self._dens[idx]
        x = self._bp[idx] + (u - self._cum[idx]) / np.where(dens > 0, dens, 1.0)
        return np.minimum(x, _BELOW_ONE)


@dataclass(frozen=True)
class TruncatedGaussianRho(RhoDistribution):
    """Gaussian bump (center, width) renormalized to [-1, 1].

    The bump must put some mass inside [-1, 1] in double precision: a
    center far outside the interval with a narrow width is rejected.
    """

    center: float
    width: float
    kind = "truncated_gaussian"

    def __post_init__(self):
        if not (math.isfinite(self.center) and math.isfinite(self.width)):
            raise ValueError("center and width must be finite")
        if self.width <= 0:
            raise ValueError("width must be positive")
        lo, hi = self._bounds()
        if not hi > lo:
            raise ValueError(f"truncated Gaussian (center {self.center!r}, width "
                             f"{self.width!r}) has no mass inside [-1, 1]")

    def _bounds(self):
        """(lo, hi): the standard normal CDF at the standardized ends -1, 1."""
        from scipy.special import ndtr

        return (ndtr((-1.0 - self.center) / self.width),
                ndtr((1.0 - self.center) / self.width))

    def _cdf_inside(self, x):
        from scipy.special import ndtr

        lo, hi = self._bounds()
        return float(min(1.0, max(0.0, (ndtr((x - self.center) / self.width) - lo) / (hi - lo))))

    def sample(self, rng, size):
        from scipy.special import ndtri

        lo, hi = self._bounds()
        u = rng.random(size)
        x = self.center + self.width * ndtri(lo + u * (hi - lo))
        return np.clip(x, -1.0, _BELOW_ONE)


def rho_cdf(rho: RhoDistribution, x: float) -> float:
    """P(break point <= x); x must lie in [-1, 1] up to a 1e-9 tolerance,
    and ``cdf`` is 0 below -1 and 1 above 1."""
    if not -1.0 - X_DOMAIN_TOL <= x <= 1.0 + X_DOMAIN_TOL:
        raise ValueError(f"elastic coordinate {x!r} outside [-1, 1]")
    return rho.cdf(x)


def transition_probabilities(rho: RhoDistribution, v: UnitVector3,
                             u: UnitVector3) -> tuple[float, float]:
    """(P[O1], P[O2]) for measuring along u with the particle at v.

    P[O1] is the rho-mass below the particle coordinate v.u; the pair sums
    to 1 exactly by construction.
    """
    p1 = rho_cdf(rho, dot(v, u))
    return p1, 1.0 - p1


def simulate_measurement(rho: RhoDistribution, state: UnitVector3,
                         u: UnitVector3, rng: np.random.Generator) -> MeasurementOutcome:
    """One elastic break: samples the break point and collapses the state.

    Outcome is O1 iff the break lands strictly below the particle coordinate
    v.u; ties go to O2 (measure zero for continuous rho, and the documented
    convention for the deterministic delta elastic).
    """
    x = float(rho.sample(rng, 1)[0])
    d = dot(state, u)
    if x < d:
        return MeasurementOutcome(OutcomeLabel.O1, u, x)
    return MeasurementOutcome(OutcomeLabel.O2, -u, x)


def measurement_counts(rho: RhoDistribution, state: UnitVector3, u: UnitVector3,
                       n_trials: int, seed: int, n_workers: int = 1) -> tuple[int, int]:
    """(count O1, count O2) over independent trials.

    Trials run in chunks of CHUNK_TRIALS on the counter-based streams of
    ``streams.map_chunks``, so trial outcomes depend only on (seed, trial
    index) and never on worker scheduling.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    d = dot(state, u)

    def run_chunk(rng, lo, size) -> int:
        return int(np.count_nonzero(rho.sample(rng, size=size) < d))

    n1 = sum(map_chunks(run_chunk, n_trials, CHUNK_TRIALS, seed, n_workers))
    return n1, n_trials - n1


def measurement_frequency(rho, state, u, n_trials, seed, n_workers=1) -> float:
    """Empirical frequency of O1; converges to transition_probabilities[0]."""
    n1, _ = measurement_counts(rho, state, u, n_trials, seed, n_workers=n_workers)
    return n1 / n_trials


def sequential_agreement(rho: RhoDistribution, u_i: UnitVector3,
                         u_j: UnitVector3) -> float:
    """P[O1] when measuring along u_j with the state prepared at u_i.

    Preparation means a prior measurement along u_i collapsed the state onto
    u_i, so this is the rho CDF at u_i . u_j.
    """
    return rho_cdf(rho, dot(u_i, u_j))


def agreement_table(rho: RhoDistribution, directions: list[UnitVector3]) -> AgreementTable:
    """Pairwise sequential agreement among eigenstate-prepared measurements."""
    n = len(directions)
    return AgreementTable.from_pair_values(n, [sequential_agreement(rho, directions[i], directions[j])
                                               for i, j in pair_indices(n)])


def hidden_state_agreement_table(rho: RhoDistribution, directions: list[UnitVector3],
                                 n_samples: int = 100_000, seed: int = 0) -> AgreementTable:
    """Agreement table of the one-shot classical model.

    A hidden state (uniform initial position v plus one independent break
    point per direction) fixes all outcomes jointly, so the empirical table
    is a mixture of deterministic assignments and always classical.
    """
    n = len(directions)
    if n < 2:
        raise ValueError("need at least two directions")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rng = chunk_rng(seed, 0)
    v = sample_uniform_array(rng, n_samples)
    dirs = np.array([[d.x, d.y, d.z] for d in directions])
    coords = np.clip(v @ dirs.T, -1.0, 1.0)  # (n_samples, n)
    breaks = rho.sample(rng, size=(n_samples, n))
    outcomes = np.ascontiguousarray((breaks < coords).T)  # (n, n_samples)
    # row i against every later row gives pairs (i, i+1), ..., (i, n-1): the
    # pair_indices order, without an array of every pair's outcomes at once
    agree = [np.count_nonzero(outcomes[i] == outcomes[i + 1:], axis=1) for i in range(n - 1)]
    return AgreementTable.from_pair_values(n, np.concatenate(agree) / n_samples)
