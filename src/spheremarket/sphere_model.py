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
from typing import TYPE_CHECKING

import numpy as np

from .config import FieldError, block_kind, build, items, number, parse_block, require_finite
from .geometry import UnitVector3, dot, sample_uniform_array
from .ndtr import ndtr
from .streams import check_workers, map_chunks

if TYPE_CHECKING:
    from .kolmogorov_check import AgreementTable

CHUNK_TRIALS = 1 << 16  # fixed batch granularity for counter-based streams
CHUNK_SAMPLES = 1 << 17  # hidden states per chunk of a hidden-state table

# largest double strictly below 1; samples are clamped under it so an
# eigenstate (v.u == 1) can never tie with the break point
_BELOW_ONE = math.nextafter(1.0, -1.0)
_UNIT_PIECE = np.array([0.0, 1.0])  # all of [0, 1) as one piece
_UNIT_PIECE.flags.writeable = False


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
    """Break-point density on [-1, 1]; cdf(-1) = 0 and cdf(1) = 1.

    A break point is ``quantile`` of ``draws`` uniforms on [0, 1): one for
    every density but the delta, which needs none.
    """

    kind: str = ""
    draws: int = 1

    def cdf(self, x: float) -> float:
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

    def monotone_pieces(self) -> tuple[np.ndarray, float]:
        """(edges, slack): ascending edges 0 = e_0 < ... < e_k = 1 such that,
        in floating point, ``quantile`` never falls by more than ``slack`` as
        u rises within a piece [e_i, e_i+1).  A slack of 0 means quantile is
        nondecreasing on every piece."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self)}

    @staticmethod
    def from_dict(d: dict, path: str = "rho") -> "RhoDistribution":
        """The density of block ``d``; errors name keys under ``path``."""
        numbers = partial(items, number)
        kinds = {
            "uniform": (UniformRho, {}),
            "delta": (DeltaRho, {"x0": number}),
            "piecewise": (PiecewiseConstantRho, {"breakpoints": numbers, "densities": numbers}),
            "truncated_gaussian": (TruncatedGaussianRho, {"center": number, "width": number}),
        }
        cls, fields = kinds[block_kind(d, path, kinds)]
        p = parse_block(d, path, required={"kind": None, **fields})
        del p["kind"]
        return build(cls, path, p)


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

    def monotone_pieces(self):
        return _UNIT_PIECE, 0.0  # a multiply and a subtract, both monotone


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

    def monotone_pieces(self):
        return _UNIT_PIECE, 0.0


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
        for name, value in (("breakpoints", bp.tolist()), ("densities", dens.tolist()),
                            ("_bp", bp), ("_dens", dens), ("_cum", cum)):
            object.__setattr__(self, name, value)

    def _cdf_inside(self, x):
        i = int(np.searchsorted(self._bp, x, side="right")) - 1
        return float(min(1.0, self._cum[i] + self._dens[i] * (x - self._bp[i])))

    def quantile(self, u):
        idx = np.searchsorted(self._cum, u, side="right") - 1
        idx = np.clip(idx, 0, self._dens.size - 1)
        dens = self._dens[idx]
        x = self._bp[idx] + (u - self._cum[idx]) / np.where(dens > 0, dens, 1.0)
        return np.minimum(x, _BELOW_ONE)

    def monotone_pieces(self):
        # u in [_cum[i], _cum[i+1]) keeps the cell index i fixed, and a
        # subtract, a divide by a positive density, an add and a minimum
        # are each monotone in IEEE arithmetic
        return np.unique(np.minimum(self._cum, 1.0)), 0.0


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

    def monotone_pieces(self):
        """One piece, with slack 2**-29 (1 + |c|) for center c, about
        1.9e-9 (1 + |c|).

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
        return _UNIT_PIECE, 2.0 ** -29 * (1.0 + abs(self.center))


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


Intervals = list[tuple[float, float]]


def _merged(intervals) -> Intervals:
    """The nonempty ascending intervals [a, b), touching ones joined."""
    out = []
    for a, b in intervals:
        if a == b:
            continue
        if out and out[-1][1] == a:
            a = out.pop()[0]
        out.append((a, b))
    return out


def _below_intervals(rho: RhoDistribution, d: float) -> tuple[Intervals, Intervals]:
    """(below, band), each a list of disjoint, ascending, non-touching
    intervals [a, b) of [0, 1).  Every u in ``below`` has
    rho.quantile(u) < d, no u outside both lists has, and the u in ``band``
    must be decided by quantile itself.

    With ``edges, slack = rho.monotone_pieces()``, each piece is bisected for
    a u0 whose quantile is at least t while the double before it (if in the
    piece) has quantile below t: once at t = d - slack and once at
    t = d + slack, or once at t = d when slack is 0.  Since quantile falls by
    at most slack within a piece, every u before the first u0 is below d
    and no u from the second u0 on is; between them lies the band, empty
    when slack is 0.  All pieces and thresholds are bisected at once on the
    int64 bit patterns of their nonnegative doubles, which order as the
    doubles do, and every candidate goes through ``rho.quantile`` itself.
    """
    edges, slack = rho.monotone_pieces()
    thresholds = np.array([d - slack, d + slack] if slack else [d])
    k = edges.size - 1
    t = np.repeat(thresholds, k)
    bits = edges.view(np.int64)
    lo, hi = np.tile(bits[:-1], thresholds.size), np.tile(bits[1:], thresholds.size)
    while (open_ := lo < hi).any():
        mid = lo + (hi - lo) // 2
        below = rho.quantile(mid.view(np.float64)) < t
        lo = np.where(open_ & below, mid + 1, lo)
        hi = np.where(open_ & ~below, mid, hi)
    ends = lo.view(np.float64).tolist()
    first, last = ends[:k], ends[-k:]
    return _merged(zip(edges[:-1].tolist(), first)), _merged(zip(first, last))


def measurement_counts(rho: RhoDistribution, state: UnitVector3, u: UnitVector3,
                       n_trials: int, seed: int, n_workers: int = 1) -> tuple[int, int]:
    """(count O1, count O2) over independent trials.

    Trials run in chunks of CHUNK_TRIALS on the counter-based streams of
    ``streams.map_chunks``, so trial outcomes depend only on (seed, trial
    index) and never on worker scheduling.  Trial k is O1 when the break
    point quantile(uniform k) falls below v.u.  Each chunk draws the
    uniforms that ``rho.sample`` would and counts those inside the
    ``_below_intervals``, plus those in the band whose quantile falls below
    v.u, which gives the sampled counts without building break points; when
    the intervals are empty or all of [0, 1) and there is no band, no trial
    draws.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    check_workers(n_workers)
    d = dot(state, u)
    below, band = _below_intervals(rho, d)
    if not band and below in ([], [(0.0, 1.0)]):
        n1 = n_trials if below else 0
        return n1, n_trials - n1
    # the interval ends whose count of uniforms below them a chunk needs
    cuts = {x for interval in below + band for x in interval} - {0.0, 1.0}

    def run_chunk(rng, lo, size) -> int:
        r = rng.random(size)
        n_below = {0.0: 0, 1.0: size, **{x: int(np.count_nonzero(r < x)) for x in cuts}}
        n1 = sum(n_below[b] - n_below[a] for a, b in below)
        for a, b in band:
            if n_below[b] > n_below[a]:
                n1 += int(np.count_nonzero(rho.quantile(r[(a <= r) & (r < b)]) < d))
        return n1

    n1 = sum(map_chunks(run_chunk, n_trials, CHUNK_TRIALS, seed, n_workers))
    return n1, n_trials - n1


def agreement_table(rho: RhoDistribution, directions: list[UnitVector3]) -> AgreementTable:
    """Pairwise sequential agreement among eigenstate-prepared measurements.

    A prior measurement along d_i collapsed the state onto d_i, so pair
    (i, j) agrees with P[O1] for the particle at d_i measured along d_j.
    """
    from .kolmogorov_check import AgreementTable, pair_index

    n = len(directions)
    return AgreementTable(n, [transition_probabilities(rho, directions[i], directions[j])[0]
                              for i, j in zip(*pair_index(n))])


def hidden_state_agreement_table(rho: RhoDistribution, directions: list[UnitVector3],
                                 n_samples: int = 100_000, seed: int = 0) -> AgreementTable:
    """Agreement table of the one-shot classical model.

    A hidden state (uniform initial position v plus one independent break
    point per direction) fixes all outcomes jointly, so the empirical table
    is a mixture of deterministic assignments and always classical.  It
    runs in chunks of CHUNK_SAMPLES on ``streams.map_chunks``, whose counts
    add exactly, so at most CHUNK_SAMPLES samples draw from chunk 0 alone.
    """
    from .kolmogorov_check import AgreementTable

    n = len(directions)
    if n < 2:
        raise ValueError("need at least two directions")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    dirs_t = np.array(directions).T

    def run_chunk(rng, lo, size) -> np.ndarray:
        # states, then break points.  A coordinate may round just past +-1 and
        # is not clipped: every break point lies in [-1, 1), so it is below a
        # coordinate past 1 and not below one past -1, as against the clip
        coords = sample_uniform_array(rng, size) @ dirs_t  # (size, n)
        outcomes = np.ascontiguousarray((rho.sample(rng, size=(size, n)) < coords).T)
        # row i against every later row gives pairs (i, i+1), ..., (i, n-1): the
        # pair_index order, without an array of every pair's outcomes at once
        return np.concatenate([np.count_nonzero(outcomes[i] == outcomes[i + 1:], axis=1)
                               for i in range(n - 1)])

    agree = sum(map_chunks(run_chunk, n_samples, CHUNK_SAMPLES, seed))
    return AgreementTable(n, agree / n_samples)
