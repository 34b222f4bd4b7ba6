import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from spheremarket.geometry import (UnitVector3, dot, from_polar, sample_uniform,
                                  sample_uniform_array)
from spheremarket.kolmogorov_check import AgreementTable
from spheremarket.sphere_model import (
    BLOCK_SAMPLES,
    CHUNK_SAMPLES,
    CHUNK_TRIALS,
    DeltaRho,
    OutcomeLabel,
    PiecewiseConstantRho,
    RhoDistribution,
    TruncatedGaussianRho,
    UniformRho,
    agreement_table,
    hidden_state_agreement_table,
    measurement_counts,
    simulate_measurement,
    transition_probabilities,
    _row_blocks,
    _thresholds,
)
from spheremarket.streams import chunk_rng, map_chunks

POLE = UnitVector3(0.0, 0.0, 1.0)


def all_variants():
    return [
        UniformRho(),
        DeltaRho(0.2),
        PiecewiseConstantRho([-1.0, -0.25, 0.5, 1.0], [0.5, 2.0, 1.0]),
        TruncatedGaussianRho(center=0.1, width=0.4),
    ]


class TestRhoCdf:
    def test_uniform_full_interval(self):
        assert UniformRho().cdf(1.0) == 1.0

    def test_nan_raises_for_every_density(self):
        # each density once gave its own answer: nan for the uniform, 0.0 for
        # the delta and the truncated Gaussian, an IndexError for the piecewise
        for rho in all_variants():
            with pytest.raises(ValueError, match=f"{type(rho).__name__}.cdf of NaN"):
                rho.cdf(math.nan)

    def test_uniform_midpoint(self):
        # closed-form integral of the density 1/2 over [-1, 0]
        assert UniformRho().cdf(0.0) == 0.5

    def test_delta_step(self):
        rho = DeltaRho(0.2)
        assert rho.cdf(0.1) == 0.0
        assert rho.cdf(0.3) == 1.0
        assert rho.cdf(0.2) == 1.0  # right-continuous step

    def test_normalization_all_variants(self):
        for rho in all_variants():
            assert rho.cdf(-1.0) == 0.0
            assert rho.cdf(1.0) == 1.0

    def test_nondecreasing(self):
        grid = np.linspace(-1.0, 1.0, 401)
        for rho in all_variants():
            vals = [rho.cdf(float(x)) for x in grid]
            assert np.all(np.diff(vals) >= -1e-15)

    def test_domain_clamp(self):
        assert UniformRho().cdf(1.0 + 5e-10) == 1.0
        assert UniformRho().cdf(-1.0 - 5e-10) == 0.0
        assert UniformRho().cdf(1.1) == 1.0  # defined on the whole real line
        assert UniformRho().cdf(-1.1) == 0.0

    def test_truncated_gaussian_matches_quadrature(self):
        # independent oracle: adaptive quadrature of the renormalized density
        rho = TruncatedGaussianRho(center=0.1, width=0.4)

        def density(x):
            return math.exp(-0.5 * ((x - 0.1) / 0.4) ** 2)

        total, _ = quad(density, -1.0, 1.0, epsabs=1e-13)
        for x in [-0.9, -0.3, 0.0, 0.1, 0.42, 0.9]:
            expected, _ = quad(density, -1.0, x, epsabs=1e-13)
            assert abs(rho.cdf(x) - expected / total) < 1e-10

    def test_piecewise_hand_values(self):
        # masses 1 and 3 over [-1, 0] and [0, 1] -> normalized 1/4 and 3/4
        rho = PiecewiseConstantRho([-1.0, 0.0, 1.0], [1.0, 3.0])
        assert rho.cdf(0.0) == pytest.approx(0.25, abs=1e-15)
        assert rho.cdf(0.5) == pytest.approx(0.625, abs=1e-15)

    def test_piecewise_validation(self):
        with pytest.raises(ValueError):
            PiecewiseConstantRho([-1.0, 0.5], [-1.0])
        with pytest.raises(ValueError):
            PiecewiseConstantRho([-0.5, 1.0], [1.0])  # does not span [-1, 1]
        with pytest.raises(ValueError):
            PiecewiseConstantRho([-1.0, 0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            PiecewiseConstantRho([-1.0, 1.0], [0.0])  # zero total mass

    def test_piecewise_mass_too_small_to_normalize_rejected(self):
        # the only mass sits on a subnormal-width cell: normalizing once
        # overflowed to an infinite density (a RuntimeWarning)
        with pytest.raises(ValueError, match="^densities give total mass 2.2250738585e-313"):
            PiecewiseConstantRho([-1.0, 0.0, 2.2250738585e-313, 1.0], [0.0, 1.0, 0.0])

    def test_piecewise_zero_cell_never_sampled(self):
        # zero-density middle cell: the inverse CDF must skip the plateau
        rho = PiecewiseConstantRho([-1.0, -0.5, 0.5, 1.0], [1.0, 0.0, 1.0])
        xs = rho.sample(np.random.default_rng(10), size=20_000)
        assert not np.any((xs > -0.5) & (xs < 0.5))
        assert rho.cdf(0.0) == 0.5

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            DeltaRho(1.0)
        with pytest.raises(ValueError):
            DeltaRho(-1.0)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            TruncatedGaussianRho(center=0.0, width=0.0)

    def test_truncated_gaussian_without_mass_rejected(self):
        # the bump sits 4900 widths above the interval: ndtr gives hi == lo
        # there, which cdf and sample would divide by
        with pytest.raises(ValueError, match="no mass"):
            TruncatedGaussianRho(center=50.0, width=0.01)
        with pytest.raises(ValueError, match="no mass"):
            TruncatedGaussianRho(center=-50.0, width=0.01)

    @pytest.mark.parametrize("center, width", [(math.nan, 0.3), (math.inf, 0.3),
                                               (0.0, math.nan), (0.0, math.inf)])
    def test_truncated_gaussian_non_finite_rejected(self, center, width):
        with pytest.raises(ValueError, match="finite"):
            TruncatedGaussianRho(center=center, width=width)

    def test_truncated_gaussian_far_but_massive_center(self):
        rho = TruncatedGaussianRho(center=3.0, width=0.5)
        xs = rho.sample(np.random.default_rng(4), size=1000)
        assert np.all((xs >= -1.0) & (xs < 1.0))
        assert 0.0 < rho.cdf(0.9) < 1.0

    def test_truncated_gaussian_far_below_is_the_mirror_image(self):
        # at center -1.4 the mass once sat just below ndtr = 1, where
        # lo + u (hi - lo) spans a few doubles: 7 distinct break points in
        # 10**5 draws and cdf steps of 1/6
        rho = TruncatedGaussianRho(center=-1.4, width=0.05)
        mirror = TruncatedGaussianRho(center=1.4, width=0.05)
        u = np.random.default_rng(5).random(10 ** 5)
        xs = rho.quantile(u)
        assert np.unique(xs).size == u.size
        assert np.allclose([rho.cdf(float(x)) for x in xs[:500]], u[:500], rtol=0, atol=1e-9)
        for x in np.linspace(-0.9999, 0.9999, 41).tolist():
            assert abs(rho.cdf(x) - (1.0 - mirror.cdf(-x))) < 1e-12
        assert abs(rho.cdf(-0.999) - 0.150090) < 5e-7


class TestTransitionProbabilities:
    def test_uniform_is_cos_squared_half_angle(self):
        rho = UniformRho()
        for deg in range(5, 180, 5):
            theta = math.radians(deg)
            p1, p2 = transition_probabilities(rho, from_polar(theta, 0.0), POLE)
            assert abs(p1 - math.cos(theta / 2.0) ** 2) < 1e-12
            assert p1 + p2 == 1.0

    def test_right_angle_is_half(self):
        p1, _ = transition_probabilities(UniformRho(), from_polar(math.pi / 2, 0.0), POLE)
        assert abs(p1 - 0.5) < 1e-12

    def test_aligned_state_certain(self):
        for rho in all_variants():
            p1, p2 = transition_probabilities(rho, POLE, POLE)
            assert p1 == 1.0 and p2 == 0.0

    def test_nan_state_raises(self):
        # clamped, the NaN coordinate would read -1.0: (0.0, 1.0) and (0, n)
        nan_state = (math.nan, 0.0, 0.0)
        with pytest.raises(ValueError, match="is NaN"):
            transition_probabilities(UniformRho(), nan_state, POLE)
        with pytest.raises(ValueError, match="is NaN"):
            measurement_counts(UniformRho(), nan_state, POLE, 1000, seed=0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_infinite_state_raises(self, sign):
        # clamped, (0, 0, inf) read as the pole itself: (1.0, 0.0) and (n, 0)
        state = (0.0, 0.0, sign * math.inf)
        with pytest.raises(ValueError, match="is -?inf"):
            transition_probabilities(UniformRho(), state, POLE)
        with pytest.raises(ValueError, match="is -?inf"):
            measurement_counts(UniformRho(), state, POLE, 1000, seed=0)

    @pytest.mark.parametrize("n_trials", [10.5, 10.0, True])
    def test_counts_need_an_integer_trial_count(self, n_trials):
        # 10.5 trials once counted (10.5, 0.0)
        with pytest.raises(ValueError, match="'n_trials' must be an integer"):
            measurement_counts(UniformRho(), POLE, POLE, n_trials, seed=0)

    @pytest.mark.parametrize("n_samples", [10.5, True])
    def test_hidden_state_table_needs_an_integer_sample_count(self, n_samples):
        with pytest.raises(ValueError, match="'n_samples' must be an integer"):
            hidden_state_agreement_table(UniformRho(), [POLE, -POLE], n_samples=n_samples)

    def test_delta_classical_regime(self):
        v = from_polar(math.acos(0.3), 0.0)
        p1, _ = transition_probabilities(DeltaRho(0.0), v, POLE)
        assert p1 == 1.0

    def test_pair_sums_exactly_one(self):
        rng = np.random.default_rng(42)
        variants = all_variants()
        for i in range(400):
            rho = variants[i % len(variants)]
            p1, p2 = transition_probabilities(rho, sample_uniform(rng), sample_uniform(rng))
            assert p1 + p2 == 1.0

    def test_monotone_in_alignment(self):
        for rho in all_variants():
            thetas = np.linspace(math.pi, 0.0, 100)  # increasing v.u
            probs = [transition_probabilities(rho, from_polar(t, 0.0), POLE)[0]
                     for t in thetas]
            assert np.all(np.diff(probs) >= -1e-15)


class TestSimulateMeasurement:
    def test_eigenstate_always_o1(self):
        rng = np.random.default_rng(3)
        for rho in all_variants():
            for _ in range(100):
                out = simulate_measurement(rho, POLE, POLE, rng)
                assert out.label is OutcomeLabel.O1
                assert out.collapsed_state == POLE

    def test_antipodal_state_always_o2(self):
        rng = np.random.default_rng(4)
        for rho in all_variants():
            out = simulate_measurement(rho, -POLE, POLE, rng)
            assert out.label is OutcomeLabel.O2
            assert out.collapsed_state == -POLE

    def test_break_above_particle_forces_o2(self):
        rng = np.random.default_rng(5)
        v = from_polar(math.pi / 3, 0.0)  # v.u = 0.5
        for _ in range(50):
            out = simulate_measurement(DeltaRho(0.9), v, POLE, rng)
            assert out.label is OutcomeLabel.O2

    def test_tie_goes_to_o2(self):
        rng = np.random.default_rng(6)
        v = from_polar(math.acos(0.2), 0.0)
        d = dot(v, POLE)
        out = simulate_measurement(DeltaRho(d), v, POLE, rng)
        assert out.label is OutcomeLabel.O2

    def test_collapse_matches_label(self):
        rng = np.random.default_rng(7)
        for rho in all_variants():
            for _ in range(50):
                state, u = sample_uniform(rng), sample_uniform(rng)
                out = simulate_measurement(rho, state, u, rng)
                expected = u if out.label is OutcomeLabel.O1 else -u
                assert out.collapsed_state == expected
                assert -1.0 <= out.break_point <= 1.0

    def test_repeatability(self):
        # second measurement along the same direction starts from an
        # eigenstate, so it must repeat the first outcome, always
        rng = np.random.default_rng(8)
        for rho in all_variants():
            for _ in range(200):
                state, u = sample_uniform(rng), sample_uniform(rng)
                first = simulate_measurement(rho, state, u, rng)
                second = simulate_measurement(rho, first.collapsed_state, u, rng)
                assert second.label is first.label
                assert second.collapsed_state == first.collapsed_state

    def test_sixty_degree_frequency(self):
        # analytic p1 = cos^2(30 deg) = 0.75 for the uniform elastic
        v = from_polar(math.pi / 3, 0.0)
        n = 10 ** 6
        n1, _ = measurement_counts(UniformRho(), v, POLE, n, seed=11)
        assert abs(n1 / n - 0.75) < 4.0 * math.sqrt(0.75 * 0.25 / n)

    def test_monte_carlo_matches_analytic_all_variants(self):
        rng = np.random.default_rng(1234)
        n = 10 ** 5
        for rho in all_variants():
            for k in range(20):
                v, u = sample_uniform(rng), sample_uniform(rng)
                p1, _ = transition_probabilities(rho, v, u)
                n1, _ = measurement_counts(rho, v, u, n, seed=1000 + k)
                assert abs(n1 / n - p1) <= 4.0 * math.sqrt(p1 * (1 - p1) / n) + 1e-12

    def test_counts_deterministic_and_worker_independent(self):
        v = from_polar(1.0, 0.5)
        args = (UniformRho(), v, POLE, 200_000)
        ref = measurement_counts(*args, seed=99, n_workers=1)
        assert measurement_counts(*args, seed=99, n_workers=1) == ref
        assert measurement_counts(*args, seed=99, n_workers=8) == ref

    def test_counts_reject_worker_count_below_one(self):
        # once ran serially without a word
        with pytest.raises(ValueError, match="n_workers"):
            measurement_counts(UniformRho(), POLE, POLE, 1000, seed=0, n_workers=-3)

    @pytest.mark.parametrize("rho", [DeltaRho(0.2), UniformRho()], ids=["delta", "uniform"])
    def test_counts_validate_before_the_drawless_answer(self, rho):
        # both answer (n_trials, 0) at the eigenstate without drawing a uniform
        assert measurement_counts(rho, POLE, POLE, 1000, seed=0) == (1000, 0)
        with pytest.raises(ValueError, match="n_workers must be at least 1, got 0"):
            measurement_counts(rho, POLE, POLE, 1000, seed=0, n_workers=0)
        with pytest.raises(ValueError, match="n_trials must be positive"):
            measurement_counts(rho, POLE, POLE, 0, seed=0)

    def test_sampling_matches_cdf(self):
        # inverse-CDF sampling reproduces each variant's CDF on a grid
        rng = np.random.default_rng(55)
        n = 10 ** 5
        for rho in all_variants():
            xs = np.asarray(rho.sample(rng, size=n))
            for c in [-0.5, 0.0, 0.3, 0.7]:
                p = rho.cdf(c)
                sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
                # P(x <= c): ties have measure zero except for the delta
                emp = float(np.mean(xs <= c))
                assert abs(emp - p) <= 4.0 * sigma + 1e-9


RHO_KINDS = ("uniform", "delta", "piecewise", "truncated_gaussian")


@st.composite
def counted_rhos(draw, kinds=RHO_KINDS):
    """Every density kind: uniform, delta, piecewise with 1-8 cells (some of
    density 0), and truncated Gaussians with center in [-1.5, 1.5] and width
    in [0.05, 2]; or those of ``kinds`` only."""
    kind = draw(st.sampled_from(kinds))
    inside = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)
    if kind == "uniform":
        return UniformRho()
    if kind == "delta":
        return DeltaRho(draw(inside))
    try:
        if kind == "truncated_gaussian":
            return TruncatedGaussianRho(draw(st.floats(-1.5, 1.5)), draw(st.floats(0.05, 2.0)))
        n = draw(st.integers(1, 8))
        inner = sorted(draw(st.lists(inside, min_size=n - 1, max_size=n - 1, unique=True)))
        levels = draw(st.lists(st.just(0.0) | st.floats(1e-3, 1e3), min_size=n, max_size=n))
        return PiecewiseConstantRho([-1.0, *inner, 1.0], levels)
    except ValueError:  # no mass in double precision, or too little to normalize
        assume(False)


def cell_edges(rho) -> np.ndarray:
    """The uniforms where a piecewise density's cells start, ``_cum`` capped
    at 1, or 0 and 1 for the other densities."""
    return np.minimum(getattr(rho, "_cum", np.array([0.0, 1.0])), 1.0)


def critical_coordinates(rho, data, rng) -> tuple[float, np.ndarray]:
    """An elastic coordinate d drawn from the breakpoints, from quantile
    values and from their neighbours, and uniforms that hold every cell
    edge below 1, the float just below every edge above 0 and random draws."""
    edges = cell_edges(rho)
    u = np.concatenate([rng.random(2000), edges[edges < 1.0],
                        np.nextafter(edges[edges > 0.0], 0.0)])
    points = [-1.0, 1.0, *getattr(rho, "breakpoints", []), *rho.quantile(u).tolist()]
    d = data.draw(st.sampled_from(points))
    d = data.draw(st.sampled_from([d, math.nextafter(d, -math.inf), math.nextafter(d, math.inf)]))
    return min(1.0, max(-1.0, d)), u


def at_coordinate(d: float) -> UnitVector3:
    """A state whose coordinate on POLE, ``dot(state, POLE)``, is exactly d."""
    return UnitVector3(math.sqrt(max(0.0, 1.0 - d * d)), 0.0, d)


def in_intervals(u: np.ndarray, intervals) -> np.ndarray:
    inside = np.zeros(u.shape, dtype=bool)
    for a, b in intervals:
        inside |= (a <= u) & (u < b)
    return inside


def classify(rho, d: float, u: np.ndarray) -> np.ndarray:
    """O1 as ``measurement_counts`` decides it: below f, or inside the band
    [f, l) with a break point below d."""
    f, l = _thresholds(rho, d)
    return in_intervals(u, [(0.0, f)]) | (in_intervals(u, [(f, l)]) & (rho.quantile(u) < d))


def interval_ends(intervals) -> np.ndarray:
    """Every end of ``intervals`` and the floats on each side of it, in [0, 1)."""
    ends = np.array(intervals, dtype=float).ravel()
    u = np.concatenate([ends, np.nextafter(ends, 0.0), np.nextafter(ends, 1.0)])
    return u[u < 1.0]


def sampled_count(rho, d: float, n_trials: int, seed: int) -> int:
    """The O1 count from sampled break points: every chunk's comparison
    before the thresholds."""
    return sum(map_chunks(lambda rng, lo, size: int(np.count_nonzero(rho.sample(rng, size) < d)),
                          n_trials, CHUNK_TRIALS, seed))


class TestBelowIntervals:
    @given(rho=counted_rhos(), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_select_exactly_the_uniforms_below(self, rho, data, seed):
        rng = np.random.default_rng(seed)
        d, u = critical_coordinates(rho, data, rng)
        f, l = _thresholds(rho, d)
        assert 0.0 <= f <= l <= 1.0
        # the band is empty without slack, and holds only uniforms whose
        # break point lies within twice the slack of d
        assert rho.slack > 0.0 or f == l
        if f < l:
            last = np.nextafter(l, 0.0)
            inside = np.concatenate([[f, last], np.minimum(rng.uniform(f, l, 100), last)])
            assert np.all(np.abs(rho.quantile(inside) - d) <= 2.0 * rho.slack)
        u = np.concatenate([u, interval_ends([(f, l)])])
        np.testing.assert_array_equal(classify(rho, d, u), rho.quantile(u) < d)

    @given(rho=counted_rhos(), data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
           n_trials=st.sampled_from([1, CHUNK_TRIALS, CHUNK_TRIALS + 4465]))
    @settings(max_examples=60, deadline=None)
    def test_counts_match_sampled_break_points(self, rho, data, seed, n_trials):
        d, _ = critical_coordinates(rho, data, np.random.default_rng(seed))
        n1 = sampled_count(rho, d, n_trials, seed)
        counts = measurement_counts(rho, at_coordinate(d), POLE, n_trials, seed)
        assert counts == (n1, n_trials - n1)

    def test_cell_end_capped_at_the_next_breakpoint(self):
        # uncapped, the first cell's last break point rounds to just above the
        # breakpoint -0.23, where the second cell starts; capped, it is -0.23,
        # so the uniforms below the next double up are one prefix of [0, 1)
        rho = PiecewiseConstantRho([-1.0, -0.23, 0.99, 1.0], [2.9, 2.1, 2.0])
        edge = rho._cum[1]
        assert rho.quantile(np.nextafter(edge, 0.0)) == -0.23
        d = math.nextafter(-0.23, 1.0)
        f, l = _thresholds(rho, d)
        assert f == l and f > edge
        # the 8 floats on each side of the edge, and f with its neighbours
        near = (np.array([edge]).view(np.int64) + np.arange(-8, 9)).view(np.float64)
        u = np.concatenate([near, interval_ends([(0.0, f)])])
        np.testing.assert_array_equal(classify(rho, d, u), rho.quantile(u) < d)
        n1 = sampled_count(rho, d, 100_000, 3)
        assert measurement_counts(rho, at_coordinate(d), POLE, 100_000, 3) == (n1, 100_000 - n1)

    def test_band_decides_a_falling_truncated_gaussian_pair(self, monkeypatch):
        # quantile falls between these adjacent doubles, so the uniforms whose
        # break point lies below d are not a prefix of [0, 1)
        rho = TruncatedGaussianRho(center=0.1, width=0.4)
        u0, d = 0.15345456636464716, -0.307600527589001
        pair = np.array([u0, math.nextafter(u0, 1.0)])
        assert rho.quantile(pair).tolist() == [d, -0.30760052758900114]
        f, l = _thresholds(rho, d)
        assert f < u0 < l
        # the 16 floats on each side of u0, and the band edges with theirs
        near = (np.array([u0]).view(np.int64) + np.arange(-16, 17)).view(np.float64)
        u = np.concatenate([near, interval_ends([(f, l)])])
        np.testing.assert_array_equal(classify(rho, d, u), rho.quantile(u) < d)
        n1 = sampled_count(rho, d, 200_000, 4)
        assert measurement_counts(rho, at_coordinate(d), POLE, 200_000, 4) == (n1, 200_000 - n1)
        # without slack one threshold splits [0, 1), and it must misplace u0
        # or its neighbour
        monkeypatch.setattr(TruncatedGaussianRho, "slack", 0.0)
        f, l = _thresholds(rho, d)
        assert f == l
        assert in_intervals(pair, [(0.0, f)]).tolist() != (rho.quantile(pair) < d).tolist()

    def test_band_holding_a_drawn_uniform_is_decided_by_quantile(self):
        # the band is about 3e-8 wide, so few chunks draw a uniform inside
        # it; chunk 0 at seed 730 draws one, and measurement_counts must send
        # it through quantile
        rho = TruncatedGaussianRho(center=0.0, width=0.05)
        v = from_polar(math.pi / 2, 0.0)
        d = dot(v, POLE)
        r = chunk_rng(730, 0).random(CHUNK_TRIALS)
        assert in_intervals(r, [_thresholds(rho, d)]).sum() == 1
        n1 = int(np.count_nonzero(rho.quantile(r) < d))
        assert n1 == 33064
        assert measurement_counts(rho, v, POLE, CHUNK_TRIALS, 730) == (n1, CHUNK_TRIALS - n1)

    @pytest.mark.parametrize("center, width", [(0.1, 0.4), (0.0, 0.05), (1.5, 0.05),
                                               (-1.2, 0.05), (-1.4, 0.05), (0.9, 2.0),
                                               (-0.3, 1.0)])
    def test_truncated_gaussian_falls_far_inside_its_slack(self, center, width):
        # the slack is meant to sit 10**5 above the largest fall of quantile
        rho = TruncatedGaussianRho(center=center, width=width)
        slack = rho.slack
        u = np.sort(np.random.default_rng(8).random(1 << 18))
        q = rho.quantile(u)
        assert np.max(np.maximum.accumulate(q) - q) <= slack * 1e-4
        assert np.max(q - rho.quantile(np.nextafter(u, 1.0))) <= slack * 1e-4


class TestSequentialAgreement:
    def test_uniform_120_degrees(self):
        u1 = from_polar(0.0, 0.0)
        u2 = from_polar(2 * math.pi / 3, 0.0)
        assert abs(transition_probabilities(UniformRho(), u1, u2)[0] - 0.25) < 1e-12

    def test_same_direction_certain(self):
        u = from_polar(0.7, 0.3)
        for rho in all_variants():
            assert transition_probabilities(rho, u, u)[0] == 1.0

    def test_uniform_antipodal_zero(self):
        u = from_polar(0.7, 0.3)
        assert transition_probabilities(UniformRho(), u, -u)[0] == 0.0


# the sequential and the hidden-state table, each as f(rho, directions)
BOTH_TABLES = [agreement_table,
               lambda rho, dirs: hidden_state_agreement_table(rho, dirs, n_samples=1000, seed=1)]


class TestAgreementTable:
    def test_uniform_coplanar_120(self):
        dirs = [from_polar(k * 2 * math.pi / 3, 0.0) for k in range(3)]
        table = agreement_table(UniformRho(), dirs)
        off_diag = table.q[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off_diag - 0.25) < 1e-12)

    def test_identical_directions_all_ones(self):
        u = from_polar(0.4, 0.9)
        table = agreement_table(UniformRho(), [u, u, u])
        assert np.array_equal(table.q, np.ones((3, 3)))

    def test_antipodal_pair(self):
        u = from_polar(0.4, 0.9)
        table = agreement_table(UniformRho(), [u, -u])
        assert table.q[0, 1] == 0.0

    def test_requires_two_directions(self):
        with pytest.raises(ValueError):
            agreement_table(UniformRho(), [POLE])

    @pytest.mark.parametrize("table", BOTH_TABLES, ids=["sequential", "hidden_state"])
    @pytest.mark.parametrize("bad", [(math.nan, 0.0, 0.0), (2.0, 0.0, 0.0), (0.0, 0.0, 0.0)])
    def test_tables_reject_a_direction_off_the_sphere(self, table, bad):
        # UnitVector3's norm check, on plain tuples too: a NaN direction gave
        # pair values 0.0 and 0.514, a direction of norm 2 gave 0.5 and 0.458
        with pytest.raises(ValueError, match="not a unit vector"):
            table(UniformRho(), [POLE, bad, from_polar(1.0, 0.5)])

    @pytest.mark.parametrize("table", BOTH_TABLES, ids=["sequential", "hidden_state"])
    def test_tables_reject_a_direction_of_two_components(self, table):
        with pytest.raises(ValueError):
            table(UniformRho(), [(1.0, 0.0), (0.0, 1.0)])

    def test_hidden_state_table_symmetric_unit_diag(self):
        dirs = [from_polar(k * math.pi / 3, 0.0) for k in range(3)]
        table = hidden_state_agreement_table(DeltaRho(0.0), dirs, n_samples=2000, seed=1)
        assert np.array_equal(table.q, table.q.T)
        assert np.array_equal(np.diag(table.q), np.ones(3))

    def test_hidden_state_table_peak_memory(self):
        # 20000 samples on 10 directions are one chunk, which holds its two
        # state draws (16 bytes a sample, 0.32 MB) and one block's arrays: a
        # (BLOCK_SAMPLES, 10) float array is 0.33 MB, and a uniform block holds
        # three at once (coordinates, uniforms, break points).  The bound
        # allows five, 1.96 MB in all; the blocked table read 1.35 MB, and
        # the whole chunk's (20000, 10) arrays at once read 4.80 MB
        dirs = [from_polar(0.3 * k, 0.7 * k) for k in range(10)]
        hidden_state_agreement_table(UniformRho(), dirs, n_samples=100, seed=1)
        tracemalloc.start()
        try:
            hidden_state_agreement_table(UniformRho(), dirs, n_samples=20_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 20_000 + 5 * 8 * BLOCK_SAMPLES * 10

    @pytest.mark.parametrize("rho", all_variants(), ids=lambda rho: rho.kind)
    def test_hidden_state_table_matches_the_clipped_coordinates(self, rho):
        # the table compares break points with coordinates as computed; with
        # every break point in [-1, 1) that decides each outcome as the
        # coordinate clipped into [-1, 1] does
        rng = np.random.default_rng(17)
        for n in range(2, 13):
            dirs = [POLE, -POLE] + [sample_uniform(rng) for _ in range(n - 2)]
            for size in (1, 10, 1000, 10 ** 5):
                seed = int(rng.integers(2 ** 32))
                table = hidden_state_agreement_table(rho, dirs, n_samples=size, seed=seed)
                clipped = single_draw_hidden_state_agreement_table(rho, dirs, size, seed, clip=True)
                assert table.q.tobytes() == clipped.q.tobytes()

    @pytest.mark.parametrize("rho", all_variants(), ids=lambda rho: rho.kind)
    def test_hidden_state_table_of_one_chunk_matches_the_single_draw(self, rho):
        # up to CHUNK_SAMPLES samples the chunked table is the one draw from
        # chunk 0's stream, to the bit
        rng = np.random.default_rng(23)
        for n in range(2, 13):
            dirs = [sample_uniform(rng) for _ in range(n)]
            for size in (1, 1000, BLOCK_SAMPLES - 1, BLOCK_SAMPLES, BLOCK_SAMPLES + 1,
                         3 * BLOCK_SAMPLES + 5, 100_000, CHUNK_SAMPLES):
                seed = int(rng.integers(2 ** 32))
                table = hidden_state_agreement_table(rho, dirs, n_samples=size, seed=seed)
                single = single_draw_hidden_state_agreement_table(rho, dirs, size, seed)
                assert [x.hex() for x in table.q.ravel().tolist()] == \
                    [x.hex() for x in single.q.ravel().tolist()]

    def test_hidden_state_table_holds_one_chunk(self):
        # 10**6 samples on 8 directions are 8 chunks.  A chunk holds its two
        # state draws, 16 * CHUNK_SAMPLES bytes (2.10 MB), and one block's
        # arrays: a (BLOCK_SAMPLES, 8) float array is 0.26 MB, and the bound
        # allows five, 3.41 MB in all.  The blocked table read 2.92 MB; the
        # whole chunk's (CHUNK_SAMPLES, 8) arrays at once read 25.2 MB, and
        # one draw of all 10**6 samples peaked near 190 MB
        dirs = [from_polar(0.3 * k, 0.7 * k) for k in range(8)]
        hidden_state_agreement_table(UniformRho(), dirs, n_samples=100, seed=1)
        tracemalloc.start()
        try:
            hidden_state_agreement_table(UniformRho(), dirs, n_samples=10 ** 6, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * CHUNK_SAMPLES + 5 * 8 * BLOCK_SAMPLES * 8

    @pytest.mark.parametrize("size", [1, 2, 3, BLOCK_SAMPLES - 1, BLOCK_SAMPLES, BLOCK_SAMPLES + 1,
                                      BLOCK_SAMPLES + 2, 2 * BLOCK_SAMPLES + 1, 20_000,
                                      CHUNK_SAMPLES - 1, CHUNK_SAMPLES])
    def test_row_blocks_keep_the_bits_of_the_whole_product(self, size):
        # the blocks tile the chunk, none is longer than BLOCK_SAMPLES + 1
        # rows or is one row of a larger chunk (a one-row product is BLAS's
        # gemv, which can round a row's coordinates differently), and the
        # blocks' products are the whole chunk's to the bit
        blocks = _row_blocks(size)
        assert [a for a, _ in blocks] == [0] + [b for _, b in blocks[:-1]]
        assert blocks[-1][1] == size
        assert all(b - a <= BLOCK_SAMPLES + 1 and (b - a > 1 or size == 1) for a, b in blocks)
        rng = np.random.default_rng(size)
        for n in (2, 3, 8, 12):
            dirs_t = np.array([sample_uniform(rng) for _ in range(n)]).T
            rows = sample_uniform_array(rng, size)
            whole = rows @ dirs_t
            assert np.concatenate([rows[a:b] @ dirs_t for a, b in blocks]).tobytes() == \
                whole.tobytes()


def single_draw_hidden_state_agreement_table(rho, directions, n_samples, seed, clip=False):
    """hidden_state_agreement_table as one draw of every sample from chunk
    0's stream, with the coordinates clipped into [-1, 1] if ``clip``."""
    n = len(directions)
    rng = chunk_rng(seed, 0)
    coords = sample_uniform_array(rng, n_samples) @ np.array(directions).T
    if clip:
        coords = np.clip(coords, -1.0, 1.0)
    outcomes = (rho.sample(rng, size=(n_samples, n)) < coords).T
    agree = [np.count_nonzero(outcomes[i] == outcomes[i + 1:], axis=1) for i in range(n - 1)]
    return AgreementTable(n, np.concatenate(agree) / n_samples)


class TestQuantileRange:
    """Every break point lies in [-1, 1): at or above the lower end, and
    strictly below an eigenstate's coordinate 1."""

    EDGE_UNIFORMS = np.array([0.0, 1.0 - 2.0 ** -53])

    @pytest.mark.parametrize("rho", all_variants() + [
        PiecewiseConstantRho([-1.0, -0.5, 0.5, 1.0], [0.0, 1.0, 0.0]),
        TruncatedGaussianRho(center=3.0, width=0.5),
        TruncatedGaussianRho(center=-1.4, width=0.05),
    ], ids=lambda rho: rho.kind)
    def test_quantile_at_the_ends(self, rho):
        x = rho.quantile(self.EDGE_UNIFORMS)
        assert np.all((x >= -1.0) & (x < 1.0))

    @given(rho=counted_rhos(), u=st.floats(0.0, 1.0, exclude_max=True))
    def test_quantile_in_range(self, rho, u):
        x = rho.quantile(np.append(self.EDGE_UNIFORMS, u))
        assert np.all((x >= -1.0) & (x < 1.0))

    @given(rho=counted_rhos(), seed=st.integers(0, 2 ** 32 - 1))
    @example(rho=PiecewiseConstantRho([-1.0, -0.23, 0.99, 1.0], [2.9, 2.1, 2.0]), seed=0)
    @settings(max_examples=300, deadline=None)
    def test_quantile_never_falls(self, rho, seed):
        # sorted uniforms: random draws, every cell edge and the 64 floats below it
        edges = cell_edges(rho)
        below = (edges.view(np.int64)[:, None] - np.arange(1, 65)).view(np.float64).ravel()
        u = np.concatenate([np.random.default_rng(seed).random(2000), edges, below])
        u = np.sort(u[(0.0 <= u) & (u < 1.0)])
        q = rho.quantile(u)
        assert np.max(np.maximum.accumulate(q) - q) <= rho.slack
        if isinstance(rho, PiecewiseConstantRho):
            # no break point passes its cell's top breakpoint, where the next cell starts
            cell = np.clip(np.searchsorted(rho._cum, u, side="right") - 1, 0,
                           len(rho.densities) - 1)
            assert np.all(q <= rho._bp[cell + 1])


class TestSerialization:
    def test_round_trip_all_variants(self):
        for rho in all_variants():
            clone = RhoDistribution.from_dict(rho.to_dict())
            assert clone == rho

    @pytest.mark.parametrize("kind", [
        "uniform", "delta", "truncated_gaussian",
        pytest.param("piecewise", marks=pytest.mark.xfail(strict=True, reason=(
            "the echoed levels are normalized again on parsing, which moves a last bit "
            "of about 3 in 10 random densities"))),
    ])
    @given(data=st.data())
    @settings(deadline=None)
    def test_round_trip_through_json(self, kind, data):
        rho = data.draw(counted_rhos(kinds=(kind,)))
        assert type(rho).from_dict(json.loads(json.dumps(rho.to_dict(), allow_nan=False))) == rho

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RhoDistribution.from_dict({"kind": "cauchy"})
