import math

import numpy as np
import pytest
from scipy.integrate import quad

from spheremarket.geometry import UnitVector3, from_polar, sample_uniform
from spheremarket.sphere_model import (
    DeltaRho,
    OutcomeLabel,
    PiecewiseConstantRho,
    RhoDistribution,
    TruncatedGaussianRho,
    UniformRho,
    agreement_table,
    hidden_state_agreement_table,
    measurement_counts,
    measurement_frequency,
    rho_cdf,
    sequential_agreement,
    simulate_measurement,
    transition_probabilities,
)

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
        assert rho_cdf(UniformRho(), 1.0) == 1.0

    def test_uniform_midpoint(self):
        # closed-form integral of the density 1/2 over [-1, 0]
        assert rho_cdf(UniformRho(), 0.0) == 0.5

    def test_delta_step(self):
        rho = DeltaRho(0.2)
        assert rho_cdf(rho, 0.1) == 0.0
        assert rho_cdf(rho, 0.3) == 1.0
        assert rho_cdf(rho, 0.2) == 1.0  # right-continuous step

    def test_normalization_all_variants(self):
        for rho in all_variants():
            assert rho_cdf(rho, -1.0) == 0.0
            assert rho_cdf(rho, 1.0) == 1.0

    def test_nondecreasing(self):
        grid = np.linspace(-1.0, 1.0, 401)
        for rho in all_variants():
            vals = [rho_cdf(rho, float(x)) for x in grid]
            assert np.all(np.diff(vals) >= -1e-15)

    def test_domain_clamp(self):
        assert rho_cdf(UniformRho(), 1.0 + 5e-10) == 1.0
        assert rho_cdf(UniformRho(), -1.0 - 5e-10) == 0.0
        with pytest.raises(ValueError):
            rho_cdf(UniformRho(), 1.1)
        with pytest.raises(ValueError):
            rho_cdf(UniformRho(), -1.1)

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
        d = v.dot(POLE)
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
        freq = measurement_frequency(UniformRho(), v, POLE, n, seed=11)
        assert abs(freq - 0.75) < 4.0 * math.sqrt(0.75 * 0.25 / n)

    def test_monte_carlo_matches_analytic_all_variants(self):
        rng = np.random.default_rng(1234)
        n = 10 ** 5
        for rho in all_variants():
            for k in range(20):
                v, u = sample_uniform(rng), sample_uniform(rng)
                p1, _ = transition_probabilities(rho, v, u)
                freq = measurement_frequency(rho, v, u, n, seed=1000 + k)
                assert abs(freq - p1) <= 4.0 * math.sqrt(p1 * (1 - p1) / n) + 1e-12

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


class TestSequentialAgreement:
    def test_uniform_120_degrees(self):
        u1 = from_polar(0.0, 0.0)
        u2 = from_polar(2 * math.pi / 3, 0.0)
        assert abs(sequential_agreement(UniformRho(), u1, u2) - 0.25) < 1e-12

    def test_same_direction_certain(self):
        u = from_polar(0.7, 0.3)
        for rho in all_variants():
            assert sequential_agreement(rho, u, u) == 1.0

    def test_uniform_antipodal_zero(self):
        u = from_polar(0.7, 0.3)
        assert sequential_agreement(UniformRho(), u, -u) == 0.0


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

    def test_hidden_state_table_symmetric_unit_diag(self):
        dirs = [from_polar(k * math.pi / 3, 0.0) for k in range(3)]
        table = hidden_state_agreement_table(DeltaRho(0.0), dirs, n_samples=2000, seed=1)
        assert np.array_equal(table.q, table.q.T)
        assert np.array_equal(np.diag(table.q), np.ones(3))


class TestSerialization:
    def test_round_trip_all_variants(self):
        for rho in all_variants():
            clone = RhoDistribution.from_dict(rho.to_dict())
            assert clone == rho

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RhoDistribution.from_dict({"kind": "cauchy"})
