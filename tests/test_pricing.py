import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from spheremarket.pricing import (
    DegenerateParametersError,
    ExerciseStyle,
    GbmParams,
    OptionKind,
    OptionSpec,
    binomial_price,
    bs_price,
    d1_d2,
    gbm_path_matrix,
    intrinsic_value,
    mc_price,
    norm_cdf,
    pde_residual,
    pricing_report,
    time_value,
)

ATM = OptionSpec(spot=100.0, strike=100.0, rate=0.05, sigma=0.2, tau=1.0)

spec_strategy = st.builds(
    OptionSpec,
    spot=st.floats(10.0, 200.0),
    strike=st.floats(10.0, 200.0),
    rate=st.floats(0.0, 0.1),
    sigma=st.floats(0.05, 0.6),
    tau=st.floats(0.05, 3.0),
)


def put(spec: OptionSpec) -> OptionSpec:
    return OptionSpec(spec.spot, spec.strike, spec.rate, spec.sigma, spec.tau,
                      kind=OptionKind.PUT)


class TestIntrinsicAndTimeValue:
    def test_at_the_money_call(self):
        assert intrinsic_value(ATM) == 0.0

    def test_in_the_money_call(self):
        assert intrinsic_value(OptionSpec(110, 100, 0.05, 0.2, 1.0)) == 10.0

    def test_in_the_money_put(self):
        assert intrinsic_value(OptionSpec(90, 100, 0.05, 0.2, 1.0, kind=OptionKind.PUT)) == 10.0

    def test_time_value_splits_total(self):
        assert time_value(ATM, 10.4506) == 10.4506  # ATM: all premium is time value
        itm = OptionSpec(110, 100, 0.05, 0.2, 1.0)
        assert time_value(itm, intrinsic_value(itm)) == 0.0
        assert time_value(ATM, 0.0) == 0.0

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            time_value(ATM, -1.0)

    def test_deep_itm_put_time_value_can_be_negative(self):
        spec = OptionSpec(10.0, 200.0, 0.1, 0.2, 2.0, kind=OptionKind.PUT)
        assert time_value(spec, bs_price(spec)) < 0.0


class TestNormCdf:
    def test_symmetry_at_zero(self):
        assert norm_cdf(0.0) == 0.5

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_reflection(self, t):
        assert abs(norm_cdf(t) + norm_cdf(-t) - 1.0) < 1e-14

    def test_value_against_quadrature(self):
        # independent oracle: adaptive quadrature of the normal density
        expected, _ = quad(lambda z: math.exp(-z * z / 2) / math.sqrt(2 * math.pi),
                           -12.0, 1.96, epsabs=1e-12)
        assert abs(norm_cdf(1.96) - expected) < 1e-6
        assert abs(norm_cdf(1.96) - 0.975002) < 1e-6


class TestD1D2:
    def test_hand_value(self):
        d1, d2 = d1_d2(ATM)
        assert abs(d1 - 0.35) < 1e-12  # (0 + 0.07) / 0.2
        assert abs(d2 - 0.15) < 1e-12

    @given(spec_strategy)
    @settings(max_examples=200, deadline=None)
    def test_identity(self, spec):
        d1, d2 = d1_d2(spec)
        assert abs(d2 - (d1 - spec.sigma * math.sqrt(spec.tau))) < 1e-14

    def test_monotone_in_moneyness(self):
        lo, _ = d1_d2(OptionSpec(50, 100, 0.05, 0.2, 1.0))
        hi, _ = d1_d2(OptionSpec(5000, 100, 0.05, 0.2, 1.0))
        assert hi > lo > -math.inf
        assert hi > 10.0

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateParametersError):
            d1_d2(OptionSpec(100, 100, 0.05, 0.0, 1.0))
        with pytest.raises(DegenerateParametersError):
            d1_d2(OptionSpec(100, 100, 0.05, 0.2, 0.0))


class TestBsPrice:
    def test_atm_benchmark(self):
        # frozen benchmark, cross-checked against the Monte Carlo oracle in
        # the acceptance suite
        assert abs(bs_price(ATM) - 10.4506) < 5e-4

    def test_expiry_is_intrinsic(self):
        spec = OptionSpec(110, 100, 0.05, 0.2, 0.0)
        assert bs_price(spec) == 10.0

    def test_zero_vol_is_discounted_forward(self):
        spec = OptionSpec(100, 100, 0.05, 0.0, 1.0)
        assert bs_price(spec) == max(100 - 100 * math.exp(-0.05), 0.0)
        spec_put = OptionSpec(50, 100, 0.05, 0.0, 1.0, kind=OptionKind.PUT)
        assert bs_price(spec_put) == max(100 * math.exp(-0.05) - 50, 0.0)

    @given(spec_strategy)
    @settings(max_examples=200, deadline=None)
    def test_put_call_parity(self, spec):
        lhs = bs_price(spec) - bs_price(put(spec))
        rhs = spec.spot - spec.strike * math.exp(-spec.rate * spec.tau)
        assert abs(lhs - rhs) < 1e-12

    @given(spec_strategy)
    @settings(max_examples=200, deadline=None)
    def test_no_arbitrage_bounds(self, spec):
        c = bs_price(spec)
        assert max(spec.spot - spec.strike * math.exp(-spec.rate * spec.tau), 0.0) <= c
        assert c <= spec.spot

    def test_monotone_in_spot_and_vol(self):
        spots = [bs_price(OptionSpec(s, 100, 0.05, 0.2, 1.0)) for s in np.linspace(50, 150, 60)]
        assert all(b >= a for a, b in zip(spots, spots[1:]))
        vols = [bs_price(OptionSpec(100, 100, 0.05, v, 1.0)) for v in np.linspace(0.05, 0.8, 60)]
        assert all(b >= a for a, b in zip(vols, vols[1:]))

    def test_american_rejected(self):
        # the pricers price European exercise only, so an American spec is
        # refused when it is parsed
        with pytest.raises(ValueError, match="'spec.style' must be one of 'european', "
                                             "got 'american'"):
            OptionSpec.from_dict({**ATM.to_dict(), "style": "american"})

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            OptionSpec(-1, 100, 0.05, 0.2, 1.0)
        with pytest.raises(ValueError):
            OptionSpec(100, 0, 0.05, 0.2, 1.0)
        with pytest.raises(ValueError):
            OptionSpec(100, 100, 0.05, -0.2, 1.0)
        with pytest.raises(ValueError):
            OptionSpec(100, 100, 0.05, 0.2, -1.0)

    def test_serialization_round_trip(self):
        spec = OptionSpec(95.0, 105.0, 0.01, 0.3, 0.5, kind=OptionKind.PUT)
        assert OptionSpec.from_dict(spec.to_dict()) == spec


class TestGbm:
    def test_zero_vol_deterministic(self):
        params = GbmParams(s0=100.0, drift=0.07, sigma=0.0, horizon=2.0, steps=8)
        times, values = gbm_path_matrix(params, 3, seed=1)
        expected = 100.0 * np.exp(0.07 * times)
        assert np.allclose(values, expected[None, :], rtol=1e-12)

    def test_martingale_under_risk_neutral_drift(self):
        params = GbmParams(s0=100.0, drift=0.05, sigma=0.2, horizon=1.0, steps=4)
        _, values = gbm_path_matrix(params, 10 ** 5, seed=31)
        disc = math.exp(-0.05) * values[:, -1]
        se = disc.std(ddof=1) / math.sqrt(disc.size)
        assert abs(disc.mean() - 100.0) < 4.0 * se

    def test_paths_positive(self):
        params = GbmParams(s0=50.0, drift=-0.1, sigma=0.6, horizon=3.0, steps=30)
        _, values = gbm_path_matrix(params, 500, seed=2)
        assert values.min() > 0.0

    def test_seed_determinism_and_worker_independence(self):
        params = GbmParams(s0=100.0, drift=0.05, sigma=0.2, horizon=1.0, steps=12)
        _, ref = gbm_path_matrix(params, 40_000, seed=9, n_workers=1)
        _, again = gbm_path_matrix(params, 40_000, seed=9, n_workers=1)
        _, wide = gbm_path_matrix(params, 40_000, seed=9, n_workers=8)
        assert ref.tobytes() == again.tobytes() == wide.tobytes()

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GbmParams(s0=0.0, drift=0.0, sigma=0.1, horizon=1.0, steps=1)
        with pytest.raises(ValueError):
            GbmParams(s0=1.0, drift=0.0, sigma=-0.1, horizon=1.0, steps=1)
        with pytest.raises(ValueError):
            GbmParams(s0=1.0, drift=0.0, sigma=0.1, horizon=1.0, steps=0)


class TestMcPrice:
    def test_matches_closed_form(self):
        value, stderr = mc_price(ATM, 10 ** 6, seed=5)
        assert abs(value - bs_price(ATM)) < 4.0 * stderr

    def test_confidence_interval_coverage(self):
        # 99% CI covers the closed form in at least 95 of 100 seeded runs
        reference = bs_price(ATM)
        hits = 0
        for seed in range(100):
            value, stderr = mc_price(ATM, 10 ** 5, seed=seed)
            hits += abs(value - reference) <= 2.576 * stderr
        assert hits >= 95

    def test_worker_independence(self):
        assert mc_price(ATM, 300_000, seed=6, n_workers=1) == mc_price(
            ATM, 300_000, seed=6, n_workers=8
        )

    def test_put_pricing(self):
        value, stderr = mc_price(put(ATM), 10 ** 6, seed=7)
        assert abs(value - bs_price(put(ATM))) < 4.0 * stderr


class TestBinomial:
    def test_single_step_hand_value(self):
        # independent oracle: direct two-outcome risk-neutral expectation
        spec = OptionSpec(100, 100, 0.0, 0.2, 1.0)
        u = math.exp(0.2)
        d = 1.0 / u
        p = (1.0 - d) / (u - d)
        expected = p * (100 * u - 100)
        assert abs(binomial_price(spec, 1) - expected) < 1e-12

    def test_converges_to_closed_form(self):
        assert abs(binomial_price(ATM, 1000) - bs_price(ATM)) < 0.01

    def test_lattice_parity(self):
        for steps in (7, 64, 200):
            c = binomial_price(ATM, steps)
            p = binomial_price(put(ATM), steps)
            rhs = ATM.spot - ATM.strike * math.exp(-ATM.rate * ATM.tau)
            assert abs(c - p - rhs) < 1e-10

    def test_zero_tau_intrinsic(self):
        assert binomial_price(OptionSpec(120, 100, 0.05, 0.2, 0.0), 10) == 20.0

    def test_rejects_degenerate_and_arbitrage(self):
        with pytest.raises(ValueError):
            binomial_price(OptionSpec(100, 100, 0.05, 0.0, 1.0), 10)
        with pytest.raises(ValueError):
            binomial_price(ATM, 0)
        with pytest.raises(ValueError):
            binomial_price(OptionSpec(100, 100, 2.0, 0.01, 1.0), 1)

    def test_american_rejected(self):
        # no American style exists, so no spec binomial_price receives has one
        assert [style.value for style in ExerciseStyle] == ["european"]
        with pytest.raises(ValueError):
            ExerciseStyle("american")
        assert OptionSpec.from_dict(ATM.to_dict()).style is ExerciseStyle.EUROPEAN

    def test_error_shrinks_like_one_over_n(self):
        reference = bs_price(ATM)
        ns = [50, 100, 200, 400, 800, 1600]
        errors = [abs(binomial_price(ATM, n) - reference) for n in ns]
        slope = np.polyfit(np.log(ns), np.log(errors), 1)[0]
        assert -1.3 <= slope <= -0.7


class TestPdeResidual:
    def test_closed_form_satisfies_pde(self):
        assert abs(pde_residual(ATM, h_s=0.1, h_t=1e-4)) < 1e-4

    def test_second_order_refinement(self):
        r1 = pde_residual(ATM, h_s=0.1, h_t=1e-4)
        r2 = pde_residual(ATM, h_s=0.05, h_t=5e-5)
        assert 3.5 <= r1 / r2 <= 4.5

    def test_intrinsic_value_fails_pde(self):
        res = pde_residual(ATM, h_s=0.1, h_t=1e-4,
                           value_fn=lambda s: intrinsic_value(s))
        assert abs(res) > 0.1

    def test_step_guards(self):
        with pytest.raises(ValueError):
            pde_residual(ATM, h_s=1e-5, h_t=1e-4)  # cancellation guard
        with pytest.raises(ValueError):
            pde_residual(OptionSpec(100, 100, 0.05, 0.2, 1e-5), h_s=0.1, h_t=1e-4)
        with pytest.raises(ValueError):
            pde_residual(OptionSpec(100, 100, 0.05, 0.0, 1.0), h_s=0.1, h_t=1e-4)


class TestReportsAndCsv:
    def test_pricing_report_shape(self):
        report = pricing_report(ATM, "black_scholes", 10.45)
        assert report["inputs"]["spot"] == 100.0
        assert report["method"] == "black_scholes"
        assert report["value"] == 10.45
        assert report["error_estimate"] is None
