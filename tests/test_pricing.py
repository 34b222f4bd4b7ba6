import json
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from spheremarket import pricing
from spheremarket.config import FieldError
from spheremarket.pricing import (
    CHUNK_PATHS,
    DegenerateParametersError,
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
from spheremarket.streams import chunk_rng

ATM = OptionSpec(spot=100.0, strike=100.0, rate=0.05, sigma=0.2, tau=1.0)

spec_strategy = st.builds(
    OptionSpec,
    spot=st.floats(10.0, 200.0),
    strike=st.floats(10.0, 200.0),
    rate=st.floats(0.0, 0.1),
    sigma=st.floats(0.05, 0.6),
    tau=st.floats(0.05, 3.0),
)


def json_round_trip(block):
    """``block`` echoed by ``to_dict``, through JSON text, and parsed back."""
    return type(block).from_dict(json.loads(json.dumps(block.to_dict(), allow_nan=False)))


def put(spec: OptionSpec) -> OptionSpec:
    return OptionSpec(spec.spot, spec.strike, spec.rate, spec.sigma, spec.tau,
                      kind=OptionKind.PUT)


def full_lattice(spec: OptionSpec, steps: int) -> float:
    """The CRR backward induction over every node, with no window: the
    reference binomial_price must match bit for bit."""
    dt = spec.tau / steps
    u = math.exp(spec.sigma * math.sqrt(dt))
    d = 1.0 / u
    p = (math.exp(spec.rate * dt) - d) / (u - d)
    disc = math.exp(-spec.rate * dt)
    j = np.arange(steps + 1)
    terminal = spec.spot * u ** j * d ** (steps - j)
    if spec.kind is OptionKind.CALL:
        vals = np.maximum(terminal - spec.strike, 0.0)
    else:
        vals = np.maximum(spec.strike - terminal, 0.0)
    for _ in range(steps):
        vals = disc * (p * vals[1:] + (1.0 - p) * vals[:-1])
    return float(vals[0])


# wide moneyness and small volatilities, so that many lattices hold long
# runs of zeros and subnormals at one end; rates of either sign
lattice_specs = st.builds(
    OptionSpec,
    spot=st.floats(1e-3, 1e3),
    strike=st.floats(1e-3, 1e3),
    rate=st.floats(-0.1, 0.2),
    sigma=st.floats(0.005, 0.8),
    tau=st.floats(0.05, 3.0),
    kind=st.sampled_from(OptionKind),
)


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

    @pytest.mark.parametrize("total", [math.nan, math.inf, -math.inf])
    def test_non_finite_total_rejected(self, total):
        with pytest.raises(ValueError, match="total_value must be finite"):
            time_value(ATM, total)

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
        with pytest.raises(DegenerateParametersError):  # sigma sqrt(tau) underflows to 0
            d1_d2(OptionSpec(100, 100, 0.05, 5e-324, 0.1))


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
        # sigma sqrt(tau) underflows to 0 with both positive: the same limit
        spec = OptionSpec(100, 50, 0.05, 5e-324, 0.1)
        assert bs_price(spec) == 100 - 50 * math.exp(-0.005)

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

    @given(spot=st.floats(1e-3, 1e6), strike=st.floats(1e-3, 1e6), rate=st.floats(-1.0, 1.0),
           sigma=st.floats(0.0, 5.0), tau=st.floats(0.0, 100.0), kind=st.sampled_from(OptionKind))
    def test_round_trip_through_json(self, spot, strike, rate, sigma, tau, kind):
        try:
            spec = OptionSpec(spot, strike, rate, sigma, tau, kind)
        except FieldError:
            assume(False)
        assert json_round_trip(spec) == spec


class TestGbm:
    @given(s0=st.floats(1e-300, 1e300), drift=st.floats(-10.0, 10.0), sigma=st.floats(0.0, 10.0),
           horizon=st.floats(1e-6, 1e6), steps=st.integers(1, 2 ** 53))
    def test_round_trip_through_json(self, s0, drift, sigma, horizon, steps):
        try:
            params = GbmParams(s0, drift, sigma, horizon, steps)
        except FieldError:
            assume(False)
        assert json_round_trip(params) == params

    @pytest.mark.parametrize("steps", [4.5, 4.0, True])
    def test_steps_must_be_an_integer(self, steps):
        # 4.5 steps once built a GbmParams
        with pytest.raises(ValueError, match="'steps' must be an integer"):
            GbmParams(s0=100.0, drift=0.0, sigma=0.2, horizon=1.0, steps=steps)

    @pytest.mark.parametrize("n_paths", [2.5, True])
    def test_path_count_must_be_an_integer(self, n_paths):
        params = GbmParams(s0=100.0, drift=0.0, sigma=0.2, horizon=1.0, steps=4)
        with pytest.raises(ValueError, match="'n_paths' must be an integer"):
            gbm_path_matrix(params, n_paths, seed=1)

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

    @pytest.mark.parametrize("steps", [1, 64])
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_in_place_fill_matches_the_formula(self, steps, n_workers):
        params = GbmParams(s0=37.5, drift=-0.4, sigma=1.3, horizon=3.0, steps=steps)
        n_paths = 2 * CHUNK_PATHS + 17
        dt = params.horizon / params.steps
        vol = params.sigma * math.sqrt(dt)
        rows = []
        for c in range(3):
            z = chunk_rng(11, c).standard_normal((min(CHUNK_PATHS, n_paths - c * CHUNK_PATHS),
                                                  params.steps))
            log_steps = (params.drift - 0.5 * params.sigma ** 2) * dt + vol * z
            rows.append(params.s0 * np.exp(np.cumsum(log_steps, axis=1)))
        expected = np.hstack([np.full((n_paths, 1), params.s0), np.vstack(rows)])
        _, values = gbm_path_matrix(params, n_paths, seed=11, n_workers=n_workers)
        assert values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_peak_memory_is_one_row_block_per_worker(self, n_workers):
        # tracemalloc sees numpy's buffers: besides the output, each worker
        # holds one block of about 512 KiB of normals, not a chunk of them
        params = GbmParams(s0=100.0, drift=0.05, sigma=0.2, horizon=1.0, steps=64)
        gbm_path_matrix(params, 1, seed=4)  # the first call imports numpy.random
        tracemalloc.start()
        try:
            _, values = gbm_path_matrix(params, 3 * CHUNK_PATHS + 5, seed=4, n_workers=n_workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - values.nbytes <= n_workers * (1 << 20)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GbmParams(s0=0.0, drift=0.0, sigma=0.1, horizon=1.0, steps=1)
        with pytest.raises(ValueError):
            GbmParams(s0=1.0, drift=0.0, sigma=-0.1, horizon=1.0, steps=1)
        with pytest.raises(ValueError):
            GbmParams(s0=1.0, drift=0.0, sigma=0.1, horizon=1.0, steps=0)

    @given(horizon=st.one_of(st.floats(5e-324, 1e-290), st.floats(1e-290, 1e300)),
           steps=st.one_of(st.integers(1, 1000), st.integers(2 ** 52, 2 ** 53)))
    # 2**-1021 / 2**53 is 2**-1074, the smallest subnormal; 2**-1022 / 2**53
    # is the tie 2**-1075, which rounds to 0
    @example(horizon=2.0 ** -1021, steps=2 ** 53)
    @example(horizon=2.0 ** -1022, steps=2 ** 53)
    @example(horizon=5e-324, steps=1)
    @settings(max_examples=300, deadline=None)
    def test_time_step_is_the_rounded_quotient_up_to_2_to_53_steps(self, horizon, steps):
        # up to 2**53 steps a float holds the count exactly, so horizon / steps
        # rounds the exact quotient once, subnormal quotients included, and
        # GbmParams rejects exactly the horizons whose quotient rounds to 0
        dt = float(Fraction(horizon) / steps)
        assert (horizon / steps).hex() == dt.hex()
        if dt == 0.0:
            with pytest.raises(FieldError) as info:
                GbmParams(s0=1.0, drift=0.0, sigma=0.0, horizon=horizon, steps=steps)
            assert info.value.field == "horizon"
        else:
            GbmParams(s0=1.0, drift=0.0, sigma=0.0, horizon=horizon, steps=steps)

    @pytest.mark.parametrize("steps", [0, 2 ** 53 + 1, 10 ** 400],
                             ids=["0", "2_to_53_plus_1", "1e400"])
    def test_steps_outside_the_count_range_named(self, steps):
        with pytest.raises(FieldError) as info:
            GbmParams(s0=1.0, drift=0.0, sigma=0.1, horizon=1.0, steps=steps)
        assert (info.value.field, info.value.other) == ("steps", None)

    def test_subnormal_s0_rejected_at_zero_sigma(self):
        # math.log rounds the largest subnormals to log of the smallest
        # normal float, so at sigma 0 the log-price band alone admits them;
        # the s0 floor rejects them
        s0 = math.nextafter(sys.float_info.min, 0.0)
        assert math.log(s0) == math.log(sys.float_info.min)
        with pytest.raises(FieldError) as info:
            GbmParams(s0=s0, drift=0.0, sigma=0.0, horizon=1.0, steps=1)
        assert info.value.field == "s0"
        GbmParams(s0=sys.float_info.min, drift=0.0, sigma=0.0, horizon=1.0, steps=1)


class TestMcPrice:
    def test_chunk_sums_added_left_to_right(self, monkeypatch):
        # Python 3.12's sum() compensates, and turned the price demo's error
        # 0.014725954097352972 (62 chunk sums) into 0.014725954097352974;
        # math.fsum stands in for it here
        expected = mc_price(ATM, 10 ** 6, seed=7)
        monkeypatch.setattr(pricing, "sum", math.fsum, raising=False)
        assert mc_price(ATM, 10 ** 6, seed=7) == expected

    @pytest.mark.parametrize("n_paths", [100.5, 100.0, True])
    def test_path_count_must_be_an_integer(self, n_paths):
        with pytest.raises(ValueError, match="'n_paths' must be an integer"):
            mc_price(ATM, n_paths, seed=1)

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

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_overflowed_sum_of_squares_names_spot_and_strike(self, n_workers):
        # payoffs near 1e155 square past the float range in every chunk;
        # this once returned a NaN standard error after numpy overflow warnings
        spec = OptionSpec(spot=1e155, strike=1e155, rate=0.05, sigma=0.2, tau=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FieldError) as info:
                mc_price(spec, 3 * CHUNK_PATHS, seed=3, n_workers=n_workers)
        assert (info.value.field, info.value.other) == ("spot", "strike")


class TestBinomial:
    @pytest.mark.parametrize("steps", [10.5, 10.0, True])
    def test_steps_must_be_an_integer(self, steps):
        # 10.5 steps once priced 12.93, the price of no lattice
        with pytest.raises(ValueError, match="'steps' must be an integer"):
            binomial_price(ATM, steps)

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
        # sigma 0 too: tau = 0 returns before the lattice is built
        assert binomial_price(OptionSpec(120, 100, 0.05, 0.0, 0.0), 10) == 20.0

    def test_rejects_degenerate_and_arbitrage(self):
        with pytest.raises(ValueError):
            binomial_price(OptionSpec(100, 100, 0.05, 0.0, 1.0), 10)
        with pytest.raises(ValueError):
            binomial_price(ATM, 0)
        with pytest.raises(ValueError):
            binomial_price(OptionSpec(100, 100, 2.0, 0.01, 1.0), 1)

    def test_american_rejected(self):
        # a spec holds no exercise style: every spec binomial_price receives
        # is European, echoed as a constant and the only style parsed
        assert "style" not in OptionSpec.__dataclass_fields__
        assert ATM.to_dict()["style"] == "european"
        assert OptionSpec.from_dict(ATM.to_dict()) == ATM
        with pytest.raises(ValueError, match="'spec.style' must be one of 'european'"):
            OptionSpec.from_dict({**ATM.to_dict(), "style": "american"})

    @pytest.mark.parametrize("sigma, tau", [(5e-324, 1.0), (0.2, 5e-324)],
                             ids=["sigma_subnormal", "tau_subnormal"])
    def test_degenerate_lattice_rejected(self, sigma, tau):
        # sigma sqrt(tau / steps) underflows, so u = d and the weight's
        # denominator u - d is 0: this once raised ZeroDivisionError
        spec = OptionSpec(100, 100, 0.05, sigma, tau)
        with pytest.raises(ValueError, match=rf"u > d, but sigma {sigma!r}, tau {tau!r} "
                                             r"and 1000 steps"):
            binomial_price(spec, 1000)

    def test_error_shrinks_like_one_over_n(self):
        reference = bs_price(ATM)
        ns = [50, 100, 200, 400, 800, 1600]
        errors = [abs(binomial_price(ATM, n) - reference) for n in ns]
        slope = np.polyfit(np.log(ns), np.log(errors), 1)[0]
        assert -1.3 <= slope <= -0.7

    @given(spec=lattice_specs, steps=st.integers(1, 400))
    @settings(max_examples=300, deadline=None)
    def test_window_matches_the_full_lattice(self, spec, steps):
        try:
            price = binomial_price(spec, steps)
        except FieldError:  # a weight outside [0, 1]; the reference has no such rule
            assume(False)
        assert price.hex() == full_lattice(spec, steps).hex()

    @pytest.mark.parametrize("steps", [1, 2, 50, 400, 1000, 3000, 10_000])
    @pytest.mark.parametrize("spec", [
        ATM, put(ATM),
        OptionSpec(0.5, 100.0, 0.05, 0.2, 1.0),  # deep out of the money: most nodes 0
        put(OptionSpec(150.0, 60.0, -0.03, 0.15, 2.0)),  # a negative rate: disc > 1
    ], ids=["atm_call", "atm_put", "deep_otm_call", "negative_rate_put"])
    def test_grid_matches_the_full_lattice(self, spec, steps):
        assert binomial_price(spec, steps).hex() == full_lattice(spec, steps).hex()

    @pytest.mark.parametrize("kind, spot, strike, rate, sigma, tau, price", [
        ("call", 0.30351101422448185, 13.209240143113956, 0.10172525341725587,
         0.0665742318697339, 1.5466449767175627, 5e-324),
        ("put", 0.13706202580544066, 0.019274295721286902, -0.0322624223138981,
         0.027480327834327856, 1.943399419114934, 5e-324),
        ("call", 18.657866038152832, 33.786913554711674, -0.015459481793175925,
         0.015674241183301022, 1.2330977901031237, 2.073252633323093e-293),
        ("call", 0.022670493153609455, 89.23007182246931, 0.0779562074459575,
         0.34741955406688885, 0.2589975099419256, 5e-324),
        ("call", 0.0017488681240078246, 77.4301901664414, 0.17962285951072748,
         0.2070274600292324, 1.9403943511293968, 1.5069041899e-313),
    ])
    def test_underflowing_prices_keep_their_bits(self, kind, spot, strike, rate, sigma, tau,
                                                 price, recorded_versions_differ):
        # the window that zeroes subnormals gives 0.0 for four of these and
        # other low bits for the third; below the bound the lattice is
        # stepped again dropping exact zeros only, which restores the bits
        spec = OptionSpec(spot, strike, rate, sigma, tau, kind=OptionKind(kind))
        value = binomial_price(spec, 3000)
        assert value.hex() == full_lattice(spec, 3000).hex()
        if recorded_versions_differ:
            pytest.skip(recorded_versions_differ)
        assert value.hex() == price.hex()

    def test_overflowing_top_node_names_spot(self):
        # spot u^steps overflows, though spot itself is finite: this once
        # gave inf with numpy overflow warnings
        spec = OptionSpec(1e308, 100.0, 0.05, 0.2, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FieldError) as info:
                binomial_price(spec, 50)
            assert binomial_price(OptionSpec(1e300, 100.0, 0.05, 0.2, 1.0), 50) > 0.0
        assert (info.value.field, info.value.other) == ("spot", "sigma")


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

    @pytest.mark.parametrize("h_s, h_t, named", [
        (math.nan, 1e-4, "h_s"), (math.inf, 1e-4, "h_s"), (-math.inf, 1e-4, "h_s"),
        (0.1, math.nan, "h_t"), (0.1, math.inf, "h_t"), (0.1, -math.inf, "h_t"),
    ])
    def test_non_finite_steps_named(self, h_s, h_t, named):
        # a NaN step used to pass every guard and fail inside OptionSpec,
        # naming spot or tau instead of the step
        with pytest.raises(ValueError, match=f"^{named} must") as info:
            pde_residual(ATM, h_s=h_s, h_t=h_t)
        assert not isinstance(info.value, FieldError)


class TestReportsAndCsv:
    def test_pricing_report_shape(self):
        report = pricing_report(ATM, "black_scholes", 10.45)
        assert report["inputs"]["spot"] == 100.0
        assert report["method"] == "black_scholes"
        assert report["value"] == 10.45
        assert report["error_estimate"] is None
