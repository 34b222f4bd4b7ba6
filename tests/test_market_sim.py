import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremarket import market_sim
from spheremarket.geometry import UnitVector3, angle_between, from_polar, perturb, sample_uniform
from spheremarket.market_sim import (
    GlobalRegime,
    LocalRegime,
    MarketConfig,
    NewsSeries,
    TradeLog,
    TradeRecord,
    compare_with_gbm,
    price_of_state,
    representative_scan_angle,
    run_market,
    run_market_ensemble,
    summary_from_prices,
    summary_stats,
    trades_to_csv,
)
from spheremarket.pricing import GbmParams, gbm_path_matrix
from spheremarket.sphere_model import (
    DeltaRho,
    OutcomeLabel,
    PiecewiseConstantRho,
    TruncatedGaussianRho,
    UniformRho,
    simulate_measurement,
)

POLE = UnitVector3(0.0, 0.0, 1.0)


def make_config(rho=None, regime=None, n_steps=200, seed=42, **kw):
    return MarketConfig(
        rho=rho or UniformRho(),
        n_steps=n_steps,
        regime=regime or LocalRegime(noise_angle=0.5),
        seed=seed,
        **kw,
    )


def scalar_history(cfg):
    """The market drawing one scalar at a time: perturb's three draws, then
    simulate_measurement's break point."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    state, trades = sample_uniform(rng), []
    for step in range(cfg.n_steps):
        center = state if isinstance(cfg.regime, LocalRegime) else cfg.regime.news.direction(step)
        direction = perturb(center, cfg.regime.noise_angle, rng)
        outcome = simulate_measurement(cfg.rho, state, direction, rng)
        state = outcome.collapsed_state
        trades.append(TradeRecord(step, direction, outcome, price_of_state(cfg, state)))
    return trades


RHOS = [UniformRho(), DeltaRho(0.2), PiecewiseConstantRho([-1.0, 0.3, 1.0], [1.0, 3.0]),
        TruncatedGaussianRho(center=-0.2, width=0.5)]
DRIFT = NewsSeries(kind="drift", angle=0.3, rate=0.02)
REGIMES = [LocalRegime(noise_angle=0.5), LocalRegime(noise_angle=0.0),
           GlobalRegime(news=DRIFT, noise_angle=0.3), GlobalRegime(news=DRIFT, noise_angle=0.0)]


def ensemble_csv(cfg, n_runs, n_workers):
    buf = io.StringIO()
    for trades in run_market_ensemble(cfg, n_runs, n_workers=n_workers):
        trades_to_csv(buf, trades)
    return buf.getvalue()


class TestPriceOfState:
    def test_axis_extremes_and_midpoint(self):
        cfg = make_config(price_min=50.0, price_max=150.0)
        assert price_of_state(cfg, POLE) == 150.0
        assert price_of_state(cfg, -POLE) == 50.0
        assert price_of_state(cfg, UnitVector3(1.0, 0.0, 0.0)) == 100.0

    def test_monotone_in_polar_angle(self):
        cfg = make_config()
        prices = [price_of_state(cfg, from_polar(t, 0.3))
                  for t in np.linspace(0.0, math.pi, 50)]
        assert all(b <= a for a, b in zip(prices, prices[1:]))


class TestRunMarket:
    def test_deterministic_elastic_fixed_point(self):
        cfg = make_config(rho=DeltaRho(0.0), regime=LocalRegime(noise_angle=0.0),
                          n_steps=50)
        trades = run_market(cfg)
        prices = {t.realized_price for t in trades}
        assert len(prices) == 1  # constant from the first trade on

    def test_seed_determinism(self):
        cfg = make_config(n_steps=300)
        assert run_market(cfg) == run_market(cfg)

    def test_prices_within_bounds(self):
        for rho in (UniformRho(), DeltaRho(0.3)):
            cfg = make_config(rho=rho, price_min=10.0, price_max=20.0, n_steps=400)
            for t in run_market(cfg):
                assert 10.0 <= t.realized_price <= 20.0

    def test_global_herding_noise_zero(self):
        news = NewsSeries(kind="constant", angle=1.0)
        cfg = make_config(regime=GlobalRegime(news=news, noise_angle=0.0), n_steps=100)
        trades = run_market(cfg)
        expected = news.direction(0)
        assert all(t.direction == expected for t in trades)
        # repeatability: after the first collapse the outcome never changes
        labels = {t.outcome.label for t in trades[1:]}
        assert len(labels) == 1
        assert all(t.realized_price == trades[0].realized_price for t in trades[1:])

    def test_repeated_context_repeats_outcome(self):
        cfg = make_config(regime=LocalRegime(noise_angle=0.0), n_steps=60)
        trades = run_market(cfg)
        for a, b in zip(trades[1:], trades[2:]):
            assert b.outcome.label is a.outcome.label

    def test_steps_indexed(self):
        trades = run_market(make_config(n_steps=10))
        assert [t.step for t in trades] == list(range(10))

    def test_local_full_noise_directions_unconstrained(self):
        # noise_angle = pi lets the context land anywhere relative to the
        # state; obtuse separations must occur
        cfg = make_config(regime=LocalRegime(noise_angle=math.pi), n_steps=300)
        trades = run_market(cfg)
        gaps = [angle_between(t.outcome.collapsed_state, nxt.direction)
                for t, nxt in zip(trades, trades[1:])]
        assert max(gaps) > math.pi / 2

    @pytest.mark.parametrize("noise, n_steps", [(0.5, 20_000), (1.5, 10_000)])
    def test_local_regime_o1_rate_closed_form(self, noise, n_steps):
        # the context is the state rotated by alpha ~ U[0, a] about a uniform
        # axis k, so cos(context, state) = cos alpha + (1 - cos alpha)(k.v)^2
        # with mean 1/3 + (2/3) sin(a)/a; uniform rho gives P[O1] = (1 + cos)/2.
        # Outcomes are i.i.d. across steps, so the binomial error applies.
        # Taking the angle itself as U[0, a] would give (1 + sin(a)/a)/2,
        # which lies more than 8 standard errors away at both settings.
        trades = run_market(make_config(regime=LocalRegime(noise_angle=noise),
                                        n_steps=n_steps, seed=3))
        rate = sum(t.outcome.label is OutcomeLabel.O1 for t in trades) / n_steps
        expected = (4.0 / 3.0 + (2.0 / 3.0) * math.sin(noise) / noise) / 2.0
        stderr = math.sqrt(expected * (1.0 - expected) / n_steps)
        assert abs(rate - expected) <= 4.0 * stderr

    @pytest.mark.parametrize("rho", RHOS, ids=lambda rho: rho.kind)
    @pytest.mark.parametrize("regime", REGIMES,
                             ids=["local", "local-still", "global", "global-still"])
    def test_block_draws_replay_scalar_draws(self, monkeypatch, rho, regime):
        # blocks of 64 steps, so 150 steps span three of them
        monkeypatch.setattr(market_sim, "BLOCK_STEPS", 64)
        cfg = make_config(rho=rho, regime=regime, n_steps=150, seed=5)
        assert run_market(cfg) == scalar_history(cfg)

    @given(rho=st.sampled_from(RHOS), regime=st.sampled_from(REGIMES),
           seed=st.integers(0, 2 ** 32 - 1), n_steps=st.sampled_from([1, 127, 128, 129, 300]))
    @settings(max_examples=40, deadline=None)
    def test_log_matches_scalar_history(self, rho, regime, seed, n_steps):
        # block edges at the default BLOCK_STEPS of 128; every record field,
        # break point included, equals the one-draw-at-a-time reference
        cfg = make_config(rho=rho, regime=regime, n_steps=n_steps, seed=seed)
        assert run_market(cfg) == scalar_history(cfg)

    def test_ensemble_worker_independence(self):
        cfg = make_config(n_steps=150)
        assert ensemble_csv(cfg, 16, 1) == ensemble_csv(cfg, 16, 8)

    def test_ensemble_members_differ(self):
        runs = run_market_ensemble(make_config(n_steps=50), 4)
        assert len({runs[i][0].realized_price for i in range(4)}) > 1


class TestTradeLog:
    CFG = make_config(n_steps=40, seed=9)

    def test_sequence_of_records(self):
        log, records = run_market(self.CFG), scalar_history(self.CFG)
        assert len(log) == 40
        assert log[-1] == records[-1] == log[39]
        assert list(log) == records
        assert isinstance(log[3:7], TradeLog)
        assert log[3:7] == records[3:7]
        assert log[::-1] == records[::-1]
        assert log == records and records == log
        with pytest.raises(IndexError):
            log[40]

    def test_record_fields(self):
        log = run_market(self.CFG)
        t = log[5]
        assert t.step == 5 and t.realized_price == log.price[5]
        assert (t.direction.x, t.direction.y, t.direction.z) == tuple(log.direction[5])
        assert t.outcome.break_point == log.break_point[5]
        expected = t.direction if log.o1[5] else -t.direction
        assert t.outcome.collapsed_state == expected
        assert (t.outcome.label is OutcomeLabel.O1) == log.o1[5]

    def test_one_changed_price_breaks_equality(self):
        log, records = run_market(self.CFG), scalar_history(self.CFG)
        price = log.price.copy()
        price[17] = np.nextafter(price[17], np.inf)
        changed = TradeLog(log.step, log.direction, log.o1, log.break_point, price)
        assert changed != log and log != changed
        assert changed != records
        assert log != records[:-1]

    def test_direction_rows_must_be_unit(self):
        log = run_market(self.CFG)
        direction = log.direction.copy()
        direction[3] *= 2.0
        with pytest.raises(ValueError, match="not a unit vector"):
            TradeLog(log.step, direction, log.o1, log.break_point, log.price)
        direction[3] = np.nan
        with pytest.raises(ValueError, match="not a unit vector"):
            TradeLog(log.step, direction, log.o1, log.break_point, log.price)


class TestSummaryStats:
    def test_constant_series_flagged(self):
        cfg = make_config(rho=DeltaRho(0.0), regime=LocalRegime(noise_angle=0.0),
                          n_steps=40)
        summary = summary_stats(run_market(cfg))
        assert summary.variance == 0.0
        assert summary.excess_kurtosis is None
        assert not summary.kurtosis_defined

    def test_iid_normal_kurtosis_near_zero(self):
        # moment oracle: i.i.d. normal log returns have excess kurtosis 0
        rng = np.random.default_rng(314)
        returns = 0.01 * rng.standard_normal(10 ** 5)
        prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))
        summary = summary_from_prices(prices)
        assert summary.kurtosis_defined
        assert abs(summary.excess_kurtosis) < 0.1

    def test_alternating_series_lag1(self):
        n_returns = 40
        c = 0.01
        logp = np.zeros(n_returns + 1)
        logp[1::2] = c  # log prices alternate 0, c, 0, c, ...
        summary = summary_from_prices(100.0 * np.exp(logp))
        assert abs(summary.acf_returns[0] + 1.0) < 1e-9

    def test_minimum_length_enforced(self):
        with pytest.raises(ValueError):
            summary_stats(run_market(make_config(n_steps=10)))

    def test_positive_prices_required(self):
        with pytest.raises(ValueError):
            summary_from_prices(np.linspace(-1.0, 1.0, 50))

    def test_mean_variance_match_numpy(self):
        rng = np.random.default_rng(2)
        prices = np.exp(rng.normal(0.0, 0.02, 60).cumsum() + 4.0)
        summary = summary_from_prices(prices)
        x = np.diff(np.log(prices))
        assert summary.mean == pytest.approx(x.mean(), abs=1e-15)
        assert summary.variance == pytest.approx(x.var(ddof=1), abs=1e-15)
        assert summary.n_returns == 59

    def test_shortest_series_has_every_acf(self):
        # MIN_TRADES prices give MIN_TRADES - 1 returns, more than ACF_LAGS + 1
        prices = 100.0 + np.sin(np.arange(market_sim.MIN_TRADES))
        summary = summary_from_prices(prices)
        for acf in (summary.acf_returns, summary.acf_abs_returns):
            assert len(acf) == market_sim.ACF_LAGS
            assert all(math.isfinite(a) for a in acf)

    def test_acf_lags_reported(self):
        summary = summary_stats(run_market(make_config(n_steps=100)))
        assert len(summary.acf_returns) == 10
        assert len(summary.acf_abs_returns) == 10


class TestCompareWithGbm:
    def test_step_mismatch_rejected(self):
        cfg = make_config(n_steps=100)
        gbm = GbmParams(s0=100.0, drift=0.0, sigma=0.2, horizon=1.0, steps=99)
        with pytest.raises(ValueError):
            compare_with_gbm(cfg, gbm)

    def test_sixty_degree_spacing_infeasible(self):
        # news drifting 60 degrees per step with zero noise pins consecutive
        # contexts at 60 degrees, so the scan runs at theta = pi/3
        news = NewsSeries(kind="drift", angle=0.0, rate=math.pi / 3)
        cfg = make_config(regime=GlobalRegime(news=news, noise_angle=0.0), n_steps=60)
        gbm = GbmParams(s0=100.0, drift=0.0, sigma=0.2, horizon=1.0, steps=60)
        report = compare_with_gbm(cfg, gbm)
        assert report["direction_scan"]["verdict"] == "infeasible"
        assert abs(report["direction_scan"]["theta"] - math.pi / 3) < 1e-9

    def test_gbm_log_returns_have_zero_excess_kurtosis(self):
        params = GbmParams(s0=100.0, drift=0.03, sigma=0.25, horizon=10.0, steps=10 ** 5)
        _, values = gbm_path_matrix(params, 1, seed=8)
        summary = summary_from_prices(values[0])
        assert abs(summary.excess_kurtosis) < 0.1

    def test_report_deterministic(self):
        cfg = make_config(n_steps=120, seed=7)
        gbm = GbmParams(s0=100.0, drift=0.0, sigma=0.2, horizon=1.0, steps=120)
        a = json.dumps(compare_with_gbm(cfg, gbm), sort_keys=True)
        b = json.dumps(compare_with_gbm(cfg, gbm), sort_keys=True)
        assert a == b

    def test_report_carries_both_summaries(self):
        cfg = make_config(n_steps=80)
        gbm = GbmParams(s0=100.0, drift=0.0, sigma=0.2, horizon=1.0, steps=80)
        report = compare_with_gbm(cfg, gbm)
        assert report["sphere_stats"]["n_returns"] == 79
        assert report["gbm_stats"]["n_returns"] == 80
        assert report["config"]["seed"] == 42


class TestScanAngle:
    def test_constant_directions_clamped(self):
        news = NewsSeries(kind="constant", angle=0.7)
        cfg = make_config(regime=GlobalRegime(news=news, noise_angle=0.0), n_steps=40)
        theta = representative_scan_angle(run_market(cfg))
        assert 0.0 < theta < math.pi

    def test_median_spacing_recovered(self):
        news = NewsSeries(kind="drift", angle=0.0, rate=0.25)
        cfg = make_config(regime=GlobalRegime(news=news, noise_angle=0.0), n_steps=50)
        theta = representative_scan_angle(run_market(cfg))
        assert abs(theta - 0.25) < 1e-9


class TestConfigAndCsv:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_config(price_min=100.0, price_max=50.0)
        with pytest.raises(ValueError):
            make_config(price_min=0.0, price_max=50.0)
        with pytest.raises(ValueError):
            make_config(regime=LocalRegime(noise_angle=4.0))
        with pytest.raises(ValueError):
            make_config(n_steps=0)
        with pytest.raises(ValueError):
            NewsSeries(kind="constant", rate=1.0)
        with pytest.raises(ValueError):
            NewsSeries(kind="sinusoid")

    def test_round_trip(self):
        news = NewsSeries(kind="drift", angle=0.3, rate=0.05)
        cfg = make_config(regime=GlobalRegime(news=news, noise_angle=0.2), seed=5)
        clone = MarketConfig.from_dict(cfg.to_dict())
        assert clone == cfg

    def test_csv_columns(self):
        trades = run_market(make_config(n_steps=35))
        buf = io.StringIO()
        trades_to_csv(buf, trades)
        lines = buf.getvalue().split("\r\n")
        assert lines[0] == "step,ux,uy,uz,outcome,price"
        assert len(lines) == 37  # header + 35 rows + trailing newline
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[4] in (str(OutcomeLabel.O1), str(OutcomeLabel.O2))
        direction = UnitVector3(float(first[1]), float(first[2]), float(first[3]))
        assert angle_between(direction, trades[0].direction) < 1e-12
