import io
import json
import math
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spheremarket import geometry, market_sim, streams
from spheremarket.config import FieldError
from spheremarket.geometry import UnitVector3, from_polar, sample_uniform
from spheremarket.market_sim import (
    GlobalRegime,
    LocalRegime,
    MarketConfig,
    NewsSeries,
    TradeLog,
    TradeRecord,
    compare_with_gbm,
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
from spheremarket.streams import chunk_rng

POLE = UnitVector3(0.0, 0.0, 1.0)


def make_config(rho=None, regime=None, n_steps=200, seed=42, **kw):
    return MarketConfig(
        rho=rho or UniformRho(),
        n_steps=n_steps,
        regime=regime or LocalRegime(noise_angle=0.5),
        seed=seed,
        **kw,
    )


def scalar_price(cfg, state):
    """The price of one state, affine in its projection on the price axis."""
    projection = geometry.dot(state, cfg.price_axis)
    return cfg.price_min + (cfg.price_max - cfg.price_min) * ((1.0 + projection) / 2.0)


def market_rng(cfg):
    """The generator of ``run_market(cfg)``."""
    return np.random.default_rng(np.random.SeedSequence(cfg.seed))


def scalar_history(cfg, rng):
    """The market drawing one scalar at a time from ``rng``: the context's
    rotation axis (height z, then azimuth phi) and angle when the noise
    angle is positive, then simulate_measurement's break point."""
    state, trades, noise = sample_uniform(rng), [], cfg.regime.noise_angle
    for step in range(cfg.n_steps):
        if isinstance(cfg.regime, LocalRegime):
            center = state
        else:
            center = from_polar(cfg.regime.news.angle_at(step), 0.0)
        direction = center
        if noise > 0.0:
            z = rng.uniform(-1.0, 1.0)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            angle = rng.uniform(0.0, noise)
            direction = UnitVector3(*geometry._rotate(center, geometry._on_sphere(z, phi), angle))
        outcome = simulate_measurement(cfg.rho, state, direction, rng)
        state = outcome.collapsed_state
        trades.append(TradeRecord(step, direction, outcome, scalar_price(cfg, state)))
    return trades


def same_history(log, records):
    """Every record field equal, and every direction component equal by
    ``repr``, which tells -0.0 from 0.0 where ``==`` does not."""
    def signed(trades):
        return [tuple(map(repr, t.direction)) for t in trades]
    return list(log) == records and signed(log) == signed(records)


def scalar_local_history(cfg, state, kicks, breaks):
    """The per-trade loop of the local regime: each context is the state
    rotated by ``_rotate``, and the state becomes the context or its
    antipode."""
    directions, o1, prices = [], [], []
    for x, z, phi, angle in zip(breaks.tolist(), *(k.tolist() for k in kicks)):
        d = geometry._rotate(state, geometry._on_sphere(z, phi), angle)
        hit = x < geometry.dot(state, d)
        state = d if hit else (-d[0], -d[1], -d[2])
        directions.append(d)
        o1.append(hit)
        prices.append(scalar_price(cfg, state))
    return directions, o1, prices


def scalar_local_members(cfg, starts, kicks, breaks):
    """``scalar_local_history`` of each member of the stacked rows, one
    member per start, each from its own start."""
    n = len(breaks) // len(starts)
    members = [scalar_local_history(cfg, state, tuple(k[lo:lo + n] for k in kicks),
                                    breaks[lo:lo + n])
               for lo, state in zip(range(0, len(breaks), n), starts)]
    return tuple(sum((m[i] for m in members), []) for i in range(3))


def forbid_per_trade_kernels(monkeypatch, names):
    """Make the named scalar ``geometry`` kernels raise, in ``geometry`` and
    in ``market_sim``'s bindings of them; returns the list of
    ``_on_sphere`` calls, whose one call per member draws its initial state."""
    def scalar_kernel(*args):
        raise AssertionError("a scalar kernel ran per trade")

    for name in names:
        for module in (geometry, market_sim):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, scalar_kernel)
    points, on_sphere = [], geometry._on_sphere
    monkeypatch.setattr(geometry, "_on_sphere", lambda *a: points.append(a) or on_sphere(*a))
    return points


RHOS = [UniformRho(), DeltaRho(0.2), PiecewiseConstantRho([-1.0, 0.3, 1.0], [1.0, 3.0]),
        TruncatedGaussianRho(center=-0.2, width=0.5)]
DRIFT = NewsSeries(kind="drift", angle=0.3, rate=0.02)
# a local noise of pi lets contexts land anywhere; at 1e-9, 1 - cos is 0
LOCAL_REGIMES = {"local": LocalRegime(noise_angle=0.5), "local-still": LocalRegime(noise_angle=0.0),
                 "local-pi": LocalRegime(noise_angle=math.pi),
                 "local-tiny": LocalRegime(noise_angle=1e-9)}
# constant news at 0, pi/2 and pi puts exact zeros (and, at 0, the price
# axis itself) into the contexts; the last is the herding demo's regime
GLOBAL_REGIMES = {"global": GlobalRegime(news=DRIFT, noise_angle=0.3),
                  "global-still": GlobalRegime(news=DRIFT, noise_angle=0.0),
                  "news-0": GlobalRegime(news=NewsSeries(angle=0.0), noise_angle=0.0),
                  "news-half-pi": GlobalRegime(news=NewsSeries(angle=math.pi / 2), noise_angle=0.3),
                  "news-pi": GlobalRegime(news=NewsSeries(angle=math.pi), noise_angle=0.3),
                  "herding": GlobalRegime(news=NewsSeries(angle=0.8), noise_angle=0.1)}
REGIMES = {**LOCAL_REGIMES, **GLOBAL_REGIMES}


def ensemble_csv(cfg, n_runs, n_workers):
    buf = io.StringIO()
    for trades in run_market_ensemble(cfg, n_runs, n_workers=n_workers):
        trades_to_csv(buf, trades)
    return buf.getvalue()


def state_prices(cfg, states, o1=True):
    """``market_sim._prices`` of contexts ``states``, each after an O1 (or,
    with ``o1`` False, after an O2, which prices the antipode)."""
    return market_sim._prices(cfg, tuple(np.array(states).T),
                              np.full(len(states), o1)).tolist()


class TestPriceOfState:
    def test_axis_extremes_and_midpoint(self):
        cfg = make_config(price_min=50.0, price_max=150.0)
        assert state_prices(cfg, [POLE, -POLE, UnitVector3(1.0, 0.0, 0.0)]) == [150.0, 50.0, 100.0]
        assert state_prices(cfg, [POLE, -POLE], o1=False) == [50.0, 150.0]

    def test_monotone_in_polar_angle(self):
        cfg = make_config()
        prices = state_prices(cfg, [from_polar(t, 0.3) for t in np.linspace(0.0, math.pi, 50)])
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
        expected = from_polar(news.angle_at(0), 0.0)
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
        gaps = [math.acos(geometry.dot(t.outcome.collapsed_state, nxt.direction))
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
    @pytest.mark.parametrize("regime", REGIMES.values(), ids=REGIMES)
    def test_block_draws_replay_scalar_draws(self, rho, regime):
        # one rng.random call draws every step's uniforms
        cfg = make_config(rho=rho, regime=regime, n_steps=150, seed=5)
        assert same_history(run_market(cfg), scalar_history(cfg, market_rng(cfg)))

    @pytest.mark.parametrize("regime", GLOBAL_REGIMES.values(), ids=GLOBAL_REGIMES)
    def test_global_history_never_reaches_the_scalar_kernels(self, monkeypatch, regime):
        # the global regime runs in array passes over all its steps: no
        # scalar rotation, axis, dot or FMA per trade
        cfg = make_config(regime=regime, n_steps=300, seed=8)
        expected = scalar_history(cfg, market_rng(cfg))
        points = forbid_per_trade_kernels(monkeypatch, ("_rotate", "_fma", "dot"))
        assert same_history(run_market(cfg), expected)
        assert len(points) == 1

    @pytest.mark.parametrize("regime", LOCAL_REGIMES.values(), ids=LOCAL_REGIMES)
    def test_local_history_never_reaches_the_scalar_kernels(self, monkeypatch, regime):
        # only the rotation chain stays in a loop, on plain floats: no scalar
        # rotation, axis or dot per trade
        cfg = make_config(regime=regime, n_steps=300, seed=8)
        expected = scalar_history(cfg, market_rng(cfg))
        points = forbid_per_trade_kernels(monkeypatch, ("_rotate", "dot"))
        assert same_history(run_market(cfg), expected)
        assert len(points) == 1

    @given(starts=st.lists(st.sampled_from([(1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0),
                                            (-0.0, 0.0, -1.0), (0.6, 0.0, 0.8)]),
                           min_size=1, max_size=3),
           kicks=st.lists(st.tuples(st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
                                    st.sampled_from([0.0, math.pi / 2, math.pi, 3.0]),
                                    st.sampled_from([0.0, 1e-9, math.pi / 2, math.pi, 1.0])),
                          min_size=1, max_size=12),
           breaks=st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 0.99]), min_size=12,
                           max_size=12))
    # quarter turns about +z from (1, 0, 0), each step O2: step 1 rotates the
    # state -C_0 = (-6e-17, -1, -0.0), whose uz is
    # -0.0 c + (0.0 (-1) - 0.0 (-6e-17)) s + (1 (-0.0)) (1 - c) = +0.0,
    # where negating the chain's C_1 would give -0.0
    @example(starts=[(1.0, 0.0, 0.0)], kicks=[(1.0, 0.0, math.pi / 2)] * 3, breaks=[0.99] * 12)
    # two one-step members: the second's quarter turn of (1, 0, 0) about +z
    # has an exact zero, and its replay must start from (1, 0, 0), not from
    # the first member's state
    @example(starts=[(0.6, 0.0, 0.8), (1.0, 0.0, 0.0)], kicks=[(1.0, 0.0, math.pi / 2)] * 2,
             breaks=[0.99] * 12)
    @settings(max_examples=200, deadline=None)
    def test_axis_aligned_kicks_match_the_scalar_loop(self, starts, kicks, breaks):
        # axes, states and angles that make exact zeros in the contexts, for
        # one to three stacked members: every component, sign of zero
        # included, is the per-trade loop's run member by member
        cfg = make_config(price_axis=UnitVector3(0.0, 1.0, 0.0))
        starts = starts[:len(kicks)]
        rows = len(kicks) // len(starts) * len(starts)
        z, phi, angle = (np.array(k) for k in zip(*kicks[:rows]))
        breaks = np.array(breaks[:rows])
        axes = geometry._on_sphere_arrays(z, phi)
        direction, o1 = market_sim._local_history(cfg, starts, (axes, angle), breaks)
        price = market_sim._prices(cfg, tuple(direction.T), o1)
        expected = scalar_local_members(cfg, starts, (z, phi, angle), breaks)
        assert [tuple(map(repr, d)) for d in direction.tolist()] == \
            [tuple(map(repr, d)) for d in expected[0]]
        assert (o1.tolist(), price.tolist()) == expected[1:]

    @given(n=st.integers(1, 12), members=st.integers(1, 4), data=st.data())
    # g_t = 0 (-0.0 too) and x_t = +-g_t, where the comparisons tie
    @example(n=6, members=2, data=None)
    @settings(max_examples=300, deadline=None)
    def test_global_outcome_scan_matches_the_loop(self, n, members, data):
        # the scan over every step of stacked members against the per-step
        # hit = (x < g) if hit else (x < -g), restarted at O1 in each member
        if data is None:
            g = [0.0, -0.0, 0.5, 0.5, -0.5, -0.5] * members
            x = [0.0, 0.0, 0.5, -0.5, 0.5, -0.5] * members
        else:
            g = data.draw(st.lists(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0]),
                                   min_size=n * members, max_size=n * members))
            x = [data.draw(st.sampled_from([gt, -gt, -1.0, -0.3, 0.0, 0.3, 0.99])) for gt in g]
        expected = []
        for lo in range(0, n * members, n):
            hit = True
            for xt, gt in zip(x[lo:lo + n], g[lo:lo + n]):
                hit = xt < gt if hit else xt < -gt
                expected.append(hit)
        o1 = market_sim._global_o1(np.array(x), np.array(g), n)
        assert o1.dtype == bool and o1.tolist() == expected

    @given(rho=st.sampled_from(RHOS), regime=st.sampled_from(list(REGIMES.values())),
           seed=st.integers(0, 2 ** 32 - 1), n_steps=st.sampled_from([1, 127, 128, 129, 300]))
    @settings(max_examples=40, deadline=None)
    def test_log_matches_scalar_history(self, rho, regime, seed, n_steps):
        # histories of one to a few hundred steps; every record field, break
        # point included, equals the one-draw-at-a-time reference
        cfg = make_config(rho=rho, regime=regime, n_steps=n_steps, seed=seed)
        assert same_history(run_market(cfg), scalar_history(cfg, market_rng(cfg)))

    def test_ensemble_worker_independence(self):
        cfg = make_config(n_steps=150)
        assert ensemble_csv(cfg, 16, 1) == ensemble_csv(cfg, 16, 8)

    def test_ensemble_members_differ(self):
        runs = run_market_ensemble(make_config(n_steps=50), 4)
        assert len({runs[i][0].realized_price for i in range(4)}) > 1


class TestEnsemble:
    @pytest.mark.parametrize("rho", RHOS, ids=lambda rho: rho.kind)
    @pytest.mark.parametrize("regime", REGIMES.values(), ids=REGIMES)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_runs=st.sampled_from([1, 2, 3, 5]),
           n_steps=st.sampled_from([1, 2, 129]))
    @settings(max_examples=6, deadline=None)
    def test_members_match_scalar_history(self, rho, regime, seed, n_runs, n_steps):
        # member r is the one-draw-at-a-time history of chunk r's stream,
        # whatever the members stacked beside it
        cfg = make_config(rho=rho, regime=regime, n_steps=n_steps, seed=seed)
        members = run_market_ensemble(cfg, n_runs)
        assert len(members) == n_runs
        for r, log in enumerate(members):
            assert same_history(log, scalar_history(cfg, chunk_rng(cfg.seed, r)))

    @pytest.mark.parametrize("regime", REGIMES.values(), ids=REGIMES)
    def test_members_never_reach_the_scalar_kernels(self, monkeypatch, regime):
        # the stacked passes run no scalar rotation, axis or dot per trade
        # (nor, in the global regime, an FMA); the chains stay in one loop
        cfg = make_config(regime=regime, n_steps=150, seed=8)
        expected = [scalar_history(cfg, chunk_rng(cfg.seed, r)) for r in range(5)]
        local = isinstance(regime, LocalRegime)
        points = forbid_per_trade_kernels(monkeypatch, ("_rotate", "dot") if local
                                          else ("_rotate", "_fma", "dot"))
        members = run_market_ensemble(cfg, 5)
        assert all(same_history(m, e) for m, e in zip(members, expected, strict=True))
        assert len(points) == 5

    @pytest.mark.parametrize("n_workers", [2, 8])
    def test_workers_start_no_thread(self, monkeypatch, n_workers):
        cfg = make_config(n_steps=100)
        expected = run_market_ensemble(cfg, 16)

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(streams, "Thread", no_thread)
        assert run_market_ensemble(cfg, 16, n_workers=n_workers) == expected

    @pytest.mark.parametrize("n_workers", [0, -1])
    def test_worker_count_below_one_rejected(self, n_workers):
        with pytest.raises(ValueError, match="n_workers must be at least 1"):
            run_market_ensemble(make_config(n_steps=10), 4, n_workers=n_workers)

    @pytest.mark.parametrize("n_steps, n_runs, groups", [
        (200, 16, [16]),  # the benchmark's ensemble: one pass
        (2000, 64, [32, 32]),
        (2000, 70, [32, 32, 6]),
        (market_sim.ROWS + 1, 2, [1, 1]),
    ])
    def test_members_run_in_groups_of_the_row_budget(self, monkeypatch, n_steps, n_runs,
                                                     groups):
        sizes, run_members = [], market_sim._run_members
        monkeypatch.setattr(market_sim, "_run_members",
                            lambda cfg, rngs: sizes.append(len(rngs)) or run_members(cfg, rngs))
        cfg = make_config(regime=LocalRegime(noise_angle=0.0), n_steps=n_steps)
        assert len(run_market_ensemble(cfg, n_runs)) == n_runs
        assert sizes == groups

    @pytest.mark.parametrize("regime", [LocalRegime(noise_angle=0.5), GLOBAL_REGIMES["global"]],
                             ids=["local", "global"])
    def test_memory_above_the_logs_is_one_group(self, monkeypatch, regime):
        # With ROWS at 16,000, 16 members of 2000 steps run as two groups of
        # 8.  A group's temporaries measured 130 bytes a row in the local
        # regime (the stacked arrays, and the chain's step lists one slab at
        # a time) and 197 in the global, with the global outcomes in array
        # passes.  One pass over all 32,000 rows peaks at 233 (local) and
        # 392 (global) bytes per row of a group, so a bound per regime
        # between the two tells one pass from two groups
        monkeypatch.setattr(market_sim, "ROWS", 16_000)
        bytes_per_row = 192 if isinstance(regime, LocalRegime) else 320
        cfg = make_config(regime=regime, n_steps=2000, seed=3)
        run_market_ensemble(make_config(regime=regime, n_steps=20), 2)  # warm one-time caches
        tracemalloc.start()
        try:
            logs = run_market_ensemble(cfg, 16)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(logs) == 16
        group_rows = market_sim.ROWS // cfg.n_steps * cfg.n_steps
        assert peak - current <= group_rows * bytes_per_row


class TestTradeLog:
    CFG = make_config(n_steps=40, seed=9)

    def test_sequence_of_records(self):
        log, records = run_market(self.CFG), scalar_history(self.CFG, market_rng(self.CFG))
        assert len(log) == 40
        assert log[-1] == records[-1] == log[39]
        assert list(log) == records
        assert isinstance(log[3:7], TradeLog)
        assert list(log[3:7]) == records[3:7]
        assert list(log[::-1]) == records[::-1]
        assert log != records  # a log equals only a log
        with pytest.raises(IndexError):
            log[40]

    def test_record_fields(self):
        log = run_market(self.CFG)
        t = log[5]
        assert t.step == 5 and t.realized_price == log.price[5]
        assert t.direction == tuple(log.direction[5])
        assert t.outcome.break_point == log.break_point[5]
        expected = t.direction if log.o1[5] else -t.direction
        assert t.outcome.collapsed_state == expected
        assert (t.outcome.label is OutcomeLabel.O1) == log.o1[5]

    def test_one_changed_price_breaks_equality(self):
        log, records = run_market(self.CFG), scalar_history(self.CFG, market_rng(self.CFG))
        price = log.price.copy()
        price[17] = np.nextafter(price[17], np.inf)
        changed = TradeLog(log.step, log.direction, log.o1, log.break_point, price)
        assert changed != log and log != changed
        assert list(changed) != records
        assert list(log) != records[:-1]

    def test_direction_rows_must_be_unit(self):
        log = run_market(self.CFG)
        direction = log.direction.copy()
        direction[3] *= 2.0
        with pytest.raises(ValueError, match="not a unit vector"):
            TradeLog(log.step, direction, log.o1, log.break_point, log.price)
        direction[3] = np.nan
        with pytest.raises(ValueError, match="not a unit vector"):
            TradeLog(log.step, direction, log.o1, log.break_point, log.price)

    def test_columns_must_have_the_steps_length(self):
        # a column short of step's length once made a log whose len counted
        # step's rows while iteration, CSV and indexing saw fewer
        log = run_market(self.CFG)[:3]
        columns = dict(zip(("step", "direction", "o1", "break_point", "price"), log._columns()))
        for name in ("direction", "o1", "break_point", "price"):
            with pytest.raises(ValueError, match=f"column '{name}' has shape"):
                TradeLog(**dict(columns, **{name: columns[name][:2]}))
        for direction in (log.direction[:, :2], log.direction.ravel()):
            with pytest.raises(ValueError, match=r"column 'direction' has shape .*, not \(3, 3\)"):
                TradeLog(**dict(columns, direction=direction))


class TestSummaryStats:
    def test_constant_series_flagged(self):
        cfg = make_config(rho=DeltaRho(0.0), regime=LocalRegime(noise_angle=0.0),
                          n_steps=40)
        summary = summary_stats(run_market(cfg))
        assert summary.variance == 0.0
        assert summary.excess_kurtosis is None
        assert summary.to_dict()["kurtosis_defined"] is False

    def test_iid_normal_kurtosis_near_zero(self):
        # moment oracle: i.i.d. normal log returns have excess kurtosis 0
        rng = np.random.default_rng(314)
        returns = 0.01 * rng.standard_normal(10 ** 5)
        prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))
        summary = summary_from_prices(prices)
        assert summary.to_dict()["kurtosis_defined"] is True
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_finite_prices_required(self, bad):
        prices = np.linspace(1.0, 2.0, 50)
        prices[7] = bad
        with pytest.raises(ValueError, match="prices must be finite"):
            summary_from_prices(prices)

    def test_mean_variance_match_numpy(self):
        rng = np.random.default_rng(2)
        prices = np.exp(rng.normal(0.0, 0.02, 60).cumsum() + 4.0)
        summary = summary_from_prices(prices)
        x = np.diff(np.log(prices))
        assert summary.mean == pytest.approx(x.mean(), abs=1e-15)
        assert summary.variance == pytest.approx(x.var(ddof=1), abs=1e-15)
        assert (summary.n_prices, summary.to_dict()["n_returns"]) == (60, 59)

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
    @pytest.mark.parametrize("regime", REGIMES.values(), ids=REGIMES)
    def test_matches_the_scalar_angles(self, regime):
        # the median of the sorted gaps against statistics.median, bit for
        # bit: at an odd n_steps the gap count is even and the two middle
        # gaps are averaged
        for n_steps in (301, 300):
            log = run_market(make_config(regime=regime, n_steps=n_steps, seed=4))
            dirs = log.direction.tolist()
            gaps = [math.acos(geometry.dot(a, b)) for a, b in zip(dirs, dirs[1:])]
            theta = min(max(statistics.median(gaps), 1e-6), math.pi - 1e-6)
            assert representative_scan_angle(log).hex() == theta.hex()

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

    @pytest.mark.parametrize("rate", [1e306, -1e306])
    def test_news_angle_overflow_rejected(self, rate):
        # angle + rate * step is affine in the step, so the last step decides:
        # 0.5 + 1e306 * 999 overflows, and 0.5 + 1e306 * 99 does not
        news = NewsSeries(kind="drift", angle=0.5, rate=rate)
        with pytest.raises(FieldError) as info:
            make_config(regime=GlobalRegime(news=news, noise_angle=0.5), n_steps=1000)
        assert (info.value.field, info.value.other) == ("regime.news.rate", "n_steps")
        make_config(regime=GlobalRegime(news=news, noise_angle=0.5), n_steps=100)
        # a step count past the float range is rejected on n_steps, before
        # the news rule could raise OverflowError; it once built
        slow = NewsSeries(kind="drift", angle=0.5, rate=1e-3)
        with pytest.raises(FieldError) as info:
            make_config(regime=GlobalRegime(news=slow, noise_angle=0.5), n_steps=10 ** 400)
        assert (info.value.field, info.value.other) == ("n_steps", None)

    @pytest.mark.parametrize("regime", [
        LocalRegime(noise_angle=0.5),
        GlobalRegime(news=NewsSeries(kind="drift", angle=0.5, rate=1e-3), noise_angle=0.5),
    ], ids=["local", "global"])
    def test_n_steps_range(self, regime):
        # up to 2**53 every step index is exact as a float; the configs are
        # only built, never run
        make_config(regime=regime, n_steps=2 ** 53)
        for n_steps in (0, 2 ** 53 + 1):
            with pytest.raises(FieldError) as info:
                make_config(regime=regime, n_steps=n_steps)
            assert info.value.field == "n_steps"

    @pytest.mark.parametrize("axis", [(0.0, 0.0, 0.5), (0.0, 0.0, 3.0), (0.0, math.nan, 1.0),
                                      (0.0, 1.0), (0.0, 0.0, 1.0, 0.0)],
                             ids=["half", "triple", "nan", "two_long", "four_long"])
    def test_price_axis_must_be_a_unit_vector(self, axis):
        # built from Python, axis (0, 0, 0.5) once priced a local market in
        # [75.1, 124.7] instead of [50, 150], and (0, 0, 3) was clipped by
        # the dot's clamp; the config path normalizes the axis first
        with pytest.raises(FieldError) as info:
            make_config(price_axis=axis)
        assert info.value.field == "price_axis"

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
        assert math.acos(geometry.dot(direction, trades[0].direction)) < 1e-12
