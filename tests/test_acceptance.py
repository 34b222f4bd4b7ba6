"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import io
import math
import time

import numpy as np

from spheremarket.geometry import UnitVector3, from_polar, sample_uniform
from spheremarket.kolmogorov_check import (
    bell_facets_n3,
    facets_feasible,
    joint_feasibility,
    random_agreement_table,
    sphere_bell_scan,
)
from spheremarket.market_sim import (
    LocalRegime,
    MarketConfig,
    run_market_ensemble,
    trades_to_csv,
)
from spheremarket.pricing import (
    GbmParams,
    OptionKind,
    OptionSpec,
    binomial_price,
    bs_price,
    gbm_path_matrix,
    mc_price,
    pde_residual,
    intrinsic_value,
)
from spheremarket.scop_core import is_eigenstate, sphere_as_scop, transition
from spheremarket.scop_core import PriceIntervalProperty
from spheremarket.sphere_model import (
    DeltaRho,
    OutcomeLabel,
    PiecewiseConstantRho,
    TruncatedGaussianRho,
    UniformRho,
    measurement_counts,
    simulate_measurement,
    transition_probabilities,
)

POLE = UnitVector3(0.0, 0.0, 1.0)
ATM = OptionSpec(spot=100.0, strike=100.0, rate=0.05, sigma=0.2, tau=1.0)


def check(criterion: str, ok: bool, detail: str = ""):
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"acceptance criterion {criterion} failed: {detail}"


def test_criterion_1_quantum_correspondence():
    start = time.perf_counter()
    rho = UniformRho()
    worst_closed = 0.0
    worst_sigma = 0.0
    n = 10 ** 6
    for deg in range(15, 180, 15):
        theta = math.radians(deg)
        state = from_polar(theta, 0.0)
        p_expected = math.cos(theta / 2.0) ** 2
        p1, _ = transition_probabilities(rho, state, POLE)
        worst_closed = max(worst_closed, abs(p1 - p_expected))
        n1, _ = measurement_counts(rho, state, POLE, n, seed=900 + deg)
        sigma = math.sqrt(p1 * (1.0 - p1) / n)
        worst_sigma = max(worst_sigma, abs(n1 / n - p1) / sigma)
    elapsed = time.perf_counter() - start
    check("1a", worst_closed <= 1e-12,
          f"closed form max |p1 - cos^2(theta/2)| = {worst_closed:.2e}")
    check("1b", worst_sigma <= 4.0,
          f"Monte Carlo worst deviation = {worst_sigma:.2f} sigma over 10^6 trials")
    check("1c", elapsed < 5.0, f"runtime {elapsed:.2f} s < 5 s")


def test_criterion_2_pair_normalization():
    rng = np.random.default_rng(20240802)

    def random_rho(i):
        variant = i % 4
        if variant == 0:
            return UniformRho()
        if variant == 1:
            return DeltaRho(rng.uniform(-0.99, 0.99))
        if variant == 2:
            inner = np.sort(rng.uniform(-1.0, 1.0, size=2))
            edges = [-1.0, float(inner[0]), float(inner[1]), 1.0]
            return PiecewiseConstantRho(edges, rng.uniform(0.05, 2.0, size=3))
        return TruncatedGaussianRho(center=rng.uniform(-0.9, 0.9),
                                    width=rng.uniform(0.05, 1.5))

    exact = True
    for i in range(10 ** 4):
        rho = random_rho(i)
        p1, p2 = transition_probabilities(rho, sample_uniform(rng), sample_uniform(rng))
        if p1 + p2 != 1.0:
            exact = False
            break
    check("2", exact, "p1 + p2 == 1 exactly on 10^4 randomized (rho, v, u) triples")


def test_criterion_3_non_kolmogorovianness():
    # 120-degree uniform table: infeasible with the sum-facet certificate
    scan = sphere_bell_scan(UniformRho(), 2.0 * math.pi / 3.0)
    vals = scan.table.pair_values()
    cert = scan.feasibility.certificate
    ok_table = bool(np.all(np.abs(vals - 0.25) < 1e-12))
    ok_cert = (
        not scan.feasible
        and cert is not None
        and abs(cert.slack + 0.25) <= 1e-9
        and np.allclose(cert.coefficients, [1.0, 1.0, 1.0], atol=1e-9)
        and abs(cert.bound - 1.0) <= 1e-9
    )
    check("3a", ok_table and ok_cert,
          f"all-0.25 table infeasible, sum-facet slack = {cert.slack:+.12f}")

    # classical hidden-state statistics of the deterministic elastic
    classical = sphere_bell_scan(DeltaRho(0.0), 2.0 * math.pi / 3.0,
                                 n_samples=10 ** 5, seed=20240803)
    check("3b", classical.mode == "hidden_state" and classical.feasible,
          "delta-elastic hidden-state table (10^5 samples) feasible")

    rng = np.random.default_rng(20240804)
    agree = all(
        joint_feasibility(t).feasible == facets_feasible(bell_facets_n3(t))
        for t in (random_agreement_table(3, rng) for _ in range(1000))
    )
    check("3c", agree, "LP and facet verdicts agree on 1000 random tables")


def test_criterion_4_black_scholes():
    rng = np.random.default_rng(20240805)
    worst = 0.0
    for _ in range(10 ** 4):
        spot, strike = rng.uniform(10, 200), rng.uniform(10, 200)
        rate, sigma = rng.uniform(0.0, 0.1), rng.uniform(0.05, 0.6)
        tau = rng.uniform(0.05, 3.0)
        call = bs_price(OptionSpec(spot, strike, rate, sigma, tau))
        put = bs_price(OptionSpec(spot, strike, rate, sigma, tau, kind=OptionKind.PUT))
        worst = max(worst, abs(call - put - (spot - strike * math.exp(-rate * tau))))
    check("4a", worst <= 1e-12, f"parity max deviation {worst:.2e} on 10^4 specs")

    mc, stderr = mc_price(ATM, 10 ** 7, seed=20240801)
    deviation = abs(mc - bs_price(ATM)) / stderr
    check("4b", deviation <= 3.0,
          f"ATM closed form within {deviation:.2f} stderr of 10^7-path Monte Carlo")


def test_criterion_5_binomial_convergence():
    reference = bs_price(ATM)
    err_1000 = abs(binomial_price(ATM, 1000) - reference)
    check("5a", err_1000 < 0.01, f"|binomial(1000) - bs| = {err_1000:.4f}")
    ns = [50, 100, 200, 400, 800, 1600]
    errors = [abs(binomial_price(ATM, n) - reference) for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(errors), 1)[0])
    check("5b", -1.3 <= slope <= -0.7, f"log-log convergence slope {slope:.3f}")


def test_criterion_6_pde_verification():
    res = pde_residual(ATM, h_s=0.1, h_t=1e-4)
    check("6a", abs(res) < 1e-4, f"closed-form residual {res:.2e}")
    res_half = pde_residual(ATM, h_s=0.05, h_t=5e-5)
    ratio = abs(res) / abs(res_half)
    check("6b", 3.5 <= ratio <= 4.5, f"refinement ratio {ratio:.3f}")
    control = pde_residual(ATM, h_s=0.1, h_t=1e-4, value_fn=intrinsic_value)
    check("6c", abs(control) > 0.1, f"negative control residual {control:.3g}")


def test_criterion_7_gbm_martingale():
    params = GbmParams(s0=100.0, drift=0.05, sigma=0.2, horizon=1.0, steps=4)
    _, values = gbm_path_matrix(params, 10 ** 6, seed=77)
    disc = math.exp(-params.drift * params.horizon) * values[:, -1]
    se = disc.std(ddof=1) / math.sqrt(disc.size)
    deviation = abs(disc.mean() - params.s0) / se
    check("7", deviation <= 4.0,
          f"discounted terminal mean within {deviation:.2f} standard errors over 10^6 paths")


def test_criterion_8_scop_contract():
    directions = [POLE, from_polar(1.1, 0.7)]
    price_map = {d: PriceIntervalProperty(100.0, 150.0) if d.z >= 0
                 else PriceIntervalProperty(50.0, 100.0)
                 for u in directions for d in (u, -u)}

    rng = np.random.default_rng(20240806)
    sys = sphere_as_scop(UniformRho(), directions, price_map)
    probes = list(sys.states) + [sample_uniform(rng) for _ in range(100)]
    sums_exact = all(
        sum(prob for _, prob in sys.transition_distribution(p, e)) == 1.0
        for p in probes for e in sys.contexts
    )
    check("8a", sums_exact, "every realized mu row sums to 1 (104 states x 2 contexts)")

    stays = all(transition(sys, POLE, POLE, rng) == (POLE, POLE)
                for _ in range(10 ** 4))
    check("8b", stays and is_eigenstate(sys, POLE, POLE),
          "eigenstate repeatability over 10^4 transitions")

    repeat = True
    for _ in range(10 ** 4):
        out = simulate_measurement(UniformRho(), POLE, POLE, rng)
        repeat = repeat and out.label is OutcomeLabel.O1 and out.collapsed_state == POLE
    check("8c", repeat, "eigenstate measurement repeats over 10^4 trials")


def test_criterion_9_determinism_across_workers():
    params = GbmParams(s0=100.0, drift=0.03, sigma=0.25, horizon=2.0, steps=16)
    _, single = gbm_path_matrix(params, 60_000, seed=13, n_workers=1)
    _, pooled = gbm_path_matrix(params, 60_000, seed=13, n_workers=8)
    check("9a", single.tobytes() == pooled.tobytes(),
          "GBM paths byte-identical at 1 and 8 workers")

    state = from_polar(1.0, 0.2)
    counts_1 = measurement_counts(UniformRho(), state, POLE, 500_000, seed=29, n_workers=1)
    counts_8 = measurement_counts(UniformRho(), state, POLE, 500_000, seed=29, n_workers=8)
    check("9b", counts_1 == counts_8, "sphere Monte Carlo identical at 1 and 8 workers")

    mc_1 = mc_price(ATM, 400_000, seed=31, n_workers=1)
    mc_8 = mc_price(ATM, 400_000, seed=31, n_workers=8)
    check("9c", mc_1 == mc_8, "Monte Carlo pricer identical at 1 and 8 workers")

    cfg = MarketConfig(rho=UniformRho(), n_steps=200,
                       regime=LocalRegime(noise_angle=0.5), seed=911)

    def ensemble_bytes(workers):
        buf = io.StringIO()
        for trades in run_market_ensemble(cfg, 32, n_workers=workers):
            trades_to_csv(buf, trades)
        return buf.getvalue().encode()

    check("9d", ensemble_bytes(1) == ensemble_bytes(8),
          "market ensemble trade logs byte-identical at 1 and 8 workers")
