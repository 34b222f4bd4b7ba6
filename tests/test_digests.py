"""Byte identity of the CLI outputs.

Every demo config runs at its own seed, in-process, and the selftest's
stdout is captured; their SHA-256 digests must equal those recorded in
perfbench/digests.json.  Each ``demos/*.py`` script's stdout is pinned
here.  Under other numpy or scipy versions than the recorded ones, only the
exit code and the set of written files are checked.
The trade logs of one market per rho kind and regime (with and without
context noise), of one ensemble, the bytes of one array draw per rho kind
and a truncated-Gaussian sphere report are pinned the same way, since the
demo configs trade and count only on the uniform elastic.  So are GBM path
matrices whose row blocks do not divide their rows.
"""

import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from spheremarket import cli_runner
from spheremarket.geometry import UnitVector3, dot, from_polar
from spheremarket.market_sim import (
    GlobalRegime,
    LocalRegime,
    MarketConfig,
    NewsSeries,
    run_market,
    run_market_ensemble,
    trades_to_csv,
)
from spheremarket.pricing import CHUNK_PATHS, GbmParams, gbm_path_matrix
from spheremarket.sphere_model import (
    DeltaRho,
    PiecewiseConstantRho,
    TruncatedGaussianRho,
    UniformRho,
    measurement_counts,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
with open(ROOT / "perfbench" / "digests.json", encoding="utf-8") as fh:
    DIGESTS = json.load(fh)
CONFIGS = sorted((ROOT / "demos" / "configs").glob("*.json"))


def check_digests(expected: dict, outputs: dict, versions_differ: str):
    assert sorted(outputs) == sorted(expected)
    if versions_differ:
        pytest.skip(versions_differ)
    assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == expected


def test_every_config_has_digests():
    assert sorted(p.name for p in CONFIGS) == sorted(set(DIGESTS) - {"selftest"})


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_demo_config_outputs(config, tmp_path, recorded_versions_differ):
    assert cli_runner.run(str(config), out_dir=str(tmp_path)) == cli_runner.EXIT_OK
    outputs = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    check_digests(DIGESTS[config.name], outputs, recorded_versions_differ)


def test_selftest_stdout(capsys, recorded_versions_differ):
    assert cli_runner.selftest() == 0
    stdout = capsys.readouterr().out.encode()
    check_digests(DIGESTS["selftest"], {"stdout": stdout}, recorded_versions_differ)


DEMOS = sorted((ROOT / "demos").glob("*.py"))
# SHA-256 of each demo script's stdout, run in a fresh interpreter
DEMO_STDOUT_DIGESTS = {
    "classical_feasibility.py": "4372b3ed16c5e3167f3ffde545423a35dadad5f6ea557ae28855e712848f3975",
    "market_regimes.py": "bffac48fbfd7cd4e3ba475db9427fbc226d01132cd99e2b1ff48afb07a20d260",
    "pricing_baseline.py": "acb97bee6f5ec33ece4ab721c3726835c3287f09fe8b45d5699a2958f8181749",
    "scop_walkthrough.py": "9d8dc2068fa41bd422335d138c3cc8ec72bc12f90359af47df1757d09daa9609",
    "sphere_measurements.py": "11596f21a974a1f26325b85f200e90c41714cdfb704f5b1266e69a60036d4dfa",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in DEMOS) == sorted(DEMO_STDOUT_DIGESTS)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout(demo, recorded_versions_differ):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    stdout = subprocess.run([sys.executable, "-W", "error", str(demo)],
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, check=True, timeout=300).stdout
    check_digests({"stdout": DEMO_STDOUT_DIGESTS[demo.name]}, {"stdout": stdout},
                  recorded_versions_differ)


RHOS = {
    "uniform": UniformRho(),
    "delta": DeltaRho(0.2),
    "piecewise": PiecewiseConstantRho([-1.0, -0.25, 0.5, 1.0], [0.5, 2.0, 1.0]),
    "truncated_gaussian": TruncatedGaussianRho(center=0.1, width=0.4),
}
REGIMES = {
    "local": LocalRegime(noise_angle=0.5),
    "global": GlobalRegime(news=NewsSeries(kind="drift", angle=0.3, rate=0.01), noise_angle=0.4),
}
# SHA-256 of trades_to_csv(run_market(...)) at n_steps 300, seed 7
MARKET_DIGESTS = {
    "uniform-local": "4d7676c207c9233751ac365ad50ee0bd95e0fb4d28329b3ff9e0d7607fe11494",
    "uniform-global": "d2e637c1645b6733556f877759885984f6675eb1b7a39a9314bda117479a8fba",
    "delta-local": "cef2d1f5654f16360ae1d62dd5639986dd45cd251da16fb5d0b1b4ccfe943f0f",
    "delta-global": "878f47ea1f51bacd17762fca56ec69d96d89766aa84c44e7b7b86413600b325c",
    "piecewise-local": "24633ed7768c07fb7ce1ca8f288fd584a9cb681e9e8d53488774847593a026ea",
    "piecewise-global": "a144494fa8c39e1362e2cc51c7a02a2c0e74f4a3ef33475e7539ef7aaf19d27f",
    "truncated_gaussian-local": "b6ff178b06c60b3fccd16b86983828441eeaa3792847cf505bb15b46a4b79882",
    "truncated_gaussian-global": "4772b0a85d5ac87eafd2d5e2cb0614be0abdd9597f773bbec0790621f220d11d",
}


# the same at noise_angle 0, where a step draws only its break point (if any)
STILL_REGIMES = {
    "local": LocalRegime(noise_angle=0.0),
    "global": GlobalRegime(news=NewsSeries(kind="drift", angle=0.3, rate=0.01), noise_angle=0.0),
}
STILL_MARKET_DIGESTS = {
    "uniform-local": "d71bba8487cf6f01f3cf1b5b0a1227a9c523b262ea5ea39531a3ecfc3659f4ba",
    "uniform-global": "e48f45a0eb734be25e978a4f3536231c7a96fa34bc3535897a3c4338983239c4",
    "delta-local": "d71bba8487cf6f01f3cf1b5b0a1227a9c523b262ea5ea39531a3ecfc3659f4ba",
    "delta-global": "71de1f81ddc424fef792ad7ba0561535f467b3bbf516f422ef74776f1a3f210e",
}
# SHA-256 of the 16 members' trades_to_csv, concatenated (200 steps each, seed 7)
ENSEMBLE_DIGEST = "1c43a2fd2abe5f08d3cb23ff190ad21b8851cb40e3f806ca476a280d37e7edf2"
# SHA-256 of rho.sample(default_rng(11), (257, 3)).tobytes()
SAMPLE_DIGESTS = {
    "uniform": "6026a1ec343ffdf9f8936e40fa06229f3d79b016b34023b2ae379d52800d1fde",
    "delta": "5d8287110b5c60277e5c40cd893bfbf9c802aa0f7b71a8775e9dfc748d22ee55",
    "piecewise": "7e147bde51545eca4e995e596bea3d326067568156462ba652df0498901d5efe",
    "truncated_gaussian": "fe1bef5f2d846b510d77edd70abf4430ee6e046811e9796b88495639db51d059",
}


def csv_bytes(trades) -> bytes:
    buf = io.StringIO()
    trades_to_csv(buf, trades)
    return buf.getvalue().encode()


@pytest.mark.parametrize("case", sorted(MARKET_DIGESTS))
def test_market_trades_per_density(case, recorded_versions_differ):
    rho, regime = case.rsplit("-", 1)
    trades = run_market(MarketConfig(rho=RHOS[rho], n_steps=300, regime=REGIMES[regime], seed=7))
    check_digests({"trades": MARKET_DIGESTS[case]}, {"trades": csv_bytes(trades)},
                  recorded_versions_differ)


@pytest.mark.parametrize("case", sorted(STILL_MARKET_DIGESTS))
def test_market_trades_without_noise(case, recorded_versions_differ):
    rho, regime = case.rsplit("-", 1)
    trades = run_market(MarketConfig(rho=RHOS[rho], n_steps=300, regime=STILL_REGIMES[regime],
                                     seed=7))
    check_digests({"trades": STILL_MARKET_DIGESTS[case]}, {"trades": csv_bytes(trades)},
                  recorded_versions_differ)


def test_market_ensemble(recorded_versions_differ):
    cfg = MarketConfig(rho=RHOS["piecewise"], n_steps=200, regime=REGIMES["local"], seed=7)
    members = b"".join(csv_bytes(m) for m in run_market_ensemble(cfg, 16))
    check_digests({"ensemble": ENSEMBLE_DIGEST}, {"ensemble": members}, recorded_versions_differ)


@pytest.mark.parametrize("kind", sorted(SAMPLE_DIGESTS))
def test_rho_sample_bytes(kind, recorded_versions_differ):
    draws = RHOS[kind].sample(np.random.default_rng(11), (257, 3))
    assert draws.shape == (257, 3)
    check_digests({"sample": SAMPLE_DIGESTS[kind]}, {"sample": draws.tobytes()},
                  recorded_versions_differ)


def test_piecewise_rho_identity():
    rho = RHOS["piecewise"]
    densities = [0.21052631578947367, 0.8421052631578947, 0.42105263157894735]
    assert repr(rho) == ("PiecewiseConstantRho(breakpoints=[-1.0, -0.25, 0.5, 1.0], "
                         f"densities={densities})")
    assert rho.to_dict() == {"kind": "piecewise", "breakpoints": [-1.0, -0.25, 0.5, 1.0],
                             "densities": densities}
    assert rho == PiecewiseConstantRho([-1.0, -0.25, 0.5, 1.0], [1.0, 4.0, 2.0])
    assert rho != PiecewiseConstantRho([-1.0, -0.25, 0.5, 1.0], [0.5, 2.0, 1.5])
    assert rho != UniformRho()


# measurement_counts pins: (rho, state, direction) cases over 150,000 trials
# (three chunks, the last one partial), at seeds 0 and 5
_V = from_polar(1.1, 0.3)
_U = from_polar(0.4, 2.0)
_D = dot(_V, _U)
_X, _Z = UnitVector3(1.0, 0.0, 0.0), UnitVector3(0.0, 0.0, 1.0)
COUNT_CASES = {
    "uniform": (RHOS["uniform"], _V, _U),
    "uniform-antipodal": (RHOS["uniform"], -_U, _U),
    "delta": (RHOS["delta"], _V, _U),
    "delta-tie": (DeltaRho(_D), _V, _U),  # v.u == x0 goes to O2
    "piecewise": (RHOS["piecewise"], _V, _U),
    "piecewise-zero-cell": (PiecewiseConstantRho([-1.0, -0.5, 0.0, 0.5, 1.0],
                                                 [1.0, 0.0, 2.0, 1.0]), _V, _U),
    "piecewise-on-breakpoint": (PiecewiseConstantRho([-1.0, _D, 1.0], [1.0, 3.0]), _V, _U),
    "piecewise-on-zero-cell-edge": (PiecewiseConstantRho([-1.0, -0.25, 0.0, 0.5, 1.0],
                                                         [0.5, 0.0, 2.0, 1.0]), _X, _Z),
    "truncated_gaussian": (RHOS["truncated_gaussian"], _V, _U),
    **{f"{kind}-eigenstate": (RHOS[kind], _U, _U) for kind in sorted(RHOS)},
}
COUNT_PINS = {
    "delta@0": (150000, 0),
    "delta@5": (150000, 0),
    "delta-eigenstate@0": (150000, 0),
    "delta-eigenstate@5": (150000, 0),
    "delta-tie@0": (0, 150000),
    "delta-tie@5": (0, 150000),
    "piecewise@0": (102387, 47613),
    "piecewise@5": (102669, 47331),
    "piecewise-eigenstate@0": (150000, 0),
    "piecewise-eigenstate@5": (150000, 0),
    "piecewise-on-breakpoint@0": (63188, 86812),
    "piecewise-on-breakpoint@5": (63229, 86771),
    "piecewise-on-zero-cell-edge@0": (29968, 120032),
    "piecewise-on-zero-cell-edge@5": (29950, 120050),
    "piecewise-zero-cell@0": (93439, 56561),
    "piecewise-zero-cell@5": (93714, 56286),
    "truncated_gaussian@0": (114068, 35932),
    "truncated_gaussian@5": (114543, 35457),
    "truncated_gaussian-eigenstate@0": (150000, 0),
    "truncated_gaussian-eigenstate@5": (150000, 0),
    "uniform@0": (103018, 46982),
    "uniform@5": (103284, 46716),
    "uniform-antipodal@0": (0, 150000),
    "uniform-antipodal@5": (0, 150000),
    "uniform-eigenstate@0": (150000, 0),
    "uniform-eigenstate@5": (150000, 0),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("case", sorted(COUNT_CASES))
def test_measurement_count_pins(case, seed, workers):
    rho, state, u = COUNT_CASES[case]
    assert measurement_counts(rho, state, u, 150_000, seed, n_workers=workers) == \
        COUNT_PINS[f"{case}@{seed}"]


# SHA-256 of the sphere report of a truncated Gaussian at 150,000 trials,
# seed 5, by worker count (the report echoes ``workers``)
SPHERE_CONFIG = {"experiment": "sphere", "seed": 5, "params": {
    "rho": {"kind": "truncated_gaussian", "center": 0.1, "width": 0.4},
    "state": {"theta": 1.1, "phi": 0.3}, "direction": {"theta": 0.4, "phi": 2.0},
    "n_trials": 150_000}}
SPHERE_REPORT_DIGESTS = {
    1: "031918e2ee5551e7ebe84658d097f99315b0c24cea735d7778312db0903c83d3",
    2: "8b1063bd9ebb2d233707cbc2e7a11012bc1810fcb6482540c61f32204dae0cf2",
}


@pytest.mark.parametrize("workers", sorted(SPHERE_REPORT_DIGESTS))
def test_truncated_gaussian_sphere_report(workers, tmp_path, recorded_versions_differ):
    config = tmp_path / "sphere.json"
    config.write_text(json.dumps({**SPHERE_CONFIG, "params": {**SPHERE_CONFIG["params"],
                                                              "workers": workers}}))
    out = tmp_path / "out"
    assert cli_runner.run(str(config), out_dir=str(out)) == cli_runner.EXIT_OK
    check_digests({"sphere_report.json": SPHERE_REPORT_DIGESTS[workers]},
                  {p.name: p.read_bytes() for p in out.iterdir()}, recorded_versions_differ)


# SHA-256 of gbm_path_matrix(params, n_paths, seed=17).values at 1 and 2
# workers: one step (a block holds a whole chunk), 127 steps (blocks of 516
# rows, over two chunks) and a long horizon (one row per block)
GBM_CASES = {
    "steps1": (GbmParams(s0=100.0, drift=0.05, sigma=0.3, horizon=1.0, steps=1),
               CHUNK_PATHS + 3),
    "steps127": (GbmParams(s0=37.5, drift=-0.4, sigma=1.3, horizon=3.0, steps=127),
                 CHUNK_PATHS + 1000),
    "long_horizon": (GbmParams(s0=100.0, drift=0.02, sigma=0.2, horizon=50.0, steps=100_000), 3),
}
GBM_DIGESTS = {
    "steps1": "ce0d1634342fdb15214a88faf03ca87b8fac3597d9d5b90ffff452301eb8dabb",
    "steps127": "1b601fff4a988349d621c05518eb21ddc5221641bc71aa159c200c8cd2c10dd4",
    "long_horizon": "3d693921245b16df865b367d84792248d39fb9823c08ce3f9dc87565f328e5c8",
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(GBM_DIGESTS))
def test_gbm_path_matrix_bytes(case, workers, recorded_versions_differ):
    params, n_paths = GBM_CASES[case]
    _, values = gbm_path_matrix(params, n_paths, seed=17, n_workers=workers)
    assert values.shape == (n_paths, params.steps + 1)
    check_digests({"values": GBM_DIGESTS[case]}, {"values": values.tobytes()},
                  recorded_versions_differ)
