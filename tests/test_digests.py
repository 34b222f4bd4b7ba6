"""Byte identity of the CLI outputs.

Every demo config runs at its own seed, in-process, and the selftest's
stdout is captured; their SHA-256 digests must equal those recorded in
perfbench/digests.json.  Under other numpy or scipy versions than the
recorded ones, only the exit code and the set of written files are checked.
The trade logs of one market per rho kind and regime are pinned the same
way, since the demo configs trade only on the uniform elastic.
"""

import hashlib
import io
import json
import pathlib

import pytest

from spheremarket import cli_runner
from spheremarket.market_sim import (
    GlobalRegime,
    LocalRegime,
    MarketConfig,
    NewsSeries,
    run_market,
    trades_to_csv,
)
from spheremarket.sphere_model import (
    DeltaRho,
    PiecewiseConstantRho,
    TruncatedGaussianRho,
    UniformRho,
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


@pytest.mark.parametrize("case", sorted(MARKET_DIGESTS))
def test_market_trades_per_density(case, recorded_versions_differ):
    rho, regime = case.rsplit("-", 1)
    buf = io.StringIO()
    trades_to_csv(buf, run_market(MarketConfig(rho=RHOS[rho], n_steps=300,
                                               regime=REGIMES[regime], seed=7)))
    check_digests({"trades": MARKET_DIGESTS[case]}, {"trades": buf.getvalue().encode()},
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
