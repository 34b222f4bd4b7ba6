"""Byte identity of the CLI outputs.

Every demo config runs at its own seed, in-process, and the selftest's
stdout is captured; their SHA-256 digests must equal those recorded in
perfbench/digests.json.  Under other numpy or scipy versions than the
recorded ones, only the exit code and the set of written files are checked.
"""

import hashlib
import json
import pathlib

import pytest

from spheremarket import cli_runner

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
