import glob
import os
import subprocess
import sys

import numpy as np
import pytest

from spheremarket.streams import chunk_rng, map_chunks

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestMapChunks:
    def test_chunk_bounds_cover_range_in_order(self):
        spans = map_chunks(lambda rng, lo, size: (lo, size), 10, 4, seed=0)
        assert spans == [(0, 4), (4, 4), (8, 2)]

    @pytest.mark.parametrize("n_workers", [2, 3, 8])
    def test_results_independent_of_workers(self, n_workers):
        def draw(rng, lo, size):
            return rng.standard_normal(size)

        one = map_chunks(draw, 1000, 64, seed=11)
        many = map_chunks(draw, 1000, 64, seed=11, n_workers=n_workers)
        assert all(np.array_equal(a, b) for a, b in zip(one, many, strict=True))

    @pytest.mark.parametrize("n_workers", [0, -3])
    def test_worker_count_below_one_rejected(self, n_workers):
        with pytest.raises(ValueError, match="n_workers must be at least 1"):
            map_chunks(lambda rng, lo, size: size, 10, 4, seed=0, n_workers=n_workers)

    def test_chunk_streams_are_seed_sequence_spawn_keys(self):
        # the stream policy every recorded report depends on
        expected = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(2,))).random(4)
        assert np.array_equal(chunk_rng(5, 2).random(4), expected)
        firsts = map_chunks(lambda rng, lo, size: rng.random(), 3, 1, seed=5)
        assert firsts[2] == np.random.default_rng(np.random.SeedSequence(5, spawn_key=(2,))).random()

    def test_only_home_of_the_stream_policy(self):
        for path in glob.glob(os.path.join(SRC, "spheremarket", "*.py")):
            if os.path.basename(path) == "streams.py":
                continue
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            assert "spawn_key" not in text and "ThreadPoolExecutor" not in text, path


def fresh_interpreter_lines(code: str) -> list[str]:
    """The stdout lines of ``code`` run in a new interpreter on ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.splitlines()


def test_import_leaves_scipy_special_unloaded():
    code = "import sys, spheremarket; print('scipy.special' in sys.modules)"
    assert fresh_interpreter_lines(code) == ["False"]


def test_cli_runs_leave_scipy_special_unloaded(tmp_path):
    # every demo config and the selftest, in one interpreter
    configs = sorted(glob.glob(os.path.join(os.path.dirname(SRC), "demos", "configs", "*.json")))
    code = f"""
import contextlib, io, sys
from spheremarket import cli_runner
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli_runner.run(path, out_dir={str(tmp_path)!r}) for path in {configs!r}]
    codes.append(cli_runner.selftest())
print(codes)
print('scipy.special' in sys.modules)
"""
    assert configs
    assert fresh_interpreter_lines(code) == [str([0] * (len(configs) + 1)), "False"]


def test_only_truncated_gaussian_sampling_loads_scipy_special():
    code = """
import sys
import numpy as np
from spheremarket.sphere_model import TruncatedGaussianRho
rho = TruncatedGaussianRho(center=0.1, width=0.4)
rho.cdf(0.3)
print('scipy.special' in sys.modules)
rho.sample(np.random.default_rng(0), 3)
print('scipy.special' in sys.modules)
"""
    assert fresh_interpreter_lines(code) == ["False", "True"]
