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


def test_import_leaves_scipy_special_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    code = "import sys, spheremarket; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
