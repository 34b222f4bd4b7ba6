import glob
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from spheremarket import streams
from spheremarket.streams import chunk_rng, map_chunks

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestMapChunks:
    @pytest.mark.parametrize("n_workers", [1.5, 2.0, True])
    def test_worker_count_must_be_an_integer(self, n_workers):
        # 1.5 workers once passed the check
        with pytest.raises(ValueError, match="'n_workers' must be an integer"):
            streams.check_workers(n_workers)
        with pytest.raises(ValueError, match="'n_workers' must be an integer"):
            map_chunks(lambda rng, lo, size: size, 10, 4, seed=0, n_workers=n_workers)

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

    def test_threads_pull_chunks_without_a_future_each(self, monkeypatch):
        # 10**4 chunks: the calling thread runs a loop of its own and starts
        # n_workers - 1 helper loops, however many chunks there are
        starts = []

        class CountingThread(threading.Thread):
            def start(self):
                starts.append(self)
                super().start()

        monkeypatch.setattr(streams, "Thread", CountingThread)
        for n_workers in (1, 2):
            starts.clear()
            spans = map_chunks(lambda rng, lo, size: (lo, size), 10 ** 4, 1, seed=0,
                               n_workers=n_workers)
            assert spans == [(lo, 1) for lo in range(10 ** 4)]
            assert len(starts) == n_workers - 1

    def test_base_exception_on_the_calling_thread_joins_the_helpers(self):
        # the calling thread's chunk fails with a BaseException that is not
        # an Exception; the helper ends before the call re-raises it
        class Stop(BaseException):
            pass

        caller, failed = threading.current_thread(), threading.Event()

        def fn(rng, lo, size):
            if threading.current_thread() is caller:
                failed.set()
                raise Stop(lo)
            failed.wait(timeout=10)
            return lo

        before = threading.active_count()
        with pytest.raises(Stop):
            map_chunks(fn, 4, 1, seed=0, n_workers=2)
        assert threading.active_count() == before

    def test_each_chunk_runs_once_under_fast_thread_switches(self):
        # 8 threads on a shared chunk iterator, switching every microsecond:
        # a chunk pulled twice or lost would show in the calls
        calls, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            spans = map_chunks(lambda rng, lo, size: calls.append(lo) or (lo, size), 5000, 1,
                               seed=0, n_workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert spans == [(lo, 1) for lo in range(5000)]
        assert sorted(calls) == list(range(5000))

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_lowest_failing_chunk_raises(self, n_workers):
        # chunk 3 fails only after chunk 7 has failed, so the order in which
        # threads finish does not pick the exception
        seven_failed = threading.Event()

        def fn(rng, lo, size):
            if lo == 7:
                seven_failed.set()
                raise KeyError(7)
            if lo == 3:
                seven_failed.wait(timeout=10)
                raise KeyError(3)
            return lo

        with pytest.raises(KeyError) as info:
            map_chunks(fn, 20, 1, seed=0, n_workers=n_workers)
        assert info.value.args == (3,)

    def test_only_home_of_the_stream_policy(self):
        # streams.py alone seeds chunks and starts threads, and no module
        # uses a thread pool
        for path in glob.glob(os.path.join(SRC, "spheremarket", "*.py")):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            assert "ThreadPoolExecutor" not in text and "concurrent.futures" not in text, path
            if os.path.basename(path) != "streams.py":
                assert "spawn_key" not in text and "Thread(" not in text, path


def fresh_interpreter_lines(code: str, *args: str) -> list[str]:
    """The stdout lines of ``code`` run with ``args`` in a new interpreter on
    ``src``, with every warning an error (the pytest process has imported
    scipy itself)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-W", "error", "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout.splitlines()


def test_import_leaves_scipy_special_unloaded():
    code = "import sys, spheremarket; print('scipy.special' in sys.modules)"
    assert fresh_interpreter_lines(code) == ["False"]


def test_cli_runs_leave_scipy_special_unloaded(tmp_path):
    # every demo config, the selftest and every demo script, in one
    # interpreter: none loads any scipy module, scipy.special included
    root = os.path.dirname(SRC)
    configs = sorted(glob.glob(os.path.join(root, "demos", "configs", "*.json")))
    demos = sorted(glob.glob(os.path.join(root, "demos", "*.py")))
    code = f"""
import contextlib, io, runpy, sys
from spheremarket import cli_runner
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli_runner.run(path, out_dir={str(tmp_path)!r}) for path in {configs!r}]
    codes.append(cli_runner.selftest())
    for demo in {demos!r}:
        runpy.run_path(demo, run_name="__main__")
print(codes)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    assert configs and demos
    assert fresh_interpreter_lines(code) == [str([0] * (len(configs) + 1)), "[]"]


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


# The spheremarket modules each demo config's run and the selftest load,
# besides cli_runner.  The sets are exact, so a module that creeps back into a
# CLI path fails here: a market run without ``compare_gbm`` loads neither
# pricing nor the feasibility tester, and a sphere run no feasibility tester.
PRICE_MODULES = ["config", "ndtr", "pricing", "streams"]
SPHERE_MODULES = ["config", "geometry", "ndtr", "sphere_model", "streams"]
BELL_SCAN_MODULES = sorted(SPHERE_MODULES + ["kolmogorov_check"])
CLI_MODULES = {
    "price_atm.json": PRICE_MODULES,
    "binomial_convergence.json": PRICE_MODULES,
    "sphere_sixty_degrees.json": SPHERE_MODULES,
    "bell_scan_60deg.json": BELL_SCAN_MODULES,
    "bell_scan_delta_classical.json": BELL_SCAN_MODULES,
    "market_global_herding.json": sorted(SPHERE_MODULES + ["market_sim"]),
    "market_local_vs_gbm.json": sorted(BELL_SCAN_MODULES + ["market_sim", "pricing"]),
    "selftest": sorted(BELL_SCAN_MODULES + ["pricing"]),
}
DEMO_CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(SRC), "demos", "configs", "*.json")))


def test_import_loads_no_submodule_and_no_numpy():
    code = """
import sys, spheremarket
print(sorted(m for m in sys.modules if m == "numpy" or m.startswith("spheremarket.")))
"""
    assert fresh_interpreter_lines(code) == ["[]"]


# a CLI run in a fresh interpreter: its exit code, the spheremarket modules
# it loaded besides cli_runner, whether it loaded the thread pool machinery
# (concurrent.futures brings logging with it), and which of the exact and
# statistical arithmetic modules it loaded (statistics brings fractions and
# decimal), which no CLI run needs
FOOTPRINT = """
import contextlib, io, sys
from spheremarket import cli_runner
with contextlib.redirect_stdout(io.StringIO()):
    code = cli_runner.main(sys.argv[1:])
print(code)
print(sorted(m.split(".", 1)[1] for m in sys.modules
             if m.startswith("spheremarket.") and m != "spheremarket.cli_runner"))
print("concurrent.futures" in sys.modules)
print([m for m in ("fractions", "decimal", "statistics") if m in sys.modules])
"""


@pytest.mark.parametrize("argv", [["selftest"]] + [["run", path] for path in DEMO_CONFIGS],
                         ids=lambda argv: os.path.basename(argv[-1]))
def test_cli_run_loads_only_its_experiments_modules(tmp_path, argv):
    name = os.path.basename(argv[-1])
    if argv[0] == "run":
        argv = argv + ["--out", str(tmp_path)]
    assert fresh_interpreter_lines(FOOTPRINT, *argv) == ["0", str(CLI_MODULES[name]), "False",
                                                         "[]"]


def test_every_demo_config_has_a_module_set():
    assert sorted(CLI_MODULES) == sorted([os.path.basename(p) for p in DEMO_CONFIGS]
                                         + ["selftest"])


def test_threaded_sphere_run_loads_no_thread_pool(tmp_path):
    # the demo's 10**6 trials are 16 chunks, so at 2 workers a helper thread
    # runs beside the calling thread
    with open(os.path.join(os.path.dirname(SRC), "demos", "configs", "sphere_sixty_degrees.json"),
              encoding="utf-8") as fh:
        config = json.load(fh)
    config["params"]["workers"] = 2
    path = tmp_path / "sphere_two_workers.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    argv = ["run", str(path), "--out", str(tmp_path / "out")]
    assert fresh_interpreter_lines(FOOTPRINT, *argv) == ["0", str(SPHERE_MODULES), "False", "[]"]
