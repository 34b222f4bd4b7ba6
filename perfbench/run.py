"""spheremarket benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {market,batch,feasibility,cli} \\
        --seed N --seconds S --trace {0,1}

The program is run from the checkout's ``src`` (``PYTHONPATH=src``, as the
tier-1 tests do).  Load comes from this one process, closed loop, one
client; executor pools use at most nproc = 2 workers.

``--trace 0`` measures the named workload for about S seconds of rounds
and reports the end-to-end metrics.  Times are scaled to a reference
machine speed measured on the cores the work runs on (see
``workloads.PROBE_REF_S``); the run details line also gives them unscaled.
``--trace 1`` runs one fixed round of every workload untraced and then
traced, and reports the per-layer metrics listed in perfbench/layers.py
(counts repeat exactly at a fixed seed).

The next-to-last stdout line is a JSON record of the environment and run
details; the last line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``failed / attempted`` is the error rate: a raising call, a nonzero CLI
exit, a failed output check or a changed CLI digest each fail one operation.
"""

import os

# Pin library threads before numpy loads, so BLAS/OpenMP pools do not
# oversubscribe the 2 cores alongside the executor threads.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOAD_NAMES = ("market", "batch", "feasibility", "cli")
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
MIN_ROUNDS = 3
SETUP_CODE = ("import time, spheremarket; "
              "print(repr(time.perf_counter())); print(spheremarket.__file__)")


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def environment(wl) -> dict:
    import numpy
    import scipy

    l3 = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": int(l3.stdout) if l3.returncode == 0 and l3.stdout.strip().isdigit() else None,
        "gbm_big_bytes": wl.GBM_BIG[0] * (wl.GBM_BIG[1] + 1) * 8,
        "thread_env": THREAD_ENV,
        "platform": platform.platform(),
    }


def measure_setup(wl) -> tuple[float, float]:
    """Median time from spawning a fresh interpreter until ``import
    spheremarket`` returns in it (both clocks are CLOCK_MONOTONIC), scaled
    by the speed probes timed just before and after it, and unscaled."""
    samples, raw = [], []
    for k in range(SETUP_SAMPLES + 1):
        probe = wl.speed_probe()  # on ONE_CORE, where the spawn runs
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=wl.child_env(),
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import spheremarket failed: {proc.stderr[-500:]}")
        t_child, path = proc.stdout.split("\n")[:2]
        if not os.path.abspath(path).startswith(SRC + os.sep):
            raise RuntimeError(f"spheremarket imported from {path}, not from {SRC}")
        if k:  # the first spawn warms the file cache
            seconds = float(t_child) - t0
            raw.append(seconds)
            samples.append(seconds * 2.0 * wl.PROBE_REF_S / (probe + wl.speed_probe()))
    return statistics.median(samples), statistics.median(raw)


def measure_importtime(wl) -> dict:
    """Median cumulative import time (s) of spheremarket and scipy.special
    from ``python -X importtime``; 0.0 for scipy.special if importing
    spheremarket no longer imports it."""
    found = {"spheremarket": [], "scipy.special": []}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import spheremarket"],
                              cwd=ROOT, env=wl.child_env(), capture_output=True, text=True,
                              timeout=60)
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2] in found and parts[1].isdigit():
                found[parts[2]].append(int(parts[1]) / 1e6)
    if not found["spheremarket"]:
        raise RuntimeError("python -X importtime did not list spheremarket")
    return {k: statistics.median(v) if v else 0.0 for k, v in found.items()}


def summarise_rounds(wl, name: str, rounds, scaled: bool = True) -> dict:
    """wall_s, work_per_s and op_p50_s of a run, from the call times.

    wall_s is the median over rounds of the time a round spends in library
    calls; work_per_s is the run's work units over the time of the calls
    that did them; op_p50_s is the median time of the workload's key call.
    """
    times, work, work_s = {}, 0, 0.0
    for x in rounds:
        round_times = x.times if scaled else x.raw_times
        for kind, ts in round_times.items():
            times.setdefault(kind, []).extend(ts)
        for kind, units in x.work.items():
            work += units
            work_s += sum(round_times[kind])
    key = wl.KEY_OPS[name] or tuple(times)
    return {
        "wall_s": statistics.median(x.wall(scaled) for x in rounds),
        "work_per_s": work / work_s,
        "op_p50_s": statistics.median(t for k in key for t in times[k]),
        "op_samples": sum(len(times[k]) for k in key),
    }


def timed_run(wl, name: str, seed: int, seconds: float, L) -> dict:
    with wl.on_cores(wl.ONE_CORE):
        setup_s, setup_raw = measure_setup(wl)
    fn = wl.ROUNDS[name]
    r = 0
    if name in wl.IN_PROCESS:  # one round to fill caches and finish lazy set-up
        try:
            fn(L, seed, r)
        except wl.OpFailed:
            pass
        r += 1
    rounds, attempts = [], 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            rounds.append(fn(L, seed, r))
        except wl.OpFailed:
            pass
        r += 1
        attempts += 1
        now = time.perf_counter()
        if attempts >= MIN_ROUNDS and now - start + (now - t0) > seconds:
            break
    if not rounds:
        raise RuntimeError("no round completed")
    summary = summarise_rounds(wl, name, rounds)
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (summary["wall_s"], "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "work_per_s": (summary["work_per_s"], "1/s"),
        "op_p50_s": (summary["op_p50_s"], "s"),
    }
    unscaled = summarise_rounds(wl, name, rounds, scaled=False)
    details = {"rounds": len(rounds), "op_samples": summary["op_samples"],
               "measured_s": time.perf_counter() - start,
               "unscaled": {"setup_s": setup_raw,
                            **{k: unscaled[k] for k in ("wall_s", "work_per_s", "op_p50_s")}}}
    return metrics, details


def trace_run(wl, seed: int, L):
    import layers
    import tracer

    rec = tracer.Recorder()
    overhead, bytes_written = {}, 0
    for name, fn in wl.ROUNDS.items():
        runs = 3 if name in wl.IN_PROCESS else 2  # in-process: warm-up, untraced, traced
        rounds = []
        for k in range(runs):
            traced = k == runs - 1
            try:
                with contextlib.ExitStack() as stack:
                    if traced:
                        L.rec = rec
                        stack.enter_context(rec.installed())
                        stack.enter_context(rec.span("round", name))
                    res = fn(L, seed, 0, rec if traced else None)
            except wl.OpFailed:
                raise RuntimeError(f"{name} round failed: {L.messages[-1]}") from None
            finally:
                L.rec = None
            rounds.append(res)
        # over the calls both rounds make (the traced one may make more)
        plain, traced = rounds[-2], rounds[-1]
        traced_wall = sum(sum(traced.times[k]) for k in plain.times)
        overhead[name] = (traced_wall - plain.wall()) / plain.wall()
        if name == "cli":
            bytes_written = res.bytes_written
    values = layers.derive(rec.spans, measure_importtime(wl), bytes_written, overhead)
    units = {row[0]: row[1] for row in layers.CATALOGUE}
    metrics = {k: (values[k], units[k]) for k in units}
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace_seed{seed}.json")
    rec.dump(trace_path)
    return metrics, {"spans": len(rec.spans), "trace_file": os.path.relpath(trace_path, ROOT)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "spheremarket", "__init__.py")):
        return fail(f"no program to measure: {SRC}/spheremarket is missing")
    if not os.path.isdir(os.path.join(ROOT, "demos", "configs")):
        return fail("demos/configs is missing")
    sys.path.insert(0, SRC)
    import workloads as wl

    L = wl.Ledger()
    try:
        if args.trace:
            metrics, details = trace_run(wl, args.seed, L)
        else:
            metrics, details = timed_run(wl, args.workload, args.seed, args.seconds, L)
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        for msg in L.messages:
            sys.stderr.write(f"perfbench: {msg}\n")
        return fail(str(exc))

    details.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "environment": environment(wl), "failures": L.messages})
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": L.failed == 0,
        "attempted": L.attempted,
        "failed": L.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
