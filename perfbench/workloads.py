"""The four benchmark workloads and the output checks that guard them.

Each workload is a *round*: a fixed amount of work whose inputs are drawn
from ``numpy.random.default_rng([seed, round_index])``, so a seed fixes the
inputs and every round of a run is a fresh sample from the same input
distribution.  A round calls the library only through its public functions
(or, for ``cli``, through fresh interpreters running the CLI), looked up on
the module object at call time so that the traced run's wrappers see them.

Every library call goes through ``Ledger.call``, which times it, counts it
as attempted and counts it as failed if it raises or if a later ``check`` on
its output fails.  Checks run outside the timed calls.  A raising call ends
the round (``OpFailed``); its timing is discarded.

Sizes below were chosen so that one round takes about 1 s (market), 2 s
(batch), 2.5 s (feasibility) and 6 s (cli) of unscaled time on a 2-core
Xeon with a 105 MiB L3.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from spheremarket import geometry as geo
from spheremarket import kolmogorov_check as kc
from spheremarket import market_sim as ms
from spheremarket import pricing as pr
from spheremarket import scop_core as scop
from spheremarket import sphere_model as sm

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CONFIG_DIR = os.path.join(ROOT, "demos", "configs")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")
DIGESTS_PATH = os.path.join(HERE, "digests.json")
CLI_CHILD = os.path.join(HERE, "cli_child.py")

WORKERS = (1, 2)  # every threaded call runs serially and at nproc = 2

# market
MARKET_STEPS = 2000
ENSEMBLE_RUNS = 16
ENSEMBLE_STEPS = 200
COMPARE_STEPS = 1000
SCOP_CONTEXTS = 6
SCOP_STEPS = 3000

# batch
TRIALS = 4_000_000          # per measurement_counts call: 62 chunks of 2^16
MC_PATHS = 4_000_000        # per mc_price call: 245 cache-resident chunks of 2^14
LATTICE_STEPS = 10_000
GBM_SMALL = (16_384, 32)    # (paths, steps), compared at 1 and 2 workers
GBM_BIG = (442_368, 127)    # 432 MiB of float64, over 4x a 105 MiB L3; 17 MB chunks
HS_BATCH = (8, 500_000)     # (directions, samples)

# feasibility
FEAS_N = range(3, 11)       # n = 11 feasible tables take seconds per solve
FEAS_HS_SAMPLES = 20_000
RANDOM_DIR_TABLES = 10      # random-direction hidden-state tables at n = 9 per round
RANDOM_PER_N = 3
SCAN_ANGLES = 8
SCAN_SAMPLES = 20_000

CLI_TIMEOUT_S = 120
P_TOL = 1e-12
RESIDUAL_TOL = 1e-9


class OpFailed(Exception):
    """A library call raised; the round is abandoned."""


# This host's cores each swing between two speeds, about 1.6x apart, within
# seconds and independently of one another (other tenants share them; CPU
# time slows as much as wall time, so it is no remedy), and the share of a
# 20 s run spent slow differs from run to run.  Every time is therefore
# reported scaled to the speed at which a fixed reference kernel takes
# PROBE_REF_S: a call of t seconds counts t * PROBE_REF_S / p, with p the
# probe timed on the call's cores just before the call (at most PROBE_GAP_S
# earlier), averaged with one just after it if the call is longer than
# PROBE_GAP_S.  A call runs on ONE_CORE, as do the processes it starts,
# unless it is given n_workers > 1; then it runs on ALL_CORES and p is the
# mean over them.  Unscaled times are reported beside the scaled ones.
PROBE_REF_S = 0.0035
PROBE_GAP_S = 0.05
ALL_CORES = frozenset(os.sched_getaffinity(0))
ONE_CORE = frozenset({min(ALL_CORES)})


@contextlib.contextmanager
def on_cores(cores):
    """Run the block with the calling thread, and the threads and processes
    it starts, on ``cores``."""
    old = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cores)
    try:
        yield
    finally:
        os.sched_setaffinity(0, old)


def speed_probe(cores=ONE_CORE) -> float:
    """Mean time (s) over ``cores`` of a fixed interpreter-and-numpy kernel;
    benchmark code only, so a change to the program cannot move it."""
    times = []
    for core in sorted(cores):
        with on_cores({core}):
            t0 = time.perf_counter()
            acc = 0.0
            for i in range(30_000):
                acc += math.sqrt(i)
            a = np.arange(1000.0)
            for _ in range(400):
                a = np.sqrt(a * 1.0001 + 1.0)
            times.append(time.perf_counter() - t0)
    return sum(times) / len(times)


class Ledger:
    """Counts attempted and failed operations and keeps the first messages.

    With ``rec`` set (traced run), every call is wrapped in an ``op`` span;
    per-layer metrics count only spans below an ``op`` span, so library
    calls made by the checks are left out.  Each call's time is kept both
    scaled by the speed probe and as measured.
    """

    def __init__(self):
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.messages: list[str] = []
        self.rec = None
        self.probe_s, self.probed_at, self.probed_on = PROBE_REF_S, -math.inf, ONE_CORE
        self.round = Round()
        self.last_op = 0
        self.last_span = 0

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def _fail(self, op: int, message: str):
        self.failed_ops.add(op)
        if len(self.messages) < 20:
            self.messages.append(message)

    def start_round(self) -> "Round":
        self.round = Round()
        return self.round

    def probe(self, cores) -> float:
        self.probe_s = speed_probe(cores)
        self.probed_at, self.probed_on = time.perf_counter(), cores
        return self.probe_s

    def call(self, kind: str, fn, *args, work: int = 0, **kwargs):
        """Time one library call as an operation of ``kind``, crediting
        ``work`` units to it; returns the call's value."""
        self.attempted += 1
        self.last_op = op = self.attempted
        cores = ALL_CORES if kwargs.get("n_workers", 1) > 1 else ONE_CORE
        try:
            with on_cores(cores):
                fresh = cores == self.probed_on and time.perf_counter() - self.probed_at <= PROBE_GAP_S
                probe = self.probe_s if fresh else self.probe(cores)
                seconds, value = self._timed(kind, fn, args, kwargs)
                if seconds > PROBE_GAP_S:
                    probe = (probe + self.probe(cores)) / 2.0
        except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
            self._fail(op, f"{kind} raised {type(exc).__name__}: {exc}")
            raise OpFailed from exc
        self.round.times.setdefault(kind, []).append(seconds * PROBE_REF_S / probe)
        self.round.raw_times.setdefault(kind, []).append(seconds)
        if work:
            self.round.work[kind] = self.round.work.get(kind, 0) + work
        return value

    def _timed(self, kind: str, fn, args, kwargs):
        """(seconds, value) of one call, in an ``op`` span when tracing."""
        if self.rec is None:
            t0 = time.perf_counter()
            value = fn(*args, **kwargs)
            return time.perf_counter() - t0, value
        with self.rec.span("op", kind) as sid:
            self.last_span = sid
            t0 = time.perf_counter()
            value = fn(*args, **kwargs)
            return time.perf_counter() - t0, value

    def check(self, ok, message: str):
        """Mark the last call failed unless ``ok``."""
        if not ok:
            self._fail(self.last_op, message)


@dataclass
class Round:
    times: dict = field(default_factory=dict)      # operation kind -> [scaled seconds]
    raw_times: dict = field(default_factory=dict)  # operation kind -> [seconds]
    work: dict = field(default_factory=dict)       # operation kind -> work units done
    bytes_written: int = 0                         # cli only

    def wall(self, scaled: bool = True) -> float:
        """Seconds spent in the round's library calls (checks excluded)."""
        return sum(sum(ts) for ts in (self.times if scaled else self.raw_times).values())


def _seed(rng) -> int:
    return int(rng.integers(2 ** 31))


def random_unit(rng) -> geo.UnitVector3:
    while True:
        v = rng.standard_normal(3)
        if np.linalg.norm(v) > 1e-6:
            return geo.UnitVector3.normalized(*map(float, v))


def spread_directions(n: int, rng) -> list:
    """n near-evenly spread directions (Fibonacci lattice), randomly rotated.

    Feasible-table solve times depend strongly on the direction geometry:
    at n = 10 a lattice table takes 0.2-0.5 s and a random-direction one
    0.4-2.2 s.  The lattice tables keep the cost of a round nearly the same
    from seed to seed while the rotation and the sampling seeds still vary;
    random-direction tables run beside them (see ``feasibility_round``).
    """
    q = rng.standard_normal(4)
    w, x, y, z = q / np.linalg.norm(q)
    rot = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])
    out = []
    golden = math.pi * (3.0 - math.sqrt(5.0))
    for k in range(n):
        zk = 1.0 - (2 * k + 1) / n
        s = math.sqrt(1.0 - zk * zk)
        p = rot @ np.array([s * math.cos(k * golden), s * math.sin(k * golden), zk])
        out.append(geo.UnitVector3.normalized(*map(float, p)))
    return out


def cos2_half_angle(v, u) -> float:
    d = min(1.0, max(-1.0, v.x * u.x + v.y * u.y + v.z * u.z))
    return math.cos(math.acos(d) / 2.0) ** 2


def check_pair_law(L: Ledger, rho, v, u, uniform: bool) -> tuple[float, float]:
    p1, p2 = sm.transition_probabilities(rho, v, u)
    L.check(p1 + p2 == 1.0, f"p1 + p2 = {p1 + p2!r} != 1")
    if uniform:
        L.check(abs(p1 - cos2_half_angle(v, u)) <= P_TOL,
                f"uniform p1 {p1!r} misses cos^2(theta/2) by more than {P_TOL}")
    return p1, p2


# --- market -----------------------------------------------------------------

def _check_history(L: Ledger, cfg, trades):
    L.check(len(trades) == cfg.n_steps, "history length differs from n_steps")
    bad = 0
    for prev, t in zip(trades, trades[1:]):
        v, u = prev.outcome.collapsed_state, t.direction
        p1, p2 = sm.transition_probabilities(cfg.rho, v, u)
        expected = u if str(t.outcome.label) == "O1" else -u
        if (p1 + p2 != 1.0 or abs(p1 - cos2_half_angle(v, u)) > P_TOL
                or t.outcome.collapsed_state != expected
                or not cfg.price_min <= t.realized_price <= cfg.price_max):
            bad += 1
    L.check(bad == 0, f"{bad} trades break the pair law, the collapse or the price range")


def _scop_walk(system, contexts, steps, seed) -> int:
    """Collapse along the contexts in turn; returns how many results were
    not eigenstates of their context or had no actual property."""
    rng = np.random.default_rng(seed)
    state, bad = contexts[0], 0
    for k in range(steps):
        e = contexts[k % len(contexts)]
        state, _ = scop.transition(system, state, e, rng)
        if not scop.is_eigenstate(system, state, e) or not scop.actual_properties(system, state):
            bad += 1
    return bad


def market_round(L: Ledger, seed: int, r: int, rec=None) -> Round:
    rng = np.random.default_rng([seed, r])
    out = L.start_round()
    rho = sm.UniformRho()
    local = ms.MarketConfig(rho=rho, n_steps=MARKET_STEPS, seed=_seed(rng),
                            regime=ms.LocalRegime(noise_angle=float(rng.uniform(0.2, 0.6))))
    news = ms.NewsSeries("drift", angle=float(rng.uniform(0.3, 1.2)),
                         rate=float(rng.uniform(-1e-3, 1e-3)))
    glob_ = ms.MarketConfig(rho=rho, n_steps=MARKET_STEPS, seed=_seed(rng),
                            regime=ms.GlobalRegime(news=news,
                                                   noise_angle=float(rng.uniform(0.05, 0.3))))
    ens = ms.MarketConfig(rho=rho, n_steps=ENSEMBLE_STEPS, seed=_seed(rng),
                          regime=ms.LocalRegime(noise_angle=float(rng.uniform(0.2, 0.6))))
    cmp_cfg = ms.MarketConfig(rho=rho, n_steps=COMPARE_STEPS, seed=_seed(rng),
                              regime=ms.LocalRegime(noise_angle=float(rng.uniform(0.2, 0.6))))
    gbm = pr.GbmParams(s0=100.0, drift=float(rng.uniform(-0.05, 0.05)),
                       sigma=float(rng.uniform(0.1, 0.4)), horizon=4.0, steps=COMPARE_STEPS)

    histories = []
    for cfg in (local, glob_):
        trades = L.call(f"run_market.{cfg.regime.to_dict()['kind']}", ms.run_market, cfg,
                        work=cfg.n_steps)
        _check_history(L, cfg, trades)
        histories.append(trades)

    members = {}
    for w in WORKERS:
        members[w] = L.call(f"run_market_ensemble.w{w}", ms.run_market_ensemble, ens,
                            ENSEMBLE_RUNS, n_workers=w, work=ENSEMBLE_RUNS * ENSEMBLE_STEPS)
    L.check(members[1] == members[2], "ensemble differs between 1 and 2 workers")

    for trades in histories:
        stats = L.call("summary_stats", ms.summary_stats, trades)
        L.check(stats.n_prices == len(trades), "summary_stats miscounts prices")
        buf = io.StringIO()
        L.call("trades_to_csv", ms.trades_to_csv, buf, trades)
        L.check(buf.getvalue().count("\n") == len(trades) + 1, "trade CSV row count")

    report = L.call("compare_with_gbm", ms.compare_with_gbm, cmp_cfg, gbm)
    L.check(report["sphere_stats"]["n_prices"] == COMPARE_STEPS
            and report["gbm_stats"]["n_prices"] == COMPARE_STEPS + 1,
            "compare_with_gbm series lengths")

    contexts = [random_unit(rng) for _ in range(SCOP_CONTEXTS)]
    price_map = {}
    for k, u in enumerate(contexts):
        price_map[u] = scop.PriceIntervalProperty(100.0 + k, 150.0 + k)
        price_map[-u] = scop.PriceIntervalProperty(50.0 + k, 100.0 + k)
    system = L.call("sphere_as_scop", scop.sphere_as_scop, rho, contexts, price_map)
    bad = L.call("scop_walk", _scop_walk, system, contexts, SCOP_STEPS, _seed(rng))
    L.check(bad == 0, f"{bad} SCoP collapses did not land on an eigenstate")
    return out


# --- batch ------------------------------------------------------------------

def batch_round(L: Ledger, seed: int, r: int, rec=None) -> Round:
    rng = np.random.default_rng([seed, r])
    out = L.start_round()
    state, u = random_unit(rng), random_unit(rng)
    interior = np.sort(rng.uniform(-0.9, 0.9, 3))
    rhos = [
        sm.UniformRho(),
        sm.DeltaRho(float(rng.uniform(-0.5, 0.5))),
        sm.PiecewiseConstantRho([-1.0, *interior.tolist(), 1.0], rng.uniform(0.2, 3.0, 4).tolist()),
        sm.TruncatedGaussianRho(center=float(rng.uniform(-0.3, 0.3)),
                                width=float(rng.uniform(0.2, 0.6))),
    ]
    for rho in rhos:
        s = _seed(rng)
        counts = {}
        for w in WORKERS:
            counts[w] = L.call(f"measurement_counts.{rho.kind}.w{w}", sm.measurement_counts,
                               rho, state, u, TRIALS, s, n_workers=w, work=TRIALS)
        L.check(counts[1] == counts[2], f"{rho.kind} counts differ between 1 and 2 workers")
        n1, n2 = counts[2]
        p1, _ = check_pair_law(L, rho, state, u, uniform=rho.kind == "uniform")
        sd = math.sqrt(p1 * (1.0 - p1) / TRIALS)
        L.check(n1 + n2 == TRIALS and abs(n1 / TRIALS - p1) <= 6.0 * sd + 1e-9,
                f"{rho.kind} frequency {n1 / TRIALS} far from p1 {p1}")

    # The contract and the MC seed depend on the workload seed alone, so the
    # 4-stderr check is one draw per seed rather than one per round.
    fixed = np.random.default_rng(seed)
    spec = pr.OptionSpec(spot=float(fixed.uniform(80, 120)), strike=float(fixed.uniform(80, 120)),
                         rate=float(fixed.uniform(0.0, 0.08)), sigma=float(fixed.uniform(0.1, 0.4)),
                         tau=float(fixed.uniform(0.25, 2.0)),
                         kind=pr.OptionKind.PUT if fixed.random() < 0.5 else pr.OptionKind.CALL)
    s = _seed(fixed)
    prices = {}
    for w in WORKERS:
        prices[w] = L.call(f"mc_price.w{w}", pr.mc_price, spec, MC_PATHS, s, n_workers=w)
    L.check(prices[1] == prices[2], "mc_price differs between 1 and 2 workers")
    bs = pr.bs_price(spec)
    value, stderr = prices[2]
    L.check(abs(value - bs) <= 4.0 * stderr, f"mc_price {value} not within 4 stderr of bs {bs}")
    lattice = L.call("binomial_price", pr.binomial_price, spec, LATTICE_STEPS)
    L.check(abs(lattice - bs) <= 5e-3, f"binomial {lattice} far from bs {bs}")

    params = pr.GbmParams(s0=spec.spot, drift=float(rng.uniform(-0.05, 0.05)), sigma=spec.sigma,
                          horizon=spec.tau, steps=GBM_SMALL[1])
    s = _seed(rng)
    mats = {}
    for w in WORKERS:
        _, mats[w] = L.call(f"gbm_path_matrix.small.w{w}", pr.gbm_path_matrix,
                            params, GBM_SMALL[0], s, n_workers=w)
    L.check(np.array_equal(mats[1], mats[2]), "gbm_path_matrix differs between 1 and 2 workers")
    del mats

    big = pr.GbmParams(s0=spec.spot, drift=params.drift, sigma=spec.sigma,
                       horizon=spec.tau, steps=GBM_BIG[1])
    _, values = L.call("gbm_path_matrix.large.w2", pr.gbm_path_matrix,
                       big, GBM_BIG[0], _seed(rng), n_workers=2)
    terminal = values[:, -1]
    expected = big.s0 * math.exp(big.drift * big.horizon)
    L.check(values.shape == (GBM_BIG[0], GBM_BIG[1] + 1)
            and bool(np.all(values[:, 0] == big.s0))
            and bool(np.all(terminal > 0))
            and abs(terminal.mean() - expected) <= 5.0 * terminal.std() / math.sqrt(terminal.size),
            "large GBM matrix fails its start, positivity or martingale check")
    del values, terminal

    dirs = spread_directions(HS_BATCH[0], rng)
    table = L.call("hidden_state_agreement_table", sm.hidden_state_agreement_table,
                   sm.UniformRho(), dirs, n_samples=HS_BATCH[1], seed=_seed(rng))
    L.check(kc.joint_feasibility(table).feasible, "hidden-state table is not classical")
    return out


# --- feasibility ------------------------------------------------------------

def _agree_matrix(n: int) -> np.ndarray:
    """(2^n, pairs) 0/1 agreements of every deterministic assignment."""
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    i, j = np.triu_indices(n, 1)
    return (bits[:, i] == bits[:, j]).astype(float)


def check_verdict(L: Ledger, table, res):
    """Feasible: the weights rebuild the table.  Infeasible: the certificate
    is violated by the table and satisfied by every deterministic atom."""
    n = table.n
    agree = _agree_matrix(n)
    q = table.q[np.triu_indices(n, 1)]
    if res.feasible:
        w = res.atom_weights
        rebuilt = np.max(np.abs(agree.T @ w - q))
        L.check(res.max_residual <= RESIDUAL_TOL and rebuilt <= RESIDUAL_TOL
                and abs(w.sum() - 1.0) <= RESIDUAL_TOL and w.min() >= 0.0,
                f"n={n} atom weights miss their table by {rebuilt:.3g}")
    else:
        c = res.certificate
        atoms = agree @ c.coefficients - c.bound
        L.check(c.slack < 0 and abs(c.coefficients @ q - c.bound - c.slack) <= RESIDUAL_TOL
                and atoms.min() >= -RESIDUAL_TOL,
                f"n={n} certificate is not a valid separating inequality")


def feasibility_round(L: Ledger, seed: int, r: int, rec=None) -> Round:
    """Tables of every size n = 3..10 from three sources: hidden-state tables
    (feasible) on lattice and on random directions, sequential sphere tables
    and random tables.

    Random-direction hidden-state tables, the costly feasible case, come one
    per n below 9 and RANDOM_DIR_TABLES at n = 9.  At n = 10 their solve
    time varies too much (0.4-2.2 s) for a timed run to hold its bounds, so
    only the traced run (``rec`` set) solves one; they draw from their own
    stream, so the other inputs of a round do not depend on ``rec``.
    """
    rng = np.random.default_rng([seed, r])
    rng_dirs = np.random.default_rng([seed, r, 1])
    out = L.start_round()
    uniform = sm.UniformRho()
    for n in FEAS_N:
        dirs = spread_directions(n, rng)
        hs = L.call(f"hidden_state_agreement_table.n{n}", sm.hidden_state_agreement_table,
                    uniform, dirs, n_samples=FEAS_HS_SAMPLES, seed=_seed(rng))
        seq = L.call(f"agreement_table.n{n}", sm.agreement_table, uniform, dirs)
        tables = [("hidden_state", hs), ("sequential", seq)]
        if n < FEAS_N[-1] or rec is not None:
            for _ in range(RANDOM_DIR_TABLES if n == 9 else 1):
                tables.append(("hidden_state_random", L.call(
                    f"hidden_state_agreement_table.random.n{n}", sm.hidden_state_agreement_table,
                    uniform, [random_unit(rng_dirs) for _ in range(n)],
                    n_samples=FEAS_HS_SAMPLES, seed=_seed(rng_dirs))))
        tables += [("random", kc.random_agreement_table(n, rng)) for _ in range(RANDOM_PER_N)]
        for source, table in tables:
            res = L.call(f"joint_feasibility.{source}.n{n}", kc.joint_feasibility, table, work=1)
            if source.startswith("hidden_state"):
                L.check(res.feasible, f"n={n} hidden-state table judged non-classical")
            check_verdict(L, table, res)
            if n == 3:
                facets = L.call("bell_facets_n3", kc.bell_facets_n3, table)
                L.check(kc.facets_feasible(facets) == res.feasible,
                        f"LP and facet verdicts disagree on {source} n=3 table")

    scan = L.call("sphere_bell_scan.120deg", kc.sphere_bell_scan, uniform, 2.0 * math.pi / 3.0)
    cert = scan.feasibility.certificate
    L.check(bool(np.all(np.abs(scan.table.pair_values() - 0.25) < P_TOL))
            and not scan.feasible and cert is not None
            and abs(cert.slack + 0.25) <= RESIDUAL_TOL
            and np.allclose(cert.coefficients, [1.0, 1.0, 1.0], atol=RESIDUAL_TOL)
            and abs(cert.bound - 1.0) <= RESIDUAL_TOL,
            "120-degree uniform table lost its sum-facet certificate (slack -0.25)")

    for k in range(SCAN_ANGLES):
        theta = (k + float(rng.uniform(0.05, 0.95))) * math.pi / SCAN_ANGLES
        for rho in (uniform, sm.DeltaRho(float(rng.uniform(-0.5, 0.5)))):
            scan = L.call(f"sphere_bell_scan.{rho.kind}", kc.sphere_bell_scan, rho, theta,
                          n_samples=SCAN_SAMPLES, seed=_seed(rng))
            L.check(kc.facets_feasible(scan.facets) == scan.feasible,
                    f"LP and facet verdicts disagree on the {rho.kind} scan at {theta}")
            check_verdict(L, scan.table, scan.feasibility)
    return out


# --- cli --------------------------------------------------------------------

def config_paths() -> list[str]:
    return sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json")))


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave the checkout's sources untouched
    return env


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv: list[str], outdir: str | None, spans_path: str | None = None):
    """One fresh-interpreter CLI invocation; returns (CompletedProcess, {file: bytes})."""
    if outdir is not None:
        os.makedirs(outdir)
        argv = argv + ["--out", outdir]
    if spans_path is None:
        cmd = [sys.executable, "-m", "spheremarket.cli_runner", *argv]
    else:
        cmd = [sys.executable, CLI_CHILD, spans_path, *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          timeout=CLI_TIMEOUT_S)
    files = {}
    if outdir is not None:
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name), "rb") as fh:
                files[name] = fh.read()
        shutil.rmtree(outdir)
    return proc, files


def _check_report(L: Ledger, config: dict, files: dict, seed: int):
    kind = config["experiment"]
    name = f"{kind.replace('-', '_')}_report.json"
    if name not in files:
        L.check(False, f"{kind}: no report written")
        return
    report = json.loads(files[name])
    res = report["results"]
    L.check(report["seed"] == seed, f"{kind}: report seed {report['seed']} != {seed}")
    if kind == "sphere":
        p = report["params"]
        v, u = (geo.UnitVector3.normalized(*p["state"]), geo.UnitVector3.normalized(*p["direction"]))
        p1, p2 = res["analytic"]["p1"], res["analytic"]["p2"]
        L.check(p1 + p2 == 1.0 and abs(p1 - cos2_half_angle(v, u)) <= P_TOL,
                "sphere report breaks p1 + p2 = 1 or cos^2(theta/2)")
    elif kind == "bell-scan":
        facets_ok = all(f["slack"] >= -kc.DEFAULT_TOL for f in res["facets"])
        L.check(facets_ok == (res["verdict"] == "feasible"), "bell-scan LP and facet verdicts disagree")
    elif kind == "price":
        by = {x["method"]: x for x in res["results"]}
        if "monte_carlo" in by and "black_scholes" in by:
            mc = by["monte_carlo"]
            L.check(abs(mc["value"] - by["black_scholes"]["value"]) <= 4.0 * mc["error_estimate"],
                    "price report: mc not within 4 stderr of bs")
    elif kind == "market" and "market_trades.csv" in files:
        rows = files["market_trades.csv"].count(b"\n")
        L.check(rows == report["params"]["market"]["n_steps"] + 1, "market CSV row count")


def cli_round(L: Ledger, seed: int, r: int, rec=None) -> Round:
    """Every demo config plus ``selftest``, one fresh interpreter each.

    Round 0 runs each config at its own seed and compares SHA-256 digests of
    everything it writes with those recorded in digests.json; later rounds
    pass a ``--seed`` drawn from the workload seed alone, so the statistical
    checks on the reports are one draw per seed.
    """
    rng = np.random.default_rng(seed)
    out = L.start_round()
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        digests = json.load(fh)
    os.makedirs(TMP_DIR, exist_ok=True)
    jobs = []
    for path in config_paths():
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
        override = None if r == 0 else _seed(rng)
        argv = ["run", os.path.relpath(path, ROOT)]
        if override is not None:
            argv += ["--seed", str(override)]
        jobs.append((os.path.basename(path), config, override, argv))
    jobs.append(("selftest", None, None, ["selftest"]))

    for name, config, override, argv in jobs:
        outdir = None if config is None else os.path.join(TMP_DIR, f"out_{os.getpid()}")
        spans_path = None if rec is None else os.path.join(TMP_DIR, f"spans_{os.getpid()}.json")
        stem = name[:-5] if name.endswith(".json") else name
        proc, files = L.call(stem, run_cli, argv, outdir, spans_path, work=1)
        out.bytes_written += sum(len(b) for b in files.values())
        if rec is not None and os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                rec.merge(json.load(fh), L.last_span)
            os.unlink(spans_path)
        L.check(proc.returncode == 0,
                f"{name}: exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}")
        if config is None:
            L.check(sha256(proc.stdout) == digests["selftest"]["stdout"], "selftest output changed")
            continue
        if override is None:
            got = {f: sha256(b) for f, b in files.items()}
            L.check(got == digests[name], f"{name}: output digests differ from the recorded ones")
        _check_report(L, config, files, config.get("seed", 0) if override is None else override)
    return out


# the operations whose median time is op_p50_s
KEY_OPS = {
    "market": ("run_market.local", "run_market.global"),
    "batch": ("mc_price.w1",),  # one MC price at the CLI's default of 1 worker
    "feasibility": ("joint_feasibility.hidden_state_random.n9",),
    "cli": None,  # every invocation
}

ROUNDS = {
    "market": market_round,
    "batch": batch_round,
    "feasibility": feasibility_round,
    "cli": cli_round,
}
IN_PROCESS = ("market", "batch", "feasibility")
