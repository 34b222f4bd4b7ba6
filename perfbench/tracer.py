"""In-memory span recorder for the traced benchmark run.

``Recorder.installed()`` replaces every public function of the spheremarket
modules with a wrapper that records a span, in every namespace that binds
the function: ``from .geometry import perturb`` makes ``market_sim.perturb``
a second binding of ``geometry.perturb``, and both are wrapped, so calls the
library makes internally are recorded as well as the benchmark's own.  The
program's files are not modified; the wrappers are removed on exit.

A span is ``(id, name, start, end, parent, tag)``.  Times come from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans recorded in a
child process line up with the parent's).  ``parent`` is the id of the
enclosing span, or 0 at the root; a span opened on an executor thread with
nothing open on that thread takes the innermost open span of the main
thread as its parent, since one client drives the run.  ``tag`` carries
the argument-derived facts the per-layer metrics need (rho kind, worker
count, table size and verdict, ...).

Two internals are recorded too, so that counts come from what the program
does rather than from the arguments it was given: every array draw of a
rho distribution's ``sample`` method (``sphere_model.rho_sample``; scalar
draws are not recorded), and the LP solver
``kolmogorov_check._phase1_simplex`` with the column count of the matrix it
is handed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import threading
import time

PACKAGE = "spheremarket"
MODULES = ("geometry", "sphere_model", "scop_core", "kolmogorov_check",
           "pricing", "market_sim", "cli_runner")


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _tag_measurement_counts(a, result):
    return {"kind": a["rho"].kind, "workers": int(a["n_workers"]), "trials": int(a["n_trials"])}


def _tag_workers(a, result):
    return {"workers": int(a["n_workers"])}


def _tag_gbm(a, result):
    return {"workers": int(a["n_workers"]),
            "bytes": int(a["n_paths"]) * (a["params"].steps + 1) * 8}


def _tag_binomial(a, result):
    return {"steps": int(a["steps"])}


def _tag_simplex(a, result):
    return {"columns": int(a["A"].shape[1])}


def _tag_run_market(a, result):
    return {"regime": a["cfg"].regime.to_dict()["kind"]}


def _tag_joint_feasibility(a, result):
    return {"n": a["table"].n, "feasible": bool(result.feasible)}


def _tag_run(a, result):
    return {"config": a["config_path"]}


# functions whose spans need facts from their arguments or result
TAGGERS = {
    "sphere_model.measurement_counts": _tag_measurement_counts,
    "pricing.mc_price": _tag_workers,
    "pricing.gbm_path_matrix": _tag_gbm,
    "pricing.binomial_price": _tag_binomial,
    "market_sim.run_market": _tag_run_market,
    "market_sim.run_market_ensemble": _tag_workers,
    "kolmogorov_check.joint_feasibility": _tag_joint_feasibility,
    "cli_runner.run": _tag_run,
    "kolmogorov_check._phase1_simplex": _tag_simplex,
}

# private functions wrapped beside the public ones
INTERNALS = {"kolmogorov_check": ("_phase1_simplex",)}


def public_functions(module) -> dict:
    """Functions defined in ``module`` whose names do not start with '_'."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int, int]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = 0
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    @contextlib.contextmanager
    def span(self, name: str, tag=None):
        """Record a span around a block of the benchmark's own code."""
        stack, sid, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, tag))

    def wrap_sample(self, fn):
        """Wrap a rho ``sample`` method; only array draws are recorded."""

        @functools.wraps(fn)
        def traced(rho, rng, size=None):
            if size is None:
                return fn(rho, rng, size)
            with self.span("sphere_model.rho_sample", {"kind": rho.kind}):
                return fn(rho, rng, size)

        return traced

    def wrap(self, name: str, fn):
        tagger = TAGGERS.get(name)
        record = self.spans.append

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = self._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = time.perf_counter()
                stack.pop()
                record((sid, name, t0, t1, parent, {"error": True}))
                raise
            t1 = time.perf_counter()
            stack.pop()
            tag = tagger(_bound(fn, args, kwargs), result) if tagger else None
            record((sid, name, t0, t1, parent, tag))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public function in every binding for the block."""
        package = importlib.import_module(PACKAGE)
        modules = [package] + [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        wrappers = {}
        for short, module in zip(MODULES, modules[1:]):
            hooked = public_functions(module)
            hooked.update((f, getattr(module, f)) for f in INTERNALS.get(short, ()))
            for fname, fn in hooked.items():
                wrappers[id(fn)] = (fn, self.wrap(f"{short}.{fname}", fn))
        patched = []
        sphere_model = modules[1 + MODULES.index("sphere_model")]
        for cls in vars(sphere_model).values():
            if (inspect.isclass(cls) and issubclass(cls, sphere_model.RhoDistribution)
                    and "sample" in vars(cls)):
                patched.append((cls, "sample", vars(cls)["sample"]))
                cls.sample = self.wrap_sample(cls.sample)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, obj))
        try:
            yield self
        finally:
            for module, attr, obj in patched:
                setattr(module, attr, obj)

    def merge(self, spans: list, parent: int):
        """Adopt spans recorded in a child process under ``parent``."""
        remap = {}
        for sid, *_ in spans:
            remap[sid] = next(self._ids)
        for sid, name, t0, t1, par, tag in spans:
            self.spans.append((remap[sid], name, t0, t1, remap.get(par, parent), tag))

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_time(span, children: list) -> float:
    """Span duration minus the part of it that child spans cover.

    Children on executor threads may overlap one another, so the covered
    part is the length of the union of their intervals.
    """
    _, _, t0, t1, _, _ = span
    covered, cur_lo, cur_hi = 0.0, None, None
    for _, _, c0, c1, _, _ in sorted(children, key=lambda s: s[2]):
        c0, c1 = max(c0, t0), min(c1, t1)
        if c1 <= c0:
            continue
        if cur_hi is None or c0 > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = c0, c1
        else:
            cur_hi = max(cur_hi, c1)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (t1 - t0) - covered
