"""Config-driven experiment runner.

Subcommands: ``run <config.json>`` executes one experiment and writes a
JSON report (plus CSV series where applicable); ``selftest`` runs a fast
subset of the acceptance checks.  Config files are JSON objects::

    {
      "experiment": "price" | "sphere" | "bell-scan" | "market" | "convergence",
      "seed": 12345,            # optional, default 0
      "params": { ... }         # experiment-specific block, see README
    }

Counts are bounded where they are parsed (``config.at_least``): at most
2**53, the lattice steps (``binomial_steps``, each convergence
``steps[i]``) at most ``MAX_LATTICE_STEPS`` and ``workers`` at most
``MAX_WORKERS``, a fixed cap so that whether a config is valid never
depends on the machine.  The CRR lattice does about steps**2 / 2 node
updates; 10**4 steps take 0.1 s on a 2-core Xeon, so the cap of 10**5
steps bounds one lattice at about 10 s.

Exit codes: 0 success, 2 config parse error, 3 parameter validation error,
4 runtime error.  Reports echo the fully resolved configuration, so any
result is reproducible from its own output; the same config and seed
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import tempfile
from typing import TYPE_CHECKING

import numpy as np

from .config import (ConfigParseError, FieldError, at_least, count, field_keys, flag, items,
                     member, number, parse_block, shown, unit_vector)

if TYPE_CHECKING:
    from .geometry import UnitVector3

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4
MAX_LATTICE_STEPS = 10 ** 5
MAX_WORKERS = 64


def _as_direction(value, context: str) -> UnitVector3:
    """[x, y, z] or {"theta": ..., "phi": ...} (phi defaults to 0)."""
    from .geometry import from_polar

    if isinstance(value, dict):
        angles = parse_block(value, context, required={"theta": number}, optional={"phi": number})
        return from_polar(angles["theta"], angles.get("phi", 0.0))
    return unit_vector(value, context)


def _non_finite_path(obj, path: str) -> str | None:
    """The dotted path of the first NaN or infinity in ``obj``, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    if isinstance(obj, dict):
        children = ((f"{path}.{key}", value) for key, value in obj.items())
    elif isinstance(obj, (list, tuple)):
        children = ((f"{path}[{i}]", value) for i, value in enumerate(obj))
    else:
        return None
    return next(filter(None, (_non_finite_path(v, p) for p, v in children)), None)


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


# --- experiment runners ----------------------------------------------------
# Each runner parses its params block and hands every nested block to the
# ``from_dict`` of the object it describes (ConfigParseError on malformed
# input), builds domain objects (ValueError -> validation failure; its own
# rules raise FieldError on keys under ``params``, which ``run`` names),
# computes, and returns (resolved_params, results, {filename: text}).
# Each runner, like each selftest check, imports what it runs at the top of
# its body, and what an optional block needs where it parses that block, so
# a CLI spawn loads only the modules of its own experiment and config.


def _run_price(params: dict, seed: int):
    from .pricing import OptionSpec, binomial_price, bs_price, mc_price, pricing_report

    p = parse_block(params, "params", required={"spec": None},
                    optional={"methods": lambda v, name: items(member(("bs", "binomial", "mc")),
                                                               v, name),
                              "binomial_steps": at_least(1, MAX_LATTICE_STEPS),
                              "mc_paths": at_least(2)})
    methods = p.get("methods", ["bs"])
    if not methods:
        raise ConfigParseError("'params.methods' must be a non-empty list")
    spec = OptionSpec.from_dict(p["spec"], "params.spec")
    steps = p.get("binomial_steps", 1000)
    n_paths = p.get("mc_paths", 100_000)

    results = []
    for m in methods:
        if m == "bs":
            results.append(pricing_report(spec, "black_scholes", bs_price(spec)))
        elif m == "binomial":
            with field_keys("params.spec"):
                value = binomial_price(spec, steps)
            results.append(pricing_report(spec, "binomial", value, extra={"steps": steps}))
        else:
            with field_keys("params.spec"):
                value, stderr = mc_price(spec, n_paths, seed=seed)
            results.append(pricing_report(spec, "monte_carlo", value,
                                          error_estimate=stderr,
                                          extra={"n_paths": n_paths}))
    resolved = {"spec": spec.to_dict(), "methods": methods,
                "binomial_steps": steps, "mc_paths": n_paths}
    return resolved, {"results": results, "value": results[0]["value"]}, {}


def _run_sphere(params: dict, seed: int):
    from .sphere_model import RhoDistribution, measurement_counts, transition_probabilities

    p = parse_block(params, "params", required={"rho": None, "state": None, "direction": None},
                    optional={"n_trials": at_least(1), "workers": at_least(1, MAX_WORKERS)})
    rho = RhoDistribution.from_dict(p["rho"], "params.rho")
    state = _as_direction(p["state"], "params.state")
    direction = _as_direction(p["direction"], "params.direction")
    n_trials = p.get("n_trials", 100_000)
    workers = p.get("workers", 1)

    p1, p2 = transition_probabilities(rho, state, direction)
    n1, n2 = measurement_counts(rho, state, direction, n_trials, seed, n_workers=workers)
    results = {
        "analytic": {"p1": p1, "p2": p2},
        "monte_carlo": {"n_trials": n_trials, "count_o1": n1, "count_o2": n2,
                        "freq_o1": n1 / n_trials},
    }
    resolved = {"rho": rho.to_dict(),
                "state": list(state),
                "direction": list(direction),
                "n_trials": n_trials, "workers": workers}
    return resolved, results, {}


def _run_bell_scan(params: dict, seed: int):
    from .kolmogorov_check import sphere_bell_scan
    from .sphere_model import RhoDistribution

    p = parse_block(params, "params", required={"rho": None},
                    optional={"theta": number, "theta_degrees": number,
                              "mode": None, "n_samples": at_least(1)})
    if ("theta" in p) == ("theta_degrees" in p):
        raise ConfigParseError(
            "exactly one of 'theta' (radians) or 'theta_degrees' is required in 'params'"
        )
    rho = RhoDistribution.from_dict(p["rho"], "params.rho")
    key = "theta" if "theta" in p else "theta_degrees"
    theta = p["theta"] if key == "theta" else math.radians(p["theta_degrees"])
    mode = p.get("mode", "auto")
    n_samples = p.get("n_samples", 100_000)
    try:
        scan = sphere_bell_scan(rho, theta, mode=mode, n_samples=n_samples, seed=seed)
    except FieldError as exc:  # theta's range, under the key and in the unit the config used
        if exc.field != "theta" or key == "theta":
            raise
        degrees = p["theta_degrees"]
        rounded = f", which is {theta!r} in radians" if 0.0 < degrees < 180.0 else ""
        raise FieldError(key, f"must lie strictly between 0 and 180, got {degrees!r}{rounded}")
    resolved = {"rho": rho.to_dict(), "theta": theta, "mode": scan.mode,
                "n_samples": n_samples}
    return resolved, scan.to_dict(), {}


def _run_market(params: dict, seed: int):
    from .market_sim import (MIN_TRADES, MarketConfig, compare_trades_with_gbm, run_market,
                             summary_stats, trades_to_csv)

    p = parse_block(params, "params", required={"market": None},
                    optional={"compare_gbm": None, "write_trades": flag})
    market = p["market"]
    if isinstance(market, dict) and "seed" in market:
        raise ConfigParseError("unknown key 'params.market.seed' (the seed is top-level)")
    cfg = MarketConfig.from_dict({**market, "seed": seed} if isinstance(market, dict) else market,
                                 "params.market")
    if cfg.n_steps < MIN_TRADES:  # for the return statistics
        raise FieldError("market.n_steps", f"must be at least {MIN_TRADES}, got {cfg.n_steps}")
    gbm = p.get("compare_gbm")
    if gbm is not None:
        from .pricing import GbmParams

        gbm = GbmParams.from_dict(gbm, "params.compare_gbm")
    # constant log returns have no kurtosis and no autocorrelations
    if gbm is not None and gbm.sigma == 0.0:
        raise FieldError("compare_gbm.sigma", "must be positive: at 0 GBM log returns are constant")
    if gbm is not None and gbm.steps != cfg.n_steps:  # compare_trades_with_gbm's rule, by key
        raise FieldError("compare_gbm.steps", "must equal", other="market.n_steps")
    write_trades = p.get("write_trades", True)

    trades = run_market(cfg)
    if (trades.price == trades.price[0]).all():
        raise FieldError("market.regime.noise_angle",
                         f"{cfg.regime.noise_angle!r} never moved the price in {cfg.n_steps} "
                         "trades: every context stayed on the state's own axis")
    if gbm is None:
        results = {"config": cfg.to_dict(), "stats": summary_stats(trades).to_dict()}
    else:
        results = compare_trades_with_gbm(cfg, trades, gbm)
    files = {}
    if write_trades:
        buf = io.StringIO()
        trades_to_csv(buf, trades)
        files["market_trades.csv"] = buf.getvalue()
    resolved = {"market": cfg.to_dict(),
                "compare_gbm": None if gbm is None else gbm.to_dict(),
                "write_trades": write_trades}
    return resolved, results, files


def _run_convergence(params: dict, seed: int):
    from .pricing import OptionSpec, binomial_price, bs_price

    p = parse_block(params, "params", required={"spec": None},
                    optional={"steps": lambda v, name: items(at_least(1, MAX_LATTICE_STEPS),
                                                             v, name)})
    steps = p.get("steps", [50, 100, 200, 400, 800, 1600])
    if len(set(steps)) < 2:
        raise ConfigParseError("'params.steps' needs at least two distinct entries")
    spec = OptionSpec.from_dict(p["spec"], "params.spec")

    reference = bs_price(spec)
    with field_keys("params.spec"):
        errors = [abs(binomial_price(spec, n) - reference) for n in steps]
    if 0.0 in errors:
        zero = (f"leaves a binomial error of 0 at {steps[errors.index(0.0)]} steps "
                "(the log-log slope needs nonzero errors)")
        if spec.tau == 0.0:
            raise FieldError("spec.tau", f"is 0, which {zero}")
        raise FieldError("spec.strike", f"{zero} against", other="spec.spot")
    slope = float(np.polyfit(np.log(steps), np.log(errors), 1)[0])
    rows = ["steps,abs_error"] + [f"{n},{e!r}" for n, e in zip(steps, errors)]
    files = {"convergence_errors.csv": "\r\n".join(rows) + "\r\n"}
    results = {"reference_value": reference, "steps": steps,
               "abs_errors": errors, "loglog_slope": slope}
    resolved = {"spec": spec.to_dict(), "steps": steps}
    return resolved, results, files


_RUNNERS = {
    "price": _run_price,
    "sphere": _run_sphere,
    "bell-scan": _run_bell_scan,
    "market": _run_market,
    "convergence": _run_convergence,
}
EXPERIMENT_KINDS = tuple(_RUNNERS)


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigParseError(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # bad JSON, not UTF-8, or an integer over Python's digit limit
        raise ConfigParseError(f"invalid JSON: {exc}") from exc
    top = parse_block(raw, "config", required={"experiment": None},
                      optional={"seed": count, "params": None})
    if top["experiment"] not in EXPERIMENT_KINDS:
        raise ConfigParseError(
            f"unknown experiment '{top['experiment']}' (expected one of {EXPERIMENT_KINDS})"
        )
    return {"experiment": top["experiment"], "seed": top.get("seed", 0),
            "params": top.get("params", {})}


def run(config_path: str, seed_override: int | None = None, out_dir: str = ".") -> int:
    """Execute the experiment described by the config file.

    Writes ``<experiment>_report.json`` (plus any series CSVs) under
    ``out_dir``.  Returns the process exit code.
    """
    try:
        config = load_config(config_path)
        kind = config["experiment"]
        seed = seed_override if seed_override is not None else config["seed"]
        if seed < 0:
            raise ValueError(f"'seed' must be nonnegative, got {shown(seed)}")
        with field_keys("params"):
            resolved, results, files = _RUNNERS[kind](config["params"], seed)
        bad = _non_finite_path(results, "results")
        if bad is not None:
            raise ValueError(f"'{bad}' is not finite")
        report = {"experiment": kind, "seed": seed, "params": resolved, "results": results}
        os.makedirs(out_dir, exist_ok=True)  # an unusable out_dir: OSError, exit 4
        files = {f"{kind.replace('-', '_')}_report.json": _dump_report(report), **files}
        for name, text in files.items():
            path = os.path.join(out_dir, name)
            _atomic_write(path, text)
            print(f"wrote {path}")
    except ConfigParseError as exc:
        _emit_error("parse", str(exc))
        return EXIT_PARSE
    except (ValueError, TypeError) as exc:
        _emit_error("validation", str(exc))
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        _emit_error("runtime", f"{type(exc).__name__}: {exc}")
        return EXIT_RUNTIME
    return EXIT_OK


def _emit_error(kind: str, message: str):
    sys.stderr.write(json.dumps({"error": {"kind": kind, "message": message}},
                                sort_keys=True) + "\n")


# --- selftest ---------------------------------------------------------------

_PROBE_TABLES = (
    (0.25, 0.25, 0.25),
    (1.0, 1.0, 1.0),
    (0.5, 0.0, 0.5),
    (0.31, 0.31, 0.31),
    (0.32, 0.32, 0.32),
    (0.55, 0.05, 0.55),
)


def _check_parity() -> tuple[bool, str]:
    from .pricing import OptionKind, OptionSpec, bs_price

    rng = np.random.default_rng(1812)
    worst = 0.0
    for _ in range(200):
        spot, strike = rng.uniform(10, 200), rng.uniform(10, 200)
        rate, sigma = rng.uniform(0.0, 0.1), rng.uniform(0.05, 0.6)
        tau = rng.uniform(0.05, 3.0)
        call = bs_price(OptionSpec(spot, strike, rate, sigma, tau, kind=OptionKind.CALL))
        put = bs_price(OptionSpec(spot, strike, rate, sigma, tau, kind=OptionKind.PUT))
        rhs = spot - strike * math.exp(-rate * tau)
        worst = max(worst, abs(call - put - rhs))
    return worst <= 1e-12, f"max parity deviation {worst:.3g}"


def _check_rho_normalization() -> tuple[bool, str]:
    from .sphere_model import DeltaRho, PiecewiseConstantRho, TruncatedGaussianRho, UniformRho

    rhos = [
        UniformRho(),
        DeltaRho(0.2),
        PiecewiseConstantRho([-1.0, -0.25, 0.5, 1.0], [0.5, 2.0, 1.0]),
        TruncatedGaussianRho(center=0.1, width=0.4),
    ]
    for rho in rhos:
        if rho.cdf(-1.0) != 0.0 or rho.cdf(1.0) != 1.0:
            return False, f"{rho!r} violates cdf(-1)=0, cdf(1)=1"
        grid = np.linspace(-1.0, 1.0, 201)
        vals = [rho.cdf(float(x)) for x in grid]
        if np.any(np.diff(vals) < -1e-15):
            return False, f"{rho!r} cdf not nondecreasing"
    return True, f"{len(rhos)} variants normalized"


def _check_lp_vs_facets() -> tuple[bool, str]:
    from .kolmogorov_check import (AgreementTable, bell_facets_n3, facets_feasible,
                                   joint_feasibility, random_agreement_table)

    rng = np.random.default_rng(2718)
    tables = [AgreementTable(3, v) for v in _PROBE_TABLES]
    tables += [random_agreement_table(3, rng) for _ in range(100)]
    for idx, table in enumerate(tables):
        lp = joint_feasibility(table).feasible
        facets = facets_feasible(bell_facets_n3(table))
        if lp != facets:
            return False, f"table {idx}: LP={lp} facets={facets}"
    return True, f"{len(tables)} tables agree"


def _check_uniform_closed_form() -> tuple[bool, str]:
    from .geometry import UnitVector3, from_polar
    from .sphere_model import UniformRho, transition_probabilities

    rho = UniformRho()
    pole = UnitVector3(0.0, 0.0, 1.0)
    worst = 0.0
    for deg in range(15, 180, 15):
        theta = math.radians(deg)
        p1, _ = transition_probabilities(rho, from_polar(theta, 0.0), pole)
        worst = max(worst, abs(p1 - math.cos(theta / 2.0) ** 2))
    return worst <= 1e-12, f"max closed-form deviation {worst:.3g}"


SELFTEST_CHECKS = (
    ("put_call_parity", _check_parity),
    ("rho_normalization", _check_rho_normalization),
    ("lp_vs_facets_n3", _check_lp_vs_facets),
    ("uniform_cos2_half_angle", _check_uniform_closed_form),
)


def selftest() -> int:
    """Fast subset of the acceptance checks; exit 0 iff all pass."""
    failed = []
    for name, check in SELFTEST_CHECKS:
        try:
            ok, detail = check()
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        print(f"selftest {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        if not ok:
            failed.append(name)
    if failed:
        print(f"selftest FAILED: {', '.join(failed)}")
        return 1
    print("selftest OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spheremarket",
        description="Run sphere-market experiments from JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("config", help="path to the JSON config file")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=".", help="output directory for reports")
    sub.add_parser("selftest", help="run the fast acceptance subset")

    args = parser.parse_args(argv)
    if args.command == "selftest":
        return selftest()
    return run(args.config, seed_override=args.seed, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
