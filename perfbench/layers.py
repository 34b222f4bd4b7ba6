"""Per-layer metrics of the traced run and the end-to-end metric each moves.

``CATALOGUE`` lists every per-layer metric as (name, unit, better, moves),
where ``moves`` names the end-to-end metrics, as ``metric@workload``, that a
change to that layer should move.  ``derive`` computes the values from the
spans of one traced sweep (one fixed round of every workload), so counts
repeat exactly at a fixed seed.

Times (unit ``s``) are totals over the sweep unless the name says ``self``
(the span's time minus its children's) or is a ``joint_feasibility_s`` entry
(mean seconds per solve for tables of that size and verdict, or for the
random-direction hidden-state tables, ``random_dirs``, which the verdict
entries leave out).  Counts are of calls the program made, except those
named ``computed``, which are arithmetic on the call's arguments.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import self_time
from workloads import FEAS_N as FEAS_SIZES
from workloads import ROUNDS

RHO_KINDS = ("uniform", "delta", "piecewise", "truncated_gaussian")
MARKET_CONFIGS = ("market_global_herding", "market_local_vs_gbm")
WORKLOADS = tuple(ROUNDS)

_MARKET = ("work_per_s@market", "wall_s@market")
_CLI = ("op_p50_s@cli", "wall_s@cli")
_FEAS = ("work_per_s@feasibility", "op_p50_s@feasibility")


def _catalogue():
    rows = [
        ("spheremarket.import_s", "s", "lower", ("setup_s@all", "op_p50_s@cli")),
        ("spheremarket.import_scipy_special_s", "s", "lower", ("setup_s@all", "op_p50_s@cli")),
        ("cli_runner.load_config_s", "s", "lower", _CLI),
        ("cli_runner.run_self_s", "s", "lower", _CLI),
        ("cli_runner.bytes_written", "B", "lower", _CLI),
    ]
    rows += [(f"cli_runner.run_market_calls.{c}", "count", "lower", _CLI) for c in MARKET_CONFIGS]
    rows += [
        ("market_sim.run_market_s.local", "s", "lower", _MARKET),
        ("market_sim.run_market_s.global", "s", "lower", _MARKET),
        ("market_sim.run_market_calls", "count", "lower", _MARKET + _CLI),
        ("market_sim.ensemble_s.w1", "s", "lower", _MARKET),
        ("market_sim.ensemble_s.w2", "s", "lower", _MARKET),
        ("market_sim.summary_stats_s", "s", "lower", _MARKET),
        ("market_sim.trades_to_csv_s", "s", "lower", _MARKET),
        ("market_sim.compare_with_gbm_self_s", "s", "lower", _MARKET),
        ("geometry.perturb_calls", "count", "lower", _MARKET),
        ("geometry.rotate_calls", "count", "lower", _MARKET),
        ("geometry.sample_uniform_calls", "count", "lower", _MARKET),
        ("geometry.perturb_s", "s", "lower", _MARKET),
        ("geometry.sample_uniform_array_s", "s", "lower", ("wall_s@batch",)),
        ("sphere_model.simulate_measurement_calls", "count", "lower", _MARKET),
        ("sphere_model.simulate_measurement_s", "s", "lower", _MARKET),
    ]
    rows += [(f"sphere_model.measurement_counts_s.{k}.w{w}", "s", "lower",
              ("work_per_s@batch", "wall_s@batch")) for k in RHO_KINDS for w in (1, 2)]
    rows += [
        ("sphere_model.chunks", "count", "lower", ("work_per_s@batch",)),
        ("sphere_model.hidden_state_table_s", "s", "lower", ("wall_s@feasibility", "wall_s@batch")),
        ("sphere_model.agreement_table_s", "s", "lower", ("wall_s@feasibility",)),
        ("pricing.mc_price_s.w1", "s", "lower", ("op_p50_s@batch", "wall_s@batch")),
        ("pricing.mc_price_s.w2", "s", "lower", ("op_p50_s@batch", "wall_s@batch")),
        ("pricing.gbm_path_matrix_s", "s", "lower", ("wall_s@batch", "peak_rss_mb@batch")),
        ("pricing.gbm_bytes_computed", "B", "lower", ("wall_s@batch", "peak_rss_mb@batch")),
        ("pricing.binomial_price_s", "s", "lower", ("wall_s@batch", "op_p50_s@cli")),
        ("pricing.lattice_node_updates_computed", "count", "lower",
         ("wall_s@batch", "op_p50_s@cli")),
    ]
    rows += [(f"kolmogorov_check.joint_feasibility_s.{v}.n{n}", "s", "lower", _FEAS)
             for v in ("feasible", "infeasible", "random_dirs") for n in FEAS_SIZES]
    rows += [
        ("kolmogorov_check.verdicts_feasible", "count", "higher", _FEAS),
        ("kolmogorov_check.verdicts_infeasible", "count", "higher", _FEAS),
        ("kolmogorov_check.atom_columns", "count", "lower", _FEAS),
        ("kolmogorov_check.sphere_bell_scan_s", "s", "lower", ("wall_s@feasibility",)),
        ("scop_core.transition_calls", "count", "lower", ("wall_s@market",)),
        ("scop_core.transition_s", "s", "lower", ("wall_s@market",)),
        ("scop_core.is_eigenstate_s", "s", "lower", ("wall_s@market",)),
    ]
    rows += [(f"trace.overhead_frac.{w}", "ratio", "lower", ()) for w in WORKLOADS]
    return rows


CATALOGUE = _catalogue()


def _inside_ops(spans):
    """Spans below an ``op`` span, each with the tag of that op, and the
    children of every span by parent id."""
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append(s)
    out, stack = [], [(s, s[5]) for s in spans if s[1] == "op"]
    while stack:
        span, op_tag = stack.pop()
        for c in children[span[0]]:
            out.append((c, op_tag))
            stack.append((c, op_tag))
    return out, children


def derive(spans, import_s: dict, bytes_written: int, overhead: dict) -> dict:
    inside, children = _inside_ops(spans)
    name_of = {s[0]: s[1] for s in spans}
    by_name = defaultdict(list)
    for span, op_tag in inside:
        if not (isinstance(span[5], dict) and span[5].get("error")):
            by_name[span[1]].append((span, op_tag))

    def total(name, pred=lambda tag: True):
        return sum(s[3] - s[2] for s, _ in by_name[name] if pred(s[5]))

    def count(name, pred=lambda tag: True):
        return sum(1 for s, _ in by_name[name] if pred(s[5]))

    def self_total(name):
        return sum(self_time(s, children[s[0]]) for s, _ in by_name[name])

    m = {
        "spheremarket.import_s": import_s["spheremarket"],
        "spheremarket.import_scipy_special_s": import_s["scipy.special"],
        "cli_runner.load_config_s": total("cli_runner.load_config"),
        "cli_runner.run_self_s": self_total("cli_runner.run"),
        "cli_runner.bytes_written": bytes_written,
    }
    for c in MARKET_CONFIGS:
        m[f"cli_runner.run_market_calls.{c}"] = sum(
            1 for s, op_tag in by_name["market_sim.run_market"] if op_tag == c)
    m.update({
        "market_sim.run_market_s.local": total("market_sim.run_market", lambda t: t["regime"] == "local"),
        "market_sim.run_market_s.global": total("market_sim.run_market", lambda t: t["regime"] == "global"),
        "market_sim.run_market_calls": count("market_sim.run_market"),
        "market_sim.ensemble_s.w1": total("market_sim.run_market_ensemble", lambda t: t["workers"] == 1),
        "market_sim.ensemble_s.w2": total("market_sim.run_market_ensemble", lambda t: t["workers"] == 2),
        "market_sim.summary_stats_s": total("market_sim.summary_stats"),
        "market_sim.trades_to_csv_s": total("market_sim.trades_to_csv"),
        "market_sim.compare_with_gbm_self_s": self_total("market_sim.compare_with_gbm"),
        "geometry.perturb_calls": count("geometry.perturb"),
        "geometry.rotate_calls": count("geometry.rotate"),
        "geometry.sample_uniform_calls": count("geometry.sample_uniform"),
        "geometry.perturb_s": total("geometry.perturb"),
        "geometry.sample_uniform_array_s": total("geometry.sample_uniform_array"),
        "sphere_model.simulate_measurement_calls": count("sphere_model.simulate_measurement"),
        "sphere_model.simulate_measurement_s": total("sphere_model.simulate_measurement"),
    })
    for k in RHO_KINDS:
        for w in (1, 2):
            m[f"sphere_model.measurement_counts_s.{k}.w{w}"] = total(
                "sphere_model.measurement_counts",
                lambda t, k=k, w=w: t["kind"] == k and t["workers"] == w)
    # array draws the sampler makes directly for measurement_counts
    m["sphere_model.chunks"] = sum(1 for s, _ in by_name["sphere_model.rho_sample"]
                                   if name_of.get(s[4]) == "sphere_model.measurement_counts")
    m.update({
        "sphere_model.hidden_state_table_s": total("sphere_model.hidden_state_agreement_table"),
        "sphere_model.agreement_table_s": total("sphere_model.agreement_table"),
        "pricing.mc_price_s.w1": total("pricing.mc_price", lambda t: t["workers"] == 1),
        "pricing.mc_price_s.w2": total("pricing.mc_price", lambda t: t["workers"] == 2),
        "pricing.gbm_path_matrix_s": total("pricing.gbm_path_matrix"),
        "pricing.gbm_bytes_computed": sum(s[5]["bytes"] for s, _ in by_name["pricing.gbm_path_matrix"]),
        "pricing.binomial_price_s": total("pricing.binomial_price"),
        "pricing.lattice_node_updates_computed": sum(
            s[5]["steps"] * (s[5]["steps"] + 1) // 2 for s, _ in by_name["pricing.binomial_price"]),
    })
    solves = by_name["kolmogorov_check.joint_feasibility"]

    def random_dirs(op_tag):
        return op_tag.startswith("joint_feasibility.hidden_state_random.")

    for n in FEAS_SIZES:
        groups = {
            "feasible": [s for s, t in solves if not random_dirs(t) and s[5]["feasible"]],
            "infeasible": [s for s, t in solves if not random_dirs(t) and not s[5]["feasible"]],
            "random_dirs": [s for s, t in solves if random_dirs(t)],
        }
        for group, members in groups.items():
            times = [s[3] - s[2] for s in members if s[5]["n"] == n]
            m[f"kolmogorov_check.joint_feasibility_s.{group}.n{n}"] = (
                statistics.fmean(times) if times else 0.0)
    m.update({
        "kolmogorov_check.verdicts_feasible": sum(1 for s, _ in solves if s[5]["feasible"]),
        "kolmogorov_check.verdicts_infeasible": sum(1 for s, _ in solves if not s[5]["feasible"]),
        "kolmogorov_check.atom_columns": sum(
            s[5]["columns"] for s, _ in by_name["kolmogorov_check._phase1_simplex"]),
        "kolmogorov_check.sphere_bell_scan_s": total("kolmogorov_check.sphere_bell_scan"),
        "scop_core.transition_calls": count("scop_core.transition"),
        "scop_core.transition_s": total("scop_core.transition"),
        "scop_core.is_eigenstate_s": total("scop_core.is_eigenstate"),
    })
    for w in WORKLOADS:
        m[f"trace.overhead_frac.{w}"] = overhead[w]
    return m
