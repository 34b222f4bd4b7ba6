"""Run the benchmark over several seeds, twice, and summarise every metric.

Usage (from the root of a checkout):

    python3 perfbench/repeat.py --out summary.json

Each set runs every workload of BENCHMARK.json once per seed 1..10 for its
``run_seconds``.  For each workload and end-to-end metric a set records the
values, their median, first and third quartiles (``statistics.quantiles(n=4)``)
and the spread (q3 - q1) / median; ``unscaled`` does the same for the times
before the speed probe scaled them.  ``agreement`` gives, per metric, how
much worse the second set's median is than the first's, as a share of the
first, beside the metric's bound.  One traced run at seed TRACE_SEED adds the
per-layer metrics, and the layer -> end-to-end map of perfbench/layers.py is
copied in.  perfbench/baseline.json was written this way.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEEDS = list(range(1, 11))
SETS = 2
TRACE_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return details, result


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def run_set(workloads: list[str], seeds: list[int], seconds: int, summary: dict) -> dict:
    out = {}
    for workload in workloads:
        values, raw, attempted, failed = {}, {}, 0, 0
        for seed in seeds:
            details, result = run_once(workload, seed, seconds, 0)
            summary["environment"] = details["environment"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
            for name, value in details["unscaled"].items():
                raw.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"rounds={details['rounds']}", file=sys.stderr, flush=True)
        out[workload] = {
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"unit": v["unit"], **summarise(v["values"])} for k, v in values.items()},
            "unscaled": {k: summarise(v) for k, v in raw.items()},
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    summary = {"seeds": SEEDS, "seconds": seconds}
    summary["sets"] = [run_set(workloads, SEEDS, seconds, summary) for _ in range(SETS)]
    first, second = summary["sets"][0], summary["sets"][-1]
    summary["agreement"] = {}
    for workload in workloads:
        rows = summary["agreement"][workload] = {}
        for name, m in metrics.items():
            a, b = first[workload]["metrics"][name]["median"], second[workload]["metrics"][name]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            rows[name] = {"worse_by": worse, "bound": m["bound"], "ok": worse <= m["bound"]}

    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import layers

    summary["layer_map"] = {name: list(moves) for name, _, _, moves in layers.CATALOGUE}
    _, result = run_once(workloads[0], TRACE_SEED, seconds, 1)
    summary["per_layer"] = {"seed": TRACE_SEED, "attempted": result["attempted"],
                            "failed": result["failed"],
                            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload in workloads:
        for name in metrics:
            spreads = " ".join(f"{s[workload]['metrics'][name]['spread']:.4f}" for s in summary["sets"])
            agree = summary["agreement"][workload][name]
            print(f"{workload:12s} {name:12s} median {first[workload]['metrics'][name]['median']:.6g} "
                  f"spreads {spreads} worse_by {agree['worse_by']:+.4f} (bound {agree['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
