"""Summarise the runs logged in .perfbench/runs.jsonl.

    python3 perfbench/summarize.py [--last N] [--sets K] [--json]

For each workload and end-to-end metric, over the last N untraced runs:
the median of the runs' values, their quartiles and the spread (distance
between the quartiles over the median, as ``statistics.quantiles(n=4)``
gives them), next to the bound in BENCHMARK.json.  Pooling every pass of
those runs, it also gives the median and the highest percentile with at
least ten samples above it.  ``--json`` prints the same as one JSON object
together with the noise record of each run and the per-layer metrics of
the last traced run of each workload.

With ``--sets K`` it takes the last K*N runs of each workload as K
interleaved sets (run i belongs to set i mod K), summarises each set, and
gives for every metric how far each later set's median moved from the
first set's, as a share of the first, in the metric's worse direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import RUNS_LOG, SPEC_PATH, high_percentile


def pooled(run: dict, metric: str) -> list[float]:
    """Every sample of a metric in one run, times at the reference speed."""
    if metric == "setup_s":
        return run["setups_ref"]
    if metric == "success_rate":
        return []
    key = {"wall_s": "wall_ref_s", "cpu_s": "cpu_ref_s"}.get(metric, metric)
    return [p[key] for p in run["passes"] if not p["traced"]]


def summarize(runs: list[dict], end_to_end: dict) -> dict:
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        entry = {"runs": len(mine), "seeds": [r["seed"] for r in mine], "metrics": {}}
        for metric, spec in end_to_end.items():
            values = [r["metrics"][metric] for r in mine]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
            samples = [v for r in mine for v in pooled(r, metric)]
            high = high_percentile(samples) if samples else None
            entry["metrics"][metric] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "unit": spec["unit"],
                "bound": spec["bound"],
                "values": values,
                "pooled_samples": len(samples),
                "pooled_median": statistics.median(samples) if samples else None,
                "pooled_high_percentile": None if high is None else {"percentile": high[0], "value": high[1]},
            }
        entry["noise"] = [r["noise"] for r in mine]
        entry["failed_of_attempted"] = [[r["failed"], r["attempted"]] for r in mine]
        entry["correct"] = all(r["correct"] for r in mine)
        out[workload] = entry
    return out


def median_shifts(sets: list[dict], end_to_end: dict) -> dict:
    """Per workload and metric: each later set's median against the first set's."""
    out = {}
    for workload, first in sets[0].items():
        out[workload] = {}
        for metric, spec in end_to_end.items():
            base = first["metrics"][metric]["median"]
            sign = 1 if spec["better"] == "lower" else -1
            worse = [sign * (later[workload]["metrics"][metric]["median"] - base) / base for later in sets[1:]]
            out[workload][metric] = {"worse_by": worse, "bound": spec["bound"],
                                     "within_bound": all(w <= spec["bound"] for w in worse)}
    return out


def print_summary(summary: dict) -> None:
    for workload, entry in summary.items():
        print(f"{workload}: {entry['runs']} runs, seeds {entry['seeds']}, correct {entry['correct']}, "
              f"failed/attempted {entry['failed_of_attempted']}")
        for metric, m in entry["metrics"].items():
            high = m["pooled_high_percentile"]
            tail = "" if high is None else f"  pooled p{high['percentile']:.0f} {high['value']:.4f} (n={m['pooled_samples']})"
            flag = "" if m["spread"] <= m["bound"] / 3 else "  <-- spread over bound/3"
            print(f"  {metric:<13} median {m['median']:.4f} {m['unit']:<5} q1 {m['q1']:.4f} q3 {m['q3']:.4f} "
                  f"spread {m['spread']:.4f} bound {m['bound']}{tail}{flag}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--last", type=int, default=10, help="runs per workload and set (default 10)")
    parser.add_argument("--sets", type=int, default=1, help="interleaved sets of runs to compare (default 1)")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()

    end_to_end = {m["name"]: m for m in json.loads(SPEC_PATH.read_text())["end_to_end"]}
    runs = [json.loads(line) for line in RUNS_LOG.read_text().splitlines() if line.strip()]
    by_workload: dict[str, list] = {}
    for run in runs:
        if not run["trace"]:
            by_workload.setdefault(run["workload"], []).append(run)
    chosen = {w: rs[-args.last * args.sets:] for w, rs in by_workload.items()}
    sets = [
        summarize([r for rs in chosen.values() for r in rs[k::args.sets]], end_to_end)
        for k in range(args.sets)
    ]
    if args.json:
        traced = {}
        for run in runs:
            if run["trace"]:
                traced[run["workload"]] = {"seed": run["seed"], **run["metrics"]}
        if args.sets == 1:
            summary = sets[0]
            for workload, entry in summary.items():
                if workload in traced:
                    entry["per_layer_last_traced_run"] = traced[workload]
        else:
            summary = {"sets": sets, "median_shifts": median_shifts(sets, end_to_end),
                       "per_layer_last_traced_run": traced}
        print(json.dumps(summary, indent=1))
        return 0
    for k, summary in enumerate(sets):
        if args.sets > 1:
            print(f"== set {k + 1} of {args.sets}")
        print_summary(summary)
    if args.sets > 1:
        print("== median of each later set against the first, worse direction")
        for workload, shifts in median_shifts(sets, end_to_end).items():
            cells = "  ".join(f"{metric} {max(s['worse_by']):+.4f}{'' if s['within_bound'] else ' OVER'}"
                              for metric, s in shifts.items())
            print(f"  {workload}: {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
