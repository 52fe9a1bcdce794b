"""Benchmark of the handlebody-census command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A pass runs each job list of the workload (``jobs.py``) once, each in a
fresh interpreter.  A run makes as many passes as fit in ``--seconds`` (at
least ``MIN_PASSES``) and checks every job's output.  Between passes it starts
``SETUP_SPAWNS_PER_PASS`` interpreters that only import the CLI and build
its parser, so set-up time has enough samples for a steady median.

With ``--trace 0`` it reports the end-to-end metrics, each the median over
the run's samples: ``setup_s``, ``wall_s`` and ``cpu_s`` of the pass's
jobs, the larger ``peak_rss_mb`` of its processes, and ``success_rate``
(1 - error_rate; error_rate itself is 0 on healthy workloads).  The three
times are given at the reference speed of ``gauge.py``, so that a drift in
the host's speed does not move them; the lines above the result give them
as measured too.  With ``--trace 1`` it runs untraced and traced passes in
the order U T T U U T T U ... and reports the per-layer metrics of
``spans.py`` (medians over traced passes) plus ``trace.overhead_s``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every run is also appended, with every per-pass
value and the machine's noise record, to ``.perfbench/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs as workloads
import spans
from gauge import to_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
RUNS_LOG = ROOT / ".perfbench" / "runs.jsonl"

MIN_PASSES = 3
SETUP_SPAWNS_PER_PASS = 3
WORKER_TIMEOUT_S = 150


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics that BENCHMARK.json declares."""
    spec = json.loads(SPEC_PATH.read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


class WorkerFailed(RuntimeError):
    pass


def spawn(job_list: str, seed: int, *, trace=False, setup_only=False) -> dict:
    """Run worker.py on one job list in a fresh interpreter and return its JSON report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--job-list", job_list, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [*cmd, "--spawned", repr(spawned)],
            cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    """One pass: each job list of the workload once, each in a fresh interpreter.

    Times and job outcomes add up over the job lists, peak RSS is the
    largest of the processes', and traced totals add up before they become
    the per-layer metrics.
    """
    names = workloads.WORKLOADS[workload]
    parts = [spawn(name, seed, trace=traced) for name in names]
    report = {
        "traced": traced,
        "wall_s": sum(part["wall_s"] for part in parts),
        "cpu_s": sum(part["cpu_s"] for part in parts),
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
        "setups": [part["setup_s"] for part in parts],
        "gauge": [sample for part in parts for sample in part["gauge"]],
        "jobs": [job for part in parts for job in part["jobs"]],
        "python": parts[0]["python"],
        "numpy": parts[0]["numpy"],
        "parts": [
            {key: part[key] for key in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "rlimit_as_mb")} | {"job_list": name}
            for name, part in zip(names, parts)
        ],
    }
    if traced:
        totals = parts[0]["per_layer_totals"]
        report["per_layer"] = spans.metrics({key: sum(part["per_layer_totals"][key] for part in parts) for key in totals})
        report["spans"] = [part["spans"] for part in parts]
    return report


def high_percentile(values: list[float]):
    """The highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) / n, sorted(values)[n - 11]


def describe(name: str, values: list[float], unit: str) -> str:
    line = f"  {name:<14} median {statistics.median(values):.4f} {unit}"
    high = high_percentile(values)
    if high is None:
        line += f"  (n={len(values)}; a high percentile needs at least 11 samples)"
    else:
        line += f"  p{high[0]:.0f} {high[1]:.4f} {unit}  (n={len(values)})"
    return line


def noise_record() -> dict:
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_start": os.getloadavg(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Passes and set-up samples of one run.

    A cycle is ``SETUP_SPAWNS_PER_PASS`` set-up samples and one pass.  Once
    a run has enough passes it starts another cycle only if that cycle, as
    long as the slowest one so far, would end within ``seconds``; so a run
    ends before ``seconds`` unless its first passes alone take longer.

    With ``trace`` the passes run in the order untraced, traced, traced,
    untraced, and so on, so a drift in the machine's speed during the run
    falls on both kinds alike; the run ends with as many of each, which
    takes two more cycles at a time.
    """
    start = time.monotonic()
    setups, passes, crashed, cycles = [], [], [], []
    while True:
        began = time.monotonic()
        for _ in range(SETUP_SPAWNS_PER_PASS):
            setups.append(spawn(workloads.WORKLOADS[workload][0], seed, setup_only=True)["setup_s"])
        traced = trace and (len(passes) + len(crashed)) % 4 in (1, 2)
        try:
            report = run_pass(workload, seed, traced)
        except WorkerFailed as exc:
            crashed.append(str(exc))
        else:
            setups += report["setups"]
            passes.append(report)
        cycles.append(time.monotonic() - began)
        counts = [sum(1 for p in passes if p["traced"] is kind) for kind in (False, True)]
        enough = min(counts) >= 2 and counts[0] == counts[1] if trace else counts[0] >= MIN_PASSES
        elapsed = time.monotonic() - start
        next_cycles = 2 if trace else 1
        if (enough or len(crashed) >= MIN_PASSES) and elapsed + next_cycles * max(cycles) > seconds:
            return {"setups": setups, "passes": passes, "crashed": crashed, "elapsed_s": elapsed}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "handlebody_census" / "cli.py").is_file():
        print(f"perfbench: no handlebody_census sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    end_to_end_units, per_layer_units = metric_units()
    job_list = [job for name in workloads.WORKLOADS[args.workload] for job in workloads.jobs_for(name, args.seed)]
    noise = noise_record()
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    noise["loadavg_end"] = os.getloadavg()
    passes = run["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not untraced or (args.trace and not traced):
        print(f"perfbench: every pass failed: {run['crashed'][-1]}", file=sys.stderr)
        return 1

    attempted = len(job_list) * (len(passes) + len(run["crashed"]))
    failed = len(job_list) * len(run["crashed"])
    correct = True
    problems: dict[str, set[str]] = {}
    for report in passes:
        for job in report["jobs"]:
            failed += bool(job["problems"])
            correct &= not job["wrong"] and not job["trace_problems"]
            problems.setdefault(job["argv"], set()).update(job["problems"] + job["trace_problems"])
    for crash in run["crashed"]:
        problems.setdefault("(pass crashed)", set()).add(crash)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(untraced)} untraced + {len(traced)} traced  set-up samples {len(run['setups'])}")
    caps = "  ".join(f"{part['job_list']} {part['rlimit_as_mb'] or 'none'}" for part in passes[0]["parts"])
    print(f"  rlimit_as MiB: {caps}")
    print(f"  python {passes[0]['python']}  "
          f"numpy {passes[0]['numpy']}  nproc {noise['nproc']}  "
          f"load {noise['loadavg_start'][0]:.2f}->{noise['loadavg_end'][0]:.2f}")
    for job in job_list:
        print(f"  job: {job.key}")
    # Each pass's times at the reference speed by the gauge of that pass;
    # set-up samples, which run between passes, by the gauge of the run.
    run_gauge = [g for p in passes for g in p["gauge"]]
    for p in passes:
        p["wall_ref_s"], p["cpu_ref_s"] = (to_reference(p[key], p["gauge"]) for key in ("wall_s", "cpu_s"))
    measured = {
        "setup_s": run["setups"],
        "wall_s": [p["wall_s"] for p in untraced],
        "cpu_s": [p["cpu_s"] for p in untraced],
    }
    samples = {
        "setup_s": [to_reference(s, run_gauge) for s in run["setups"]],
        "wall_s": [p["wall_ref_s"] for p in untraced],
        "cpu_s": [p["cpu_ref_s"] for p in untraced],
        "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
    }
    gauge_ms = 1000 * sum(a + b for a, b in run_gauge) / len(run_gauge)
    print(f"  gauge {gauge_ms:.3f} ms (mean of {len(run_gauge)}); times as measured:")
    for name, values in measured.items():
        print(describe(name, values, end_to_end_units[name]))
    print("  at the reference speed:")
    for name, values in samples.items():
        print(describe(name, values, end_to_end_units[name]))
    print(f"  error_rate     {failed / attempted:.4f}  ({failed} failed of {attempted} jobs attempted)")
    for argv, found in problems.items():
        for problem in sorted(found):
            print(f"  failed: {argv}: {problem}")

    if args.trace:
        units = per_layer_units
        metrics = {name: statistics.median(p["per_layer"][name] for p in traced) for name in traced[0]["per_layer"]}
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_ref_s"] for p in traced) - statistics.median(samples["wall_s"])
        )
    else:
        units = end_to_end_units
        metrics = {name: statistics.median(values) for name, values in samples.items()}
        metrics["success_rate"] = 1 - failed / attempted
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json", file=sys.stderr)
        return 1

    RUNS_LOG.parent.mkdir(exist_ok=True)
    with RUNS_LOG.open("a") as log:
        log.write(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "elapsed_s": run["elapsed_s"],
            "noise": noise, "jobs": [job.key for job in job_list], "setups": run["setups"],
            "setups_ref": samples["setup_s"],
            "passes": passes, "crashed": run["crashed"], "attempted": attempted, "failed": failed,
            "correct": correct, "metrics": metrics,
        }) + "\n")
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
