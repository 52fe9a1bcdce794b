"""Run the benchmark on two checkouts in alternating pairs and write a BENCH file.

    python3 tools/bench_pairs.py --base DIR --head DIR --out BENCH_N.json

Each checkout runs its own ``perfbench/run.py --trace 0``, so the tool
first checks that both hold the same benchmark, ``perfbench/`` and
``BENCHMARK.json`` byte for byte, and refuses to run when they differ.  It
then byte-compiles both source trees.  For each workload of
``BENCHMARK.json``, in its order, pair i (i = 1 to 10) runs seed i on both
sides for 15 s, the base first in odd pairs and the head first in even
ones.  The file names what it compared: each side's root path and the
commit checked out there (``git rev-parse HEAD``, null outside git;
uncommitted changes do not show in it).  Per workload and end-to-end
metric of ``BENCHMARK.json`` it holds every run's value, each side's
median and quartiles, and how many pairs the head won.  ``head_worse_by``
is how far the head's median is from the base's, as a share of the base's,
in the metric's worse direction, and ``within_bound`` says whether that
stays within the metric's ``bound``, as ``perfbench/summarize.py`` compares
sets of runs.  A gain holds when the head wins at least nine pairs in ten
and the medians differ by more than the base's interquartile range.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

PAIRS = 10
SECONDS = 15
#: The lines of a failed run's stderr, or of a wrong run's ``failed:``
#: lines, that the tool prints.
STDERR_LINES = 20


def benchmark_files(root: Path) -> dict[str, bytes]:
    """The files that make up the benchmark of the checkout at ``root``,
    by path relative to it, bytecode caches left out."""
    files = [root / "BENCHMARK.json", *(root / "perfbench").rglob("*")]
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in files
        if path.is_file() and "__pycache__" not in path.parts
    }


def workloads(root: Path) -> list[str]:
    """The names of the workloads of the benchmark at ``root``, in its order."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return [workload["name"] for workload in spec["workloads"]]


def end_to_end(root: Path) -> dict[str, dict]:
    """The end-to-end metrics of the benchmark at ``root``, by name, each
    with its ``better`` direction and ``bound``."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def checkout(root: Path) -> dict:
    """The root path of a checkout and its ``git rev-parse HEAD``, ``None``
    when that fails (no git, or not a git checkout)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=root)
    except OSError:
        proc = None
    commit = proc.stdout.strip() if proc is not None and proc.returncode == 0 else None
    return {"root": str(root), "commit": commit}


def run_once(root: Path, workload: str, seed: int) -> dict:
    """The metrics of one benchmark run of the checkout at ``root``, read
    from the last line it prints.  A run that fails or prints nothing ends
    the tool with the exit code and the last lines of its stderr; one that
    reads ``"correct": false`` with the ``failed:`` lines it printed."""
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=root)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        what = f"exited {proc.returncode}" + ("" if lines else " and printed nothing")
        stderr = "\n".join(proc.stderr.strip().splitlines()[-STDERR_LINES:]) or "(no stderr)"
        raise SystemExit(f"{root}: {workload} seed {seed} {what}; the end of its stderr:\n{stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        failed = [line for line in map(str.strip, lines) if line.startswith("failed: ")][:STDERR_LINES]
        raise SystemExit("\n".join([f"{root}: {workload} seed {seed} printed a wrong answer", *failed]))
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summary(base: list[dict], head: list[dict], metrics: dict[str, dict]) -> dict:
    """Per metric of ``metrics`` (as :func:`end_to_end` gives them), the
    paired runs of both sides compared."""
    out = {}
    for name, spec in metrics.items():
        lower = spec["better"] == "lower"
        b, h = [run[name] for run in base], [run[name] for run in head]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
        sides = {"base": quartiles(b), "head": quartiles(h)}
        base_median, head_median = sides["base"]["median"], sides["head"]["median"]
        worse = (head_median - base_median) if lower else (base_median - head_median)
        worse_by = worse / base_median
        out[name] = {
            "base_runs": b,
            "head_runs": h,
            **sides,
            "head_wins": wins,
            "pairs": len(b),
            "gain_holds": wins * 10 >= 9 * len(b) and -worse > sides["base"]["iqr"],
            "head_worse_by": worse_by,
            "bound": spec["bound"],
            "within_bound": worse_by <= spec["bound"],
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--head", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    base_root, head_root = args.base.resolve(), args.head.resolve()
    if benchmark_files(base_root) != benchmark_files(head_root):
        raise SystemExit("the two checkouts hold different benchmarks (perfbench/ or BENCHMARK.json)")
    for root in (base_root, head_root):
        if not compileall.compile_dir(root / "src", quiet=1):
            raise SystemExit(f"{root / 'src'} does not byte-compile")
    metrics = end_to_end(head_root)
    record = {
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "base": checkout(base_root),
        "head": checkout(head_root),
        "host": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
        "seconds_per_run": SECONDS,
        "seeds": list(range(1, PAIRS + 1)),
        "order": "base first in odd pairs, head first in even pairs",
        "workloads": {},
    }
    for workload in workloads(head_root):
        base, head = [], []
        for seed in record["seeds"]:
            sides = [(base_root, base), (head_root, head)]
            for root, runs in sides if seed % 2 else sides[::-1]:
                runs.append(run_once(root, workload, seed))
            print(f"{workload} seed {seed}: wall_s base {base[-1]['wall_s']:.4f} head {head[-1]['wall_s']:.4f}",
                  file=sys.stderr)
        record["workloads"][workload] = summary(base, head, metrics)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
