"""One measured part of a pass: a fresh interpreter runs one job list once.

Started by ``run.py``, which passes the monotonic clock reading taken just
before it spawned this process.  Set-up time runs from there until
``handlebody_census.cli`` is imported and its parser is built: what a
command-line user pays on every call, cold ``count_A`` cache included.
Each job is ``cli.main(argv)`` with stdout and stderr captured, run one
after another in this process (a closed loop with one client).  Wall and
CPU time cover the ``main`` calls only; the output gate runs outside them.

Prints one JSON object on stdout: set-up, wall, CPU, peak RSS, the host
gauge's samples, each job's outcome and, with ``--trace``, the per-layer
totals and the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import jobs as workloads
from gauge import Gauge
from spans import Tracer, check_job


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_job(main, job, tracer=None, index=0):
    """Run one job; return (exit code, exception name, stdout, stderr, wall, cpu)."""
    out, err = io.StringIO(), io.StringIO()
    exit_code = exception = None
    span = tracer.job(index, job.argv) if tracer is not None else contextlib.nullcontext()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            exit_code = main(list(job.argv))
    except SystemExit as exc:  # argparse exits on a usage error
        exit_code = exc.code
    except Exception as exc:  # MemoryError included: the job failed, the pass goes on
        exception = type(exc).__name__
        err.write(traceback.format_exc(limit=-3))
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    return exit_code, exception, out.getvalue(), err.getvalue(), wall, cpu


def run_pass(cli_main, job_list, tracer=None, gauge=None) -> dict:
    """Run a job list once, gate every output, and sum wall and CPU time.

    With a ``gauge``, the host's speed is sampled before the first job and
    after each job, outside the timed calls.
    """
    expected = workloads.load_expected()
    results, wall, cpu, stdout_bytes = [], 0.0, 0.0, 0
    workers_walls, workers_outputs = {}, set()
    if gauge is not None:
        gauge.sample()
    for index, job in enumerate(job_list):
        exit_code, exception, stdout, stderr, job_wall, job_cpu = run_job(cli_main, job, tracer, index)
        if gauge is not None:
            gauge.sample()
        wall += job_wall
        cpu += job_cpu
        data = stdout.encode()
        stdout_bytes += len(data)
        problems, wrong = workloads.gate(job, expected, exit_code, exception, stdout, stderr)
        trace_problems = check_job(tracer, index, job.argv, stdout) if tracer is not None else []
        if job.check == "orbits-5-workers":
            workers_walls["workers" + job.argv[job.argv.index("--workers") + 1]] = job_wall
            workers_outputs.add(data)
        results.append(
            {
                "argv": job.key,
                "exit": exit_code,
                "exception": exception,
                "wall_s": job_wall,
                "cpu_s": job_cpu,
                "stdout_sha256": hashlib.sha256(data).hexdigest(),
                "stdout_bytes": len(data),
                "problems": problems,
                "wrong": wrong,
                "trace_problems": trace_problems,
            }
        )
    if len(workers_outputs) > 1:
        for job, result in zip(job_list, results):
            if job.check == "orbits-5-workers":
                result["problems"].append("--workers 1 and --workers 2 outputs differ")
                result["wrong"] = True
    report = {"wall_s": wall, "cpu_s": cpu, "jobs": results}
    if tracer is not None:
        report["per_layer_totals"] = tracer.totals(workers_walls, stdout_bytes)
        report["spans"] = tracer.spans
    return report


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--job-list", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cap_mb = workloads.RLIMIT_AS_MB.get(args.job_list)
    if cap_mb is not None:
        resource.setrlimit(resource.RLIMIT_AS, (cap_mb << 20, cap_mb << 20))
    sys.path.insert(0, str(Path(args.root) / "src"))
    from handlebody_census import cli

    cli.build_parser()
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    import numpy

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    gauge = Gauge()
    try:
        report = run_pass(cli.main, workloads.jobs_for(args.job_list, args.seed), tracer, gauge)
    finally:
        if tracer is not None:
            tracer.uninstall()
    report.update(
        setup_s=setup_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        rlimit_as_mb=cap_mb,
        gauge=gauge.samples,
    )
    print(json.dumps(report))


if __name__ == "__main__":
    main()
