"""Workloads of the benchmark: seeded job lists and the output gate.

A workload is a list of slots.  Each slot holds a small pool of CLI jobs of
near-equal cost; a seed picks one job per slot, so every seed runs the same
amount of work on different inputs.  Slots with a one-job pool (the p=5,
g=26 reference census and verify, the p=5 workers pair) are in every seed.

Every job's expected exit code and stdout are fixed.  For jobs that exit 0
``record.py`` records a stdout digest.  Refusals are held to the documented
exit-2 answer of their command: ``canonical`` and ``orbits`` print nothing
on stdout and a one-line reason on stderr; ``verify`` prints its report on
stdout, marked ``incomplete`` with every shape ``complete: false``.  The
paper's own numbers are asserted directly on top of the digests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Address-space cap (MiB) set by the worker process of a job list on itself.
#: The large-prime refusals allocate until something stops them; the cap
#: turns a missing budget check into a bounded MemoryError instead of an
#: out-of-memory kill of the machine.
RLIMIT_AS_MB = {"normal-forms-and-refusals": 512}

EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()


@dataclasses.dataclass(frozen=True)
class Job:
    """One ``handlebody_census.cli.main(argv)`` call and what it must produce."""

    argv: tuple[str, ...]
    expect_exit: int = 0
    check: str | None = None  # name of a paper-number check in CHECKS

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def refusal(self) -> bool:
        return self.expect_exit == 2


def _census(p, g, *fmt):
    return ("census", "--p", str(p), "--genus", str(g), *fmt)


def _orbits(p, shape, workers):
    return ("orbits", "--p", str(p), "--tuple", shape, "--workers", str(workers), "--format", "json")


JOB_LISTS: dict[str, list[list[Job]]] = {
    # Shape enumeration, count_A and row rendering do all the work; no oracle runs.
    "census-large-genus": [
        [Job(_census(3, g, "--format", "json")) for g in (492, 500)],  # 87,437 shapes each
        [Job(_census(5, g, "--format", "csv", "--no-header")) for g in (1995, 2000, 2005)],
        [Job(_census(5, 26, "--format", "json"), check="census-5-26")],
    ],
    # The paper's worked example: all three routes per shape, BFS dominates.
    "verify-reference-genus": [
        [Job(("verify", "--p", "5", "--genus", "26", "--format", "json"), check="verify-5-26")],
        [
            Job(("verify", "--p", "3", "--genus", "10", *fmt))
            for fmt in (("--format", "json"), ("--format", "csv"), ("--format", "table", "--no-header"))
        ],
    ],
    # The vectorised union-find engine alone: large spaces, threads, memory.
    # Only the p=5 pair runs a second thread: wall time of --workers 2 jobs
    # swings with the second CPU's availability on a shared machine.
    "orbits-union-find": [
        [Job(_orbits(5, "0,0,0,3,0", 1), check="orbits-5-workers")],
        [Job(_orbits(5, "0,0,0,3,0", 2), check="orbits-5-workers")],
        [Job(_orbits(7, shape, 1)) for shape in ("0,1,0,1,0", "2,0,1,0,1", "0,0,0,2,1")],
        [Job(_orbits(7, shape, 1)) for shape in ("0,1,1,0,1", "1,0,1,1,0", "1,0,2,0,1")],
        [Job(_orbits(3, shape, 1)) for shape in ("1,2,1,0,0", "2,1,2,0,0")],  # 157,464 states
    ],
    # Normal-form listing and format_state output, then the budget paths of
    # states and canonical: every refusal's documented answer is exit 2
    # (verify's with its report on stdout, hence JSON).
    "normal-forms-and-refusals": [
        [
            Job(("canonical", "--p", "13", "--tuple", shape, "--list", "--no-header"))
            for shape in ("0,2,1,0,0", "0,1,2,0,0")  # 240,318 states each
        ],
        [Job(("canonical", "--p", "13", "--tuple", "1,0,0,3,2", "--max-states", "200000"), expect_exit=2)],
        [Job(("orbits", "--p", str(p), "--tuple", "1,0,0,0,0"), expect_exit=2) for p in (100003, 100019, 100043)],
        [
            Job(
                ("verify", "--p", str(p), "--tuple", "0,1,0,0,0", "--format", "json"),
                expect_exit=2,
                check="verify-incomplete",
            )
            for p in (10007, 10009, 10037)
        ],
    ],
}

#: A workload runs two job lists, each in its own fresh interpreter, so
#: that there are few workloads and each run can be long enough to be
#: steady on a shared host.  The first workload runs the closed forms, the
#: normal-form listing and the budget paths; its only ``orbits`` and
#: ``verify`` jobs are refusals.  The second runs the orbit layer both ways
#: (BFS under ``verify``, union-find under ``orbits``), no census at large
#: genus and no refusal.
WORKLOADS: dict[str, tuple[str, ...]] = {
    "census-and-normal-forms": ("census-large-genus", "normal-forms-and-refusals"),
    "verify-and-orbits": ("verify-reference-genus", "orbits-union-find"),
}


def jobs_for(job_list: str, seed: int) -> list[Job]:
    """A job list for one seed: one pool entry per slot."""
    rng = random.Random(seed)
    return [rng.choice(pool) for pool in JOB_LISTS[job_list]]


def all_jobs() -> list[Job]:
    return [job for slots in JOB_LISTS.values() for pool in slots for job in pool]


# ---------------------------------------------------------------------------
# paper-number checks on parsed stdout; each returns a list of problems


def _check_census_5_26(obj) -> list[str]:
    errors = []
    if (obj.get("total"), obj.get("reference_total")) != ("283", "248"):
        errors.append(f"census (5,26) total/reference {obj.get('total')}/{obj.get('reference_total')}, want 283/248")
    flags = sorted((f["paper_value"], f["computed_value"]) for f in obj.get("flags", []))
    if flags != [("18", "28"), ("55", "80")]:
        errors.append(f"census (5,26) flags {flags}, want 55->80 and 18->28")
    return errors


_VERIFY_5_26 = {
    (0, 0, 0, 2, 0): ("80", "80", "52"),
    (1, 0, 0, 1, 0): ("28", "28", "12"),
    (2, 0, 0, 0, 0): ("10", "10", "1"),
}


def _check_verify_5_26(obj) -> list[str]:
    rows = {tuple(row["tuple"]): row for row in obj.get("rows", [])}
    errors = []
    for shape, want in _VERIFY_5_26.items():
        row = rows.get(shape, {})
        got = (row.get("theorem_count"), row.get("canonical_count"), row.get("orbit_count"))
        if got != want:
            errors.append(f"verify (5,26) shape {shape}: theorem/canonical/orbit {got}, want {want}")
    return errors


def _check_orbits_5(obj) -> list[str]:
    got = (obj.get("orbits"), obj.get("valid_states"))
    return [] if got == ("216", 992000) else [f"orbits p=5 (0,0,0,3,0) gave {got}, want ('216', 992000)"]


def _check_verify_incomplete(obj) -> list[str]:
    rows = obj.get("rows") or []
    if obj.get("incomplete") is not True or not rows or any(row.get("complete") is not False for row in rows):
        return [f"verify refusal: want incomplete true and every row complete false, got {json.dumps(obj):.200}"]
    return []


CHECKS = {
    "census-5-26": _check_census_5_26,
    "verify-5-26": _check_verify_5_26,
    "orbits-5-workers": _check_orbits_5,
    "verify-incomplete": _check_verify_incomplete,
}


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def gate(job: Job, expected: dict, exit_code, exception, stdout: str, stderr: str) -> tuple[list[str], bool]:
    """Problems with one job's outcome, and whether its stdout is a wrong answer.

    A job fails on any problem.  An uncaught exception or a wrong exit code
    is a failure without an answer; a stdout that differs from the record,
    or a check on the printed output that does not hold, is a wrong answer.
    A refusal with a check (``verify``) is judged by that check alone; any
    other refusal must print nothing and give a one-line reason on stderr.
    """
    problems: list[str] = []
    wrong = False
    if exception is not None:
        problems.append(f"uncaught {exception}")
    elif exit_code != job.expect_exit:
        problems.append(f"exit {exit_code}, want {job.expect_exit}")
    if job.refusal:
        want_sha = None if job.check is not None else EMPTY_SHA256
        if job.check is None and exception is None and len(stderr.strip().splitlines()) != 1:
            problems.append(f"refusal reason is not one line: {stderr!r:.200}")
    else:
        want_sha = expected.get(job.key, {}).get("sha256")
        if want_sha is None:
            problems.append("no recorded output for this job")
    if want_sha is not None and hashlib.sha256(stdout.encode()).hexdigest() != want_sha:
        problems.append("stdout differs from the recorded output")
        wrong = True
    if job.check is not None and exception is None and exit_code == job.expect_exit:
        try:
            check_errors = CHECKS[job.check](json.loads(stdout))
        except (ValueError, KeyError, TypeError) as exc:
            check_errors = [f"{job.check}: unreadable output ({exc})"]
        if check_errors:
            problems += check_errors
            wrong = True
    return problems, wrong
