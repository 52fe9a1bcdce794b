"""Record the exit code and stdout digest of every pool job into expected.json.

Run once, at a commit whose outputs are trusted, from the repository root:

    python3 perfbench/record.py

Refusal jobs are not recorded: their expected answer is the documented
exit-2 answer of their command, checked in ``jobs.py``.  A job that does not exit 0
is not recorded either, so the output gate reports it as failed.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import jobs as workloads  # noqa: E402
from handlebody_census import cli  # noqa: E402
from worker import run_job  # noqa: E402


def main() -> int:
    expected = {}
    for job in workloads.all_jobs():
        if job.refusal:
            continue
        exit_code, exception, stdout, stderr, wall, _ = run_job(cli.main, job)
        print(f"{wall:7.2f} s  exit {exit_code}  {job.key}", file=sys.stderr)
        if exception is not None or exit_code != 0:
            print(f"  not recorded: {exception or stderr.strip()}", file=sys.stderr)
            continue
        data = stdout.encode()
        expected[job.key] = {"exit": exit_code, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
