"""Self-checks of the benchmark: seeded job lists, the output gate, the tracer.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import jobs as workloads  # noqa: E402
from handlebody_census import cli  # noqa: E402
from handlebody_census.counting import count_A  # noqa: E402
from run import high_percentile  # noqa: E402
from spans import Tracer, check_job, metrics  # noqa: E402
from worker import run_job  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.JOB_LISTS))
def test_job_lists_are_seeded_and_keep_the_reference_jobs(name):
    slots = workloads.JOB_LISTS[name]
    reference = {job for pool in slots for job in pool if job.check in ("census-5-26", "verify-5-26")}
    lists = {seed: workloads.jobs_for(name, seed) for seed in range(40)}
    for seed, job_list in lists.items():
        assert job_list == workloads.jobs_for(name, seed)
        assert all(job in pool for job, pool in zip(job_list, slots)) and len(job_list) == len(slots)
        assert reference <= set(job_list)
    assert len({tuple(job_list) for job_list in lists.values()}) > 1


def test_every_pool_job_has_an_expected_output():
    expected = workloads.load_expected()
    for job in workloads.all_jobs():
        assert job.refusal or expected[job.key]["exit"] == 0, job.key


def test_gate_counts_a_memory_error_as_failed_and_a_changed_stdout_as_wrong():
    refusal = workloads.Job(("orbits", "--p", "100003", "--tuple", "1,0,0,0,0"), expect_exit=2)
    problems, wrong = workloads.gate(refusal, {}, None, "MemoryError", "", "Traceback ...\n")
    assert problems and not wrong
    assert workloads.gate(refusal, {}, 2, None, "", "orbit count incomplete: over budget\n") == ([], False)

    job = workloads.Job(("census", "--p", "5", "--genus", "26", "--format", "json"), check="census-5-26")
    expected = workloads.load_expected()
    problems, wrong = workloads.gate(job, expected, 0, None, '{"total": "248"}', "")
    assert wrong and len(problems) >= 2


def test_gate_holds_a_verify_refusal_to_its_report_on_stdout():
    refusal = next(job for pool in workloads.JOB_LISTS["normal-forms-and-refusals"] for job in pool
                   if job.argv[0] == "verify")
    assert refusal.refusal and refusal.check == "verify-incomplete"
    # a small budget gives the documented exit-2 answer that the large prime should give
    argv = ("verify", "--p", "5", "--tuple", "0,0,0,2,0", "--max-states", "10", "--format", "json")
    exit_code, exception, stdout, stderr, _, _ = run_job(cli.main, workloads.Job(argv, expect_exit=2))
    assert (exit_code, exception) == (2, None) and stdout
    assert workloads.gate(refusal, {}, exit_code, exception, stdout, stderr) == ([], False)

    complete = stdout.replace('"complete": false', '"complete": true')
    problems, wrong = workloads.gate(refusal, {}, 2, None, complete, "")
    assert problems and wrong
    problems, wrong = workloads.gate(refusal, {}, 2, None, "", "verify: over budget\n")
    assert problems and wrong


SMALL_JOBS = [
    workloads.Job(("census", "--p", "5", "--genus", "26", "--format", "json")),
    workloads.Job(("verify", "--p", "3", "--genus", "10", "--format", "json")),
    workloads.Job(("orbits", "--p", "3", "--tuple", "0,0,0,2,0", "--format", "json")),
    workloads.Job(("orbits", "--p", "3", "--tuple", "0,0,0,2,1", "--workers", "2", "--format", "json")),
    workloads.Job(("canonical", "--p", "3", "--tuple", "0,1,0,0,1", "--list", "--no-header")),
    workloads.Job(("canonical", "--p", "3", "--tuple", "0,3,0,0,0", "--max-states", "5"), expect_exit=2),
]


def test_traced_spans_match_job_output_and_self_times_are_not_negative():
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.compare is not tracer.originals["verification.orbits.compare"]
        outputs = [run_job(cli.main, job, tracer, i) for i, job in enumerate(SMALL_JOBS)]
    finally:
        tracer.uninstall()
    assert cli.compare is tracer.originals["verification.orbits.compare"]
    assert cli.count_A is count_A

    assert [out[0] for out in outputs] == [job.expect_exit for job in SMALL_JOBS]
    for index, (job, out) in enumerate(zip(SMALL_JOBS, outputs)):
        assert check_job(tracer, index, job.argv, out[2]) == []
    assert all(span["self_s"] >= 0 for span in tracer.spans)
    assert {span["job"] for span in tracer.spans} == set(range(len(SMALL_JOBS)))

    per_layer = metrics(tracer.totals({}, 0))
    assert per_layer["verification.orbits.orbit_partition_bfs_s"] > 0
    assert per_layer["verification.orbits.orbit_partition_uf_s"] > 0
    assert per_layer["verification.moves.apply_move_calls"] > 0
    assert per_layer["verification.canonical.refused"] == 1
    assert per_layer["tuples.shapes"] == 6 + 6  # p=5 g=26 census, p=3 g=10 verify
    assert per_layer["theorem_counts.count_for_tuple_calls"] == 6 + 6
    assert 0 < per_layer["counting.count_A_hit_ratio"] <= 1


def test_high_percentile_leaves_ten_samples_above():
    assert high_percentile(list(range(10))) is None
    assert high_percentile(list(range(11))) == (100 / 11, 0)
    percentile, value = high_percentile([float(x) for x in range(40)])
    assert percentile == 75 and value == 29
