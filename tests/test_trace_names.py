"""The names that the benchmark's tracer (``perfbench/spans.py``) rebinds or
calls must exist in the package, and its cross-check of a job's spans
against the job's output must pass, so that no change breaks ``--trace 1``.

The tracer file is read, not imported: nothing is written next to it."""

import hashlib
import importlib
import types
from pathlib import Path

import pytest

from handlebody_census.cli import main

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    source = SPANS_PATH.read_bytes()
    module = types.ModuleType("perfbench_spans")
    exec(compile(source, str(SPANS_PATH), "exec"), module.__dict__)
    return module, hashlib.sha256(source).hexdigest()


def test_every_traced_name_resolves():
    spans, digest = _load_spans()
    tables = [spans.SPANS, spans.LEAVES, spans.GENERATORS, spans.COUNTERS]
    assert all(tables)
    targets = [target for table in tables for target in table.values()]
    # _moves_with_inverses counts the generators and their inverses from
    # these two, though the engine applies the generators only
    targets += [
        ("handlebody_census.verification.moves", "generator_moves"),
        ("handlebody_census.verification.moves", "inverse_move"),
    ]
    for module, attr in targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    assert hashlib.sha256(SPANS_PATH.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ["canonical", "--p", "5", "--tuple", "0,0,0,2,0", "--list", "--no-header"],
        ["verify", "--p", "3", "--genus", "10", "--format", "json"],
    ],
)
def test_traced_jobs_pass_the_span_cross_check(capsys, argv):
    # importing cli has loaded every module the tracer rebinds names in
    spans, _ = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.job(0, argv):
            code = main(argv)
    finally:
        tracer.uninstall()
    out = capsys.readouterr().out
    assert code == 0
    assert [s["name"] for s in tracer.spans if s["name"].endswith("enumerate_canonical")]
    assert spans.check_job(tracer, 0, argv, out) == []
