"""The names that the benchmark's tracer (``perfbench/spans.py``) rebinds or
calls must exist in the package, so that no deletion breaks ``--trace 1``.

The tracer file is read, not imported: nothing is written next to it."""

import hashlib
import importlib
import types
from pathlib import Path

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
    # _moves_with_inverses counts the engine's moves from these two
    targets += [
        ("handlebody_census.verification.moves", "generator_moves"),
        ("handlebody_census.verification.moves", "inverse_move"),
    ]
    for module, attr in targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    assert hashlib.sha256(SPANS_PATH.read_bytes()).hexdigest() == digest
