"""Fuzzed command lines: every run ends in exit 0, 1 or 2, never a traceback."""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from handlebody_census.cli import main

PRIMES = st.sampled_from(["-3", "0", "1", "2", "3", "4", "5", "7", "9", "11", "13", "x"])
GENERA = st.integers(-2, 150).map(str) | st.just("1.5")
BUDGETS = st.integers(-5, 3000).map(str)
SHAPES = st.tuples(*[st.integers(0, 3)] * 5).map(lambda v: ",".join(map(str, v))) | st.sampled_from(
    ["1,2,3", "a,b,c,d,e", "0,0,0,0,2", "", "-1,0,0,1,0", "0,0,1,0,0"]
)
FORMATS = st.sampled_from(["table", "json", "csv"])
SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    return code, out.getvalue()


def _options(**flags):
    return [name for name, on in flags.items() if on]


@SETTINGS
@given(PRIMES, GENERA, FORMATS, st.booleans())
def test_tuples_exit_codes(p, g, fmt, no_header):
    run(["tuples", "--p", p, "--genus", g, "--format", fmt] + _options(**{"--no-header": no_header}))


@SETTINGS
@given(PRIMES, GENERA, FORMATS, st.booleans(), st.booleans())
def test_census_exit_codes_and_json_total(p, g, fmt, no_header, per_tuple):
    argv = ["census", "--p", p, "--genus", g, "--format", fmt]
    code, out = run(argv + _options(**{"--no-header": no_header, "--per-tuple": per_tuple}))
    assert code != 2  # the census has no budget to exceed
    if code == 0 and fmt == "json":
        obj = json.loads(out)
        assert int(obj["total"]) == sum(int(row["count"]) for row in obj["rows"])


@SETTINGS
@given(PRIMES, SHAPES, BUDGETS, FORMATS, st.booleans(), st.booleans())
def test_canonical_exit_codes(p, shape, budget, fmt, listed, no_header):
    argv = ["canonical", "--p", p, "--tuple", shape, "--max-states", budget, "--format", fmt]
    code, out = run(argv + _options(**{"--list": listed, "--no-header": no_header}))
    if code == 2:
        assert out == ""
    elif code == 0 and fmt == "json":
        obj = json.loads(out)
        assert int(obj["count"]) <= int(budget)
        if listed:
            assert len(obj["states"]) == int(obj["count"])
