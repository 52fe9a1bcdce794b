"""Fuzzed command lines: every run ends in exit 0, 1 or 2, never a traceback.

The orbit and verify runs stay small (p <= 7, shape entries <= 2, budgets
<= 3000), so each is decided or refused in milliseconds."""

import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from handlebody_census.cli import main

PRIMES = st.sampled_from(["-3", "0", "1", "2", "3", "4", "5", "7", "9", "11", "13", "x"])
ODD_PRIMES = ("3", "5", "7", "11", "13")
GENERA = st.integers(-2, 150).map(str) | st.just("1.5")
BUDGETS = st.integers(-5, 3000).map(str)
SHAPES = st.tuples(*[st.integers(0, 3)] * 5).map(lambda v: ",".join(map(str, v))) | st.sampled_from(
    ["1,2,3", "a,b,c,d,e", "0,0,0,0,2", "", "-1,0,0,1,0", "0,0,1,0,0"]
)
# Odd primes and worker counts only, so that most runs get past the parser to
# their exit 0 and 2 answers; bad primes are fuzzed above, bad worker counts in
# test_cli.py.
SMALL_PRIMES = st.sampled_from(["3", "5", "7"])
# Shapes with at most two generators, so most fit a budget of a few thousand states.
SMALL_SHAPES = st.lists(st.integers(0, 4), max_size=2).map(
    lambda picks: ",".join(str(picks.count(i)) for i in range(5))
)
TARGETS = st.tuples(st.just("--tuple"), SMALL_SHAPES) | st.tuples(
    st.just("--genus"), st.integers(-1, 30).map(str)
)
WORKERS = st.sampled_from(["1", "2"])
SMALL_BUDGETS = st.just("3000") | BUDGETS  # the cap itself half the time
SMALL_INTS = st.integers(-2, 60).map(str)
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
    return code, out.getvalue(), err.getvalue()


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
    code, out, _ = run(argv + _options(**{"--no-header": no_header, "--per-tuple": per_tuple}))
    assert code != 2  # the census has no budget to exceed
    if code == 0 and fmt == "json":
        obj = json.loads(out)
        assert int(obj["total"]) == sum(int(row["count"]) for row in obj["rows"])


@SETTINGS
@given(PRIMES, SHAPES, BUDGETS, FORMATS, st.booleans(), st.booleans())
@example("3", "-1,0,0,1,0", "10", "table", False, False)
def test_canonical_exit_codes(p, shape, budget, fmt, listed, no_header):
    argv = ["canonical", "--p", p, "--tuple", shape, "--max-states", budget, "--format", fmt]
    code, out, err = run(argv + _options(**{"--list": listed, "--no-header": no_header}))
    if shape == "-1,0,0,1,0" and p in ODD_PRIMES and int(budget) >= 0:
        # read as the --tuple value, not as an option, and refused by the tuple parser
        assert code == 1
        assert "shape components must be nonnegative integers, got (-1, 0, 0, 1, 0)" in err
    if code == 2:
        assert out == ""
    elif code == 0 and fmt == "json":
        obj = json.loads(out)
        assert int(obj["count"]) <= int(budget)
        if listed:
            assert len(obj["states"]) == int(obj["count"])


@SETTINGS
@given(SMALL_INTS | st.just("x"), SMALL_INTS, FORMATS, st.booleans())
def test_akj_exit_codes(k, j, fmt, no_header):
    argv = ["akj", "--k", k, "--j", j, "--format", fmt]
    code, out, _ = run(argv + _options(**{"--no-header": no_header}))
    assert code != 2  # akj has no budget to exceed
    if code == 0 and fmt == "json":
        assert json.loads(out)["k"] == int(k)


@SETTINGS
@given(SMALL_PRIMES, SMALL_SHAPES, SMALL_BUDGETS, WORKERS, FORMATS, st.booleans())
def test_orbits_exit_codes(p, shape, budget, workers, fmt, no_header):
    argv = ["orbits", "--p", p, "--tuple", shape, "--max-states", budget, "--workers", workers]
    code, out, _ = run(argv + ["--format", fmt] + _options(**{"--no-header": no_header}))
    if code == 2:
        assert out == ""
    elif code == 0 and fmt == "json":
        obj = json.loads(out)
        assert obj["state_space_size"] <= int(budget)
        assert obj["largest_orbit"] <= obj["valid_states"] <= obj["state_space_size"]


@SETTINGS
@given(SMALL_PRIMES, TARGETS, SMALL_BUDGETS, WORKERS, st.booleans())
def test_verify_json_is_incomplete_exactly_on_exit_two(p, target, budget, workers, no_header):
    argv = ["verify", "--p", p, *target, "--max-states", budget, "--workers", workers]
    code, out, _ = run(argv + ["--format", "json"] + _options(**{"--no-header": no_header}))
    if code in (0, 2):
        obj = json.loads(out)
        assert obj["incomplete"] is (code == 2)
        assert obj["incomplete"] is any(not row["complete"] for row in obj["rows"])
    else:
        assert out == ""


@SETTINGS
@given(SMALL_PRIMES, TARGETS, SMALL_BUDGETS, st.sampled_from(["table", "csv"]), st.booleans())
def test_verify_exit_codes(p, target, budget, fmt, no_header):
    argv = ["verify", "--p", p, *target, "--max-states", budget, "--format", fmt]
    run(argv + _options(**{"--no-header": no_header}))
