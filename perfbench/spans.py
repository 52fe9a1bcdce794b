"""Spans around calls into the package's public functions.

The tracer wraps a fixed list of public functions by rebinding the name in
every ``handlebody_census`` module namespace that holds it, so calls through
``cli``, ``orbits`` and ``theorem_counts`` are all seen.  Nothing inside the
package changes.

* Spans record one call each: name, start, end, self time, the span that
  caused it and the job it belongs to.
* Hot leaves (``count_A``, ``apply_move``, ``raw_state_count`` and each
  step of ``iter_valid_states``) are aggregated per name as a call count and
  total time; their time still counts as child time of the enclosing span.
* ``count_for_tuple`` is only counted, so its own work stays in the self
  time of ``census`` or ``compare`` that called it.

Spans stay in memory; the caller writes them out when the run ends.  A
span's self time is its duration minus its children's, where a child's
share also covers the tracer's bookkeeping for it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import resource
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "handlebody_census"

SPANS = {
    "theorem_counts.census": ("handlebody_census.theorem_counts", "census"),
    "tuples.admissible_tuples": ("handlebody_census.tuples", "admissible_tuples"),
    "verification.canonical.enumerate_canonical": ("handlebody_census.verification.canonical", "enumerate_canonical"),
    "verification.orbits.orbit_partition": ("handlebody_census.verification.orbits", "orbit_partition"),
    "verification.orbits.orbit_count": ("handlebody_census.verification.orbits", "orbit_count"),
    "verification.orbits.compare": ("handlebody_census.verification.orbits", "compare"),
}
LEAVES = {
    "counting.count_A": ("handlebody_census.counting", "count_A"),
    "verification.moves.apply_move": ("handlebody_census.verification.moves", "apply_move"),
    "verification.states.raw_state_count": ("handlebody_census.verification.states", "raw_state_count"),
}
GENERATORS = {
    "verification.states.iter_valid_states": ("handlebody_census.verification.states", "iter_valid_states"),
}
COUNTERS = {
    "theorem_counts.count_for_tuple": ("handlebody_census.theorem_counts", "count_for_tuple"),
}


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _Frame:
    __slots__ = ("id", "name", "parent", "start", "child", "peak_before")

    def __init__(self, id_, name, parent, start, peak_before):
        self.id, self.name, self.parent = id_, name, parent
        self.start, self.child, self.peak_before = start, 0.0, peak_before


class Tracer:
    """Collects spans, leaf aggregates and counters for one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.leaves: dict[str, list] = {name: [0, 0.0] for name in (*LEAVES, *GENERATORS)}
        self.counters: Counter = Counter()
        self.originals: dict[str, object] = {}
        self._stack = [_Frame(0, "<outside>", None, perf_counter(), 0)]
        self._next_id = 1
        self._job = None
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced name in every loaded package module."""
        wrappers = {}
        for table, make in (
            (SPANS, self._span_wrapper),
            (LEAVES, self._leaf_wrapper),
            (GENERATORS, self._generator_wrapper),
            (COUNTERS, self._counter_wrapper),
        ):
            for name, (module, attr) in table.items():
                original = getattr(sys.modules[module], attr)
                self.originals[name] = original
                wrappers[id(original)] = (original, make(name, original))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- frames ------------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        frame = _Frame(self._next_id, name, self._stack[-1].id, perf_counter(), _peak_rss_kb())
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, end: float, attrs: dict) -> None:
        self._stack.pop()
        duration = end - frame.start
        attrs["rss_rise_mb"] = (_peak_rss_kb() - frame.peak_before) / 1024
        self.spans.append(
            {
                "id": frame.id,
                "parent": frame.parent,
                "job": self._job,
                "name": frame.name,
                "start": frame.start,
                "end": end,
                "self_s": duration - frame.child,
                **attrs,
            }
        )
        self._stack[-1].child += perf_counter() - frame.start

    @contextlib.contextmanager
    def job(self, index: int, argv):
        """The root span ``cli.main`` of one job; spans inside carry its index."""
        self._job = index
        frame = self._enter("cli.main")
        attrs = {"argv": list(argv)}
        try:
            yield
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            self._exit(frame, perf_counter(), attrs)
            self._job = None

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        describe = _DESCRIBE.get(name, lambda result: {})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._exit(frame, perf_counter(), {"error": type(exc).__name__})
                raise
            end = perf_counter()
            self._exit(frame, end, describe(result))
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn):
        agg = self.leaves[name]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                agg[0] += 1
                agg[1] += dt
                stack[-1].child += dt

        return wrapper

    def _generator_wrapper(self, name, fn):
        agg = self.leaves[name]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = perf_counter() - t0
                    agg[1] += dt
                    stack[-1].child += dt
                agg[0] += 1
                yield item

        return wrapper

    def _counter_wrapper(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-layer metrics -------------------------------------------------

    def totals(self, job_walls: dict[str, float], stdout_bytes: int) -> dict[str, float]:
        """Additive totals of everything traced so far.

        Summed over the processes of a pass they give the pass's totals;
        ``metrics`` turns them into the per-layer metrics.  The keys that
        start with ``_`` are the parts of a ratio.
        """
        by_name: dict[str, list[dict]] = {}
        for span in self.spans:
            by_name.setdefault(span["name"], []).append(span)

        def spans(name, **match):
            return [s for s in by_name.get(name, []) if all(s.get(k) == v for k, v in match.items())]

        def total(items, key=None):
            if key is None:
                return sum(s["end"] - s["start"] for s in items)
            return sum(s[key] for s in items)

        canonical = spans("verification.canonical.enumerate_canonical")
        done = [s for s in canonical if "error" not in s]
        refused = [s for s in canonical if s.get("error") == "BudgetExceededError"]
        failed = [s for s in canonical if "error" in s and s["error"] != "BudgetExceededError"]
        bfs = spans("verification.orbits.orbit_partition", method="bfs")
        uf = spans("verification.orbits.orbit_partition", method="union-find")
        census = spans("theorem_counts.census")
        info = self.originals["counting.count_A"].cache_info()
        return {
            "cli.self_s": total(spans("cli.main"), "self_s"),
            "cli.stdout_bytes": stdout_bytes,
            "tuples.admissible_tuples_s": total(spans("tuples.admissible_tuples")),
            "tuples.shapes": total(spans("tuples.admissible_tuples"), "shapes"),
            "theorem_counts.census_self_s": total(census, "self_s"),
            "theorem_counts.census_rss_rise_mb": total(census, "rss_rise_mb"),
            "theorem_counts.count_for_tuple_calls": self.counters["theorem_counts.count_for_tuple"],
            "counting.count_A_calls": self.leaves["counting.count_A"][0],
            "counting.count_A_s": self.leaves["counting.count_A"][1],
            "_count_A_hits": info.hits,
            "_count_A_misses": info.misses,
            "verification.states.iter_valid_states_s": self.leaves["verification.states.iter_valid_states"][1],
            "verification.states.iter_valid_states_states": self.leaves["verification.states.iter_valid_states"][0],
            "verification.states.raw_state_count_s": self.leaves["verification.states.raw_state_count"][1],
            "verification.moves.apply_move_calls": self.leaves["verification.moves.apply_move"][0],
            "verification.moves.apply_move_s": self.leaves["verification.moves.apply_move"][1],
            "verification.canonical.enumerate_canonical_s": total(done),
            "verification.canonical.enumerate_canonical_states": total(done, "states"),
            "verification.canonical.enumerate_canonical_rss_rise_mb": total(done, "rss_rise_mb"),
            "verification.canonical.refused": len(refused),
            "verification.canonical.refusal_s": total(refused) + total(failed),
            "verification.canonical.failed": len(failed),
            "verification.orbits.orbit_partition_bfs_s": total(bfs),
            "verification.orbits.orbit_partition_uf_s": total(uf),
            "verification.orbits.orbit_partition_uf_valid_states": total(uf, "valid"),
            "verification.orbits.orbit_partition_uf_raw_states": total(uf, "raw"),
            "verification.orbits.orbit_partition_uf_edges": total(uf, "edges"),
            "verification.orbits.orbit_partition_uf_rss_rise_mb": total(uf, "rss_rise_mb"),
            "verification.orbits.orbit_count_self_s": total(spans("verification.orbits.orbit_count"), "self_s"),
            "verification.orbits.compare_self_s": total(spans("verification.orbits.compare"), "self_s"),
            "_workers1_wall_s": job_walls.get("workers1", 0.0),
            "_workers2_wall_s": job_walls.get("workers2", 0.0),
        }


def metrics(totals: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from the totals of a pass (``Tracer.totals``, summed)."""

    def ratio(a, b):
        return a / b if b else 0.0

    out = {name: value for name, value in totals.items() if not name.startswith("_")}
    hits, misses = totals["_count_A_hits"], totals["_count_A_misses"]
    out["counting.count_A_hit_ratio"] = ratio(hits, hits + misses)
    out["verification.canonical.enumerate_canonical_states_per_s"] = ratio(
        totals["verification.canonical.enumerate_canonical_states"],
        totals["verification.canonical.enumerate_canonical_s"],
    )
    valid = totals["verification.orbits.orbit_partition_uf_valid_states"]
    out["verification.orbits.orbit_partition_uf_valid_ratio"] = ratio(
        valid, totals["verification.orbits.orbit_partition_uf_raw_states"]
    )
    out["verification.orbits.orbit_partition_uf_states_per_s"] = ratio(
        valid, totals["verification.orbits.orbit_partition_uf_s"]
    )
    out["verification.orbits.workers2_speedup"] = ratio(totals["_workers1_wall_s"], totals["_workers2_wall_s"])
    return out


def _moves_with_inverses(p, v) -> int:
    """Move count of the union-find engine, from the public move functions."""
    from handlebody_census.verification.moves import generator_moves, inverse_move

    moves = generator_moves(p, v)
    seen = set(moves)
    for move in list(moves):
        inverse = inverse_move(p, move)
        if inverse not in seen:
            moves.append(inverse)
            seen.add(inverse)
    return len(moves)


def _describe_partition(part) -> dict:
    attrs = {"method": part.method, "valid": part.valid_count, "raw": part.raw, "orbits": part.orbit_count}
    if part.method == "union-find":
        attrs["edges"] = part.valid_count * _moves_with_inverses(part.p, part.v)
    return attrs


_DESCRIBE = {
    "tuples.admissible_tuples": lambda shapes: {"shapes": len(shapes)},
    "verification.canonical.enumerate_canonical": lambda states: {"states": len(states)},
    "verification.orbits.orbit_partition": _describe_partition,
}


def check_job(tracer: Tracer, index: int, argv, stdout: str) -> list[str]:
    """Cross-check one job's spans against its own output.

    Every self time is at least 0, and the counts the spans saw equal the
    ones the job printed: valid states and orbits for ``orbits`` and
    ``verify`` (JSON), and the normal-form count for ``canonical --list``.
    """
    mine = [s for s in tracer.spans if s["job"] == index]
    problems = [f"{s['name']} self time {s['self_s']:.6f} s < 0" for s in mine if s["self_s"] < 0]
    command, is_json = argv[0], "json" in argv

    def named(name):
        return [s for s in mine if s["name"] == name and "error" not in s]

    def compare_problem(what, spans_saw, printed):
        if spans_saw != printed:
            problems.append(f"{what}: spans saw {spans_saw}, job printed {printed}")

    if command == "orbits" and is_json and stdout:
        out = json.loads(stdout)
        counts = [(s["valid"], s["orbits"]) for s in named("verification.orbits.orbit_partition")]
        compare_problem("orbits valid/orbits", counts, [(out["valid_states"], int(out["orbits"]))])
    elif command == "verify" and is_json and stdout:
        rows = json.loads(stdout)["rows"]
        counts = [(s["valid"], s["orbits"]) for s in named("verification.orbits.orbit_partition")]
        printed = [(r["valid_states"], int(r["orbit_count"])) for r in rows if r["orbit_count"] is not None]
        compare_problem("verify valid/orbits", counts, printed)
        states = [s["states"] for s in named("verification.canonical.enumerate_canonical")]
        printed = [int(r["canonical_count"]) for r in rows if r["canonical_count"] is not None]
        compare_problem("verify normal forms", states, printed)
    elif command == "canonical" and "--list" in argv and stdout:
        lines = stdout.splitlines()
        states = [s["states"] for s in named("verification.canonical.enumerate_canonical")]
        compare_problem("canonical normal forms", states, [int(lines[0].split()[0])])
        compare_problem("canonical listed lines", states, [len(lines) - 2])
    return problems
