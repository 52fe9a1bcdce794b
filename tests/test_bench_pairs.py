"""``tools/bench_pairs.py`` compares paired runs as its docstring says: the
medians, the pairs won, whether a gain holds, and how far the head's median
is worse than the base's against each metric's bound."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_of_synthetic_runs():
    tool = _load_tool()
    metrics = {
        "wall_s": {"name": "wall_s", "better": "lower", "bound": 0.25},
        "success_rate": {"name": "success_rate", "better": "higher", "bound": 0.05},
    }
    base = [{"wall_s": w, "success_rate": 1.0} for w in (1.0, 1.1, 1.2, 1.3, 1.4)]
    head = [{"wall_s": w, "success_rate": q} for w, q in zip((1.4, 1.5, 1.6, 1.7, 1.8), (1.0, 0.9, 0.9, 0.9, 1.0))]
    out = tool.summary(base, head, metrics)
    wall, success = out["wall_s"], out["success_rate"]
    assert wall["base_runs"] == [1.0, 1.1, 1.2, 1.3, 1.4] and wall["pairs"] == 5
    assert wall["base"]["median"] == pytest.approx(1.2) and wall["head"]["median"] == pytest.approx(1.6)
    assert wall["head_wins"] == 0 and not wall["gain_holds"]
    # lower is better: the head's median is a third above the base's
    assert wall["head_worse_by"] == pytest.approx(1 / 3)
    assert wall["bound"] == 0.25 and not wall["within_bound"]
    # higher is better: the head's median is a tenth below the base's
    assert success["head_worse_by"] == pytest.approx(0.1)
    assert not success["within_bound"]

    # the same runs the other way round: a gain on wall_s, no loss on success_rate
    out = tool.summary(head, base, metrics)
    wall, success = out["wall_s"], out["success_rate"]
    assert wall["head_wins"] == 5 and wall["gain_holds"]
    assert wall["head_worse_by"] == pytest.approx(-0.25) and wall["within_bound"]
    assert success["head_worse_by"] == pytest.approx(-1 / 9) and success["within_bound"]
    assert success["head_wins"] == 3 and not success["gain_holds"]  # medians a base IQR apart, no more


def test_summary_within_the_bound():
    tool = _load_tool()
    metrics = {"peak_rss_mb": {"better": "lower", "bound": 0.05}}
    base = [{"peak_rss_mb": 100.0} for _ in range(10)]
    head = [{"peak_rss_mb": 104.0} for _ in range(10)]
    out = tool.summary(base, head, metrics)["peak_rss_mb"]
    assert out["head_worse_by"] == pytest.approx(0.04)
    assert out["within_bound"] and not out["gain_holds"]


def test_end_to_end_reads_every_metric_of_the_benchmark():
    tool = _load_tool()
    metrics = tool.end_to_end(ROOT)
    assert set(metrics) == {"setup_s", "wall_s", "cpu_s", "peak_rss_mb", "success_rate"}
    assert all(m["better"] in ("lower", "higher") and m["bound"] > 0 for m in metrics.values())


def test_workloads_are_those_of_the_benchmark_in_its_order(tmp_path):
    tool = _load_tool()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tool.workloads(ROOT) == [workload["name"] for workload in spec["workloads"]]
    assert tool.workloads(ROOT) == ["census-and-normal-forms", "verify-and-orbits"]
    # read from the file, not a list of the tool's own
    spec["workloads"] = [{"name": "second", "why": ""}, {"name": "first", "why": ""}]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    assert tool.workloads(tmp_path) == ["second", "first"]


def _stub_checkout(root: Path, body: str) -> Path:
    """A checkout whose ``perfbench/run.py`` is ``body``."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(body)
    return root


def test_a_failing_run_names_its_checkout_workload_seed_exit_code_and_stderr(tmp_path):
    tool = _load_tool()
    body = "import sys\nprint('partial')\nprint('line 1\\nboom', file=sys.stderr)\nsys.exit(3)\n"
    root = _stub_checkout(tmp_path / "base", body)
    with pytest.raises(SystemExit) as caught:
        tool.run_once(root, "census-and-normal-forms", 7)
    message = str(caught.value.code)
    assert message.startswith(f"{root}: census-and-normal-forms seed 7 exited 3;")
    assert message.endswith("\nline 1\nboom")


def test_a_run_that_prints_nothing_names_its_checkout_workload_seed_and_stderr(tmp_path):
    tool = _load_tool()
    root = _stub_checkout(tmp_path / "head", "import sys\nprint('no metrics', file=sys.stderr)\n")
    with pytest.raises(SystemExit) as caught:
        tool.run_once(root, "verify-and-orbits", 2)
    message = str(caught.value.code)
    what = "exited 0 and printed nothing; the end of its stderr"
    assert message == f"{root}: verify-and-orbits seed 2 {what}:\nno metrics"


def test_a_wrong_answer_names_the_jobs_that_failed(tmp_path):
    tool = _load_tool()
    body = (
        "import json\n"
        "print('  error_rate     0.5000  (1 failed of 2 jobs attempted)')\n"
        "print(\"  failed: ['akj', '--k', '10']: stdout sha256 differs\")\n"
        "print(json.dumps({'correct': False, 'attempted': 2, 'failed': 1, 'metrics': {}}))\n"
    )
    root = _stub_checkout(tmp_path / "head", body)
    with pytest.raises(SystemExit) as caught:
        tool.run_once(root, "verify-and-orbits", 4)
    assert str(caught.value.code) == (
        f"{root}: verify-and-orbits seed 4 printed a wrong answer\n"
        "failed: ['akj', '--k', '10']: stdout sha256 differs"
    )
