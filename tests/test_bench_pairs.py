"""The summary that tools/bench_pairs.py writes from alternating runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def run(wall, rss, attempted=10, failed=0):
    return {"attempted": attempted, "failed": failed, "metrics": {
        "wall_s": {"value": wall, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }}


def test_summary_counts_pairs_won_by_each_metrics_direction():
    runs = {
        "parent": [run(2.0, 40.0), run(2.2, 40.0), run(1.8, 40.0), run(2.1, 41.0)],
        "change": [run(1.5, 41.0, failed=1), run(2.3, 40.0), run(1.4, 39.0),
                   run(1.6, 41.0)],
    }
    out = bench_pairs.summarise(runs, {"wall_s": "lower", "peak_rss_mb": "lower"})
    wall = out["metrics"]["wall_s"]
    assert wall["pairs_won"] == 3
    assert wall["parent"]["median"] == pytest.approx(2.05)
    assert wall["parent"]["q1"] == pytest.approx(1.95)
    assert wall["parent"]["q3"] == pytest.approx(2.125)
    assert wall["change"]["median"] == pytest.approx(1.55)
    assert wall["relative_change"] == pytest.approx(1.55 / 2.05 - 1.0)
    assert wall["gap_exceeds_parent_iqr"]  # 0.5 > 0.175
    rss = out["metrics"]["peak_rss_mb"]
    assert rss["pairs_won"] == 1  # ties are not wins
    assert not rss["gap_exceeds_parent_iqr"]
    assert out["attempted"] == {"parent": 40, "change": 40}
    assert out["failed"] == {"parent": 0, "change": 1}


def test_higher_is_better_and_unknown_metrics_get_no_verdict():
    runs = {"parent": [run(1.0, 10.0), run(1.0, 12.0)],
            "change": [run(1.0, 11.0), run(1.0, 13.0)]}
    out = bench_pairs.summarise(runs, {"peak_rss_mb": "higher"})
    assert out["metrics"]["peak_rss_mb"]["pairs_won"] == 2
    assert "pairs_won" not in out["metrics"]["wall_s"]
    assert out["metrics"]["wall_s"]["better"] is None


SPREAD = [0.4, 1.0, 1.0, 1.6]  # quartiles 0.85 and 1.15 around the median 1.0


@pytest.mark.parametrize("parent,change,better,bound,verdict", [
    ([1.0] * 4, [1.3] * 4, "lower", 0.25, "worse"),  # +30 % on a 25 % bound
    ([1.0] * 4, [1.2] * 4, "lower", 0.25, "within"),
    ([1.0] * 4, [1.3, 1.3, 1.2, 1.2], "lower", 0.25, "within"),  # median +25 %
    (SPREAD, [1.0] * 4, "lower", 0.25, "unresolved"),  # spread 30 % of the median
    (SPREAD, [1.0] * 4, "lower", 0.35, "within"),
    (SPREAD, [0.3] * 4, "lower", 0.25, "within"),  # every change run beats every parent run
    (SPREAD, [0.3, 0.3, 0.3, 0.5], "lower", 0.25, "unresolved"),  # 0.5 loses to 0.4
    (SPREAD, [1.4] * 4, "lower", 0.25, "worse"),  # worse wins over unresolved
    ([10.0] * 4, [9.0] * 4, "higher", 0.05, "worse"),
    ([10.0] * 4, [9.6] * 4, "higher", 0.05, "within"),
])
def test_bound_verdict(parent, change, better, bound, verdict):
    assert bench_pairs.bound_verdict(parent, change, better, bound) == verdict


def test_runs_last_as_long_as_the_changes_benchmark_fixes(tmp_path, monkeypatch):
    roots = {}
    for side in ("parent", "change"):
        root = tmp_path / side
        (root / "zakbench").mkdir(parents=True)
        (root / "zakbench" / "run.py").write_text("")
        (root / "BENCHMARK.json").write_text(
            '{"run_seconds": 7, "end_to_end": [{"name": "wall_s", "better": "lower", '
            '"bound": 0.25}, {"name": "peak_rss_mb", "better": "lower"}]}'
        )
        roots[side] = root
    calls = []

    def fake_run_once(root, workload, seed, seconds, trace):
        calls.append((root.name, seconds))
        return run(1.0 if root.name == "parent" else 0.5, 40.0)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(roots["parent"]), "--change",
                             str(roots["change"]), "--workload", "flow", "--seed", "1",
                             "--pairs", "2", "--out", str(out)]) == 0
    assert calls == [("parent", 7), ("change", 7), ("change", 7), ("parent", 7)]
    entry = bench_pairs.json.loads(out.read_text())["runs"]["flow/1"]
    assert entry["seconds"] == 7
    assert entry["metrics"]["wall_s"]["pairs_won"] == 2
    # the bound comes from BENCHMARK.json; a metric without one gets no verdict
    assert entry["metrics"]["wall_s"]["bound_verdict"] == "within"
    assert "bound_verdict" not in entry["metrics"]["peak_rss_mb"]
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", str(roots["parent"]), "--change",
                          str(roots["change"]), "--workload", "flow", "--seed", "1",
                          "--pairs", "1", "--seconds", "20", "--out", str(out)])


STUB_RUN = """import json, sys
print(json.dumps({"details": {"absent": %r}}))
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {
    "wall_s": {"value": 1.0, "unit": "s"}}}))
"""


def test_traced_entry_records_each_sides_absent_names(tmp_path):
    roots = {}
    for side, absent in (("parent", []), ("change", ["kernels.kernel_mass"])):
        root = tmp_path / side
        (root / "zakbench").mkdir(parents=True)
        (root / "zakbench" / "run.py").write_text(STUB_RUN % absent)
        (root / "BENCHMARK.json").write_text('{"run_seconds": 1}')
        roots[side] = root
    out = tmp_path / "bench.json"
    argv = ["--parent", str(roots["parent"]), "--change", str(roots["change"]),
            "--workload", "certify", "--seed", "1", "--pairs", "2", "--out", str(out)]
    assert bench_pairs.main(argv + ["--trace", "1"]) == 0
    assert bench_pairs.main(argv) == 0
    runs = bench_pairs.json.loads(out.read_text())["runs"]
    assert runs["certify/1/trace"]["absent"] == {
        "parent": [], "change": ["kernels.kernel_mass"]}
    assert runs["certify/1/trace"]["attempted"] == {"parent": 6, "change": 6}
    assert "absent" not in runs["certify/1"]
