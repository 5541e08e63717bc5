"""Tests of the zaklab benchmark itself: tiny smoke runs of every workload,
the seeded generators, the generated parameter points and the tracer."""

import json
import math
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run as zbrun  # noqa: E402
import zbjobs  # noqa: E402
import zbtrace  # noqa: E402
from zaklab import cli, grids, kernels, params, reports, solver  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_spec_workloads_match_the_generators():
    assert [w["name"] for w in SPEC["workloads"]] == list(zbjobs.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", zbjobs.WORKLOADS)
def test_smoke_every_metric_present_with_unit(workload, trace, monkeypatch):
    monkeypatch.delenv(zbrun.WORKERS_ENV, raising=False)
    result, details = zbrun.run_workload(
        workload, seed=5, seconds=0, trace=trace, size=zbjobs.TINY, setup_reps=1
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    assert details["provenance"]["zaklab_workers"] == 1
    assert details["provenance"]["source_lines_total"] > 0
    json.dumps(result)


def _inputs(workload, seed, n_cycles=3):
    stream = zbjobs.cycles(workload, seed)
    return [[(job.kind, job.args) for job in next(stream)] for _ in range(n_cycles)]


@pytest.mark.parametrize("workload", zbjobs.WORKLOADS)
def test_generator_is_deterministic(workload):
    assert _inputs(workload, 3) == _inputs(workload, 3)
    assert len({repr(_inputs(workload, seed)) for seed in range(6)}) > 1


def _scan_point(argv):
    def value(flag):
        return F(argv[argv.index(flag) + 1])

    return (value("--k"), value("--l"), value("--p")), argv[argv.index("--family") + 1]


def test_generated_points_admissible_and_violated_variants_not():
    scans = 0
    for seed in range(40):
        for cycle in _inputs("certify", seed, n_cycles=2):
            for kind, argv in cycle:
                (k, l, p), family = _scan_point(argv)
                mid = zbjobs.mid_window_point(k, l, p)
                assert params.admissible(mid).admissible, (k, l, p)
                if (k, l, p) != zbjobs.CORNER:  # the corner sits at an attained infimum
                    assert k >= params.minimal_k(l, p).k_inf + zbjobs.MIN_K_MARGIN
                if "--violate" in argv:
                    bad = zbjobs.violated_point(k, l, p, family)
                    assert not params.admissible(bad).admissible, (k, l, p, family)
                scans += 1
    assert scans == 40 * 2 * 8


def test_region_oracle_flags_a_wrong_payload():
    payload = zbjobs.region_point(F(0), F(-1, 2), F(2))
    assert zbjobs.check_region_point(0, payload)[0] == []
    broken = {**payload, "interior_admissible": [True, False, True]}
    assert zbjobs.check_region_point(0, broken)[0]


def test_tracer_wraps_every_namespace_and_restores():
    before = (solver.hat_norm, grids.hat_norm, cli.make_report, reports.make_report)
    targets = zbtrace.TARGETS + (zbtrace.Target("solver.no_such_function"),)
    with zbtrace.Tracer(targets) as tracer:
        assert solver.hat_norm is grids.hat_norm is not before[0]
        assert cli.make_report is reports.make_report is not before[2]
    assert (solver.hat_norm, grids.hat_norm, cli.make_report, reports.make_report) == before
    assert tracer.absent == ["solver.no_such_function"]


def test_tracer_self_time_excludes_traced_children():
    pt = zbjobs.mid_window_point(*zbjobs.CORNER)
    tracer = zbtrace.Tracer()
    for sign in kernels.SIGNS:  # statistics add up over separate entries
        with tracer:
            spec = kernels.KernelSpec.from_point(pt, "S", sign)
            kernels.kernel_sup(spec, 8.0, resolution=0.5)
    sup, mass = tracer.stats["kernels.kernel_sup"], tracer.stats["kernels.kernel_mass"]
    assert sup.calls == 2 and mass.calls > 0
    assert sup.self_s == pytest.approx(sup.total_s - mass.total_s, abs=1e-3)
    assert mass.self_s == pytest.approx(mass.total_s)
    assert len(sup.keys) == 1  # plus and minus are the same scan once sign is ignored
