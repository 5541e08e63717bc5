"""zaklab benchmark: one closed-loop client running seeded jobs.

    python3 zakbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The run repeats whole cycles of its workload (see zbjobs),
moving over the CPUs the process may use, and starts no new cycle once
--seconds have passed.  Every job is checked by its oracle; a job that
raises or breaks its oracle counts as failed and the run carries on.

Output: one JSON line of details (provenance, per-kind latencies with
their sample counts, failed_frac, failures, final ratios, payload
digests), then as the last line {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json: setup_s (median of fresh `python -m zaklab.cli
--version` runs), wall_s (mean wall time of one cycle's jobs) and
peak_rss_mb.
With --trace 1 they are the per-layer ones, from cycles that alternate
untraced and traced so that the tracing overhead is measured in the
same run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKERS_ENV = "ZAKLAB_WORKERS"
SETUP_REPS = 3
# On a shared host each CPU can run up to 1.7x slower for tens of seconds,
# independently of the others.  Moving to the next CPU this process may use
# after each second of jobs averages their states instead of sampling one.
SWITCH_CPU_EVERY_S = 1.0

# Latencies reported per workload: metric name -> (job kind, scale, unit).
LATENCIES = {
    "certify": {"scan_s": ("scan", 1.0, "s")},
    "flow": {
        "lipschitz_s": ("lipschitz", 1.0, "s"),
        "simulate_s": ("simulate", 1.0, "s"),
        "lifespan_s": ("lifespan", 1.0, "s"),
    },
    "region": {
        "region_point_ms": ("region_point", 1e3, "ms"),
        "trilinear_s": ("trilinear", 1.0, "s"),
    },
}


def summary(values: list[float]) -> dict:
    """Median, plus the highest of p90/p99 with ten samples beyond it."""
    out = {"n": len(values), "p50": statistics.median(values)}
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            out[f"p{pct}"] = cuts[pct - 1]
            break
    return out


def measure_setup(reps: int) -> tuple[float, list[str]]:
    """Median wall time of a fresh `python -m zaklab.cli --version`."""
    import zaklab

    env = {key: val for key, val in os.environ.items() if key != WORKERS_ENV}
    env["PYTHONPATH"] = str(SRC)
    times, problems = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "zaklab.cli", "--version"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or proc.stdout.strip() != zaklab.__version__:
            problems.append(f"setup: --version gave {proc.returncode} {proc.stdout!r}")
    return statistics.median(times), problems


class Runner:
    """Runs jobs, applies oracles, keeps latencies, notes and digests.
    Between jobs it moves the process over cpus (none: it stays put)."""

    def __init__(self, cpus=()):
        self.cpus = list(cpus)
        self._cpu_turn = 0
        self._on_cpu_s = 0.0
        self.latencies: dict[str, list[float]] = {}
        self.notes: dict[str, list] = {}
        self.failures: list[str] = []
        self.digests: dict[tuple, str] = {}
        self.attempted = 0
        self.failed = 0
        self.repeats = 0

    def run_cycle(self, jobs) -> float:
        """Run one cycle; returns the summed wall time of its jobs."""
        import zbjobs

        busy = 0.0
        for job in jobs:
            self.attempted += 1
            t0 = time.perf_counter()
            error = None
            try:
                rc, payload = job.run()
            except (Exception, SystemExit) as exc:  # a failed job must not end the run
                error = exc
            elapsed = time.perf_counter() - t0
            busy += elapsed
            self._on_cpu_s += elapsed
            if self.cpus and self._on_cpu_s >= SWITCH_CPU_EVERY_S:
                self._on_cpu_s = 0.0
                self._cpu_turn += 1
                os.sched_setaffinity(0, {self.cpus[self._cpu_turn % len(self.cpus)]})
            if error is None:
                try:
                    problems, note = job.check(rc, payload)
                except (KeyError, TypeError, ValueError) as exc:  # malformed payload
                    error = exc
            if error is not None:
                self.fail(f"{job.kind} {job.args}: {type(error).__name__}: {error}")
                continue
            self.latencies.setdefault(job.kind, []).append(elapsed)
            if note:
                self.notes.setdefault(job.kind, []).append(note)
            sha = zbjobs.digest(payload)
            key = (job.kind, job.args)
            if key in self.digests:
                self.repeats += 1
                if self.digests[key] != sha:
                    problems.append("payload differs from an identical earlier job")
            else:
                self.digests[key] = sha
            if problems:
                self.fail(f"{job.kind} {job.args}: " + "; ".join(problems))
        return busy

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def provenance() -> dict:
    import numpy
    import scipy
    from zaklab import kernels

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    lines = {
        path.name: len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "zaklab").glob("*.py"))
    }
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "zaklab_workers": kernels.worker_count(),
        "source_lines": lines,
        "source_lines_total": sum(lines.values()),
    }


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer fields: name -> (value from a Stat and the traced cycle count, unit).
FIELDS = {
    "calls": (lambda st, n: st.calls / n, "count"),
    "self_s": (lambda st, n: st.self_s / n, "s"),
    "total_s": (lambda st, n: st.total_s / n, "s"),
    "us_per_call": (lambda st, n: _per(st.total_s * 1e6, st.calls), "us"),
    "distinct_frac": (lambda st, n: _per(len(st.keys), st.calls), "ratio"),
    "traj_steps": (lambda st, n: st.work / n, "count"),
    "us_per_traj_step": (lambda st, n: _per(st.total_s * 1e6, st.work), "us"),
    "us_per_step": (lambda st, n: _per(st.total_s * 1e6, st.work), "us"),
}

LAYER_METRICS = (
    "kernels.kernel_sup.calls", "kernels.kernel_sup.self_s",
    "kernels.kernel_sup.distinct_frac",
    "kernels.kernel_mass.calls", "kernels.kernel_mass.us_per_call",
    "kernels.trilinear_probe.calls", "kernels.trilinear_probe.us_per_call",
    "solver.lipschitz_probe.traj_steps", "solver.lipschitz_probe.us_per_traj_step",
    "solver.lipschitz_probe.self_s",
    "solver.evolve.calls", "solver.evolve.us_per_step",
    "solver.lifespan_probe.self_s",
    "solver.to_first_order.calls",
    "grids.unit_rough_data.calls", "grids.unit_rough_data.total_s",
    "grids.hat_norm.calls", "grids.hat_norm.us_per_call",
    "grids.dilate.total_s",
    "params.admissible.us_per_call", "params.b_window.us_per_call",
    "params.b_window_2d.us_per_call", "params.minimal_k.us_per_call",
    "cli.build_parser.calls", "cli.build_parser.total_s",
    "cli.make_report.total_s",
)


def layer_metrics(tracer, n_cycles: int) -> dict:
    """Per-layer metrics, per traced cycle.  Layers a workload never calls
    read 0; a function the package no longer has is left out."""
    metrics = {}
    for name in LAYER_METRICS:
        target, fld = name.rsplit(".", 1)
        st = tracer.stats.get(target)
        if st is not None:
            value, unit = FIELDS[fld]
            metrics[name] = {"value": value(st, n_cycles), "unit": unit}
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size=None, setup_reps: int = SETUP_REPS) -> tuple[dict, dict]:
    """Warm up on one tiny cycle, then run whole cycles for `seconds`.
    Returns (result, details); result is printed as the last line."""
    import zbjobs
    import zbtrace

    size = size or zbjobs.STANDARD
    Runner().run_cycle(next(zbjobs.cycles(workload, seed, zbjobs.TINY)))

    setup_s, setup_problems = (None, []) if trace else measure_setup(setup_reps)
    cpus = sorted(os.sched_getaffinity(0))
    runner = Runner(cpus)
    for problem in setup_problems:
        runner.fail(problem)
    stream = zbjobs.cycles(workload, seed, size)
    plain, traced = [], []
    tracer = zbtrace.Tracer()
    start = time.perf_counter()
    try:
        while True:
            jobs = next(stream)
            if trace and len(plain) > len(traced):
                with tracer:
                    traced.append(runner.run_cycle(jobs))
            else:
                plain.append(runner.run_cycle(jobs))
            if time.perf_counter() - start >= seconds and (not trace or traced):
                break
    finally:
        os.sched_setaffinity(0, cpus)
    wall_s = statistics.fmean(plain)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    latencies = {
        name: {**summary([v * scale for v in runner.latencies[kind]]), "unit": unit}
        for name, (kind, scale, unit) in LATENCIES[workload].items()
        if kind in runner.latencies
    }
    all_jobs = [v for values in runner.latencies.values() for v in values]
    if trace:
        traced_wall_s = statistics.fmean(traced)
        metrics = {
            **layer_metrics(tracer, len(traced)),
            "trace.wall_s": {"value": traced_wall_s, "unit": "s"},
            "trace.overhead_s": {"value": traced_wall_s - wall_s, "unit": "s"},
        }
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "cycles": {"untraced": len(plain), "traced": len(traced)},
        "cycle_s": {"untraced": plain, "traced": traced},
        "failed_frac": runner.failed / runner.attempted,
        "latencies": latencies,
        "job_s": summary(all_jobs) if all_jobs else {},
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
        "failures": runner.failures,
        "notes": runner.notes,
        "digests": {
            "distinct_inputs": len(runner.digests),
            "repeats": runner.repeats,
            # one sha256 over every distinct (kind, inputs, payload sha256)
            "combined": zbjobs.digest({"jobs": sorted(
                [kind, repr(args), sha] for (kind, args), sha in runner.digests.items()
            )}),
        },
        "absent": tracer.absent,
        "provenance": provenance(),
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "flow", "region"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zaklab" / "__init__.py").is_file():
        print(f"zakbench: no zaklab source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop(WORKERS_ENV, None)  # every job takes the default serial path
    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
