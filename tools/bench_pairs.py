"""Alternating before/after runs of zakbench, summarised into one JSON file.

    python3 tools/bench_pairs.py --parent ../zaklab-parent --change . \\
        --workload flow --seed 1 --pairs 10 --out BENCH.json

Each pair runs `zakbench/run.py` once in each checkout, one after the
other; which side goes first flips from pair to pair, so a host that
speeds up or slows down during the runs favours neither side.  Every run
uses the zakbench of its own checkout, for the `run_seconds` that the
change's BENCHMARK.json fixes.

The output file holds one entry per (workload, seed[, trace]).  For each
metric of the runs' last line it gives both sides' medians and quartiles,
the change's relative difference of medians, how many pairs the change
won (by the metric's direction in the change's BENCHMARK.json), and
whether the gap between the medians exceeds the parent's quartile spread.
Each end-to-end metric with a bound there also gets a `bound_verdict`:
"worse" when the change's median is worse than the parent's by more than
the bound (relative to the parent's median), "unresolved" when the
parent's quartile spread relative to its median exceeds the bound unless
every change run beats every parent run, and "within" otherwise.
It also gives the jobs attempted and failed on each side, for a traced
entry each side's `absent` list (the traced names its package no longer
has, from the runs' first line), and, at the top, each checkout's git SHA,
`wc -l src/zaklab/*.py` and tier-1 result: the tests passed, failed
(errors included) and the seconds taken by one `python -m pytest -q
--continue-on-collection-errors` in the checkout with PYTHONPATH=src, run
once per checkout per file.  A file that already exists is extended,
provided it was written for the same two commits.

A run's last line must be a result: a JSON object with `correct`,
`attempted`, `failed` and `metrics`, every metric `value` a finite number,
and no NaN or Infinity anywhere.  Anything else ends the tool with one
message naming the command, the checkout and the head of the line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def checkout_info(root: Path) -> dict:
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    lines = {
        path.name: path.read_bytes().count(b"\n")  # what wc -l counts
        for path in sorted((root / "src" / "zaklab").glob("*.py"))
    }
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "source_lines": {**lines, "total": sum(lines.values())},
    }


def tier1(root: Path) -> dict:
    """Passed, failed (errors included) and seconds of the tier-1 suite in
    root, with PYTHONPATH=src alone so no other checkout's package leaks in."""
    env = {**os.environ, "PYTHONPATH": "src"}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=root, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1:] or [""]
    counts = {word: int(num) for num, word in re.findall(r"(\d+) (\w+)", tail[0])}
    return {"passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0) + counts.get("errors", 0),
            "seconds": round(seconds, 2)}


def benchmark_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def directions(spec: dict) -> dict[str, str]:
    """Metric name -> "lower" or "higher", from a BENCHMARK.json."""
    return {
        metric["name"]: metric["better"]
        for group in ("end_to_end", "per_layer")
        for metric in spec.get(group, [])
    }


def bounds(spec: dict) -> dict[str, float]:
    """End-to-end metric name -> its relative bound, from a BENCHMARK.json."""
    return {metric["name"]: metric["bound"]
            for metric in spec.get("end_to_end", []) if "bound" in metric}


def bound_verdict(parent: list[float], change: list[float], better: str,
                  bound: float) -> str:
    """"worse", "unresolved" or "within", by the rule in the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    before, after = quartiles(parent), quartiles(change)
    scale = bound * abs(before["median"])
    if sign * (after["median"] - before["median"]) > scale:
        return "worse"
    beats_all = all(sign * (p - c) > 0 for p in parent for c in change)
    if before["q3"] - before["q1"] > scale and not beats_all:
        return "unresolved"
    return "within"


def _no_constant(name: str):
    raise ValueError(f"non-finite constant {name}")


def result_line(line: str) -> dict:
    """The result a run's last line holds, by the rule in the module
    docstring; ValueError if it holds none."""
    result = json.loads(line, parse_constant=_no_constant)
    if not (isinstance(result, dict)
            and {"correct", "attempted", "failed", "metrics"} <= result.keys()
            and isinstance(result["metrics"], dict)):
        raise ValueError("not an object with correct, attempted, failed and metrics")
    for name, metric in result["metrics"].items():
        value = metric.get("value") if isinstance(metric, dict) else None
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name} has no finite value")
    return result


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One zakbench run in `root`; returns its last output line, with the
    `absent` list of its first line's details added."""
    env = {key: val for key, val in os.environ.items() if key != "PYTHONPATH"}
    cmd = [sys.executable, "zakbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {root} exited {proc.returncode}: "
                 f"{proc.stderr.strip()[-500:]}")
    try:
        result = result_line(lines[-1])
        absent = json.loads(lines[0], parse_constant=_no_constant)["details"]["absent"]
    except (ValueError, TypeError, KeyError) as exc:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {root} gave no result ({exc}); "
                 f"last line: {lines[-1][:200]!r}")
    return {**result, "absent": absent}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: dict[str, list[dict]], better: dict[str, str],
              bound: dict[str, float] | None = None) -> dict:
    """Per-metric medians, quartiles, pairs won and bound verdicts, plus job
    counts."""
    names = sorted(set.intersection(*(
        set(run["metrics"]) for side in SIDES for run in runs[side]
    )))
    metrics = {}
    for name in names:
        values = {side: [run["metrics"][name]["value"] for run in runs[side]]
                  for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        before, after = stats["parent"]["median"], stats["change"]["median"]
        direction = better.get(name)
        entry = {
            "better": direction,
            **stats,
            "relative_change": (after - before) / before if before else None,
            "samples": values,
        }
        if direction is not None:
            sign = 1.0 if direction == "lower" else -1.0
            entry["pairs_won"] = sum(
                sign * (b - a) > 0 for b, a in zip(values["parent"], values["change"])
            )
            spread = stats["parent"]["q3"] - stats["parent"]["q1"]
            entry["gap_exceeds_parent_iqr"] = sign * (before - after) > spread
            if bound and name in bound:
                entry["bound_verdict"] = bound_verdict(
                    values["parent"], values["change"], direction, bound[name])
        metrics[name] = entry
    return {
        "metrics": metrics,
        "attempted": {side: sum(run["attempted"] for run in runs[side]) for side in SIDES},
        "failed": {side: sum(run["failed"] for run in runs[side]) for side in SIDES},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True, choices=("certify", "flow", "region"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in roots.items():
        if not (root / "zakbench" / "run.py").is_file():
            parser.error(f"--{side} {root} holds no zakbench/run.py")
    spec = benchmark_spec(roots["change"])
    seconds = spec["run_seconds"]

    info = {side: checkout_info(root) for side, root in roots.items()}
    report = {"parent": info["parent"], "change": info["change"], "runs": {}}
    if args.out.exists():
        report = json.loads(args.out.read_text(encoding="utf-8"))
        for side in SIDES:
            if report[side]["git_sha"] != info[side]["git_sha"]:
                sys.exit(f"bench_pairs: {args.out} was written for another {side} "
                         f"commit ({report[side]['git_sha']})")

    for side in SIDES:
        if "tier1" not in report[side]:
            report[side]["tier1"] = tier1(roots[side])

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(roots[side], args.workload, args.seed,
                                       seconds, args.trace))
        print(f"pair {pair + 1}/{args.pairs}: " + ", ".join(
            f"{side} {runs[side][-1]['metrics']}" for side in SIDES
        ), file=sys.stderr)

    key = f"{args.workload}/{args.seed}" + ("/trace" if args.trace else "")
    report["runs"][key] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "pairs": args.pairs,
        "first_in_pair": "parent on odd pairs, change on even pairs",
        **summarise(runs, directions(spec), bounds(spec)),
    }
    if args.trace:
        report["runs"][key]["absent"] = {
            side: sorted({name for run in runs[side] for name in run["absent"]})
            for side in SIDES
        }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
