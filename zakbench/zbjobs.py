"""Seeded job streams and correctness oracles for the zaklab benchmark.

A workload is an endless sequence of cycles; a cycle is a fixed list of
job kinds whose inputs come from a seeded generator.  Every cycle holds
each kind in the same proportion, so a run that stops at a cycle boundary
always measures the same mix, however fast the program is.

Oracles use the theory and the acceptance criteria's own tolerances,
never numbers measured from the current code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

from zaklab import cli, params
from zaklab.reports import jsonable

WORKLOADS = ("certify", "flow", "region")

CORNER = (F(0), F(-1, 2), F(2))
OPTIMAL = (F(-1, 12) + F(1, 100), F(-7, 12), F(12, 7))
MIN_K_MARGIN = F(1, 100)  # criterion 6 scans k = minimal_k + 1/100

LIPSCHITZ_AMPLITUDES = (1.0, 1.5, 2.0)
SIMULATE_PRESETS = ("plane-wave", "gaussian")
SIMULATE_AMPLITUDES = (0.5, 1.0, 2.0)
LIFESPAN_AMPLITUDES = (12.0, 13.0, 14.0)

# Tolerances of acceptance criteria 8-10.
PLANE_WAVE_TOL = 1e-8
MASS_DRIFT_TOL = 1e-8
LIPSCHITZ_SPREAD_MAX = 2.0
LIFESPAN_SLOPE, LIFESPAN_SLOPE_TOL = -2.0, 0.5


@dataclass(frozen=True)
class Size:
    """Problem sizes; STANDARD is the benchmark, TINY the smoke test."""

    kernel: tuple[str, ...]
    lipschitz: tuple[str, ...]
    simulate: tuple[str, ...]
    lifespan: tuple[str, ...]
    trilinear: tuple[str, ...]
    region_points: int


STANDARD = Size(
    kernel=("--tier", "standard"),
    lipschitz=("--tier", "standard"),
    simulate=("--tier", "standard"),
    lifespan=("--n", "512", "--dt", "2e-4"),
    trilinear=("--tier", "standard"),
    region_points=400,
)
TINY = Size(
    kernel=("--tier", "quick", "--r-max", "8", "--resolution", "0.5"),
    lipschitz=("--n", "64", "--t-final", "0.02", "--seeds", "1"),
    simulate=("--n", "64", "--t-final", "0.02"),
    lifespan=("--n", "64", "--dt", "1e-3", "--t-final", "0.02"),
    trilinear=("--trials", "2", "--grid", "16"),
    region_points=5,
)


@dataclass(frozen=True)
class Job:
    """One closed-loop request.  kind names the latency it feeds; args is
    the CLI argv, or (k, l, p) for a region point; equal (kind, args)
    means equal inputs, whose payloads must be byte-identical."""

    kind: str
    args: tuple
    check: Callable[[int, dict], tuple[list[str], dict]]

    def run(self) -> tuple[int, dict]:
        if self.kind == "region_point":
            return 0, region_point(*self.args)
        return run_cli(self.args)


def run_cli(argv) -> tuple[int, dict]:
    """One in-process zaklab command; returns (exit code, report payload)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    return rc, json.loads(out.getvalue())["payload"]


def digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# --- parameter points ---------------------------------------------------------


def admissible_point(rng: random.Random) -> tuple[F, F, F]:
    """Rational (k, l, p) with 1/p in [1/2, 4/5], l at most 1/5 above its
    floor -1/p, and k from 1/100 to 1/10 above minimal_k(l, p).  The region
    also bounds k from above, so draws whose b window is empty are redrawn."""
    while True:
        q = F(rng.randint(50, 80), 100)
        l = -q + F(rng.randint(0, 20), 100)
        p = 1 / q
        k = params.minimal_k(l, p).k_inf + MIN_K_MARGIN * rng.randint(1, 10)
        if params.b_window(k, l, p).nonempty:
            return k, l, p


def mid_window_point(k: F, l: F, p: F) -> params.ParamPoint:
    win = params.b_window(k, l, p)
    beta = (win.lower + win.upper) / 2
    return params.ParamPoint(k, l, p, beta, beta)


def violated_point(k: F, l: F, p: F, family: str) -> params.ParamPoint:
    """The point kernel-scan --violate l probes: b = b1 stays mid-window of
    (k, l, p) and l breaks the family's own l condition."""
    pt = mid_window_point(k, l, p)
    if family == "S":
        bad_l = -pt.inv_p - F(1, 4)
    else:
        bad_l = 2 * pt.k - (1 - pt.inv_p) + F(1, 2)
    return params.ParamPoint(pt.k, bad_l, pt.p, pt.b, pt.b1)


def region_sample(rng: random.Random) -> tuple[F, F, F]:
    """Rational (k, l, p) with l >= -1/p and k within 1/5 below to 2/5
    above minimal_k(l, p): both empty and nonempty windows occur."""
    q = F(rng.randint(50, 90), 100)
    l = -q + F(rng.randint(0, 40), 100)
    p = 1 / q
    k = params.minimal_k(l, p).k_inf + F(rng.randint(-20, 40), 100)
    return k, l, p


INTERIOR = (F(1, 4), F(1, 2), F(3, 4))


def region_point(k: F, l: F, p: F) -> dict:
    """What window, admissible and optimize compute at one point."""
    win = params.b_window(k, l, p)
    win_b, win_b1 = params.b_window_2d(k, l, p)
    mk = params.minimal_k(l, p)
    sigma, lam = params.scaling_exponents(k, l, p)
    interior = []
    if win.nonempty:
        for t in INTERIOR:
            beta = win.lower + t * (win.upper - win.lower)
            verdict = params.admissible(params.ParamPoint(k, l, p, beta, beta))
            interior.append(verdict.admissible)
    return jsonable({
        "k": k, "l": l, "p": p, "diagonal": win, "b": win_b, "b1": win_b1,
        "k_inf": mk.k_inf, "attained": mk.attained, "sigma": sigma,
        "lambda": lam, "interior_admissible": interior,
    })


# --- oracles ------------------------------------------------------------------


def check_scan_admissible(rc: int, payload: dict):
    cells = payload["diagnostics"]
    problems = []
    if rc not in (0, 2):
        problems.append(f"exit code {rc} at an admissible point")
    for key, diag in cells.items():
        if diag["verdict"] == "diverging":
            problems.append(f"{key} diverging at an admissible point")
    fams = {key.split("/")[0] for key in cells}
    for fam in fams:
        plus, minus = cells.get(f"{fam}/plus"), cells.get(f"{fam}/minus")
        if plus is None or minus is None:
            problems.append(f"{fam}: sign both did not scan both signs")
        elif (plus["values"], plus["verdict"]) != (minus["values"], minus["verdict"]):
            problems.append(f"{fam}: plus and minus disagree")
    return problems, _scan_note(cells)


def check_scan_violated(rc: int, payload: dict):
    cells = payload["diagnostics"]
    problems = [
        f"{key} saturating with its l condition broken"
        for key, diag in cells.items() if diag["verdict"] == "saturating"
    ]
    if payload["admissible_point"] is not True:
        problems.append("the unbroken point is not admissible")
    return problems, _scan_note(cells)


def _scan_note(cells: dict) -> dict:
    return {key: [d["verdict"], d["ratios"][-1] if d["ratios"] else None]
            for key, d in sorted(cells.items())}


def check_lipschitz(rc: int, payload: dict):
    spreads = list(payload["stability"].values())
    spread = max(spreads) if spreads else float("inf")
    problems = []
    if not spread < LIPSCHITZ_SPREAD_MAX:
        problems.append(f"Lipschitz spread {spread} not below {LIPSCHITZ_SPREAD_MAX}")
    if payload["truncations"]:
        problems.append(f"truncated trajectories {payload['truncations']}")
    return problems, {"spread": spread}


def check_plane_wave(rc: int, payload: dict):
    err = payload.get("plane_wave_error", float("inf"))
    problems = [] if err < PLANE_WAVE_TOL else [f"plane-wave error {err}"]
    return problems, {"plane_wave_error": err}


def check_gaussian(rc: int, payload: dict):
    drift = payload["mass_drift"]
    problems = []
    if not drift < MASS_DRIFT_TOL:
        problems.append(f"mass drift {drift}")
    if payload["truncated"]:
        problems.append("gaussian run truncated")
    return problems, {"mass_drift": drift}


def check_lifespan(rc: int, payload: dict):
    slope = payload["slope"]
    problems = []
    if payload["inconclusive"] or slope is None:
        problems.append("lifespan inconclusive")
    elif abs(slope - LIFESPAN_SLOPE) > LIFESPAN_SLOPE_TOL:
        problems.append(f"slope {slope} outside {LIFESPAN_SLOPE} +/- {LIFESPAN_SLOPE_TOL}")
    return problems, {"slope": slope}


def check_trilinear(rc: int, payload: dict):
    problems = []
    if rc != 0 or payload["violations"]:
        problems.append(f"{len(payload['violations'])} trilinear violations")
    return problems, {"worst_ratio": payload["worst_ratio"]}


def check_region_point(rc: int, payload: dict):
    k, l, p = (F(payload[key]) for key in ("k", "l", "p"))
    problems = []
    if not all(payload["interior_admissible"]):
        problems.append(f"b window interior not admissible at {(k, l, p)}")
    if payload["diagonal"]["nonempty"] and k < F(payload["k_inf"]):
        problems.append(f"nonempty window below the k infimum at {(k, l, p)}")
    sigma, lam = F(payload["sigma"]), F(payload["lambda"])
    if sigma - lam != k - l:
        problems.append(f"scaling exponents inconsistent at {(k, l, p)}")
    return problems, {}


# --- cycles -------------------------------------------------------------------


def _scan(size: Size, pt, family: str, violate: bool) -> Job:
    k, l, p = pt
    argv = ("kernel-scan", "--k", str(k), "--l", str(l), "--p", str(p),
            "--family", family, "--sign", "both", *size.kernel, "--json")
    if violate:
        return Job("scan", argv + ("--violate", "l"), check_scan_violated)
    return Job("scan", argv, check_scan_admissible)


def certify_cycle(rng: random.Random, size: Size) -> list[Job]:
    """Corner, criterion-6 optimum, one seeded admissible point and its
    --violate l variant, each family scanned with --sign both."""
    seeded = admissible_point(rng)
    jobs = []
    for pt, violate in ((CORNER, False), (OPTIMAL, False),
                        (seeded, False), (seeded, True)):
        for family in ("S", "W"):
            jobs.append(_scan(size, pt, family, violate))
    return jobs


def flow_menu(rng: random.Random) -> dict:
    """Amplitudes and the free preset, drawn once per run."""
    return {
        "lipschitz": rng.choice(LIPSCHITZ_AMPLITUDES),
        "simulate": [rng.choice(SIMULATE_AMPLITUDES) for _ in range(3)],
        "preset": rng.choice(SIMULATE_PRESETS),
        "lifespan": rng.choice(LIFESPAN_AMPLITUDES),
    }


def flow_cycle(menu: dict, size: Size) -> list[Job]:
    """One Lipschitz ensemble (criterion 9 shape: 5 seeds x 4 trajectories),
    three single-trajectory simulations (both presets plus a drawn one) and
    one lifespan probe (criterion 10 shape).  Ensembles are what a batched
    integrator speeds up; single trajectories observed at every sample are
    what it must not slow down."""
    k, l, p = CORNER
    jobs = [Job("lipschitz", (
        "lipschitz", "--k", str(k), "--l", str(l), "--p", str(p),
        "--amplitude", repr(menu["lipschitz"]), *size.lipschitz, "--json",
    ), check_lipschitz)]
    presets = ("plane-wave", "gaussian", menu["preset"])
    for preset, amp in zip(presets, menu["simulate"]):
        check = check_plane_wave if preset == "plane-wave" else check_gaussian
        jobs.append(Job("simulate", (
            "simulate", "--preset", preset, "--amplitude", repr(amp),
            *size.simulate, "--json",
        ), check))
    jobs.append(Job("lifespan", (
        "lifespan", "--amplitude", repr(menu["lifespan"]), *size.lifespan, "--json",
    ), check_lifespan))
    return jobs


def region_cycle(rng: random.Random, size: Size) -> list[Job]:
    """Seeded region points through the library, then one trilinear-test
    command (600 probes on 64 x 64 grids at the standard tier)."""
    jobs = [Job("region_point", region_sample(rng), check_region_point)
            for _ in range(size.region_points)]
    jobs.append(Job("trilinear", (
        "trilinear-test", "--seed", str(rng.randrange(2**31)), *size.trilinear, "--json",
    ), check_trilinear))
    return jobs


def cycles(workload: str, seed: int, size: Size = STANDARD):
    """Endless seeded cycle stream: the same seed gives the same inputs."""
    rng = random.Random(f"zakbench/{workload}/{seed}")
    if workload == "flow":
        menu = flow_menu(rng)
        while True:
            yield flow_cycle(menu, size)
    make = {"certify": certify_cycle, "region": region_cycle}[workload]
    while True:
        yield make(rng, size)
