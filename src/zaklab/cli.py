"""Command-line front end.

Subcommands: admissible, window, optimize, scaling, kernel-scan,
trilinear-test, simulate, lipschitz, lifespan.  The first four are exact:
like --version, --help and usage errors they load no numpy, while every
other command loads numpy, grids, kernels and solver once its arguments
are parsed.  Parameter-region commands take exact rational literals
("-1/12"); decimals are rejected there so exactness cannot silently
degrade.  kernel-scan, trilinear-test, simulate and lipschitz take --tier,
which sizes each of their flags left unset.  A config file (key=value
lines or a JSON object) may supply flags, required ones included; explicit
flags override it.  Kernel scans honor the ZAKLAB_WORKERS environment
variable for data-parallel outer grids.

Each command returns its exit code, configuration, payload, text lines
and wall time.  main() alone builds the report, appends it to a JSON-lines
file (--jsonl-out), and only then prints it (--json) or the text lines.
A full stdout ends in one error line and exit 2; a closed one ends
silently, with EXIT_BROKEN_PIPE.  Series data is emitted as plain CSV
(--csv-out).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from . import ZaklabError, __version__, params
from .reports import make_report, timer, write_csv, write_jsonl

# the status a shell reports for a process that SIGPIPE ended, which is how a
# POSIX tool ends, silently, once the reader of its output has gone
EXIT_BROKEN_PIPE = 128 + 13


def _load_numeric_layers() -> None:
    """Bind numpy, grids, kernels and solver as module globals.  All three
    layers load whatever the command: zakbench's tracer patches only the
    modules loaded when it starts, and each warm-up runs one numeric command,
    so every traced run keeps every layer's metrics.  Per-command loading
    would save only solver's import (about 8 ms) per kernel-scan."""
    global np, grids, kernels, solver
    import numpy as np
    from . import grids, kernels, solver


def rational_arg(text: str) -> Fraction:
    try:
        return params.as_rational(text)
    except params.ParamDomainError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def positive_rational_arg(text: str) -> Fraction:
    value = rational_arg(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive rational: {text!r}")
    return value


def positive_arg(kind, zero_ok=False):
    """Argument type: a finite positive value of kind (int or float), or a
    non-negative one with zero_ok."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not ((0 <= value if zero_ok else 0 < value) and value < math.inf):
            word = "non-negative" if zero_ok else "positive"
            raise argparse.ArgumentTypeError(f"expected a {word} {kind.__name__}: {text!r}")
        return value

    return parse


def finite_arg(text: str) -> float:
    """Argument type: a finite float (no nan, no inf)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite float: {text!r}")
    return value


def float_list_arg(text: str) -> tuple[float, ...]:
    try:
        return tuple(finite_arg(tok) for tok in text.split(","))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated finite floats: {text!r}"
        )


@dataclass(frozen=True)
class Tier:
    """Per --tier, the defaults of the flags of the same names."""

    r_max: float
    resolution: float
    trials: int
    n: int
    dt: float


TIERS = {
    "quick": Tier(48.0, 0.5, 20, 128, 2e-3),
    "standard": Tier(200.0, 0.25, 200, 256, 1e-3),
    "thorough": Tier(400.0, 0.125, 500, 512, 5e-4),
}


def _load_config_file(path: str) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return json.loads(text)
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line is not key=value: {line!r}")
        key, val = line.split("=", 1)
        out[key.strip().replace("-", "_")] = val.strip()
    return out


def _config_tokens(config: dict, flags: set[str]) -> list[str]:
    """The config entries whose options are among flags, as option tokens
    that are parsed like typed ones: a true JSON value is a bare switch,
    false and null are left out, and a list is joined with commas."""
    tokens = []
    for key, val in config.items():
        flag = "--" + key.replace("_", "-")
        if flag not in flags:
            continue
        if val is True:
            tokens.append(flag)
        elif val is not False and val is not None:
            if isinstance(val, list):
                val = ",".join(str(v) for v in val)
            tokens += [flag, str(val)]
    return tokens


class Rejected(Exception):
    """A kernel-scan point outside the parameter domain: main() prints
    "rejected (...)" on stderr and exits 1, with no report."""


def cmd_admissible(args):
    cfg = {"k": args.k, "l": args.l, "p": args.p, "b": args.b, "b1": args.b1}
    try:
        pt = params.ParamPoint(args.k, args.l, args.p, args.b, args.b1)
    except params.ParamDomainError as exc:
        payload = {"rejected": str(exc), "admissible": False}
        return 1, cfg, payload, [f"rejected ({exc})"], 0.0
    with timer() as tm:
        verdict = params.admissible(pt)
    lines = [f"branch: {verdict.branch}"]
    for label, slack in verdict.margins:
        status = "ok " if label in verdict.satisfied else "VIOLATED"
        lines.append(f"  [{status}] {label}   (slack {slack})")
    lines.append("admissible" if verdict.admissible else "not admissible")
    payload = {
        "admissible": verdict.admissible,
        "branch": verdict.branch,
        "satisfied": verdict.satisfied,
        "violated": verdict.violated,
        "margins": dict(verdict.margins),
    }
    return 0 if verdict.admissible else 1, cfg, payload, lines, tm.elapsed


def cmd_window(args):
    with timer() as tm:
        win = params.b_window(args.k, args.l, args.p)
        win_b, win_b1 = params.b_window_2d(args.k, args.l, args.p)
    def fmt(w):
        lo = "[" if w.lower_inclusive else "("
        hi = "]" if w.upper_inclusive else ")"
        return f"{lo}{w.lower}, {w.upper}{hi}" + ("" if w.nonempty else "  (empty)")
    lines = [
        f"diagonal b = b1 window: {fmt(win)}",
        f"b window:  {fmt(win_b)}",
        f"b1 window: {fmt(win_b1)}",
        f"b1 feasibility ceiling over all k: {win.ceiling_b1}",
    ]
    cfg = {"k": args.k, "l": args.l, "p": args.p}
    return 0, cfg, {"diagonal": win, "b": win_b, "b1": win_b1}, lines, tm.elapsed


def cmd_optimize(args):
    if (args.l is None) != (args.fixed_p is None):
        raise ZaklabError("optimize takes --l and --fixed-p together, or neither")
    if args.l is not None:
        with timer() as tm:
            mk = params.minimal_k(args.l, args.fixed_p)
        lines = [
            f"k infimum at (l, p) = ({args.l}, {args.fixed_p}): {mk.k_inf}"
            + ("  (attained)" if mk.attained else "  (not attained)"),
        ]
        lines += [f"  bound {label}: 2k >= {v}" for label, v in mk.bounds]
        cfg = {"l": args.l, "fixed_p": args.fixed_p}
        payload = {"k_inf": mk.k_inf, "attained": mk.attained, "bounds": dict(mk.bounds)}
        return 0, cfg, payload, lines, tm.elapsed
    with timer() as tm:
        opt = params.optimal_parameters()
    lines = [
        f"p* = {opt.p_star}",
        f"l* = {opt.l_star}",
        f"k infimum = {opt.k_inf} (exclusive)",
        f"b1 ceiling = {opt.ceiling_b1}",
        f"scaling exponents at the infimum: sigma = {opt.sigma}, lambda = {opt.lam}",
        f"all lower bounds for 2k coincide: {opt.bounds_coincide}",
    ]
    payload = {
        "p_star": opt.p_star,
        "l_star": opt.l_star,
        "k_inf": opt.k_inf,
        "ceiling_b1": opt.ceiling_b1,
        "sigma": opt.sigma,
        "lambda": opt.lam,
        "bounds_coincide": opt.bounds_coincide,
        "two_k_bounds": dict(opt.two_k_bounds),
    }
    return 0, {}, payload, lines, tm.elapsed


def cmd_scaling(args):
    with timer() as tm:
        sigma, lam = params.scaling_exponents(args.k, args.l, args.p)
    cfg = {"k": args.k, "l": args.l, "p": args.p}
    lines = [f"sigma = {sigma}", f"lambda = {lam}"]
    return 0, cfg, {"sigma": sigma, "lambda": lam}, lines, tm.elapsed


def cmd_kernel_scan(args):
    if args.violate == "l" and args.family == "both":
        raise kernels.KernelError(
            "--violate l needs --family S or W: each family breaks its own l condition"
        )
    # an unset b or b1 is the middle of the b = b1 window
    b, b1 = args.b, args.b1
    try:
        if b is None or b1 is None:
            win = params.b_window(args.k, args.l, args.p)
            if not win.nonempty:
                raise Rejected(f"empty b window at (k, l, p) = ({args.k}, {args.l}, {args.p})")
            mid = (win.lower + win.upper) / 2
            b, b1 = (mid if b is None else b), (mid if b1 is None else b1)
        pt = params.ParamPoint(args.k, args.l, args.p, b, b1)
    except params.ParamDomainError as exc:
        raise Rejected(exc) from None
    verdict = params.admissible(pt)
    l = pt.l
    violated_note = None
    if args.violate == "l":
        if args.family == "S":
            l = -pt.inv_p - Fraction(1, 4)
            violated_note = "l >= -1/p broken by 1/4"
        else:
            l = 2 * pt.k - (1 - pt.inv_p) + Fraction(1, 2)
            violated_note = "l <= 2k-1/p' broken by 1/2"
    families = ["S", "W"] if args.family == "both" else [args.family]
    signs = ["plus", "minus"] if args.sign == "both" else [args.sign]
    cfg = {
        "k": args.k, "l": l, "p": args.p, "b": pt.b, "b1": pt.b1, "eps": args.eps,
        "family": args.family, "sign": args.sign, "tier": args.tier,
        "radius": args.r_max, "resolution": args.resolution, "violate": args.violate,
    }
    lines = []
    results = {}
    with timer() as tm:
        for fam in families:
            # the masses do not depend on the sign: one scan serves both
            spec = kernels.KernelSpec.from_point(pt, fam, signs[0], eps=float(args.eps))
            if args.violate:
                spec = replace(spec, l=float(l))
            diag = kernels.kernel_sup(spec, args.r_max, resolution=args.resolution)
            completed = (
                "none" if diag.completed is None
                else ['%.4g' % v for v in diag.completed]
            )
            detail = (
                f"{diag.verdict}  values="
                f"{['%.4g' % v for v in diag.values]}  completed="
                f"{completed}  tail_exponents="
                f"{['%.4g' % a for a in diag.tail_exponents]}  ratios="
                f"{['%.4f' % r for r in diag.ratios]}"
            )
            for sign in signs:
                results[f"{fam}/{sign}"] = diag
                lines.append(f"{fam}/{sign}: {detail}")
    payload = {
        "admissible_point": verdict.admissible,
        "violated_note": violated_note,
        "diagnostics": results,
    }
    verdicts = {diag.verdict for diag in results.values()}
    saturated = verdicts == {"saturating"} and verdict.admissible and not args.violate
    if "inconclusive" in verdicts:
        lines.append("inconclusive: raise the tier (or --r-max) and rerun")
    code = 2 if "inconclusive" in verdicts else 0 if saturated else 1
    return code, cfg, payload, lines, tm.elapsed


def cmd_trilinear_test(args):
    rng = np.random.default_rng(args.seed)
    box = (2.0 * np.pi, 2.0 * np.pi)
    shape = (args.grid, args.grid)
    cfg = {
        "tier": args.tier, "trials": args.trials, "grid": args.grid,
        "seed": args.seed, "p_values": args.p_values,
        "family": args.family, "sign": args.sign,
    }
    violations = []
    worst = 0.0
    with timer() as tm:
        for p in args.p_values:
            pf = float(p)
            spec = kernels.KernelSpec(
                family=args.family, sign=args.sign, k=0.0, l=-0.5, p=pf,
                b=1.0 / pf + 0.05, b1=1.0 / pf + 0.05,
                c1=1.0 - (1.0 / pf + 0.05) - 0.01,
                c=1.0 - (1.0 / pf + 0.05) - 0.01,
            )
            for t in range(args.trials):
                triple = [
                    grids.GridFunction(rng.uniform(size=shape), box)
                    for _ in range(3)
                ]
                lhs, rhs = kernels.trilinear_probe(*triple, spec)
                ratio = lhs / rhs if rhs > 0 else 0.0
                worst = max(worst, ratio)
                if lhs > rhs * (1.0 + 1e-6):
                    violations.append({"p": p, "trial": t, "lhs": lhs, "rhs": rhs})
    lines = [
        f"{args.trials} trials per p over p in {[str(p) for p in args.p_values]}: "
        f"{len(violations)} violations, worst lhs/rhs = {worst:.4f}"
    ]
    payload = {"violations": violations, "worst_ratio": worst}
    return 0 if not violations else 1, cfg, payload, lines, tm.elapsed


def cmd_simulate(args):
    cfg = solver.SolverConfig(
        n=args.n, box=args.box, dt=args.dt, t_final=args.t_final,
        regularized=not args.unregularized, sample_stride=args.sample_stride,
    )
    conf = {
        "preset": args.preset, "n": args.n, "box": args.box, "dt": args.dt,
        "t_final": args.t_final, "regularized": cfg.regularized,
        "amplitude": args.amplitude, "tier": args.tier, "sample_stride": cfg.sample_stride,
    }
    x = -cfg.box / 2 + np.arange(cfg.n) * (cfg.box / cfg.n)
    kappa = 2.0 * np.pi * 4 / cfg.box
    if args.preset == "plane-wave":
        u0 = args.amplitude * np.exp(1j * kappa * x)
        n0, n1 = np.ones(cfg.n), np.zeros(cfg.n)
    else:
        u0 = args.amplitude * np.exp(-(x**2) / 2.0) * (1.0 + 0.3j)
        n0 = -np.abs(u0) ** 2
        n1 = args.amplitude * x * np.exp(-(x**2) / 3.0)
        n1 = n1 - n1.mean()
    with timer() as tm:
        trace = solver.evolve(u0, n0, n1, cfg)
    mass = trace.series["mass"]
    payload = {
        "samples": len(trace.times),
        "mass_drift": float(np.max(np.abs(mass - mass[0]))),
        "truncated": trace.truncated,
        "blowup_time": trace.blowup_time,
    }
    lines = [
        f"integrated to t = {trace.times[-1]:.6g} "
        f"({'blow-up at %.6g' % trace.blowup_time if trace.truncated else 'complete'})",
        f"mass drift = {payload['mass_drift']:.3e}",
    ]
    if args.preset == "plane-wave" and not trace.truncated:
        exact = solver.plane_wave_solution(args.amplitude, kappa, 1.0, x, trace.times[-1])
        err = float(np.max(np.abs(trace.final_u - exact)))
        payload["plane_wave_error"] = err
        lines.append(f"closed-form error = {err:.3e}")
    if args.csv_out:
        header = ["t"] + sorted(trace.series)
        rows = [
            [trace.times[i]] + [trace.series[key][i] for key in sorted(trace.series)]
            for i in range(len(trace.times))
        ]
        write_csv(args.csv_out, header, rows)
        lines.append(f"series written to {args.csv_out}")
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            for i in range(len(trace.times)):
                row = {"t": float(trace.times[i]), "truncated": trace.truncated}
                row.update(
                    {key: float(trace.series[key][i]) for key in sorted(trace.series)}
                )
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        lines.append(f"per-sample trace written to {args.trace_out}")
    if args.snapshot_out and trace.final_u is not None:
        grids.save_grid(grids.from_samples(trace.final_u, cfg.box), args.snapshot_out)
        lines.append(f"final u snapshot written to {args.snapshot_out}")
    return 0, conf, payload, lines, tm.elapsed


def cmd_lipschitz(args):
    cfg = solver.SolverConfig(
        n=args.n, box=args.box, dt=args.dt, t_final=args.t_final,
        sample_stride=args.sample_stride,
    )
    seeds = tuple(range(1, args.seeds + 1))
    conf = {
        "k": args.k, "l": args.l, "p": args.p,
        "amplitude": args.amplitude, "deltas": args.deltas,
        "seeds": args.seeds, "n": args.n, "dt": args.dt, "box": args.box,
        "t_final": args.t_final, "tier": args.tier, "sample_stride": cfg.sample_stride,
    }
    with timer() as tm:
        rep = solver.lipschitz_probe(
            float(args.k), float(args.l), float(args.p),
            args.amplitude, args.deltas, seeds, cfg,
        )
    lines = ["seed   " + "  ".join(f"delta={d:g}" for d in args.deltas)]
    for seed in seeds:
        row = rep.ratios[seed]
        cells = "  ".join(
            "exact" if row[d] is None else f"{row[d]:.5f}" for d in args.deltas
        )
        lines.append(f"{seed:4d}   {cells}")
    lines.append(f"max ratio spread across deltas: {rep.max_stability():.4f}")
    if args.csv_out:
        rows = [
            [seed, delta, "" if r is None else r]
            for seed, row in rep.ratios.items()
            for delta, r in row.items()
        ]
        write_csv(args.csv_out, ["seed", "delta", "ratio"], rows)
        lines.append(f"ratio table written to {args.csv_out}")
    # the payload holds every field of the report
    return 0, conf, vars(rep), lines, tm.elapsed


def cmd_lifespan(args):
    cfg = solver.SolverConfig(n=args.n, box=args.box, dt=args.dt, t_final=args.t_final)
    conf = {
        "mu": args.mu, "amplitude": args.amplitude, "n": args.n, "dt": args.dt,
        "box": args.box, "t_final": args.t_final,
    }
    u0, n0, n1 = solver.gaussian_focusing_data(args.n, args.box, args.amplitude)
    with timer() as tm:
        rep = solver.lifespan_probe(u0, n0, n1, args.mu, cfg)
    lines = [
        "mu -> departure time: "
        + ", ".join(
            f"{mu:g} -> {'none' if t is None else '%.6g' % t}"
            for mu, t in rep.departure_times.items()
        ),
        f"log-log slope = {rep.slope if rep.slope is not None else 'n/a'} "
        f"(reference {rep.reference_slope})",
    ]
    if rep.inconclusive:
        lines.append("inconclusive: no departure within budget for some mu")
    if args.csv_out:
        rows = [
            [mu, "" if t is None else t]
            for mu, t in sorted(rep.departure_times.items())
        ]
        write_csv(args.csv_out, ["mu", "departure_time"], rows)
        lines.append(f"departure table written to {args.csv_out}")
    # the payload holds every field of the report
    return 0, conf, vars(rep), lines, tm.elapsed


POINT = ("k", "l", "p")
# name: (function, help, required rational flags, takes --tier, exact: no numpy)
COMMANDS = {
    "admissible": (cmd_admissible, "exact admissibility verdict", POINT + ("b", "b1"),
                   False, True),
    "window": (cmd_window, "feasible b = b1 interval at (k, l, p)", POINT, False, True),
    "optimize": (cmd_optimize, "global optimum or minimal k on a line", (), False, True),
    "scaling": (cmd_scaling, "Sobolev scaling exponents (sigma, lambda)", POINT, False, True),
    "kernel-scan": (cmd_kernel_scan, "saturation scan of the kernel suprema", POINT, True, False),
    "trilinear-test": (cmd_trilinear_test, "randomized trilinear bound suite", (), True, False),
    "simulate": (cmd_simulate, "pseudospectral evolution with diagnostics", (), True, False),
    "lipschitz": (cmd_lipschitz, "flow-map difference-quotient probe", POINT, True, False),
    "lifespan": (cmd_lifespan, "departure-time scaling under dilation", (), False, False),
}


# a bare negative value such as -1/2, -1e-2 or -1e-2,1e-3, which argparse
# would take for an option; main() joins it to the option before it, as
# --l=-1/2.  No zaklab option starts with a digit or a dot.
_NEGATIVE_VALUE = re.compile(r"^-[\d.]")


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with every bare negative value joined to the long option
    before it (--l -7/12 becomes --l=-7/12)."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (_NEGATIVE_VALUE.match(tok) and prev.startswith("--")
                and len(prev) > 2 and "=" not in prev):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line, exit 2, and records the
    option strings it accepts in flags."""

    def __init__(self, *args, **kwargs):
        self.flags: set[str] = set()
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags.update(action.option_strings)
        return action

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = _Parser(
        prog="zaklab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="key=value or JSON defaults file")
    subs = parser.add_subparsers(dest="command", required=True)
    submap = {}
    for name, (func, help_text, rationals, tiered, _) in COMMANDS.items():
        s = submap[name] = subs.add_parser(name, help=help_text)
        s.set_defaults(func=func)
        s.add_argument("--json", action="store_true", help="print the report as JSON")
        s.add_argument("--jsonl-out", help="append the report to a JSON-lines file")
        if tiered:
            s.add_argument("--tier", choices=sorted(TIERS), default="standard")
        for flag in rationals:
            s.add_argument(f"--{flag}", type=rational_arg, required=True)
    for name in ("simulate", "lipschitz", "lifespan"):
        s = submap[name]
        s.add_argument("--n", type=int)
        s.add_argument("--box", type=finite_arg, default=32.0)
        s.add_argument("--dt", type=finite_arg)
        if name != "lifespan":  # the lifespan probe observes every step
            s.add_argument("--sample-stride", type=int, default=25)

    s = submap["optimize"]
    s.add_argument("--l", type=rational_arg)
    s.add_argument("--fixed-p", type=rational_arg)

    s = submap["kernel-scan"]
    s.add_argument("--b", type=rational_arg)
    s.add_argument("--b1", type=rational_arg)
    s.add_argument("--eps", type=positive_rational_arg, default=Fraction(1, 100))
    s.add_argument("--family", choices=["S", "W", "both"], default="both")
    s.add_argument("--sign", choices=["plus", "minus", "both"], default="both")
    s.add_argument("--r-max", type=positive_arg(float))
    s.add_argument("--resolution", type=positive_arg(float))
    s.add_argument("--violate", choices=["l"], default=None,
                   help="probe with the family's l condition broken "
                        "(needs --family S or W)")

    s = submap["trilinear-test"]
    s.add_argument("--p-values",
                   type=lambda t: tuple(rational_arg(v) for v in t.split(",")),
                   default=(Fraction(3, 2), Fraction(12, 7), Fraction(2)))
    s.add_argument("--trials", type=positive_arg(int))
    s.add_argument("--grid", type=positive_arg(int), default=64)
    s.add_argument("--seed", type=positive_arg(int, zero_ok=True), default=0)
    s.add_argument("--family", choices=["S", "W"], default="S")
    s.add_argument("--sign", choices=["plus", "minus"], default="minus")

    s = submap["simulate"]
    s.add_argument("--preset", choices=["plane-wave", "gaussian"], default="plane-wave")
    s.add_argument("--amplitude", type=finite_arg, default=1.0)
    s.add_argument("--t-final", type=finite_arg, default=1.0)
    s.add_argument("--unregularized", action="store_true")
    s.add_argument("--csv-out", help="write the sampled series as CSV")
    s.add_argument("--trace-out", help="write one JSON line per sample")
    s.add_argument("--snapshot-out", help="write the final u field snapshot")

    s = submap["lipschitz"]
    s.add_argument("--amplitude", type=finite_arg, default=1.0)
    s.add_argument("--deltas", type=float_list_arg, default=(1e-2, 1e-3, 1e-4))
    s.add_argument("--seeds", type=positive_arg(int), default=5)
    s.add_argument("--t-final", type=finite_arg, default=0.25)
    s.add_argument("--csv-out", help="write the ratio table as CSV")

    s = submap["lifespan"]
    s.set_defaults(n=512, dt=1e-4)
    s.add_argument("--mu", type=float_list_arg, default=(1.0, 2.0, 4.0))
    s.add_argument("--amplitude", type=finite_arg, default=12.0)
    s.add_argument("--t-final", type=finite_arg, default=0.5)
    s.add_argument("--csv-out", help="write the departure-time table as CSV")

    return parser, submap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, submap = build_parser()
    at = next((i for i, a in enumerate(argv)
               if a == "--config" or a.startswith("--config=")), None)
    if at is not None:
        # the path is joined (--config=FILE) or the next token
        _, joined, path = argv[at].partition("=")
        path_at = at if joined else at + 1
        if path_at >= len(argv):
            parser.error("--config needs a path")
        try:
            config = _load_config_file(path if joined else argv[path_at])
        except (OSError, ValueError) as exc:
            parser.error(f"--config: {exc}")
        # right after the subcommand, so that explicit flags come later and
        # win; keys the subcommand does not take are left out
        command = next(
            (i for i, a in enumerate(argv) if a in submap and i != path_at), None
        )
        if command is not None:
            flags = submap[argv[command]].flags
            argv[command + 1:command + 1] = _config_tokens(config, flags)
    args = parser.parse_args(_join_negative_values(argv))
    if not COMMANDS[args.command][4]:
        _load_numeric_layers()
    if "tier" in args:
        for key, value in vars(TIERS[args.tier]).items():
            if getattr(args, key, value) is None:
                setattr(args, key, value)
    try:
        code, config, payload, lines, seconds = args.func(args)
        report = make_report(args.command, config, payload, seconds)
        if args.jsonl_out:
            write_jsonl(report, args.jsonl_out)
    except Rejected as exc:
        print(f"rejected ({exc})", file=sys.stderr)
        return 1
    except (ZaklabError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    try:
        print(report.to_json() if args.json else "\n".join(lines), flush=True)
    except OSError as exc:
        # what is left in the buffer goes nowhere, so that the flush at exit
        # cannot fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return EXIT_BROKEN_PIPE
        print(f"{parser.prog}: error: stdout: {exc.strerror}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
