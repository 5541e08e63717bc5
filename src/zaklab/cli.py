"""Command-line front end.

Subcommands: admissible, window, optimize, scaling, kernel-scan,
trilinear-test, simulate, lipschitz, lifespan.  Parameter-region commands
take exact rational literals ("-1/12"); decimals are rejected there so
exactness cannot silently degrade.  A config file (key=value lines or a
JSON object) may supply flags, required ones included; explicit flags
override it.  Kernel scans honor the ZAKLAB_WORKERS environment variable
for data-parallel outer grids.  Reports go to stdout (--json) and/or
JSON-lines files (--jsonl-out); series data is emitted as plain CSV
(--csv-out).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, grids, kernels, params, solver
from .reports import Report, jsonable, make_report, timer, write_csv, write_jsonl


def rational_arg(text: str) -> Fraction:
    try:
        return params.as_rational(text)
    except params.ParamDomainError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def positive_arg(kind):
    """Argument type: a finite positive value of kind (int or float)."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = 0
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"expected a positive {kind.__name__}: {text!r}")
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
    kernel_radius: float
    kernel_resolution: float
    trilinear_trials: int
    solver_n: int
    solver_dt: float


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


def _emit(args, report: Report, human_lines: list[str]) -> None:
    if not getattr(args, "json", False):
        for line in human_lines:
            print(line)
    else:
        print(report.to_json())
    if getattr(args, "jsonl_out", None):
        write_jsonl(report, args.jsonl_out)


def _point_from_args(args) -> params.ParamPoint:
    return params.ParamPoint(args.k, args.l, args.p, args.b, args.b1)


def _resolved(args, keys) -> dict:
    out = {}
    for key in keys:
        val = getattr(args, key)
        out[key] = str(val) if isinstance(val, Fraction) else val
    return out


def cmd_admissible(args) -> int:
    cfg = _resolved(args, ("k", "l", "p", "b", "b1"))
    try:
        pt = _point_from_args(args)
    except params.ParamDomainError as exc:
        report = make_report(
            "admissible", cfg, {"rejected": str(exc), "admissible": False}, 0.0
        )
        _emit(args, report, [f"rejected ({exc})"])
        return 1
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
        "satisfied": list(verdict.satisfied),
        "violated": list(verdict.violated),
        "margins": {label: str(s) for label, s in verdict.margins},
    }
    _emit(args, make_report("admissible", cfg, payload, tm.elapsed), lines)
    return 0 if verdict.admissible else 1


def cmd_window(args) -> int:
    cfg = _resolved(args, ("k", "l", "p"))
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
    payload = {"diagonal": jsonable(win), "b": jsonable(win_b), "b1": jsonable(win_b1)}
    _emit(args, make_report("window", cfg, payload, tm.elapsed), lines)
    return 0


def cmd_optimize(args) -> int:
    if args.l is not None and args.fixed_p is not None:
        cfg = {"l": str(args.l), "fixed_p": str(args.fixed_p)}
        with timer() as tm:
            mk = params.minimal_k(args.l, args.fixed_p)
        lines = [
            f"k infimum at (l, p) = ({args.l}, {args.fixed_p}): {mk.k_inf}"
            + ("  (attained)" if mk.attained else "  (not attained)"),
        ]
        lines += [f"  bound {label}: 2k >= {v}" for label, v in mk.bounds]
        payload = {
            "k_inf": str(mk.k_inf),
            "attained": mk.attained,
            "bounds": {label: str(v) for label, v in mk.bounds},
        }
        _emit(args, make_report("optimize", cfg, payload, tm.elapsed), lines)
        return 0
    cfg = {}
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
        "p_star": str(opt.p_star),
        "l_star": str(opt.l_star),
        "k_inf": str(opt.k_inf),
        "ceiling_b1": str(opt.ceiling_b1),
        "sigma": str(opt.sigma),
        "lambda": str(opt.lam),
        "bounds_coincide": opt.bounds_coincide,
        "two_k_bounds": {label: str(v) for label, v in opt.two_k_bounds},
    }
    _emit(args, make_report("optimize", cfg, payload, tm.elapsed), lines)
    return 0


def cmd_scaling(args) -> int:
    cfg = _resolved(args, ("k", "l", "p"))
    with timer() as tm:
        sigma, lam = params.scaling_exponents(args.k, args.l, args.p)
    lines = [f"sigma = {sigma}", f"lambda = {lam}"]
    payload = {"sigma": str(sigma), "lambda": str(lam)}
    _emit(args, make_report("scaling", cfg, payload, tm.elapsed), lines)
    return 0


def _kernel_point(args) -> tuple[params.ParamPoint, Fraction]:
    """Resolve the scan point; b = b1 defaults to mid-window."""
    eps = args.eps
    if args.b is None or args.b1 is None:
        win = params.b_window(args.k, args.l, args.p)
        if not win.nonempty:
            raise params.ParamDomainError(
                f"empty b window at (k, l, p) = ({args.k}, {args.l}, {args.p})"
            )
        mid = (win.lower + win.upper) / 2
        b = args.b if args.b is not None else mid
        b1 = args.b1 if args.b1 is not None else mid
    else:
        b, b1 = args.b, args.b1
    return params.ParamPoint(args.k, args.l, args.p, b, b1), eps


def cmd_kernel_scan(args) -> int:
    if args.violate == "l" and args.family == "both":
        raise kernels.KernelError(
            "--violate l needs --family S or W: each family breaks its own l condition"
        )
    tier = TIERS[args.tier]
    radius = args.r_max if args.r_max is not None else tier.kernel_radius
    resolution = (
        args.resolution if args.resolution is not None else tier.kernel_resolution
    )
    try:
        pt, eps = _kernel_point(args)
    except params.ParamDomainError as exc:
        print(f"rejected ({exc})", file=sys.stderr)
        return 1
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
        **_resolved(args, ("k", "p")),
        "l": str(l),
        "b": str(pt.b),
        "b1": str(pt.b1),
        "eps": str(eps),
        "family": args.family,
        "sign": args.sign,
        "tier": args.tier,
        "radius": radius,
        "resolution": resolution,
        "violate": args.violate,
    }
    lines = []
    results = {}
    with timer() as tm:
        for fam in families:
            # the masses do not depend on the sign: one scan serves both
            spec = kernels.KernelSpec.from_point(pt, fam, signs[0], eps=float(eps))
            if args.violate:
                spec = replace(spec, l=float(l))
            diag = kernels.kernel_sup(spec, radius, resolution=resolution)
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
        "diagnostics": {key: jsonable(diag) for key, diag in results.items()},
    }
    report = make_report("kernel-scan", cfg, payload, tm.elapsed)
    verdicts = [diag.verdict for diag in results.values()]
    if any(v == "inconclusive" for v in verdicts):
        lines.append("inconclusive: raise the tier (or --r-max) and rerun")
        _emit(args, report, lines)
        return 2
    _emit(args, report, lines)
    if all(v == "saturating" for v in verdicts) and verdict.admissible and not args.violate:
        return 0
    return 1


def cmd_trilinear_test(args) -> int:
    tier = TIERS[args.tier]
    trials = args.trials if args.trials is not None else tier.trilinear_trials
    p_values = args.p_values
    rng = np.random.default_rng(args.seed)
    box = (2.0 * np.pi, 2.0 * np.pi)
    shape = (args.grid, args.grid)
    cfg = {
        "tier": args.tier, "trials": trials, "grid": args.grid,
        "seed": args.seed, "p_values": [str(p) for p in p_values],
        "family": args.family, "sign": args.sign,
    }
    violations = []
    worst = 0.0
    with timer() as tm:
        for p in p_values:
            pf = float(p)
            spec = kernels.KernelSpec(
                family=args.family, sign=args.sign, k=0.0, l=-0.5, p=pf,
                b=1.0 / pf + 0.05, b1=1.0 / pf + 0.05,
                c1=1.0 - (1.0 / pf + 0.05) - 0.01,
                c=1.0 - (1.0 / pf + 0.05) - 0.01,
            )
            for t in range(trials):
                triple = [
                    grids.GridFunction(rng.uniform(size=shape), box)
                    for _ in range(3)
                ]
                lhs, rhs = kernels.trilinear_probe(*triple, spec)
                ratio = lhs / rhs if rhs > 0 else 0.0
                worst = max(worst, ratio)
                if lhs > rhs * (1.0 + 1e-6):
                    violations.append({"p": str(p), "trial": t, "lhs": lhs, "rhs": rhs})
    lines = [
        f"{trials} trials per p over p in {[str(p) for p in p_values]}: "
        f"{len(violations)} violations, worst lhs/rhs = {worst:.4f}"
    ]
    payload = {"violations": violations, "worst_ratio": worst}
    _emit(args, make_report("trilinear-test", cfg, payload, tm.elapsed), lines)
    return 0 if not violations else 1


def _simulate_data(args, cfg: solver.SolverConfig):
    x = -cfg.box / 2 + np.arange(cfg.n) * (cfg.box / cfg.n)
    if args.preset == "plane-wave":
        kappa = 2.0 * np.pi * 4 / cfg.box
        u0 = args.amplitude * np.exp(1j * kappa * x)
        n0 = np.ones(cfg.n)
        n1 = np.zeros(cfg.n)
        extras = {"kappa": kappa, "nu": 1.0}
    elif args.preset == "gaussian":
        u0 = args.amplitude * np.exp(-(x**2) / 2.0) * (1.0 + 0.3j)
        n0 = -np.abs(u0) ** 2
        n1 = args.amplitude * x * np.exp(-(x**2) / 3.0)
        n1 = n1 - n1.mean()
        extras = {}
    else:
        raise ValueError(f"unknown preset {args.preset!r}")
    return u0, n0, n1, extras


def cmd_simulate(args) -> int:
    tier = TIERS[args.tier]
    n = args.n if args.n is not None else tier.solver_n
    dt = args.dt if args.dt is not None else tier.solver_dt
    cfg = solver.SolverConfig(
        n=n, box=args.box, dt=dt, t_final=args.t_final,
        regularized=not args.unregularized, sample_stride=args.sample_stride,
    )
    conf = {
        "preset": args.preset, "n": n, "box": args.box, "dt": dt,
        "t_final": args.t_final, "regularized": cfg.regularized,
        "amplitude": args.amplitude, "tier": args.tier,
    }
    u0, n0, n1, extras = _simulate_data(args, cfg)
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
        x = -cfg.box / 2 + np.arange(cfg.n) * (cfg.box / cfg.n)
        exact = solver.plane_wave_solution(
            args.amplitude, extras["kappa"], extras["nu"], x, trace.times[-1]
        )
        err = float(np.max(np.abs(trace.final_state.u - exact)))
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
    if args.snapshot_out and trace.final_state is not None:
        grids.save_grid(
            grids.from_samples(trace.final_state.u, cfg.box), args.snapshot_out
        )
        lines.append(f"final u snapshot written to {args.snapshot_out}")
    _emit(args, make_report("simulate", conf, payload, tm.elapsed), lines)
    return 0


def cmd_lipschitz(args) -> int:
    tier = TIERS[args.tier]
    n = args.n if args.n is not None else tier.solver_n
    dt = args.dt if args.dt is not None else tier.solver_dt
    cfg = solver.SolverConfig(
        n=n, box=args.box, dt=dt, t_final=args.t_final, sample_stride=args.sample_stride
    )
    seeds = tuple(range(1, args.seeds + 1))
    conf = {
        **_resolved(args, ("k", "l", "p")),
        "amplitude": args.amplitude, "deltas": list(args.deltas),
        "seeds": args.seeds, "n": n, "dt": dt, "box": args.box,
        "t_final": args.t_final, "tier": args.tier,
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
    payload = {
        "ratios": {str(s): {str(d): r for d, r in row.items()}
                   for s, row in rep.ratios.items()},
        "stability": {str(s): v for s, v in rep.stability.items()},
        "truncations": list(rep.truncations),
    }
    if args.csv_out:
        rows = [
            [seed, delta, "" if r is None else r]
            for seed, row in rep.ratios.items()
            for delta, r in row.items()
        ]
        write_csv(args.csv_out, ["seed", "delta", "ratio"], rows)
        lines.append(f"ratio table written to {args.csv_out}")
    _emit(args, make_report("lipschitz", conf, payload, tm.elapsed), lines)
    return 0


def cmd_lifespan(args) -> int:
    n = args.n if args.n is not None else 512
    dt = args.dt if args.dt is not None else 1e-4
    cfg = solver.SolverConfig(
        n=n, box=args.box, dt=dt, t_final=args.t_final, sample_stride=1
    )
    conf = {
        "mu": list(args.mu), "amplitude": args.amplitude, "n": n, "dt": dt,
        "box": args.box, "t_final": args.t_final,
    }
    u0, n0, n1 = solver.gaussian_focusing_data(n, args.box, args.amplitude)
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
    payload = {
        "departure_times": {str(m): t for m, t in rep.departure_times.items()},
        "slope": rep.slope,
        "reference_slope": rep.reference_slope,
        "inconclusive": rep.inconclusive,
        "monitored": rep.monitored,
    }
    if args.csv_out:
        rows = [
            [mu, "" if t is None else t]
            for mu, t in sorted(rep.departure_times.items())
        ]
        write_csv(args.csv_out, ["mu", "departure_time"], rows)
        lines.append(f"departure table written to {args.csv_out}")
    _emit(args, make_report("lifespan", conf, payload, tm.elapsed), lines)
    return 0


def _add_common(sub, required_rationals=(), optional_rationals=(), solver_opts=False):
    sub.add_argument("--json", action="store_true", help="print the report as JSON")
    sub.add_argument("--jsonl-out", help="append the report to a JSON-lines file")
    sub.add_argument("--tier", choices=sorted(TIERS), default="standard")
    for name in required_rationals:
        sub.add_argument(f"--{name}", type=rational_arg, required=True)
    for name in optional_rationals:
        sub.add_argument(f"--{name}", type=rational_arg, default=None)
    if solver_opts:
        sub.add_argument("--n", type=int, default=None)
        sub.add_argument("--box", type=finite_arg, default=32.0)
        sub.add_argument("--dt", type=finite_arg, default=None)
        sub.add_argument("--sample-stride", type=int, default=25)


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

    s = submap["admissible"] = subs.add_parser(
        "admissible", help="exact admissibility verdict"
    )
    _add_common(s, required_rationals=("k", "l", "p", "b", "b1"))
    s.set_defaults(func=cmd_admissible)

    s = submap["window"] = subs.add_parser(
        "window", help="feasible b = b1 interval at (k, l, p)"
    )
    _add_common(s, required_rationals=("k", "l", "p"))
    s.set_defaults(func=cmd_window)

    s = submap["optimize"] = subs.add_parser(
        "optimize", help="global optimum or minimal k on a line"
    )
    s.add_argument("--l", type=rational_arg, default=None)
    s.add_argument("--fixed-p", type=rational_arg, default=None)
    _add_common(s)
    s.set_defaults(func=cmd_optimize)

    s = submap["scaling"] = subs.add_parser(
        "scaling", help="Sobolev scaling exponents (sigma, lambda)"
    )
    _add_common(s, required_rationals=("k", "l", "p"))
    s.set_defaults(func=cmd_scaling)

    s = submap["kernel-scan"] = subs.add_parser(
        "kernel-scan", help="saturation scan of the kernel suprema"
    )
    _add_common(s, required_rationals=("k", "l", "p"), optional_rationals=("b", "b1"))
    s.add_argument("--eps", type=rational_arg, default=Fraction(1, 100))
    s.add_argument("--family", choices=["S", "W", "both"], default="both")
    s.add_argument("--sign", choices=["plus", "minus", "both"], default="both")
    s.add_argument("--r-max", type=positive_arg(float), default=None)
    s.add_argument("--resolution", type=positive_arg(float), default=None)
    s.add_argument("--violate", choices=["l"], default=None,
                   help="probe with the family's l condition broken "
                        "(needs --family S or W)")
    s.set_defaults(func=cmd_kernel_scan)

    s = submap["trilinear-test"] = subs.add_parser(
        "trilinear-test", help="randomized trilinear bound suite"
    )
    s.add_argument("--p-values",
                   type=lambda t: tuple(rational_arg(v) for v in t.split(",")),
                   default=(Fraction(3, 2), Fraction(12, 7), Fraction(2)))
    s.add_argument("--trials", type=positive_arg(int), default=None)
    s.add_argument("--grid", type=int, default=64)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--family", choices=["S", "W"], default="S")
    s.add_argument("--sign", choices=["plus", "minus"], default="minus")
    _add_common(s)
    s.set_defaults(func=cmd_trilinear_test)

    s = submap["simulate"] = subs.add_parser(
        "simulate", help="pseudospectral evolution with diagnostics"
    )
    s.add_argument("--preset", choices=["plane-wave", "gaussian"], default="plane-wave")
    s.add_argument("--amplitude", type=finite_arg, default=1.0)
    s.add_argument("--t-final", type=finite_arg, default=1.0)
    s.add_argument("--unregularized", action="store_true")
    s.add_argument("--csv-out", help="write the sampled series as CSV")
    s.add_argument("--trace-out", help="write one JSON line per sample")
    s.add_argument("--snapshot-out", help="write the final u field snapshot")
    _add_common(s, solver_opts=True)
    s.set_defaults(func=cmd_simulate)

    s = submap["lipschitz"] = subs.add_parser(
        "lipschitz", help="flow-map difference-quotient probe"
    )
    s.add_argument("--amplitude", type=finite_arg, default=1.0)
    s.add_argument("--deltas", type=float_list_arg, default=(1e-2, 1e-3, 1e-4))
    s.add_argument("--seeds", type=positive_arg(int), default=5)
    s.add_argument("--t-final", type=finite_arg, default=0.25)
    s.add_argument("--csv-out", help="write the ratio table as CSV")
    _add_common(s, required_rationals=("k", "l", "p"), solver_opts=True)
    s.set_defaults(func=cmd_lipschitz)

    s = submap["lifespan"] = subs.add_parser(
        "lifespan", help="departure-time scaling under dilation"
    )
    s.add_argument("--mu", type=float_list_arg, default=(1.0, 2.0, 4.0))
    s.add_argument("--amplitude", type=finite_arg, default=12.0)
    s.add_argument("--t-final", type=finite_arg, default=0.5)
    s.add_argument("--csv-out", help="write the departure-time table as CSV")
    _add_common(s, solver_opts=True)
    s.set_defaults(func=cmd_lifespan)

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
    try:
        return args.func(args)
    except (params.ParamDomainError, grids.GridError, solver.SolverError,
            kernels.KernelError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
