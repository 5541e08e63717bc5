"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Tolerances are the stated ones, pinned here.

Criterion 6 scans the optimal rough point 1/100 above the admissibility
infimum, (k, l, p) = (-1/12 + 1/100, -7/12, 12/7) with b = b1 = 59/80
mid-window.  There the wave-source xi2 integrand, with sigma2 integrated
over the real line, decays like |xi2|^(-1-alpha): the amplitude
<xi + xi2>^(-kp) <xi2>^(-kp) grows like |xi2|^(-2kp), and the sigma2
integral decays like 2 C(b1 p) |2 xi xi2|^(-b1 p), with
C(e) = int <s>^(-e) ds.  So alpha = (b1 + 2k - 1/p) p, the slack of the
constraint 2k > 1/p - b1 times p: 9/700 at mid-window, and it ranges over
(0, 9/350) across the b window.  A mass truncated to |xi2| <= R misses a
remainder of order R^(-alpha) / alpha, and that rate is only asymptotic:
at the argmax (1.5, 0) the truncated mass is 18.0, 22.7, 27.6 and 32.8 on
the R = 200 ladder, still 60.4 at R = 6400 with doubling increments still
growing, against a full integral near 750.  The sigma2 window [-R, R]
adds a second slow part, since it misses the sigma1 ~ 0 peak whenever
that lies beyond R.  kernel_sup therefore takes its verdict on masses
with sigma2 over the real line and the xi2 remainder beyond R added in
closed form (see zaklab.kernels); truncated in both variables, the two
wave-source cells measured a final doubling ratio of 1.1864 against the
stated 1.1 bound.
"""

import math
import time
from fractions import Fraction as F

import numpy as np

from zaklab import grids as G
from zaklab import kernels as K
from zaklab import params as P
from zaklab import solver as S


def _criterion(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {description}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_exact_optimum():
    t0 = time.perf_counter()
    opt = P.optimal_parameters()
    elapsed = time.perf_counter() - t0
    ok = (
        (opt.p_star, opt.l_star, opt.k_inf) == (F(12, 7), F(-7, 12), F(-1, 12))
        and opt.ceiling_b1 == F(3, 4)
        and opt.bounds_coincide
        and elapsed < 1.0
    )
    _criterion(1, "exact optimum (12/7, -7/12, -1/12), ceiling 3/4", ok,
               f"{elapsed * 1e3:.1f} ms")


def test_criterion_02_scaling_exponents():
    t0 = time.perf_counter()
    cases = [
        ((F(0), F(-1, 2), F(2)), (F(0), F(-1, 2))),
        ((F(-1, 12), F(-7, 12), F(12, 7)), (F(-1, 6), F(-2, 3))),
        ((F(0), F(-2, 3), F(3, 2)), (F(-1, 6), F(-5, 6))),
    ]
    ok = all(P.scaling_exponents(*args) == expect for args, expect in cases)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _criterion(2, "scaling exponents for the three worked examples", ok)


def test_criterion_03_wave_improvement_line():
    t0 = time.perf_counter()
    good, bad = [], []
    for p in (F(31, 20), F(8, 5), F(7, 4), F(2)):
        beta = 1 / p + F(1, 100)
        v = P.admissible(P.ParamPoint(0, -1 / p, p, beta, beta))
        good.append(v.admissible)
    p = F(3, 2)
    beta = 1 / p + F(1, 100)
    v = P.admissible(P.ParamPoint(0, -1 / p, p, beta, beta))
    bad = (not v.admissible) and ("k-l < 2(1-b1)" in v.violated)
    elapsed = time.perf_counter() - t0
    ok = all(good) and bad and elapsed < 1.0
    _criterion(3, "l = -1/p line admissible for p > 3/2, fails at 3/2", ok)


def test_criterion_04_dilation_law():
    t0 = time.perf_counter()
    N, L = 4096, 64.0
    x = -L / 2 + np.arange(N) * (L / N)
    u = G.from_samples(np.exp(-(x**2) / 2), L)
    ok = True
    details = []
    for mu in (2.0, 4.0):
        d = G.dilate(u, mu, 1.5)
        r_l2 = G.hat_norm(d, 0.0, 2.0, homogeneous=True) / G.hat_norm(
            u, 0.0, 2.0, homogeneous=True
        )
        ok &= abs(r_l2 - mu ** (0.0 + 1.0)) <= 1e-4 * mu
        k, p = -1 / 12, 12 / 7
        r_kp = G.hat_norm(d, k, p, homogeneous=True) / G.hat_norm(
            u, k, p, homogeneous=True
        )
        expect = mu ** (k - 1 / p + 1.5)
        ok &= abs(r_kp - expect) <= 1e-4 * expect
        details.append(f"mu={mu:g}: {r_l2:.6f}, {r_kp:.6f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _criterion(4, "dilation norm laws mu^(k+1) and mu^(k-1/p+3/2)", ok,
               "; ".join(details))


def test_criterion_05_trilinear_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    box = (2.0 * np.pi, 2.0 * np.pi)
    violations = 0
    worst = 0.0
    for p in (1.5, 12 / 7, 2.0):
        beta = 1.0 / p + 0.05
        spec = K.KernelSpec("S", "minus", k=0.0, l=-0.5, p=p,
                            b=beta, b1=beta, c1=1.0 - beta - 0.01)
        for _ in range(200):
            fields = [
                G.GridFunction(rng.uniform(size=(64, 64)), box)
                for _ in range(3)
            ]
            lhs, rhs = K.trilinear_probe(*fields, spec)
            worst = max(worst, lhs / rhs)
            if lhs > rhs * (1.0 + 1e-6):
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 300.0
    _criterion(5, "600 trilinear trials (200 per p), zero violations", ok,
               f"worst lhs/rhs = {worst:.4f}, {elapsed:.0f} s")


def _mid_window_point(k, l, p):
    w = P.b_window(k, l, p)
    beta = (w.lower + w.upper) / 2
    return P.ParamPoint(k, l, p, beta, beta)


def test_criterion_06_kernel_saturation_inside_region():
    t0 = time.perf_counter()
    points = {
        "corner": _mid_window_point(F(0), F(-1, 2), F(2)),
        "optimal": _mid_window_point(F(-1, 12) + F(1, 100), F(-7, 12), F(12, 7)),
    }
    failures = []
    for name, pt in points.items():
        for family in ("S", "W"):
            for sign in ("plus", "minus"):
                spec = K.KernelSpec.from_point(pt, family, sign, eps=0.01)
                diag = K.kernel_sup(spec, 200.0, resolution=0.25)
                if diag.verdict != "saturating":
                    failures.append(
                        f"{name}/{family}/{sign}: {diag.verdict}, "
                        f"final ratio {diag.ratios[-1]:.4f}"
                    )
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1800.0
    _criterion(6, "kernel saturation at both admissible points, "
                  "all families and signs", ok,
               "; ".join(failures) if failures else f"{elapsed:.0f} s")


def test_criterion_07_kernel_divergence_outside_region():
    t0 = time.perf_counter()
    corner = _mid_window_point(F(0), F(-1, 2), F(2))
    eps = 0.01
    spec_s = K.KernelSpec(
        "S", "minus", k=0.0, l=float(-corner.inv_p - F(1, 4)), p=2.0,
        b=float(corner.b), b1=float(corner.b1),
        c1=1.0 - float(corner.b1) - eps,
    )
    spec_w = K.KernelSpec(
        "W", "minus", k=0.0,
        l=float(2 * corner.k - (1 - corner.inv_p) + F(1, 2)), p=2.0,
        b=float(corner.b), b1=float(corner.b1),
        c=1.0 - float(corner.b) - eps,
    )
    diag_s = K.kernel_sup(spec_s, 200.0, resolution=0.25)
    diag_w = K.kernel_sup(spec_w, 200.0, resolution=0.25)
    elapsed = time.perf_counter() - t0
    ok = (
        diag_s.verdict == "diverging"
        and diag_w.verdict == "diverging"
        and elapsed < 1800.0
    )
    _criterion(7, "kernel divergence when each l condition is broken", ok,
               f"S ratios {[round(r, 3) for r in diag_s.ratios]}, "
               f"W ratios {[round(r, 3) for r in diag_w.ratios]}")


def test_criterion_08_solver_correctness():
    t0 = time.perf_counter()
    cfg = S.SolverConfig(n=256, box=32.0, dt=1e-3, t_final=1.0)
    x = -cfg.box / 2 + np.arange(cfg.n) * (cfg.box / cfg.n)
    kappa = 2 * np.pi * 4 / cfg.box
    trace = S.evolve(np.exp(1j * kappa * x), np.ones(cfg.n), np.zeros(cfg.n), cfg)
    pw_err = float(np.max(np.abs(
        trace.final_u - S.plane_wave_solution(1.0, kappa, 1.0, x, 1.0)
    )))

    u0 = 2.0 * np.exp(-(x**2) / 2) * (1 + 0.3j)
    n0 = -np.abs(u0) ** 2
    n1 = x * np.exp(-(x**2) / 3)
    n1 -= n1.mean()
    finals = {}
    for dt in (4e-3, 2e-3, 1e-3):
        c = S.SolverConfig(n=256, box=32.0, dt=dt, t_final=0.5)
        finals[dt] = S.evolve(u0, n0, n1, c).final_u
    e1 = float(np.max(np.abs(finals[4e-3] - finals[2e-3])))
    e2 = float(np.max(np.abs(finals[2e-3] - finals[1e-3])))
    order = math.log2(e1 / e2)

    cfg_m = S.SolverConfig(n=512, box=32.0, dt=1e-3, t_final=0.5)
    xm = -cfg_m.box / 2 + np.arange(cfg_m.n) * (cfg_m.box / cfg_m.n)
    um = np.exp(-(xm**2) / 2) * (1 + 0.3j)
    nm = 0.5 * np.exp(-(xm**2) / 4)
    n1m = 0.2 * xm * np.exp(-(xm**2) / 3)
    n1m -= n1m.mean()
    mass = S.evolve(um, nm, n1m, cfg_m).series["mass"]
    drift = float(np.max(np.abs(mass - mass[0])))

    elapsed = time.perf_counter() - t0
    ok = (
        pw_err < 1e-8 and abs(order - 4.0) <= 0.3 and drift < 1e-8
        and elapsed < 300.0
    )
    _criterion(8, "plane-wave closed form, order 4.0 +/- 0.3, mass drift", ok,
               f"err={pw_err:.2e}, order={order:.2f}, drift={drift:.2e}")


def test_criterion_09_lipschitz_probe_consistency():
    t0 = time.perf_counter()
    cfg = S.SolverConfig(n=256, box=32.0, dt=1e-3, t_final=0.25, sample_stride=25)
    rep = S.lipschitz_probe(
        0.0, -0.5, 2.0, amplitude=2.0,
        deltas=(1e-2, 1e-3, 1e-4), seeds=(1, 2, 3, 4, 5), cfg=cfg,
    )
    elapsed = time.perf_counter() - t0
    spread = rep.max_stability()
    ok = spread < 2.0 and not rep.truncations and elapsed < 900.0
    _criterion(9, "Lipschitz ratios agree within factor 2 across deltas", ok,
               f"max spread = {spread:.4f}")


def test_criterion_10_lifespan_scaling():
    t0 = time.perf_counter()
    u0, n0, n1 = S.gaussian_focusing_data(512, 32.0, 12.0)
    cfg = S.SolverConfig(n=512, box=32.0, dt=2e-4, t_final=0.5, sample_stride=1)
    rep = S.lifespan_probe(u0, n0, n1, (1.0, 2.0, 4.0), cfg)
    elapsed = time.perf_counter() - t0
    ok = (
        not rep.inconclusive
        and rep.slope is not None
        and abs(rep.slope - (-2.0)) <= 0.5
        and elapsed < 900.0
    )
    _criterion(10, "departure-time slope within -2 +/- 0.5", ok,
               f"slope = {rep.slope:.4f}" if rep.slope is not None else "no slope")
