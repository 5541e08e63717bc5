"""Pseudospectral integrator for the first-order Zakharov system.

The coupled fields are the Schroedinger amplitude u and the two wave
envelopes n_plus, n_minus with n = (n_plus + n_minus)/2 real.  Linear
parts are applied exactly in Fourier space through an integrating-factor
(Lawson) RK4 step; the quadratic products are formed in physical space
under the 2/3 dealiasing rule.  One core steps a batch of trajectories
at once: evolve and the lifespan probe run a batch of one, the Lipschitz
probe its whole ensemble.  The regularized reduction replaces the
half-wave symbol |xi| by sqrt(xi^2 + 1), which removes the zero-frequency
singularity of the inverse half-wave operator at the cost of a bounded
extra linear coupling term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import ZaklabError
from .grids import (
    GridFunction, RoughDataSpec, dilate, from_samples, hat_norm, mode_indices,
    unit_rough_data, wavenumbers,
)

LIFESPAN_BUDGET_FACTOR = 4.0  # later lifespan budgets, in first departure times


class SolverError(ZaklabError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    n: int = 256
    box: float = 32.0
    dt: float = 1e-3
    t_final: float = 0.5
    regularized: bool = True
    sample_stride: int = 25

    def __post_init__(self):
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise SolverError(f"n must be a power of two (got {self.n})")
        if self.dt <= 0 or self.box <= 0 or self.t_final < 0:
            raise SolverError("dt and box must be positive, t_final nonnegative")
        if self.sample_stride < 1:
            raise SolverError(f"sample_stride must be positive (got {self.sample_stride})")
        steps = self.t_final / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise SolverError(
                f"t_final must be a multiple of dt (got {self.t_final}/{self.dt})"
            )

    @property
    def steps(self) -> int:
        return int(round(self.t_final / self.dt))


def _wave_symbol(xi: np.ndarray, regularized: bool) -> np.ndarray:
    return np.sqrt(xi * xi + 1.0) if regularized else np.abs(xi)


def to_first_order(
    n0: np.ndarray, n1: np.ndarray, box: float, regularized: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Split wave data (n0, n1) into the envelopes n_plus, n_minus = n0 +/- w.

    Each mode of w is that of n1 times i/omega(xi), with the half-wave
    symbol omega = sqrt(xi^2 + 1), or |xi| without regularization; |xi|
    vanishes at the zero mode, so there n1 must have zero mean.
    """
    n0 = np.asarray(n0, dtype=np.complex128)
    n1 = np.asarray(n1, dtype=np.complex128)
    omega = _wave_symbol(wavenumbers(n0.shape[0], box), regularized)
    n1_hat = np.fft.fft(n1)
    if not regularized:
        mean_scale = max(1.0, float(np.max(np.abs(n1_hat))))
        if abs(n1_hat[0]) > 1e-10 * mean_scale:
            raise SolverError(
                "unregularized reduction needs zero-mean n1: the inverse "
                "half-wave symbol 1/|xi| is singular at the zero mode"
            )
    inv = np.divide(1.0, omega, out=np.zeros_like(omega), where=omega != 0)
    w = np.fft.ifft(1j * inv * n1_hat)
    return n0 + w, n0 - w


class _Lawson:
    """The fixed per-config operators of the Lawson RK4 step, applied to a
    spectral batch y of shape (3, batch, n) whose blocks are u, n_plus and
    n_minus, so every field is one contiguous (batch, n) block.  The linear
    factors are (3, 1, n) stacks broadcast over the batch; every operation
    acts on each member alone, with the operand order of the scalar scheme,
    so a member's result does not depend on the batch.  The core owns all
    its working memory: five stage buffers and the scratch of nonlinear,
    rebuilt together when the batch shape changes."""

    def __init__(self, cfg: SolverConfig):
        n, dt = cfg.n, cfg.dt
        xi = wavenumbers(n, cfg.box)
        omega = _wave_symbol(xi, cfg.regularized)
        lin = np.stack([-1j * xi * xi, -1j * omega, +1j * omega])[:, None, :]
        self.dt = dt
        self.e = np.exp(dt * lin)
        self.h = np.exp(0.5 * dt * lin)
        self.dt_h = dt * self.h
        self.two_h = 2.0 * self.h
        # complex, so the 2/3 dealiasing products need no cast
        self.mask = (np.abs(mode_indices(n)) <= n // 3).astype(np.complex128)
        if cfg.regularized:
            self.src_sym = 1j * xi * xi / omega  # i A Op^{-1/2}
            self.couple = 0.5j / omega           # (i/2) Op^{-1/2}
        else:
            self.src_sym = 1j * omega
            self.couple = None
        self.neg_src = -self.src_sym
        self.bufs = ()

    def nonlinear(self, y, out):
        """Write N(y) into out, with one inverse and one forward transform
        of the stacked (2, batch, n) scratch pairs."""
        mask, spec, phys, nsum_hat = self.mask, self.spec, self.phys, self.nsum_hat
        np.add(y[1], y[2], out=nsum_hat)
        np.multiply(mask, y[0], out=spec[0])
        np.multiply(mask, nsum_hat, out=spec[1])
        u, nsum = np.fft.ifft(spec, out=phys)
        np.multiply(-0.5j, nsum, out=spec[0])   # -0.5j nsum u
        np.multiply(spec[0], u, out=spec[0])
        np.conjugate(u, out=spec[1])            # u conj(u)
        np.multiply(u, spec[1], out=spec[1])
        nu_hat, sq_hat = np.fft.fft(spec, out=phys)
        np.multiply(nu_hat, mask, out=out[0])
        np.multiply(sq_hat, mask, out=sq_hat)
        np.multiply(self.neg_src, sq_hat, out=out[1])
        np.multiply(self.src_sym, sq_hat, out=out[2])
        if self.couple is not None:
            pull = np.multiply(self.couple, nsum_hat, out=spec[0])
            out[1] += pull
            out[2] -= pull

    def step(self, y):
        """One Lawson RK4 step for y' = L y + N(y), in place; the stage
        buffers are kept across steps."""
        if not self.bufs or self.bufs[0].shape != y.shape:
            self.bufs = tuple(np.empty_like(y) for _ in range(5))
            self.spec, self.phys = (np.empty_like(y[:2]) for _ in range(2))
            self.nsum_hat = np.empty_like(y[0])
        k1, k2, k3, k4, s = self.bufs
        half, sixth = 0.5 * self.dt, self.dt / 6.0
        self.nonlinear(y, k1)
        np.multiply(half, k1, out=s)            # s = h (y + dt/2 k1)
        s += y
        np.multiply(self.h, s, out=s)
        self.nonlinear(s, k2)
        np.multiply(self.h, y, out=s)           # s = h y + dt/2 k2
        np.multiply(half, k2, out=k4)
        s += k4
        self.nonlinear(s, k3)
        np.multiply(self.e, y, out=y)           # y = e y;  s = y + dt h k3
        np.multiply(self.dt_h, k3, out=k4)
        np.add(y, k4, out=s)
        self.nonlinear(s, k4)
        # y += dt/6 (e k1 + 2 h (k2 + k3)) + dt/6 k4
        k2 += k3
        np.multiply(self.two_h, k2, out=k2)
        np.multiply(self.e, k1, out=k1)
        k1 += k2
        np.multiply(sixth, k1, out=k1)
        y += k1
        np.multiply(sixth, k4, out=k4)
        y += k4


def _spectral(data, cfg: SolverConfig) -> np.ndarray:
    """The field-major spectral batch (3, batch, n) of physical (u0, n0, n1)
    triples."""
    fields = [
        (u0, *to_first_order(n0, n1, cfg.box, cfg.regularized))
        for u0, n0, n1 in data
    ]
    fields = np.asarray(fields, dtype=np.complex128).reshape(len(fields), 3, cfg.n)
    return np.fft.fft(np.ascontiguousarray(fields.transpose(1, 0, 2)))


def _integrate(y: np.ndarray, cfg: SolverConfig, observe) -> list[float | None]:
    """Advance the field-major spectral batch y over cfg.steps Lawson RK4
    steps.

    observe(i, alive, y) sees step i, the indices of the members still
    finite and their states as a (batch, 3, n) view, at step 0, every
    sample_stride steps and the last step; a true return ends the run.  A
    member that turns nonfinite leaves the batch at that step.  Returns
    each member's blow-up time (the time of detection), None where it
    stayed finite.
    """
    lawson = _Lawson(cfg)
    alive = np.arange(y.shape[1])
    blowup: list[float | None] = [None] * len(alive)
    if observe(0, alive, y.transpose(1, 0, 2)):
        return blowup
    for i in range(1, cfg.steps + 1):
        lawson.step(y)
        finite = np.isfinite(y).all(axis=(0, 2))
        if not finite.all():
            for j in alive[~finite]:
                blowup[j] = i * cfg.dt
            # compress keeps the batch C-contiguous, which y[:, finite] does not
            alive, y = alive[finite], y.compress(finite, axis=1)
            if not len(alive):
                break
        if (i % cfg.sample_stride == 0 or i == cfg.steps) and observe(
            i, alive, y.transpose(1, 0, 2)
        ):
            break
    return blowup


@dataclass
class EvolutionTrace:
    times: np.ndarray
    series: dict[str, np.ndarray]
    truncated: bool = False
    blowup_time: float | None = None
    final_u: np.ndarray | None = None  # u at t_final; None after a blow-up


def evolve(
    u0: np.ndarray, n0: np.ndarray, n1: np.ndarray, cfg: SolverConfig
) -> EvolutionTrace:
    """Integrate on [0, t_final], sampling diagnostics every sample_stride
    steps.  A blow-up truncates the trace and sets the flag instead of
    propagating."""
    dx = cfg.box / cfg.n
    times: list[float] = []
    rows: dict[str, list[float]] = {
        "hat_0.0_2.0": [], "mass": [], "sup_u": [], "n_imag": [],
    }
    final: list[np.ndarray] = []

    def record(i, alive, y):
        u, n_plus, n_minus = np.fft.ifft(y[0])
        navg = (n_plus + n_minus) / 2.0
        times.append(i * cfg.dt)
        rows["mass"].append(float(np.sqrt(np.sum(np.abs(u) ** 2) * dx)))
        rows["sup_u"].append(float(np.max(np.abs(u))))
        rows["n_imag"].append(float(np.max(np.abs(navg.imag))))
        rows["hat_0.0_2.0"].append(hat_norm(from_samples(u, cfg.box), 0.0, 2.0))
        if i == cfg.steps:
            final.append(u)

    (blowup,) = _integrate(_spectral([(u0, n0, n1)], cfg), cfg, record)
    return EvolutionTrace(
        times=np.asarray(times),
        series={k: np.asarray(v) for k, v in rows.items()},
        truncated=blowup is not None,
        blowup_time=blowup,
        final_u=final[0] if final else None,
    )


def plane_wave_solution(
    a: complex, kappa: float, nu: float, x: np.ndarray, t: float
) -> np.ndarray:
    """Closed form for constant n = nu and u0 = a exp(i kappa x):
    the product nonlinearity is a pure phase, so
    u(t) = a exp(i kappa x) exp(-i (kappa^2 + nu) t) and n stays nu."""
    return a * np.exp(1j * kappa * x) * np.exp(-1j * (kappa**2 + nu) * t)


@dataclass(frozen=True)
class LipschitzReport:
    ratios: dict[int, dict[float, float | None]]
    stability: dict[int, float]
    truncations: tuple[tuple[int, float], ...]

    def max_stability(self) -> float:
        return max(self.stability.values()) if self.stability else math.inf


def lipschitz_probe(
    k: float,
    l: float,
    p: float,
    amplitude: float,
    deltas: tuple[float, ...],
    seeds: tuple[int, ...],
    cfg: SolverConfig,
) -> LipschitzReport:
    """Finite-difference probe of the data-to-solution map.

    For each seed, evolve a rough base datum and perturbations
    u0 + delta*w with w of unit (k, p) norm (wave data perturbed in their
    own norms), and report sup over sampled times of
    |u - u'|_(k,p) / |u0 - u0'|_(k,p).  Stability of that ratio as delta
    shrinks is the observable; delta = 0 rows are reported as exact-match
    sentinels rather than 0/0.  Every seed's base and perturbed data are
    integrated as one batch; a difference is sampled while both of its
    trajectories are finite.
    """
    def rough(s: float, seed: int, real: bool) -> np.ndarray:  # unit (s, p) norm
        f = unit_rough_data(RoughDataSpec(s, p, cfg.n, seed, box=cfg.box, hermitian=real))
        return f.to_samples().real if real else f.to_samples()

    data: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    plan = []  # (seed, base member, [(delta, member or None, denominator)])
    for seed in seeds:
        base_u = amplitude * rough(k, seed, real=False)
        n0 = amplitude * rough(l, seed + 1000, real=True)
        n1 = amplitude * rough(l - 1.0, seed + 2000, real=True)
        n1 = n1 - n1.mean()
        w_u = rough(k, seed + 3000, real=False)
        w_n0 = rough(l, seed + 4000, real=True)
        w_n1 = rough(l - 1.0, seed + 5000, real=True)
        w_n1 = w_n1 - w_n1.mean()

        base = len(data)
        data.append((base_u, n0, n1))
        row = []
        for delta in deltas:
            if delta == 0.0:
                row.append((delta, None, None))
                continue
            denom = hat_norm(from_samples(delta * w_u, cfg.box), k, p)
            row.append((delta, len(data), denom))
            data.append((base_u + delta * w_u, n0 + delta * w_n0, n1 + delta * w_n1))
        plan.append((seed, base, row))
    sups = [0.0] * len(data)

    def compare(i, alive, y):
        u = dict(zip(alive.tolist(), np.fft.ifft(y[:, 0])))
        for _, base, row in plan:
            for _, j, denom in row:
                if j is not None and base in u and j in u:
                    diff = hat_norm(from_samples(u[j] - u[base], cfg.box), k, p)
                    sups[j] = max(sups[j], diff / denom)

    blowup = _integrate(_spectral(data, cfg), cfg, compare)
    ratios: dict[int, dict[float, float | None]] = {}
    truncs = []
    stability: dict[int, float] = {}
    for seed, base, row in plan:
        if blowup[base] is not None:
            truncs.append((seed, blowup[base]))
        ratios[seed] = {}
        finite = []
        for delta, j, _ in row:
            if j is None:
                ratios[seed][delta] = None
                continue
            if blowup[j] is not None:
                truncs.append((seed, blowup[j]))
            ratios[seed][delta] = sups[j]
            finite.append(sups[j])
        if finite:
            stability[seed] = max(finite) / min(finite) if min(finite) > 0 else math.inf
    return LipschitzReport(
        ratios=ratios,
        stability=stability,
        truncations=tuple(truncs),
    )


@dataclass(frozen=True)
class LifespanReport:
    departure_times: dict[float, float | None]
    slope: float | None
    reference_slope: float
    inconclusive: bool
    monitored: str = "sup_u"


def lifespan_probe(
    u0: GridFunction,
    n0: GridFunction,
    n1: GridFunction,
    mus: tuple[float, ...],
    cfg: SolverConfig,
) -> LifespanReport:
    """Measure how the departure time scales under the focusing dilation.

    Data are dilated with amplitude exponents (3/2, 2, 4) for (u0, n0, n1)
    onto the box L/mu; time step and budget shrink by mu^-2 so each run
    resolves the sped-up dynamics equally (a run after the first gets
    LIFESPAN_BUDGET_FACTOR times the first departure time).  Reports the log-log slope of
    departure time against mu next to the reference slope -2.
    """
    mus = tuple(sorted(mus))
    times: dict[float, float | None] = {}
    base_T = None
    for mu in mus:
        du = dilate(u0, mu, 1.5)
        dn0 = dilate(n0, mu, 2.0)
        dn1 = dilate(n1, mu, 4.0)
        scale = mu * mu
        if base_T is None:
            budget = cfg.t_final
            dt = cfg.dt
        else:
            budget = LIFESPAN_BUDGET_FACTOR * base_T / scale
            dt = cfg.dt / scale
            budget = math.ceil(budget / dt) * dt
        run_cfg = replace(
            cfg, box=u0.box[0] / mu, dt=dt, t_final=budget, sample_stride=1
        )
        data = (du.to_samples(), dn0.to_samples().real, dn1.to_samples().real)
        ts, qs = [], []

        def watch(i, alive, y):
            ts.append(i * run_cfg.dt)
            qs.append(float(np.max(np.abs(np.fft.ifft(y[0, 0])))))
            return i > 0 and qs[-1] >= 2.0 * qs[0]

        (t_dep,) = _integrate(_spectral([data], run_cfg), run_cfg, watch)
        if t_dep is None and len(qs) > 1 and qs[-1] >= 2.0 * qs[0]:
            # linear interpolation of the crossing between the last two steps
            target, q, prev_q = 2.0 * qs[0], qs[-1], qs[-2]
            t_dep = ts[-1] if q == prev_q else (
                ts[-2] + (target - prev_q) / (q - prev_q) * (ts[-1] - ts[-2])
            )
        times[mu] = t_dep
        if base_T is None:
            if t_dep is None:
                return LifespanReport(times, None, -2.0, inconclusive=True)
            base_T = t_dep
    observed = [(mu, t) for mu, t in times.items() if t is not None and mu > 0]
    if len(observed) < 2:
        return LifespanReport(times, None, -2.0, inconclusive=True)
    xs = np.log([mu for mu, _ in observed])
    ys = np.log([t for _, t in observed])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return LifespanReport(
        times, slope, -2.0, inconclusive=len(observed) < len(mus)
    )


def gaussian_focusing_data(
    n: int, box: float, amplitude: float
) -> tuple[GridFunction, GridFunction, GridFunction]:
    """Focusing preset: u0 = A exp(-x^2), n0 = -|u0|^2, n1 = 0."""
    x = -box / 2 + np.arange(n) * (box / n)
    u0 = amplitude * np.exp(-(x**2))
    n0 = -np.abs(u0) ** 2
    n1 = np.zeros_like(x)
    return (
        from_samples(u0, box, provenance="gaussian u0"),
        from_samples(n0, box, provenance="gaussian n0"),
        from_samples(n1, box, provenance="zero n1"),
    )
