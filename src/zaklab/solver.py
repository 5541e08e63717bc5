"""Pseudospectral integrator for the first-order Zakharov system.

The coupled fields are the Schroedinger amplitude u and the two wave
envelopes n_plus, n_minus with n = (n_plus + n_minus)/2 real.  Linear
parts are applied exactly in Fourier space through an integrating-factor
(Lawson) RK4 step; the quadratic products are formed in physical space
under the 2/3 dealiasing rule.  One core steps a batch of trajectories
at once: evolve a batch of one, the Lipschitz probe its whole ensemble,
the lifespan probe its dilations.  The regularized reduction replaces the
half-wave symbol |xi| by sqrt(xi^2 + 1), which removes the zero-frequency
singularity of the inverse half-wave operator at the cost of a bounded
extra linear coupling term.
"""

from __future__ import annotations

import itertools
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
        if not (0 < self.dt < math.inf and 0 < self.box < math.inf
                and 0 <= self.t_final < math.inf):
            raise SolverError("dt and box must be positive, t_final nonnegative, all finite")
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
    """The operators of the Lawson RK4 step, applied to a spectral batch y
    of shape (3, batch, n) whose blocks are u, n_plus and n_minus, so every
    field is one contiguous (batch, n) block.  From one config they serve
    the whole batch as (3, 1, n) factors, (1, n) symbols and mask, and
    scalar dt/2, dt/6, so at batch 1 no product broadcasts; from one config
    per member (its own box and dt) they are (3, batch, n), (batch, n) and
    (1, batch, 1), and retain() drops the rows of members that leave.
    Every operation acts on each member alone, with the operand order of
    the scalar scheme, so a member's result does not depend on the batch.
    The core owns all its working memory: five stage buffers (k1 and k4 the
    halves of one array), the scratch of nonlinear and their views, rebuilt
    with the batch shape, and the views of y, rebuilt when y is replaced.
    Its transforms are numpy's pocketfft gufuncs with the factors np.fft
    passes: np.fft.fft / np.fft.ifft bit for bit, minus their wrapper."""

    NEG_HALF_J = np.array(-0.5j)  # numpy reads a 0-d array faster than a Python complex

    def __init__(self, *cfgs: SolverConfig):
        from numpy.fft import _pocketfft_umath as pocketfft  # loads numpy.fft, as np.fft does
        n, regularized = cfgs[0].n, cfgs[0].regularized
        self.fwd, self.inv = pocketfft.fft, pocketfft.ifft
        inv_n = self.inv_n = np.reciprocal(n, dtype=np.float64)
        self.fft = lambda a, out: pocketfft.fft(a, 1, out)
        self.ifft = lambda a, out: pocketfft.ifft(a, inv_n, out)
        # complex, so the 2/3 dealiasing products need no cast
        self.mask = (np.abs(mode_indices(n)) <= n // 3).astype(np.complex128)[None]
        rows = []
        for cfg in cfgs:
            xi = wavenumbers(n, cfg.box)
            omega = _wave_symbol(xi, regularized)
            lin = np.stack([-1j * xi * xi, -1j * omega, +1j * omega])[:, None, :]
            h = np.exp(0.5 * cfg.dt * lin)
            # i A Op^{-1/2} and the coupling (i/2) Op^{-1/2}, or i|xi| alone
            syms = (1j * xi * xi / omega, 0.5j / omega) if regularized else (1j * omega,)
            rows.append((np.exp(cfg.dt * lin), h, cfg.dt * h, 2.0 * h,
                         *(sym[None] for sym in syms)))
        self.e, self.h, self.dt_h, self.two_h, self.src_sym, *couple = (
            np.concatenate(parts, axis=-2) for parts in zip(*rows))
        self.couple = couple[0] if couple else None
        self.neg_src = -self.src_sym
        dts = np.array([cfg.dt for cfg in cfgs]).reshape((1, -1, 1) if len(cfgs) > 1 else ())
        self.half, self.sixth = (f.astype(np.complex128) for f in (0.5 * dts, dts / 6.0))
        self.y = None

    def retain(self, kept):
        """Keep the per-member operator rows of the members in the mask kept."""
        if self.e.shape[1] > 1:
            for name in ("e", "h", "dt_h", "two_h", "src_sym", "neg_src", "couple",
                         "half", "sixth"):
                if (op := getattr(self, name)) is not None:
                    setattr(self, name, op.compress(kept, axis=-2))

    def _bind(self, y):
        """Take y as the batch: views of it, and on a new shape new memory."""
        if self.y is None or self.y.shape != y.shape:
            k14 = np.empty((2, *y.shape), y.dtype)  # k1 and k4
            k2, k3, s, spec, phys = (np.empty_like(a) for a in (y, y, y, y[:2], y[:2]))
            ks = (k14[0], k2, k3, k14[1])
            self.work = (k14, *ks, s, (*s,), tuple((k[:2], k[1], k[2]) for k in ks))
            self.scratch = (spec, *spec, phys, *phys, np.empty_like(y[0]),
                            np.broadcast_to(self.mask, spec.shape).copy())
            self.finite = np.empty_like(y.view(np.float64), bool)
        self.y, self.fields, self.flat = y, (*y,), y.view(np.float64)

    def nonlinear(self, fields, outs):
        """Write N(y) into out, given the views (y[0], y[1], y[2]) and
        (out[:2], out[1], out[2]), with one inverse and one forward
        transform of the stacked (2, batch, n) scratch pairs."""
        (u_hat, p_hat, m_hat), (pair, plus, minus) = fields, outs
        spec, spec0, spec1, phys, u, nsum, nsum_hat, mask2 = self.scratch
        np.add(p_hat, m_hat, nsum_hat)
        np.multiply(self.mask, u_hat, spec0)
        np.multiply(self.mask, nsum_hat, spec1)
        self.inv(spec, self.inv_n, phys)
        np.multiply(self.NEG_HALF_J, nsum, spec0)  # -0.5j nsum u
        np.multiply(spec0, u, spec0)
        np.conjugate(u, spec1)                  # u conj(u)
        np.multiply(u, spec1, spec1)
        self.fwd(spec, 1, pair)
        np.multiply(pair, mask2, pair)
        np.multiply(self.src_sym, plus, minus)
        np.multiply(self.neg_src, plus, plus)
        if self.couple is not None:
            np.multiply(self.couple, nsum_hat, spec0)
            np.add(plus, spec0, plus)
            np.subtract(minus, spec0, minus)

    def step(self, y):
        """One Lawson RK4 step for y' = L y + N(y), in place; returns which
        members stayed finite."""
        if y is not self.y:
            self._bind(y)
        k14, k1, k2, k3, k4, s, fields, (out1, out2, out3, out4) = self.work
        half, h, e = self.half, self.h, self.e
        self.nonlinear(self.fields, out1)
        np.multiply(half, k1, s)                # s = h (y + dt/2 k1)
        np.add(s, y, s)
        np.multiply(h, s, s)
        self.nonlinear(fields, out2)
        np.multiply(h, y, s)                    # s = h y + dt/2 k2
        np.multiply(half, k2, k4)
        np.add(s, k4, s)
        self.nonlinear(fields, out3)
        np.multiply(e, y, y)                    # y = e y;  s = y + dt h k3
        np.multiply(self.dt_h, k3, k4)
        np.add(y, k4, s)
        self.nonlinear(fields, out4)
        # y += dt/6 (e k1 + 2 h (k2 + k3)) + dt/6 k4
        np.add(k2, k3, k2)
        np.multiply(self.two_h, k2, k2)
        np.multiply(e, k1, k1)
        np.add(k1, k2, k1)
        np.multiply(self.sixth, k14, k14)
        np.add(y, k1, y)
        np.add(y, k4, y)
        return np.isfinite(self.flat, self.finite).all(axis=(0, 2))


def _spectral(data, cfg: SolverConfig) -> np.ndarray:
    """The field-major spectral batch (3, batch, n) of physical (u0, n0, n1)
    triples."""
    fields = [
        (u0, *to_first_order(n0, n1, cfg.box, cfg.regularized))
        for u0, n0, n1 in data
    ]
    fields = np.asarray(fields, dtype=np.complex128).reshape(len(fields), 3, cfg.n)
    return np.fft.fft(np.ascontiguousarray(fields.transpose(1, 0, 2)))


def _integrate(y: np.ndarray, lawson: _Lawson, observe, steps: int | None,
               stride: int = 1) -> list[int | None]:
    """Advance the field-major spectral batch y by Lawson RK4 steps, up to
    step `steps` (None: while any member is left).  observe(i, alive, y)
    sees step i, the indices of the members still in the batch and their
    states as a (batch, 3, n) view, at step 0, every stride steps and step
    `steps`; it may return a boolean mask over alive of members that leave.
    A member that turns nonfinite leaves at that step; a leaving member
    takes its operator rows along.  Returns each member's blow-up step (that
    of detection), None if it stayed finite."""
    alive = np.arange(y.shape[1])
    blowup: list[int | None] = [None] * len(alive)

    def retain(kept):
        nonlocal alive, y
        # compress keeps the batch C-contiguous, which y[:, kept] does not
        alive, y = alive[kept], y.compress(kept, axis=1)
        lawson.retain(kept)

    for i in itertools.count():
        if i:
            finite = lawson.step(y)
            if not finite.all():
                for j in alive[~finite]:
                    blowup[j] = i
                retain(finite)
        if len(alive) and (i % stride == 0 or i == steps):
            leaving = observe(i, alive, y.transpose(1, 0, 2))
            if leaving is not None and leaving.any():
                retain(~leaving)
        if not len(alive) or i == steps:
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

    (blowup,) = _integrate(_spectral([(u0, n0, n1)], cfg), _Lawson(cfg), record,
                           cfg.steps, cfg.sample_stride)
    return EvolutionTrace(
        times=np.asarray(times),
        series={k: np.asarray(v) for k, v in rows.items()},
        truncated=blowup is not None,
        blowup_time=None if blowup is None else blowup * cfg.dt,
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

    blowup = [None if i is None else i * cfg.dt for i in _integrate(
        _spectral(data, cfg), _Lawson(cfg), compare, cfg.steps, cfg.sample_stride)]
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
    onto the box L/mu.  The first run, at the smallest mu1, takes cfg's time
    step and budget; a later run's shrink by (mu/mu1)^-2, so each run
    resolves the sped-up dynamics equally (its budget is
    LIFESPAN_BUDGET_FACTOR times the first departure time).  Reports the
    log-log slope of departure time against mu next to the reference slope
    -2, or the first run alone if it ends without departing.

    The runs are one batch, each member with its own operators; a member
    leaves when it departs, reaches its budget or turns nonfinite.  Later
    budgets are set when the first run ends, at its step i1, and none has
    passed by then: the first time exceeds (i1 - 1) dt1 (a crossing after
    step i1 - 1, or a blow-up at i1 dt1), so a later budget is at least
    4 (i1 - 1) >= i1 steps for i1 >= 2, and at least 1 step for i1 = 1.
    """
    if not mus:
        return LifespanReport({}, None, -2.0, inconclusive=True)
    mus = tuple(sorted(mus))
    data = [(dilate(u0, mu, 1.5).to_samples(), dilate(n0, mu, 2.0).to_samples().real,
             dilate(n1, mu, 4.0).to_samples().real) for mu in mus]  # rejects a bad mu
    scale = [(mu / mus[0]) * (mu / mus[0]) for mu in mus]  # all mu * mu when mu1 = 1
    cfgs = [replace(cfg, box=u0.box[0] / mu, dt=cfg.dt / s, t_final=0.0 if j else cfg.t_final)
            for j, (mu, s) in enumerate(zip(mus, scale))]
    y = np.concatenate([_spectral([d], c) for d, c in zip(data, cfgs)], axis=1)
    lawson = _Lawson(*cfgs)
    budgets = [cfgs[0].steps] + [None] * (len(mus) - 1)  # the later ones set in watch
    qs, t_dep = [[] for _ in mus], [None] * len(mus)

    def watch(i, alive, y):
        sups = np.max(np.abs(lawson.ifft(y[:, 0], np.empty_like(y[:, 0]))), axis=1)
        leaving = []
        for j, q in zip(alive.tolist(), sups.tolist()):
            qs[j].append(q)
            target = 2.0 * qs[j][0]
            if i > 0 and q >= target:  # interpolate the crossing between the last two steps
                prev, t0, t1 = qs[j][-2], (i - 1) * cfgs[j].dt, i * cfgs[j].dt
                t_dep[j] = t1 if q == prev else t0 + (target - prev) / (q - prev) * (t1 - t0)
            leaving.append(t_dep[j] is not None or i == budgets[j])
        if budgets[-1] is None and (alive[0] or leaving[0]):  # the first run ends here
            base_T = i * cfgs[0].dt if alive[0] else t_dep[0]  # a blow-up, or not
            if base_T is None:
                return np.ones(len(alive), dtype=bool)
            for j in range(1, len(mus)):
                budget = LIFESPAN_BUDGET_FACTOR * base_T / scale[j]
                budget = math.ceil(budget / cfgs[j].dt) * cfgs[j].dt
                budgets[j] = replace(cfgs[j], t_final=budget).steps
            leaving = [gone or i == budgets[j] for gone, j in zip(leaving, alive)]
        return np.array(leaving)

    blowup = _integrate(y, lawson, watch, None)
    t_dep = [t if i is None else i * c.dt for t, i, c in zip(t_dep, blowup, cfgs)]
    if t_dep[0] is None:
        return LifespanReport({mus[0]: None}, None, -2.0, inconclusive=True)
    times = dict(zip(mus, t_dep))
    observed = [(mu, t) for mu, t in times.items() if t is not None and mu > 0]
    if len(observed) < 2:
        return LifespanReport(times, None, -2.0, inconclusive=True)
    xs = np.log([mu for mu, _ in observed])
    ys = np.log([t for _, t in observed])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return LifespanReport(times, slope, -2.0, inconclusive=len(observed) < len(mus))


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
