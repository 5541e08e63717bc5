"""Periodic lattices of Fourier modes and the discrete norms built on them.

Modes are samples of the continuum Fourier transform: for a field sampled
on the centered grid x_j = -L/2 + j*dx, mode n carries
u_hat(xi_n) = dx * sum_j u(x_j) exp(-i xi_n x_j) at xi_n = 2*pi*n/L, in
numpy fft ordering.  Discrete norms weight sums by the frequency spacing
2*pi/L per axis so they converge to their continuum counterparts as the
box grows.  2D grids put the spatial frequency xi on axis 0 and the
temporal frequency tau on axis 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ROUGH_DECAY_MARGIN = 1.0 / 100.0  # extra decay delta in the rough-data profile

DISPERSIONS = ("schroedinger", "wave_plus", "wave_minus", "none")


class GridError(ValueError):
    """Invalid grid construction or mismatched grid operands."""


def _check_pow2(n: int) -> None:
    if n < 2 or (n & (n - 1)) != 0:
        raise GridError(f"mode count per axis must be a power of two (got {n})")


@dataclass(frozen=True)
class GridFunction:
    """Immutable lattice of complex Fourier amplitudes (1D or 2D)."""

    modes: np.ndarray
    box: tuple[float, ...]
    seed: int | None = None
    provenance: str = ""

    def __post_init__(self):
        m = np.asarray(self.modes, dtype=np.complex128)
        if m.ndim not in (1, 2):
            raise GridError(f"only 1D and 2D grids are supported (got {m.ndim}D)")
        for n in m.shape:
            _check_pow2(n)
        box = tuple(float(b) for b in (
            (self.box,) if np.isscalar(self.box) else self.box
        ))
        if len(box) != m.ndim or any(b <= 0 for b in box):
            raise GridError(f"box {box} does not match a {m.ndim}D grid")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "modes", m)
        object.__setattr__(self, "box", box)

    @property
    def dims(self) -> int:
        return self.modes.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.modes.shape

    def frequencies(self, axis: int = 0) -> np.ndarray:
        n = self.shape[axis]
        return 2.0 * np.pi * np.fft.fftfreq(n, d=self.box[axis] / n)

    def sample_points(self, axis: int = 0) -> np.ndarray:
        n = self.shape[axis]
        length = self.box[axis]
        return -length / 2 + np.arange(n) * (length / n)

    def to_samples(self) -> np.ndarray:
        """Physical samples on the centered grid."""
        m = self.modes
        for axis in range(m.ndim):
            n = m.shape[axis]
            dx = self.box[axis] / n
            m = m * _center_phase(n, m.ndim, axis).conj()
            m = np.fft.ifft(m, axis=axis) * (n / dx) / n
        return m

    def with_modes(self, modes: np.ndarray, provenance: str | None = None) -> GridFunction:
        return GridFunction(
            modes, self.box, self.seed,
            self.provenance if provenance is None else provenance,
        )


def _center_phase(n: int, ndim: int, axis: int) -> np.ndarray:
    # exp(-i xi_n x_0) with x_0 = -L/2 equals (-1)^n exactly
    idx = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(np.int64)
    ph = np.where(idx % 2 == 0, 1.0, -1.0).astype(np.complex128)
    shape = [1] * ndim
    shape[axis] = n
    return ph.reshape(shape)


def from_samples(samples: np.ndarray, box, seed=None, provenance="") -> GridFunction:
    """Forward transform of physical samples on centered grid(s)."""
    m = np.asarray(samples, dtype=np.complex128)
    box_t = (box,) if np.isscalar(box) else tuple(box)
    for axis in range(m.ndim):
        n = m.shape[axis]
        dx = box_t[axis] / n
        m = np.fft.fft(m, axis=axis) * dx
        m = m * _center_phase(n, m.ndim, axis)
    return GridFunction(m, box_t, seed=seed, provenance=provenance)


def angular_weight(xi: np.ndarray, s: float, homogeneous: bool = False) -> np.ndarray:
    if homogeneous:
        with np.errstate(divide="ignore"):
            w = np.abs(xi) ** s
        w = np.where(xi == 0.0, 0.0, w)
        return w
    return (1.0 + xi * xi) ** (s / 2.0)


def hat_norm(u: GridFunction, s: float, r: float, homogeneous: bool = False) -> float:
    """Discrete data norm: the l^{r'} sum of <xi>^s |u_hat| with measure dxi.

    The homogeneous variant uses |xi|^s and drops the zero mode.
    """
    if u.dims != 1:
        raise GridError("hat_norm expects a 1D grid function")
    if not (1.0 < r < math.inf):
        raise GridError(f"r must lie in (1, inf) (got {r})")
    rp = r / (r - 1.0)
    xi = u.frequencies(0)
    dxi = 2.0 * np.pi / u.box[0]
    w = angular_weight(xi, s, homogeneous)
    return float(np.sum((w * np.abs(u.modes)) ** rp * dxi) ** (1.0 / rp))


@dataclass(frozen=True)
class WeightSpec:
    """Frequency and modulation weights for the space-time norm.

    dispersion fixes the symbol phi in <tau + phi(xi)>: xi^2 for
    "schroedinger", +|xi| / -|xi| for the two reduced-wave signs, 0 for
    "none".  b_prime is the dual modulation exponent used by the Duhamel
    probe.
    """

    s: float
    b: float
    dispersion: str = "schroedinger"
    b_prime: float | None = None

    def __post_init__(self):
        if self.dispersion not in DISPERSIONS:
            raise GridError(
                f"dispersion must be one of {DISPERSIONS} (got {self.dispersion!r})"
            )


def dispersion_symbol(dispersion: str, xi: np.ndarray) -> np.ndarray:
    if dispersion == "schroedinger":
        return xi * xi
    if dispersion == "wave_plus":
        return np.abs(xi)
    if dispersion == "wave_minus":
        return -np.abs(xi)
    if dispersion == "none":
        return np.zeros_like(xi)
    raise GridError(f"unknown dispersion {dispersion!r}")


def spacetime_norm(f: GridFunction, w: WeightSpec, r: float) -> float:
    """Discrete restriction norm with weights <xi>^s <tau + phi(xi)>^b."""
    if f.dims != 2:
        raise GridError("spacetime_norm expects a 2D grid function")
    if not (1.0 < r < math.inf):
        raise GridError(f"r must lie in (1, inf) (got {r})")
    rp = r / (r - 1.0)
    xi = f.frequencies(0)[:, None]
    tau = f.frequencies(1)[None, :]
    mod = tau + dispersion_symbol(w.dispersion, xi)
    weight = (1.0 + xi * xi) ** (w.s / 2.0) * (1.0 + mod * mod) ** (w.b / 2.0)
    dmu = (2.0 * np.pi / f.box[0]) * (2.0 * np.pi / f.box[1])
    return float(np.sum((weight * np.abs(f.modes)) ** rp * dmu) ** (1.0 / rp))


@dataclass(frozen=True)
class RoughDataSpec:
    """Deterministic recipe for rough data with a prescribed decay profile.

    Mode magnitudes follow <xi>^(-k - 1/p' - delta) with delta fixed at
    1/100, which keeps the (k, p) data norm finite on every grid while the
    L^2 norm diverges once k - 1/p + 1/2 < 0 stays negative.
    """

    k: float
    p: float
    n: int
    seed: int
    profile: str = "randomized_phase"
    box: float = 2.0 * np.pi
    hermitian: bool = False

    def __post_init__(self):
        if self.profile not in ("randomized_phase", "deterministic_decay"):
            raise GridError(f"unknown profile {self.profile!r}")
        _check_pow2(self.n)


def rough_data(spec: RoughDataSpec) -> GridFunction:
    """Rough initial data; identical output for identical specs."""
    pprime = spec.p / (spec.p - 1.0)
    xi = 2.0 * np.pi * np.fft.fftfreq(spec.n, d=spec.box / spec.n)
    mag = (1.0 + xi * xi) ** (-(spec.k + 1.0 / pprime + ROUGH_DECAY_MARGIN) / 2.0)
    if spec.profile == "deterministic_decay":
        phase = np.ones_like(mag, dtype=np.complex128)
    else:
        rng = np.random.default_rng(spec.seed)
        phase = np.exp(2j * np.pi * rng.uniform(size=spec.n))
    modes = mag * phase
    if spec.hermitian:
        # u_hat(-xi) = conj(u_hat(xi)); zero and Nyquist modes forced real
        half = spec.n // 2
        modes[0] = np.abs(modes[0])
        modes[half] = np.abs(modes[half])
        modes[half + 1:] = np.conj(modes[1:half][::-1])
    return GridFunction(
        modes, (spec.box,), seed=spec.seed,
        provenance=f"rough k={spec.k} p={spec.p} profile={spec.profile}",
    )


def unit_rough_data(spec: RoughDataSpec) -> GridFunction:
    """Rough data rescaled to unit (k, p) norm."""
    u = rough_data(spec)
    nrm = hat_norm(u, spec.k, spec.p)
    return u.with_modes(u.modes / nrm)


def dilate(u: GridFunction, mu: float, amplitude_exp: float) -> GridFunction:
    """Return mu^amplitude_exp * u(mu x) on the box L/mu.

    The dilated grid's sample points are the source points divided by mu,
    so physical samples carry over exactly and the modes pick up the factor
    mu^(amplitude_exp - 1) at frequencies mu*xi.
    """
    if u.dims != 1:
        raise GridError("dilate expects a 1D grid function")
    if not (mu > 0) or not math.isfinite(mu):
        raise GridError(f"dilation factor must be positive and finite (got {mu})")
    modes = u.modes * mu ** (amplitude_exp - 1.0)
    return GridFunction(
        modes, (u.box[0] / mu,), seed=u.seed,
        provenance=f"{u.provenance}|dilate mu={mu} a={amplitude_exp}",
    )


@dataclass(frozen=True)
class CutoffSpec:
    """Smooth even bump psi: 1 on [-1, 1], supported in (-2, 2), psi >= 0.

    psi_delta(t) = psi(t / delta).
    """

    delta: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.delta <= 1.0):
            raise GridError(f"delta must lie in (0, 1] (got {self.delta})")

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return smooth_bump(np.asarray(t, dtype=float) / self.delta)


def smooth_bump(t: np.ndarray) -> np.ndarray:
    t = np.abs(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    out[t <= 1.0] = 1.0
    mid = (t > 1.0) & (t < 2.0)
    s = 2.0 - t[mid]  # in (0, 1); glue with the standard exp(-1/s) partition
    g = np.exp(-1.0 / s)
    g1 = np.exp(-1.0 / (1.0 - s))
    out[mid] = g / (g + g1)
    return out


def time_axis(n_t: int, t_box: float) -> np.ndarray:
    return -t_box / 2 + np.arange(n_t) * (t_box / n_t)


def free_evolution(
    u0: GridFunction,
    dispersion: str,
    n_t: int,
    t_box: float,
    cutoff: CutoffSpec | None = None,
) -> GridFunction:
    """Time-cut free evolution of 1D data as a 2D grid function."""
    if u0.dims != 1:
        raise GridError("free_evolution expects 1D data")
    xi = u0.frequencies(0)
    t = time_axis(n_t, t_box)
    phase = np.exp(-1j * np.outer(dispersion_symbol(dispersion, xi), t))
    field_t = phase * u0.modes[:, None]
    if cutoff is not None:
        field_t = field_t * cutoff(t)[None, :]
    dt = t_box / n_t
    modes = np.fft.fft(field_t, axis=1) * dt
    modes = modes * _center_phase(n_t, 2, 1)
    return GridFunction(
        modes, (u0.box[0], t_box), seed=u0.seed,
        provenance=f"{u0.provenance}|free {dispersion}",
    )


def duhamel_cutoff_probe(
    forcing: GridFunction, w: WeightSpec, delta: float, r: float
) -> tuple[float, float]:
    """Check the time-cut Duhamel estimate mode by mode.

    Solves i v_t - phi(-i dx) v = F with v(0) = 0 by cumulative trapezoid
    quadrature per spatial mode, applies the cutoff psi_delta, and returns
    (|psi_delta v| in the (s, b) norm, delta^(1+b'-b) |F| in the (s, b')
    norm) so the caller can watch the constant across delta.
    """
    if forcing.dims != 2:
        raise GridError("duhamel_cutoff_probe expects 2D forcing")
    if w.b_prime is None:
        raise GridError("WeightSpec.b_prime is required for the Duhamel probe")
    b, bp = w.b, w.b_prime
    rp = r / (r - 1.0)
    if not (bp + 1.0 >= b >= 0.0 >= bp and bp > -1.0 / rp):
        raise GridError(
            "exponents must satisfy b'+1 >= b >= 0 >= b' > -1/r' "
            f"(got b={b}, b'={bp}, r={r})"
        )
    n_x, n_t = forcing.shape
    t_box = forcing.box[1]
    dt = t_box / n_t
    t = time_axis(n_t, t_box)
    xi = forcing.frequencies(0)
    phi = dispersion_symbol(w.dispersion, xi)

    # recover F(xi, t) from the (xi, tau) modes
    f_hat = forcing.modes * _center_phase(n_t, 2, 1).conj()
    f_time = np.fft.ifft(f_hat, axis=1) / dt

    # v_hat(t) = -i exp(-i phi t) * int_0^t exp(i phi s) F(s) ds
    integrand = np.exp(1j * np.outer(phi, t)) * f_time
    j0 = n_t // 2  # index of t = 0
    prim = np.zeros_like(integrand)
    inc = 0.5 * (integrand[:, 1:] + integrand[:, :-1]) * dt
    prim[:, j0 + 1:] = np.cumsum(inc[:, j0:], axis=1)
    prim[:, :j0] = -np.cumsum(inc[:, :j0][:, ::-1], axis=1)[:, ::-1]
    v_time = -1j * np.exp(-1j * np.outer(phi, t)) * prim

    v_cut = v_time * CutoffSpec(delta)(t)[None, :]
    v_modes = np.fft.fft(v_cut, axis=1) * dt * _center_phase(n_t, 2, 1)
    v = GridFunction(v_modes, forcing.box)
    lhs = spacetime_norm(v, WeightSpec(w.s, b, w.dispersion), r)
    rhs = delta ** (1.0 + bp - b) * spacetime_norm(
        forcing, WeightSpec(w.s, bp, w.dispersion), r
    )
    return lhs, rhs


GRID_FORMAT_MAGIC = "zaklab-grid v1"


def save_grid(u: GridFunction, path) -> None:
    """Serialize to the stable textual snapshot format.

    Layout: magic line; "dims D"; "shape n0 [n1]"; "box L0 [L1]";
    "seed S|none"; "provenance ..."; then one "re im" pair per mode in
    C order, as repr'd doubles.
    """
    lines = [
        GRID_FORMAT_MAGIC,
        f"dims {u.dims}",
        "shape " + " ".join(str(n) for n in u.shape),
        "box " + " ".join(repr(b) for b in u.box),
        f"seed {'none' if u.seed is None else u.seed}",
        f"provenance {u.provenance}",
    ]
    flat = u.modes.ravel(order="C")
    lines.extend(f"{float(z.real)!r} {float(z.imag)!r}" for z in flat)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_grid(path) -> GridFunction:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != GRID_FORMAT_MAGIC:
        raise GridError(f"{path}: not a grid snapshot (bad magic)")
    dims = int(lines[1].split()[1])
    shape = tuple(int(v) for v in lines[2].split()[1:])
    box = tuple(float(v) for v in lines[3].split()[1:])
    seed_tok = lines[4].split(maxsplit=1)[1]
    seed = None if seed_tok == "none" else int(seed_tok)
    provenance = lines[5].split(maxsplit=1)[1] if len(lines[5].split(maxsplit=1)) > 1 else ""
    count = int(np.prod(shape))
    if len(lines) - 6 != count:
        raise GridError(f"{path}: {len(lines) - 6} mode lines for {count} modes")
    vals = np.empty(count, dtype=np.complex128)
    for i, line in enumerate(lines[6:6 + count]):
        re_s, im_s = line.split()
        vals[i] = complex(float(re_s), float(im_s))
    if dims != len(shape):
        raise GridError(f"{path}: dims/shape mismatch")
    return GridFunction(vals.reshape(shape), box, seed=seed, provenance=provenance)
