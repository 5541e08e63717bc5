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

from . import ZaklabError

ROUGH_DECAY_MARGIN = 1.0 / 100.0  # extra decay delta in the rough-data profile


class GridError(ZaklabError):
    """Invalid grid construction or mismatched grid operands."""


def _check_pow2(n: int) -> None:
    if n < 2 or (n & (n - 1)) != 0:
        raise GridError(f"mode count per axis must be a power of two (got {n})")


def wavenumbers(n: int, box: float) -> np.ndarray:
    """The frequencies xi_j = 2*pi*j/L of n modes on the box L, in numpy
    fft ordering."""
    return 2.0 * np.pi * np.fft.fftfreq(n, d=box / n)


def mode_indices(n: int) -> np.ndarray:
    """The integer mode numbers j of n modes, in numpy fft ordering."""
    return np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(np.int64)


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
        if len(box) != m.ndim or not all(0 < b < math.inf for b in box):
            raise GridError(
                f"box {box} needs one positive finite length per axis of a {m.ndim}D grid"
            )
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
        return wavenumbers(self.shape[axis], self.box[axis])

    def to_samples(self) -> np.ndarray:
        """Physical samples on the centered grid."""
        m = self.modes
        for axis in range(m.ndim):
            n = m.shape[axis]
            dx = self.box[axis] / n
            m = m * _center_phase(n, m.ndim, axis).conj()
            m = np.fft.ifft(m, axis=axis) * (n / dx) / n
        return m


def _center_phase(n: int, ndim: int, axis: int) -> np.ndarray:
    # exp(-i xi_n x_0) with x_0 = -L/2 equals (-1)^n exactly
    ph = np.where(mode_indices(n) % 2 == 0, 1.0, -1.0).astype(np.complex128)
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
    if homogeneous:
        with np.errstate(divide="ignore"):
            w = np.where(xi == 0.0, 0.0, np.abs(xi) ** s)
    else:
        w = (1.0 + xi * xi) ** (s / 2.0)
    return float(np.sum((w * np.abs(u.modes)) ** rp * dxi) ** (1.0 / rp))


@dataclass(frozen=True)
class RoughDataSpec:
    """Deterministic recipe for rough data with a prescribed decay profile.

    Mode magnitudes follow <xi>^(-k - 1/p' - delta) with delta fixed at
    1/100, which keeps the (k, p) data norm finite on every grid while the
    L^2 norm diverges once k - 1/p + 1/2 < 0 stays negative.  Phases are
    uniform random, drawn from seed.
    """

    k: float
    p: float
    n: int
    seed: int
    box: float = 2.0 * np.pi
    hermitian: bool = False

    def __post_init__(self):
        _check_pow2(self.n)


def rough_data(spec: RoughDataSpec) -> GridFunction:
    """Rough initial data; identical output for identical specs."""
    pprime = spec.p / (spec.p - 1.0)
    xi = wavenumbers(spec.n, spec.box)
    mag = (1.0 + xi * xi) ** (-(spec.k + 1.0 / pprime + ROUGH_DECAY_MARGIN) / 2.0)
    rng = np.random.default_rng(spec.seed)
    modes = mag * np.exp(2j * np.pi * rng.uniform(size=spec.n))
    if spec.hermitian:
        # u_hat(-xi) = conj(u_hat(xi)); zero and Nyquist modes forced real
        half = spec.n // 2
        modes[0] = np.abs(modes[0])
        modes[half] = np.abs(modes[half])
        modes[half + 1:] = np.conj(modes[1:half][::-1])
    return GridFunction(
        modes, (spec.box,), seed=spec.seed,
        provenance=f"rough k={spec.k} p={spec.p}",
    )


def unit_rough_data(spec: RoughDataSpec) -> GridFunction:
    """Rough data rescaled to unit (k, p) norm."""
    u = rough_data(spec)
    nrm = hat_norm(u, spec.k, spec.p)
    return GridFunction(u.modes / nrm, u.box, u.seed, u.provenance)


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
    """Read a snapshot written by save_grid; malformed text raises GridError."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != GRID_FORMAT_MAGIC:
        raise GridError(f"{path}: not a grid snapshot (bad magic)")
    header = [line.split(maxsplit=1) for line in lines[1:6]]
    try:
        dims = int(header[0][1])
        shape = tuple(int(v) for v in header[1][1].split())
        box = tuple(float(v) for v in header[2][1].split())
        seed = None if header[3][1] == "none" else int(header[3][1])
        provenance = header[4][1] if len(header[4]) > 1 else ""
    except (IndexError, ValueError) as exc:
        raise GridError(f"{path}: malformed header ({exc})") from None
    if dims != len(shape):
        raise GridError(f"{path}: dims/shape mismatch")
    for n in shape:
        _check_pow2(n)
    count = math.prod(shape)
    if len(lines) - 6 != count:
        raise GridError(f"{path}: {len(lines) - 6} mode lines for {count} modes")
    vals = np.empty(count, dtype=np.complex128)
    try:
        for i, line in enumerate(lines[6:]):
            re_s, im_s = line.split()
            vals[i] = complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise GridError(f"{path}: mode line {i + 7}: {exc}") from None
    return GridFunction(vals.reshape(shape), box, seed=seed, provenance=provenance)
