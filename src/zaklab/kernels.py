"""Quadrature certification of the weighted kernel suprema behind the
trilinear product estimates, plus property probes of the underlying
Hoelder bound.

Two kernel families arise, one per nonlinearity.  The Schroedinger-product
family integrates, at fixed outer pair (xi1, sigma1),

    <sigma1>^(-c1 p) <xi1>^(k p) *
        int d xi2 d sigma2 / ( <sigma>^(b p) <sigma2>^(b1 p)
                               <xi1 - xi2>^(l p) <xi2>^(k p) ),

with sigma recovered from the resonance relation
z = xi1^2 - xi2^2 = sigma1 - sigma2 - sigma.  The wave-source family
integrates, at fixed (xi, sigma),

    <sigma>^(-c p) <xi>^(l p) |xi|^p *
        int d xi2 d sigma2  <xi + xi2>^(-k p) <xi2>^(-k p)
                            <sigma1>^(-b1 p) <sigma2>^(-b1 p),

with sigma1 = sigma + sigma2 + z and z = (xi + xi2)^2 - xi2^2.  A finite
supremum over the outer pair is the quantitative content of the product
estimates; this module reports a saturation verdict for the masses on a
doubling ladder of truncation radii as its numerical surrogate.

Quadrature note: the modulation peak sits on the resonance curve whose
width in xi2 shrinks like 1/(2|xi2|), so a product grid in (xi2, sigma2)
cannot resolve it at large radii.  The sigma2 integral is therefore
precomputed as a 1D convolution table, and the xi2 integral is taken in
the substituted variable y = xi2^2 (Schroedinger-product family) or
u = 2 xi xi2 (wave-source family), in which every feature has width O(1)
on the grid.  The masses truncated to [-R, R]^2 are kept as defined for
cross-checks against Riemann sums, but kernel_sup does not rest on them:
near the admissibility boundary they converge like R^(-alpha) with a
tiny alpha (9/700 at the criterion-6 point), and the sigma2 window misses
the second modulation peak whenever it lies beyond R.  kernel_sup
integrates sigma2 over the real line through a complete table (a lattice
convolution near the origin, a closed form beyond) and adds the xi2
remainder beyond R in closed form (tail_exponents, tail_mass).  Domains
are nested across the radius ladder and the table depends only on its
argument, so the xi2-truncated masses are monotone in the radius.

One kernel_mass serves both families; each fact that differs by family
is written once: the xi2 node sets (_node_sets) and amplitudes
(_pieces), the outer weight (_prefactor, shared with tail_mass) and the
sigma2 table's span (_complete_table).  The nodes and amplitudes depend
on the outer xi alone, not on sigma, so kernel_mass takes an array of
sigma values, and a tuple of radii: kernel_sup's work items are per xi.
Every node lies on the table's h-lattice, h a power of two; inputs whose
node ranges leave it are rejected.  Reading the table at the y and u
nodes is a slice, bitwise equal to its interpolation (_ConvTable.at);
only the xi2^2 patch and bases sigma -+ xi^2 off the lattice are
interpolated.  A smaller radius's nodes are a sub-slice of the largest
radius's, so one integrand per sigma serves the whole ladder, and each
radius's trapezoid is a sum over its own span of the same pair sums.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

import numpy as np

from . import ZaklabError
from .grids import GridFunction, wavenumbers

# scipy is imported inside the three functions that call it: only
# kernel-scan reaches them, so every other command starts without it

FAMILY_SCHRODINGER_PRODUCT = "S"
FAMILY_WAVE_SOURCE = "W"
FAMILIES = (FAMILY_SCHRODINGER_PRODUCT, FAMILY_WAVE_SOURCE)
SIGNS = ("plus", "minus")

TINY_FLOOR = 1e-14  # integrand values below this are treated as zero
TAIL_RATE_ROUNDOFF = 1e-12  # xi2 tail rates up to this count as zero

WORKERS_ENV = "ZAKLAB_WORKERS"


class KernelError(ZaklabError):
    pass


def worker_count() -> int:
    """ZAKLAB_WORKERS, clamped to [1, the CPUs this process may use]."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        raise KernelError(f"{WORKERS_ENV} must be an integer (got {raw!r})")
    return max(1, min(n, len(os.sched_getaffinity(0))))


@dataclass(frozen=True)
class KernelSpec:
    """Weight exponents for one kernel family.

    c1 is the dual modulation exponent of the Schroedinger-product family,
    c the one of the wave-source family; from_point derives them as
    1 - b1 - eps and 1 - b - eps.  After the completing-the-square shift
    the truncated-mass integrands are identical for the two sign choices,
    so the masses ignore sign; it picks the wave symbol +-|xi| of the
    trilinear probe's kernel.
    """

    family: str
    sign: str
    k: float
    l: float
    p: float
    b: float
    b1: float
    c1: float | None = None
    c: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise KernelError(f"family must be one of {FAMILIES} (got {self.family!r})")
        if self.sign not in SIGNS:
            raise KernelError(f"sign must be one of {SIGNS} (got {self.sign!r})")
        if not (1.0 < self.p <= 2.0):
            raise KernelError(f"p must satisfy 1 < p <= 2 (got {self.p})")
        if self.family == FAMILY_SCHRODINGER_PRODUCT and self.c1 is None:
            raise KernelError("Schroedinger-product family needs c1")
        if self.family == FAMILY_WAVE_SOURCE and self.c is None:
            raise KernelError("wave-source family needs c")

    @classmethod
    def from_point(cls, pt, family: str, sign: str, eps: float = 0.01) -> KernelSpec:
        """Build from an exact parameter point with the standard open slack
        eps on the dual exponents."""
        return cls(
            family=family,
            sign=sign,
            k=float(pt.k),
            l=float(pt.l),
            p=float(pt.p),
            b=float(pt.b),
            b1=float(pt.b1),
            c1=1.0 - float(pt.b1) - eps,
            c=1.0 - float(pt.b) - eps,
        )


def _bracket_pow(x: np.ndarray, expo: float) -> np.ndarray:
    """<x>^expo with <x> = sqrt(1 + x^2)."""
    return (1.0 + x * x) ** (expo / 2.0)


def _lattice_index(x: float, h: float) -> int | None:
    """The integer j with x == j h, when |j| is below 2^51, so that sums
    of three such lattice points are exact in floats; else None.  h is a
    power of two, so x / h is exact."""
    j = x / h
    if not j.is_integer() or abs(j) >= 2.0**51:
        return None
    return int(j)


@dataclass(frozen=True)
class _ConvTable:
    """Dense table of H(a) = int <s>^(-e_in) <a-s>^(-e_out) ds over
    s in [-R, R], or over all of the real line for the complete table.

    Arguments on the table's own lattice a0 + h j are read as a slice
    (at); anything else is interpolated (__call__)."""

    a0: float
    h: float
    values: np.ndarray

    def __call__(self, a: np.ndarray) -> np.ndarray:
        """Linear interpolation, clamped to the end values; the cost is in
        the number of arguments only, not in the table length."""
        idx = (np.asarray(a, dtype=float) - self.a0) / self.h
        np.clip(idx, 0.0, len(self.values) - 1.0, out=idx)
        i = idx.astype(np.intp)
        np.minimum(i, len(self.values) - 2, out=i)
        idx -= i
        lo = self.values[i]
        out = self.values[1:][i]
        out -= lo
        out *= idx
        out += lo
        return out

    def at(self, base: float, first: int, n: int) -> np.ndarray:
        """self(base + nodes), bit for bit, at the n lattice nodes
        h (first + i).

        When base is a lattice point too, every interpolation index is an
        exact integer j0 + i with fraction 0.0, so for the finite values
        _conv_table builds the interpolation returns values[j0 + i]
        exactly, and the result is the read-only view values[j0 : j0 + n].
        The last table entry is left to __call__, which reads it as the
        entry before it plus a fraction of 1.0, not bitwise the entry
        itself.  A base off the lattice is interpolated."""
        b = _lattice_index(base, self.h)
        a = _lattice_index(self.a0, self.h)
        if b is not None and a is not None:
            j0 = b - a + first
            if 0 <= j0 and j0 + n <= len(self.values) - 1:
                return self.values[j0 : j0 + n]
        return self(base + self.h * (first + np.arange(n)))


# The complete table is a lattice convolution for |a| <= A_NEAR, over an
# s-window of half-width 2 A_NEAR that holds both peaks (s = 0 and s = a)
# with A_NEAR to spare; beyond A_NEAR it is the closed form of _conv_far,
# whose relative error there is below 2e-5 for exponents in (1, 2].
A_NEAR = 512.0


def _bracket_integral(e: float) -> float:
    """C(e) = int <s>^(-e) ds over the real line, for e > 1."""
    return math.sqrt(math.pi) * math.gamma((e - 1.0) / 2.0) / math.gamma(e / 2.0)


def _homogeneous_coefficient(e1: float, e2: float) -> float:
    """F = finite part of int |t|^(-e1) |1-t|^(-e2) dt over the real line,
    summed over t < 0, 0 < t < 1 and t > 1 as three Beta functions.  An
    exponent equal to 2 is a removable pole of the sum, taken as the mean
    of its neighbours."""
    from scipy import special

    terms = (
        special.beta(1.0 - e1, 1.0 - e2),
        special.beta(1.0 - e1, e1 + e2 - 1.0),
        special.beta(1.0 - e2, e1 + e2 - 1.0),
    )
    if all(math.isfinite(t) for t in terms):
        return float(sum(terms))
    d = 1e-6
    return 0.5 * (
        _homogeneous_coefficient(e1 + d, e2 + d)
        + _homogeneous_coefficient(e1 - d, e2 - d)
    )


@functools.lru_cache(maxsize=64)
def _far_terms(e1: float, e2: float) -> tuple[tuple[float, float], ...]:
    """(coefficient, power) pairs of the large-|a| closed form of
    int <s>^(-e1) <a-s>^(-e2) ds over the real line, for e1, e2 > 1:

        C(e1) |a|^(-e2) + C(e2) |a|^(-e1) + F |a|^(1-e1-e2).

    The first two terms are the peaks at s = 0 and s = a, where the other
    factor is frozen at |a|; the third is the homogeneous integral
    |a|^(1-e1-e2) int |t|^(-e1) |1-t|^(-e2) dt, whose finite part F
    corrects for both frozen factors.  The next terms are O(|a|^-2)
    relative to these."""
    return (
        (_bracket_integral(e1), e2),
        (_bracket_integral(e2), e1),
        (_homogeneous_coefficient(e1, e2), e1 + e2 - 1.0),
    )


def _conv_far(a: np.ndarray, e1: float, e2: float) -> np.ndarray:
    """The closed form of _far_terms at the arguments a."""
    x = np.abs(np.asarray(a, dtype=float))
    out = np.zeros_like(x)
    for coeff, power in _far_terms(e1, e2):
        out += coeff * x ** (-power)
    return out


def _lattice_conv(
    e_inner: float, e_outer: float, S: float, h: float, a_lo: float, n: int
) -> np.ndarray:
    """Trapezoid sums over s in [-S, S] (S a multiple of h) of
    <s>^(-e_inner) <a-s>^(-e_outer), at a = a_lo + h j for j < n."""
    from scipy import fft

    m = int(round(2.0 * S / h)) + 1
    s = -S + h * np.arange(m)
    fw = _bracket_pow(s, -e_inner)
    fw[0] *= 0.5
    fw[-1] *= 0.5
    fw *= h
    q = (a_lo - S) + h * np.arange(n + m - 1)
    # the valid part of the full linear convolution, computed as
    # scipy.signal.fftconvolve(..., mode="valid") does it, without
    # importing scipy.signal (which loads scipy.stats)
    size = fft.next_fast_len(n + 2 * m - 2, True)
    full = fft.irfft(fft.rfft(_bracket_pow(q, -e_outer), size)
                     * fft.rfft(fw, size), size)
    return full[m - 1 : m - 1 + n].copy()


def _conv_table(
    e_inner: float, e_outer: float, R: float, h: float, amin: float, amax: float
) -> _ConvTable:
    """Table of H on the h-lattice covering [amin, amax].  R = inf gives
    the complete table (s over the real line): the lattice sum over
    [-S, S] with S = 2 A_NEAR plus its two tails beyond S in closed form
    for |a| <= A_NEAR, and _conv_far beyond.  Either way the values depend
    only on a and h, not on the span."""
    amin = math.floor((amin - 4.0 * h) / h) * h
    amax = math.ceil((amax + 4.0 * h) / h) * h
    n = int(round((amax - amin) / h)) + 1
    if math.isinf(R):
        if not (e_inner > 1.0 and e_outer > 1.0):
            raise KernelError(
                "the complete sigma2 table needs both modulation exponents "
                f"above 1 (got {e_inner}, {e_outer})"
            )
        a = amin + h * np.arange(n)
        i0 = int(np.searchsorted(a, -A_NEAR))
        i1 = int(np.searchsorted(a, A_NEAR, side="right"))
        vals = np.empty(n)
        vals[:i0] = _conv_far(a[:i0], e_inner, e_outer)
        vals[i1:] = _conv_far(a[i1:], e_inner, e_outer)
        if i1 > i0:
            from scipy import special

            S = h * math.ceil(2.0 * A_NEAR / h)
            E = e_inner + e_outer
            z = a[i0:i1] / S
            # int_S^inf s^(-e_in) (s -+ a)^(-e_out) ds in closed form;
            # <.> differs from |.| there by a relative O(A_NEAR^-2)
            tails = S ** (1.0 - E) / (E - 1.0) * (
                special.hyp2f1(e_outer, E - 1.0, E, z)
                + special.hyp2f1(e_outer, E - 1.0, E, -z)
            )
            vals[i0:i1] = (
                _lattice_conv(e_inner, e_outer, S, h, a[i0], i1 - i0) + tails
            )
    else:
        vals = _lattice_conv(e_inner, e_outer, R, h, amin, n)
    np.maximum(vals, 0.0, out=vals)
    vals[vals < TINY_FLOOR] = 0.0
    vals.flags.writeable = False  # at() hands out views of it
    return _ConvTable(amin, h, vals)


def _floor_tiny(vals: np.ndarray) -> None:
    """Zero the values below TINY_FLOOR in place.  The mask is built only
    when some value is below the floor, which is rare in practice."""
    if vals.min() < TINY_FLOOR:
        vals[vals < TINY_FLOOR] = 0.0


def _trapezoid(pair: np.ndarray, step: float) -> float:
    """The sum np.trapezoid(v, x) evaluates for 1-D input with spacings
    exactly step, a power of two, from the pair sums pair = v[1:] +
    v[:-1]: scaling by step commutes with every rounding of the sum, so
    pair.sum() * (step / 2.0) is bitwise (np.diff(x) * pair / 2.0).sum()."""
    return float(pair.sum()) * (step / 2.0)


class _Integrand:
    """One piece of the xi2 integral, amp * table(base + args), divided by
    divisor when given, integrated by the trapezoid over the largest
    radius's nodes; args are those nodes, h (first + i), unless given (the
    xi2 patch, read at xi2^2).  The integral of each ladder index is a sum
    over its own span (lo, hi) of the same pair sums; the floor and the
    pair sums act elementwise, so it is bitwise the one of that radius's
    own nodes.  Buffers are reused for every base and are per instance,
    so instances are not shared between threads."""

    def __init__(self, table: _ConvTable, amp, spans, first=None, divisor=None,
                 args=None):
        self.table, self.amp, self.spans = table, amp, spans
        self.first, self.divisor, self.args = first, divisor, args
        self.buf = np.empty(len(amp))
        self.pair = np.empty(len(amp) - 1)

    def integrals(self, base: float):
        """(ladder index, integral) over the ladder at one base."""
        if self.args is None:
            vals = self.table.at(base, self.first, len(self.buf))
        else:
            vals = self.table(base + self.args)
        buf = np.multiply(self.amp, vals, out=self.buf)
        if self.divisor is not None:
            np.divide(buf, self.divisor, out=buf)
        _floor_tiny(buf)
        pair = np.add(buf[1:], buf[:-1], out=self.pair)
        for i, (lo, hi) in self.spans.items():
            yield i, _trapezoid(pair[lo:hi], self.table.h)


def _ladder_masses(pieces: list[_Integrand], bases, prefs, scale: float,
                   n_radii: int, where) -> list[list[float]]:
    """masses[radius][j] = prefs[j] * (integral / scale) at bases[j], where
    the integral at a ladder index is the sum of its pieces' integrals in
    the order of pieces.  A nonfinite mass raises KernelError naming
    where[j]."""
    masses = [[0.0] * len(bases) for _ in range(n_radii)]
    for j, (base, pref) in enumerate(zip(bases, prefs)):
        totals = {}
        for piece in pieces:
            for i, v in piece.integrals(base):
                totals[i] = totals[i] + v if i in totals else v
        for i, total in totals.items():
            value = pref * (total / scale)
            if not math.isfinite(value):
                raise KernelError(f"nonfinite truncated mass at {where[j]}")
            masses[i][j] = value
    return masses


def _radii(R) -> tuple[float, ...]:
    """R as a strictly ascending tuple of positive radii."""
    radii = tuple(float(r) for r in np.atleast_1d(R))
    if not all(r > 0 for r in radii):
        raise KernelError(f"truncation radius must be positive (got {R})")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise KernelError(f"truncation radii must ascend strictly (got {R})")
    return radii


def _shaped(masses: list[list[float]], outer2, R) -> float | np.ndarray:
    """masses[radius][sigma] as a float for scalar outer2 and R, else an
    array with one axis per non-scalar argument, radii first."""
    out = np.array(masses)
    if np.ndim(outer2) == 0:
        out = out[:, 0]
    if np.ndim(R) == 0:
        out = out[0]
    return float(out) if out.ndim == 0 else out


def _complete_table(spec: KernelSpec, pts, R: float, h: float,
                    sigma_radius: float = math.inf) -> _ConvTable:
    """The sigma2 table covering every argument the masses at the outer
    points pts reach with |xi2| <= R.  sigma2 runs over the real line
    (the complete table), or over [-sigma_radius, sigma_radius]."""
    p = spec.p
    if spec.family == FAMILY_SCHRODINGER_PRODUCT:
        bases = [s - x * x for x, s in pts]
        return _conv_table(spec.b1 * p, spec.b * p, sigma_radius, h,
                           min(bases), max(bases) + R * R)
    centres = [s + x * x for x, s in pts]
    span = 2.0 * max(abs(x) for x, _ in pts) * R
    return _conv_table(spec.b1 * p, spec.b1 * p, sigma_radius, h,
                       min(centres) - span, max(centres) + span)


def _prefactor(spec: KernelSpec, outer1: float, outer2: float) -> float:
    """The outer weight of spec's family at (outer1, outer2): <sigma1>^(-c1 p)
    <xi1>^(k p) (S), or <sigma>^(-c p) <xi>^(l p) |xi|^p (W)."""
    p = spec.p
    if spec.family == FAMILY_SCHRODINGER_PRODUCT:
        return _bracket_pow(outer2, -spec.c1 * p) * _bracket_pow(outer1, spec.k * p)
    return (_bracket_pow(outer2, -spec.c * p) * _bracket_pow(outer1, spec.l * p)
            * abs(outer1) ** p)


def _node_sets(family: str, xi: float, radii: tuple[float, ...],
               h: float) -> dict[str, tuple[int, int, dict]]:
    """The xi2 node sets of the family at the outer xi, u in
    [-2|xi| r, 2|xi| r] (W), or the patch xi2 in [-min(1, r), min(1, r)]
    and y in [1, r^2] for r > 1 (S), each as (first, n, spans): its nodes
    are the lattice points h (first + i) for i < n, and spans[ladder index]
    the (lo, hi) of that radius's own nodes among them.  Raises
    KernelError unless h is a power of two and every range runs a whole,
    positive number of steps between lattice points.  W has no nodes at
    xi = 0, where its prefactor |xi|^p vanishes."""
    if math.frexp(h)[0] != 0.5:
        raise KernelError(f"resolution must be a power of two (got {h})")

    def node_set(name: str, ranges: dict[int, tuple[float, float, float]]):
        ends = {}
        for i, (r, lo, hi) in ranges.items():
            a, b = _lattice_index(lo, h), _lattice_index(hi, h)
            if a is None or b is None or b <= a:
                raise KernelError(
                    f"the {name} range [{lo}, {hi}] of radius {r} at xi = {xi} "
                    f"is not a whole, positive number of steps {h} on the lattice")
            ends[i] = (a, b)
        first = min(a for a, _ in ends.values())
        n = max(b for _, b in ends.values()) - first + 1
        return first, n, {i: (a - first, b - first) for i, (a, b) in ends.items()}

    if family == FAMILY_WAVE_SOURCE:
        w = 2.0 * abs(xi)
        return {"u": node_set("u", {i: (r, -w * r, w * r)
                                    for i, r in enumerate(radii)})} if xi else {}
    sets = {"patch": node_set("xi2 patch", {i: (r, -min(1.0, r), min(1.0, r))
                                            for i, r in enumerate(radii)})}
    ys = {i: (r, 1.0, r * r) for i, r in enumerate(radii) if r > 1.0}
    return {**sets, "y": node_set("y", ys)} if ys else sets


def _pieces(spec: KernelSpec, xi: float, sets: dict, h: float,
            table: _ConvTable) -> list[_Integrand]:
    """The xi2 integrands of spec's family at the outer xi, one per node
    set of _node_sets.  S: the patch |xi2| <= min(1, R), read at y =
    xi2^2, then y = xi2^2 in [1, R^2], both signs of xi2 in one amplitude,
    with divisor 2 sqrt(y) for d xi2 = dy / (2 sqrt(y)).  W: u = 2 xi xi2
    in [-2|xi|R, 2|xi|R]; kernel_mass divides by 2|xi|."""
    p = spec.p

    def nodes(name: str):
        first, n, spans = sets[name]
        return h * (first + np.arange(n)), first, spans

    if spec.family == FAMILY_WAVE_SOURCE:
        u, first, spans = nodes("u")
        xi2 = u / (2.0 * xi)
        amp = _bracket_pow(xi + xi2, -spec.k * p) * _bracket_pow(xi2, -spec.k * p)
        return [_Integrand(table, amp, spans, first=first)]
    xi2, _, spans = nodes("patch")
    amp_in = _bracket_pow(xi - xi2, -spec.l * p) * _bracket_pow(xi2, -spec.k * p)
    pieces = [_Integrand(table, amp_in, spans, args=xi2 * xi2)]
    if "y" in sets:
        y, first, spans = nodes("y")
        root = np.sqrt(y)
        amp_out = (
            _bracket_pow(xi - root, -spec.l * p)
            + _bracket_pow(xi + root, -spec.l * p)
        ) * _bracket_pow(root, -spec.k * p)
        pieces.append(_Integrand(table, amp_out, spans, first=first,
                                 divisor=2.0 * root))
    return pieces


def kernel_mass(
    spec: KernelSpec, outer1: float, outer2, R,
    resolution: float = 0.25, table: _ConvTable | None = None,
) -> float | np.ndarray:
    """Truncated kernel mass of spec's family at the outer pair (outer1,
    outer2), (xi1, sigma1) for S and (xi, sigma) for W, integrated over
    [-R, R]^2 in (xi2, sigma2).  A table passed in replaces the sigma2
    integral: kernel_sup passes the complete one (sigma2 over the real
    line).  The W prefactor |xi|^p kills xi = 0.

    outer2 may be an array: the xi2 nodes and amplitudes are built once,
    and each outer2 costs one table read and one trapezoid per node set.
    R may be an ascending tuple of radii when a table is given; one
    integrand per outer2 then serves every radius.  The result is a float
    for scalar outer2 and R, else an array with one axis per array
    argument, radii first; each entry is bitwise the scalar call at that
    radius and outer2 with the same table.  Node ranges off the lattice
    raise KernelError (_node_sets) before any table is built."""
    radii = _radii(R)
    sigmas = np.atleast_1d(np.asarray(outer2, dtype=float)).tolist()
    schrodinger = spec.family == FAMILY_SCHRODINGER_PRODUCT
    if not schrodinger and outer1 == 0.0:
        return _shaped([[0.0] * len(sigmas) for _ in radii], outer2, R)
    sets = _node_sets(spec.family, outer1, radii, resolution)
    if table is None:
        # the truncated sigma2 table depends on the radius
        if len(radii) > 1:
            raise KernelError("a radius ladder needs a table")
        table = _complete_table(spec, [(outer1, s) for s in sigmas], radii[0],
                                resolution, sigma_radius=radii[0])
    elif table.h != resolution:  # the nodes are read as indices of its lattice
        raise KernelError(f"table step {table.h} is not the resolution {resolution}")
    # the table argument at xi2 = 0: sigma1 - xi1^2 (S), sigma + xi^2 (W)
    shift = -outer1 * outer1 if schrodinger else outer1 * outer1
    # a scale of 1.0 divides exactly
    scale = 1.0 if schrodinger else 2.0 * abs(outer1)
    masses = _ladder_masses(
        _pieces(spec, outer1, sets, resolution, table),
        [s + shift for s in sigmas],
        [_prefactor(spec, outer1, s) for s in sigmas],
        scale, len(radii),
        [f"(xi, sigma) = ({outer1}, {s})" for s in sigmas],
    )
    return _shaped(masses, outer2, R)


def _log_ladder(limit: float) -> list[float]:
    vals = [0.0]
    v = 1.0
    while v <= limit:
        vals.append(v)
        v *= 2.0
    if vals[-1] != limit:
        vals.append(float(limit))
    return vals


# kernel_sup's radii as fractions of R, and the doubling-ratio thresholds
# of its verdict (see SaturationDiagnostic)
LADDER = (0.125, 0.25, 0.5, 1.0)
SATURATING_FINAL_RATIO = 1.1
DIVERGING_MIN_RATIO = 1.25


def _outer_points(family: str, R: float, radius: float) -> list[tuple[float, float]]:
    """Candidate outer pairs (xi, sigma) with xi, |sigma| <= radius, from a
    logarithmic ladder of R in each variable plus alignment points on the
    resonance curve sigma = xi^2 (S) or -xi^2 (W), where the
    dominant-modulation analysis puts the extrema.  Grouped by ascending
    xi; each xi's sigmas in ladder order, then the aligned ones."""
    ladder = _log_ladder(R)
    sig = [s for s in sorted({s for v in ladder for s in (v, -v)}) if abs(s) <= radius]
    pts = []
    for x in sorted(set(ladder + [0.5, 1.5])):
        if x <= radius:
            res = x * x if family == FAMILY_SCHRODINGER_PRODUCT else -x * x
            aligned = sorted({res - 1.0, res, res + 1.0})
            pts += [(x, s) for s in dict.fromkeys(sig + aligned)]
    return pts


def tail_exponents(spec: KernelSpec) -> tuple[float, ...]:
    """Decay rates alpha of the xi2 integrand, which falls off like
    |xi2|^(-1-alpha) once sigma2 is integrated over the real line.

    Wave-source family: the amplitude grows like |xi2|^(-2kp) and the
    complete sigma2 integral decays like 2 C(b1 p) |2 xi xi2|^(-b1 p), so
    alpha = (b1 + 2k - 1/p) p, the slack of 2k > 1/p - b1 times p.
    Schroedinger-product family: the amplitude behaves like
    |xi2|^(-(l+k)p) and the sigma2 integral like
    C(b1 p) |xi2|^(-2bp) + C(b p) |xi2|^(-2 b1 p), one rate per term:
    alpha = (l + k + 2 beta - 1/p) p for beta = b and beta = b1, the
    slacks of l+k > 1/p - 2b and l+k > 1/p - 2b1.
    """
    p = spec.p
    if spec.family == FAMILY_SCHRODINGER_PRODUCT:
        return tuple((spec.l + spec.k + 2.0 * beta - 1.0 / p) * p
                     for beta in (spec.b, spec.b1))
    return ((spec.b1 + 2.0 * spec.k - 1.0 / p) * p,)


def _tails_converge(rates: Sequence[float]) -> bool:
    """Every rate positive beyond roundoff: a rate that is zero in exact
    arithmetic (a point on the convergence boundary, where the xi2
    integral diverges logarithmically) can come out as +1e-17 in floats."""
    return all(a > TAIL_RATE_ROUNDOFF for a in rates)


def tail_mass(spec: KernelSpec, outer1: float, outer2: float, R: float) -> float:
    """Closed-form remainder of the kernel mass over |xi2| > R, with
    sigma2 over the real line.  Each term coeff |a|^(-power) of the
    sigma2 integral's closed form (_far_terms) is taken at its
    large-|xi2| argument, |a| = 2 |xi| |xi2| (wave-source) or xi2^2
    (Schroedinger-product), times the amplitude's leading power of |xi2|;
    the resulting K |xi2|^(-1-rate) integrates over both half-lines to
    2 K R^(-rate) / rate.  The two peak terms carry the rates of
    tail_exponents; the homogeneous term decays faster, but only by
    R^(1-e) or R^(2-2e) with e the modulation exponent near 1, so it is
    kept.  The error is that of the neglected shifts: relative
    O(|outer1| / R) in the amplitude and in the table argument, except
    where the table argument a crosses 0 beyond R (the second modulation
    peak lies outside the xi2 window), which the power law does not see.
    Needs every tail exponent positive: otherwise the xi2 integral
    diverges."""
    rates = tail_exponents(spec)
    if not _tails_converge(rates):
        raise KernelError(f"xi2 integral diverges (tail exponents {rates})")
    p = spec.p
    if spec.family == FAMILY_SCHRODINGER_PRODUCT:
        # amplitude |xi2|^(-(l+k)p), |a| = xi2^2
        terms = [(coeff, (spec.l + spec.k) * p + 2.0 * power - 1.0)
                 for coeff, power in _far_terms(spec.b1 * p, spec.b * p)]
    else:
        if outer1 == 0.0:
            return 0.0
        # amplitude |xi2|^(-2kp), |a| = 2 |xi| |xi2|
        e, scale = spec.b1 * p, 2.0 * abs(outer1)
        terms = [(coeff * scale ** (-power), 2.0 * spec.k * p + power - 1.0)
                 for coeff, power in _far_terms(e, e)]
    return (_prefactor(spec, outer1, outer2)
            * sum(2.0 * K * R ** (-rate) / rate for K, rate in terms))


@dataclass(frozen=True)
class SaturationDiagnostic:
    """Kernel-mass suprema on a radius ladder and the derived verdict.

    values are the suprema of the masses with sigma2 over the real line
    and xi2 truncated to [-R, R]; they are monotone in R.  completed adds
    the closed-form xi2 remainder beyond R (tail_mass) before taking each
    supremum, so it estimates the full-plane supremum; it is None when a
    tail exponent is not positive, since the xi2 integral then diverges
    and the truncated values are what measures it.  ratios are the
    doubling ratios of completed when present, else of values, and the
    verdict rests on them.  argmax holds the maximizers of values.

    saturating: the final doubling ratio is at most
    SATURATING_FINAL_RATIO.  diverging: every doubling ratio is at least
    DIVERGING_MIN_RATIO.  Anything else is inconclusive.
    """

    radii: tuple[float, ...]
    values: tuple[float, ...]
    ratios: tuple[float, ...]
    verdict: str
    argmax: tuple[tuple[float, float], ...] = ()
    resolution: float = 0.25
    completed: tuple[float, ...] | None = None
    tail_exponents: tuple[float, ...] = ()

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise KernelError("radii must increase strictly")
        if any(v < 0 for v in self.values):
            raise KernelError("truncated masses must be nonnegative")
        if any(b < a * (1.0 - 1e-9) for a, b in zip(self.values, self.values[1:])):
            raise KernelError("truncated masses must be nondecreasing in R")
        if self.completed is not None and len(self.completed) != len(self.values):
            raise KernelError("completed suprema must match values one to one")


def _verdict(ratios: Sequence[float]) -> str:
    if ratios[-1] <= SATURATING_FINAL_RATIO:
        return "saturating"
    if all(r >= DIVERGING_MIN_RATIO for r in ratios):
        return "diverging"
    return "inconclusive"


def _doubling_ratios(values: Sequence[float]) -> list[float]:
    ratios = []
    for a, b in zip(values, values[1:]):
        if a == 0.0:
            ratios.append(math.inf if b > 0 else 1.0)
        else:
            ratios.append(b / a)
    return ratios


def kernel_sup(spec: KernelSpec, R: float,
               resolution: float = 0.25) -> SaturationDiagnostic:
    """Supremum of the kernel mass over the outer points (_outer_points),
    repeated on the doubling radius ladder LADDER * R, with the saturation
    verdict.

    The sigma2 integral runs over the real line through one complete
    convolution table; xi2 is truncated to [-R, R] for values and
    completed by tail_mass for the verdict (see SaturationDiagnostic).
    A mass truncated in both variables converges far too slowly to be
    certified near the admissibility boundary: at the criterion-6 point
    the xi2 rate is alpha = 9/700, and the sigma2 window [-R, R] also
    misses the second modulation peak (sigma1 ~ 0 in W, sigma ~ 0 in S)
    whenever it lies beyond R.

    Outer points and quadrature nodes are nested across the ladder, so
    values are monotone in the radius.  Work items are independent per
    outer xi: one kernel_mass call takes every sigma paired with xi at the
    largest radius and every radius of the ladder that keeps xi, so the
    xi2 nodes and amplitudes are built once per item and one integrand
    per sigma serves the whole ladder.  The reduction is an exact maximum
    over each radius's outer points in a fixed order, hence identical
    results for any worker count (ZAKLAB_WORKERS).  A ladder that leaves
    the lattice (_node_sets) raises KernelError before the table is built.
    """
    radii = tuple(f * R for f in LADDER)
    top = _outer_points(spec.family, R, radii[-1])
    items = [(xi, [s for _, s in group], tuple(r for r in radii if xi <= r))
             for xi, group in groupby(top, key=lambda pt: pt[0])]
    for xi, _, kept in items:
        _node_sets(spec.family, xi, kept, resolution)
    table = _complete_table(spec, top, radii[-1], resolution)
    rates = tail_exponents(spec)
    complete = _tails_converge(rates)

    def job(item):
        xi, sigmas, kept = item
        return kernel_mass(spec, xi, sigmas, kept, resolution, table)

    n_workers = worker_count()
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            batches = list(pool.map(job, items))
    else:
        batches = [job(item) for item in items]
    mass_at = {radius: {} for radius in radii}
    for (xi, sigmas, kept), batch in zip(items, batches):
        for radius, row in zip(kept, batch.tolist()):
            mass_at[radius].update(((xi, s), m) for s, m in zip(sigmas, row))

    values, argmaxes, completed = [], [], []
    for radius in radii:
        pts = _outer_points(spec.family, R, radius)
        masses = [mass_at[radius][pt] for pt in pts]
        best = max(range(len(pts)), key=lambda i: masses[i])
        values.append(masses[best])
        argmaxes.append(pts[best])
        if complete:
            completed.append(max(
                m + tail_mass(spec, x, s, radius) for (x, s), m in zip(pts, masses)
            ))
    ratios = _doubling_ratios(completed if complete else values)
    return SaturationDiagnostic(
        radii=radii,
        values=tuple(values),
        ratios=tuple(ratios),
        verdict=_verdict(ratios),
        argmax=tuple(argmaxes),
        resolution=resolution,
        completed=tuple(completed) if complete else None,
        tail_exponents=rates,
    )


# --- discrete trilinear bound ------------------------------------------------

def _kernel_factors(spec: KernelSpec, shape: tuple[int, int], box: tuple[float, float]):
    """Separable kernel factors on the 2D lattice: K(z1, z2) =
    a1(z1) * b2(z2) * cd(z1 - z2), differences taken cyclically."""
    xi = wavenumbers(shape[0], box[0])[:, None]
    tau = wavenumbers(shape[1], box[1])[None, :]
    sig_s = tau + xi * xi
    wave = np.abs(xi) if spec.sign == "plus" else -np.abs(xi)
    sig_w = tau + wave
    if spec.family == FAMILY_SCHRODINGER_PRODUCT:
        a1 = _bracket_pow(xi, spec.k) * _bracket_pow(sig_s, -spec.c1)
        b2 = _bracket_pow(xi, -spec.k) * _bracket_pow(sig_s, -spec.b1)
        cd = _bracket_pow(xi, -spec.l) * _bracket_pow(sig_w, -spec.b)
    else:
        a1 = _bracket_pow(xi, -spec.k) * _bracket_pow(sig_s, -spec.b1)
        b2 = _bracket_pow(xi, -spec.k) * _bracket_pow(sig_s, -spec.b1)
        cd = _bracket_pow(xi, spec.l) * np.abs(xi) * _bracket_pow(sig_w, -spec.c)
    return (
        np.broadcast_to(a1, shape).copy(),
        np.broadcast_to(b2, shape).copy(),
        np.broadcast_to(cd, shape).copy(),
    )


@functools.lru_cache(maxsize=8)
def _kernel_bound(spec: KernelSpec, shape: tuple[int, int], box: tuple[float, float]):
    """(a1, b2, cd, sup_col): the kernel factors, read-only, and the kernel
    column bound sup_{z1} sum_{z2} |K|^p with the lattice measure.  None of
    it depends on the fields, so a trial pays only for their sums."""
    a1, b2, cd = _kernel_factors(spec, shape, box)
    for factor in (a1, b2, cd):
        factor.flags.writeable = False
    p = spec.p
    mu = (2.0 * np.pi / box[0]) * (2.0 * np.pi / box[1])
    col = _cyclic_convolution(cd**p, b2**p).real
    np.maximum(col, 0.0, out=col)
    return a1, b2, cd, float(np.max(a1**p * col)) * mu


def _cyclic_correlation(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """S[d] = sum_j x[d + j] y[j], indices modulo the grid shape."""
    return np.fft.ifftn(np.fft.fftn(x) * np.conj(np.fft.fftn(np.conj(y))))


def _cyclic_convolution(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(np.fft.fftn(x) * np.fft.fftn(y))


def _lp_norm(a: np.ndarray, expo: float, measure: float) -> float:
    return float(np.sum(np.abs(a) ** expo * measure) ** (1.0 / expo))


def trilinear_probe(
    v: GridFunction, v1: GridFunction, v2: GridFunction, spec: KernelSpec
) -> tuple[float, float]:
    """Both sides of the discrete Hoelder bound for the trilinear form.

    lhs = | sum over pairs of v(z1 - z2) v1(z1) v2(z2) K(z1, z2) |, with
    cyclic differences and the lattice measure; rhs is the product of the
    kernel column bound sup_{z1} (sum_{z2} |K|^p)^{1/p} with the dual
    norms of the three factors.  The bound is an exact inequality on the
    lattice, so lhs <= rhs up to roundoff.
    """
    if not (v.shape == v1.shape == v2.shape) or not (v.box == v1.box == v2.box):
        raise KernelError("trilinear probe needs three grids of identical layout")
    if v.dims != 2:
        raise KernelError("trilinear probe expects 2D grid functions")
    p = spec.p
    pp = p / (p - 1.0)
    mu = (2.0 * np.pi / v.box[0]) * (2.0 * np.pi / v.box[1])
    a1, b2, cd, sup_col = _kernel_bound(spec, v.shape, v.box)

    corr = _cyclic_correlation(v1.modes * a1, v2.modes * b2)
    lhs = abs(np.sum(v.modes * cd * corr)) * mu * mu
    rhs = (
        sup_col ** (1.0 / p)
        * _lp_norm(v1.modes, p, mu)
        * _lp_norm(v.modes, pp, mu)
        * _lp_norm(v2.modes, pp, mu)
    )
    return float(lhs), float(rhs)
