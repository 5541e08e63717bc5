"""Kernel supremum quadrature and the trilinear bound."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from zaklab import grids as G
from zaklab import kernels as K

BOX2 = (2.0 * np.pi, 2.0 * np.pi)

SEPARABLE = K.KernelSpec("S", "minus", k=0.0, l=0.0, p=2.0, b=1.0, b1=1.0, c1=0.0)
CORNER_S = K.KernelSpec("S", "minus", k=0.0, l=-0.5, p=2.0, b=0.55, b1=0.55, c1=0.4)
CORNER_W = K.KernelSpec("W", "minus", k=0.0, l=-0.5, p=2.0, b=0.55, b1=0.55, c=0.4)


class TestKernelSpec:
    def test_family_and_exponent_validation(self):
        with pytest.raises(K.KernelError):
            K.KernelSpec("X", "plus", 0, 0, 2.0, 0.6, 0.6, c1=0.3)
        with pytest.raises(K.KernelError):
            K.KernelSpec("S", "plus", 0, 0, 2.0, 0.6, 0.6)  # missing c1
        with pytest.raises(K.KernelError):
            K.KernelSpec("W", "plus", 0, 0, 2.0, 0.6, 0.6)  # missing c

    def test_from_point_derives_dual_exponents(self):
        from fractions import Fraction as F
        from zaklab.params import ParamPoint

        pt = ParamPoint(0, F(-1, 2), 2, F(5, 8), F(5, 8))
        spec = K.KernelSpec.from_point(pt, "S", "plus", eps=0.01)
        assert spec.c1 == pytest.approx(1 - 0.625 - 0.01)
        assert spec.c == pytest.approx(1 - 0.625 - 0.01)


def riemann_mass_s(spec, xi1, sigma1, R, h):
    """Independent oracle: plain 2D midpoint-shifted Riemann sum."""
    x2 = np.arange(-R + h / 2, R, h)
    s2 = np.arange(-R + h / 2, R, h)
    p = spec.p
    total = 0.0
    for xx in x2:
        sig = sigma1 - s2 - (xi1 * xi1 - xx * xx)
        row = (
            (1 + sig**2) ** (-spec.b * p / 2)
            * (1 + s2**2) ** (-spec.b1 * p / 2)
            * (1 + (xi1 - xx) ** 2) ** (-spec.l * p / 2)
            * (1 + xx**2) ** (-spec.k * p / 2)
        )
        total += float(np.sum(row)) * h * h
    pref = (1 + sigma1**2) ** (-spec.c1 * p / 2) * (1 + xi1**2) ** (spec.k * p / 2)
    return pref * total


def riemann_mass_w(spec, xi, sigma, R, h):
    x2 = np.arange(-R + h / 2, R, h)
    s2 = np.arange(-R + h / 2, R, h)
    p = spec.p
    total = 0.0
    for xx in x2:
        z = (xi + xx) ** 2 - xx**2
        s1 = sigma + s2 + z
        row = (
            (1 + (xi + xx) ** 2) ** (-spec.k * p / 2)
            * (1 + xx**2) ** (-spec.k * p / 2)
            * (1 + s1**2) ** (-spec.b1 * p / 2)
            * (1 + s2**2) ** (-spec.b1 * p / 2)
        )
        total += float(np.sum(row)) * h * h
    pref = (
        (1 + sigma**2) ** (-spec.c * p / 2)
        * (1 + xi**2) ** (spec.l * p / 2)
        * abs(xi) ** p
    )
    return pref * total


class TestSchrodingerProductMass:
    def test_separable_point_against_riemann_oracle(self):
        val = K.kernel_mass(SEPARABLE, 0.0, 0.0, 50.0, 0.25)
        oracle = riemann_mass_s(SEPARABLE, 0.0, 0.0, 50.0, 0.125)
        assert val == pytest.approx(oracle, rel=0.05)

    def test_vanishing_domain(self):
        # a radius below the step puts no whole step in the xi2 patch
        with pytest.raises(K.KernelError, match="xi2 patch"):
            K.kernel_mass(SEPARABLE, 0.0, 0.0, 1e-3, 0.25)

    def test_off_origin_against_riemann_oracle(self):
        val = K.kernel_mass(CORNER_S, 4.0, 16.0, 25.0, 0.25)
        oracle = riemann_mass_s(CORNER_S, 4.0, 16.0, 25.0, 0.0625)
        assert val == pytest.approx(oracle, rel=0.05)

    def test_monotone_in_radius(self):
        vals = [
            K.kernel_mass(CORNER_S, 2.0, 0.0, R, 0.25)
            for R in (25.0, 50.0, 100.0, 200.0)
        ]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_sign_average_symmetry(self):
        for xi1, s1 in ((3.0, 5.0), (7.0, -2.0), (1.0, 0.0)):
            a = K.kernel_mass(CORNER_S, xi1, s1, 50.0, 0.25)
            b = K.kernel_mass(CORNER_S, -xi1, s1, 50.0, 0.25)
            assert abs(a - b) <= 1e-10 * max(a, b)

    def test_coarse_outer_sup_saturates_on_doubling_ladder(self):
        # mid-window corner exponents.  With b = b1 = beta the sigma2
        # window [-R, R] misses int_{|sigma2| > R} <sigma2>^(-2 beta),
        # which decays like R^(1 - 2 beta), and the xi2 tail decays like
        # R^(-alpha) with alpha = (l + k + 2 beta - 1/p) p = 4 beta - 2.
        # At beta = 0.625 both rates are R^(-1/4) and R^(-1/2); at
        # beta = 0.55 the sigma2 rate is R^(-0.1), and the same sups give
        # a final ratio of 1.156.
        spec = K.KernelSpec("S", "minus", k=0.0, l=-0.5, p=2.0,
                            b=0.625, b1=0.625, c1=0.365)
        sups = []
        for R in (25.0, 50.0, 100.0, 200.0):
            grid = [(x, s) for x in (0.0, 1.0, 4.0, 16.0)
                    for s in (0.0, 1.0, 16.0, x * x)]
            sups.append(max(
                K.kernel_mass(spec, x, s, R, 0.25)
                for x, s in grid
            ))
        assert sups[-1] / sups[-2] < 1.1

    def test_refinement_is_small(self):
        coarse = K.kernel_mass(SEPARABLE, 0.0, 0.0, 50.0, 0.25)
        fine = K.kernel_mass(SEPARABLE, 0.0, 0.0, 50.0, 0.125)
        assert abs(fine - coarse) / fine < 0.01


class TestWaveSourceMass:
    def test_zero_xi_vanishes(self):
        for sigma in (0.0, 3.0, -17.0):
            assert K.kernel_mass(CORNER_W, 0.0, sigma, 100.0) == 0.0

    def test_against_riemann_oracle(self):
        val = K.kernel_mass(CORNER_W, 1.5, 0.0, 25.0, 0.25)
        oracle = riemann_mass_w(CORNER_W, 1.5, 0.0, 25.0, 0.0625)
        assert val == pytest.approx(oracle, rel=0.05)

    def test_doubling_ratio_small_inside_region(self):
        # at mid-window exponents the single-point doubling ratio at (1, 0)
        # computes to 1.11 (tail capture ~ R^(-1/4)); the supremum-level
        # saturation verdict for the corner is covered in TestKernelSup
        spec = K.KernelSpec("W", "minus", k=0.0, l=-0.5, p=2.0,
                            b=0.625, b1=0.625, c=0.365)
        v100 = K.kernel_mass(spec, 1.0, 0.0, 100.0, 0.25)
        v200 = K.kernel_mass(spec, 1.0, 0.0, 200.0, 0.25)
        assert v200 / v100 < 1.15

    def test_growth_when_upper_l_condition_broken(self):
        # l = 2k - 1/p' + 1/2 at k=0, p=2 makes the sup grow in |xi|
        spec = K.KernelSpec("W", "minus", k=0.0, l=0.0, p=2.0,
                            b=0.55, b1=0.55, c=0.4)
        xs = (2.0, 4.0, 8.0, 16.0, 32.0)
        vals = [K.kernel_mass(spec, x, 0.0, 200.0, 0.25) for x in xs]
        slope = np.polyfit(np.log(xs), np.log(vals), 1)[0]
        assert slope > 0.2


def quad_conv(a, e1, e2):
    """int <s>^(-e1) <a-s>^(-e2) ds over the real line by adaptive quadrature,
    split at both peaks."""
    from scipy.integrate import quad

    def f(s):
        return (1 + s * s) ** (-e1 / 2) * (1 + (a - s) ** 2) ** (-e2 / 2)

    cuts = sorted({min(0.0, a) - 50.0, max(0.0, a) + 50.0}
                  | ({a / 2} if abs(a) > 100 else set()))
    edges = [-np.inf, *cuts, np.inf]
    return sum(quad(f, lo, hi, limit=500, epsabs=0, epsrel=1e-12)[0]
               for lo, hi in zip(edges, edges[1:]))


def optimal_spec(family):
    """Criterion 6's near-optimal point, b = b1 = 59/80 mid-window."""
    from fractions import Fraction as F
    from zaklab.params import ParamPoint, b_window

    k, l, p = F(-1, 12) + F(1, 100), F(-7, 12), F(12, 7)
    w = b_window(k, l, p)
    beta = (w.lower + w.upper) / 2
    assert beta == F(59, 80)
    return K.KernelSpec.from_point(ParamPoint(k, l, p, beta, beta), family,
                                   "minus", eps=0.01)


class TestCompleteTable:
    EXPONENTS = [(1.2643, 1.2643), (1.25, 1.5), (1.1, 1.9), (2.0, 2.0)]

    @pytest.mark.parametrize("e1,e2", EXPONENTS)
    def test_closed_form_against_quad(self, e1, e2):
        for a in (200.0, 1000.0, -3000.0):
            far = float(K._conv_far(np.array([a]), e1, e2)[0])
            assert far == pytest.approx(quad_conv(a, e1, e2), rel=1e-3)

    def test_closed_form_needs_its_third_term(self):
        # C(e1)|a|^(-e2) + C(e2)|a|^(-e1) alone is 27 % high at a = 200
        e = optimal_spec("W").b1 * 12 / 7
        lead = 2 * K._bracket_integral(e) * 200.0 ** (-e)
        assert lead / quad_conv(200.0, e, e) > 1.2

    @pytest.mark.parametrize("e1,e2", EXPONENTS)
    def test_table_against_quad_across_the_seam(self, e1, e2):
        table = K._conv_table(e1, e2, math.inf, 0.25, -2000.0, 2000.0)
        for a in (0.0, 3.0, 50.0, -300.0, K.A_NEAR, K.A_NEAR + 0.25, 1500.0):
            got = float(table(np.array([a]))[0])
            assert got == pytest.approx(quad_conv(a, e1, e2), rel=1e-4)

    def test_complete_table_needs_exponents_above_one(self):
        with pytest.raises(K.KernelError, match="above 1"):
            K._conv_table(0.9, 1.5, math.inf, 0.25, -10.0, 10.0)

    @pytest.mark.parametrize("S,h,n", [(2.0, 0.5, 1), (3.0, 0.25, 40),
                                       (10.0, 0.3, 997), (1024.0, 0.25, 1601)])
    def test_lattice_conv_is_fftconvolve_bit_for_bit(self, S, h, n):
        from scipy.signal import fftconvolve

        a_lo = -7.0 * h
        m = int(round(2.0 * S / h)) + 1
        fw = K._bracket_pow(-S + h * np.arange(m), -1.3)
        fw[0] *= 0.5
        fw[-1] *= 0.5
        fw *= h
        q = (a_lo - S) + h * np.arange(n + m - 1)
        want = fftconvolve(K._bracket_pow(q, -1.7), fw, mode="valid")
        got = K._lattice_conv(1.3, 1.7, S, h, a_lo, n)
        assert got.tobytes() == want.tobytes()


class TestCompletedMass:
    def test_optimal_wave_source_completion_is_flat_in_radius(self):
        # truncated, these masses still grow by 8-50 % over the same range
        spec = optimal_spec("W")
        assert K.tail_exponents(spec) == pytest.approx((9 / 700,))
        for xi in (1.0, 8.0, 25.0):
            done = []
            for R in (25.0, 400.0):
                table = K._complete_table(spec, [(xi, 0.0)], R, 0.25)
                mass = K.kernel_mass(spec, xi, 0.0, R, 0.25, table)
                done.append(mass + K.tail_mass(spec, xi, 0.0, R))
            assert abs(done[1] / done[0] - 1.0) < 0.01, (xi, done)

    def test_tail_mass_against_quadrature_of_the_tail(self):
        # corner W: alpha = 1/4; sigma2 is complete and |a| >= 2 |xi| R,
        # so the tail integrand beyond R is amp(xi2) H(a) with H in
        # closed form, integrated here by adaptive quadrature
        from scipy.integrate import quad

        spec = K.KernelSpec("W", "minus", k=0.0, l=-0.5, p=2.0,
                            b=0.625, b1=0.625, c=0.365)
        xi, sigma, R = 2.0, 0.0, 400.0
        e, q = spec.b1 * spec.p, -spec.k * spec.p

        def integrand(x2):
            a = sigma + xi * xi + 2 * xi * x2
            amp = (1 + (xi + x2) ** 2) ** (q / 2) * (1 + x2 * x2) ** (q / 2)
            return amp * float(K._conv_far(np.array([a]), e, e)[0])

        inner = sum(quad(integrand, lo, hi, limit=500, epsrel=1e-10)[0]
                    for lo, hi in ((R, np.inf), (-np.inf, -R)))
        pref = ((1 + sigma**2) ** (-spec.c * spec.p / 2)
                * (1 + xi * xi) ** (spec.l * spec.p / 2) * abs(xi) ** spec.p)
        assert K.tail_mass(spec, xi, sigma, R) == pytest.approx(pref * inner,
                                                                rel=0.01)

    def test_schrodinger_rates_one_per_modulation_exponent(self):
        spec = K.KernelSpec("S", "minus", k=0.0, l=-0.5, p=2.0,
                            b=0.6, b1=0.7, c1=0.29)
        assert K.tail_exponents(spec) == pytest.approx((0.4, 0.8))

    def test_boundary_rate_rounded_up_counts_as_zero(self):
        # l = -1/p - 1/4 with b = b1 = (1/p - l)/2 puts the S rates at 0
        # exactly; in floats the rate comes out near +2e-16, which would
        # add a remainder of order 1e16
        from fractions import Fraction as F

        p = F(25, 14)
        l = -1 / p - F(1, 4)
        b = float((1 / p - l) / 2)
        spec = K.KernelSpec("S", "minus", k=0.0, l=float(l), p=float(p),
                            b=b, b1=b, c1=1 - b - 0.01)
        assert 0.0 < K.tail_exponents(spec)[0] < 1e-15
        with pytest.raises(K.KernelError, match="diverges"):
            K.tail_mass(spec, 1.0, 0.0, 10.0)
        assert K.kernel_sup(spec, 16.0, resolution=0.5).completed is None

    def test_tail_mass_refuses_a_divergent_tail(self):
        spec = K.KernelSpec("S", "minus", k=0.0, l=-0.75, p=2.0,
                            b=0.625, b1=0.625, c1=1 - 0.625 - 0.01)
        with pytest.raises(K.KernelError, match="diverges"):
            K.tail_mass(spec, 1.0, 0.0, 10.0)


class TestMassOverManySigmas:
    def test_floored_trapezoid_is_np_trapezoid(self):
        rng = np.random.default_rng(3)
        for n in (1597, 300):
            vals = rng.random(n) * 10.0 ** rng.integers(-16, 3, n)
            want = vals.copy()
            want[want < K.TINY_FLOOR] = 0.0
            K._floor_tiny(vals)
            assert vals.tobytes() == want.tobytes()

    @pytest.mark.parametrize("h", [0.25, 0.5])
    def test_lattice_trapezoid_is_np_trapezoid(self, h):
        # spacings exactly h, a power of two: the scaled pair sum over any
        # span is bitwise np.trapezoid over that span's nodes
        rng = np.random.default_rng(5)
        x = (-37 + np.arange(2001)) * h
        vals = rng.random(len(x)) * 10.0 ** rng.integers(-13, 3, len(x))
        pair = vals[1:] + vals[:-1]
        for lo, hi in ((0, 2000), (0, 499), (750, 1250), (3, 4), (7, 7)):
            got = K._trapezoid(pair[lo:hi], h)
            want = np.trapezoid(vals[lo:hi + 1], x[lo:hi + 1])
            assert np.float64(got).tobytes() == want.tobytes(), (lo, hi)

    @pytest.mark.parametrize("family", ["S", "W"])
    @pytest.mark.parametrize("R", [0.75, 40.0])
    def test_vector_equals_scalar_calls(self, family, R):
        spec = optimal_spec(family)
        sigmas = [-50.0, -2.0, 0.0, 0.75, 3.0, 40.0]
        for xi in (0.0, 0.5, 3.0, 12.0):
            table = K._complete_table(spec, [(xi, s) for s in sigmas], R, 0.25)
            many = K.kernel_mass(spec, xi, sigmas, R, 0.25, table)
            assert isinstance(many, np.ndarray) and many.shape == (len(sigmas),)
            for s, m in zip(sigmas, many):
                one = K.kernel_mass(spec, xi, s, R, 0.25, table)
                assert isinstance(one, float)
                assert one == m, (xi, s)


def reference_mass(spec, xi, s, R, h, table):
    """The per-(xi, sigma, radius) quadrature kernel_mass computes, written
    out: its own nodes, the floor as an explicit mask and np.trapezoid."""
    p = spec.p

    def trapezoid(vals, x):
        vals[vals < K.TINY_FLOOR] = 0.0
        return float(np.trapezoid(vals, x))

    if spec.family == "S":
        base = s - xi * xi
        w0 = min(1.0, R)
        xi2 = np.linspace(-w0, w0, max(3, int(round(2.0 * w0 / h)) + 1))
        amp = K._bracket_pow(xi - xi2, -spec.l * p) * K._bracket_pow(xi2, -spec.k * p)
        total = trapezoid(amp * table(base + xi2 * xi2), xi2)
        if R > 1.0:
            y = np.linspace(1.0, R * R, int(round((R * R - 1.0) / h)) + 1)
            root = np.sqrt(y)
            amp = (K._bracket_pow(xi - root, -spec.l * p)
                   + K._bracket_pow(xi + root, -spec.l * p)) * K._bracket_pow(root, -spec.k * p)
            total += trapezoid(amp * table(base + y) / (2.0 * root), y)
        pref = K._bracket_pow(np.asarray(s), -spec.c1 * p) * K._bracket_pow(
            np.asarray(xi), spec.k * p)
        return float(pref) * total
    if xi == 0.0:
        return 0.0
    U = 2.0 * abs(xi) * R
    u = np.linspace(-U, U, int(round(2.0 * U / h)) + 1)
    xi2 = u / (2.0 * xi)
    amp = K._bracket_pow(xi + xi2, -spec.k * p) * K._bracket_pow(xi2, -spec.k * p)
    inner = trapezoid(amp * table(s + xi * xi + u), u) / (2.0 * abs(xi))
    pref = (K._bracket_pow(np.asarray(s), -spec.c * p)
            * K._bracket_pow(np.asarray(xi), spec.l * p) * abs(xi) ** p)
    return float(pref) * inner


# plain, the l condition broken as kernel-scan --violate l breaks it, and
# a fast-decaying amplitude whose outer integrands fall below TINY_FLOOR
LADDER_SPECS = {
    "S/plain": CORNER_S, "S/violate": replace(CORNER_S, l=-0.75),
    "S/floored": replace(CORNER_S, k=3.0, l=3.0),
    "W/plain": CORNER_W, "W/violate": replace(CORNER_W, l=0.0),
    "W/floored": replace(CORNER_W, k=3.0),
}


class TestRadiusLadder:
    """A ladder call gives, at each radius, bitwise the single-radius call,
    and that is bitwise the written-out quadrature (reference_mass)."""

    SIGMAS = [-20.0, -1.0, 0.0, 2.25, 9.0]
    LADDERS = {
        "h0.25": (0.25, (2.0, 4.0, 8.0, 16.0)),
        "quick": (0.5, (6.0, 12.0, 24.0, 48.0)),
        "below1": (0.25, (0.5, 0.75, 1.0, 3.0)),
    }

    @pytest.mark.parametrize("ladder", sorted(LADDERS))
    @pytest.mark.parametrize("name", sorted(LADDER_SPECS))
    def test_ladder_equals_single_radius_calls(self, name, ladder):
        spec = LADDER_SPECS[name]
        h, radii = self.LADDERS[ladder]
        # xi = 0.5 and 1.5 put the bases off the 0.5-lattice (quick tier)
        for xi in (0.0, 0.5, 1.5, 3.0):
            pts = [(xi, s) for s in self.SIGMAS]
            table = K._complete_table(spec, pts, radii[-1], h)
            many = K.kernel_mass(spec, xi, self.SIGMAS, radii, h, table)
            assert many.shape == (len(radii), len(self.SIGMAS))
            for radius, row in zip(radii, many):
                one = K.kernel_mass(spec, xi, self.SIGMAS, radius, h, table)
                assert row.tobytes() == one.tobytes(), (xi, radius)
                want = [reference_mass(spec, xi, s, radius, h, table)
                        for s in self.SIGMAS]
                assert one.tolist() == want, (xi, radius)

    def test_tiny_floor_fires_on_the_outer_integrands(self, monkeypatch):
        fired = []
        floor = K._floor_tiny

        def spy(vals):
            fired.append(bool(vals.min() < K.TINY_FLOOR))
            floor(vals)

        monkeypatch.setattr(K, "_floor_tiny", spy)
        for name in ("S/floored", "W/floored"):
            fired.clear()
            spec = LADDER_SPECS[name]
            table = K._complete_table(spec, [(3.0, 0.0)], 16.0, 0.25)
            for radii in ((1.0, 2.0), (4.0, 16.0)):
                K.kernel_mass(spec, 3.0, [0.0, 9.0], radii, 0.25, table)
            assert True in fired and False in fired, name

    @pytest.mark.parametrize("family", ["S", "W"])
    def test_multiples_of_8_stay_on_the_lattice(self, family):
        # every kernel_sup ladder R/8 .. R of an R that is a multiple of 8
        # runs whole steps between lattice points at every power-of-two
        # step up to 1, and each radius's own range is a span of the
        # largest radius's nodes
        for R in (8.0, 16.0, 48.0, 200.0, 400.0):
            radii = tuple(f * R for f in K.LADDER)
            for h in (1.0, 0.5, 0.25, 0.125):
                for xi in sorted({x for x, _ in K._outer_points(family, R, R)}):
                    kept = tuple(r for r in radii if xi <= r)
                    for name, (first, n, spans) in K._node_sets(
                            family, xi, kept, h).items():
                        nodes = h * (first + np.arange(n))
                        for i, (lo, hi) in spans.items():
                            r = kept[i]
                            u, w = 2.0 * abs(xi) * r, min(1.0, r)
                            want = {"u": (-u, u), "patch": (-w, w), "y": (1.0, r * r)}
                            assert (nodes[lo], nodes[hi]) == want[name], (R, h, xi, r)

    def test_wave_source_at_xi_zero_is_zero_at_every_radius(self):
        masses = K.kernel_mass(CORNER_W, 0.0, self.SIGMAS, (1.0, 2.0), 0.25,
                               K._complete_table(CORNER_W, [(0.0, 0.0)], 2.0, 0.25))
        assert masses.shape == (2, len(self.SIGMAS)) and not masses.any()

    def test_bad_ladders_raise(self):
        table = K._complete_table(CORNER_S, [(1.0, 0.0)], 8.0, 0.25)
        for radii in ((4.0, 2.0), (2.0, 2.0), (0.0, 2.0)):
            with pytest.raises(K.KernelError):
                K.kernel_mass(CORNER_S, 1.0, 0.0, radii, 0.25, table)
        with pytest.raises(K.KernelError):  # a truncated table fits one radius
            K.kernel_mass(CORNER_S, 1.0, 0.0, (4.0, 8.0), 0.25)
        with pytest.raises(K.KernelError, match="resolution"):  # another step
            K.kernel_mass(CORNER_S, 1.0, 0.0, (4.0, 8.0), 0.5, table)


class TestLatticeRead:
    """_ConvTable.at(base, first, n) is bitwise table(base + nodes) at the
    lattice nodes h (first + i), and a slice of the table exactly when
    base is a lattice point and the nodes stay below the last entry."""

    def check(self, table, base, first, n):
        got = table.at(base, first, n)
        nodes = table.h * (first + np.arange(n))
        assert got.tobytes() == table(base + nodes).tobytes()
        return np.shares_memory(got, table.values)

    @staticmethod
    def lattice(lo, hi, h):
        """(first, n) of the lattice nodes from lo to hi."""
        return int(lo / h), int(round((hi - lo) / h)) + 1

    @pytest.mark.parametrize("h", [0.25, 0.5])
    def test_on_the_lattice_is_a_slice(self, h):
        table = K._conv_table(1.2, 1.3, math.inf, h, -60.0, 450.0)
        y, u = self.lattice(1.0, 400.0, h), self.lattice(-50.0, 50.0, h)
        for base, nodes in ((-3.0, y), (1.5, y), (4.0, u), (-2.0, u)):
            assert self.check(table, base, *nodes), (base, h)

    @pytest.mark.parametrize("h", [0.25, 0.5])
    def test_off_lattice_base_interpolates(self, h):
        table = K._conv_table(1.2, 1.3, math.inf, h, -60.0, 450.0)
        assert not self.check(table, 0.1 - 4.0, *self.lattice(1.0, 400.0, h))

    def test_nodes_off_the_lattice_interpolate(self, monkeypatch):
        # the xi2 patch is read at xi2^2, off the lattice: its integrand
        # interpolates and never asks for the slice
        table = K._conv_table(1.2, 1.3, math.inf, 0.25, -60.0, 450.0)
        xi2 = np.linspace(-1.0, 1.0, 9)
        piece = K._Integrand(table, np.ones(9), {0: (0, 8)}, args=xi2 * xi2)
        monkeypatch.setattr(K._ConvTable, "at", None)
        [(i, got)] = piece.integrals(2.0)
        want = np.trapezoid(table(2.0 + xi2 * xi2), xi2)
        assert i == 0 and np.float64(got).tobytes() == want.tobytes()

    def test_last_table_entry_interpolates(self):
        # __call__ reads an index of len - 1 as the entry before it plus a
        # fraction of 1.0, which need not be bitwise the last entry
        h = 0.25
        table = K._conv_table(1.2, 1.3, math.inf, h, -60.0, 450.0)
        n = 41
        last = table.a0 + h * (len(table.values) - 1)
        top = h * (n - 1)  # the last node
        assert not self.check(table, last - top, 0, n)
        assert self.check(table, last - top - h, 0, n)
        assert self.check(table, table.a0, 0, n)
        assert not self.check(table, table.a0 - h, 0, n)


class TestKernelSup:
    def mid_window_spec(self, family):
        from fractions import Fraction as F
        from zaklab.params import ParamPoint, b_window

        w = b_window(0, F(-1, 2), 2)
        beta = (w.lower + w.upper) / 2
        pt = ParamPoint(0, F(-1, 2), 2, beta, beta)
        return K.KernelSpec.from_point(pt, family, "minus", eps=0.01)

    def test_corner_saturates_both_families(self):
        for family in ("S", "W"):
            diag = K.kernel_sup(self.mid_window_spec(family), 200.0,
                                resolution=0.25)
            assert diag.verdict == "saturating", (family, diag.ratios)
            assert all(b >= a for a, b in zip(diag.values, diag.values[1:]))

    def test_lower_l_violation_diverges(self):
        spec = K.KernelSpec("S", "minus", k=0.0, l=-0.75, p=2.0,
                            b=0.625, b1=0.625, c1=1 - 0.625 - 0.01)
        diag = K.kernel_sup(spec, 200.0, resolution=0.25)
        assert diag.verdict == "diverging", diag.ratios

    def test_criterion_7_schrodinger_spec_reports_no_completion(self):
        # the criterion-7 S spec: l = -1/p - 1/4 at the mid-window corner
        # puts both xi2 tail rates at exactly 0, so the xi2 integral
        # diverges and the verdict rests on the xi2-truncated values
        spec = K.KernelSpec("S", "minus", k=0.0, l=-0.75, p=2.0,
                            b=0.625, b1=0.625, c1=1 - 0.625 - 0.01)
        diag = K.kernel_sup(spec, 200.0, resolution=0.25)
        assert diag.tail_exponents == (0.0, 0.0)
        assert diag.completed is None
        assert diag.verdict == "diverging", diag.ratios
        assert list(diag.ratios) == pytest.approx(
            [b / a for a, b in zip(diag.values, diag.values[1:])])

    def test_verdict_rests_on_completed_suprema(self):
        diag = K.kernel_sup(optimal_spec("W"), 200.0, resolution=0.25)
        assert diag.completed is not None
        assert list(diag.ratios) == pytest.approx(
            [b / a for a, b in zip(diag.completed, diag.completed[1:])])
        assert all(c > v for c, v in zip(diag.completed, diag.values))
        assert all(b >= a for a, b in zip(diag.values, diag.values[1:]))
        assert diag.verdict == "saturating", diag.ratios

    def test_upper_l_violation_diverges(self):
        spec = K.KernelSpec("W", "minus", k=0.0, l=0.0, p=2.0,
                            b=0.625, b1=0.625, c=1 - 0.625 - 0.01)
        diag = K.kernel_sup(spec, 200.0, resolution=0.25)
        assert diag.verdict == "diverging", diag.ratios

    def test_deterministic_and_worker_invariant(self):
        spec = self.mid_window_spec("S")
        a = K.kernel_sup(spec, 48.0, resolution=0.5)
        b = K.kernel_sup(spec, 48.0, resolution=0.5)
        assert a == b
        old = os.environ.get(K.WORKERS_ENV)
        try:
            os.environ[K.WORKERS_ENV] = "4"
            c = K.kernel_sup(spec, 48.0, resolution=0.5)
        finally:
            if old is None:
                os.environ.pop(K.WORKERS_ENV, None)
            else:
                os.environ[K.WORKERS_ENV] = old
        assert c == a

    @pytest.mark.parametrize("R,h", [(48.0, 0.5), (6.0, 0.25)])
    @pytest.mark.parametrize("family,violate", [("S", False), ("W", False),
                                                ("S", True), ("W", True)])
    def test_equals_a_loop_of_scalar_masses(self, family, violate, R, h):
        # quick tier, and a ladder whose smallest radius 0.75 is below 1;
        # violate breaks the family's l condition as kernel-scan --violate
        # l does
        spec = self.mid_window_spec(family)
        if violate:
            spec = replace(spec, l=-0.75 if family == "S" else 0.0)
        diag = K.kernel_sup(spec, R, resolution=h)

        table = K._complete_table(spec, K._outer_points(family, R, R), R, h)
        values, argmax, completed = [], [], []
        for radius in diag.radii:
            pts = K._outer_points(family, R, radius)
            masses = [K.kernel_mass(spec, x, s, radius, h, table) for x, s in pts]
            best = max(range(len(pts)), key=lambda i: masses[i])
            values.append(masses[best])
            argmax.append(pts[best])
            if diag.completed is not None:
                completed.append(max(m + K.tail_mass(spec, x, s, radius)
                                     for (x, s), m in zip(pts, masses)))
        assert diag.values == tuple(values)
        assert diag.argmax == tuple(argmax)
        assert diag.completed == (tuple(completed) if completed else None)

    @pytest.mark.parametrize("R,h", [(48.0, 0.5), (6.0, 0.25)])
    @pytest.mark.parametrize("family,violate", [("S", False), ("W", False),
                                                ("S", True), ("W", True)])
    def test_lattice_read_equals_interpolation(self, family, violate, R, h,
                                               monkeypatch):
        spec = self.mid_window_spec(family)
        if violate:
            spec = replace(spec, l=-0.75 if family == "S" else 0.0)
        fast = K.kernel_sup(spec, R, resolution=h)
        monkeypatch.setattr(
            K._ConvTable, "at",
            lambda self, base, first, n: self(base + self.h * (first + np.arange(n))))
        assert K.kernel_sup(spec, R, resolution=h) == fast

    @pytest.mark.parametrize("family", ["S", "W"])
    @pytest.mark.parametrize("h", [0.25, 0.5])
    def test_lattice_bases_take_the_slice(self, family, h, monkeypatch):
        # at the standard tier's step 0.25 every base sigma -+ xi^2 of the
        # default outer grid is a lattice point; at the quick tier's 0.5,
        # xi = 0.5 and 1.5 put xi^2 off it, and only those interpolate
        reads = []
        at = K._ConvTable.at

        def spy(table, base, nodes, first):
            out = at(table, base, nodes, first)
            reads.append((base / h).is_integer()
                         == np.shares_memory(out, table.values))
            return out

        monkeypatch.setattr(K._ConvTable, "at", spy)
        K.kernel_sup(self.mid_window_spec(family), 48.0, resolution=h)
        assert reads and all(reads)

    @pytest.mark.parametrize("family", ["S", "W"])
    def test_only_the_xi2_patch_interpolates_on_the_lattice(self, family,
                                                            monkeypatch):
        lengths = []
        call = K._ConvTable.__call__

        def spy(table, a):
            lengths.append(len(a))
            return call(table, a)

        monkeypatch.setattr(K._ConvTable, "__call__", spy)
        K.kernel_sup(self.mid_window_spec(family), 48.0, resolution=0.25)
        patch = 9  # the xi2 nodes on [-1, 1] at step 0.25
        assert [n for n in lengths if n > patch] == []
        assert (len(lengths) > 0) == (family == "S")

    def test_worker_count_clamped_to_usable_cpus(self, monkeypatch):
        monkeypatch.setenv(K.WORKERS_ENV, "100000")
        assert K.worker_count() == len(os.sched_getaffinity(0))

    def test_diagnostic_invariants_enforced(self):
        with pytest.raises(K.KernelError):
            K.SaturationDiagnostic((1.0, 1.0), (1.0, 2.0), (2.0,), "saturating")
        with pytest.raises(K.KernelError):
            K.SaturationDiagnostic((1.0, 2.0), (2.0, 1.0), (0.5,), "saturating")


def loop_trilinear_lhs(v, v1, v2, spec):
    n0, n1 = v.shape
    mu = (2 * np.pi / v.box[0]) * (2 * np.pi / v.box[1])
    a1, b2, cd = K._kernel_factors(spec, v.shape, v.box)
    total = 0.0 + 0.0j
    for i1 in range(n0):
        for j1 in range(n1):
            for i2 in range(n0):
                for j2 in range(n1):
                    d = ((i1 - i2) % n0, (j1 - j2) % n1)
                    total += (
                        v.modes[d] * cd[d]
                        * v1.modes[i1, j1] * a1[i1, j1]
                        * v2.modes[i2, j2] * b2[i2, j2]
                    )
    return abs(total) * mu * mu


class TestTrilinearProbe:
    SPEC = K.KernelSpec("S", "plus", k=0.0, l=-0.5, p=2.0, b=0.55, b1=0.55, c1=0.44)

    def test_matches_quartic_loop_oracle(self):
        rng = np.random.default_rng(5)
        fields = [
            G.GridFunction(rng.uniform(size=(8, 8)) + 1j * rng.uniform(size=(8, 8)),
                           BOX2)
            for _ in range(3)
        ]
        lhs, rhs = K.trilinear_probe(*fields, self.SPEC)
        oracle = loop_trilinear_lhs(*fields, self.SPEC)
        assert lhs == pytest.approx(oracle, rel=1e-12)
        assert lhs <= rhs * (1 + 1e-6)

    def test_zero_factor(self):
        rng = np.random.default_rng(6)
        v = G.GridFunction(rng.uniform(size=(8, 8)), BOX2)
        v1 = G.GridFunction(rng.uniform(size=(8, 8)), BOX2)
        z = G.GridFunction(np.zeros((8, 8), dtype=complex), BOX2)
        lhs, rhs = K.trilinear_probe(v, v1, z, self.SPEC)
        assert lhs == 0.0 and lhs <= rhs

    @pytest.mark.parametrize("p", [1.5, 12 / 7, 2.0])
    @pytest.mark.parametrize("family", ["S", "W"])
    def test_randomized_no_violations(self, p, family):
        rng = np.random.default_rng(int(p * 1000) + (family == "W") * 7)
        extra = {"c1": 0.3} if family == "S" else {"c": 0.3}
        spec = K.KernelSpec(family, "minus", k=0.0, l=-0.5, p=p,
                            b=1 / p + 0.05, b1=1 / p + 0.05, **extra)
        for _ in range(40):
            fields = [
                G.GridFunction(rng.uniform(size=(64, 64)), BOX2) for _ in range(3)
            ]
            lhs, rhs = K.trilinear_probe(*fields, spec)
            assert lhs <= rhs * (1 + 1e-6)

    def test_grid_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        v = G.GridFunction(rng.uniform(size=(8, 8)), BOX2)
        w = G.GridFunction(rng.uniform(size=(16, 16)), BOX2)
        with pytest.raises(K.KernelError, match="identical layout"):
            K.trilinear_probe(v, v, w, self.SPEC)


def uncached_trilinear_probe(v, v1, v2, spec):
    """trilinear_probe with every kernel factor and the column bound
    rebuilt on the call, as before the memo."""
    p = spec.p
    pp = p / (p - 1.0)
    mu = (2.0 * np.pi / v.box[0]) * (2.0 * np.pi / v.box[1])
    a1, b2, cd = K._kernel_factors(spec, v.shape, v.box)
    corr = K._cyclic_correlation(v1.modes * a1, v2.modes * b2)
    lhs = abs(np.sum(v.modes * cd * corr)) * mu * mu
    col = K._cyclic_convolution(cd**p, b2**p).real
    np.maximum(col, 0.0, out=col)
    sup_col = float(np.max(a1**p * col)) * mu
    rhs = (
        sup_col ** (1.0 / p)
        * K._lp_norm(v1.modes, p, mu)
        * K._lp_norm(v.modes, pp, mu)
        * K._lp_norm(v2.modes, pp, mu)
    )
    return float(lhs), float(rhs)


class TestKernelBoundMemo:
    SPEC_A = K.KernelSpec("S", "minus", k=0.0, l=-0.5, p=2.0, b=0.55, b1=0.55, c1=0.44)
    SPEC_B = K.KernelSpec("W", "plus", k=0.0, l=-0.5, p=1.5, b=0.72, b1=0.72, c=0.27)

    def test_cached_bound_equals_a_fresh_build_across_specs(self):
        K._kernel_bound.cache_clear()
        rng = np.random.default_rng(8)
        fields = [G.GridFunction(rng.uniform(size=(16, 16)), BOX2) for _ in range(3)]
        for spec in (self.SPEC_A, self.SPEC_B, self.SPEC_A):
            assert K.trilinear_probe(*fields, spec) == uncached_trilinear_probe(*fields, spec)
        info = K._kernel_bound.cache_info()
        assert (info.misses, info.hits) == (2, 1)
        # the key holds the layout too: another shape or box is another bound
        for box in (BOX2, (np.pi, 4.0)):
            other = [G.GridFunction(rng.uniform(size=(8, 32)), box) for _ in range(3)]
            assert K.trilinear_probe(*other, self.SPEC_A) == uncached_trilinear_probe(
                *other, self.SPEC_A)
        assert K._kernel_bound.cache_info().misses == 4

    def test_cached_factors_are_read_only(self):
        *factors, sup_col = K._kernel_bound(self.SPEC_B, (8, 8), BOX2)
        assert sup_col > 0
        for factor in factors:
            with pytest.raises(ValueError):
                factor[0, 0] = 1.0
