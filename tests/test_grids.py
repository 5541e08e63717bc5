"""Lattice transforms, discrete norms, rough data, dilation, Duhamel probe."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zaklab import grids as G

RNG = np.random.default_rng(20240811)


def random_field(n=256, box=32.0, seed=0):
    rng = np.random.default_rng(seed)
    return G.from_samples(
        rng.normal(size=n) + 1j * rng.normal(size=n), box
    )


class TestTransforms:
    def test_round_trip_1d(self):
        s = RNG.normal(size=512) + 1j * RNG.normal(size=512)
        u = G.from_samples(s, 40.0)
        err = np.max(np.abs(u.to_samples() - s)) / np.max(np.abs(s))
        assert err < 1e-12

    def test_round_trip_2d(self):
        s = RNG.normal(size=(32, 64)) + 1j * RNG.normal(size=(32, 64))
        f = G.from_samples(s, (16.0, 8.0))
        err = np.max(np.abs(f.to_samples() - s)) / np.max(np.abs(s))
        assert err < 1e-12

    def test_parseval(self):
        n, box = 256, 32.0
        s = RNG.normal(size=n) + 1j * RNG.normal(size=n)
        u = G.from_samples(s, box)
        dx, dxi = box / n, 2 * np.pi / box
        phys = np.sum(np.abs(s) ** 2) * dx
        spec = np.sum(np.abs(u.modes) ** 2) * dxi / (2 * np.pi)
        assert abs(phys - spec) / phys < 1e-12

    def test_power_of_two_enforced(self):
        with pytest.raises(G.GridError, match="power of two"):
            G.GridFunction(np.zeros(100, dtype=complex), (1.0,))

    def test_box_mismatch(self):
        with pytest.raises(G.GridError):
            G.GridFunction(np.zeros((8, 8), dtype=complex), (1.0,))


class TestHatNorm:
    def test_single_zero_mode_is_one(self):
        m = np.zeros(64, dtype=complex)
        m[0] = 1.0
        u = G.GridFunction(m, (2 * np.pi,))
        for s in (-2.0, 0.0, 3.7):
            assert G.hat_norm(u, s, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_matches_closed_form(self):
        # Fourier transform of exp(-x^2/2) is sqrt(2 pi) exp(-xi^2/2)
        L, N = 64.0, 2048
        x = -L / 2 + np.arange(N) * (L / N)
        u = G.from_samples(np.exp(-(x**2) / 2), L)
        expect = math.sqrt(2 * math.pi) * math.pi**0.25
        assert G.hat_norm(u, 0.0, 2.0) == pytest.approx(expect, rel=1e-6)

    def test_r_out_of_range(self):
        u = random_field()
        with pytest.raises(G.GridError, match="r must lie"):
            G.hat_norm(u, 0.0, 1.0)

    def test_homogeneous_drops_zero_mode(self):
        m = np.zeros(64, dtype=complex)
        m[0] = 5.0
        u = G.GridFunction(m, (2 * np.pi,))
        assert G.hat_norm(u, 1.0, 2.0, homogeneous=True) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=1.25, max_value=4.0),
    )
    def test_monotone_in_s(self, s1, gap, r):
        u = random_field(n=128, seed=11)
        assert G.hat_norm(u, s1, r) <= G.hat_norm(u, s1 + gap, r) * (1 + 1e-12)


class TestRoughData:
    def test_deterministic_for_fixed_seed(self):
        spec = G.RoughDataSpec(k=0.0, p=2.0, n=256, seed=7)
        assert np.array_equal(G.rough_data(spec).modes, G.rough_data(spec).modes)

    def test_deterministic_decay_profile_is_real(self):
        spec = G.RoughDataSpec(k=0.0, p=2.0, n=256, seed=7,
                               profile="deterministic_decay")
        samples = G.rough_data(spec).to_samples()
        assert np.max(np.abs(samples.imag)) < 1e-12

    def test_hermitian_flag_gives_real_samples(self):
        spec = G.RoughDataSpec(k=-0.25, p=1.5, n=256, seed=3, hermitian=True)
        samples = G.rough_data(spec).to_samples()
        assert np.max(np.abs(samples.imag)) < 1e-10 * np.max(np.abs(samples))

    def test_norm_finite_and_stable_but_not_square_summable(self):
        # decay profile <xi>^(-k-1/p'-1/100): the (k, p) norm converges
        # (slowly, hence the large N) while the (0, 2) norm diverges
        k, p = -1 / 12, 12 / 7
        u1 = G.rough_data(G.RoughDataSpec(k=k, p=p, n=2**19, seed=7))
        u2 = G.rough_data(G.RoughDataSpec(k=k, p=p, n=2**20, seed=7))
        v1, v2 = G.hat_norm(u1, k, p), G.hat_norm(u2, k, p)
        assert math.isfinite(v1) and math.isfinite(v2)
        assert v2 / v1 < 1.02
        assert G.hat_norm(u2, 0.0, 2.0) / G.hat_norm(u1, 0.0, 2.0) > 1.05

    def test_unit_normalization(self):
        spec = G.RoughDataSpec(k=0.0, p=2.0, n=512, seed=5)
        u = G.unit_rough_data(spec)
        assert G.hat_norm(u, 0.0, 2.0) == pytest.approx(1.0, rel=1e-12)


class TestDilate:
    def test_identity_at_mu_one(self):
        u = random_field()
        d = G.dilate(u, 1.0, 1.5)
        assert np.array_equal(d.modes, u.modes) and d.box == u.box

    def gaussian(self, N=4096, L=64.0):
        x = -L / 2 + np.arange(N) * (L / N)
        return G.from_samples(np.exp(-(x**2) / 2), L)

    def test_l2_scaling_law(self):
        u = self.gaussian()
        d = G.dilate(u, 2.0, 1.5)
        ratio = G.hat_norm(d, 0.0, 2.0, homogeneous=True) / G.hat_norm(
            u, 0.0, 2.0, homogeneous=True
        )
        assert ratio == pytest.approx(2.0, rel=1e-6)

    def test_rough_scaling_law(self):
        k, p = -1 / 12, 12 / 7
        u = self.gaussian()
        d = G.dilate(u, 2.0, 1.5)
        ratio = G.hat_norm(d, k, p, homogeneous=True) / G.hat_norm(
            u, k, p, homogeneous=True
        )
        assert ratio == pytest.approx(2.0 ** (k - 1 / p + 1.5), rel=1e-4)

    def test_smooth_family_scaling(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            N, L = 1024, 32.0
            x = -L / 2 + np.arange(N) * (L / N)
            prof = sum(
                rng.normal() * np.exp(-((x - rng.uniform(-3, 3)) ** 2) / 2)
                for _ in range(3)
            )
            u = G.from_samples(prof, L)
            for k in (0.0, -0.25, 0.5):
                d = G.dilate(u, 2.0, 1.5)
                ratio = G.hat_norm(d, k, 2.0, homogeneous=True) / G.hat_norm(
                    u, k, 2.0, homogeneous=True
                )
                assert ratio == pytest.approx(2.0 ** (k + 1), rel=1e-4)

    def test_rejects_bad_mu(self):
        u = random_field()
        for mu in (0.0, -1.0, math.inf):
            with pytest.raises(G.GridError, match="positive and finite"):
                G.dilate(u, mu, 1.5)


class TestSpacetimeNorm:
    def test_single_mode_is_one(self):
        m = np.zeros((16, 16), dtype=complex)
        m[0, 0] = 1.0
        f = G.GridFunction(m, (2 * np.pi, 2 * np.pi))
        for disp in G.DISPERSIONS:
            assert G.spacetime_norm(
                f, G.WeightSpec(1.3, 0.7, disp), 2.0
            ) == pytest.approx(1.0, rel=1e-12)

    def test_dispersion_matters_unless_b_zero(self):
        u0 = random_field(n=32, box=16.0, seed=2)
        f = G.free_evolution(u0, "schroedinger", 256, 32.0, G.CutoffSpec(1.0))
        with_disp = G.spacetime_norm(f, G.WeightSpec(0.0, 0.6, "schroedinger"), 2.0)
        without = G.spacetime_norm(f, G.WeightSpec(0.0, 0.6, "none"), 2.0)
        assert abs(with_disp - without) / with_disp > 1e-3
        b0_a = G.spacetime_norm(f, G.WeightSpec(0.0, 0.0, "schroedinger"), 2.0)
        b0_b = G.spacetime_norm(f, G.WeightSpec(0.0, 0.0, "none"), 2.0)
        assert b0_a == pytest.approx(b0_b, rel=1e-12)

    def test_free_evolution_constant_independent_of_data(self):
        # |psi e^{it dxx} u0| in the (s, b) norm <= C |u0| with C data-free
        consts = []
        for seed in range(50):
            u0 = random_field(n=32, box=16.0, seed=seed)
            f = G.free_evolution(u0, "schroedinger", 512, 32.0, G.CutoffSpec(1.0))
            c = G.spacetime_norm(f, G.WeightSpec(0.0, 0.6, "schroedinger"), 2.0)
            consts.append(c / G.hat_norm(u0, 0.0, 2.0))
        assert max(consts) / min(consts) < 2.0

    def test_dims_mismatch(self):
        with pytest.raises(G.GridError):
            G.spacetime_norm(random_field(), G.WeightSpec(0.0, 0.5), 2.0)


def single_mode_forcing(nx=32, nt=1024, lx=16.0, lt=16.0, ix=3, it=5):
    xi = 2 * np.pi * np.fft.fftfreq(nx, lx / nx)
    tau = 2 * np.pi * np.fft.fftfreq(nt, lt / nt)
    x = -lx / 2 + np.arange(nx) * (lx / nx)
    t = -lt / 2 + np.arange(nt) * (lt / nt)
    field = np.exp(1j * xi[ix] * x)[:, None] * np.exp(1j * tau[it] * t)[None, :]
    return G.from_samples(field, (lx, lt)), xi[ix], tau[it]


class TestDuhamelProbe:
    W = G.WeightSpec(0.0, 0.6, "schroedinger", b_prime=-0.1)

    def test_zero_forcing(self):
        f = G.GridFunction(np.zeros((32, 256), dtype=complex), (16.0, 16.0))
        lhs, rhs = G.duhamel_cutoff_probe(f, self.W, 0.5, 2.0)
        assert lhs == 0.0 and rhs == 0.0

    def test_single_mode_constant_stable_across_delta(self):
        f, _, _ = single_mode_forcing()
        ratios = []
        for delta in (1.0, 0.5, 0.25, 0.125):
            lhs, rhs = G.duhamel_cutoff_probe(f, self.W, delta, 2.0)
            ratios.append(lhs / rhs)
        assert max(ratios) / min(ratios) < 3.0

    def test_delta_exponent_identity_at_full_gain(self):
        # with b = b' + 1 the delta prefactor is delta^0, so rhs is the
        # plain forcing norm at every delta
        f, _, _ = single_mode_forcing()
        w = G.WeightSpec(0.0, 0.9, "schroedinger", b_prime=-0.1)
        _, rhs1 = G.duhamel_cutoff_probe(f, w, 1.0, 2.0)
        _, rhs2 = G.duhamel_cutoff_probe(f, w, 0.25, 2.0)
        assert rhs1 == pytest.approx(rhs2, rel=1e-12)

    def test_mode_solution_matches_closed_form(self):
        # v_hat(t) = -e^{-i phi t}(e^{i(tau0+phi)t} - 1)/(tau0+phi), scaled
        # by the lattice amplitude of the single mode
        nx, nt, lx, lt = 32, 4096, 16.0, 16.0
        f, xi0, tau0 = single_mode_forcing(nx, nt, lx, lt)
        phi = xi0**2
        t = G.time_axis(nt, lt)
        fh = f.modes * G._center_phase(nt, 2, 1).conj()
        ftime = np.fft.ifft(fh, axis=1) / (lt / nt)
        integ = np.exp(1j * np.outer(G.dispersion_symbol("schroedinger",
                                                         f.frequencies(0)), t)) * ftime
        j0 = nt // 2
        prim = np.zeros_like(integ)
        inc = 0.5 * (integ[:, 1:] + integ[:, :-1]) * (lt / nt)
        prim[:, j0 + 1:] = np.cumsum(inc[:, j0:], axis=1)
        prim[:, :j0] = -np.cumsum(inc[:, :j0][:, ::-1], axis=1)[:, ::-1]
        v = -1j * np.exp(-1j * np.outer(
            G.dispersion_symbol("schroedinger", f.frequencies(0)), t)) * prim
        amp = lx  # continuum-transform amplitude of the unit sample mode
        jt = 3 * nt // 4
        denom = tau0 + phi
        oracle = -amp * np.exp(-1j * phi * t[jt]) * (
            np.exp(1j * denom * t[jt]) - 1.0
        ) / denom
        assert abs(v[3, jt] - oracle) < 1e-4 * abs(oracle)

    def test_modulation_spread_family_exposes_exponent(self):
        # forcing spread over modulations up to 1/delta saturates the
        # bound, so lhs/|F| scales like delta^(1+b'-b)
        nx, nt, lx, lt = 16, 1024, 16.0, 32.0
        xi = 2 * np.pi * np.fft.fftfreq(nx, lx / nx)
        tau = 2 * np.pi * np.fft.fftfreq(nt, lt / nt)
        w = self.W
        slopes_x, slopes_y = [], []
        for delta in (1.0, 0.5, 0.25, 0.125):
            modes = np.zeros((nx, nt), dtype=complex)
            for i in range(nx):
                sig = tau + xi[i] ** 2
                modes[i, np.abs(sig) <= 1.0 / delta] = 1.0
            f = G.GridFunction(modes, (lx, lt))
            lhs, _ = G.duhamel_cutoff_probe(f, w, delta, 2.0)
            fnorm = G.spacetime_norm(
                f, G.WeightSpec(w.s, w.b_prime, w.dispersion), 2.0
            )
            slopes_x.append(math.log(delta))
            slopes_y.append(math.log(lhs / fnorm))
        slope = np.polyfit(slopes_x, slopes_y, 1)[0]
        assert abs(slope - (1.0 + w.b_prime - w.b)) < 0.15

    def test_parameter_regime_validated(self):
        f, _, _ = single_mode_forcing()
        bad = G.WeightSpec(0.0, 0.6, "schroedinger", b_prime=0.2)
        with pytest.raises(G.GridError, match="b'\\+1 >= b >= 0 >= b'"):
            G.duhamel_cutoff_probe(f, bad, 0.5, 2.0)

    def test_cutoff_shape(self):
        t = np.linspace(-3, 3, 601)
        psi = G.smooth_bump(t)
        assert np.all(psi >= 0)
        assert np.all(psi[np.abs(t) <= 1.0] == 1.0)
        assert np.all(psi[np.abs(t) >= 2.0] == 0.0)
        assert np.allclose(psi, psi[::-1])
        with pytest.raises(G.GridError):
            G.CutoffSpec(1.5)


class TestEmbeddingSpotCheck:
    def test_sup_in_time_bounded_by_spacetime_norm(self):
        # b > 1/r: sample check only, constants stay moderate across draws
        ratios = []
        for seed in range(10):
            u0 = random_field(n=32, box=16.0, seed=100 + seed)
            f = G.free_evolution(u0, "schroedinger", 512, 32.0, G.CutoffSpec(1.0))
            xnorm = G.spacetime_norm(f, G.WeightSpec(0.0, 0.6, "schroedinger"), 2.0)
            samples = f.to_samples()
            sup_t = max(
                G.hat_norm(G.from_samples(samples[:, j], 16.0), 0.0, 2.0)
                for j in range(0, 512, 16)
            )
            ratios.append(sup_t / xnorm)
        assert max(ratios) / min(ratios) < 3.0


class TestSerialization:
    def test_round_trip_and_stability(self, tmp_path):
        u = G.rough_data(G.RoughDataSpec(k=-0.1, p=1.5, n=64, seed=9))
        path = tmp_path / "grid.txt"
        G.save_grid(u, path)
        v = G.load_grid(path)
        assert np.array_equal(u.modes, v.modes)
        assert u.box == v.box and u.seed == v.seed and u.provenance == v.provenance
        path2 = tmp_path / "grid2.txt"
        G.save_grid(v, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "nope.txt"
        path.write_text("something else\n")
        with pytest.raises(G.GridError, match="bad magic"):
            G.load_grid(path)

    def test_rejects_truncated_snapshot(self, tmp_path):
        path = tmp_path / "grid.txt"
        G.save_grid(G.rough_data(G.RoughDataSpec(k=0.0, p=2.0, n=16, seed=3)), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(G.GridError, match="16 modes"):
            G.load_grid(path)

    def test_2d_round_trip(self, tmp_path):
        f = G.from_samples(RNG.normal(size=(16, 8)), (4.0, 2.0))
        path = tmp_path / "grid2d.txt"
        G.save_grid(f, path)
        g = G.load_grid(path)
        assert np.array_equal(f.modes, g.modes) and g.dims == 2
