"""Lattice transforms, the data norm, rough data, dilation, snapshots."""

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


SNAPSHOT = [G.GRID_FORMAT_MAGIC, "dims 1", "shape 2", "box 6.25", "seed 3",
            "provenance fuzz", "1.0 0.0", "0.5 -0.25"]


def edited(at, line):
    """SNAPSHOT with the line at index at replaced (None: cut from there)."""
    return SNAPSHOT[:at] if line is None else [*SNAPSHOT[:at], line, *SNAPSHOT[at + 1:]]


MALFORMED_SNAPSHOTS = {
    "magic-line-alone": edited(1, None),
    "dims-not-an-int": edited(1, "dims x"),
    "box-not-finite": edited(3, "box inf"),
    "seed-without-value": edited(4, "seed"),
    "seed-not-an-int": edited(4, "seed 1.5"),
    "no-provenance-line": edited(5, None),
    "three-tokens-on-a-mode-line": edited(7, "0.5 -0.25 1"),
    "mode-not-a-float": edited(7, "0.5 j"),
}


@pytest.mark.parametrize("lines", MALFORMED_SNAPSHOTS.values(), ids=MALFORMED_SNAPSHOTS)
def test_malformed_snapshot_is_a_grid_error(tmp_path, lines):
    path = tmp_path / "grid.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(G.GridError):
        G.load_grid(path)


SNAPSHOT_TOKENS = ["dims", "shape", "box", "seed", "provenance", "none", "0", "1",
                   "2", "4", "-2", "1.5", "nan", "inf", "1e400", "x", ""]
SNAPSHOT_LINE = (st.lists(st.sampled_from(SNAPSHOT_TOKENS), max_size=4).map(" ".join)
                 | st.text(max_size=8))


@st.composite
def snapshot_text(draw):
    """SNAPSHOT with up to three lines dropped, replaced or inserted."""
    lines = list(SNAPSHOT)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        line = draw(st.none() | SNAPSHOT_LINE)
        if line is None:
            del lines[at:at + 1]
        elif draw(st.booleans()):
            lines[at:at + 1] = [line]
        else:
            lines.insert(at, line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(text=snapshot_text())
def test_fuzzed_snapshot_loads_or_raises_grid_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("snap") / "grid.txt"
    path.write_text(text, encoding="utf-8")
    try:
        u = G.load_grid(path)
    except G.GridError:
        return
    assert isinstance(u, G.GridFunction)

