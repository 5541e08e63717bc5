"""Integrator correctness: closed forms, conservation, convergence order,
and the two empirical flow-map probes."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from zaklab import grids as G
from zaklab import solver as S


def spatial_grid(cfg):
    return -cfg.box / 2 + np.arange(cfg.n) * (cfg.box / cfg.n)


def smooth_data(n, box, amplitude=1.0):
    x = -box / 2 + np.arange(n) * (box / n)
    u0 = amplitude * np.exp(-(x**2) / 2) * (1 + 0.3j)
    n0 = 0.5 * amplitude * np.exp(-(x**2) / 4)
    n1 = 0.2 * amplitude * x * np.exp(-(x**2) / 3)
    return u0, n0, n1 - n1.mean()


class TestConfig:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(S.SolverError, match="power of two"):
            S.SolverConfig(n=100)

    def test_rejects_t_not_multiple_of_dt(self):
        with pytest.raises(S.SolverError, match="multiple of dt"):
            S.SolverConfig(dt=3e-3, t_final=0.5)

    def test_steps(self):
        assert S.SolverConfig(dt=1e-3, t_final=0.5).steps == 500


class TestFirstOrderReduction:
    def test_zero_n1_collapses(self):
        n0 = np.cos(np.linspace(-np.pi, np.pi, 64, endpoint=False))
        p, m = S.to_first_order(n0, np.zeros(64), 2 * np.pi, regularized=True)
        assert np.allclose(p, n0) and np.allclose(m, n0)

    def test_single_mode_regularized_symbol(self):
        # at |xi| = 1 the inverse regularized half-wave symbol is 1/sqrt(2)
        n = 128
        x = -np.pi + np.arange(n) * (2 * np.pi / n)
        p, m = S.to_first_order(np.cos(x), np.cos(x), 2 * np.pi, regularized=True)
        assert np.max(np.abs(p - np.cos(x) * (1 + 1j / math.sqrt(2)))) < 1e-12
        assert np.max(np.abs(m - np.cos(x) * (1 - 1j / math.sqrt(2)))) < 1e-12

    @pytest.mark.parametrize("regularized", [False, True])
    def test_envelopes_carry_n1_through_the_inverse_symbol(self, regularized):
        # each mode of n_plus - n_minus is 2 i/omega(xi) times that of n1,
        # wherever omega > 0 (every mode but the zero one without
        # regularization, where n1 has zero mean), and the sum is 2 n0
        seed, n, box = (1, 128, 16.0) if regularized else (0, 256, 32.0)
        rng = np.random.default_rng(seed)
        n0, n1 = rng.normal(size=n), rng.normal(size=n)
        if not regularized:
            n1 -= n1.mean()
        p, m = S.to_first_order(n0, n1, box, regularized=regularized)
        xi = 2 * np.pi * np.fft.fftfreq(n, d=box / n)
        omega = np.sqrt(xi * xi + 1.0) if regularized else np.abs(xi)
        live = omega > 0
        lhs = np.fft.fft(p - m)[live] / 2.0 * omega[live]
        assert np.max(np.abs(lhs - 1j * np.fft.fft(n1)[live])) < 1e-12
        assert np.max(np.abs(p + m - 2.0 * n0)) < 1e-12

    def test_unregularized_rejects_mean_in_n1(self):
        with pytest.raises(S.SolverError, match="zero mode"):
            S.to_first_order(np.zeros(64), np.ones(64), 8.0, regularized=False)


class TestStepAndEvolve:
    def test_zero_data_stays_zero(self):
        cfg = S.SolverConfig(n=64, box=16.0, dt=1e-2, t_final=0.1)
        z = np.zeros(64)
        trace = S.evolve(z, z, z, cfg)
        assert not trace.truncated
        assert np.max(np.abs(trace.final_u)) == 0.0
        assert np.all(trace.series["mass"] == 0.0)

    @pytest.mark.parametrize("regularized", [True, False])
    def test_plane_wave_closed_form(self, regularized):
        cfg = S.SolverConfig(n=256, box=32.0, dt=1e-3, t_final=1.0,
                             regularized=regularized)
        x = spatial_grid(cfg)
        kappa = 2 * np.pi * 4 / cfg.box
        u0 = np.exp(1j * kappa * x)
        trace = S.evolve(u0, np.ones(cfg.n), np.zeros(cfg.n), cfg)
        exact = S.plane_wave_solution(1.0, kappa, 1.0, x, 1.0)
        assert np.max(np.abs(trace.final_u - exact)) < 1e-8

    def test_self_convergence_is_fourth_order(self):
        n, box = 256, 32.0
        x = -box / 2 + np.arange(n) * (box / n)
        u0 = 2.0 * np.exp(-(x**2) / 2) * (1 + 0.3j)
        n0 = -np.abs(u0) ** 2
        n1 = x * np.exp(-(x**2) / 3)
        n1 -= n1.mean()
        finals = {}
        for dt in (4e-3, 2e-3, 1e-3):
            cfg = S.SolverConfig(n=n, box=box, dt=dt, t_final=0.5)
            finals[dt] = S.evolve(u0, n0, n1, cfg).final_u
        e1 = np.max(np.abs(finals[4e-3] - finals[2e-3]))
        e2 = np.max(np.abs(finals[2e-3] - finals[1e-3]))
        order = math.log2(e1 / e2)
        assert abs(order - 4.0) <= 0.3

    def test_mass_conserved_on_smooth_data(self):
        cfg = S.SolverConfig(n=512, box=32.0, dt=1e-3, t_final=0.5)
        u0, n0, n1 = smooth_data(cfg.n, cfg.box)
        trace = S.evolve(u0, n0, n1, cfg)
        mass = trace.series["mass"]
        assert np.max(np.abs(mass - mass[0])) < 1e-8

    def test_n_stays_real(self):
        cfg = S.SolverConfig(n=256, box=32.0, dt=1e-3, t_final=0.2)
        u0, n0, n1 = smooth_data(cfg.n, cfg.box, amplitude=2.0)
        trace = S.evolve(u0, n0, n1, cfg)
        assert np.max(trace.series["n_imag"]) < 1e-10

    def test_regularized_matches_unregularized_flow(self):
        n, box = 256, 32.0
        u0, n0, n1 = smooth_data(n, box)
        ua = S.evolve(u0, n0, n1,
                      S.SolverConfig(n=n, box=box, dt=1e-3, t_final=0.25,
                                     regularized=True)).final_u
        ub = S.evolve(u0, n0, n1,
                      S.SolverConfig(n=n, box=box, dt=1e-3, t_final=0.25,
                                     regularized=False)).final_u
        assert np.max(np.abs(ua - ub)) < 1e-6

    def test_rough_data_small_amplitude_completes(self):
        cfg = S.SolverConfig(n=256, box=32.0, dt=1e-3, t_final=0.25)
        u0 = 0.2 * G.unit_rough_data(
            G.RoughDataSpec(k=0.0, p=2.0, n=cfg.n, seed=4, box=cfg.box)
        ).to_samples()
        n0 = 0.2 * G.unit_rough_data(
            G.RoughDataSpec(-0.5, 2.0, cfg.n, 5, box=cfg.box, hermitian=True)
        ).to_samples().real
        n1 = 0.2 * G.unit_rough_data(
            G.RoughDataSpec(-1.5, 2.0, cfg.n, 6, box=cfg.box, hermitian=True)
        ).to_samples().real
        n1 -= n1.mean()
        trace = S.evolve(u0, n0, n1, cfg)
        assert not trace.truncated
        assert trace.times[-1] == pytest.approx(0.25)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_truncates_with_flag(self):
        # unresolvably violent data drives the scheme nonfinite quickly
        cfg = S.SolverConfig(n=64, box=4.0, dt=0.05, t_final=2.0)
        x = spatial_grid(cfg)
        u0 = 1e4 * np.exp(-(x**2) * 4)
        n0 = -np.abs(u0) ** 2
        trace = S.evolve(u0, n0, np.zeros(cfg.n), cfg)
        assert trace.truncated and trace.blowup_time is not None
        assert trace.final_u is None

    def test_trace_timestamps_increase(self):
        cfg = S.SolverConfig(n=64, box=16.0, dt=1e-2, t_final=0.2, sample_stride=5)
        u0, n0, n1 = smooth_data(cfg.n, cfg.box)
        trace = S.evolve(u0, n0, n1, cfg)
        assert np.all(np.diff(trace.times) > 0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_leaves_the_other_batch_members_untouched(self):
        cfg = S.SolverConfig(n=64, box=4.0, dt=0.05, t_final=2.0, sample_stride=1)
        x = spatial_grid(cfg)
        calm = smooth_data(cfg.n, cfg.box, amplitude=0.5)
        calmer = smooth_data(cfg.n, cfg.box, amplitude=0.25)
        wild = (1e8 * np.exp(-(x**2)), -1e16 * np.exp(-(x**2)), np.zeros(cfg.n))

        def run(data):
            seen = {}

            def keep(i, alive, y):
                for j, row in zip(alive, y):
                    seen[i, int(j)] = row.copy()

            return S._integrate(S._spectral(data, cfg), S._Lawson(cfg), keep,
                                cfg.steps, cfg.sample_stride), seen

        blowup, seen = run([calm, wild, calmer])
        assert blowup[0] is None and blowup[2] is None
        assert blowup[1] is not None and blowup[1] > 0
        last = max(i for i, j in seen if j == 1)
        assert 0 < last < cfg.steps
        for member, data in ((0, calm), (2, calmer)):
            solo_blowup, solo = run([data])
            assert solo_blowup == [None]
            assert len(solo) == cfg.steps + 1
            for (i, _), row in solo.items():
                assert np.array_equal(seen[i, member], row)


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_per_member_operators_leave_with_a_member_that_blows_up(self):
        # each member has its own box and dt; the wild one blows up mid-run,
        # and the others must still step with their own operator rows
        cfg = S.SolverConfig(n=64, box=4.0, dt=0.05, t_final=2.0)
        cfgs = [cfg, cfg, replace(cfg, box=2.0, dt=0.0125), replace(cfg, box=8.0, dt=0.1)]
        x = spatial_grid(cfg)
        wild = (1e8 * np.exp(-(x**2)), -1e16 * np.exp(-(x**2)), np.zeros(cfg.n))
        data = [smooth_data(cfg.n, cfg.box, amplitude=0.5), wild,
                smooth_data(cfg.n, cfg.box, amplitude=0.25),
                smooth_data(cfg.n, cfg.box, amplitude=0.125)]

        def run(members, lawson):
            seen = {}

            def keep(i, alive, y):
                for j, row in zip(alive, y):
                    seen[i, int(j)] = row.copy()

            y = np.concatenate([S._spectral([d], c) for d, c in members], axis=1)
            return S._integrate(y, lawson, keep, cfg.steps), seen

        blowup, seen = run(list(zip(data, cfgs)), S._Lawson(*cfgs))
        assert blowup[1] is not None and 0 < blowup[1] < cfg.steps
        assert blowup[0] is None and blowup[2] is None and blowup[3] is None
        for member in (0, 2, 3):
            solo_blowup, solo = run([(data[member], cfgs[member])], S._Lawson(cfgs[member]))
            assert solo_blowup == [None]
            assert len(solo) == cfg.steps + 1
            for (i, _), row in solo.items():
                assert np.array_equal(seen[i, member], row)


def zakharov_energy(y, cfg):
    """E = |u_x|^2 + int n|u|^2 + |n|^2/2 + |v|^2/2 of each member of an
    observed spectral batch, with n = (n_plus + n_minus)/2 and v the
    zero-mean antiderivative of n_t, v_hat = n_t_hat/(i xi), under the
    regularized half-wave symbol omega = sqrt(xi^2 + 1)."""
    xi = G.wavenumbers(cfg.n, cfg.box)
    omega = np.sqrt(xi * xi + 1.0)
    u_hat, p_hat, m_hat = y[:, 0], y[:, 1], y[:, 2]
    n_hat = (p_hat + m_hat) / 2.0
    nt_hat = -1j * omega * (p_hat - m_hat) / 2.0
    v_hat = np.zeros_like(nt_hat)
    v_hat[:, xi != 0] = nt_hat[:, xi != 0] / (1j * xi[xi != 0])
    parseval = cfg.box / cfg.n**2  # int |f|^2 dx = box/n^2 sum |f_hat|^2

    def sq(f_hat):
        return parseval * np.sum(np.abs(f_hat) ** 2, axis=-1)

    u, n = np.fft.ifft(u_hat), np.fft.ifft(n_hat).real
    potential = (cfg.box / cfg.n) * np.sum(n * np.abs(u) ** 2, axis=-1)
    return sq(xi * u_hat) + potential + 0.5 * sq(n_hat) + 0.5 * sq(v_hat)


class TestEnergyOracle:
    """The regularized reduction is exactly Zakharov (n_tt - n_xx =
    (|u|^2)_xx), whose Hamiltonian is conserved; the RK4 scheme's drift in
    it must fall at fourth order in dt (Bao & Sun 2005, SIAM J. Sci.
    Comput. 26)."""

    def drift(self, dt):
        u0, n0, n1 = S.gaussian_focusing_data(256, 32.0, 2.0)
        cfg = S.SolverConfig(n=256, box=32.0, dt=dt, t_final=0.5)
        data = [(u0.to_samples(), n0.to_samples().real, n1.to_samples().real)]
        energies = []
        S._integrate(S._spectral(data, cfg), S._Lawson(cfg),
                     lambda i, alive, y: energies.append(zakharov_energy(y, cfg)[0]),
                     cfg.steps, cfg.sample_stride)
        return max(abs(e - energies[0]) for e in energies)

    def test_energy_drift_is_fourth_order(self):
        drifts = [self.drift(dt) for dt in (2e-3, 1e-3, 5e-4)]
        assert drifts[0] < 1e-7
        for coarse, fine in zip(drifts, drifts[1:]):
            assert math.log2(coarse / fine) >= 3.5


def warm_step_peak(cfgs, batch):
    """Peak traced allocation of one warm Lawson step over a seeded batch,
    with numpy's iterator buffer pinned to its default of 8192 elements;
    one config serves the whole batch, several are one per member."""
    rng = np.random.default_rng(0)
    data = [
        (rng.normal(size=cfgs[0].n) + 1j * rng.normal(size=cfgs[0].n),
         rng.normal(size=cfgs[0].n), np.zeros(cfgs[0].n))
        for _ in range(batch)
    ]
    members = cfgs if len(cfgs) == batch else cfgs * batch
    y = np.concatenate([S._spectral([d], c) for d, c in zip(data, members)], axis=1)
    lawson = S._Lawson(*cfgs)
    lawson.step(y)
    old_bufsize = np.setbufsize(8192)
    tracemalloc.start()
    try:
        lawson.step(y)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        np.setbufsize(old_bufsize)


class TestLawsonCore:
    def test_warm_step_peak_allocation_stays_under_the_trim_threshold(self):
        # numpy's broadcasting ufuncs take an iterator buffer of at most
        # np.getbufsize() elements, one call at a time: 5120 complex elements,
        # 80 KiB, here, with the size pinned to numpy's default of 8192.  A
        # (20, 256) complex temporary (80 KiB) held next to it crosses
        # glibc's default mmap and trim threshold
        assert warm_step_peak([S.SolverConfig(n=256, box=32.0)], 20) < 128 * 1024

    def test_warm_step_peak_allocation_at_batch_one_and_in_the_lifespan_batch(self):
        # at batch 1 every product has operands of one shape; the lifespan
        # batch has per-member operators and (1, batch, 1) dt columns
        cfg = S.SolverConfig(n=512, box=32.0, dt=2e-4)
        dilations = [replace(cfg, box=cfg.box / mu, dt=cfg.dt / (mu * mu))
                     for mu in (1.0, 2.0, 4.0)]
        assert warm_step_peak([S.SolverConfig(n=256, box=32.0)], 1) < 128 * 1024
        assert warm_step_peak([cfg], 1) < 128 * 1024
        assert warm_step_peak(dilations, 3) < 128 * 1024

    @pytest.mark.parametrize("n", [64, 256, 512])
    @pytest.mark.parametrize("batch", [1, 3, 20])
    def test_transforms_are_numpys_bit_for_bit(self, batch, n):
        # the core calls numpy's pocketfft gufuncs directly; a numpy release
        # that changes them must fail here rather than shift payloads
        rng = np.random.default_rng(n + batch)
        a = rng.normal(size=(2, batch, n)) + 1j * rng.normal(size=(2, batch, n))
        lawson = S._Lawson(S.SolverConfig(n=n))
        for ours, theirs in ((lawson.fft, np.fft.fft), (lawson.ifft, np.fft.ifft)):
            out = np.empty_like(a)
            assert ours(a, out) is out
            assert out.tobytes() == theirs(a).tobytes()


class TestLipschitzProbe:
    CFG = S.SolverConfig(n=256, box=32.0, dt=1e-3, t_final=0.25, sample_stride=25)

    def test_ratios_stable_across_deltas_at_corner(self):
        rep = S.lipschitz_probe(
            0.0, -0.5, 2.0, amplitude=2.0,
            deltas=(1e-2, 1e-3, 1e-4), seeds=(1, 2, 3), cfg=self.CFG,
        )
        assert rep.max_stability() < 2.0
        assert not rep.truncations

    def test_zero_delta_reports_exact_match_sentinel(self):
        rep = S.lipschitz_probe(
            0.0, -0.5, 2.0, amplitude=1.0,
            deltas=(0.0, 1e-3), seeds=(1,), cfg=self.CFG,
        )
        assert rep.ratios[1][0.0] is None

    def test_batched_seeds_equal_single_seed_runs(self):
        cfg = S.SolverConfig(n=128, box=32.0, dt=1e-3, t_final=0.05, sample_stride=10)
        args = (0.0, -0.5, 2.0)
        kw = dict(amplitude=2.0, deltas=(1e-2, 0.0, 1e-4), cfg=cfg)
        batch = S.lipschitz_probe(*args, seeds=(1, 2, 3), **kw)
        for seed in (1, 2, 3):
            solo = S.lipschitz_probe(*args, seeds=(seed,), **kw)
            assert batch.ratios[seed] == solo.ratios[seed]
            assert batch.stability[seed] == solo.stability[seed]

    def test_rough_point_bounded(self):
        rep = S.lipschitz_probe(
            -1 / 12 + 0.01, -7 / 12, 12 / 7, amplitude=1.0,
            deltas=(1e-2, 1e-3), seeds=(1, 2), cfg=self.CFG,
        )
        for row in rep.ratios.values():
            for r in row.values():
                assert r is not None and r < 10.0


def sequential_lifespan(u0, n0, n1, mus, cfg):
    """The lifespan probe as one run per dilation, one after the other, each
    on its own core: the reference for the batched probe.  Also returns the
    dilations that blew up."""
    mus, times, base_T, blew_up = tuple(sorted(mus)), {}, None, []
    for mu in mus:
        scale = mu * mu
        if base_T is None:
            budget, dt = cfg.t_final, cfg.dt
        else:
            budget = S.LIFESPAN_BUDGET_FACTOR * base_T / scale
            dt = cfg.dt / scale
            budget = math.ceil(budget / dt) * dt
        run = replace(cfg, box=u0.box[0] / mu, dt=dt, t_final=budget, sample_stride=1)
        data = (G.dilate(u0, mu, 1.5).to_samples(), G.dilate(n0, mu, 2.0).to_samples().real,
                G.dilate(n1, mu, 4.0).to_samples().real)
        ts, qs = [], []

        def watch(i, alive, y):
            ts.append(i * run.dt)
            qs.append(float(np.max(np.abs(np.fft.ifft(y[0, 0])))))
            return np.array([i > 0 and qs[-1] >= 2.0 * qs[0]])

        (step,) = S._integrate(S._spectral([data], run), S._Lawson(run), watch, run.steps)
        t_dep = None if step is None else step * run.dt
        if step is not None:
            blew_up.append(mu)
        elif len(qs) > 1 and qs[-1] >= 2.0 * qs[0]:
            target, q, prev_q = 2.0 * qs[0], qs[-1], qs[-2]
            t_dep = ts[-1] if q == prev_q else (
                ts[-2] + (target - prev_q) / (q - prev_q) * (ts[-1] - ts[-2]))
        times[mu] = t_dep
        if base_T is None:
            if t_dep is None:
                return S.LifespanReport(times, None, -2.0, inconclusive=True), blew_up
            base_T = t_dep
    observed = [(mu, t) for mu, t in times.items() if t is not None and mu > 0]
    if len(observed) < 2:
        return S.LifespanReport(times, None, -2.0, inconclusive=True), blew_up
    slope = float(np.polyfit(np.log([mu for mu, _ in observed]),
                             np.log([t for _, t in observed]), 1)[0])
    return S.LifespanReport(times, slope, -2.0,
                            inconclusive=len(observed) < len(mus)), blew_up


class TestLifespanProbe:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("amplitude,mus,dt,t_final,outcome", [
        (12.0, (1.0, 2.0, 4.0), 2e-4, 0.5, "departs"),
        (13.0, (2.0, 1.0), 2e-4, 0.5, "departs"),
        (14.0, (0.5, 1.0, 3.0), 2e-4, 0.5, "departs"),
        (1e-3, (1.0, 2.0), 1e-3, 0.1, "first stays"),
        (1e40, (1.0, 2.0, 4.0), 5e-3, 0.1, "blows up"),
        (12.0, (2.0, 4.0), 2e-4, 0.5, "later runs out"),  # budget 4 T1 / mu^2, not / (mu/2)^2
    ])
    def test_batch_equals_sequential_runs(self, amplitude, mus, dt, t_final, outcome):
        u0, n0, n1 = S.gaussian_focusing_data(256, 32.0, amplitude)
        cfg = S.SolverConfig(n=256, box=32.0, dt=dt, t_final=t_final)
        rep = S.lifespan_probe(u0, n0, n1, mus, cfg)
        ref, blew_up = sequential_lifespan(u0, n0, n1, mus, cfg)
        assert rep == ref
        assert list(rep.departure_times.items()) == list(ref.departure_times.items())
        if outcome == "first stays":  # only the first dilation is reported
            assert rep.departure_times == {1.0: None}
        if outcome == "later runs out":  # the later member left at its budget
            assert rep.departure_times[2.0] is not None and rep.departure_times[4.0] is None
        assert bool(blew_up) == (outcome == "blows up")

    def test_one_probe_builds_one_core(self, monkeypatch):
        built = []

        class Counted(S._Lawson):
            def __init__(self, *cfgs):
                built.append(len(cfgs))
                super().__init__(*cfgs)

        monkeypatch.setattr(S, "_Lawson", Counted)
        u0, n0, n1 = S.gaussian_focusing_data(128, 32.0, 40.0)
        cfg = S.SolverConfig(n=128, box=32.0, dt=5e-3, t_final=0.5)
        S.lifespan_probe(u0, n0, n1, (1.0, 2.0, 4.0), cfg)
        assert built == [3]

    def test_slope_near_reference_for_focusing_family(self):
        u0, n0, n1 = S.gaussian_focusing_data(512, 32.0, 12.0)
        cfg = S.SolverConfig(n=512, box=32.0, dt=2e-4, t_final=0.5, sample_stride=1)
        rep = S.lifespan_probe(u0, n0, n1, (1.0, 2.0, 4.0), cfg)
        assert not rep.inconclusive
        assert rep.slope is not None
        assert abs(rep.slope - (-2.0)) <= 0.5

    def test_mu_one_matches_direct_departure(self):
        u0, n0, n1 = S.gaussian_focusing_data(256, 32.0, 12.0)
        cfg = S.SolverConfig(n=256, box=32.0, dt=2e-4, t_final=0.5, sample_stride=1)
        rep = S.lifespan_probe(u0, n0, n1, (1.0,), cfg)
        trace = S.evolve(
            u0.to_samples(), n0.to_samples().real, n1.to_samples().real, cfg
        )
        q = trace.series["sup_u"]
        i = int(np.argmax(q >= 2.0 * q[0]))
        assert i > 0
        t0, t1 = trace.times[i - 1], trace.times[i]
        direct = t0 + (2.0 * q[0] - q[i - 1]) / (q[i] - q[i - 1]) * (t1 - t0)
        assert rep.departure_times[1.0] == pytest.approx(direct)

    def test_small_amplitude_is_inconclusive(self):
        u0, n0, n1 = S.gaussian_focusing_data(128, 32.0, 1e-3)
        cfg = S.SolverConfig(n=128, box=32.0, dt=1e-3, t_final=0.1, sample_stride=1)
        rep = S.lifespan_probe(u0, n0, n1, (1.0, 2.0), cfg)
        assert rep.inconclusive
        assert rep.departure_times[1.0] is None
