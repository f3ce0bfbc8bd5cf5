"""Sampling, trajectories, equivariance, arrival times, branching."""

import numpy as np
import pytest

from pilotwave.currents import SpinSpec, grid_current_nodes
from pilotwave.errors import NoFluxError, SamplerFailureError, ShapeError
from pilotwave.evolve import Propagator, propagate_to
from pilotwave.families import CorrelatedPair
from pilotwave.grid import Grid
from pilotwave.guide import (BeableConfig, Box, Ensemble, IntegrationControls,
                             KS_CRITICAL_1PCT, ParametricVelocity,
                             SnapshotVelocity,
                             arrival_time_stats, equivariance_check,
                             integrate_ensemble, integrate_trajectory,
                             ks_statistic, marginal_cdf_by_quadrature,
                             measurement_branching, sample_equilibrium,
                             thread_count, velocity_source)
from pilotwave.wavefunction import GridWaveFunction, ParametricWaveFunction


def gaussian(sigma=1.0, k0=0.0, m=1.0, center=0.0):
    return ParametricWaveFunction(
        "gaussian_packet",
        {"center": [center], "sigma": sigma, "k0": [k0], "m": m}, [m])


def correlated_pair(m1=1.0, m2=2.0):
    return ParametricWaveFunction(
        "correlated_pair", {"alpha": 0.5, "m1": m1, "m2": m2, "d": 1,
                            "sigma_x": 0.9}, [m1, m2])


class TestSampler:
    def test_uniform_box_ks(self):
        grid = Grid([(0.0, 1.0)], [64])
        psi = GridWaveFunction(grid, np.ones(64), [1.0]).normalized()
        n = 10_000
        ens = sample_equilibrium(psi, n, seed=42)
        xs = np.sort(ens.configs[:, 0])
        emp = np.arange(1, n + 1) / n
        ks = np.max(np.abs(emp - xs))
        assert ks < 1.63 / np.sqrt(n)

    def test_gaussian_moments(self):
        sigma = 0.7
        psi = gaussian(sigma=sigma)
        n = 100_000
        ens = sample_equilibrium(psi, n, seed=7, box=[(-6 * sigma, 6 * sigma)])
        x = ens.configs[:, 0]
        assert abs(x.mean()) < 4 * sigma / np.sqrt(n)
        assert abs(x.var() - sigma**2) / sigma**2 < 0.05

    def test_single_draw_in_domain(self):
        psi = gaussian()
        ens = sample_equilibrium(psi, 1, seed=1, box=[(-5, 5)])
        assert ens.configs.shape == (1, 1)
        assert -5 <= ens.configs[0, 0] <= 5

    def test_deterministic_given_seed(self):
        psi = gaussian()
        a = sample_equilibrium(psi, 100, seed=9, box=[(-5, 5)])
        b = sample_equilibrium(psi, 100, seed=9, box=[(-5, 5)])
        np.testing.assert_array_equal(a.configs, b.configs)

    def test_sampler_failure_reported(self):
        # density supported in a sliver of a huge uniform box
        psi = gaussian(sigma=1e-4)
        with pytest.raises(SamplerFailureError):
            sample_equilibrium(psi, 1000, seed=3, box=[(-5e3, 5e3)],
                               envelope="uniform")


class TestTrajectories:
    def test_plane_wave_drifts_linearly(self):
        psi = ParametricWaveFunction("plane_wave", {"k": [1.5], "m": 1.0}, [1.0])
        src = velocity_source(psi)
        rec = integrate_trajectory(
            BeableConfig(positions=np.array([[0.0]])), src, 2.0,
            IntegrationControls(dt=0.01))
        assert rec.status == "ok"
        np.testing.assert_allclose(rec.configs[-1, 0], 1.5 * 2.0, atol=1e-10)

    def test_real_ground_state_is_static(self):
        psi = gaussian(sigma=1.2)     # real at t=0 but spreads; use t~0 window
        src = velocity_source(psi)
        rec = integrate_trajectory(
            BeableConfig(positions=np.array([[0.4]])), src, 1e-6,
            IntegrationControls(dt=1e-7))
        np.testing.assert_allclose(rec.configs[-1, 0], 0.4, atol=1e-9)

    def test_gaussian_trajectory_matches_closed_form(self):
        """Free Gaussian: x(t) = xc(t) + (x0 - xc(0)) sigma_t / sigma_0."""
        sigma, m, k0 = 0.8, 1.0, 0.5
        psi = gaussian(sigma=sigma, k0=k0, m=m)
        src = velocity_source(psi)
        x0 = 0.9
        t = 3.0
        rec = integrate_trajectory(
            BeableConfig(positions=np.array([[x0]])), src, t,
            IntegrationControls(dt=2e-3))
        st = sigma * np.sqrt(1 + (t / (2 * m * sigma**2)) ** 2)
        expected = k0 * t / m + x0 * st / sigma
        np.testing.assert_allclose(rec.configs[-1, 0], expected, rtol=1e-7)

    def test_gaussian_tail_members_not_flagged_as_nodes(self):
        """Members at 8 and 9 sigma start below 1e-12 of the center
        member's density; a nodeless Gaussian must still carry them along
        the closed form x(t) = k0 t / m + x0 sigma_t / sigma_0."""
        sigma, m, k0 = 0.8, 1.0, 0.5
        psi = gaussian(sigma=sigma, k0=k0, m=m)
        starts = np.array([0.0, 8 * sigma, 9 * sigma])
        assert np.all(psi.density(starts[1:, None])
                      < 1e-12 * psi.density(starts[:1, None]))
        t = 3.0
        final, status = integrate_ensemble(
            Ensemble(configs=starts[:, None], seed=0), velocity_source(psi),
            t, IntegrationControls(dt=2e-3))
        assert list(status) == ["ok"] * 3
        st = sigma * np.sqrt(1 + (t / (2 * m * sigma**2)) ** 2)
        np.testing.assert_allclose(final[:, 0], k0 * t / m + starts * st / sigma,
                                   rtol=1e-7)

    def test_far_tail_members_follow_closed_form(self):
        """At 40-50 sigma |psi|^2 underflows to 0 while grad psi / psi is
        still exact: those members stay on the closed form.  At 54 sigma
        psi itself underflows and the member is a node."""
        sigma, m, k0 = 0.8, 1.0, 0.5
        psi = gaussian(sigma=sigma, k0=k0, m=m)
        starts = np.array([40.0, 45.0, 50.0, 54.0]) * sigma
        assert np.all(psi.density(starts[:, None]) == 0)
        t = 0.5
        final, status = integrate_ensemble(
            Ensemble(configs=starts[:, None], seed=0), velocity_source(psi),
            t, IntegrationControls(dt=2e-3))
        assert list(status) == ["ok"] * 3 + ["node_encounter"]
        st = sigma * np.sqrt(1 + (t / (2 * m * sigma**2)) ** 2)
        np.testing.assert_allclose(
            final[:3, 0], k0 * t / m + starts[:3] * st / sigma, rtol=1e-13)

    @pytest.mark.parametrize("spinor", [False, True])
    def test_superposition_nodes_detected(self, spinor):
        """Standing wave e^{ikx} - e^{-ikx}, bare or times a spinor: a
        member on the node and one 1e-7 from it are node encounters, the
        antinode is not."""
        k, m = 1.0, 1.0
        params = {"components": [(1.0, "plane_wave", {"k": [k], "m": m}),
                                 (-1.0, "plane_wave", {"k": [-k], "m": m})]}
        if spinor:
            psi = ParametricWaveFunction(
                "spinor_product", {"scalar": "superposition",
                                   "scalar_params": params, "chi": [1.0, 0.0]},
                [m])
            src = velocity_source(psi, spin=SpinSpec(0.5))
        else:
            psi = ParametricWaveFunction("superposition", params, [m])
            src = velocity_source(psi)
        starts = np.array([[0.0], [1e-7], [np.pi / (2 * k)]])
        _, status = integrate_ensemble(
            Ensemble(configs=starts, seed=0), src, 1.0,
            IntegrationControls(dt=0.01))
        assert list(status) == ["node_encounter", "node_encounter", "ok"]

    def test_exit_status_on_grid_source(self):
        grid = Grid([(-2.0, 2.0)], [128])
        x = grid.axes[0]
        vals = np.exp(-x**2 / 2 + 2.0j * x)       # strong rightward drift
        snaps = [GridWaveFunction(grid, vals, [1.0], time=0.0).normalized(),
                 GridWaveFunction(grid, vals, [1.0], time=10.0).normalized()]
        src = velocity_source(snaps)
        rec = integrate_trajectory(
            BeableConfig(positions=np.array([[1.8]])), src, 5.0,
            IntegrationControls(dt=0.05))
        assert rec.status == "exited"

    def test_pair_com_conserved_along_trajectories(self):
        """d/dt (m1 x1 + m2 x2) = 0 for the zero-total-momentum pair."""
        m1, m2, alpha = 1.0, 3.0, 0.4
        psi = ParametricWaveFunction(
            "decaying_pair", {"alpha": alpha, "m1": m1, "m2": m2, "d": 1},
            [m1, m2])
        src = velocity_source(psi)
        start = BeableConfig(positions=np.array([[0.3], [-0.1]]))
        rec = integrate_trajectory(start, src, 5.0, IntegrationControls(dt=5e-3))
        com = m1 * rec.configs[:, 0] + m2 * rec.configs[:, 1]
        scale = np.max(np.abs(rec.configs))
        assert np.max(np.abs(com - com[0])) < 1e-8 * scale

    def test_no_crossing_1d(self):
        """Sorted order of 1-D trajectories is preserved at every step."""
        psi = gaussian(sigma=0.6, k0=0.3)
        src = velocity_source(psi)
        starts = np.linspace(-1.5, 1.5, 41)[:, None]
        ens = Ensemble(configs=starts, seed=0)
        final, status, (times, track) = integrate_ensemble(
            ens, src, 2.0, IntegrationControls(dt=5e-3), record=True)
        for snap in track:
            assert np.all(np.diff(snap[:, 0]) > 0)

    def test_velocity_evaluates_the_state_once(self, monkeypatch):
        """One velocity call makes one pass over the closed form."""
        calls = []
        factors = CorrelatedPair._factors

        def counted(cls, *args, **kwargs):
            calls.append(1)
            return factors(*args, **kwargs)

        monkeypatch.setattr(CorrelatedPair, "_factors", classmethod(counted))
        pts = np.random.default_rng(0).normal(size=(16, 2))
        ParametricVelocity(correlated_pair()).velocity(pts, 0.4)
        assert len(calls) == 1

    def test_threads_bit_identical(self, monkeypatch):
        """PILOTWAVE_THREADS changes the schedule, never the result."""
        src = ParametricVelocity(correlated_pair())
        ens = Ensemble(configs=np.random.default_rng(1).normal(size=(65, 2)),
                       seed=1)
        runs = []
        for threads in (1, 2):
            monkeypatch.setenv("PILOTWAVE_THREADS", str(threads))
            assert thread_count() == threads
            runs.append(integrate_ensemble(ens, src, 1.0,
                                           IntegrationControls(dt=0.02)))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert list(runs[0][1]) == list(runs[1][1])


class TestDomains:
    def test_exited_runs_keep_the_record_stride(self):
        """Rows after every member has left the grid still come every
        record_every steps: t = 5 in 100 steps at stride 10 is 11 rows."""
        grid = Grid([(-2.0, 2.0)], [128])
        x = grid.axes[0]
        vals = np.exp(-x**2 / 2 + 2.0j * x)       # strong rightward drift
        snaps = [GridWaveFunction(grid, vals, [1.0], time=0.0).normalized(),
                 GridWaveFunction(grid, vals, [1.0], time=10.0).normalized()]
        final, status, (times, track) = integrate_ensemble(
            Ensemble(configs=np.array([[1.8], [1.7]]), seed=0),
            velocity_source(snaps), 5.0,
            IntegrationControls(dt=0.05, record_every=10), record=True)
        assert list(status) == ["exited", "exited"]
        assert len(times) == 11 and track.shape == (11, 2, 1)
        np.testing.assert_allclose(times, np.linspace(0.0, 5.0, 11),
                                   atol=1e-12)
        np.testing.assert_array_equal(track[-1], final)
        assert np.all(final <= 2.0)

    def test_constant_velocity_lands_on_the_plane(self):
        """v = (-1, 0.3) toward the plane x = 0: each run ends at the
        closed-form crossing (0, y0 + 0.3 x0), with x = 0 exactly, and the
        final positions do not depend on recording."""
        psi = ParametricWaveFunction("plane_wave", {"k": [-1.0, 0.3], "m": 1.0},
                                     [1.0])
        src = velocity_source(psi)
        src.domain = Box([0.0, -np.inf], [np.inf, np.inf])
        starts = np.array([[0.33, 0.1], [1.0, -0.4], [2.71, 0.0], [0.05, 2.0]])
        ens = Ensemble(configs=starts, seed=0)
        final, status = integrate_ensemble(ens, src, 5.0,
                                           IntegrationControls(dt=0.07))
        assert list(status) == ["exited"] * 4
        assert np.all(final[:, 0] == 0.0)
        np.testing.assert_allclose(final[:, 1],
                                   starts[:, 1] + 0.3 * starts[:, 0],
                                   rtol=0, atol=1e-14)
        for stride in (1, 4):
            rec_final, rec_status, (_, track) = integrate_ensemble(
                ens, src, 5.0, IntegrationControls(dt=0.07, record_every=stride),
                record=True)
            np.testing.assert_array_equal(rec_final, final)
            np.testing.assert_array_equal(track[-1], final)
            assert list(rec_status) == list(status)

    def test_box_first_face_crossed_wins(self):
        box = Box([0.0, 0.0], [1.0, 1.0])
        inside = np.array([[0.8, 0.5], [0.5, 0.8], [0.1, 0.5]])
        outside = np.array([[1.6, 1.5], [1.5, 1.6], [-0.3, 1.5]])
        assert np.all(box.contains(inside)) and not np.any(box.contains(outside))
        out = box.land(inside, outside)
        # x face at a quarter of the step, y face at half of it (and
        # the other way round for the second segment)
        np.testing.assert_allclose(out, [[1.0, 0.75], [0.75, 1.0], [0.0, 0.75]],
                                   rtol=0, atol=1e-15)
        assert out[0, 0] == 1.0 and out[1, 1] == 1.0 and out[2, 0] == 0.0
        assert np.all(box.contains(out))

    @pytest.mark.parametrize("dt", [0.05, 0.01])
    def test_grid_exit_lands_on_the_face(self, dt):
        """The last RK4 stage of the step that leaves the grid probes
        outside it (NaN there): the member lands on the face on that
        probe's chord, x = 2 exactly, not one step short of it."""
        grid = Grid([(-2.0, 2.0)], [128])
        x = grid.axes[0]
        vals = np.exp(-x**2 / 2 + 2.0j * x)       # strong rightward drift
        snaps = [GridWaveFunction(grid, vals, [1.0], time=0.0).normalized(),
                 GridWaveFunction(grid, vals, [1.0], time=10.0).normalized()]
        rec = integrate_trajectory(
            BeableConfig(positions=np.array([[1.8]])), velocity_source(snaps),
            5.0, IntegrationControls(dt=dt))
        assert rec.status == "exited"
        assert rec.configs[-1, 0] == 2.0

    def test_first_stage_probe_outside_wins(self):
        """v = 1 except on a hole (0.52, 0.6) and outside the box: from
        x = 0.5 with dt = 0.1 the k2 probe (0.55) is NaN.  With the box
        ending at 0.54 that probe is outside and the member lands on the
        face; with the box ending at 10 it is a NaN inside the domain and
        the member stops where it was."""
        class Holed:
            def __init__(self, hi):
                self.domain = Box([-10.0], [hi])

            def velocity(self, configs, t):
                x = configs[:, 0]
                bad = ((x > 0.52) & (x < 0.6)) | ~self.domain.contains(configs)
                return np.where(bad, np.nan, 1.0)[:, None]

        start = Ensemble(configs=np.array([[0.5]]), seed=0)
        for hi, end in ((0.54, 0.54), (10.0, 0.5)):
            final, status = integrate_ensemble(start, Holed(hi), 1.0,
                                               IntegrationControls(dt=0.1))
            assert list(status) == ["exited"]
            assert final[0, 0] == end

    def test_threaded_recording_bit_identical(self, monkeypatch):
        """Recording runs through the same chunked path for any
        PILOTWAVE_THREADS, with the same result."""
        src = ParametricVelocity(correlated_pair())
        ens = Ensemble(configs=np.random.default_rng(1).normal(size=(65, 2)),
                       seed=1)
        runs = []
        for threads in (1, 2):
            monkeypatch.setenv("PILOTWAVE_THREADS", str(threads))
            runs.append(integrate_ensemble(
                ens, src, 1.0, IntegrationControls(dt=0.02, record_every=3),
                record=True))
        (f1, s1, (t1, tr1)), (f2, s2, (t2, tr2)) = runs
        np.testing.assert_array_equal(f1, f2)
        assert list(s1) == list(s2)
        np.testing.assert_array_equal(t1, t2)
        np.testing.assert_array_equal(tr1, tr2)
        assert tr1.shape == (len(t1), 65, 2)


class TestSnapshotVelocity:
    @staticmethod
    def snapshots():
        grid = Grid([(-6.0, 6.0), (-6.0, 6.0)], [64, 64])
        psi = GridWaveFunction.sample(
            ParametricWaveFunction(
                "gaussian_packet",
                {"center": [0.3, -0.2], "sigma": [0.8, 1.1], "k0": [0.9, -0.5],
                 "m": 1.0}, [1.0]), grid)
        return propagate_to(psi, Propagator("split-step", 0.05), 0.6,
                            snapshot_times=[0.0, 0.2, 0.4, 0.6])

    POINTS = np.array([[0.1, 0.2], [-1.0, 0.7], [1.3, -1.1], [0.0, -0.4]])

    def test_generator_equals_list(self):
        snaps = self.snapshots()
        from_list = SnapshotVelocity(snaps)
        from_gen = SnapshotVelocity(s for s in snaps)
        for t in (0.0, 0.13, 0.4, 0.55, 0.7):
            np.testing.assert_array_equal(from_gen.velocity(self.POINTS, t),
                                          from_list.velocity(self.POINTS, t))

    def test_blend_matches_blend_then_interpolate(self):
        """Interpolating each snapshot at the points and blending in time
        equals blending the whole grids first, then interpolating."""
        snaps = self.snapshots()
        src = SnapshotVelocity(snaps)
        grid = snaps[0].grid
        t, lo, hi = 0.27, snaps[1], snaps[2]
        w = (t - lo.time) / (hi.time - lo.time)
        rho = (1 - w) * lo.density_nodes() + w * hi.density_nodes()
        j = ((1 - w) * grid_current_nodes(lo, SpinSpec(0))
             + w * grid_current_nodes(hi, SpinSpec(0)))
        ref = (grid.interpolate(j, self.POINTS)
               / grid.interpolate(rho, self.POINTS)).T
        np.testing.assert_allclose(src.velocity(self.POINTS, t), ref,
                                   rtol=1e-13, atol=0)


class TestEquivariance:
    def test_free_gaussian_passes(self):
        sigma = 0.8
        psi = gaussian(sigma=sigma, k0=0.4)
        spread_time = 2 * 1.0 * sigma**2          # t at which width doubles-ish
        rep = equivariance_check(psi, Propagator("analytic", 0.05), 10_000,
                                 2 * spread_time, seed=5,
                                 box=[(-10.0, 10.0)])
        assert rep["pass"], rep

    def test_t0_trivially_passes(self):
        psi = gaussian()
        rep = equivariance_check(psi, Propagator("analytic", 0.05), 2000, 0.0,
                                 seed=6, box=[(-6.0, 6.0)])
        assert rep["pass"]

    def test_corrupted_velocities_fail(self):
        """Doubling j breaks equivariance (negative control)."""
        psi = gaussian(sigma=0.8)
        rep = equivariance_check(psi, Propagator("analytic", 0.05), 4000,
                                 1.5, seed=8, box=[(-9.0, 9.0)],
                                 velocity_scale=2.0)
        assert not rep["pass"]


class TestArrivalTimes:
    def test_narrow_drifting_packet_mean(self):
        """Packet at -x0 drifting at hbar k0 / m: mean arrival ~ x0 m / k0,
        within 2% against a 10x denser quadrature oracle."""
        x0, k0, sigma, m = 10.0, 10.0, 1.0, 1.0
        psi = ParametricWaveFunction(
            "gaussian_packet",
            {"center": [-x0, 0.0, 0.0], "sigma": [sigma, sigma, sigma],
             "k0": [k0, 0.0, 0.0], "m": m}, [m])
        det = [0.0, 0.0, 0.0]
        window = np.linspace(0.0, 3 * x0 * m / k0, 200)
        out = arrival_time_stats(psi, det, SpinSpec(0), times=window)
        assert abs(out["mean"] - x0 * m / k0) / (x0 * m / k0) < 0.02
        dense = arrival_time_stats(psi, det, SpinSpec(0),
                                   times=np.linspace(0.0, 3 * x0 * m / k0, 2000))
        assert abs(out["mean"] - dense["mean"]) / dense["mean"] < 0.02

    def test_no_flux_flagged(self):
        psi = gaussian(sigma=0.5)      # symmetric, zero drift at the peak
        with pytest.raises(NoFluxError):
            arrival_time_stats(psi, [0.0], SpinSpec(0),
                               times=np.linspace(0, 1.0, 50))

    def test_spin_term_shifts_mean_arrival(self):
        """g = 0 vs g = 1/2 must differ well beyond quadrature error for a
        spin eigenstate with spin normal to the motion."""
        x0, k0, sigma, m = 10.0, 10.0, 1.0, 1.0
        chi = [1.0, 0.0]               # s along +z
        psi = ParametricWaveFunction(
            "spinor_product",
            {"scalar": "gaussian_packet",
             "scalar_params": {"center": [-x0, 0.0, 0.0],
                               "sigma": [sigma, sigma, sigma],
                               "k0": [k0, 0.0, 0.0], "m": m},
             "chi": chi}, [m])
        det = [0.0, sigma, 0.0]        # off axis so the curl term bites
        times = np.linspace(0.0, 3 * x0 * m / k0, 400)
        means = {}
        errs = {}
        for g in (0.0, 0.5):
            spin = SpinSpec(0.5, g=g)
            out = arrival_time_stats(psi, det, spin, times=times)
            dense = arrival_time_stats(
                psi, det, spin, times=np.linspace(0.0, 3 * x0 * m / k0, 4000))
            means[g] = out["mean"]
            errs[g] = abs(out["mean"] - dense["mean"])
        quadrature_error = max(errs.values())
        assert abs(means[0.0] - means[0.5]) > 10 * max(quadrature_error, 1e-12)


class TestMeasurementBranching:
    def test_equal_weights(self):
        out = measurement_branching([1.0, 1.0], [-1.5, 1.5], n=10_000, seed=11)
        np.testing.assert_allclose(out["fractions"], 0.5, atol=0.02)

    def test_born_weights_within_3_sigma(self):
        c1 = np.sqrt(0.8)
        c2 = np.sqrt(0.2)
        n = 10_000
        out = measurement_branching([c1, c2], [-1.5, 1.5], n=n, seed=12)
        sigma = np.sqrt(0.8 * 0.2 / n)
        assert abs(out["fractions"][0] - 0.8) < 3 * sigma

    def test_single_channel_is_certain(self):
        out = measurement_branching([1.0], [0.0], n=500, seed=13)
        assert out["fractions"][0] == 1.0

    def test_read_out_at_impulse_end(self):
        """With no free flight the beables are read out as the impulse
        ends, and every member is carried through it."""
        out = measurement_branching([1.0, 1.0], [-1.5, 1.5], n=500, seed=14,
                                    impulse_time=0.25, free_flight=0.0)
        assert out["readout_time"] == 0.25
        assert list(out["statuses"]) == ["ok"] * 500


class TestKsMachinery:
    def test_ks_statistic_against_uniform(self):
        rng = np.random.default_rng(0)
        x = rng.random(2000)
        grid_x = np.linspace(0, 1, 1001)
        ks = ks_statistic(x, grid_x, grid_x)
        assert ks < KS_CRITICAL_1PCT / np.sqrt(2000)

    def test_marginal_quadrature_matches_gaussian(self):
        psi = gaussian(sigma=0.9)
        x, cdf = marginal_cdf_by_quadrature(psi, 0, [(-8, 8)])
        from math import erf
        exact = 0.5 * (1 + np.array([erf(v / (0.9 * np.sqrt(2))) for v in x]))
        assert np.max(np.abs(cdf - exact)) < 1e-6
