"""Sampling, trajectories, equivariance, arrival times, branching."""

import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pilotwave import guide
from pilotwave.currents import (EmPotential, SpinSpec, configuration_velocity,
                                grid_current_nodes)
from pilotwave.errors import (ConfigurationError, NoFluxError,
                              NotSeparatedError, SamplerFailureError,
                              ShapeError, StabilityError)
from pilotwave.evolve import Propagator, propagate_to
from pilotwave import families
from pilotwave.grid import Grid
from pilotwave.decay import DecayPairSpec, pair_trajectories
from pilotwave.guide import (STATUS_EXITED, STATUS_NODE, STATUS_OK,
                             BeableConfig, Box, Ensemble, IntegrationControls,
                             KS_CRITICAL_1PCT, ParametricVelocity,
                             SnapshotVelocity,
                             arrival_time_stats, equivariance_check,
                             integrate_ensemble, integrate_trajectory,
                             ks_statistic, marginal_cdf_by_quadrature,
                             measurement_branching, sample_equilibrium,
                             thread_count)
from pilotwave.wavefunction import GridWaveFunction, ParametricWaveFunction
import strategies as rs
from test_wavefunction import FAMILY_PARAMS


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

    def test_unknown_envelope_named(self):
        """A misspelt envelope raises instead of meaning "auto"."""
        with pytest.raises(ConfigurationError, match="'unifrom'"):
            sample_equilibrium(gaussian(), 10, seed=3, box=[(-5, 5)],
                               envelope="unifrom")


class TestTrajectories:
    def test_plane_wave_drifts_linearly(self):
        psi = ParametricWaveFunction("plane_wave", {"k": [1.5], "m": 1.0}, [1.0])
        src = ParametricVelocity(psi)
        rec = integrate_trajectory(
            BeableConfig(positions=np.array([[0.0]])), src, 2.0,
            IntegrationControls(dt=0.01))
        assert rec.status == "ok"
        np.testing.assert_allclose(rec.configs[-1, 0], 1.5 * 2.0, atol=1e-10)

    def test_real_ground_state_is_static(self):
        psi = gaussian(sigma=1.2)     # real at t=0 but spreads; use t~0 window
        src = ParametricVelocity(psi)
        rec = integrate_trajectory(
            BeableConfig(positions=np.array([[0.4]])), src, 1e-6,
            IntegrationControls(dt=1e-7))
        np.testing.assert_allclose(rec.configs[-1, 0], 0.4, atol=1e-9)

    def test_gaussian_trajectory_matches_closed_form(self):
        """Free Gaussian: x(t) = xc(t) + (x0 - xc(0)) sigma_t / sigma_0."""
        sigma, m, k0 = 0.8, 1.0, 0.5
        psi = gaussian(sigma=sigma, k0=k0, m=m)
        src = ParametricVelocity(psi)
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
            Ensemble(configs=starts[:, None], seed=0), ParametricVelocity(psi),
            t, IntegrationControls(dt=2e-3))
        assert list(status) == ["ok"] * 3
        st = sigma * np.sqrt(1 + (t / (2 * m * sigma**2)) ** 2)
        np.testing.assert_allclose(final[:, 0], k0 * t / m + starts * st / sigma,
                                   rtol=1e-7)

    def test_far_tail_members_follow_closed_form(self):
        """At 40-54 sigma |psi|^2 underflows to 0, at 54 sigma psi is
        subnormal and at 200 sigma it is 0, while grad log psi is a closed
        form: every member stays on the closed-form trajectory."""
        sigma, m, k0 = 0.8, 1.0, 0.5
        psi = gaussian(sigma=sigma, k0=k0, m=m)
        starts = np.array([40.0, 45.0, 50.0, 54.0, 200.0]) * sigma
        assert np.all(psi.density(starts[:, None]) == 0)
        assert psi.evaluate(starts[-1:, None])[0, 0] == 0
        t = 0.5
        final, status = integrate_ensemble(
            Ensemble(configs=starts[:, None], seed=0), ParametricVelocity(psi),
            t, IntegrationControls(dt=2e-3))
        assert list(status) == ["ok"] * 5
        st = sigma * np.sqrt(1 + (t / (2 * m * sigma**2)) ** 2)
        np.testing.assert_allclose(
            final[:, 0], k0 * t / m + starts * st / sigma, rtol=1e-13)

    def test_far_tail_spinor_members_follow_closed_form(self):
        """The spin-1/2 version, psi = phi chi: rho underflows to 0 from
        40 sigma and psi is subnormal at 54 sigma, yet every member ends
        ok on the scalar closed form (in one dimension the spin term has
        no x component).  The 54-sigma member keeps the digits of its
        subnormal psi, so the bound is 1e-7."""
        sigma, m, k0, t = 0.8, 1.0, 0.5, 0.5
        psi = ParametricWaveFunction("spinor_product", {
            "scalar": "gaussian_packet", "chi": [0.6, 0.8j],
            "scalar_params": {"center": [0.0], "sigma": sigma, "k0": [k0],
                              "m": m}}, [m])
        starts = np.array([0.0, 20.0, 45.0, 54.0]) * sigma
        assert np.all(psi.density(starts[2:, None]) == 0)
        final, status = integrate_ensemble(
            Ensemble(configs=starts[:, None], seed=0),
            ParametricVelocity(psi, spin=SpinSpec(0.5)), t,
            IntegrationControls(dt=2e-3))
        assert list(status) == ["ok"] * 4
        st = sigma * np.sqrt(1 + (t / (2 * m * sigma**2)) ** 2)
        np.testing.assert_allclose(final[:, 0], k0 * t / m + starts * st / sigma,
                                   rtol=1e-7)

    def test_far_tail_spinor_velocity_is_the_closed_form(self):
        """psi = phi chi moves with v = (hbar/m) Im grad log phi
        + (g/2m) 2 Re grad log phi x s, s = chi^dag S chi / |chi|^2
        (Holland 1993, ch. 9), to 1e-12 of |v| at 0, 20, 45 and 54 sigma
        at t = 0.5, where rho underflows from 40 sigma."""
        sigma, m, t = 0.8, 1.0, 0.5
        scalar = {"center": [0.0, 0.1, -0.2], "sigma": sigma,
                  "k0": [0.5, 0.2, 0.0], "m": m}
        chi = np.array([0.6, 0.8j])
        spin = SpinSpec(0.5)
        psi = ParametricWaveFunction("spinor_product", {
            "scalar": "gaussian_packet", "scalar_params": scalar,
            "chi": chi}, [m])
        x = np.array([[f * sigma, 0.3, -0.4] for f in (0.0, 20.0, 45.0, 54.0)])
        assert np.all(psi.density(x[2:], t) == 0)
        dlog = families.build("gaussian_packet", scalar).log_gradient(x, t).T
        s = np.real(np.einsum("a,kab,b->k", chi.conj(), spin.generators, chi)
                    / np.vdot(chi, chi))
        expected = (np.imag(dlog) + spin.g * np.cross(np.real(dlog), s)) / m
        v = ParametricVelocity(psi, spin=spin).velocity(x, t)
        assert np.all(np.abs(v - expected).max(axis=1)
                      <= 1e-12 * np.abs(expected).max(axis=1))

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
            src = ParametricVelocity(psi, spin=SpinSpec(0.5))
        else:
            psi = ParametricWaveFunction("superposition", params, [m])
            src = ParametricVelocity(psi)
        starts = np.array([[0.0], [1e-7], [np.pi / (2 * k)]])
        _, status = integrate_ensemble(
            Ensemble(configs=starts, seed=0), src, 1.0,
            IntegrationControls(dt=0.01))
        assert list(status) == ["node_encounter", "node_encounter", "ok"]

    @pytest.mark.parametrize("t_final, dt, error", [
        (0.0, 0.01, ShapeError), (2.0, 0.01, ShapeError),
        (3.0, 0.0, StabilityError), (3.0, -0.01, StabilityError)])
    def test_runs_only_go_forward(self, t_final, dt, error):
        """A run from t = 2 that would not go forward raises, for both
        entry points, rather than take one RK4 step of the whole span or
        divide by a zero step."""
        src = ParametricVelocity(gaussian(sigma=0.5))
        for run, start in (
                (integrate_trajectory,
                 BeableConfig(positions=np.array([[0.25]]), t=2.0)),
                (integrate_ensemble,
                 Ensemble(configs=np.array([[0.25]]), seed=0, t=2.0))):
            with pytest.raises(error):
                run(start, src, t_final, IntegrationControls(dt=dt))

    @pytest.mark.parametrize("value", ["two", "2.5", "0", "-3"])
    def test_bad_thread_count_named(self, value, monkeypatch):
        monkeypatch.setenv("PILOTWAVE_THREADS", value)
        with pytest.raises(ConfigurationError, match=re.escape(repr(value))):
            thread_count()

    def test_unset_thread_count_is_one(self, monkeypatch):
        monkeypatch.delenv("PILOTWAVE_THREADS", raising=False)
        assert thread_count() == 1

    def test_exit_status_on_grid_source(self):
        grid = Grid([(-2.0, 2.0)], [128])
        x = grid.axes[0]
        vals = np.exp(-x**2 / 2 + 2.0j * x)       # strong rightward drift
        snaps = [GridWaveFunction(grid, vals, [1.0], time=0.0).normalized(),
                 GridWaveFunction(grid, vals, [1.0], time=10.0).normalized()]
        src = SnapshotVelocity(snaps)
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
        src = ParametricVelocity(psi)
        start = BeableConfig(positions=np.array([[0.3], [-0.1]]))
        rec = integrate_trajectory(start, src, 5.0, IntegrationControls(dt=5e-3))
        com = m1 * rec.configs[:, 0] + m2 * rec.configs[:, 1]
        scale = np.max(np.abs(rec.configs))
        assert np.max(np.abs(com - com[0])) < 1e-8 * scale

    def test_no_crossing_1d(self):
        """Sorted order of 1-D trajectories is preserved at every step."""
        psi = gaussian(sigma=0.6, k0=0.3)
        src = ParametricVelocity(psi)
        starts = np.linspace(-1.5, 1.5, 41)[:, None]
        ens = Ensemble(configs=starts, seed=0)
        final, status, (times, track) = integrate_ensemble(
            ens, src, 2.0, IntegrationControls(dt=5e-3), record=True)
        for snap in track:
            assert np.all(np.diff(snap[:, 0]) > 0)

    def test_velocity_evaluates_the_state_once(self, monkeypatch):
        """One velocity call on a single closed-form term makes one
        phase-gradient pass and never evaluates psi or its complex
        log-derivative."""
        for psi in (correlated_pair(), gaussian()):
            fam = psi._fam
            calls = {"phase_gradient": 0, "log_gradient": 0, "value": 0,
                     "value_gradient_moduli": 0, "_gauss_1d": 0}

            def counted(name, fn):
                def wrapper(*args, **kwargs):
                    calls[name] += 1
                    return fn(*args, **kwargs)
                return wrapper

            with monkeypatch.context() as mp:
                for name in ("phase_gradient", "log_gradient", "value",
                             "value_gradient_moduli"):
                    mp.setattr(fam, name, counted(name, getattr(fam, name)))
                mp.setattr(families, "_gauss_1d",
                           counted("_gauss_1d", families._gauss_1d))
                pts = np.random.default_rng(0).normal(size=(16, psi.config_dim))
                v = ParametricVelocity(psi).velocity(pts, 0.4)
            assert np.all(np.isfinite(v))
            assert calls == {"phase_gradient": 1, "log_gradient": 0,
                             "value": 0, "value_gradient_moduli": 0,
                             "_gauss_1d": 0}, psi.family

    def test_superposition_evaluates_each_leaf_once(self, monkeypatch):
        """The node floor's term moduli come from the pass that evaluates
        the terms: a two-term superposition evaluates each leaf once."""
        calls = []
        psi = ParametricWaveFunction(
            "superposition",
            {"components": [(1.0, "plane_wave", {"k": [1.0], "m": 1.0}),
                            (0.5j, "plane_wave", {"k": [-2.0], "m": 1.0})]},
            [1.0])
        for _, leaf in psi._fam.components:
            def counted(*args, value=leaf.value, **kwargs):
                calls.append(1)
                return value(*args, **kwargs)

            monkeypatch.setattr(leaf, "value", counted)
        pts = np.random.default_rng(0).normal(size=(16, 1))
        v = ParametricVelocity(psi).velocity(pts, 0.4)
        assert np.all(np.isfinite(v))
        assert len(calls) == 2

    def test_threads_bit_identical(self, monkeypatch):
        """PILOTWAVE_THREADS changes the schedule, never the result."""
        monkeypatch.setattr(guide, "MIN_CHUNK", 4)
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
            SnapshotVelocity(snaps), 5.0,
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
        src = ParametricVelocity(psi)
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

    @given(data=st.data())
    def test_box_contains_equals_the_broadcast_mask(self, data):
        """Column by column, with infinite bounds left out, the mask is
        the broadcast all(lo <= x <= hi) over each row, also for rows
        with NaN or +-inf and for x on a bound."""
        d = data.draw(st.integers(1, 4))
        bound = st.one_of(st.floats(-2.0, 2.0),
                          st.sampled_from([-np.inf, np.inf]))
        lo, hi = (data.draw(arrays(float, d, elements=bound))
                  for _ in range(2))
        special = st.sampled_from([np.nan, np.inf, -np.inf,
                                   *lo.tolist(), *hi.tolist()])
        configs = data.draw(arrays(
            float, (data.draw(st.integers(1, 12)), d),
            elements=st.one_of(st.floats(-3.0, 3.0), special)))
        np.testing.assert_array_equal(
            Box(lo, hi).contains(configs),
            np.all((configs >= lo) & (configs <= hi), axis=1))

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
            BeableConfig(positions=np.array([[1.8]])), SnapshotVelocity(snaps),
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
        monkeypatch.setattr(guide, "MIN_CHUNK", 4)
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

    @given(st.data())
    def test_threads_bit_identical_over_random_ensembles(self, data):
        """PILOTWAVE_THREADS 1 and 2 give array_equal final positions,
        statuses, times and tracks: random Gaussian states (one term or a
        two-term sum), 8-80 members, recording on or off at a random
        stride, inside a box whose faces some members reach."""
        d = data.draw(st.integers(1, 2))
        n = data.draw(st.integers(8, 80))
        m = data.draw(st.floats(0.5, 2.0))
        terms = [(data.draw(st.floats(0.5, 1.5)), "gaussian_packet",
                  {"center": data.draw(arrays(float, d,
                                              elements=st.floats(-1, 1))),
                   "sigma": data.draw(st.floats(0.4, 1.5)),
                   "k0": data.draw(arrays(float, d,
                                          elements=st.floats(-3, 3))),
                   "m": m})
                 for _ in range(data.draw(st.integers(1, 2)))]
        psi = (ParametricWaveFunction(terms[0][1], terms[0][2], [m])
               if len(terms) == 1 else
               ParametricWaveFunction("superposition", {"components": terms},
                                      [m]))
        src = ParametricVelocity(psi)
        src.domain = Box([-1.5] * d, [1.5] * d)
        seed = data.draw(st.integers(0, 2**32 - 1))
        ens = Ensemble(configs=np.random.default_rng(seed).uniform(
            -1.4, 1.4, size=(n, d)), seed=seed)
        record = data.draw(st.booleans())
        controls = IntegrationControls(dt=0.1,
                                       record_every=data.draw(st.integers(1, 4)))
        runs = []
        for threads in (1, 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(guide, "MIN_CHUNK", 4)
                mp.setenv("PILOTWAVE_THREADS", str(threads))
                runs.append(integrate_ensemble(ens, src, 1.0, controls,
                                               record=record))
        one, two = runs
        np.testing.assert_array_equal(one[0], two[0])
        assert list(one[1]) == list(two[1])
        if record:
            np.testing.assert_array_equal(one[2][0], two[2][0])
            np.testing.assert_array_equal(one[2][1], two[2][1])


class _NanPastXFaces:
    """A two-packet standing wave in the box [-1.5, 1.5]^2 whose velocity
    is NaN beyond the x faces (as on a grid) and finite beyond the y
    faces; notes whether it was probed beyond the x faces."""

    K = 3.0

    def __init__(self):
        packets = [(1.0, "gaussian_packet",
                    {"center": [0.0, 0.0], "sigma": 0.5,
                     "k0": [sign * self.K, 1.0], "m": 1.0})
                   for sign in (1, -1)]
        self.inner = ParametricVelocity(ParametricWaveFunction(
            "superposition", {"components": packets}, [1.0]))
        self.domain = Box([-1.5, -1.5], [1.5, 1.5])
        self.probed_outside = False

    def velocity(self, configs, t):
        v = self.inner.velocity(configs, t)
        beyond = np.abs(configs[:, 0]) > 1.5
        self.probed_outside |= bool(beyond.any())
        v[beyond] = np.nan
        return v


class TestMemberIndependence:
    def test_batch_equals_each_member_alone(self):
        """A recorded batch gives, member by member, exactly what each
        member gives alone: final position, status, times and track
        column.  The batch holds members that start on a node of
        cos(K x), members whose full step leaves the box (y faces) and
        members whose stage probe leaves it (x faces).  The same holds
        for the split-step snapshots of that wave on the box, and for
        those snapshots with the pointer drift of `measurement_branching`
        (a(x) = 0 for x < 0, 1 beyond) added."""
        src = _NanPastXFaces()
        starts = np.random.default_rng(0).uniform(-1.4, 1.4, size=(100, 2))
        starts[:8, 0] = np.pi / (2 * src.K) * np.array([1, -1, 3, -3] * 2)
        controls = IntegrationControls(dt=0.05, record_every=3)
        grid = Grid([(-1.5, 1.5), (-1.5, 1.5)], [32, 32])
        snaps = SnapshotVelocity(propagate_to(
            GridWaveFunction.sample(src.inner.psi, grid),
            Propagator("split-step", 0.05), 0.6, snapshot_times=[0.0, 0.3]))
        drift = guide._PointerDrift(snaps, np.array([-1.0, 1.0]), 2.0)
        kinds, grid_kinds = Counter(), Counter()
        for source in (src, snaps, drift):
            final, status, (times, track) = integrate_ensemble(
                Ensemble(configs=starts, seed=0), source, 0.6, controls,
                record=True)
            for i, start in enumerate(starts):
                src.probed_outside = False
                f1, s1, (t1, tr1) = integrate_ensemble(
                    Ensemble(configs=start[None], seed=0), source, 0.6,
                    controls, record=True)
                np.testing.assert_array_equal(f1[0], final[i])
                assert s1[0] == status[i]
                np.testing.assert_array_equal(t1, times)
                np.testing.assert_array_equal(tr1[:, 0], track[:, i])
                if source is src:
                    kinds[s1[0] if s1[0] != STATUS_EXITED
                          else "probe" if src.probed_outside else "step"] += 1
                else:
                    grid_kinds[s1[0]] += 1
        assert kinds[STATUS_NODE] == 8
        assert kinds["probe"] > 0 and kinds["step"] > 0 and kinds["ok"] > 0
        assert grid_kinds[STATUS_EXITED] > 0 and grid_kinds["ok"] > 0

    @pytest.mark.parametrize("name", sorted(FAMILY_PARAMS))
    def test_family_velocity_is_member_independent(self, name):
        """The velocity of every family at each of 300 points alone equals
        its row in the batch."""
        params = FAMILY_PARAMS[name]
        masses = families.build(name, params).masses or [1.3]
        psi = ParametricWaveFunction(name, params, masses)
        src = ParametricVelocity(
            psi, spin=SpinSpec(0.5) if psi.spin_dim == 2 else None)
        x = np.random.default_rng(2).uniform(-2.0, 2.0, size=(300, 2))
        for t in (0.0, 0.4):
            alone = np.concatenate([src.velocity(p[None], t) for p in x])
            np.testing.assert_array_equal(alone, src.velocity(x, t))

    def test_lone_point_velocity_matches_the_batch(self):
        """The velocity of a 1-D sum at one point alone equals its row in
        a batch: numpy rounds a (1, 1) by (1,) complex product without
        the fused multiply-add it uses for every other shape."""
        psi = ParametricWaveFunction("superposition", {"components": [
            (1.25, "gaussian_packet",
             {"center": [0.5], "sigma": 0.4, "k0": [1.0], "m": 0.75}),
            (0.5, "gaussian_packet",
             {"center": [0.0], "sigma": 0.5, "k0": [0.0], "m": 0.75})]},
            [0.75])
        src = ParametricVelocity(psi)
        x = np.random.default_rng(1).uniform(-1.5, 1.5, size=(200, 1))
        alone = np.concatenate([src.velocity(p[None], 0.4) for p in x])
        np.testing.assert_array_equal(alone, src.velocity(x, 0.4))

    def test_pair_makes_four_velocity_calls_per_step(self, monkeypatch):
        """pair_trajectories: 2,000 RK4 steps, 4 velocity calls each."""
        calls = []
        velocity = ParametricVelocity.velocity

        def counted(self, configs, t):
            calls.append(len(configs))
            return velocity(self, configs, t)

        monkeypatch.setattr(ParametricVelocity, "velocity", counted)
        spec = DecayPairSpec(alpha=0.8, m1=1.0, m2=1.0)
        out = pair_trajectories(spec, [0.4, 0.1, 0.0], [-0.2, -0.3, 0.0],
                                np.array([0.0, 20.0 * spec.mu * spec.alpha]))
        assert out["record"].status == STATUS_OK
        assert len(out["record"].times) == 2001
        assert calls == [1] * 8000


def _reference_single_term_velocity(psi, at, t):
    """`configuration_velocity` of a single closed-form term with the row
    mask built on every call: the arithmetic the one-test form keeps."""
    at = np.atleast_2d(np.asarray(at, dtype=float))
    v = psi.hbar_m * psi.phase_gradient(at, t)
    bad = ~np.isfinite(v).all(axis=1)
    if bad.any():
        v[bad] = np.nan
    return v


def _reference_rk4_step(xa, source, t, h):
    """`_rk4_step` with the node, moved and domain masks built on every
    step: new positions, node mask, exited mask."""
    half = 0.5 * h
    k1 = source.velocity(xa, t)
    p2 = guide._probe(xa, half, k1)
    k2 = source.velocity(p2, t + half)
    p3 = guide._probe(xa, half, k2)
    k3 = source.velocity(p3, t + half)
    p4 = guide._probe(xa, h, k3)
    k4 = source.velocity(p4, t + h)
    dx = (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    new = xa + dx
    node = ~np.isfinite(k1).all(axis=1)
    moved = np.isfinite(dx).all(axis=1)
    if not moved.all():
        new[~moved] = xa[~moved]
    domain = source.domain
    if domain is None:
        return new, ~moved, np.zeros_like(node)
    left = moved & ~domain.contains(new)
    if left.any():
        new[left] = domain.land(xa[left], new[left])
    stopped = ~moved & ~node
    if stopped.any():
        rows = np.flatnonzero(stopped)
        for p in (p4, p3, p2):
            out = rows[~domain.contains(p[rows])]
            new[out] = domain.land(xa[out], p[out])
    return new, node, stopped | left


# ordinary coordinates, far-tail ones (where psi underflows and the
# closed-form log-derivative may overflow) and non-finite ones
_HOT_COORD = st.one_of(st.floats(-3.0, 3.0), st.floats(-1e308, 1e308),
                       st.sampled_from([np.inf, -np.inf, np.nan, 1e300]))


class TestHotPathReference:
    """The guidance hot path tests finiteness once per single-term
    velocity and once per RK4 step; it must give exactly what the
    reference arithmetic above gives."""

    @given(term=rs.single_term_states(), data=st.data(),
           t=st.floats(0.0, 3.0))
    def test_single_term_velocity_matches_the_reference(self, term, data, t):
        name, params, masses = term
        psi = ParametricWaveFunction(name, params, masses)
        x = data.draw(arrays(float, (data.draw(st.integers(1, 6)),
                                     psi.config_dim), elements=_HOT_COORD))
        with np.errstate(all="ignore"):
            np.testing.assert_array_equal(
                configuration_velocity(psi, x, t),
                _reference_single_term_velocity(psi, x, t))
            for point in x:
                np.testing.assert_array_equal(
                    configuration_velocity(psi, point, t),
                    _reference_single_term_velocity(psi, point, t))

    def test_far_tail_rows_are_nan_only_where_not_finite(self):
        """A batch whose middle row's log-derivative overflows: only that
        row is NaN, as in the reference."""
        psi = gaussian(sigma=0.3, k0=0.5)
        x = np.array([[1.0], [1.7e308], [-2.0]])
        with np.errstate(all="ignore"):
            v = configuration_velocity(psi, x, 0.5)
            ref = _reference_single_term_velocity(psi, x, 0.5)
        np.testing.assert_array_equal(v, ref)
        assert list(np.isnan(v[:, 0])) == [False, True, False]

    @staticmethod
    def _compare_steps(source, starts, t_final, dt):
        """Step `starts` to t_final with both steps, dropping stopped
        members as `_rk4_many` does; (node, exited, steps without a stop
        report, steps with one)."""
        x, t, count = np.array(starts, dtype=float), 0.0, Counter()
        while t < t_final - 1e-12 and len(x):
            new, stops = guide._rk4_step(x, source, t, dt)
            ref, node, exited = _reference_rk4_step(x, source, t, dt)
            np.testing.assert_array_equal(new, ref)
            if stops is None:
                assert not (node.any() or exited.any())
                count["quiet"] += 1
            else:
                np.testing.assert_array_equal(stops[0], node)
                np.testing.assert_array_equal(stops[1], exited)
                count["reported"] += 1
            count["node"] += int(node.sum())
            count["exited"] += int(exited.sum())
            x, t = ref[~(node | exited)], t + dt
        return count

    def test_box_standing_wave_matches_the_reference(self):
        """The standing wave of `test_batch_equals_each_member_alone`:
        members on its nodes, members whose full step or whose stage
        probe leaves the box, and members that stay ok."""
        src = _NanPastXFaces()
        starts = np.random.default_rng(0).uniform(-1.4, 1.4, size=(100, 2))
        starts[:8, 0] = np.pi / (2 * src.K) * np.array([1, -1, 3, -3] * 2)
        count = self._compare_steps(src, starts, 0.6, 0.05)
        assert count["node"] == 8
        assert 0 < count["exited"] < 92
        assert count["quiet"] > 0 and count["reported"] > 0

    def test_mixed_batch_step_matches_the_reference(self):
        """One step of v = (1, 0.3) in the box x <= 1 with a node at
        x = 0.25 and a hole (0.95, 0.99): a member on the node, one whose
        k2 probe falls in the hole and whose k4 probe (from the zeroed k2)
        leaves the box, one whose k2 probe leaves it, and an ok member.
        Plain probes would carry the hole's NaN into k3 and k4, so the
        step forms its stages again; positions and masks equal the
        reference's, with no RuntimeWarning."""
        class Holed:
            domain = Box([-10.0, -10.0], [1.0, 10.0])

            def velocity(self, configs, t):
                x = configs[:, 0]
                bad = ((x == 0.25) | ((x > 0.95) & (x < 0.99))
                       | ~self.domain.contains(configs))
                return np.where(bad[:, None], np.nan, [[1.0, 0.3]])

        xa = np.array([[0.25, 0.0], [0.92, 0.0], [0.992, 0.0], [0.0, 0.0]])
        new, (node, exited) = guide._rk4_step(xa, Holed(), 0.0, 0.1)
        ref, ref_node, ref_exited = _reference_rk4_step(xa, Holed(), 0.0, 0.1)
        np.testing.assert_array_equal(new, ref)
        np.testing.assert_array_equal(node, ref_node)
        np.testing.assert_array_equal(exited, ref_exited)
        assert list(node) == [True, False, False, False]
        assert list(exited) == [False, True, True, False]
        assert np.all(np.isfinite(new))
        np.testing.assert_array_equal(new[:, 0], [0.25, 1.0, 1.0, 0.1])

    @pytest.mark.parametrize("domain", [None, Box([-3.0, -3.0], [1.5, 3.0])])
    def test_finite_batch_matches_the_reference(self, domain):
        """Every stage finite: with no domain no step reports a stop; in
        a box, members crossing its x = 1.5 face are the only stops."""
        src = ParametricVelocity(ParametricWaveFunction(
            "gaussian_packet", {"center": [0.0, 0.0], "sigma": 0.5,
                                "k0": [3.0, 0.0], "m": 1.0}, [1.0]))
        src.domain = domain
        starts = np.random.default_rng(3).normal(scale=0.5, size=(200, 2))
        count = self._compare_steps(src, starts, 0.6, 0.05)
        assert count["node"] == 0
        if domain is None:
            assert count["reported"] == 0 and count["exited"] == 0
        else:
            assert count["exited"] > 0 and count["quiet"] > 0


class TestEmGuidance:
    """A vector potential enters the scalar guidance as -(e/mc) A."""

    STATE = ParametricWaveFunction(
        "gaussian_packet", {"center": [0.0, 0.0], "sigma": 1.0,
                            "k0": [0.5, 0.0], "m": 1.0}, [1.0])
    EM = EmPotential(v=lambda x, t: np.tile([1.0, 0.0, 0.0], (len(x), 1)),
                     charge=1.0)
    POINTS = np.array([[0.0, 0.0], [0.3, -0.2], [-0.5, 0.4]])

    def test_parametric_matches_snapshot(self):
        grid = Grid([(-6.0, 6.0), (-6.0, 6.0)], [128, 128])
        snap = SnapshotVelocity([GridWaveFunction.sample(self.STATE, grid)],
                                em=self.EM)
        par = ParametricVelocity(self.STATE, em=self.EM)
        v = par.velocity(self.POINTS, 0.0)
        np.testing.assert_allclose(v[:, 0], -0.5, rtol=0, atol=1e-12)
        np.testing.assert_allclose(v, snap.velocity(self.POINTS, 0.0),
                                   rtol=0, atol=1e-4)

    def test_several_particles_rejected(self):
        with pytest.raises(ShapeError):
            ParametricVelocity(correlated_pair(), em=self.EM).velocity(
                np.zeros((2, 2)), 0.0)


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

    @staticmethod
    def where_form(src, configs, t):
        """`SnapshotVelocity.velocity` with a NaN buffer scattered into
        and the floor applied by `where` on every call."""
        inside = src.domain.contains(configs)
        v = np.full_like(np.asarray(configs, dtype=float), np.nan)
        if np.any(inside):
            pts = configs[inside]
            lo, hi, w = src._pair(t)
            corners = src.grid.corners(pts)
            f = src.grid.interpolate(src.fields[lo], pts, corners)
            if w:
                f = (1 - w) * f + w * src.grid.interpolate(
                    src.fields[hi], pts, corners)
            rho_p, j_p = f[0], f[1:]
            vv = np.where(rho_p > src.floor, 1.0, np.nan)[None, :] * j_p \
                / np.where(rho_p > src.floor, rho_p, 1.0)[None, :]
            v[inside] = vv.T
        return v

    def test_velocity_equals_the_where_form(self):
        """Bit for bit, at the snapshot times, between them and past the
        last: members all inside and above the floor, members below the
        floor in the far tail, on the upper faces and nodes, and outside
        the grid or NaN."""
        snaps = self.snapshots()
        src = SnapshotVelocity(snaps)
        grid = snaps[0].grid
        rng = np.random.default_rng(9)
        core = rng.uniform(-2.0, 2.0, size=(200, 2))
        tail = np.array([[5.9, 5.9], [-6.0, 5.5], [6.0, 6.0]])
        nodes = grid.nodes()[::97]
        outside = np.array([[6.5, 0.0], [0.0, -7.0], [np.nan, 0.1],
                            [np.inf, 0.0]])
        floor_hits = src.velocity(tail, 0.3)
        assert np.isnan(floor_hits).all()
        cases = {"core": core, "tail": np.concatenate([core, tail]),
                 "faces and nodes": np.concatenate([core, tail, nodes]),
                 "outside": np.concatenate([core, outside, tail]),
                 "all outside": outside}
        for name, configs in cases.items():
            for t in (0.0, 0.13, 0.2, 0.55, 0.6, 0.7):
                np.testing.assert_array_equal(
                    src.velocity(configs, t), self.where_form(src, configs, t),
                    err_msg=f"{name} at t = {t}")

    def test_parametric_velocity_rejects_grid_states(self):
        """A grid state guides through `SnapshotVelocity` only: scalar or
        spinor, `ParametricVelocity` raises rather than interpolate psi."""
        scalar = self.snapshots()[0]
        spinor = GridWaveFunction.sample(TestSpinorWithoutSpinSpec.SPINOR,
                                         scalar.grid)
        for psi, spin in ((scalar, None), (spinor, SpinSpec(0.5))):
            with pytest.raises(ShapeError, match="grid_current_nodes"):
                ParametricVelocity(psi, spin=spin).velocity(self.POINTS, 0.0)

    def test_list_of_closed_form_states_rejected(self):
        """A list guides as grid snapshots only: a closed-form state in
        it raises rather than guiding with the first state alone."""
        with pytest.raises(ShapeError):
            SnapshotVelocity([gaussian(), gaussian(k0=1.0)])
        with pytest.raises(ShapeError):
            SnapshotVelocity(self.snapshots()[:1] + [gaussian()])


class TestSpinorWithoutSpinSpec:
    """A spinor state guides only with the SpinSpec of its spin."""

    SPINOR = ParametricWaveFunction(
        "spinor_product",
        {"scalar": "gaussian_packet",
         "scalar_params": {"center": [0.0, 0.0], "sigma": 1.0,
                           "k0": [0.5, 0.0], "m": 1.0},
         "chi": [0.6, 0.8j]}, [1.0])

    def grid_state(self):
        return GridWaveFunction.sample(
            self.SPINOR, Grid([(-5.0, 5.0), (-5.0, 5.0)], [32, 32]))

    def test_parametric_velocity(self):
        with pytest.raises(ShapeError):
            ParametricVelocity(self.SPINOR).velocity(np.zeros((2, 2)), 0.0)

    def test_snapshot_velocity(self):
        with pytest.raises(ShapeError):
            SnapshotVelocity([self.grid_state()])


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

    def test_corrupted_velocities_fail(self, monkeypatch):
        """Doubling the velocity breaks equivariance (negative control)."""
        velocity = ParametricVelocity.velocity
        monkeypatch.setattr(ParametricVelocity, "velocity",
                            lambda self, configs, t:
                            2.0 * velocity(self, configs, t))
        psi = gaussian(sigma=0.8)
        rep = equivariance_check(psi, Propagator("analytic", 0.05), 4000,
                                 1.5, seed=8, box=[(-9.0, 9.0)])
        assert not rep["pass"]

    @staticmethod
    def split_step_check():
        """The split-step arm on a 1-D Gaussian sampled on 256 nodes of
        [-12, 12]: n 2000, t_check 4 sigma^2, seed 5."""
        sigma = 0.8
        psi = GridWaveFunction.sample(gaussian(sigma=sigma, k0=0.4), Grid(
            [(-12.0, 12.0)], [256])).normalized()
        return equivariance_check(psi, Propagator("split-step", 0.02), 2000,
                                  4 * sigma**2, seed=5)

    def test_split_step_gaussian_passes(self):
        """Beables on the snapshot velocities of the propagated grid state
        keep to |psi|^2 (KS 0.025, critical value 0.036)."""
        rep = self.split_step_check()
        assert rep["pass"], rep

    def test_corrupted_snapshot_velocities_fail(self, monkeypatch):
        """Doubling the snapshot velocity breaks equivariance (KS 0.48)."""
        velocity = SnapshotVelocity.velocity
        monkeypatch.setattr(SnapshotVelocity, "velocity",
                            lambda self, configs, t:
                            2.0 * velocity(self, configs, t))
        assert not self.split_step_check()["pass"]


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
                                    free_flight=0.0)
        assert out["readout_time"] == 0.25
        assert list(out["statuses"]) == ["ok"] * 500

    @pytest.mark.parametrize("centers, free_flight", [
        ((-1.0, 1.0), 0.15), ((-2.0, 0.0, 2.0), 0.15), ((-1.0, 1.0), 0.0)])
    def test_members_follow_the_closed_form(self, centers, free_flight):
        """Each packet keeps to its Voronoi cell i, so a member starting
        at (x0, y0) ends at x = c_i + (x0 - c_i) s_x(t) / s_x(0) and
        y = kappa i min(t, T) + y0 s_y(t) / s_y(0), with
        s(t) = s sqrt(1 + (t / 2 m s^2)^2) per axis.  The largest
        deviations here are 1.2e-2 in y and 6.0e-5 in x, and the channel
        medians of y lie within 2.1e-4; a drift that fades out over the
        first free-flight step, instead of stopping at T, leaves the
        medians 0.086 i high."""
        kappa = 12.0
        out = measurement_branching(np.ones(len(centers)), centers, n=500,
                                    seed=11, coupling=kappa,
                                    free_flight=free_flight,
                                    grid_points=(128, 256))
        c = np.array(centers)
        (x0, y0), (x, y) = out["starts"].T, out["endpoints"].T
        t = out["readout_time"]
        i = np.argmin(np.abs(x0[:, None] - c), axis=1)

        def spread(sigma, m):
            return np.sqrt(1 + (t / (2 * m * sigma**2)) ** 2)

        dx = x - c[i] - (x0 - c[i]) * spread(guide.PACKET_SIGMA,
                                             guide.SYSTEM_MASS)
        dy = (y - kappa * i * min(t, guide.IMPULSE_TIME)
              - y0 * spread(guide.POINTER_SIGMA, guide.POINTER_MASS))
        assert list(out["statuses"]) == ["ok"] * 500
        assert np.max(np.abs(dx)) < 1.5e-4
        assert np.max(np.abs(dy)) < 0.025
        for channel in range(len(c)):
            assert abs(np.median(dy[i == channel])) < 5e-4

    @pytest.mark.parametrize("coupling", [1.0, 4.0])
    def test_unresolved_pointer_windows_raise(self, coupling):
        """At kappa = 1 the windows lie 0.25 apart and 35 % of |Psi|^2
        ends nearer the wrong one; at kappa = 4 (1 apart) 6 % does."""
        with pytest.raises(NotSeparatedError):
            measurement_branching([1.0, 1.0], [-1.5, 1.5], n=200, seed=15,
                                  coupling=coupling)

    @pytest.mark.parametrize("centers", [(-1.5, 1.5), (-2.0, 0.0, 2.0)])
    def test_one_wave_is_propagated(self, centers, monkeypatch):
        """One split step per time step for any number of channels, one
        density per snapshot, and one more per state whose norm is read:
        the unnormalized start, the start and each step's output (a
        state's norm is computed once, so a step reuses the previous
        step's)."""
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(guide, "step", counted("step", guide.step))
        for name in ("density_nodes", "norm"):
            monkeypatch.setattr(GridWaveFunction, name,
                                counted(name, getattr(GridWaveFunction, name)))
        measurement_branching(np.ones(len(centers)), centers, n=50, seed=16,
                              grid_points=(128, 256))
        assert counts["step"] == 36
        assert counts["norm"] == 73
        assert counts["density_nodes"] == 37 + 38

    def test_threads_bit_identical(self, monkeypatch):
        """Members go in chunks per interval; with chunks small enough to
        split, two threads give the endpoints and statuses of one."""
        monkeypatch.setattr(guide, "MIN_CHUNK", 64)
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("PILOTWAVE_THREADS", threads)
            runs.append(measurement_branching(
                [1.0, 1.0], [-1.5, 1.5], n=300, seed=18,
                grid_points=(128, 256)))
        np.testing.assert_array_equal(runs[0]["endpoints"],
                                      runs[1]["endpoints"])
        np.testing.assert_array_equal(runs[0]["statuses"],
                                      runs[1]["statuses"])

    def test_two_snapshots_in_memory(self):
        """One field (density and two current components) of a 128 x 256
        grid is 3 x 128 x 256 float64; holding all 37 snapshots peaked at
        41.9 fields, holding the two that bracket an interval at 8.0."""
        field = 3 * 128 * 256 * 8
        tracemalloc.start()
        try:
            measurement_branching([1.0, 1.0], [-1.5, 1.5], n=300, seed=19,
                                  grid_points=(128, 256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * field

    def test_three_channels_resolve(self):
        n = 2000
        out = measurement_branching([1.0, 1.0, 1.0], [-2.0, 0.0, 2.0], n=n,
                                    seed=17, grid_points=(128, 256))
        sigma = np.sqrt((1 / 3) * (2 / 3) / n)
        assert np.all(np.abs(out["fractions"] - 1 / 3) < 4 * sigma)


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
