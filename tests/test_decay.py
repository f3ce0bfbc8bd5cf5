"""Decaying pair, variance/alignment, energy shell, optical imaging."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pilotwave import decay, guide
from pilotwave.decay import (DecayPairSpec, EnergyShellSpec, LensSpec,
                             MomentumCorrelationSpec, alignment_analysis,
                             energy_shell_density, energy_shell_profile,
                             imaging_trajectories, pair_closed_form,
                             pair_trajectories, pair_wavefunction,
                             variance_evolution)
from pilotwave.errors import ConfigurationError, PhysicsError
from pilotwave.guide import (STATUS_EXITED, Box, Ensemble, IntegrationControls,
                             integrate_ensemble)

EQUAL = DecayPairSpec(alpha=1.0, m1=1.0, m2=1.0)


class TestPairWave:
    def test_peak_at_coincidence(self):
        spec = DecayPairSpec(alpha=0.5, m1=1.0, m2=1.0)
        psi = pair_wavefunction(spec)
        same = abs(psi.evaluate([[0.1, 0, 0, 0.1, 0, 0]])[0, 0]) ** 2
        apart = abs(psi.evaluate([[0.6, 0, 0, 0.1, 0, 0]])[0, 0]) ** 2
        assert same > apart
        # |psi(0)|^2 ~ exp(-(x1-x2)^2 / 2 hbar alpha)
        ratio = apart / same
        np.testing.assert_allclose(ratio, np.exp(-0.25 / (2 * 0.5)), rtol=1e-12)

    def test_envelope_width_grows_linearly(self):
        spec = DecayPairSpec(alpha=0.2, m1=1.0, m2=1.0)
        beta = lambda t: abs(spec.alpha + 0.5j * t / spec.mu)
        assert beta(40.0) / beta(20.0) == pytest.approx(2.0, rel=1e-3)

    def test_total_momentum_annihilated(self):
        spec = DecayPairSpec(alpha=0.7, m1=1.0, m2=2.0)
        psi = pair_wavefunction(spec, t=0.9)
        pts = np.random.default_rng(0).normal(size=(10, 6))
        h = 1e-5
        for axis in range(3):
            e = np.zeros(6)
            e[axis] = h
            e[axis + 3] = h
            fd = (psi.evaluate(pts + e) - psi.evaluate(pts - e)) / (2 * h)
            assert np.max(np.abs(fd)) < 1e-8


class TestPairTrajectories:
    def test_numeric_matches_closed_form(self):
        spec = DecayPairSpec(alpha=0.8, m1=1.0, m2=1.0)
        t_final = 20.0 * spec.mu * spec.alpha
        out = pair_trajectories(spec, [0.4, 0.1, 0.0], [-0.2, -0.3, 0.0],
                                np.array([0.0, t_final]))
        assert out["max_rel_error"] < 1e-6

    def test_unequal_masses(self):
        spec = DecayPairSpec(alpha=0.5, m1=1.0, m2=3.0)
        out = pair_trajectories(spec, [0.3, 0.0, 0.0], [-0.1, 0.2, 0.0],
                                np.array([0.0, 10.0 * spec.mu * spec.alpha]))
        assert out["max_rel_error"] < 1e-6

    def test_opposite_motion_conserved(self):
        spec = DecayPairSpec(alpha=0.6, m1=1.0, m2=2.5)
        out = pair_trajectories(spec, [0.5, 0.0, 0.1], [-0.5, 0.1, -0.1],
                                np.array([0.0, 12.0]))
        traj = out["record"].configs.reshape(-1, 2, 3)
        com = spec.m1 * traj[:, 0] + spec.m2 * traj[:, 1]
        scale = np.max(np.abs(traj))
        assert np.max(np.abs(com - com[0])) < 1e-8 * scale

    def test_coincident_start_is_static(self):
        spec = EQUAL
        out = pair_trajectories(spec, [0.2, 0.1, 0.0], [0.2, 0.1, 0.0],
                                np.array([0.0, 5.0]))
        np.testing.assert_allclose(out["record"].configs[-1],
                                   out["record"].configs[0], atol=1e-12)

    def test_straight_lines(self):
        spec = DecayPairSpec(alpha=0.4, m1=1.0, m2=1.0)
        out = pair_trajectories(spec, [0.3, 0.2, 0.1], [-0.3, -0.2, -0.1],
                                np.array([0.0, 15.0]))
        traj = out["record"].configs.reshape(-1, 2, 3)
        for p in range(2):
            path = traj[:, p]
            chord = path[-1] - path[0]
            u = chord / np.linalg.norm(chord)
            rel = path - path[0]
            perp = rel - (rel @ u)[:, None] * u[None, :]
            assert np.max(np.linalg.norm(perp, axis=1)) < 1e-8 * np.linalg.norm(chord)

    def test_closed_form_symmetry_equal_masses(self):
        """Equal masses from +-eps: c1 = 0 and opposite positions."""
        spec = EQUAL
        x1, x2 = pair_closed_form(spec, [0.3, 0, 0], [-0.3, 0, 0],
                                  np.linspace(0, 5, 11))
        np.testing.assert_allclose(x1, -x2, atol=1e-14)


class TestVarianceEvolution:
    SPEC = MomentumCorrelationSpec(sigma=0.5, alpha=0.8, m1=1.0, m2=1.0)

    def test_t0_is_var0(self):
        out = variance_evolution(self.SPEC, [0.0])
        np.testing.assert_allclose(out["variance"][0], out["var_x0"], rtol=1e-12)

    @pytest.mark.parametrize("sigma, alpha, m1, m2", [
        (0.5, 0.8, 1.0, 1.0), (0.4, 0.3, 1.0, 1.0), (0.4, 0.3, 1.0, 2.0),
        (0.7, 0.5, 1.0, 3.0)])
    def test_var_x0_matches_quadrature(self, sigma, alpha, m1, m2):
        """The closed forms M^2 sigma_x^2 and sigma / 2 against the
        trapezoid rule on 1201^2 nodes over the state the Monte Carlo
        propagates: Var(m1 x1 + m2 x2) under |psi(0)|^2, and Var(p1 + p2)
        from |(d1 + d2) psi|^2 and the mean of -i psi* (d1 + d2) psi."""
        spec = MomentumCorrelationSpec(sigma=sigma, alpha=alpha, m1=m1, m2=m2)
        n = 1201
        lim = 8.0 * spec.sigma_x + 8.0 * np.sqrt(spec.alpha)
        x = np.linspace(-lim, lim, n)
        x1, x2 = np.meshgrid(x, x, indexing="ij")
        pts = np.stack([x1.ravel(), x2.ravel()], axis=-1)
        val, grad, _ = spec.state().value_gradient_moduli(pts, 0.0)
        psi = val[0].reshape(n, n)
        dtot = (grad[0, 0] + grad[0, 1]).reshape(n, n)

        def integral(f):
            return np.trapezoid(np.trapezoid(f, x, axis=1), x)

        rho = np.abs(psi) ** 2
        w = integral(rho)
        q = m1 * x1 + m2 * x2
        mean = integral(rho * q) / w
        var = integral(rho * (q - mean) ** 2) / w
        p_mean = integral(np.real(-1j * psi.conj() * dtot)) / w
        var_p = integral(np.abs(dtot) ** 2) / w - p_mean**2
        out = variance_evolution(spec, [0.0])
        np.testing.assert_allclose(out["var_x0"], var, rtol=1e-12)
        np.testing.assert_allclose(out["var_p"], var_p, rtol=1e-12)

    def test_heisenberg_product_at_bound(self):
        out = variance_evolution(self.SPEC, [0.0])
        bound = out["heisenberg_bound"]
        assert out["heisenberg_product"] >= bound * (1 - 1e-6)
        np.testing.assert_allclose(out["heisenberg_product"], bound, rtol=1e-5)

    def test_monte_carlo_cross_check(self):
        ts = np.array([0.0, 1.5, 3.0])
        out = variance_evolution(self.SPEC, ts, monte_carlo_n=10_000, seed=3)
        for formula, mc in zip(out["variance"], out["monte_carlo"]):
            assert abs(mc - formula) / formula < 0.05

    def test_monte_carlo_single_pass(self, monkeypatch):
        """One pass through the sorted times: 3 / (3 / 400) = 400 RK4
        steps, not a fresh run per time.  The pair's velocity is affine,
        so each step's map takes 4 stages at the d + 1 = 3 basis points,
        whatever the member count."""
        monkeypatch.setenv("PILOTWAVE_THREADS", "1")
        points = []
        velocity = decay.ParametricVelocity.velocity

        def counted(self, configs, t):
            points.append(len(configs))
            return velocity(self, configs, t)

        monkeypatch.setattr(decay.ParametricVelocity, "velocity", counted)
        ts = np.array([0.0, 1.5, 3.0])
        out = variance_evolution(self.SPEC, ts, monte_carlo_n=200, seed=3)
        assert sum(points) == 4 * 3 * 400
        perm = [2, 0, 1]
        shuffled = variance_evolution(self.SPEC, ts[perm], monte_carlo_n=200,
                                      seed=3)
        np.testing.assert_array_equal(shuffled["monte_carlo"],
                                      out["monte_carlo"][perm])
        np.testing.assert_array_equal(shuffled["variance"], out["variance"][perm])


class TestAlignment:
    def test_peak_on_locus(self):
        spec = MomentumCorrelationSpec(sigma=0.4, alpha=0.3, m1=1.0, m2=1.0)
        for t in (0.5, 2.0):
            out = alignment_analysis(spec, t)
            assert out["peak_on_locus"], out

    def test_peak_on_locus_unequal_masses(self):
        spec = MomentumCorrelationSpec(sigma=0.4, alpha=0.3, m1=1.0, m2=2.0)
        out = alignment_analysis(spec, 1.0)
        assert out["peak_on_locus"]

    def test_transition_distance_pittman_numbers(self):
        """L(0) = 2 mm, lambda = 351.1 nm: R = L^2 (2 pi / lambda) = 71.6 m."""
        spec = MomentumCorrelationSpec(sigma=0.4, alpha=0.3, m1=1.0, m2=1.0)
        out = alignment_analysis(spec, 1.0, l0=2e-3,
                                 wavenumber=2 * np.pi / 351.1e-9)
        assert 60.0 < out["transition_distance"] < 80.0
        np.testing.assert_allclose(out["transition_distance"], 71.58, atol=0.05)

    def test_small_large_estimates_cross_at_transition_time(self):
        """By construction theta_small(T) = theta_large when
        L(0) m / (p T) = dp / p, i.e. T = L(0) m / dp."""
        spec = MomentumCorrelationSpec(sigma=0.4, alpha=0.3, m1=1.0, m2=1.0)
        l0 = 1.7
        dp = np.sqrt(variance_evolution(spec, [0.0])["var_p"])
        t_star = l0 * (2 * spec.mu) / dp
        out = alignment_analysis(spec, t_star, l0=l0, wavenumber=1.0)
        np.testing.assert_allclose(np.tan(out["theta_small_t"]),
                                   np.tan(out["theta_large_t"]) * l0
                                   / (dp * t_star / (2 * spec.mu)), rtol=1e-6)


class TestEnergyShell:
    SPEC = EnergyShellSpec(e_plus=0.02, e_minus=0.999 * 0.02, mass=1.0)

    def test_a_plus_printed_value(self):
        """a+ = 5.58309 / lambda_c to 6 significant figures."""
        assert float(f"{self.SPEC.a_plus:.5f}") == 5.58309

    def test_a_minus_exact_arithmetic(self):
        """Exact arithmetic from a- = 2 pi sqrt(0.999 E+ 2 mu)/hbar gives
        5.58030/lambda_c (six figures).  The printed thesis value 5.58023
        is off by 1.2e-5 relative from its own formula; the acceptance
        suite carries the faithful assertion and documents the mismatch."""
        np.testing.assert_allclose(self.SPEC.a_minus, 5.5802991, rtol=1e-7)

    def test_g_at_zero_limit(self):
        g0 = energy_shell_density(self.SPEC, 0.0)
        expected = (self.SPEC.a_plus**2 - self.SPEC.a_minus**2) / 2.0
        np.testing.assert_allclose(g0, expected, rtol=1e-9)
        tiny = energy_shell_density(self.SPEC, 1e-10)
        np.testing.assert_allclose(tiny, expected, rtol=1e-9)

    def test_global_max_at_origin_and_concentration(self):
        prof = energy_shell_profile(self.SPEC)
        assert np.argmax(prof["g2"]) == 0
        # most of the integral of g^2 sits within a few Compton lengths
        assert prof["fraction_within_5"] > 0.5

    def test_continuity_of_limit_patch(self):
        left = energy_shell_density(self.SPEC, 0.9e-8 / self.SPEC.a_plus)
        right = energy_shell_density(self.SPEC, 1.1e-8 / self.SPEC.a_plus)
        np.testing.assert_allclose(left, right, rtol=1e-12)

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyShellSpec(e_plus=0.01, e_minus=0.02)


class TestLensSpec:
    def test_third_quantity_derived(self):
        lens = LensSpec(f=1.0, S=2.0)
        assert lens.S_image == pytest.approx(2.0)
        lens = LensSpec(f=1.0, S_image=3.0)
        assert lens.S == pytest.approx(1.5)

    def test_inconsistent_rejected(self):
        with pytest.raises(ConfigurationError):
            LensSpec(f=1.0, S=2.0, S_image=2.5)


class TestImaging:
    SPEC = DecayPairSpec(alpha=0.01, m1=1.0, m2=1.0)

    def test_endpoints_converge_to_minus_a(self):
        lens = LensSpec(f=1.0, S=2.0, S_image=2.0, waist=0.04)
        a = np.array([2.0, 0.35, -0.2])
        out = imaging_trajectories(self.SPEC, lens, a, n=300, seed=1)
        assert out["focus_error"] < lens.waist
        np.testing.assert_allclose(out["image_point"], [-2.0, -0.35, 0.2],
                                   rtol=1e-12)
        # shrinking the waist 4x tightens the focus monotonically
        lens2 = LensSpec(f=1.0, S=2.0, S_image=2.0, waist=0.01)
        out2 = imaging_trajectories(self.SPEC, lens2, a, n=300, seed=1)
        assert out2["focus_error"] < out["focus_error"]

    def test_on_axis_detection_symmetric(self):
        lens = LensSpec(f=1.0, S=2.0, S_image=2.0, waist=0.03)
        a = np.array([2.0, 0.0, 0.0])
        out = imaging_trajectories(self.SPEC, lens, a, n=400, seed=2)
        assert np.linalg.norm(out["endpoint_mean"][1:]) < 0.01

    def test_pre_lens_paths_straight(self):
        lens = LensSpec(f=1.0, S=2.0, S_image=2.0, waist=0.05)
        a = np.array([2.0, 0.2, 0.0])
        out = imaging_trajectories(self.SPEC, lens, a, n=50, seed=3)
        assert out["straightness"] < 1e-6

    def test_endpoints_in_image_plane(self):
        lens = LensSpec(f=1.0, S=2.0, S_image=2.0, waist=0.05)
        out = imaging_trajectories(self.SPEC, lens, [2.0, 0.1, 0.1], n=50, seed=4)
        np.testing.assert_allclose(out["endpoints"][:, 0], -2.0, atol=1e-9)

    def test_runs_stop_on_the_planes(self, monkeypatch):
        """Lens hits and endpoints lie on their planes exactly and do not
        depend on the recording stride."""
        lens = LensSpec(f=1.0, S=2.0, S_image=2.0, waist=0.05)
        out = imaging_trajectories(self.SPEC, lens, [2.0, 0.1, 0.1], n=50, seed=4)
        assert np.all(out["lens_hits"][:, 0] == 0.0)
        assert np.all(out["endpoints"][:, 0] == -2.0)
        assert np.all(out["post_lens_track"][:, :, 0] >= -2.0)
        np.testing.assert_array_equal(out["post_lens_track"][-1], out["endpoints"])
        monkeypatch.setattr(decay, "IMAGING_RECORD_EVERY", 1)
        every = imaging_trajectories(self.SPEC, lens, [2.0, 0.1, 0.1], n=50,
                                     seed=4)
        np.testing.assert_array_equal(every["lens_hits"], out["lens_hits"])
        np.testing.assert_array_equal(every["endpoints"], out["endpoints"])

    def test_threads_bit_identical(self, monkeypatch):
        monkeypatch.setattr(guide, "MIN_CHUNK", 4)
        lens = LensSpec(f=1.0, S=2.0, S_image=2.0, waist=0.05)
        runs = []
        for threads in (1, 2):
            monkeypatch.setenv("PILOTWAVE_THREADS", str(threads))
            runs.append(imaging_trajectories(self.SPEC, lens, [2.0, 0.2, 0.0],
                                             n=50, seed=3))
        for key in ("lens_hits", "endpoints", "post_lens_times",
                    "post_lens_track", "straightness", "focus_error"):
            np.testing.assert_array_equal(runs[0][key], runs[1][key])
        for a, b in zip(runs[0]["pre_lens"], runs[1]["pre_lens"]):
            np.testing.assert_array_equal(a, b)

    def test_unequal_masses_rejected(self):
        lens = LensSpec(f=1.0, S=2.0)
        with pytest.raises(PhysicsError):
            imaging_trajectories(DecayPairSpec(alpha=0.01, m1=1.0, m2=2.0),
                                 lens, [2.0, 0, 0], n=10)


@st.composite
def beams(draw):
    """A converging beam (m = hbar = 1) heading toward -x, and starts."""
    axis = draw(arrays(float, 3, elements=st.floats(-1.0, 1.0)))
    axis[0] = -draw(st.floats(0.2, 1.0))
    t_focus = draw(st.floats(0.1, 1.0))
    beam = decay._ConvergingGaussianSource(
        np.zeros(3), axis, draw(st.floats(0.5, 10.0)),
        draw(st.floats(0.05, 0.5)), t_focus, 1.0)
    starts = draw(arrays(float, (5, 3), elements=st.floats(-0.5, 0.5)))
    return beam, starts


class TestImagingFlow:
    """The post-lens closed-form flow against the beam's velocity field
    and against an RK4 run of it."""
    SPEC = DecayPairSpec(alpha=0.01, m1=1.0, m2=1.0)

    @given(case=beams(), frac=st.floats(0.0, 2.0))
    def test_flow_solves_the_velocity_field(self, case, frac):
        beam, starts = case
        t = frac * beam.t_focus
        h = 1e-4 * min(beam.t_focus, 1.0 / beam.spread)
        fd = (beam.flow(starts, t + h) - beam.flow(starts, t - h)) / (2 * h)
        want = beam.velocity(beam.flow(starts, t), t)
        err = np.linalg.norm(fd - want, axis=1)
        assert np.all(err <= 1e-7 * np.linalg.norm(want, axis=1))

    @given(case=beams(), depth=st.floats(0.01, 3.0),
           span=st.floats(0.5, 3.0))
    def test_first_crossing_is_the_first_root(self, case, depth, span):
        beam, starts = case
        plane = np.min(starts[:, 0]) - depth
        t_end = span * beam.t_focus
        t_land, reached = beam.first_crossing(starts, plane, t_end)
        scale = max(1.0, abs(plane))
        x_land = beam.flow(starts, t_land)[:, 0]
        assert np.all(np.abs(x_land[reached] - plane) <= 1e-12 * scale)
        # on a fine grid, no run is past the plane (to 1e-12) before it lands
        grid = np.linspace(0.0, 1.0, 2001)[:, None] * np.where(
            reached, t_land, t_end)
        x = beam.flow(starts, grid[:-1])[..., 0]
        assert np.all(x > plane - 1e-12 * scale)
        assert np.all(beam.flow(starts, t_end)[~reached, 0] > plane)

    def test_first_crossing_sees_a_dip_that_returns(self):
        """A run whose offset across the axis swings back out after the
        focus faster than the center falls: x(t) ~ 1 - 1.707 t before
        t_focus = 1 and -1 + 0.293 t after, so it is below x = -0.6 only
        between t ~ 0.94 and 1.37, and above it again at t_end = 3."""
        beam = decay._ConvergingGaussianSource(
            np.zeros(3), np.array([-1.0, 1.0, 0.0]), 1.0, 0.05, 1.0, 1.0)
        start = np.array([[1.0, 1.0, 0.0]])
        assert beam.flow(start, 3.0)[0, 0] > -0.6
        t_land, reached = beam.first_crossing(start, -0.6, 3.0)
        assert reached[0]
        assert t_land[0] == pytest.approx(1.6 / (1 + np.sqrt(0.5)), rel=1e-3)
        assert beam.flow(start, t_land)[0, 0] == pytest.approx(-0.6, abs=1e-12)

    def _run(self, waist=0.05):
        lens = LensSpec(f=1.0, S=2.0, S_image=2.0, waist=waist)
        out = imaging_trajectories(self.SPEC, lens, [2.0, 0.1, 0.1], n=50,
                                   seed=4)
        v = np.sqrt(1.0 / self.SPEC.alpha) / self.SPEC.m2
        beam = decay._ConvergingGaussianSource(
            np.zeros(3), out["image_point"], v, waist, lens.S_image / v,
            self.SPEC.m2)
        return out, beam

    def test_flow_matches_rk4_oracle(self):
        """The RK4 run the closed form replaced: same record clock,
        rows before landing to 1e-7, landing rows identical, endpoints
        to 1e-5 (RK4 lands on its step's chord)."""
        out, beam = self._run()
        beam.domain = Box([-2.0, -np.inf, -np.inf], [np.inf] * 3)
        final, status, (times, track) = integrate_ensemble(
            Ensemble(configs=out["lens_hits"], seed=0), beam,
            out["post_lens_times"][-1],
            IntegrationControls(dt=beam.t_focus / 2000,
                                record_every=decay.IMAGING_RECORD_EVERY),
            record=True)
        assert np.all(status == STATUS_EXITED)
        np.testing.assert_allclose(times, out["post_lens_times"],
                                   rtol=0, atol=1e-12)
        flying = track[..., 0] > -2.0
        np.testing.assert_array_equal(flying,
                                      out["post_lens_track"][..., 0] > -2.0)
        assert flying.sum() > 100 * 50
        np.testing.assert_allclose(out["post_lens_track"][flying],
                                   track[flying], rtol=0, atol=1e-7)
        np.testing.assert_allclose(out["endpoints"], final, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("waist", [0.05, 0.01])
    def test_endpoints_on_the_flow(self, waist):
        out, beam = self._run(waist)
        t_land, reached = beam.first_crossing(
            out["lens_hits"], -2.0, out["post_lens_times"][-1])
        assert np.all(reached)
        np.testing.assert_allclose(out["endpoints"],
                                   beam.flow(out["lens_hits"], t_land),
                                   rtol=0, atol=1e-12)
