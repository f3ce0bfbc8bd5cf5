"""Decaying pair, variance/alignment, energy shell, optical imaging."""

import numpy as np
import pytest

from pilotwave import decay
from pilotwave.decay import (DecayPairSpec, EnergyShellSpec, LensSpec,
                             MomentumCorrelationSpec, alignment_analysis,
                             energy_shell_density, energy_shell_profile,
                             imaging_trajectories, pair_closed_form,
                             pair_trajectories, pair_wavefunction,
                             variance_evolution)
from pilotwave.errors import ConfigurationError, PhysicsError

EQUAL = DecayPairSpec(alpha=1.0, m1=1.0, m2=1.0)


class TestPairWave:
    def test_peak_at_coincidence(self):
        spec = DecayPairSpec(alpha=0.5, m1=1.0, m2=1.0)
        same = abs(pair_wavefunction(spec, [0.1, 0, 0], [0.1, 0, 0])) ** 2
        apart = abs(pair_wavefunction(spec, [0.6, 0, 0], [0.1, 0, 0])) ** 2
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

    def test_var_p_gaussian_value(self):
        """F ~ exp(-(p1+p2)^2/sigma) as a density: Var(p1+p2) = sigma/2."""
        out = variance_evolution(self.SPEC, [0.0])
        np.testing.assert_allclose(out["var_p"], self.SPEC.sigma / 2.0, rtol=1e-6)

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
        steps of 4 velocity calls, not a fresh run per time."""
        monkeypatch.setenv("PILOTWAVE_THREADS", "1")
        calls = []
        velocity = decay.ParametricVelocity.velocity

        def counted(self, configs, t):
            calls.append(1)
            return velocity(self, configs, t)

        monkeypatch.setattr(decay.ParametricVelocity, "velocity", counted)
        ts = np.array([0.0, 1.5, 3.0])
        out = variance_evolution(self.SPEC, ts, monte_carlo_n=200, seed=3)
        assert len(calls) == 1600
        perm = [2, 0, 1]
        shuffled = variance_evolution(self.SPEC, ts[perm], monte_carlo_n=200,
                                      seed=3)
        np.testing.assert_array_equal(shuffled["monte_carlo"],
                                      out["monte_carlo"][perm])
        np.testing.assert_array_equal(shuffled["variance"], out["variance"][perm])

    def test_asymmetric_density_rejected(self):
        with pytest.raises(PhysicsError):
            MomentumCorrelationSpec(
                sigma=0.5, alpha=0.8, m1=1.0, m2=1.0,
                density=lambda p1, p2: np.exp(-(p1 + p2 - 0.3) ** 2))


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
