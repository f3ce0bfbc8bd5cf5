"""Probability currents: convective + spin split, continuity, gauge checks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as rs
from pilotwave.currents import (EmPotential, SpinSpec, configuration_velocity,
                                continuity_residual, current,
                                grid_current_nodes)
from pilotwave.errors import ShapeError
from pilotwave.evolve import Propagator, step
from pilotwave.grid import Grid
from pilotwave.wavefunction import (GridWaveFunction, ParametricWaveFunction,
                                    grid_gradient)


def plane_wave(k, m=1.0, t=0.0):
    return ParametricWaveFunction("plane_wave", {"k": k, "m": m}, [m], time=t)


def gaussian3(center=(0, 0, 0), sigma=1.0, k0=(0, 0, 0), m=1.0, t=0.0):
    return ParametricWaveFunction(
        "gaussian_packet",
        {"center": list(center), "sigma": sigma, "k0": list(k0), "m": m},
        [m], time=t)


def spinor_state(chi, scalar_params, m=1.0, t=0.0):
    return ParametricWaveFunction(
        "spinor_product",
        {"scalar": "gaussian_packet", "scalar_params": scalar_params, "chi": chi},
        [m], time=t)


class TestSpinSpec:
    def test_defaults(self):
        assert SpinSpec(0).g == 0.0
        assert SpinSpec(0.5).g == 2.0
        assert SpinSpec(1).g == 1.0
        assert SpinSpec(0.5, g=0.5).g == 0.5

    def test_commutators_checked(self):
        for s in (0, 0.5, 1):
            SpinSpec(s)   # construction runs the entrywise check

    def test_bad_spin(self):
        with pytest.raises(ShapeError):
            SpinSpec(1.5)


class TestCurrentExamples:
    def test_spin0_plane_wave(self):
        psi = plane_wave([2.0, 0.0, 0.0])
        f = current(psi, SpinSpec(0), at=[[0.3, -0.2, 0.9]])
        np.testing.assert_allclose(f.rho, 1.0, rtol=1e-13)
        np.testing.assert_allclose(f.j[0], [2.0, 0.0, 0.0], atol=1e-13)
        np.testing.assert_allclose(f.j_s, 0.0, atol=1e-15)

    def test_points_required(self):
        """A call without points raises instead of evaluating at NaN."""
        psi = gaussian3(k0=(0.5, 0, 0))
        for call in (lambda: current(psi, SpinSpec(0)),
                     lambda: current(psi, SpinSpec(0), None, [[0.1, 0, 0]]),
                     lambda: configuration_velocity(psi)):
            with pytest.raises(TypeError):
                call()

    def test_spin_half_pure_spin_current_vs_fd_oracle(self):
        """Real Gaussian times chi=(1,0), g=2: j_c = 0 and j_s equals a
        finite-difference curl of the magnetization psi^dag S psi."""
        params = {"center": [0.1, -0.2, 0.0], "sigma": [0.8, 1.1, 0.9],
                  "k0": [0.0, 0.0, 0.0], "m": 1.0}
        spin = SpinSpec(0.5, g=2.0)
        psi = spinor_state([1.0, 0.0], params)
        pts = np.array([[0.4, 0.3, -0.2], [0.0, 0.9, 0.4]])
        f = current(psi, spin, at=pts)
        np.testing.assert_allclose(f.j_c, 0.0, atol=1e-13)

        # independent oracle: central differences of m(x) = psi^dag S psi
        h = 1e-5
        gens = spin.generators

        def mag(x):
            v = psi.evaluate(np.atleast_2d(x))
            return np.real(np.einsum("sn,asb,bn->an", v.conj(), gens, v))[:, 0]

        for p, js in zip(pts, f.j_s):
            dm = np.empty((3, 3))
            for a in range(3):
                e = np.zeros(3)
                e[a] = h
                dm[a] = (mag(p + e) - mag(p - e)) / (2 * h)
            curl = np.array([dm[1][2] - dm[2][1],
                             dm[2][0] - dm[0][2],
                             dm[0][1] - dm[1][0]])
            expected = (spin.g / 2.0) * curl
            np.testing.assert_allclose(js, expected, rtol=1e-6, atol=1e-12)

        # closed form for this state: j_s = (g hbar / 4m) (d_y rho, -d_x rho, 0)
        for p, js in zip(pts, f.j_s):
            rho = lambda x: psi.density(np.atleast_2d(x))[0]
            ey, ex = np.zeros(3), np.zeros(3)
            ey[1] = h
            ex[0] = h
            drho_dy = (rho(p + ey) - rho(p - ey)) / (2 * h)
            drho_dx = (rho(p + ex) - rho(p - ex)) / (2 * h)
            np.testing.assert_allclose(
                js, [0.5 * drho_dy, -0.5 * drho_dx, 0.0], rtol=1e-6, atol=1e-12)

    def test_uniform_density_kills_spin_current(self):
        psi = ParametricWaveFunction(
            "spinor_product",
            {"scalar": "plane_wave", "scalar_params": {"k": [1.0, 0.0, 0.0], "m": 1.0},
             "chi": [0.6, 0.8j]}, [1.0])
        f = current(psi, SpinSpec(0.5), at=[[0.2, 0.5, -1.0]])
        np.testing.assert_allclose(f.j_s, 0.0, atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            current(gaussian3(), SpinSpec(0.5), at=[[0, 0, 0]])

    def test_scalar_point_of_a_1d_state(self):
        """A 0-d point of a 1-D state is the one point [[x]]."""
        psi = gaussian3(center=(0.2,), k0=(0.7,))
        np.testing.assert_array_equal(configuration_velocity(psi, 0.5),
                                      configuration_velocity(psi, [[0.5]]))


class TestSpinEigenstate:
    def test_real_state_g0_current_vanishes(self):
        psi = spinor_state([1.0, 0.0], {"center": [0.0] * 3, "sigma": 0.7,
                                        "k0": [0.0] * 3, "m": 1.0})
        f = current(psi, SpinSpec(0.5, g=0.0),
                    at=np.random.default_rng(0).normal(size=(6, 3)))
        np.testing.assert_allclose(f.j, 0.0, atol=1e-13)


class TestGridStates:
    """A grid state's one current is `grid_current_nodes`: the pointwise
    functions take closed-form states only."""

    GRID = Grid([(-5.0, 5.0), (-5.0, 5.0), (-5.0, 5.0)], [12, 12, 12])

    def test_pointwise_currents_reject_grid_states(self):
        psi = GridWaveFunction.sample(gaussian3(k0=(0.5, 0, 0)), self.GRID)
        spinor = GridWaveFunction.sample(spinor_state(
            [0.6, 0.8j], {"center": [0.0] * 3, "sigma": 1.0,
                          "k0": [0.5, 0.0, 0.0], "m": 1.0}), self.GRID)
        pts = [[0.1, 0.2, -0.3]]
        for call in (lambda: current(psi, SpinSpec(0), at=pts),
                     lambda: current(spinor, SpinSpec(0.5), at=pts),
                     lambda: configuration_velocity(psi, at=pts)):
            with pytest.raises(ShapeError, match="grid_current_nodes"):
                call()


def sample_pair(state, grid, t0, dt):
    a = GridWaveFunction.sample(state.at_time(t0), grid)
    b = GridWaveFunction.sample(state.at_time(t0 + dt), grid)
    return a, b


class TestContinuity:
    def test_plane_wave_residual_zero(self):
        grid = Grid([(-4.0, 4.0)], [128])
        state = plane_wave([1.5])
        a, b = sample_pair(state, grid, 0.0, 1e-3)
        _, mx, _ = continuity_residual(a, b, SpinSpec(0))
        assert mx < 1e-12

    def test_richardson_convergence(self):
        """Halving (dt, dx) on the analytic Gaussian drops the residual >= 3.5x."""
        state = gaussian3(center=(0.0,), sigma=(0.8,), k0=(1.0,), m=1.0)
        state = ParametricWaveFunction(
            "gaussian_packet", {"center": [0.0], "sigma": 0.8, "k0": [1.0], "m": 1.0},
            [1.0])
        norms = []
        for n, dt in ((301, 4e-2), (601, 2e-2)):
            grid = Grid([(-9.0, 9.0)], [n])
            a, b = sample_pair(state, grid, 0.2, dt)
            _, mx, _ = continuity_residual(a, b, SpinSpec(0))
            norms.append(mx)
        assert norms[0] / norms[1] >= 3.5

    def test_stationary_state_residual_small(self):
        """Harmonic ground state scaled free: use a static real Gaussian;
        rho is time independent and j = 0, so the residual sits at the
        discretization floor (reported, not asserted exact)."""
        grid = Grid([(-8.0, 8.0)], [256])
        x = grid.axes[0]
        vals = np.exp(-x**2 / 2)
        a = GridWaveFunction(grid, vals, [1.0], time=0.0)
        b = GridWaveFunction(grid, vals, [1.0], time=1e-3)
        _, mx, _ = continuity_residual(a, b, SpinSpec(0))
        assert mx < 1e-12

    def test_mismatched_grids_rejected(self):
        a = GridWaveFunction(Grid([(-1, 1)], [32]), np.ones(32), [1.0], time=0.0)
        b = GridWaveFunction(Grid([(-1, 1)], [64]), np.ones(64), [1.0], time=0.1)
        with pytest.raises(ShapeError):
            continuity_residual(a, b, SpinSpec(0))

    @staticmethod
    def split_step_residual(masses, sigma, k0, grid, coupling=None,
                            potential=None, dt=1e-3):
        """Continuity residual of one split step of a two-particle 1-D
        Gaussian on a 2-D grid, over the interior nodes, relative to
        max|d rho/dt|.  A coupling g(x) p_1 moves probability with the
        extra current g rho along axis 1, which is added here.

        The split step is periodic on n h per axis, so the Gaussian is
        sampled summed over its nearest images s n h, s in {-1, 0, 1}^2:
        the state the propagator represents.  A plain sample jumps at the
        wrap, which dominates max|d rho/dt| for wide packets at rest."""
        # sampled at t = 0 only, where the packet's mass does not enter
        state = ParametricWaveFunction(
            "gaussian_packet", {"center": [0.3, -0.2], "sigma": sigma,
                                "k0": k0, "m": 1.0}, [1.0])
        period = np.multiply(grid.spacing, grid.points)
        nodes = grid.nodes()
        images = sum(state.evaluate(nodes + period * np.array(s))
                     for s in itertools.product((-1, 0, 1), repeat=2))
        a = GridWaveFunction(grid, images.reshape(grid.shape),
                             masses).normalized()
        b = step(a, Propagator("split-step", dt, potential=potential,
                               coupling=coupling))
        res, _, _ = continuity_residual(a, b, SpinSpec(0))
        if coupling is not None:
            rho = 0.5 * (a.density_nodes() + b.density_nodes())
            res = res + grid_gradient(coupling[1] * rho, grid)[1]
        scale = np.max(np.abs(b.density_nodes() - a.density_nodes())) / dt
        return np.max(np.abs(res[4:-4, 4:-4])) / scale

    def test_unequal_masses_match_the_equal_mass_level(self):
        """Each particle's current carries its own mass: masses (1, 4)
        leave the residual of one split step where equal masses do."""
        grid = Grid([(-8.0, 8.0), (-8.0, 8.0)], [128, 128])
        args = dict(sigma=[1.0, 1.2], k0=[1.0, -0.8], grid=grid)
        equal = self.split_step_residual([1.0, 1.0], **args)
        unequal = self.split_step_residual([1.0, 4.0], **args)
        assert equal < 1e-3
        assert unequal <= 2 * equal

    @given(st.tuples(st.floats(0.3, 4.0), st.floats(0.3, 4.0)),
           st.tuples(st.floats(0.6, 1.5), st.floats(0.6, 1.5)),
           st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
           st.booleans(), st.booleans())
    def test_one_split_step_conserves_probability(self, masses, sigma, k0,
                                                  coupled, potential):
        """Over random per-particle masses, widths and momenta, with and
        without a coupling and a potential.  The bound is twice the worst
        equal-mass case over the corners of these ranges (0.026, at
        masses 4, widths 0.6 and the potential on)."""
        grid = Grid([(-8.0, 8.0), (-8.0, 8.0)], [64, 64])
        coupling = (1, 0.8 * grid.axes[0][:, None] * np.ones((1, 64)))
        rel = self.split_step_residual(
            list(masses), list(sigma), list(k0), grid,
            coupling=coupling if coupled else None,
            potential=((lambda x, t: 0.5 * x[:, 0] ** 2 + 0.3 * x[:, 1] ** 2)
                       if potential else None))
        assert rel < 0.05


class TestInvariants:
    @settings(max_examples=20)
    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0.3, 2.0),
           st.floats(-1, 1), st.floats(-1, 1))
    def test_decomposition_pointwise(self, kx, ky, sigma, c_re, c_im):
        chi = np.array([1.0, c_re + 1j * c_im])
        chi = chi / np.linalg.norm(chi)
        psi = spinor_state(chi, {"center": [0.0, 0.0, 0.0], "sigma": sigma,
                                 "k0": [kx, ky, 0.0], "m": 1.0})
        f = current(psi, SpinSpec(0.5), at=[[0.3, -0.4, 0.2]])
        np.testing.assert_allclose(f.j, f.j_c + f.j_s, rtol=1e-10, atol=1e-14)

    def test_gauge_invariance_exact_linear_theta(self):
        """V -> V + grad(theta), psi -> exp(i e theta / hbar c) psi leaves
        rho and j unchanged; linear theta = q.x makes this exact."""
        q = np.array([0.4, -0.7, 0.2])
        e = 1.3
        k = np.array([1.0, 0.5, -0.3])
        pts = np.random.default_rng(2).normal(size=(5, 3))
        em0 = EmPotential(charge=e)
        em1 = EmPotential(v=lambda x, t: np.broadcast_to(q, x.shape).copy(), charge=e)
        f0 = current(plane_wave(k), SpinSpec(0), em=em0, at=pts)
        f1 = current(plane_wave(k + e * q), SpinSpec(0), em=em1, at=pts)
        np.testing.assert_allclose(f0.rho, f1.rho, rtol=1e-12)
        np.testing.assert_allclose(f0.j, f1.j, rtol=1e-12, atol=1e-13)

    def test_gauge_invariance_grid_quadratic_theta(self):
        e = 0.8
        theta = lambda x: 0.3 * x[..., 0] ** 2 - 0.2 * x[..., 0]
        grad_theta = lambda x, t: np.stack(
            [0.6 * x[..., 0] - 0.2, np.zeros(x.shape[0]), np.zeros(x.shape[0])],
            axis=-1)
        grid = Grid([(-7.0, 7.0)], [1401])
        base = ParametricWaveFunction(
            "gaussian_packet", {"center": [0.0], "sigma": 1.0, "k0": [0.8], "m": 1.0},
            [1.0])
        a = GridWaveFunction.sample(base, grid)
        phase = np.exp(1j * e * theta(grid.axes[0][:, None]))
        b = a.with_values(a.values * phase[None, :])
        pts = np.linspace(-2, 2, 9)[:, None]
        j_a = grid.interpolate(grid_current_nodes(
            a, SpinSpec(0), em=EmPotential(charge=e)), pts)
        j_b = grid.interpolate(grid_current_nodes(
            b, SpinSpec(0), em=EmPotential(v=grad_theta, charge=e)), pts)
        np.testing.assert_allclose(b.density(pts), a.density(pts), rtol=1e-8)
        np.testing.assert_allclose(j_b[0], j_a[0], rtol=1e-8)

    def test_spin_current_divergence_free(self):
        """Numerical div j_s vanishes on smooth states.  The discrete
        stencil derivatives commute, so the divergence of the stencil curl
        cancels to roundoff in the interior at any resolution (stronger
        than the second-order convergence the property requires)."""
        chi = np.array([0.6, 0.8j])
        params = {"center": [0.0, 0.0], "sigma": [0.9, 1.3], "k0": [0.4, -0.6],
                  "m": 1.0}
        spin = SpinSpec(0.5)
        from pilotwave.wavefunction import grid_gradient
        for n in (201, 401):
            grid = Grid([(-7.0, 7.0), (-7.0, 7.0)], [n, n])
            psi = GridWaveFunction.sample(spinor_state(chi, params), grid)
            f = grid_current_nodes(psi, spin)
            jc = grid_current_nodes(psi, SpinSpec(0.5, g=0.0))
            js = f - jc
            div = sum(grid_gradient(js[a], grid)[a] for a in range(2))
            scale = np.max(np.abs(js))
            assert np.max(np.abs(div[4:-4, 4:-4])) <= 1e-10 * scale

    def test_grid_nodes_match_points(self):
        """grid_current_nodes (stencil gradients, stencil curl) equals
        current() of the closed-form state at the interior nodes, to the
        fourth order of the stencils, for a spinor in a vector potential."""
        state = spinor_state([0.6, 0.8j], {"center": [0.2, -0.1],
                                           "sigma": [0.9, 1.2],
                                           "k0": [0.6, -0.4], "m": 1.3},
                             m=1.3)
        em = EmPotential(v=lambda x, t: np.stack(
            [-0.4 * x[:, 1], 0.4 * x[:, 0], 0.2 * x[:, 0]], axis=-1), charge=0.7)
        spin = SpinSpec(0.5, g=2.0)
        errors = []
        for n in (61, 121):
            grid = Grid([(-6.0, 6.0), (-6.0, 6.0)], [n, n])
            on_grid = grid_current_nodes(GridWaveFunction.sample(state, grid),
                                         spin, em)
            at_nodes = current(state, spin, em=em, at=grid.nodes()).j[:, :2]
            at_nodes = at_nodes.T.reshape(on_grid.shape)
            diff = (on_grid - at_nodes)[:, 4:-4, 4:-4]
            errors.append(np.max(np.abs(diff)) / np.max(np.abs(at_nodes)))
        assert errors[1] < 5e-5
        assert errors[0] / errors[1] > 12     # 16 for fourth order

    @given(case=rs.scalar_sums(), data=st.data(), t=rs.times,
           log_s=st.floats(-300.0, 300.0), theta=st.floats(0.0, 2 * np.pi))
    def test_sum_velocity_invariant_under_scale_and_phase(
            self, case, data, t, log_s, theta):
        """Every coefficient of a scalar sum times s e^{i theta}, s from
        1e-300 to 1e300, leaves v unchanged where s psi is a finite
        normal float.  The bound is 1e-13 of |v| + 1 times the
        cancellation factor (sum of term moduli) / |psi|, by which
        rounding the coefficients perturbs psi relative to itself.  Where
        s psi is subnormal a row may be a node: all NaN, never partly."""
        name, params, masses = case
        bare = ParametricWaveFunction(name, params, masses)
        scaled = ParametricWaveFunction(
            name, rs.scale_coefficients(name, params,
                                        10.0**log_s * np.exp(1j * theta)),
            masses)
        x = data.draw(rs.config_points(bare.config_dim))
        v_bare = configuration_velocity(bare, x, t)
        v_scaled = configuration_velocity(scaled, x, t)
        val, _, mod = bare.value_gradient_moduli(x, t)
        s_val = scaled.evaluate(x, t)[0]
        ok = (np.abs(s_val) >= np.finfo(float).tiny) & np.isfinite(s_val) \
            & np.isfinite(v_bare).all(axis=1)
        bound = (1e-13 * (np.abs(v_bare).max(axis=1) + 1)
                 * mod[0] / np.abs(val[0]))
        assert np.all(np.abs(v_scaled - v_bare).max(axis=1)[ok] <= bound[ok])
        bad = ~np.isfinite(v_scaled).all(axis=1)
        assert np.all(np.isnan(v_scaled[bad]))

    @given(case=rs.spinor_sums(), data=st.data(), t=rs.times,
           g=st.floats(0.0, 3.0), log_s=st.floats(-300.0, 300.0),
           theta=st.floats(0.0, 2 * np.pi))
    def test_spinor_sum_velocity_invariant_under_scale_and_phase(
            self, case, data, t, g, log_s, theta):
        """The spinor version: every coefficient of a sum of spin-1/2
        Gaussians times s e^{i theta}, s from 1e-300 to 1e300, leaves v
        (spin term included) unchanged where every component of s psi
        and s grad psi is a finite normal float, with no overflow on the
        way.  The bound is the scalar one, with the cancellation factor
        sqrt(sum over spin of (sum of term moduli)^2 / rho).  A row that
        is not finite is all NaN."""
        params, masses = case
        spin = SpinSpec(0.5, g=g)
        bare = ParametricWaveFunction("superposition", params, masses)
        scaled = ParametricWaveFunction(
            "superposition", rs.scale_coefficients(
                "superposition", params, 10.0**log_s * np.exp(1j * theta)),
            masses)
        x = data.draw(rs.config_points(3))
        v_bare = configuration_velocity(bare, x, t, spin)
        v_scaled = configuration_velocity(scaled, x, t, spin)
        val, _, mod = bare.value_gradient_moduli(x, t)
        s_val, s_grad, _ = scaled.value_gradient_moduli(x, t)

        def normal(z):
            return np.isfinite(z) & (np.abs(z) >= np.finfo(float).tiny)

        ok = (normal(s_val).all(axis=0) & normal(s_grad).all(axis=(0, 1))
              & np.isfinite(v_bare).all(axis=1))
        bound = (1e-13 * (np.abs(v_bare).max(axis=1) + 1)
                 * np.sqrt(np.sum(mod**2, axis=0)
                           / np.sum(np.abs(val)**2, axis=0)))
        assert np.all(np.abs(v_scaled - v_bare).max(axis=1)[ok] <= bound[ok])
        bad = ~np.isfinite(v_scaled).all(axis=1)
        assert np.all(np.isnan(v_scaled[bad]))

    def test_global_phase_leaves_velocity_invariant(self):
        psi = spinor_state(np.array([0.6, 0.8]), {"center": [0.0, 0.0, 0.0],
                                                  "sigma": 1.0,
                                                  "k0": [0.5, 0.2, -0.1], "m": 1.0})
        phased = ParametricWaveFunction(
            "spinor_product",
            {"scalar": "gaussian_packet",
             "scalar_params": {"center": [0.0, 0.0, 0.0], "sigma": 1.0,
                               "k0": [0.5, 0.2, -0.1], "m": 1.0},
             "chi": np.exp(1j * 1.234) * np.array([0.6, 0.8])},
            [1.0])
        pts = np.random.default_rng(3).normal(size=(6, 3))
        f0 = current(psi, SpinSpec(0.5), at=pts)
        f1 = current(phased, SpinSpec(0.5), at=pts)
        v0 = f0.j / f0.rho[:, None]
        v1 = f1.j / f1.rho[:, None]
        np.testing.assert_allclose(v0, v1, rtol=1e-12, atol=1e-14)
