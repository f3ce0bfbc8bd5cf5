"""Dirac plane-wave states: spinor algebra, causality, reductions."""

import numpy as np
import pytest
from hypothesis import given, reject

import strategies as rs

from pilotwave.currents import SpinSpec, current
from pilotwave.errors import (ConfigurationError, NodeError, PhysicsError,
                              ShapeError)
from pilotwave.guide import (BeableConfig, IntegrationControls,
                             ParametricVelocity, integrate_trajectory)
from pilotwave.reldirac import (PlaneWaveSpinorState, dirac2_velocity,
                                dirac_velocity, free_spinor,
                                nonrelativistic_pauli_state,
                                tensor_current_causal)


def one(coef, p, sign=+1, spin=0):
    return (coef, np.asarray(p, float), sign, spin)


class TestSpinors:
    def test_dirac_equation_residual(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.normal(size=3) * rng.uniform(0.1, 5)
            m = rng.uniform(0.2, 3)
            for sign in (+1, -1):
                for lab in (0, 1):
                    u, e = free_spinor(p, m, sign, lab)
                    assert np.sign(e) == sign
                    np.testing.assert_allclose(np.real(u.conj() @ u), 2 * abs(e),
                                               rtol=1e-12)

    def test_rest_state_velocity_zero(self):
        st = PlaneWaveSpinorState((one(1.0, [0, 0, 0]),), mass=1.0)
        v, u = dirac_velocity(st, [0.3, -0.2, 0.1], 0.5)
        np.testing.assert_allclose(v[0], 0.0, atol=1e-14)
        np.testing.assert_allclose(u[0], [1, 0, 0, 0], atol=1e-14)

    def test_single_term_velocity_p_over_e(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.normal(size=3)
            m = rng.uniform(0.3, 2)
            st = PlaneWaveSpinorState((one(1.0, p, +1, rng.integers(2)),), mass=m)
            v, _ = dirac_velocity(st, rng.normal(size=3), rng.normal())
            e = np.sqrt(p @ p + m * m)
            np.testing.assert_allclose(v[0], p / e, rtol=1e-12, atol=1e-12)

    def test_four_velocity_near_light_speed(self):
        """u = (E, p)/m to 1e-11 of |u| at |p| = 1e3 m, where 1 - |v| is
        5e-7: j.j is the Fierz sum sigma^2 + omega^2, not rho^2 - |j|^2,
        which cancels as |v| -> 1 (up to 1.2e-10 off in these cases)."""
        m = 1.0
        rng = np.random.default_rng(5)
        dirs = np.concatenate([np.eye(3), [[0.6, 0.8, 0.0]],
                               rng.normal(size=(4, 3))])
        for d in dirs:
            p = 1e3 * m * d / np.linalg.norm(d)
            expected = np.concatenate([[np.sqrt(p @ p + m * m)], p]) / m
            for spin in (0, 1):
                st = PlaneWaveSpinorState((one(1.0, p, +1, spin),), mass=m)
                _, u = dirac_velocity(st, [0.3, -0.2, 0.1], 0.5)
                assert np.max(np.abs(u - expected)) <= 1e-11 * expected[0]

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("p", [1e4, 1e6, 1e8])
    def test_ultrarelativistic_state_builds_and_is_causal(self, p, sign):
        """The Dirac residual check scales with E, so a state at |p| up to
        1e8 m builds, and its velocity stays within the light cone."""
        st = PlaneWaveSpinorState(((1.0, [p, 0.3, 0.0], sign, 0),), mass=1.0)
        v, _ = dirac_velocity(st, [[0.3, -0.2, 0.1], [1.0, 2.0, -3.0]], 0.5)
        assert np.all(np.sum(v**2, axis=-1) <= 1 + 1e-10)

    def test_two_term_interference_oracle(self):
        """Equal +p / -p superposition: the velocity oscillates in x with
        wavelength pi/|p| (in the transverse component: the longitudinal
        cross term cancels, [sigma_x, sigma_x] = 0) and averages to zero
        over a spatial period.  Oracle: two-term spinor algebra by hand."""
        p = np.array([0.8, 0.0, 0.0])
        m = 1.0
        st = PlaneWaveSpinorState((one(1 / np.sqrt(2), p),
                                   one(1 / np.sqrt(2), -p)), mass=m)
        e = np.sqrt(p @ p + m * m)
        u1, _ = free_spinor(p, m, +1, 0)
        u2, _ = free_spinor(-p, m, +1, 0)
        from pilotwave.matrices import build_matrix_set
        alphas = build_matrix_set("dirac4").beta_tilde

        xs = np.linspace(0.0, np.pi / p[0], 200, endpoint=False)
        t = 0.37
        vy = []
        for x in xs:
            v = dirac_velocity(st, np.array([x, 0.0, 0.0]), t)[0][0]
            ph1 = np.exp(1j * (p[0] * x - e * t)) / np.sqrt(2)
            ph2 = np.exp(1j * (-p[0] * x - e * t)) / np.sqrt(2)
            psi = u1 * ph1 + u2 * ph2
            rho = np.real(psi.conj() @ psi)
            expected = np.array([np.real(psi.conj() @ a @ psi) for a in alphas]) / rho
            np.testing.assert_allclose(v, expected, atol=1e-12)
            vy.append(v[1])
        vy = np.array(vy)
        assert np.max(np.abs(vy)) > 0.1          # genuinely oscillates
        # periodicity pi/|p| and zero average over one period
        v_shift, _ = dirac_velocity(st, np.array([xs[7] + np.pi / p[0], 0, 0]), t)
        np.testing.assert_allclose(v_shift[0, 1], vy[7], atol=1e-12)
        assert abs(np.mean(vy)) < 1e-12

    def test_speed_bound_random_superpositions(self):
        rng = np.random.default_rng(2)
        trials = 0
        for _ in range(200):
            nterms = rng.integers(1, 5)
            terms = tuple(one(rng.normal() + 1j * rng.normal(),
                              rng.normal(size=3) * rng.uniform(0.1, 4),
                              int(rng.choice([-1, 1])), int(rng.integers(2)))
                          for _ in range(nterms))
            st = PlaneWaveSpinorState(terms, mass=rng.uniform(0.2, 3))
            pts = rng.normal(size=(50, 3)) * 3
            ts = rng.normal(size=1)[0]
            try:
                v, _ = dirac_velocity(st, pts, ts)
            except NodeError:
                continue
            speed = np.linalg.norm(np.atleast_2d(v), axis=-1)
            assert np.all(speed <= 1 + 1e-10)
            trials += len(pts)
        assert trials >= 5000

    def test_normalization_independence(self):
        p = np.array([0.5, -0.2, 0.9])
        st1 = PlaneWaveSpinorState((one(1.0, p), one(0.3j, -p, -1, 1)), mass=0.7)
        st2 = PlaneWaveSpinorState((one(17.0, p), one(0.3j * 17, -p, -1, 1)),
                                   mass=0.7)
        x, t = np.array([0.1, 0.2, 0.3]), 0.4
        v1, _ = dirac_velocity(st1, x, t)
        v2, _ = dirac_velocity(st2, x, t)
        np.testing.assert_allclose(v1, v2, rtol=1e-12)

    def test_massless_plane_wave_moves_at_light_speed(self):
        p = np.array([0.6, -0.2, 0.1])
        st = PlaneWaveSpinorState((one(1.0, p),), mass=0.0)
        v, _ = dirac_velocity(st, [[0.1, 0.2, 0.3], [-1.0, 2.0, 0.5]], 0.4)
        np.testing.assert_allclose(v, np.tile(p / np.linalg.norm(p), (2, 1)),
                                   rtol=1e-14)


class TestTwoParticle:
    def test_product_rest_states(self):
        st = PlaneWaveSpinorState(
            ((1.0, ([0, 0, 0], +1, 0), ([0, 0, 0], +1, 1)),), mass=1.0,
            n_particles=2)
        v1, v2 = dirac2_velocity(st, [0.1, 0, 0], [0, 0.2, 0], 0.0)
        np.testing.assert_allclose(v1, 0.0, atol=1e-14)
        np.testing.assert_allclose(v2, 0.0, atol=1e-14)

    def test_product_state_reduces_to_one_particle(self):
        rng = np.random.default_rng(3)
        p = rng.normal(size=3)
        q = rng.normal(size=3)
        m = 1.1
        st = PlaneWaveSpinorState(((1.0, (p, +1, 0), (q, +1, 1)),), mass=m,
                                  n_particles=2)
        v1, v2 = dirac2_velocity(st, rng.normal(size=3), rng.normal(size=3), 0.2)
        ep, eq = np.sqrt(p @ p + m * m), np.sqrt(q @ q + m * m)
        np.testing.assert_allclose(v1[0], p / ep, atol=1e-10)
        np.testing.assert_allclose(v2[0], q / eq, atol=1e-10)

    def test_pauli_exclusion_node(self):
        st = PlaneWaveSpinorState(
            ((1.0, ([0.5, 0, 0], +1, 0), ([0.5, 0, 0], +1, 0)),), mass=1.0,
            n_particles=2).antisymmetrized()
        with pytest.raises(NodeError):
            dirac2_velocity(st, [0.1, 0.2, 0.3], [-0.4, 0.5, 0.6], 0.1)

    def test_antisymmetry_sign_flip(self):
        st = PlaneWaveSpinorState(
            ((1.0, ([0.5, 0, 0], +1, 0), ([-0.3, 0.2, 0], +1, 1)),), mass=1.0,
            n_particles=2).antisymmetrized()
        x1 = np.array([0.3, -0.1, 0.2])
        x2 = np.array([-0.6, 0.4, 0.1])
        t = 0.15
        a = st.amplitude(np.concatenate([x1, x2]), t)[:, 0].reshape(4, 4)
        b = st.amplitude(np.concatenate([x2, x1]), t)[:, 0].reshape(4, 4)
        np.testing.assert_allclose(a, -b.T, atol=1e-12)

    def test_tensor_current_causality_random(self):
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(40):
            terms = tuple(
                (rng.normal() + 1j * rng.normal(),
                 (rng.normal(size=3), int(rng.choice([-1, 1])), int(rng.integers(2))),
                 (rng.normal(size=3), int(rng.choice([-1, 1])), int(rng.integers(2))))
                for _ in range(rng.integers(1, 4)))
            st = PlaneWaveSpinorState(terms, mass=rng.uniform(0.3, 2),
                                      n_particles=2)
            try:
                n1, n2 = tensor_current_causal(st, rng.normal(size=(25, 3)),
                                               rng.normal(size=(25, 3)), 0.3)
            except NodeError:
                continue
            assert np.all(n1 >= -1e-10 * np.max(n1))
            assert np.all(n2 >= -1e-10 * np.max(n2))
            checked += 25
        assert checked >= 500


class TestCausalityProperties:
    """j^0 >= 0 and |v| <= 1 over random one- and two-particle states,
    both energy signs, antisymmetrized or not."""

    @given(state=rs.dirac_states(), pts=rs.points, t=rs.times)
    def test_dirac_velocity(self, state, pts, t):
        try:
            # raises CausalityViolationError on a spacelike current
            v, u = dirac_velocity(state, pts, t)
        except NodeError:
            reject()
        assert np.all(np.sum(v**2, axis=-1) <= 1 + 1e-10)
        if u is not None:
            assert np.all(u[:, 0] >= 1.0 - 1e-10)

    @given(state=rs.dirac_states(n_particles=2), x1=rs.points, x2=rs.points,
           t=rs.times)
    def test_dirac2_velocity(self, state, x1, x2, t):
        try:
            v1, v2 = dirac2_velocity(state, x1, x2, t)
        except NodeError:
            reject()
        for v in (v1, v2):
            assert np.all(np.sum(v**2, axis=-1) <= 1 + 1e-10)


class TestNonRelativisticLimit:
    def test_quadratic_approach_to_pauli_current(self):
        """Dirac velocity approaches the Pauli current velocity (g = 2,
        spin term included) quadratically in |p|/m."""
        m = 1.0
        rng = np.random.default_rng(5)
        dirs = [np.array([1.0, 0, 0]), np.array([0.6, 0.3, 0.0])]
        pts = rng.normal(size=(6, 3))
        devs = []
        for eps in (0.2, 0.1, 0.05):
            terms = (one(1.0, eps * m * dirs[0]),
                     one(0.8j, eps * m * dirs[1], +1, 0))
            st = PlaneWaveSpinorState(terms, mass=m)
            pauli = nonrelativistic_pauli_state(st)
            f = current(pauli, SpinSpec(0.5, g=2.0), at=pts, t=0.7)
            v_pauli = f.j / f.rho[:, None]
            v_dirac, _ = dirac_velocity(st, pts, 0.7)
            dev = np.max(np.linalg.norm(v_dirac - v_pauli, axis=-1)
                         / np.linalg.norm(v_dirac, axis=-1))
            devs.append(dev)
        assert devs[1] <= 0.35 * devs[0]
        assert devs[2] <= 0.35 * devs[1]
        # leading-order agreement threshold at small momentum
        assert devs[2] < 1e-3

    def test_tight_agreement_at_tiny_momentum(self):
        m = 1.0
        st = PlaneWaveSpinorState((one(1.0, [1e-2 * m, 0, 0]),
                                   one(0.5, [0.6e-2 * m, 0.3e-2 * m, 0])), mass=m)
        pauli = nonrelativistic_pauli_state(st)
        pts = np.random.default_rng(6).normal(size=(4, 3))
        f = current(pauli, SpinSpec(0.5, g=2.0), at=pts)
        v_pauli = f.j / f.rho[:, None]
        v_dirac, _ = dirac_velocity(st, pts, 0.0)
        rel = np.max(np.linalg.norm(v_dirac - v_pauli, axis=-1)
                     / np.linalg.norm(v_dirac, axis=-1))
        assert rel < 1e-3

    def test_negative_energy_rejected(self):
        st = PlaneWaveSpinorState((one(1.0, [0.1, 0, 0], -1),), mass=1.0)
        with pytest.raises(PhysicsError):
            nonrelativistic_pauli_state(st)

    def test_pauli_state_guides_straight_line(self):
        """The Pauli state is a guidance source (spin branch): a single
        term has uniform density, no spin current, and moves at p / m."""
        p = np.array([0.04, 0.01, -0.03])
        st = PlaneWaveSpinorState((one(0.6, p, +1, 1),), mass=0.9)
        src = ParametricVelocity(nonrelativistic_pauli_state(st),
                                 spin=SpinSpec(0.5, g=2.0))
        rec = integrate_trajectory(BeableConfig(positions=np.zeros((1, 3))),
                                   src, 3.0, IntegrationControls(dt=0.05))
        assert rec.status == "ok"
        np.testing.assert_allclose(rec.configs[-1], 3.0 * p / 0.9, atol=1e-12)


class TestTrajectories:
    def test_plane_wave_straight_line(self):
        p = np.array([0.6, -0.2, 0.1])
        m = 0.9
        st = PlaneWaveSpinorState((one(1.0, p),), mass=m)

        class Source:
            domain = None

            def velocity(self, configs, t, rho_floor_rel=1e-12):
                v, _ = dirac_velocity(st, configs, t)
                return np.atleast_2d(v)

        rec = integrate_trajectory(BeableConfig(positions=np.zeros((1, 3))),
                                   Source(), 4.0, IntegrationControls(dt=0.02))
        e = np.sqrt(p @ p + m * m)
        np.testing.assert_allclose(rec.configs[-1], 4.0 * p / e, atol=1e-12)


def test_bad_inputs():
    with pytest.raises(ConfigurationError):
        free_spinor([0, 0, 0], 1.0, 0, 0)
    with pytest.raises(ShapeError):
        PlaneWaveSpinorState((), mass=1.0)
