"""DKP / Harish-Chandra states: constraints, causality, reductions."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

import strategies as rs

from pilotwave import dkp
from pilotwave.dkp import (TIME_OBSERVER, DkpState, ObserverVector,
                           build_dkp_state, charge_current,
                           constraint_residual, dkp2_velocity,
                           energy_momentum_current, nonrel_limit_check,
                           reduced_nonrel_state, theta_tensor,
                           total_energy_momentum)
from pilotwave.errors import (ConfigurationError, DegenerateObserverError,
                              DomainError, InvariantViolationError,
                              NodeError, PhysicsError, ShapeError)
from pilotwave.guide import (BeableConfig, IntegrationControls,
                            ParametricVelocity, integrate_trajectory)
from pilotwave.matrices import METRIC, build_matrix_set


def spin0_state(specs, mass=1.0, massless=False):
    return build_dkp_state("spin0", mass, specs, massless=massless)


def spin1_state(specs, mass=1.0, massless=False):
    return build_dkp_state("spin1", mass, specs, massless=massless)


class TestConstruction:
    def test_spin0_component_pattern(self):
        """Single plane wave: components m^{-1/2}(-iE, ip, m) phi."""
        p = np.array([0.3, -0.4, 0.5])
        m = 1.7
        st = spin0_state([{"coef": 1.0, "p": p}], mass=m)
        e = np.sqrt(p @ p + m * m)
        expected = np.concatenate(([-1j * e], 1j * p, [m])) / np.sqrt(m)
        np.testing.assert_allclose(st.terms[0][3], expected, rtol=1e-14)
        assert constraint_residual(st) < 1e-14

    def test_generic_vector_off_constraint_surface(self):
        """A random 5-component vector is not annihilated by the
        constraint operator (expected rejection of generic input)."""
        mats = build_matrix_set("dkp5")
        rng = np.random.default_rng(0)
        vec = rng.normal(size=5) + 1j * rng.normal(size=5)
        res = mats.constraint_residual_op(rng.normal(size=3), 1.0) @ vec
        assert np.max(np.abs(res)) > 1e-3

    def test_off_shell_rejected(self):
        with pytest.raises(PhysicsError):
            build_dkp_state("spin0", 1.0, [{"coef": 1, "p": [0.3, 0, 0], "E": 2.0}])

    def test_unknown_rep_rejected(self):
        with pytest.raises(ConfigurationError):
            build_dkp_state("spin2", 1.0, [])

    @pytest.mark.parametrize("p", [[0.3, 0.0], [[0.3, 0.0, 0.1]], 0.3])
    def test_momentum_of_wrong_shape_is_a_shape_error(self, p):
        with pytest.raises(ShapeError, match="3-vector"):
            build_dkp_state("spin0", 1.0, [{"coef": 1.0, "p": p}])

    def test_components_off_the_constraint_are_an_invariant_violation(
            self, monkeypatch):
        """A term whose components miss the constraint surface is a bug
        in the construction, not in the caller's input."""
        build = dkp._spin0_components
        monkeypatch.setattr(dkp, "_spin0_components",
                            lambda p, e, m: build(p, e, m) + 1e-6)
        with pytest.raises(InvariantViolationError, match="construction bug"):
            spin0_state([{"coef": 1.0, "p": [0.3, -0.4, 0.5]}])

    def test_massless_spin1_projection(self):
        """gamma psi keeps exactly the six field components (-E, B) and
        zeroes the mass-dependent ones."""
        p = np.array([0.0, 0.0, 1.3])
        st = spin1_state([{"coef": 1.0, "p": p, "polarization": [1.0, 0.0, 0.0]}],
                         mass=1.0, massless=True)
        psi = st.evaluate(np.zeros((1, 3)), 0.0)[:, 0]
        proj = st.mats.gamma_proj @ psi
        np.testing.assert_allclose(proj[:6], psi[:6], rtol=1e-14)
        np.testing.assert_allclose(proj[6:], 0.0, atol=1e-15)
        assert np.max(np.abs(psi[6:])) > 0      # the full state does carry them

    def test_massless_needs_transverse_polarization(self):
        with pytest.raises(PhysicsError):
            spin1_state([{"coef": 1.0, "p": [0, 0, 1.0],
                          "polarization": [0, 0, 1.0]}], massless=True)

    def test_every_component_on_klein_gordon_shell(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.normal(size=3)
            m = rng.uniform(0.3, 2)
            st = spin0_state([{"coef": 1.0, "p": p}], mass=m)
            _, pp, e, _ = st.terms[0]
            assert abs(e**2 - (pp @ pp + m * m)) < 1e-12


class TestEnergyMomentumCurrent:
    def test_single_wave_velocity_p_over_e_and_kg_oracle(self):
        """v = p/E, matching the Klein-Gordon tensor ratio 2Ep/(2E^2) by
        on-shell substitution."""
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = rng.normal(size=3)
            m = rng.uniform(0.4, 2.0)
            st = spin0_state([{"coef": 1.0, "p": p}], mass=m)
            e = np.sqrt(p @ p + m * m)
            j, v = energy_momentum_current(st, TIME_OBSERVER,
                                           rng.normal(size=3), 0.3)
            v = v[0]
            np.testing.assert_allclose(v, p / e, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(v, 2 * e * p / (2 * e * e), rtol=1e-12,
                                       atol=1e-12)

    def test_rest_state_static(self):
        st = spin0_state([{"coef": 1.0, "p": [0.0, 0.0, 0.0]}], mass=1.0)
        _, v = energy_momentum_current(st, TIME_OBSERVER, [0.2, 0.1, -0.3], 1.0)
        np.testing.assert_allclose(v, 0.0, atol=1e-14)

    def test_theta00_is_m_psisq(self):
        rng = np.random.default_rng(3)
        st = spin1_state([{"coef": 0.7 + 0.2j, "p": rng.normal(size=3),
                           "polarization": rng.normal(size=3)},
                          {"coef": 1.1, "p": rng.normal(size=3),
                           "polarization": rng.normal(size=3) * 1j}], mass=1.3)
        pts = rng.normal(size=(20, 3))
        th = theta_tensor(st, pts, 0.2)
        psi = st.evaluate(pts, 0.2)
        rho = np.real(np.einsum("sn,sn->n", psi.conj(), psi))
        np.testing.assert_allclose(th[:, 0, 0], 1.3 * rho, rtol=1e-12)

    @pytest.mark.parametrize("rep,massless", [("spin0", False), ("spin1", False),
                                              ("spin0", True), ("spin1", True)])
    def test_causality_random_states(self, rep, massless):
        """10^4 random evaluations: j^0 >= 0, j.j >= 0, |v| <= 1."""
        rng = np.random.default_rng(hash((rep, massless)) % 2**32)
        checked = 0
        while checked < 10_000:
            specs = []
            for _ in range(rng.integers(1, 4)):
                spec = {"coef": rng.normal() + 1j * rng.normal(),
                        "p": rng.normal(size=3) * rng.uniform(0.2, 3)}
                if rep == "spin1":
                    pol = rng.normal(size=3) + 1j * rng.normal(size=3)
                    if massless:
                        pol -= spec["p"] * (spec["p"] @ pol) / (spec["p"] @ spec["p"])
                    spec["polarization"] = pol
                specs.append(spec)
            st = build_dkp_state(rep, rng.uniform(0.4, 2), specs,
                                 massless=massless)
            nvec = np.array([1.0, 0, 0, 0])
            if rng.random() < 0.5:
                sp = rng.normal(size=3)
                nvec = np.concatenate([[np.linalg.norm(sp) + rng.uniform(0, 1)], sp])
            pts = rng.normal(size=(100, 3)) * 2
            try:
                j, v = energy_momentum_current(st, ObserverVector(nvec), pts, 0.7)
            except NodeError:
                continue
            assert np.all(j[:, 0] >= 0)
            minkowski = j[:, 0] ** 2 - np.sum(j[:, 1:] ** 2, axis=-1)
            assert np.all(minkowski >= -1e-10 * j[:, 0] ** 2)
            assert np.all(np.sum(v**2, axis=-1) <= 1 + 1e-10)
            checked += len(pts)

    @pytest.mark.parametrize("rep", ["spin0", "spin1"])
    def test_normalization_independence(self, rep):
        """Scaling every coefficient by one complex factor leaves the
        energy-flow velocities unchanged (spin0 ignores the polarization)."""
        rng = np.random.default_rng(9)
        specs = [{"coef": rng.normal() + 1j * rng.normal(),
                  "p": rng.normal(size=3),
                  "polarization": rng.normal(size=3) + 1j * rng.normal(size=3)}
                 for _ in range(3)]
        scaled = [dict(spec, coef=spec["coef"] * (17.0 - 4.0j))
                  for spec in specs]
        pts = rng.normal(size=(10, 3))
        _, v1 = energy_momentum_current(build_dkp_state(rep, 0.9, specs),
                                        TIME_OBSERVER, pts, 0.4)
        _, v2 = energy_momentum_current(build_dkp_state(rep, 0.9, scaled),
                                        TIME_OBSERVER, pts, 0.4)
        np.testing.assert_allclose(v1, v2, rtol=1e-12)

    def test_bad_observer_rejected(self):
        """Spacelike, past-directed and non-finite vectors; a non-finite
        one is refused before n.n is formed, with no RuntimeWarning."""
        with pytest.raises(PhysicsError):
            ObserverVector(np.array([1.0, 2.0, 0.0, 0.0]))   # spacelike
        with pytest.raises(PhysicsError):
            ObserverVector(np.array([-1.0, 0.0, 0.0, 0.0]))  # past-directed
        for n in ([1.0, np.nan, 0.0, 0.0], [1.0, np.inf, 0.0, 0.0],
                  [1.0, 0.0, -np.inf, 0.0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(PhysicsError):
                    ObserverVector(np.array(n))

    def test_nan_point_is_a_domain_error(self):
        """A NaN point makes the bilinears NaN: refused before the sign,
        floor and causality tests, for one particle and for two."""
        state = spin0_state([{"p": [0.1, 0.0, 0.0]}])
        nan, zero = [[np.nan, 0.0, 0.0]], [[0.0, 0.0, 0.0]]
        with pytest.raises(DomainError):
            energy_momentum_current(state, TIME_OBSERVER, nan, 0.0)
        for x1, x2 in ((nan, zero), (zero, nan)):
            with pytest.raises(DomainError):
                dkp2_velocity(state, state, x1, x2, 0.0)


class TestTotalEnergyMomentum:
    def test_single_wave_direction(self):
        p = np.array([0.5, 0.0, 0.0])
        m = 1.0
        st = spin0_state([{"coef": 1.0, "p": p}], mass=m)
        e = np.sqrt(p @ p + m * m)
        box = [(0, 2 * np.pi / 0.5)] * 1 + [(0, 1.0), (0, 1.0)]
        p_mu, obs = total_energy_momentum(st, box)
        np.testing.assert_allclose(p_mu / p_mu[0], np.concatenate([[e], p]) / e,
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(obs.n, np.concatenate([[e], p]) / m, rtol=1e-10)

    def test_equals_theta_tensor_column_sum(self):
        """P^mu is the box sum of the Theta^{mu 0} column of theta_tensor."""
        st = spin1_state([{"coef": 1.0, "p": [1.0, 0.0, -1.0],
                           "polarization": [0.3, 1.0j, 0.2]},
                          {"coef": 0.5j, "p": [0.0, 2.0, 0.0],
                           "polarization": [1.0, 0.0, 0.4j]}])
        box = [(0.0, 2 * np.pi)] * 3
        p_mu, _ = total_energy_momentum(st, box, points_per_axis=16)
        axes = [np.linspace(0.0, 2 * np.pi, 16, endpoint=False)] * 3
        pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                       axis=-1)
        th = theta_tensor(st, pts, 0.0)
        expected = th[:, :, 0].sum(axis=0) * (2 * np.pi / 16) ** 3
        np.testing.assert_allclose(p_mu, expected, rtol=0,
                                   atol=1e-12 * np.max(np.abs(expected)))

    def test_rest_state_observer(self):
        st = spin0_state([{"coef": 1.0, "p": [0, 0, 0]}], mass=1.0)
        _, obs = total_energy_momentum(st, [(0, 1), (0, 1), (0, 1)])
        np.testing.assert_allclose(obs.n, [1, 0, 0, 0], atol=1e-12)

    def test_opposite_momenta_cancel(self):
        p = np.array([1.0, 0.0, 0.0])
        st = spin0_state([{"coef": 1.0, "p": p}, {"coef": 1.0, "p": -p}], mass=1.0)
        box = [(0, np.pi / 1.0), (0, 1.0), (0, 1.0)]   # period of e^{2ipx}
        p_mu, _ = total_energy_momentum(st, box)
        np.testing.assert_allclose(p_mu[1:] / p_mu[0], 0.0, atol=1e-8)

    def test_degenerate_observer_flagged(self):
        # massless single wave: P is exactly null, no timelike observer
        st = spin0_state([{"coef": 1.0, "p": [5.0, 0, 0]}], mass=1.0,
                         massless=True)
        with pytest.raises(DegenerateObserverError):
            total_energy_momentum(st, [(0, 2 * np.pi / 5.0), (0, 1), (0, 1)])


class TestTotalEnergyMomentumPairSum:
    @given(rs.boxed_dkp_states())
    def test_equals_node_sum(self, case):
        """The pair sum is the trapezoid node sum of the Theta^{mu 0}
        column, on and off the box's momentum lattice."""
        state, box, n = case
        p_mu, _ = total_energy_momentum(state, box, points_per_axis=n)
        axes = [np.linspace(lo, hi, n, endpoint=False) for lo, hi in box]
        pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                       axis=-1)
        cell = np.prod([(hi - lo) / n for lo, hi in box])
        expected = theta_tensor(state, pts, 0.0)[:, :, 0].sum(axis=0) * cell
        np.testing.assert_allclose(p_mu, expected, rtol=0,
                                   atol=1e-12 * np.max(np.abs(expected)))

    def test_no_node_grid(self):
        """A 64^3 spin-1 call stays below 1 MB of allocations; evaluating
        this state on the 64^3 nodes took 77 MB."""
        st = spin1_state([{"coef": 1.0, "p": [1.0, 0.0, -1.0],
                           "polarization": [0.3, 1.0j, 0.2]},
                          {"coef": 0.5j, "p": [0.0, 2.0, 0.0],
                           "polarization": [1.0, 0.0, 0.4j]},
                          {"coef": -0.7, "p": [0.4, -1.3, 0.8],
                           "polarization": [0.0, 1.0, 1.0j]}])
        tracemalloc.start()
        try:
            total_energy_momentum(st, [(0.0, 2 * np.pi)] * 3,
                                  points_per_axis=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_box_of_wrong_dimension_rejected(self):
        st = spin0_state([{"coef": 1.0, "p": [1.0, 0.0, 0.0]}])
        with pytest.raises(ShapeError):
            total_energy_momentum(st, [(0.0, 2 * np.pi)] * 2)


class TestNonRelLimit:
    def test_spin0_deviation_small_at_eps_0p1(self):
        devs = nonrel_limit_check("spin0", [0.1])
        assert devs[0] < 1e-2

    @pytest.mark.parametrize("rep", ["spin0", "spin1"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_quadratic_trend(self, rep, seed):
        devs = nonrel_limit_check(rep, [0.2, 0.1, 0.05], seed=seed)
        assert devs[1] <= 0.35 * devs[0]
        assert devs[2] <= 0.35 * devs[1]
        assert devs[0] > devs[1] > devs[2]

    def test_rest_state_exact(self):
        st = spin0_state([{"coef": 1.0, "p": [0, 0, 0]}], mass=1.0)
        from pilotwave.currents import SpinSpec, current
        from pilotwave.dkp import reduced_nonrel_state
        _, v = energy_momentum_current(st, TIME_OBSERVER, [0.1, 0.2, 0.3], 0.5)
        red = reduced_nonrel_state(st)
        f = current(red, SpinSpec(0), at=[[0.1, 0.2, 0.3]], t=0.5)
        np.testing.assert_allclose(v, 0.0, atol=1e-15)
        np.testing.assert_allclose(f.j[0], 0.0, atol=1e-15)

    def test_reduced_state_guides_straight_line(self):
        """The reduced state is a guidance source: a single term moves at
        p / m in a straight line."""
        p = np.array([0.05, -0.02, 0.03])
        st = spin0_state([{"coef": 0.7j, "p": p}], mass=1.4)
        rec = integrate_trajectory(BeableConfig(positions=np.zeros((1, 3))),
                                   ParametricVelocity(reduced_nonrel_state(st)),
                                   3.0, IntegrationControls(dt=0.05))
        assert rec.status == "ok"
        np.testing.assert_allclose(rec.configs[-1], 3.0 * p / 1.4, atol=1e-12)


@pytest.mark.parametrize("seed", [888491463, 842995083, 760394868])
def test_quadratic_trend_with_a_sample_point_near_a_node(seed):
    """Draws whose sample holds a point near a spin-0 density node: v_NR
    = j / rho is large there and its eps^2 law has not set in by eps =
    0.05, so the worst point fails the trend, but the median point does
    not."""
    devs = nonrel_limit_check("spin0", [0.2, 0.1, 0.05], seed=seed)
    assert devs[1] <= 0.35 * devs[0]
    assert devs[2] <= 0.35 * devs[1]
    assert devs[0] > devs[1] > devs[2]


class TestTwoParticle:
    def test_product_state_reduces(self):
        rng = np.random.default_rng(5)
        sa = spin0_state([{"coef": 1.0, "p": rng.normal(size=3)}], mass=1.2)
        sb = spin0_state([{"coef": 1.0, "p": rng.normal(size=3)}], mass=1.2)
        x1, x2 = rng.normal(size=3), rng.normal(size=3)
        v1, v2 = dkp2_velocity(sa, sb, x1, x2, 0.4)
        _, va = energy_momentum_current(sa, TIME_OBSERVER, x1, 0.4)
        _, vb = energy_momentum_current(sb, TIME_OBSERVER, x2, 0.4)
        np.testing.assert_allclose(v1, va, atol=1e-10)
        np.testing.assert_allclose(v2, vb, atol=1e-10)

    def test_product_state_reduces_spin1_general_observer(self):
        rng = np.random.default_rng(6)
        mk = lambda: spin1_state(
            [{"coef": rng.normal() + 1j * rng.normal(), "p": rng.normal(size=3),
              "polarization": rng.normal(size=3) + 1j * rng.normal(size=3)}
             for _ in range(2)], mass=0.9)
        sa, sb = mk(), mk()
        sp = rng.normal(size=3) * 0.3
        a = ObserverVector(np.concatenate([[1.2 + np.linalg.norm(sp)], sp]))
        x1, x2 = rng.normal(size=3), rng.normal(size=3)
        v1, v2 = dkp2_velocity(sa, sb, x1, x2, 0.1, a=a)
        _, va = energy_momentum_current(sa, a, x1, 0.1)
        _, vb = energy_momentum_current(sb, a, x2, 0.1)
        np.testing.assert_allclose(v1, va, atol=1e-10)
        np.testing.assert_allclose(v2, vb, atol=1e-10)

    def test_symmetrized_identical_equal_velocities_at_coincidence(self):
        rng = np.random.default_rng(7)
        st = spin0_state([{"coef": 1.0, "p": rng.normal(size=3)},
                          {"coef": 0.6j, "p": rng.normal(size=3)}], mass=1.0)
        x = rng.normal(size=3)
        v1, v2 = dkp2_velocity(st, st, x, x, 0.3, symmetrized=True)
        np.testing.assert_allclose(v1, v2, atol=1e-12)

    def test_random_entangled_future_causal(self):
        """j^{0 mu_r 0} future-causal per particle over 10^3 points."""
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 1000:
            mk = lambda: spin0_state(
                [{"coef": rng.normal() + 1j * rng.normal(),
                  "p": rng.normal(size=3)} for _ in range(2)],
                mass=rng.uniform(0.5, 1.5))
            sa, sb = mk(), mk()
            try:
                v1, v2 = dkp2_velocity(sa, sb, rng.normal(size=(50, 3)),
                                       rng.normal(size=(50, 3)), 0.2,
                                       symmetrized=True)
            except NodeError:
                continue
            assert np.all(1.0 - np.sum(v1**2, axis=-1) >= -1e-10)
            assert np.all(1.0 - np.sum(v2**2, axis=-1) >= -1e-10)
            checked += 50


def _dkp2_four_operand(sa, sb, x1, x2, t, low, symmetrized):
    """Reference j^{mu1 mu2} contraction: the rank-4 einsum over the
    (dim, dim, n) pair amplitude, one bilinear at a time."""
    mats = sa.mats
    b, eye = mats.generators, np.eye(mats.dim)

    def g(st):
        return [st.mass * sum(
            mats.eta0 @ (b[mu] @ b[nu] + b[nu] @ b[mu] - METRIC[mu, nu] * eye)
            * low[nu] for nu in range(4)) for mu in range(4)]

    def proj(v):
        return mats.gamma_proj @ v if sa.massless else v

    def amp(y1, y2):
        return np.einsum("sn,tn->stn", proj(sa.evaluate(y1, t)),
                         proj(sb.evaluate(y2, t)))

    psi = amp(x1, x2)
    if symmetrized:
        psi = (psi + np.transpose(amp(x2, x1), (1, 0, 2))) / np.sqrt(2.0)
    ga, gb = g(sa), g(sb)

    def bilinear(mu1, mu2):
        return np.real(np.einsum("stn,su,tv,uvn->n", psi.conj(),
                                 ga[mu1], gb[mu2], psi))

    j00 = bilinear(0, 0)
    return (np.stack([bilinear(i, 0) for i in (1, 2, 3)], axis=-1) / j00[:, None],
            np.stack([bilinear(0, i) for i in (1, 2, 3)], axis=-1) / j00[:, None])


@pytest.mark.parametrize("rep", ["spin0", "spin1"])
@pytest.mark.parametrize("massless", [False, True])
@pytest.mark.parametrize("symmetrized", [False, True])
def test_dkp2_velocity_matches_four_operand_contraction(rep, massless,
                                                        symmetrized):
    rng = np.random.default_rng(12)

    def mk():
        specs = []
        for _ in range(2):
            p = rng.normal(size=3)
            spec = {"coef": rng.normal() + 1j * rng.normal(), "p": p}
            pol = rng.normal(size=3) + 1j * rng.normal(size=3)
            spec["polarization"] = pol - p * (p @ pol) / (p @ p)
            specs.append(spec)
        return build_dkp_state(rep, 0.8, specs, massless=massless)

    sa, sb = mk(), mk()
    sp = rng.normal(size=3) * 0.4
    a = ObserverVector(np.concatenate([[1.1 + np.linalg.norm(sp)], sp]))
    x1, x2 = rng.normal(size=(40, 3)), rng.normal(size=(40, 3))
    got = dkp2_velocity(sa, sb, x1, x2, 0.3, a=a, symmetrized=symmetrized)
    ref = _dkp2_four_operand(sa, sb, x1, x2, 0.3, a.lower, symmetrized)
    for g, r in zip(got, ref):
        np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-14)


def test_dkp2_velocity_forms_no_pair_amplitude():
    """One symmetrized call on 1,000 spin-1 pairs peaks below four times
    the (100, 1000) complex pair amplitude, 6.4 MB: each particle's field
    is contracted on its own."""
    rng = np.random.default_rng(13)

    def mk():
        return spin1_state([
            {"coef": rng.normal() + 1j * rng.normal(), "p": rng.normal(size=3),
             "polarization": rng.normal(size=3) + 1j * rng.normal(size=3)}
            for _ in range(2)])

    sa, sb = mk(), mk()
    x1, x2 = rng.normal(size=(1000, 3)), rng.normal(size=(1000, 3))
    tracemalloc.start()
    try:
        dkp2_velocity(sa, sb, x1, x2, 0.3, symmetrized=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 100 * 1000 * 16


class TestCausalityProperties:
    """j^0 >= 0 and |v| <= 1 over random states and causal observers."""

    @given(data=st.data(), kind=rs.dkp_kinds(), n=rs.observers(),
           pts=rs.points, t=rs.times)
    def test_energy_momentum_current(self, data, kind, n, pts, t):
        state = data.draw(rs.dkp_states(*kind))
        try:
            j, v = energy_momentum_current(state, n, pts, t)
        except NodeError:
            reject()
        assert np.all(j[:, 0] >= 0)
        assert np.all(np.sum(v**2, axis=-1) <= 1 + 1e-10)

    @given(data=st.data(), kind=rs.dkp_kinds(), a=rs.observers(),
           x1=rs.points, x2=rs.points, t=rs.times, symmetrized=st.booleans())
    def test_dkp2_velocity(self, data, kind, a, x1, x2, t, symmetrized):
        sa = data.draw(rs.dkp_states(*kind))
        sb = data.draw(rs.dkp_states(*kind))
        try:
            # raises InvariantViolationError if j^{00} < 0 anywhere
            v1, v2 = dkp2_velocity(sa, sb, x1, x2, t, a=a,
                                   symmetrized=symmetrized)
        except NodeError:
            reject()
        for v in (v1, v2):
            assert np.all(np.sum(v**2, axis=-1) <= 1 + 1e-10)


class TestConstraintProperty:
    @given(data=st.data(), kind=rs.dkp_kinds())
    def test_built_states_satisfy_the_constraint(self, data, kind):
        assert constraint_residual(data.draw(rs.dkp_states(*kind))) <= 1e-10


class TestChargeCurrentDiagnostic:
    def test_charge_density_goes_negative(self):
        """Two positive-energy waves with unequal weights make s^0 < 0
        somewhere: the charge current admits no particle reading."""
        m = 1.0
        p1 = np.array([0.3, 0, 0])
        p2 = np.array([3.0, 0, 0])
        e1 = np.sqrt(p1 @ p1 + m * m)
        e2 = np.sqrt(p2 @ p2 + m * m)
        r = (e2 / e1) ** 0.25
        st = spin0_state([{"coef": r, "p": p1}, {"coef": 1.0 / r, "p": p2}],
                         mass=m)
        xs = np.stack([np.linspace(0, 2 * np.pi / (p2[0] - p1[0]), 200),
                       np.zeros(200), np.zeros(200)], axis=-1)
        s = charge_current(st, xs, 0.0)
        assert np.min(s[:, 0]) < -1e-3          # locally negative density
        # while the energy density stays nonnegative everywhere
        th = theta_tensor(st, xs, 0.0)
        assert np.min(th[:, 0, 0]) >= -1e-12
