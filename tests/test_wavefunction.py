"""Core states: families, grid interpolation, evaluation contracts."""

import inspect

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

import strategies as rs
from pilotwave import families
from pilotwave.currents import SpinSpec, configuration_velocity
from pilotwave.dkp import build_dkp_state
from pilotwave.errors import (ConfigurationError, DomainError, ShapeError,
                              UnsupportedFamilyError)
from pilotwave.families import family_names, get_family
from pilotwave.grid import Grid
from pilotwave.guide import ParametricVelocity
from pilotwave.reldirac import PlaneWaveSpinorState, free_spinor
from pilotwave.wavefunction import (GridWaveFunction, ParametricWaveFunction,
                                    grid_gradient)


def gaussian_1d(**kw):
    params = dict(center=[0.0], sigma=1.0, k0=[0.0], m=1.0)
    params.update(kw)
    return ParametricWaveFunction("gaussian_packet", params, masses=[params["m"]])


class TestPlaneWave:
    def test_phase_zero_at_origin(self):
        psi = ParametricWaveFunction("plane_wave", {"k": [2.0], "m": 1.0}, [1.0])
        v = psi.evaluate([0.0])[:, 0]
        assert v.shape == (1,)
        np.testing.assert_allclose(v[0], 1.0 + 0.0j, atol=1e-15)

    def test_unit_modulus_everywhere(self):
        psi = ParametricWaveFunction("plane_wave", {"k": [1.0, -2.0, 0.5], "m": 2.0},
                                     [2.0], time=1.3)
        pts = np.random.default_rng(0).normal(size=(50, 3))
        np.testing.assert_allclose(np.abs(psi.evaluate(pts)), 1.0, rtol=1e-14)

    def test_gradient_is_ik_psi(self):
        k = np.array([1.0, -2.0, 0.5])
        psi = ParametricWaveFunction("plane_wave", {"k": k, "m": 2.0}, [2.0])
        pts = np.random.default_rng(1).normal(size=(10, 3))
        g = psi.gradient(pts)
        v = psi.evaluate(pts)
        np.testing.assert_allclose(g, 1j * k[None, :, None] * v[:, None, :],
                                   rtol=1e-13)


class TestGaussianPacket:
    def test_matches_schrodinger_equation(self):
        """Finite-difference check that the closed form solves the free TDSE."""
        psi = gaussian_1d(center=[0.3], sigma=0.8, k0=[1.1])
        pts = np.linspace(-2.5, 3.5, 41)[:, None]
        t0, dt, dx = 0.7, 1e-5, 1e-4
        val = lambda t, x: psi.evaluate(x, t=t)[0]
        dpsi_dt = (val(t0 + dt, pts) - val(t0 - dt, pts)) / (2 * dt)
        lap = (val(t0, pts + dx) - 2 * val(t0, pts) + val(t0, pts - dx)) / dx**2
        residual = 1j * dpsi_dt + 0.5 * lap     # hbar = m = 1
        assert np.max(np.abs(residual)) < 1e-5

    def test_dispersion_of_width(self):
        """Position variance grows as sigma^2 (1 + (hbar t / 2 m sigma^2)^2)."""
        sigma, m, t = 0.6, 1.4, 2.0
        psi = gaussian_1d(sigma=sigma, m=m)
        x = np.linspace(-40, 40, 20001)[:, None]
        rho = psi.density(x, t=t)
        rho /= np.trapezoid(rho, x[:, 0])
        var = np.trapezoid(rho * x[:, 0] ** 2, x[:, 0])
        expected = sigma**2 * (1 + (t / (2 * m * sigma**2)) ** 2)
        np.testing.assert_allclose(var, expected, rtol=1e-6)

    def test_drift(self):
        psi = gaussian_1d(k0=[2.0], m=0.5)
        x = np.linspace(-30, 60, 30001)[:, None]
        t = 3.0
        rho = psi.density(x, t=t)
        mean = np.trapezoid(rho * x[:, 0], x[:, 0]) / np.trapezoid(rho, x[:, 0])
        np.testing.assert_allclose(mean, 2.0 * t / 0.5, rtol=1e-8)


class TestDecayingPair:
    def test_value_at_coincidence_is_prefactor(self):
        # alpha=1, mu=1/2 (m1=m2=1), hbar=1, t=0, x1=x2 -> N (pi hbar / alpha)^{3/2}
        psi = ParametricWaveFunction(
            "decaying_pair", {"alpha": 1.0, "m1": 1.0, "m2": 1.0, "d": 3}, [1.0, 1.0])
        v = psi.evaluate([0.2, -0.1, 0.4, 0.2, -0.1, 0.4])[:, 0]
        np.testing.assert_allclose(v[0], np.pi ** 1.5, rtol=1e-13)

    def test_density_depends_on_separation_only(self):
        psi = ParametricWaveFunction(
            "decaying_pair", {"alpha": 0.5, "m1": 1.0, "m2": 3.0, "d": 1}, [1.0, 3.0],
            time=0.8)
        a = psi.density(np.array([[0.3, 0.1]]))
        b = psi.density(np.array([[5.3, 5.1]]))
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_total_momentum_annihilates_wave(self):
        """(d/dx1 + d/dx2) psi = 0: the wave depends only on x1 - x2."""
        psi = ParametricWaveFunction(
            "decaying_pair", {"alpha": 0.7, "m1": 1.0, "m2": 2.0, "d": 3},
            [1.0, 2.0], time=1.1)
        pts = np.random.default_rng(3).normal(size=(20, 6))
        h = 1e-5
        for a in range(3):
            e = np.zeros(6)
            e[a] = h
            e[a + 3] = h
            fd = (psi.evaluate(pts + e) - psi.evaluate(pts - e)) / (2 * h)
            assert np.max(np.abs(fd)) < 1e-8

    def test_width_envelope_grows_linearly_at_late_times(self):
        psi = ParametricWaveFunction(
            "decaying_pair", {"alpha": 0.1, "m1": 1.0, "m2": 1.0, "d": 1}, [1.0, 1.0])
        # |psi|^2 at fixed separation relative to peak follows the complex width
        def width(t):
            beta = 0.1 + 0.5j * t / 0.5
            return abs(beta)
        assert width(200.0) / width(100.0) == pytest.approx(2.0, rel=1e-3)


class TestSuperpositionAndSpinor:
    def test_superposition_linear(self):
        p1 = {"k": [1.0], "m": 1.0}
        p2 = {"k": [-2.0], "m": 1.0}
        sup = ParametricWaveFunction(
            "superposition",
            {"components": [(0.5, "plane_wave", p1), (0.5j, "plane_wave", p2)]},
            [1.0], time=0.3)
        w1 = ParametricWaveFunction("plane_wave", p1, [1.0], time=0.3)
        w2 = ParametricWaveFunction("plane_wave", p2, [1.0], time=0.3)
        pts = np.linspace(-1, 1, 7)[:, None]
        np.testing.assert_allclose(
            sup.evaluate(pts), 0.5 * w1.evaluate(pts) + 0.5j * w2.evaluate(pts),
            rtol=1e-14)

    def test_spinor_product_shape(self):
        psi = ParametricWaveFunction(
            "spinor_product",
            {"scalar": "gaussian_packet",
             "scalar_params": {"center": [0.0, 0.0], "sigma": 1.0, "k0": [0.0, 0.0],
                               "m": 1.0},
             "chi": [1.0, 0.0]},
            [1.0])
        assert psi.spin_dim == 2
        v = psi.evaluate(np.zeros((3, 2)))
        assert v.shape == (2, 3)
        np.testing.assert_allclose(v[1], 0.0)


def _sum_params(wave):
    """The `plane_wave_sum` params of a state's bound sum."""
    return {"k": wave.k, "omega": wave.omega, "amps": wave.amps}


def _dirac_one():
    rng = np.random.default_rng(11)
    terms = tuple((rng.normal() + 1j * rng.normal(), rng.normal(size=3),
                   sign, lab) for sign, lab in ((1, 0), (-1, 1), (1, 1)))
    st = PlaneWaveSpinorState(terms, mass=0.8)

    def reference(x, t):
        out = np.zeros((4, len(x)), dtype=complex)
        for c, p, sign, lab in terms:
            u, e = free_spinor(p, 0.8, sign, lab)
            out += c * u[:, None] * np.exp(1j * (x @ p - e * t))[None, :]
        return out
    return _sum_params(st.wave), st.amplitude, reference


def _dirac_two_antisymmetrized():
    rng = np.random.default_rng(12)
    terms = tuple((rng.normal() + 1j * rng.normal(),
                   (rng.normal(size=3), 1, 0), (rng.normal(size=3), -1, 1))
                  for _ in range(2))
    st = PlaneWaveSpinorState(terms, mass=1.1, n_particles=2).antisymmetrized()

    def reference(x, t):
        out = np.zeros((16, len(x)), dtype=complex)
        for c, one, two in st.terms:
            (u1, e1), (u2, e2) = (free_spinor(p, 1.1, sign, lab)
                                  for p, sign, lab in (one, two))
            phase = np.exp(1j * (x[:, :3] @ one[0] + x[:, 3:] @ two[0]
                                 - (e1 + e2) * t))
            out += c * np.kron(u1, u2)[:, None] * phase[None, :]
        return out
    return _sum_params(st.wave), st.amplitude, reference


def _dkp_spin1():
    rng = np.random.default_rng(13)
    st = build_dkp_state("spin1", 1.3, [
        {"coef": rng.normal() + 1j * rng.normal(), "p": rng.normal(size=3),
         "polarization": rng.normal(size=3) + 1j * rng.normal(size=3)}
        for _ in range(3)])

    def reference(x, t):
        out = np.zeros((10, len(x)), dtype=complex)
        for c, p, e, comp in st.terms:
            out += c * comp[:, None] * np.exp(1j * (x @ p - e * t))[None, :]
        return out
    return _sum_params(st.wave), st.evaluate, reference


PLANE_WAVE_SUMS = [_dirac_one, _dirac_two_antisymmetrized, _dkp_spin1]


class TestPlaneWaveSum:
    """The `plane_wave_sum` family against per-term sums written out here."""

    @pytest.mark.parametrize("make", PLANE_WAVE_SUMS)
    def test_evaluate_matches_per_term_sum(self, make):
        params, own, reference = make()
        wave = ParametricWaveFunction("plane_wave_sum", params, [1.0])
        x = np.random.default_rng(0).normal(size=(40, wave.config_dim))
        got = wave.evaluate(x, 0.7)
        ref = reference(x, 0.7)
        assert got.flags.c_contiguous
        np.testing.assert_allclose(got, ref, rtol=0,
                                   atol=1e-13 * np.max(np.abs(ref)))
        # the state evaluates through the same sum; its own time is the default
        np.testing.assert_array_equal(own(x, 0.7), got)
        np.testing.assert_array_equal(wave.at_time(0.7).evaluate(x), got)

    @pytest.mark.parametrize("make", PLANE_WAVE_SUMS)
    def test_gradient_matches_central_difference(self, make):
        params, _, _ = make()
        wave = ParametricWaveFunction("plane_wave_sum", params, [1.0])
        x = np.random.default_rng(1).normal(size=(20, wave.config_dim))
        h = 1e-6
        fd = np.stack([(wave.evaluate(x + h * e, 0.3)
                        - wave.evaluate(x - h * e, 0.3)) / (2 * h)
                       for e in np.eye(wave.config_dim)], axis=1)
        grad = wave.gradient(x, 0.3)
        assert grad.shape == (wave.spin_dim, wave.config_dim, len(x))
        np.testing.assert_allclose(grad, fd, rtol=0,
                                   atol=1e-7 * np.max(np.abs(grad)))

    def test_in_phase_density_is_squared_sum_of_moduli(self):
        params, _, _ = _dirac_one()
        wave = ParametricWaveFunction("plane_wave_sum", params, [0.8])
        x = np.random.default_rng(2).normal(size=(5, 3))
        expect = np.sum(np.sum(np.abs(params["amps"]), axis=0) ** 2)
        mod = wave.value_gradient_moduli(x, 0.4)[2]
        np.testing.assert_allclose(np.sum(mod**2, axis=0),
                                   np.full(5, expect), rtol=1e-14)
        assert np.all(wave.density(x, 0.4) <= expect * (1 + 1e-12))


class TestGridState:
    def test_exact_at_nodes(self):
        g = Grid([(-10.0, 10.0)], [2001])
        x = g.axes[0]
        vals = np.exp(-x**2 / 2) / np.pi**0.25
        psi = GridWaveFunction(g, vals, [1.0])
        v = psi.evaluate([[0.0]])[:, 0]
        np.testing.assert_allclose(v[0], np.pi**-0.25, atol=1e-8)

    def test_norm_and_normalize(self):
        g = Grid([(-12.0, 12.0)], [1024])
        x = g.axes[0]
        psi = GridWaveFunction(g, 3.7 * np.exp(-x**2 / 2), [1.0]).normalized()
        assert abs(psi.norm() - 1.0) < 1e-9

    def test_interpolation_outside_domain_raises(self):
        g = Grid([(-1.0, 1.0)], [16])
        psi = GridWaveFunction(g, np.ones(16), [1.0])
        with pytest.raises(DomainError) as err:
            psi.evaluate(np.array([[1.5]]))
        assert err.value.coordinate == pytest.approx(1.5)

    def test_interpolation_quadratic_convergence(self):
        """Halving the spacing cuts the max interpolation error by >= 3.5x."""
        ref = gaussian_1d(sigma=0.9, k0=[1.3])
        probes = np.random.default_rng(5).uniform(-3, 3, size=(400, 1))
        errs = []
        for n in (501, 1001):
            g = Grid([(-8.0, 8.0)], [n])
            psi = GridWaveFunction.sample(ref, g)
            errs.append(np.max(np.abs(psi.evaluate(probes) - ref.evaluate(probes))))
        assert errs[0] / errs[1] >= 3.5

    def test_memory_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            Grid([(-1, 1)] * 3, [4096, 4096, 4096])

    def test_evaluation_does_not_mutate(self):
        g = Grid([(-2.0, 2.0)], [64])
        psi = GridWaveFunction(g, np.exp(-g.axes[0] ** 2), [1.0]).normalized()
        before = psi.values.copy()
        psi.evaluate(np.array([[0.3]]))
        psi.density(np.array([[0.1]]))
        np.testing.assert_array_equal(psi.values, before)
        assert abs(psi.norm() - 1.0) < 1e-9


def moveaxis_derivative(f, h, axis):
    """The stencil derivative along `axis` by moving it last: complex
    arithmetic on strided slices, divided by 12h and 2h."""
    f = np.moveaxis(f, axis, -1)
    d = np.empty_like(f)
    d[..., 2:-2] = (f[..., :-4] - 8 * f[..., 1:-3]
                    + 8 * f[..., 3:-1] - f[..., 4:]) / (12.0 * h)
    d[..., 0] = (-3 * f[..., 0] + 4 * f[..., 1] - f[..., 2]) / (2.0 * h)
    d[..., 1] = (f[..., 2] - f[..., 0]) / (2.0 * h)
    d[..., -2] = (f[..., -1] - f[..., -3]) / (2.0 * h)
    d[..., -1] = (3 * f[..., -1] - 4 * f[..., -2] + f[..., -3]) / (2.0 * h)
    return np.moveaxis(d, -1, axis)


class TestGridGradient:
    """`grid_gradient` differences a complex array as its float view; it
    must equal the moved-axis complex stencil bit for bit."""

    @pytest.mark.parametrize("points", [
        (5,), (17,), (40,), (5, 40), (23, 7), (40, 5), (5, 6, 9),
        (11, 5, 17)], ids=str)
    @pytest.mark.parametrize("lead", [(), (2,), (3, 2)], ids=str)
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_equals_the_moveaxis_stencil(self, points, lead, dtype):
        grid = Grid([(-1.0 - a, 0.5 + 1.3 * a) for a in range(len(points))],
                    points)
        rng = np.random.default_rng(sum(points) + len(lead))
        values = rng.standard_normal(lead + grid.shape)
        if dtype is complex:
            values = values + 1j * rng.standard_normal(lead + grid.shape)
        before = values.copy()
        out = grid_gradient(values, grid)
        assert out.shape == lead + (grid.ndim,) + grid.shape
        assert out.dtype == values.dtype
        for a in range(grid.ndim):
            np.testing.assert_array_equal(
                out[(Ellipsis, a) + (slice(None),) * grid.ndim],
                moveaxis_derivative(values, grid.spacing[a], len(lead) + a))
        np.testing.assert_array_equal(values, before)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_non_contiguous_values(self, dtype):
        """A strided or Fortran-ordered array gives what its contiguous
        copy gives."""
        grid = Grid([(-2.0, 2.0), (0.0, 3.0)], [9, 12])
        rng = np.random.default_rng(8)
        big, wide = (rng.standard_normal(shape).astype(dtype)
                     for shape in ((2, 18, 12), (2, 12, 9)))
        if dtype is complex:
            big, wide = big + 1j, wide - 0.5j
        for values in (big[:, ::2], big[::-1, 1::2],
                       np.asfortranarray(big[:, ::2]), wide.transpose(0, 2, 1)):
            np.testing.assert_array_equal(
                grid_gradient(values, grid),
                grid_gradient(np.ascontiguousarray(values), grid))

    def test_fewer_than_five_points_is_a_shape_error(self):
        grid = Grid([(-1.0, 1.0), (-1.0, 1.0)], [8, 4])
        with pytest.raises(ShapeError, match="5 points"):
            grid_gradient(np.ones((8, 4), dtype=complex), grid)

    def test_density_nodes_computed_once_and_read_only(self):
        grid = Grid([(-2.0, 2.0), (0.0, 3.0)], [9, 12])
        values = np.random.default_rng(2).standard_normal((2, 9, 12)) + 0.5j
        psi = GridWaveFunction(grid, values, [1.0])
        rho = psi.density_nodes()
        assert psi.density_nodes() is rho
        assert not rho.flags.writeable
        with pytest.raises(ValueError):
            rho[0, 0] = 1.0
        np.testing.assert_array_equal(rho, np.sum(np.abs(values) ** 2, axis=0))


class TestParticleAxes:
    """The configuration axes split evenly over the particles, in order."""

    def test_uneven_split_rejected(self):
        with pytest.raises(ConfigurationError):
            ParametricWaveFunction(
                "gaussian_packet",
                {"center": [0.0] * 5, "sigma": 1.0, "m": 1.0}, [1.0, 1.0])
        with pytest.raises(ConfigurationError):
            GridWaveFunction(Grid([(-1.0, 1.0)] * 5, [5] * 5),
                             np.ones((5,) * 5), [1.0, 1.0])

    def test_hbar_m_follows_each_particle(self):
        pair = ParametricWaveFunction(
            "decaying_pair", {"alpha": 0.5, "m1": 1.0, "m2": 3.0, "d": 3},
            [1.0, 3.0])
        grid = GridWaveFunction(Grid([(-1.0, 1.0)] * 6, [5] * 6),
                                np.ones((5,) * 6), [1.0, 3.0])
        for psi in (pair, grid):
            assert psi.hbar_m.tolist() == [1, 1, 1, 1 / 3, 1 / 3, 1 / 3]


# one small valid parameter set per registered family, all on a 2-D
# configuration space
_GAUSS_2D = {"center": [0.1, -0.2], "sigma": [0.8, 1.1], "k0": [0.5, -0.3],
             "m": 1.2}
_PLANE_2D = {"k": [1.2, -0.4], "m": 1.3}
FAMILY_PARAMS = {
    "plane_wave": _PLANE_2D,
    "gaussian_packet": _GAUSS_2D,
    "decaying_pair": {"alpha": 0.5, "m1": 1.0, "m2": 2.0, "d": 1, "N": 0.7},
    "post_collapse_pair": {"a": [0.3, -0.1], "alpha0": 0.4 + 0.2j, "t0": 0.1,
                           "m": 1.5},
    "correlated_pair": {"alpha": 0.5, "m1": 1.0, "m2": 2.0, "d": 1,
                        "sigma_x": 0.9, "center": 0.2},
    "superposition": {"components": [(0.7, "gaussian_packet", _GAUSS_2D),
                                     (0.4 - 0.3j, "plane_wave",
                                      dict(_PLANE_2D, m=1.2))]},
    "spinor_product": {"scalar": "gaussian_packet", "scalar_params": _GAUSS_2D,
                       "chi": [0.6, 0.8j]},
    "plane_wave_sum": {"k": [[1.0, 0.5], [-0.7, 0.2], [0.3, -1.1]],
                       "omega": [0.9, 1.4, -0.6],
                       "amps": [[1.0, 0.5j], [0.3 - 0.2j, 0.0], [-0.4, 0.8]]},
}

_POINT = hst.tuples(hst.floats(-2, 2), hst.floats(-2, 2))


class TestFamilyProtocol:
    """Every registered family: `value` and one fused
    `value_gradient_moduli`."""

    @pytest.mark.parametrize("name", family_names())
    def test_fused_value_equals_value(self, name):
        fam = families.build(name, FAMILY_PARAMS[name])
        x = np.random.default_rng(6).normal(size=(30, 2))
        for t in (0.0, 0.45, 2.0):
            val, grad, mod = fam.value_gradient_moduli(x, t)
            np.testing.assert_array_equal(val, fam.value(x, t))
            assert grad.shape == (fam.spin_dim, 2, len(x))
            assert mod is None or mod.shape == val.shape

    @pytest.mark.parametrize("name", family_names())
    @given(pts=hst.lists(_POINT, min_size=1, max_size=4),
           t=hst.floats(0.0, 3.0))
    def test_gradient_matches_central_difference(self, name, pts, t):
        fam = families.build(name, FAMILY_PARAMS[name])
        x = np.array(pts)
        h = 1e-6
        fd = np.stack([(fam.value(x + h * e, t)
                        - fam.value(x - h * e, t)) / (2 * h)
                       for e in np.eye(2)], axis=1)
        val, grad, _ = fam.value_gradient_moduli(x, t)
        scale = np.max(np.abs(val)) + np.max(np.abs(grad))
        np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-7 * scale)

    def test_no_family_keeps_a_separate_gradient(self):
        assert [n for n in family_names()
                if hasattr(get_family(n), "gradient")] == []

    def test_one_way_in_and_no_hbar(self):
        """hbar = 1 is not a parameter of any family method or module
        helper, and the fused kernel is the only gradient entry point."""
        routines = [f for _, f in inspect.getmembers(families,
                                                     inspect.isfunction)]
        for name in family_names():
            fam = get_family(name)
            assert not hasattr(fam, "value_and_gradient"), name
            routines += [getattr(fam, a) for a in dir(fam)
                         if not a.startswith("__")
                         and callable(getattr(fam, a))]
        for f in routines:
            assert "hbar" not in inspect.signature(f).parameters, f

    @pytest.mark.parametrize("name", family_names())
    def test_wrong_dimension_is_a_shape_error(self, name):
        """The kernels convert no points: the state does, for each of its
        kernels, and refuses another dimension.  `plane_wave_sum`, which
        the Dirac and DKP states call bare, refuses it itself."""
        params = FAMILY_PARAMS[name]
        fam = families.build(name, params)
        psi = ParametricWaveFunction(name, params, fam.masses or [1.3])
        x = np.zeros((4, 3))
        kernels = [psi.evaluate, psi.value_gradient_moduli, psi.density]
        if hasattr(fam, "phase_gradient"):
            kernels.append(psi.phase_gradient)
        if name == "plane_wave_sum":
            kernels += [fam.value, fam.value_gradient_moduli]
        for kernel in kernels:
            with pytest.raises(ShapeError, match="dimension 3, family expects 2"):
                kernel(x, 0.3)


class TestKeysAndMasses:
    """A family's key set is its constructor's keywords, checked when the
    state is built, and its masses are the state's."""

    @pytest.mark.parametrize("name", family_names())
    def test_extra_key_raises(self, name):
        with pytest.raises(ConfigurationError, match=name):
            families.build(name, dict(FAMILY_PARAMS[name], extra=1.0))

    @pytest.mark.parametrize("name", family_names())
    def test_dropped_required_key_raises(self, name):
        keys = inspect.signature(get_family(name)).parameters.values()
        required = [k.name for k in keys if k.default is k.empty]
        assert required
        for key in required:
            params = {k: v for k, v in FAMILY_PARAMS[name].items() if k != key}
            with pytest.raises(ConfigurationError, match=name):
                families.build(name, params)

    @pytest.mark.parametrize("name", family_names())
    def test_misspelt_k0_raises(self, name):
        params = {k: v for k, v in FAMILY_PARAMS[name].items() if k != "k0"}
        with pytest.raises(ConfigurationError, match="kO"):
            families.build(name, dict(params, kO=[2.0]))

    def test_nested_bad_key_raises(self):
        bad = dict(_GAUSS_2D, kO=[2.0])
        for name, params in (
                ("superposition", {"components": [(1.0, "gaussian_packet", bad)]}),
                ("spinor_product",
                 dict(FAMILY_PARAMS["spinor_product"], scalar_params=bad))):
            with pytest.raises(ConfigurationError, match="gaussian_packet"):
                families.build(name, params)

    @pytest.mark.parametrize("name, params", [
        ("gaussian_packet", dict(_GAUSS_2D, center=[0.0, 0.0],
                                 sigma=[1.0, 2.0, 3.0])),
        ("gaussian_packet", dict(_GAUSS_2D, k0=[0.5, -0.3, 0.1])),
        ("correlated_pair", dict(FAMILY_PARAMS["correlated_pair"], d=2,
                                 center=[0.0, 0.1, 0.2])),
        ("plane_wave_sum", dict(FAMILY_PARAMS["plane_wave_sum"],
                                k=[1.0, 0.5, -0.2])),
        ("spinor_product", dict(FAMILY_PARAMS["spinor_product"], chi=0.6)),
        # one term's k and amps with two omega built and evaluated
        # silently: one unit term at x = 0, t = 0 gave 2, not 1
        ("plane_wave_sum", {"k": [[1.0]], "omega": [0.5, 0.7],
                            "amps": [[1.0]]}),
    ], ids=["sigma", "k0", "center", "k", "chi", "omega"])
    def test_value_of_the_wrong_shape_raises(self, name, params):
        with pytest.raises(ConfigurationError, match=name):
            families.build(name, params)

    def test_spinor_product_of_a_spinor_raises_when_built(self):
        with pytest.raises(UnsupportedFamilyError):
            ParametricWaveFunction("spinor_product", {
                "scalar": "spinor_product",
                "scalar_params": FAMILY_PARAMS["spinor_product"],
                "chi": [1.0, 0.0]}, [1.2])

    def test_state_with_two_masses_raises(self):
        """params m 1 and masses [3] would guide with hbar/3 a packet that
        spreads with hbar/1: v = 0.287 where j/rho is 0.86."""
        packet = {"center": [0.0], "sigma": 1.0, "k0": [1.0], "m": 1.0}
        with pytest.raises(ConfigurationError):
            ParametricWaveFunction("gaussian_packet", packet, [3.0])
        with pytest.raises(ConfigurationError):
            ParametricWaveFunction("decaying_pair",
                                   FAMILY_PARAMS["decaying_pair"], [2.0, 1.0])
        with pytest.raises(ConfigurationError):
            ParametricWaveFunction("spinor_product",
                                   FAMILY_PARAMS["spinor_product"], [1.0])
        with pytest.raises(ConfigurationError, match="masses"):
            families.build("superposition", {"components": [
                (1.0, "gaussian_packet", _GAUSS_2D),
                (1.0, "plane_wave", _PLANE_2D)]})

    def test_family_masses_are_the_params_masses(self):
        expect = {"plane_wave": (1.3,), "gaussian_packet": (1.2,),
                  "decaying_pair": (1.0, 2.0), "post_collapse_pair": (1.5,),
                  "correlated_pair": (1.0, 2.0), "superposition": (1.2,),
                  "spinor_product": (1.2,), "plane_wave_sum": None}
        assert {n: families.build(n, FAMILY_PARAMS[n]).masses
                for n in family_names()} == expect
        # a plane-wave sum's frequencies are given: any masses guide it
        ParametricWaveFunction("plane_wave_sum", FAMILY_PARAMS["plane_wave_sum"],
                               [0.4, 2.0])


# value and gradient of the five single-term families as they were
# written before the gradient became log_gradient * value (the plane
# wave's k.x as the row sum that `PlaneWave.value` forms)
def _parent_gauss_1d(x, t, x0, sigma, k0, m, hbar):
    B = sigma**2 + 0.5j * hbar * t / m
    xc = x0 + hbar * k0 * t / m
    xi = x - xc
    amp = (2.0 * np.pi * sigma**2) ** -0.25 * sigma / np.sqrt(B)
    psi = amp * np.exp(-xi**2 / (4.0 * B)
                       + 1j * k0 * (x - x0) - 0.5j * hbar * k0**2 * t / m)
    return psi, -xi / (2.0 * B) + 1j * k0


def _parent_plane_wave(p, x, t, hbar):
    k = np.atleast_1d(np.asarray(p["k"], dtype=float))
    omega = hbar * (k @ k) / (2.0 * p["m"])
    val = np.exp(1j * ((x * k).sum(axis=1) - omega * t))[None, :]
    return val, 1j * k[None, :, None] * val[:, None, :]


def _parent_gaussian_packet(p, x, t, hbar):
    c = np.atleast_1d(np.asarray(p["center"], dtype=float))
    d = len(c)
    s = np.broadcast_to(np.asarray(p["sigma"], dtype=float), (d,))
    k = np.broadcast_to(np.asarray(p.get("k0", 0.0), dtype=float), (d,))
    val = np.ones(x.shape[0], dtype=complex)
    dlog = np.empty((d, x.shape[0]), dtype=complex)
    for a in range(d):
        psi, dlog[a] = _parent_gauss_1d(x[:, a], t, c[a], s[a], k[a], p["m"],
                                        hbar)
        val = val * psi
    return val[None, :], (dlog * val)[None]


def _parent_decaying_pair(p, x, t, hbar):
    d = int(p.get("d", 3))
    mu = p["m1"] * p["m2"] / (p["m1"] + p["m2"])
    beta = p["alpha"] + 0.5j * t / mu
    r = x[:, :d] - x[:, d:]
    pref = p.get("N", 1.0) * (np.pi * hbar / beta) ** (d / 2.0)
    val = (pref * np.exp(-np.sum(r * r, axis=1) / (4.0 * hbar * beta)))[None]
    r = r.T
    g = np.empty((1, 2 * d, x.shape[0]), dtype=complex)
    g[0, :d] = -r / (2.0 * hbar * beta) * val[0]
    g[0, d:] = +r / (2.0 * hbar * beta) * val[0]
    return val, g


def _parent_post_collapse_pair(p, x, t, hbar):
    a = np.atleast_1d(np.asarray(p["a"], dtype=float))
    beta = complex(p["alpha0"]) + 0.5j * (t - p.get("t0", 0.0)) / p["m"]
    u = a[None, :] - x
    pref = p.get("N", 1.0) * (np.pi * hbar / beta) ** (len(a) / 2.0)
    val = (pref * np.exp(-np.sum(u * u, axis=1) / (4.0 * hbar * beta)))[None]
    return val, (u.T / (2.0 * hbar * beta) * val[0])[None]


def _parent_correlated_pair(p, x, t, hbar):
    d, m1, m2 = int(p.get("d", 3)), p["m1"], p["m2"]
    M, mu = m1 + m2, m1 * m2 / (m1 + m2)
    x1, x2 = x[:, :d], x[:, d:]
    X = (m1 * x1 + m2 * x2) / M
    r = x1 - x2
    X0 = np.broadcast_to(np.asarray(p.get("center", 0.0), dtype=float), (d,))
    com = np.ones(x.shape[0], dtype=complex)
    dlc = np.empty((d, x.shape[0]), dtype=complex)
    for a in range(d):
        f, dlc[a] = _parent_gauss_1d(X[:, a], t, X0[a], p["sigma_x"], 0.0, M,
                                     hbar)
        com = com * f
    beta = p["alpha"] + 0.5j * t / mu
    rel = (np.pi * hbar / beta) ** (d / 2.0) * np.exp(
        -np.sum(r * r, axis=1) / (4.0 * hbar * beta))
    dlr = -r.T / (2.0 * hbar * beta)
    val = p.get("N", 1.0) * com * rel
    g = np.empty((1, 2 * d, val.shape[0]), dtype=complex)
    g[0, :d] = ((m1 / M) * dlc + dlr) * val
    g[0, d:] = ((m2 / M) * dlc - dlr) * val
    return val[None, :], g


PARENT_VALUE_AND_GRADIENT = {
    "plane_wave": _parent_plane_wave,
    "gaussian_packet": _parent_gaussian_packet,
    "decaying_pair": _parent_decaying_pair,
    "post_collapse_pair": _parent_post_collapse_pair,
    "correlated_pair": _parent_correlated_pair,
}


@hst.composite
def _term_at_points(draw):
    name, params, masses = draw(rs.single_term_states())
    x = draw(rs.config_points(families.build(name, params).config_dim))
    return name, params, masses, x


def _normal(z):
    return (np.abs(z) >= np.finfo(float).tiny) & np.isfinite(z)


# ordinary coordinates and far-tail ones, where psi underflows
_FAR_COORD = hst.one_of(hst.floats(-3.0, 3.0), hst.floats(-1e300, 1e300))


class TestLogGradient:
    """The single-term families' log-derivative and phase gradient, over
    random states."""

    def test_exactly_the_single_terms_have_one(self):
        for kernel in ("log_gradient", "phase_gradient"):
            assert sorted(n for n in family_names()
                          if hasattr(get_family(n), kernel)) \
                == sorted(PARENT_VALUE_AND_GRADIENT), kernel

    @given(term=rs.single_term_states(), data=hst.data(), t=rs.times)
    def test_phase_gradient_is_im_log_gradient(self, term, data, t):
        """grad S in real arithmetic equals Im grad log psi bit for bit
        wherever both are finite, so within 4 eps of the point's largest
        |d log psi|; the points reach far into the tails."""
        name, params, _ = term
        fam = families.build(name, params)
        x = data.draw(arrays(float, (data.draw(hst.integers(1, 6)),
                                     fam.config_dim), elements=_FAR_COORD))
        dlog = fam.log_gradient(x, t)
        dphase = fam.phase_gradient(x, t)
        assert dphase.shape == (len(x), fam.config_dim)
        assert dphase.dtype == float
        ok = np.isfinite(dlog).all(axis=0) & np.isfinite(dphase).all(axis=1)
        np.testing.assert_array_equal(dphase[ok], dlog.imag.T[ok])

    @given(case=_term_at_points(), data=hst.data())
    def test_one_time_per_point_equals_one_point_calls(self, case, data):
        """t of shape (n,) gives each point the phase gradient it has
        alone at its own time, a float or a numpy scalar."""
        name, params, _, x = case
        fam = families.build(name, params)
        t = data.draw(arrays(float, len(x), elements=hst.floats(0.0, 3.0)))
        batch = fam.phase_gradient(x, t)
        for cast in (float, np.float64):
            alone = np.concatenate([fam.phase_gradient(p[None], cast(ti))
                                    for p, ti in zip(x, t)])
            np.testing.assert_array_equal(batch, alone)

    @given(case=_term_at_points(), t=rs.times)
    def test_log_gradient_is_grad_over_value(self, case, t):
        name, params, _, x = case
        fam = families.build(name, params)
        dlog = fam.log_gradient(x, t)
        val, grad, _ = fam.value_gradient_moduli(x, t)
        assert dlog.shape == (fam.config_dim, len(x))
        assert np.all(np.isfinite(dlog))
        ok = _normal(val[0]) & np.all(_normal(grad[0]) | (grad[0] == 0), axis=0)
        np.testing.assert_allclose(dlog[:, ok], grad[0][:, ok] / val[0][ok],
                                   rtol=1e-12, atol=0)

    @given(case=_term_at_points(), t=rs.times)
    def test_value_and_gradient_unchanged(self, case, t):
        name, params, _, x = case
        got = families.build(name, params).value_gradient_moduli(x, t)
        want = PARENT_VALUE_AND_GRADIENT[name](params, x, t, 1.0)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    @given(case=_term_at_points(), t=rs.times,
           log_s=hst.floats(-100.0, 100.0), theta=hst.floats(0.0, 2 * np.pi))
    def test_velocity_invariant_under_global_scale_and_phase(
            self, case, t, log_s, theta):
        """A one-component superposition s e^{i theta} psi (gradient form,
        node floor) moves members as psi does (log-derivative form)."""
        name, params, masses, x = case
        coef = 10.0**log_s * np.exp(1j * theta)
        bare = ParametricWaveFunction(name, params, masses)
        scaled = ParametricWaveFunction(
            "superposition", {"components": [(coef, name, params)]}, masses)
        v_bare = ParametricVelocity(bare).velocity(x, t)
        v_scaled = ParametricVelocity(scaled).velocity(x, t)
        assert np.all(np.isfinite(v_bare))
        # where |s psi|^2 and the node floor 1e-12 |s psi|^2 are normal,
        # and every component of s grad psi is normal or exactly zero: one
        # that is subnormal, or underflowed to 0 from a nonzero grad log
        # psi, has lost the relative precision grad psi / psi needs
        rho = np.abs(coef * bare.evaluate(x, t)[0]) ** 2
        dlog = families.build(name, params).log_gradient(x, t)
        sgrad = coef * bare.gradient(x, t)[0]
        ok = (np.isfinite(rho) & (1e-12 * rho >= np.finfo(float).tiny)
              & np.all(_normal(sgrad) | (dlog == 0), axis=0))
        scale = np.max(np.abs(dlog), axis=0) / min(masses)
        assert np.all(np.abs(v_scaled[ok] - v_bare[ok])
                      <= 1e-12 * scale[ok, None])


class TestTimeShape:
    """An evaluation time is a scalar or one time per point, shape (n,);
    `ParametricWaveFunction` refuses any other shape with ShapeError, in
    every kernel and for every family."""

    X = np.random.default_rng(4).normal(size=(6, 2))

    @staticmethod
    def state(name):
        params = FAMILY_PARAMS[name]
        return ParametricWaveFunction(
            name, params, families.build(name, params).masses or [1.3])

    @pytest.mark.parametrize("name", family_names())
    def test_wrong_shape_is_a_shape_error(self, name):
        psi = self.state(name)
        spin = SpinSpec(0.5) if psi.spin_dim == 2 else None
        kernels = [psi.evaluate, psi.value_gradient_moduli, psi.density,
                   lambda x, t: configuration_velocity(psi, x, t, spin)]
        if psi.phase_gradient(self.X) is not None:
            kernels.append(psi.phase_gradient)
        for t in (np.full((6, 1), 0.4), np.full((1, 6), 0.4), np.full(5, 0.4)):
            for kernel in kernels:
                with pytest.raises(ShapeError, match="one per point"):
                    kernel(self.X, t)

    @pytest.mark.parametrize("name", family_names())
    def test_one_time_per_point_is_each_point_alone(self, name):
        """Each row at its own time agrees with the point evaluated alone
        at that time: a float, a numpy scalar, or an array of one."""
        psi = self.state(name)
        t = np.linspace(0.0, 2.0, len(self.X))
        val, grad, _ = psi.value_gradient_moduli(self.X, t)
        np.testing.assert_array_equal(val, psi.evaluate(self.X, t))
        for i, (p, ti) in enumerate(zip(self.X, t)):
            for at in (float(ti), ti, np.array([ti])):
                one_val, one_grad, _ = psi.value_gradient_moduli(p, at)
                np.testing.assert_allclose(val[:, i], one_val[:, 0],
                                           rtol=1e-14, atol=0)
                np.testing.assert_allclose(grad[..., i], one_grad[..., 0],
                                           rtol=1e-14, atol=0)
