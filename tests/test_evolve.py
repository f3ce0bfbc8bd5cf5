"""Propagator: split-step vs analytic, unitarity, spin factorization."""

import numpy as np
import pytest

from pilotwave.currents import EmPotential, SpinSpec, continuity_residual
from pilotwave.errors import (ConfigurationError, ShapeError, StabilityError,
                              UnsupportedFamilyError)
from pilotwave.evolve import Propagator, propagate_to, step
from pilotwave.grid import Grid
from pilotwave.wavefunction import GridWaveFunction, ParametricWaveFunction


def gaussian(n_axes=1, sigma=0.8, k0=1.0, m=1.0):
    return ParametricWaveFunction(
        "gaussian_packet",
        {"center": [0.0] * n_axes, "sigma": sigma, "k0": [k0] * n_axes, "m": m},
        [m])


class TestAnalytic:
    def test_step_advances_time(self):
        psi = gaussian()
        out = step(psi, Propagator("analytic", 0.25))
        assert out.time == 0.25

    def test_pair_width_parameter_evolution(self):
        """The pair wave's complex width advances as alpha + i t / 2 mu:
        the density at fixed separation follows |beta|^{-3} exactly."""
        alpha, m1, m2 = 0.5, 1.0, 3.0
        mu = m1 * m2 / (m1 + m2)
        psi = ParametricWaveFunction(
            "decaying_pair", {"alpha": alpha, "m1": m1, "m2": m2, "d": 3},
            [m1, m2])
        out = propagate_to(psi, Propagator("analytic", 0.1), 2.0)[-1]
        x = np.zeros((1, 6))
        beta0, beta1 = alpha, alpha + 1j * 2.0 / (2 * mu)
        ratio = out.density(x)[0] / psi.density(x)[0]
        np.testing.assert_allclose(ratio, (abs(beta0) / abs(beta1)) ** 3, rtol=1e-12)

    def test_potentials_rejected(self):
        with pytest.raises(UnsupportedFamilyError):
            step(gaussian(), Propagator("analytic", 0.1,
                                        potential=lambda x, t: x[:, 0] ** 2))

    def test_coupling_rejected(self):
        with pytest.raises(UnsupportedFamilyError):
            step(gaussian(n_axes=2),
                 Propagator("analytic", 0.1, coupling=(1, np.ones((4, 1)))))

    def test_unknown_method_named(self):
        """A misspelt method is a bad argument, not a shape mismatch."""
        with pytest.raises(ConfigurationError, match="'split_step'"):
            Propagator("split_step", 0.1)


def split_prop(dt, **kw):
    return Propagator("split-step", dt, **kw)


def sample(psi, lo, hi, n):
    return GridWaveFunction.sample(psi, Grid([(lo, hi)], [n]))


class TestSplitStep:
    def test_plane_wave_phase_advance(self):
        """Momentum eigenstate: amplitude unchanged, phase -iE dt/hbar."""
        n, L = 256, 2 * np.pi * 8
        grid = Grid([(0.0, L * (n - 1) / n)], [n])   # exactly periodic k=1
        k, m = 1.0, 1.0
        psi0 = GridWaveFunction(grid, np.exp(1j * k * grid.axes[0]), [m])
        dt = 0.01
        out = step(psi0, split_prop(dt))
        expected = psi0.values * np.exp(-1j * 0.5 * k**2 / m * dt)
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

    def test_matches_analytic_gaussian_second_order(self):
        """Strang splitting with a potential: halving dt cuts the error
        against a tight-dt reference by >= 3.5x over a fixed horizon."""
        m = 1.0
        grid = Grid([(-16.0, 16.0)], [512])
        x = grid.axes[0]
        psi0 = GridWaveFunction(
            grid, np.exp(-x**2 / (4 * 0.8**2) + 1j * 1.0 * x), [m]).normalized()
        pot = lambda pts, t: 0.02 * pts[:, 0] ** 2
        t_final = 1.0
        ref = propagate_to(psi0, split_prop(t_final / 1024, potential=pot),
                           t_final)[-1]
        errs = []
        for steps in (16, 32):
            out = propagate_to(psi0, split_prop(t_final / steps, potential=pot),
                               t_final)[-1]
            errs.append(np.sqrt(np.sum(np.abs(out.values - ref.values) ** 2)
                                * grid.cell_volume()))
        assert errs[0] / errs[1] >= 3.5

    def test_free_split_step_vs_analytic_gaussian(self):
        """Free evolution: split-step is spectrally exact in space and the
        kinetic factor is exact in time, so only sampling error remains."""
        psi = gaussian(sigma=0.9, k0=0.8)
        grid = Grid([(-20.0, 20.0)], [1024])
        num = propagate_to(GridWaveFunction.sample(psi, grid),
                           split_prop(0.05), 2.0)[-1]
        exact = GridWaveFunction.sample(psi.at_time(2.0), grid)
        err = np.max(np.abs(num.values - exact.values))
        assert err < 1e-9

    def test_norm_conserved_1000_steps(self):
        grid = Grid([(-12.0, 12.0)], [256])
        x = grid.axes[0]
        psi = GridWaveFunction(grid, np.exp(-x**2 / 2 + 0.7j * x), [1.0]).normalized()
        pot = lambda pts, t: 0.1 * np.cos(pts[:, 0])
        state = psi
        prop = split_prop(2e-3, potential=pot)
        for _ in range(1000):
            state = step(state, prop)
        assert abs(state.norm() - 1.0) <= 1e-8

    def test_unstable_dt_rejected(self):
        grid = Grid([(-4.0, 4.0)], [64])
        psi = GridWaveFunction(grid, np.exp(-grid.axes[0] ** 2), [1.0]).normalized()
        with pytest.raises(StabilityError):
            step(psi, split_prop(0.2, potential=lambda p, t: 10.0 * np.ones(len(p))))

    def test_non_power_of_two_warns(self):
        grid = Grid([(-4.0, 4.0)], [100])
        psi = GridWaveFunction(grid, np.exp(-grid.axes[0] ** 2), [1.0]).normalized()
        with pytest.warns(UserWarning):
            step(psi, split_prop(1e-3))

    def test_spin_eigenstate_factorization(self):
        """With V = B = 0, evolving phi' chi equals (evolved phi') chi."""
        grid = Grid([(-14.0, 14.0), (-14.0, 14.0)], [128, 128])
        scalar = ParametricWaveFunction(
            "gaussian_packet",
            {"center": [0.0, 0.0], "sigma": 1.0, "k0": [0.6, -0.3], "m": 1.0}, [1.0])
        chi = np.array([0.6, 0.8j])
        base = GridWaveFunction.sample(scalar, grid)
        spinor = base.with_values(
            np.stack([chi[0] * base.values[0], chi[1] * base.values[0]]))
        prop = split_prop(0.02, spin=SpinSpec(0.5))
        out = propagate_to(spinor, prop, 0.6)[-1]
        scal_out = propagate_to(base, split_prop(0.02), 0.6)[-1]
        np.testing.assert_allclose(
            out.values, np.stack([chi[0] * scal_out.values[0],
                                  chi[1] * scal_out.values[0]]), atol=1e-9)

    def test_zeeman_precession_uniform_field(self):
        """Uniform B along z rotates a spin-1/2 about z at the Larmor rate
        while the spatial factor evolves freely."""
        grid = Grid([(-10.0, 10.0)], [128])
        x = grid.axes[0]
        packet = np.exp(-x**2 / 2)
        chi0 = np.array([1.0, 1.0]) / np.sqrt(2)
        psi = GridWaveFunction(grid, np.stack([chi0[0] * packet, chi0[1] * packet]),
                               [1.0]).normalized()
        b0 = 0.8
        em = EmPotential(b=lambda pts, t: np.broadcast_to([0.0, 0.0, b0],
                                                          (pts.shape[0], 3)).copy(),
                         charge=1.0)
        spin = SpinSpec(0.5, g=2.0)
        t_final = 0.5
        out = propagate_to(psi, split_prop(0.01, spin=spin, em=em), t_final)[-1]
        free = propagate_to(psi, split_prop(0.01, spin=SpinSpec(0.5)), t_final)[-1]
        # phase exp(+i e g t S_z B / 2 m c hbar) on each component
        ang = 1.0 * 2.0 * b0 * t_final / (2.0 * 1.0)   # e g B t / 2 m c, hbar=1
        expected = np.stack([np.exp(1j * ang * 0.5) * free.values[0],
                             np.exp(-1j * ang * 0.5) * free.values[1]])
        np.testing.assert_allclose(out.values, expected, atol=1e-10)

    def test_zeeman_needs_an_explicit_b(self):
        """B is never derived from the vector potential: a spin-1/2
        propagator whose EmPotential has v and no b is refused when it is
        built, rather than step with B = 0."""
        em = EmPotential(v=lambda pts, t: np.stack(
            [np.zeros(len(pts)), pts[:, 0], np.zeros(len(pts))], axis=1))
        with pytest.raises(ConfigurationError, match="vector potential"):
            split_prop(0.01, spin=SpinSpec(0.5), em=em)

    def test_vector_potential_is_refused(self):
        """The split step has no A term: a uniform electric field given as
        A = 2t x (E = -dA/dt), with or without a b, is refused when the
        propagator is built, rather than stepped as the free wave."""
        def field(pts, t):
            a = np.zeros((len(pts), 3))
            a[:, 0] = 2.0 * t
            return a

        def zero_b(pts, t):
            return np.zeros((len(pts), 3))

        for em in (EmPotential(v=field), EmPotential(v=field, b=zero_b)):
            with pytest.raises(ConfigurationError, match="vector potential"):
                split_prop(0.01, em=em)

    def test_continuity_convergence_split_step(self):
        """Consecutive split-step snapshots satisfy continuity at joint
        second order in (dt, dx)."""
        norms = []
        for n, dt in ((256, 2e-2), (512, 1e-2)):
            grid = Grid([(-16.0, 16.0)], [n])
            x = grid.axes[0]
            psi = GridWaveFunction(
                grid, np.exp(-x**2 / (4 * 0.8**2) + 1j * x), [1.0]).normalized()
            state = propagate_to(psi, split_prop(dt), 0.3)[-1]
            nxt = step(state, split_prop(dt))
            _, mx, _ = continuity_residual(state, nxt, SpinSpec(0))
            norms.append(mx)
        assert norms[0] / norms[1] >= 3.5


class TestCoupling:
    def test_uniform_drag_rolls_free_evolution(self):
        """A uniform g p_y commutes with the kinetic term, so it only
        shifts the freely evolved wave by g t along y; with g t a whole
        number of cells the spectral shift is an exact roll.  t_final is
        not a multiple of dt, so the partial last step is covered too."""
        grid = Grid([(-6.0, 6.0), (-8.0, 8.0)], [64, 128])
        psi = GridWaveFunction.sample(
            ParametricWaveFunction(
                "gaussian_packet",
                {"center": [0.5, -2.0], "sigma": 0.7, "k0": [0.4, 0.3],
                 "m": 1.0}, [1.0]), grid)
        t_final, cells = 0.55, 8
        g = cells * grid.spacing[1] / t_final
        dragged = propagate_to(
            psi, split_prop(0.1, coupling=(1, np.full(grid.shape, g))),
            t_final)[-1]
        free = propagate_to(psi, split_prop(0.1), t_final)[-1]
        assert dragged.time == pytest.approx(t_final)
        np.testing.assert_allclose(dragged.values,
                                   np.roll(free.values, cells, axis=2),
                                   rtol=0, atol=1e-10)

    def test_g_varying_along_its_axis_rejected(self):
        g = np.outer(np.ones(8), np.linspace(0.0, 1.0, 16))
        with pytest.raises(ShapeError):
            split_prop(0.1, coupling=(1, g))


class TestPropagateTo:
    def test_zero_snapshots_returns_final(self):
        psi = gaussian()
        out = propagate_to(psi, Propagator("analytic", 0.1), 1.0)
        assert len(out) == 1 and out[0].time == pytest.approx(1.0)

    def test_snapshot_at_t0_is_input(self):
        psi = gaussian()
        out = propagate_to(psi, Propagator("analytic", 0.1), 1.0,
                           snapshot_times=[0.0, 1.0])
        assert out[0].time == 0.0
        np.testing.assert_array_equal(
            out[0].evaluate(np.zeros((1, 1))), psi.evaluate(np.zeros((1, 1))))

    def test_norms_all_one(self):
        grid = Grid([(-18.0, 18.0)], [512])
        x = grid.axes[0]
        psi = GridWaveFunction(grid, np.exp(-x**2 / 2 + 0.5j * x), [1.0]).normalized()
        snaps = propagate_to(psi, split_prop(0.02), 1.0,
                             snapshot_times=[0.0, 0.5, 1.0])
        for s in snaps:
            assert abs(s.norm() - 1.0) < 1e-9

    def test_exact_landing_partial_step(self):
        psi = gaussian()
        out = propagate_to(psi, Propagator("analytic", 0.3), 1.0)
        assert out[-1].time == pytest.approx(1.0, abs=1e-12)


def strang_reference(psi, dt, axis_mass, coupling=None, potential=None,
                     zeeman=None):
    """The Strang step as written before the mixed representations: both
    kinetic halves from x to full k and back, the coupling from x along
    its axis, the potential V(*mesh) and a uniform spin unitary in x."""
    grid = psi.grid
    axes = tuple(range(1, grid.ndim + 1))
    kmesh = np.meshgrid(*[2 * np.pi * np.fft.fftfreq(n, d=h)
                          for n, h in zip(grid.points, grid.spacing)],
                        indexing="ij")
    half = np.exp(-1j * dt * sum(k**2 / (4 * m) for k, m in zip(kmesh, axis_mass)))
    vals = np.fft.ifftn(half * np.fft.fftn(psi.values, axes=axes), axes=axes)
    if coupling is not None:
        axis, g = coupling
        vals = np.fft.ifft(np.exp(-1j * g * kmesh[axis] * dt)
                           * np.fft.fft(vals, axis=axis + 1), axis=axis + 1)
    if potential is not None:
        vals = vals * np.exp(-1j * dt * potential(*grid.meshgrid()))
    if zeeman is not None:
        vals = np.tensordot(zeeman, vals, axes=1)
    return np.fft.ifftn(half * np.fft.fftn(vals, axes=axes), axes=axes)


def packet_2d(points=(32, 64), masses=(1.0, 3.0)):
    grid = Grid([(-6.0, 6.0), (-8.0, 10.0)], list(points))
    x, y = grid.meshgrid()
    return GridWaveFunction(
        grid, np.exp(-(x - 0.5)**2 / 2 - (y + 1.0)**2 / 3
                     + 1j * (0.4 * x - 0.7 * y)),
        list(masses)).normalized()


def drag(grid, axis):
    """A coupling g(x) constant along `axis` and varying along the other."""
    other = grid.axes[1 - axis]
    return np.expand_dims(1.5 * np.sin(other), axis) * np.ones(grid.shape)


def harmonic(x, y):
    return 0.1 * x**2 + 0.05 * y


class TestRepresentations:
    """The step applies each factor in its own representation; it must
    agree with the Strang formula that applies every mid factor in x."""

    def run(self, psi, prop, nsteps=20, **ref):
        state, vals = psi, psi.values
        for _ in range(nsteps):
            state = step(state, prop)
            vals = strang_reference(psi.with_values(vals), prop.dt, **ref)
        scale = np.max(np.abs(vals))
        assert np.max(np.abs(state.values - vals)) <= 1e-12 * scale

    def test_free_1d(self):
        grid = Grid([(-10.0, 10.0)], [128])
        x = grid.axes[0]
        psi = GridWaveFunction(grid, np.exp(-x**2 / 2 + 1j * x), [2.0]).normalized()
        self.run(psi, split_prop(0.05), axis_mass=[2.0])

    def test_free_2d_non_square(self):
        self.run(packet_2d(), split_prop(0.05), axis_mass=[1.0, 3.0])

    @pytest.mark.parametrize("axis", [1, 0])
    def test_coupling(self, axis):
        psi = packet_2d()
        g = drag(psi.grid, axis)
        self.run(psi, split_prop(0.05, coupling=(axis, g)),
                 axis_mass=[1.0, 3.0], coupling=(axis, g))

    def test_potential_and_coupling(self):
        psi = packet_2d()
        g = drag(psi.grid, 1)
        prop = split_prop(0.05, coupling=(1, g),
                          potential=lambda p, t: harmonic(p[:, 0], p[:, 1]))
        self.run(psi, prop, axis_mass=[1.0, 3.0], coupling=(1, g),
                 potential=harmonic)

    def test_zeeman_uniform_field(self):
        grid = Grid([(-10.0, 10.0)], [128])
        x = grid.axes[0]
        packet = np.exp(-x**2 / 2 + 0.5j * x)
        psi = GridWaveFunction(grid, np.stack([0.6 * packet, 0.8j * packet]),
                               [1.0]).normalized()
        b = np.array([0.3, -0.2, 0.8])
        em = EmPotential(b=lambda pts, t: np.broadcast_to(b, (pts.shape[0], 3)).copy(),
                         charge=1.0)
        spin = SpinSpec(0.5, g=2.0)
        dt = 0.05
        # exp(+i e g dt S.B / 2 m c hbar), hbar = c = m = e = 1
        w, vecs = np.linalg.eigh(np.einsum("iab,i->ab", spin.generators, b))
        u = vecs @ np.diag(np.exp(1j * spin.g * dt * w / 2)) @ vecs.conj().T
        self.run(psi, split_prop(dt, spin=spin, em=em), axis_mass=[1.0],
                 zeeman=u)


@pytest.fixture
def fft_passes(monkeypatch):
    """One-axis FFT passes made through numpy.fft while the test runs."""
    passes = []

    def counted(f, n_axes):
        def wrapper(a, *args, **kwargs):
            passes.append(n_axes(np.ndim(a), kwargs))
            return f(a, *args, **kwargs)
        return wrapper

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name,
                            counted(getattr(np.fft, name), lambda nd, kw: 1))
    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, counted(
            getattr(np.fft, name),
            lambda nd, kw: len(kw["axes"]) if "axes" in kw else nd))
    return passes


class TestTransformPasses:
    @pytest.mark.parametrize("kind", ["free", "potential+coupled", "zeeman"])
    def test_step_leaves_the_input_state_alone(self, kind):
        """The transforms work in place on one copy of the values: the
        input state's values stay as they were, and read-only."""
        if kind == "zeeman":
            grid = Grid([(-10.0, 10.0)], [64])
            packet = np.exp(-grid.axes[0]**2 / 2 + 0.5j * grid.axes[0])
            psi = GridWaveFunction(grid, np.stack([0.6 * packet, 0.8j * packet]),
                                   [1.0]).normalized()
            em = EmPotential(b=lambda p, t: np.tile([0.3, -0.2, 0.8], (len(p), 1)),
                             charge=1.0)
            prop = split_prop(0.05, spin=SpinSpec(0.5, g=2.0), em=em)
        else:
            psi = packet_2d()
            kw = {}
            if kind != "free":
                kw = {"coupling": (1, drag(psi.grid, 1)),
                      "potential": lambda p, t: harmonic(p[:, 0], p[:, 1])}
            prop = split_prop(0.05, **kw)
        before = psi.values.copy()
        out = step(psi, prop)
        np.testing.assert_array_equal(psi.values, before)
        assert not psi.values.flags.writeable
        assert not out.values.flags.writeable
        assert not np.shares_memory(out.values, psi.values)

    def test_step_keeps_the_input_density(self):
        """A state's density is computed once and read-only; a step reads
        it for the norm check and leaves it as it was, and the new state
        has its own."""
        psi = packet_2d()
        rho = psi.density_nodes()
        before = rho.copy()
        out = step(psi, split_prop(0.05, coupling=(1, drag(psi.grid, 1))))
        assert psi.density_nodes() is rho and not rho.flags.writeable
        np.testing.assert_array_equal(rho, before)
        assert not np.shares_memory(out.density_nodes(), rho)
        np.testing.assert_array_equal(
            out.density_nodes(), np.sum(np.abs(out.values) ** 2, axis=0))

    @pytest.mark.parametrize("kind, expected", [
        ("free", 4), ("coupled", 6), ("potential", 8),
        ("potential+coupled", 8)])
    def test_passes_per_2d_step(self, fft_passes, kind, expected):
        """fftn K ifftn for a free step; the coupling adds one inverse and
        one forward pass along the other axis; a potential costs the two
        round trips it always did, and a coupling before it no more."""
        psi = packet_2d()
        kw = {}
        if "coupled" in kind:
            kw["coupling"] = (1, drag(psi.grid, 1))
        if "potential" in kind:
            kw["potential"] = lambda p, t: harmonic(p[:, 0], p[:, 1])
        prop = split_prop(0.05, **kw)
        step(psi, prop)              # builds the cached coupling factor
        fft_passes.clear()
        step(psi, prop)
        assert sum(fft_passes) == expected
