"""Wavefunction states: parametric (closed form) and grid-sampled.

Both carry spin dimension, particle masses and a time stamp.  States are
immutable: evolution and normalization return new objects, evaluation is
pure, so instances are safe to share across threads.
"""

import numpy as np

from . import families
from .errors import ConfigurationError, ShapeError, UnsupportedFamilyError
from .grid import Grid
from .units import NATURAL



def _particle_axes(config_dim, n_particles):
    if config_dim % n_particles:
        raise ConfigurationError(
            f"{config_dim} axes cannot be split over {n_particles} particles")
    d = config_dim // n_particles
    return tuple(tuple(range(k * d, (k + 1) * d)) for k in range(n_particles))


class ParametricWaveFunction:
    """Closed-form state from the family registry."""

    representation = "parametric"

    def __init__(self, family, params, masses, time=0.0, units=NATURAL,
                 particle_axes=None):
        self.family = family
        self.params = params
        self.masses = tuple(float(m) for m in np.atleast_1d(masses))
        if any(m <= 0 for m in self.masses):
            raise ConfigurationError("masses must be positive")
        self.time = float(time)
        self.units = units
        fam = families.get_family(family)
        self.spin_dim = fam.spin_dim(params)
        self.config_dim = fam.config_dim(params)
        self.particle_axes = (particle_axes if particle_axes is not None
                              else _particle_axes(self.config_dim, len(self.masses)))

    def evaluate(self, configs, t=None):
        """Complex amplitude, shape (spin_dim, npoints).

        Non-finite values (extreme underflow/overflow arguments) pass
        through; guidance treats them as node encounters, and the public
        `evaluate` wrapper validates finiteness for API users."""
        fam = families.get_family(self.family)
        return fam.value(self.params, configs, self.time if t is None else t,
                         hbar=self.units.hbar)

    def value_and_gradient(self, configs, t=None):
        """(evaluate, gradient) at the same points from one family pass."""
        fam = families.get_family(self.family)
        return fam.value_and_gradient(self.params, configs,
                                      self.time if t is None else t,
                                      hbar=self.units.hbar)

    def gradient(self, configs, t=None):
        """Spatial gradient, shape (spin_dim, config_dim, npoints)."""
        return self.value_and_gradient(configs, t)[1]

    def density(self, configs, t=None):
        v = self.evaluate(configs, t)
        return np.sum(np.abs(v) ** 2, axis=0)

    def in_phase_density(self, configs, t=None):
        """(sum_i |c_i phi_i|)^2 summed over spin components, shape (n,):
        the density the state's terms would give if they all added in
        phase.  None for a single closed-form term (nothing can cancel)."""
        fam = families.get_family(self.family)
        mod = families.term_moduli(fam, self.params, configs,
                                   self.time if t is None else t,
                                   hbar=self.units.hbar)
        return None if mod is None else np.sum(mod**2, axis=0)

    def at_time(self, t):
        """Same state at another time (families are exact free solutions)."""
        return ParametricWaveFunction(self.family, self.params, self.masses,
                                      time=t, units=self.units,
                                      particle_axes=self.particle_axes)

    def __repr__(self):
        return (f"ParametricWaveFunction({self.family!r}, spin_dim={self.spin_dim}, "
                f"t={self.time})")


class GridWaveFunction:
    """State sampled on a uniform grid, one complex array per spin component."""

    representation = "grid"

    def __init__(self, grid, values, masses, time=0.0, units=NATURAL,
                 particle_axes=None):
        values = np.asarray(values, dtype=complex)
        if values.ndim == grid.ndim:
            values = values[None, ...]
        if values.shape[1:] != grid.shape:
            raise ShapeError(
                f"values shape {values.shape[1:]} does not match grid {grid.shape}")
        self.grid = grid
        self.values = values
        self.values.setflags(write=False)
        self.spin_dim = values.shape[0]
        self.masses = tuple(float(m) for m in np.atleast_1d(masses))
        if any(m <= 0 for m in self.masses):
            raise ConfigurationError("masses must be positive")
        self.time = float(time)
        self.units = units
        self.config_dim = grid.ndim
        self.particle_axes = (particle_axes if particle_axes is not None
                              else _particle_axes(self.config_dim, len(self.masses)))

    @classmethod
    def from_callable(cls, grid, func, masses, time=0.0, units=NATURAL,
                      spin_dim=1, particle_axes=None):
        """Sample psi(x) on the grid; func maps stacked meshgrid coords to
        values of shape (spin_dim, *grid.shape) or (*grid.shape,)."""
        mesh = grid.meshgrid()
        vals = np.asarray(func(*mesh), dtype=complex)
        if vals.ndim == grid.ndim:
            vals = vals[None, ...]
        return cls(grid, vals, masses, time=time, units=units,
                   particle_axes=particle_axes)

    @classmethod
    def sample(cls, state, grid, particle_axes=None):
        """Sample a parametric state on a grid."""
        mesh = grid.meshgrid()
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        vals = state.evaluate(pts).reshape((state.spin_dim,) + grid.shape)
        return cls(grid, vals, state.masses, time=state.time, units=state.units,
                   particle_axes=particle_axes or state.particle_axes)

    def density_nodes(self):
        return np.sum(np.abs(self.values) ** 2, axis=0)

    def norm(self):
        return float(np.sqrt(np.sum(self.density_nodes()) * self.grid.cell_volume()))

    def normalized(self):
        n = self.norm()
        if not np.isfinite(n) or n == 0:
            raise ConfigurationError("state norm is zero or non-finite")
        return GridWaveFunction(self.grid, self.values / n, self.masses,
                                time=self.time, units=self.units,
                                particle_axes=self.particle_axes)

    def evaluate(self, configs, t=None):
        """Multilinear interpolation of each spin component."""
        return self.grid.interpolate(self.values, configs)

    def gradient_nodes(self):
        """Spatial gradient at the nodes, shape (spin, ndim, *shape).

        Fourth-order central differences in the interior; second order at
        the two outermost layers (one-sided on the very edge).
        """
        return grid_gradient(self.values, self.grid)

    def gradient(self, configs, t=None):
        g = self.gradient_nodes()
        flat = self.grid.interpolate(
            g.reshape((self.spin_dim * self.config_dim,) + self.grid.shape), configs)
        return flat.reshape(self.spin_dim, self.config_dim, -1)

    def value_and_gradient(self, configs, t=None):
        """(evaluate, gradient) at the same points."""
        return self.evaluate(configs), self.gradient(configs)

    def density(self, configs, t=None):
        v = self.evaluate(configs)
        return np.sum(np.abs(v) ** 2, axis=0)

    def with_values(self, values, time=None):
        return GridWaveFunction(self.grid, values, self.masses,
                                time=self.time if time is None else time,
                                units=self.units, particle_axes=self.particle_axes)

    def __repr__(self):
        return (f"GridWaveFunction(shape={self.grid.shape}, "
                f"spin_dim={self.spin_dim}, t={self.time})")


def grid_gradient(values, grid):
    """Differentiate (..., *grid.shape) arrays along every grid axis.

    Returns shape (..., ndim, *grid.shape).
    """
    lead = values.shape[:values.ndim - grid.ndim]
    out = np.empty(lead + (grid.ndim,) + grid.shape, dtype=values.dtype)
    for a in range(grid.ndim):
        out[(Ellipsis, a) + (slice(None),) * grid.ndim] = _axis_derivative(
            values, grid.spacing[a], values.ndim - grid.ndim + a)
    return out


def _axis_derivative(f, h, axis):
    f = np.moveaxis(f, axis, -1)
    n = f.shape[-1]
    d = np.empty_like(f)
    if n < 5:
        raise ShapeError("need at least 5 points per axis for derivatives")
    # 4th-order interior
    d[..., 2:-2] = (f[..., :-4] - 8 * f[..., 1:-3]
                    + 8 * f[..., 3:-1] - f[..., 4:]) / (12.0 * h)
    # 2nd-order at the two outermost layers
    d[..., 0] = (-3 * f[..., 0] + 4 * f[..., 1] - f[..., 2]) / (2.0 * h)
    d[..., 1] = (f[..., 2] - f[..., 0]) / (2.0 * h)
    d[..., -2] = (f[..., -1] - f[..., -3]) / (2.0 * h)
    d[..., -1] = (3 * f[..., -1] - 4 * f[..., -2] + f[..., -3]) / (2.0 * h)
    return np.moveaxis(d, -1, axis)


def evaluate(psi, config):
    """Evaluate a state at one configuration point; returns the complex
    spin vector of length spin_dim."""
    out = psi.evaluate(np.atleast_2d(np.asarray(config, dtype=float)))
    if not np.all(np.isfinite(out)):
        raise UnsupportedFamilyError(
            "state evaluated to non-finite values at this configuration")
    return out[:, 0]
