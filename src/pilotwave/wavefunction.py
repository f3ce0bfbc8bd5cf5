"""Wavefunction states: parametric (closed form) and grid-sampled.

Both carry spin dimension, particle masses and a time stamp.  States are
immutable: evolution and normalization return new objects, evaluation is
pure, so instances are safe to share across threads.
"""

import numpy as np

from . import families
from .errors import ConfigurationError, ShapeError


def axis_masses(masses, config_dim):
    """Mass of the particle each configuration axis belongs to, shape
    (config_dim,): the axes split evenly over the particles, in order."""
    if config_dim % len(masses):
        raise ConfigurationError(
            f"{config_dim} axes cannot be split over {len(masses)} particles")
    return np.repeat(masses, config_dim // len(masses))


def _hbar_m(masses, config_dim):
    """hbar / m per configuration axis, read-only (see `axis_masses`)."""
    out = 1.0 / axis_masses(masses, config_dim)
    out.setflags(write=False)
    return out


class ParametricWaveFunction:
    """Closed-form state from the family registry.

    The family is bound to `params` when the state is built
    (`families.build`): a missing or unknown key raises
    ConfigurationError, and so do family masses (the `m`, or `m1` and
    `m2`, that its dispersion uses) other than `masses`.  Evaluation
    reads the bound family only; `params` is kept for `at_time`."""

    representation = "parametric"

    def __init__(self, family, params, masses, time=0.0):
        self.family = family
        self.params = params
        self.masses = tuple(float(m) for m in np.atleast_1d(masses))
        if any(m <= 0 for m in self.masses):
            raise ConfigurationError("masses must be positive")
        self.time = float(time)
        self._fam = fam = families.build(family, params)
        if fam.masses is not None and tuple(map(float, fam.masses)) != self.masses:
            raise ConfigurationError(
                f"{family} params give masses {fam.masses}, the state {self.masses}")
        self._has_phase_gradient = hasattr(fam, "phase_gradient")
        self.spin_dim = fam.spin_dim
        self.config_dim = fam.config_dim
        self.hbar_m = _hbar_m(self.masses, self.config_dim)

    def _at(self, configs, t):
        """The points and time of an evaluation, the family kernels' one
        reader of both: configs as floats (npoints, config_dim), a single
        point as one row, and the state's own time when t is None, else
        t, a scalar or one time per point, shape (npoints,).  Another
        dimension or any other shape of t raises ShapeError."""
        x = families._as_points(configs, self.config_dim)
        if t is None:
            return x, self.time
        if isinstance(t, (float, int)):        # numpy's float64 is a float
            return x, t
        shape = np.shape(t)
        if shape and shape != (len(x),):
            raise ShapeError(f"t has shape {shape}; a time is a scalar or "
                             f"one per point, shape ({len(x)},)")
        return x, t

    def evaluate(self, configs, t=None):
        """Complex amplitude, shape (spin_dim, npoints), at time t (see
        `_at`).  Non-finite values (extreme underflow/overflow arguments)
        pass through; guidance treats them as node encounters."""
        return self._fam.value(*self._at(configs, t))

    def gradient(self, configs, t=None):
        """Spatial gradient, shape (spin_dim, config_dim, npoints)."""
        return self.value_gradient_moduli(configs, t)[1]

    def phase_gradient(self, configs, t=None):
        """grad S of psi = R e^{iS}, i.e. Im grad log psi, shape (npoints,
        config_dim), in real arithmetic and without evaluating psi; None
        unless the family is a single closed-form scalar term."""
        if not self._has_phase_gradient:
            return None
        return self._fam.phase_gradient(*self._at(configs, t))

    def value_gradient_moduli(self, configs, t=None):
        """(evaluate, gradient, moduli) from one family pass.

        The moduli sum_i |c_i phi_i| over the state's closed-form terms,
        shape (spin_dim, n), are what the terms would give if they all
        added in phase; None for a single closed-form term (nothing can
        cancel)."""
        return self._fam.value_gradient_moduli(*self._at(configs, t))

    def density(self, configs, t=None):
        v = self.evaluate(configs, t)
        return np.sum(np.abs(v) ** 2, axis=0)

    def at_time(self, t):
        """Same state at another time (families are exact free solutions)."""
        return ParametricWaveFunction(self.family, self.params, self.masses,
                                      time=t)


class GridWaveFunction:
    """State sampled on a uniform grid, one complex array per spin component."""

    representation = "grid"

    def __init__(self, grid, values, masses, time=0.0):
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
        self.config_dim = grid.ndim
        self.hbar_m = _hbar_m(self.masses, self.config_dim)
        self._density = self._norm = None

    @classmethod
    def sample(cls, state, grid):
        """Sample a parametric state on a grid."""
        vals = state.evaluate(grid.nodes()).reshape((state.spin_dim,) + grid.shape)
        return cls(grid, vals, state.masses, time=state.time)

    def density_nodes(self):
        """|psi|^2 summed over spin at the nodes, read-only; computed
        once (the state is immutable), for the norm and the snapshot
        field alike."""
        if self._density is None:
            density = np.sum(np.abs(self.values) ** 2, axis=0)
            density.setflags(write=False)
            self._density = density
        return self._density

    def norm(self):
        """L2 norm over the grid; computed once (the state is immutable)."""
        if self._norm is None:
            self._norm = float(np.sqrt(np.sum(self.density_nodes())
                                       * self.grid.cell_volume()))
        return self._norm

    def normalized(self):
        n = self.norm()
        if not np.isfinite(n) or n == 0:
            raise ConfigurationError("state norm is zero or non-finite")
        return GridWaveFunction(self.grid, self.values / n, self.masses,
                                time=self.time)

    def evaluate(self, configs):
        """Multilinear interpolation of each spin component."""
        return self.grid.interpolate(self.values, configs)

    def density(self, configs):
        v = self.evaluate(configs)
        return np.sum(np.abs(v) ** 2, axis=0)

    def with_values(self, values, time=None):
        return GridWaveFunction(self.grid, values, self.masses,
                                time=self.time if time is None else time)


def grid_gradient(values, grid):
    """Differentiate (..., *grid.shape) arrays along every grid axis.

    Returns shape (..., ndim, *grid.shape): fourth-order central
    differences in the interior, second order at the two outermost
    layers (one-sided on the very edge).  Each axis's derivative is
    written straight into its slot of the result; a complex array is
    differenced as its float view, real and imaginary parts alike.
    """
    lead = values.shape[:values.ndim - grid.ndim]
    out = np.empty(lead + (grid.ndim,) + grid.shape, dtype=values.dtype)
    for a in range(grid.ndim):
        _axis_derivative(values, grid.spacing[a], values.ndim - grid.ndim + a,
                         out[(Ellipsis, a) + (slice(None),) * grid.ndim])
    return out


def _axis_derivative(f, h, axis, out):
    """Write the stencil derivative of f along `axis` into out (f's shape).

    A complex f is differenced on its float view, where one node of the
    last axis is two floats, and scaled by the reciprocal of 12h or 2h:
    numpy divides a complex array by a real scalar that way, so the
    result is the complex arithmetic's bit for bit.  A real f is divided.
    """
    if f.shape[axis] < 5:
        raise ShapeError("need at least 5 points per axis for derivatives")
    width = 1
    if np.iscomplexobj(f):
        width = 2 if axis == f.ndim - 1 else 1
        f, out = np.ascontiguousarray(f).view(float), out.view(float)

        def scale(x, c):
            np.multiply(x, 1.0 / c, out=x)
    else:
        def scale(x, c):
            np.divide(x, c, out=x)

    def nodes(i, j=None):
        """Index of nodes i:j along the axis (j None: to the end)."""
        return (slice(None),) * axis + (
            slice(width * i, None if j is None else width * j),)

    # 4th-order interior, ((f0 - 8 f1) + 8 f3) - f4, through one scratch
    mid = out[nodes(2, -2)]
    scratch = np.multiply(f[nodes(1, -3)], 8)
    np.subtract(f[nodes(0, -4)], scratch, out=mid)
    np.multiply(f[nodes(3, -1)], 8, out=scratch)
    np.add(mid, scratch, out=mid)
    np.subtract(mid, f[nodes(4)], out=mid)
    scale(mid, 12.0 * h)
    # 2nd-order at the two outermost layers
    edge = {i: nodes(i, i + 1 or None) for i in (0, 1, 2, -3, -2, -1)}
    out[edge[0]] = -3 * f[edge[0]] + 4 * f[edge[1]] - f[edge[2]]
    out[edge[1]] = f[edge[2]] - f[edge[0]]
    out[edge[-2]] = f[edge[-1]] - f[edge[-3]]
    out[edge[-1]] = 3 * f[edge[-1]] - 4 * f[edge[-2]] + f[edge[-3]]
    for i in (0, 1, -2, -1):
        scale(out[edge[i]], 2.0 * h)
