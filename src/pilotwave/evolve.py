"""Time propagation of wavefunctions.

Two methods:

* ``analytic``   exact closed-form evolution for registered parametric
                 families (free motion; families carry the full time
                 dependence, so a step just advances the time stamp).
* ``split-step`` Strang-split spectral propagation for grid states
                 (Strang 1968): kinetic half step in momentum space, full
                 coupling, potential and spin-B step, kinetic half step.

The mid step covers a coupling term g(x) p_a with g constant along axis
a (a von Neumann pointer coupling), the scalar potential V and the
Zeeman coupling -(e g / 2 m c) S.B with the `EmPotential`'s B, the
latter exponentiated exactly with the (2s+1)x(2s+1) matrix exponential
at each grid point.  Vector-potential terms in the kinetic operator are
not supported (none of the shipped experiments needs them), so a
`Propagator` refuses an `EmPotential` with v; the boundary is periodic.

Each factor is applied in the representation it is diagonal in (Feit,
Fleck & Steiger, J. Comput. Phys. 47, 412 (1982)): the kinetic halves in
full k space, the coupling in (x, k_a), the potential and the Zeeman
factor in x.  Between factors only the axes whose representation
differs are transformed.  On a d-dimensional grid a free step costs 2d
one-axis FFT passes (fftn, K, ifftn), a coupled step 2d + 2(d - 1), and
a step with a potential or Zeeman term 4d, with or without a coupling.
"""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .currents import SpinSpec
from .errors import (ConfigurationError, ShapeError, StabilityError,
                     UnsupportedFamilyError)
from .wavefunction import axis_masses

NORM_DRIFT_TOL = 1e-10


@dataclass
class Propagator:
    """Propagation recipe: method, time step, optional potentials, spin,
    coupling term."""
    method: str
    dt: float
    spin: SpinSpec = field(default_factory=lambda: SpinSpec(0))
    potential: object = None          # V(x, t) -> (n,) scalar
    em: object = None                 # EmPotential with B only, no v
    coupling: tuple = None            # (axis, g): g(x) p_axis, g on the nodes
    _coupling_factors: dict = field(default_factory=dict, init=False,
                                    repr=False, compare=False)

    def __post_init__(self):
        if self.method not in ("analytic", "split-step"):
            raise ConfigurationError(
                f"unknown propagation method {self.method!r}")
        if not self.dt > 0:
            raise StabilityError("dt must be positive")
        if self.em is not None and self.em.v is not None:
            raise ConfigurationError(
                "the split step has no vector potential; EmPotential.v is set")
        if self.coupling is not None:
            axis, g = self.coupling
            if np.ptp(np.asarray(g, dtype=float), axis=axis).any():
                raise ShapeError("coupling g must be constant along its axis")

    def coupling_factor(self, grid):
        """exp(-i g k_a dt), the exact step of g(x) p_a in the (x, k_a)
        representation (hbar cancels); built once per grid."""
        if grid not in self._coupling_factors:
            axis, g = self.coupling
            k = 2.0 * np.pi * np.fft.fftfreq(grid.points[axis],
                                             d=grid.spacing[axis])
            shape = [1] * grid.ndim
            shape[axis] = -1
            self._coupling_factors[grid] = np.exp(
                -1j * np.asarray(g) * k.reshape(shape) * self.dt)
        return self._coupling_factors[grid]


def _kinetic_phase(psi, dt):
    """Half-step momentum-space factors exp(-i hbar k^2 dt / 4 m), one per
    grid axis (mass taken from the axis's particle)."""
    grid = psi.grid
    axis_mass = axis_masses(psi.masses, grid.ndim)
    phases = []
    for a in range(grid.ndim):
        n = grid.points[a]
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing[a])
        shape = [1] * grid.ndim
        shape[a] = n
        phases.append(np.exp(-1j * k**2 * dt / (4.0 * axis_mass[a]))
                      .reshape(shape))
    return phases


def _potential_factor(psi, prop, t_mid):
    """Position-space full-step factor for V, diagonal in spin."""
    v = np.asarray(prop.potential(psi.grid.nodes(), t_mid), dtype=float)
    vmax = float(np.max(np.abs(v))) if v.size else 0.0
    if prop.dt * vmax >= 0.5:
        raise StabilityError(
            f"dt * max|V| / hbar = {prop.dt * vmax:.3f} >= 0.5")
    return np.exp(-1j * prop.dt * v).reshape(psi.grid.shape)


def _zeeman_unitary(psi, prop, t_mid):
    """Per-point exp(+i e g dt S.B / (2 m c hbar)) (exact, unitary), shaped
    (npoints, 2s+1, 2s+1); None where there is no Zeeman term."""
    spin = prop.spin
    if spin.s == 0 or spin.g == 0 or prop.em is None:
        return None
    b = prop.em.bfield(psi.grid.nodes(), t_mid)
    if not np.any(b):
        return None
    coef = 1j * prop.em.charge * spin.g * prop.dt / (2.0 * psi.masses[0])
    sdotb = np.einsum("iab,ni->nab", spin.generators, b)
    w, vecs = np.linalg.eigh(sdotb)   # Hermitian: exact exponential
    phase = np.exp(coef * w)
    return np.einsum("nab,nb,ncb->nac", vecs, phase, vecs.conj())


def _multiply(*factors):
    def apply(vals):
        for f in factors:
            vals *= f
        return vals
    return apply


def _rotate(u):
    def apply(vals):
        flat = vals.reshape(vals.shape[0], -1).T[:, :, None]
        return (u @ flat)[:, :, 0].T.reshape(vals.shape)
    return apply


def _factors(psi, prop, t_mid):
    """The Strang factors in order, each as (representation, apply):
    representation[a] is True where grid axis a must be in k space, and
    apply(vals) multiplies the factor in (in place where it can)."""
    ndim = psi.grid.ndim
    k_space, x_space = (True,) * ndim, (False,) * ndim
    half = (k_space, _multiply(*_kinetic_phase(psi, prop.dt)))
    mid = []
    if prop.coupling is not None:
        axis = prop.coupling[0]
        mid.append((tuple(a == axis for a in range(ndim)),
                    _multiply(prop.coupling_factor(psi.grid))))
    if prop.potential is not None:
        mid.append((x_space, _multiply(_potential_factor(psi, prop, t_mid))))
    u = _zeeman_unitary(psi, prop, t_mid)
    if u is not None:
        mid.append((x_space, _rotate(u)))
    return [half] + mid + [half]


def _transform(vals, rep, want):
    """Take vals (spin axis first) from representation `rep` to `want`, in
    place, transforming only the grid axes on which they differ."""
    to_x = tuple(a + 1 for a, (r, w) in enumerate(zip(rep, want)) if r and not w)
    to_k = tuple(a + 1 for a, (r, w) in enumerate(zip(rep, want)) if w and not r)
    if to_x:
        vals = np.fft.ifftn(vals, axes=to_x, out=vals)
    if to_k:
        vals = np.fft.fftn(vals, axes=to_k, out=vals)
    return vals


def step(psi, prop):
    """One time step; returns a new state at psi.time + prop.dt."""
    if prop.method == "analytic":
        if psi.representation != "parametric":
            raise UnsupportedFamilyError("analytic method needs a parametric state")
        if any(x is not None for x in (prop.potential, prop.em, prop.coupling)):
            raise UnsupportedFamilyError("registered families evolve freely; "
                                         "potentials and couplings need split-step")
        return psi.at_time(psi.time + prop.dt)

    if psi.representation != "grid":
        raise ShapeError("split-step needs a grid state")
    if prop.spin.dim != psi.spin_dim:
        raise ShapeError("propagator spin does not match the state")
    if any(n & (n - 1) for n in psi.grid.points):
        warnings.warn("split-step grid points are not powers of two; FFTs "
                      "will be slower", stacklevel=2)

    # one copy of the read-only values; every transform and factor then
    # works in place on it (or on the fresh array a rotation returns)
    x_space = (False,) * psi.grid.ndim
    vals, rep = psi.values.copy(), x_space
    for want, apply in _factors(psi, prop, psi.time + 0.5 * prop.dt):
        vals = apply(_transform(vals, rep, want))
        rep = want
    vals = _transform(vals, rep, x_space)

    out = psi.with_values(vals, time=psi.time + prop.dt)
    drift = abs(out.norm() - psi.norm())
    if drift > NORM_DRIFT_TOL:
        raise StabilityError(f"norm drifted by {drift:.2e} in one step")
    return out


def propagate_to(psi, prop, t_final, snapshot_times=()):
    """Repeated stepping with exact landings on the snapshot times.

    Returns the list of snapshot states (in requested order) plus the
    final state appended if t_final is not itself a snapshot time.
    """
    times = list(snapshot_times)
    if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
        raise ShapeError("snapshot_times must be strictly increasing")
    if times and (times[0] < psi.time or times[-1] > t_final):
        raise ShapeError("snapshot_times must lie within [t, t_final]")
    marks = times + ([t_final] if not times or times[-1] < t_final else [])
    out = []
    state = psi
    for mark in marks:
        while state.time < mark - 1e-12 * max(1.0, abs(mark)):
            remaining = mark - state.time
            if remaining >= prop.dt * (1 + 1e-12):
                state = step(state, prop)
            else:
                state = step(state, replace(prop, dt=remaining))
        out.append(state)
    return out
