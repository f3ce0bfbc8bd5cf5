"""Non-relativistic probability density and current with spin.

The current splits as j = j_c + j_s:

    j_c = (hbar / 2 m i) (psi^dag D psi - (D psi)^dag psi)
    j_s = (g / 2 m) curl(psi^dag S psi)

with D = grad - (i e / hbar c) V the covariant derivative and S the
rotation generators for the state's spin.  j_s is divergence-free, so it
never contributes to the continuity equation; whether to include it in
the guidance law is ambiguous in principle (any divergence-free addition
is admissible), which is why the gyromagnetic factor g is a free knob
here with the elementary-particle default g = 1/s.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NormalizationError, ShapeError
from .matrices import bilinears
from .units import NATURAL
from .wavefunction import grid_gradient

# the relative node floor of every guidance velocity (see `guide`)
RHO_FLOOR_REL = 1e-12


def spin_generators(s, hbar=1.0):
    """Rotation generators in the (2s+1)-dimensional representation."""
    if s == 0:
        return np.zeros((3, 1, 1), dtype=complex)
    if s == 0.5:
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        return 0.5 * hbar * np.array([sx, sy, sz])
    if s == 1:
        eps = np.zeros((3, 3, 3))
        for (i, j, k), sign in {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
                                (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}.items():
            eps[i, j, k] = sign
        return -1j * hbar * eps
    raise ShapeError(f"unsupported spin {s}; use 0, 1/2 or 1")


@dataclass(frozen=True)
class SpinSpec:
    """Spin value, gyromagnetic factor and generators.

    g defaults to 0 for spin 0 and 1/s otherwise (the elementary value),
    but is overridable: time-of-arrival experiments contrast g choices.
    """
    s: float
    g: float = None
    hbar: float = 1.0
    generators: np.ndarray = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.s not in (0, 0.5, 1):
            raise ShapeError(f"unsupported spin {self.s}")
        gens = spin_generators(self.s, self.hbar)
        # [S_i, S_j] = i hbar eps_ijk S_k, checked entrywise
        for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            comm = gens[i] @ gens[j] - gens[j] @ gens[i]
            if not np.allclose(comm, 1j * self.hbar * gens[k], atol=1e-14):
                raise ShapeError("generator commutation relations failed")
        object.__setattr__(self, "generators", gens)
        if self.g is None:
            object.__setattr__(self, "g", 0.0 if self.s == 0 else 1.0 / self.s)

    @property
    def dim(self):
        return int(2 * self.s + 1)


@dataclass(frozen=True)
class EmPotential:
    """External electromagnetic potentials V0(x, t) and V(x, t).

    v0 maps (n, 3) points to (n,) scalars; v maps them to (n, 3) vectors.
    The magnetic field is the curl of v by central differences with a
    fixed stencil spacing unless an explicit b callable is supplied.
    """
    v0: object = None
    v: object = None
    charge: float = 1.0
    b: object = None
    stencil_h: float = 1e-5

    def scalar(self, x, t):
        if self.v0 is None:
            return np.zeros(np.atleast_2d(x).shape[0])
        return np.asarray(self.v0(np.atleast_2d(x), t), dtype=float)

    def vector(self, x, t):
        x = np.atleast_2d(x)
        if self.v is None:
            return np.zeros_like(x)
        return np.asarray(self.v(x, t), dtype=float)

    def bfield(self, x, t):
        x = np.atleast_2d(x)
        if self.b is not None:
            return np.asarray(self.b(x, t), dtype=float)
        if self.v is None:
            return np.zeros_like(x)
        h = self.stencil_h
        dv = np.empty((3, x.shape[0], 3))
        for a in range(3):
            e = np.zeros(3)
            e[a] = h
            dv[a] = (self.vector(x + e, t) - self.vector(x - e, t)) / (2 * h)
        return np.stack([dv[1][:, 2] - dv[2][:, 1],
                         dv[2][:, 0] - dv[0][:, 2],
                         dv[0][:, 1] - dv[1][:, 0]], axis=-1)


@dataclass(frozen=True)
class CurrentField:
    """Density and current at the evaluated points, with decomposition.

    in_phase is the density the state's closed-form terms would give if
    they all added in phase, from the same pass (see
    `ParametricWaveFunction.value_gradient_in_phase`); None for a single
    term or a grid state."""
    rho: np.ndarray
    j: np.ndarray
    j_c: np.ndarray
    j_s: np.ndarray
    in_phase: np.ndarray = None


def _state_arrays(psi, at, t):
    """psi values, gradients and in-phase density at points, from one
    closed-form pass or from stencils (no in-phase density)."""
    at = np.atleast_2d(np.asarray(at, dtype=float))
    if psi.representation == "grid":
        psi.grid.require_inside(at)
        return (at, *psi.value_and_gradient(at, t=t), None)
    return (at, *psi.value_gradient_in_phase(at, t=t))


def _magnetization_terms(val, grad, gens):
    """m_a = psi^dag S_a psi and its spatial derivatives d_i m_a."""
    m = bilinears(val, gens)
    # d_i (psi^dag S_a psi) = 2 Re[(d_i psi)^dag S_a psi] for Hermitian S_a
    dm = 2.0 * np.real(np.einsum("sin,asb,bn->ian", grad.conj(), gens, val))
    return m, dm


def current(psi, spin, em=None, at=None, t=None):
    """Density, total current and its convective/spin split at points.

    Returns a CurrentField with rho (n,), and j, j_c, j_s shaped (n, 3).
    States with fewer than 3 spatial axes are padded with zero components
    so curls are well defined.
    """
    if spin.dim != psi.spin_dim:
        raise ShapeError(
            f"state spin_dim {psi.spin_dim} does not match spin s={spin.s}")
    if len(psi.masses) != 1:
        raise ShapeError("current() is single-particle; see configuration_velocity")
    m = psi.masses[0]
    hbar = psi.units.hbar
    tt = psi.time if t is None else t
    at, val, grad, in_phase = _state_arrays(psi, at, tt)
    n, d = at.shape

    rho = np.sum(np.abs(val) ** 2, axis=0)
    # convective part: (hbar/m) Im(psi^dag grad psi) - (e/mc) V rho
    j_c = np.zeros((n, 3))
    j_c[:, :d] = (hbar / m) * np.imag(np.einsum("sn,sin->in", val.conj(), grad)).T
    if em is not None:
        x3 = np.zeros((n, 3))
        x3[:, :d] = at
        j_c -= (em.charge / (m * psi.units.c)) * em.vector(x3, tt) * rho[:, None]

    j_s = np.zeros((n, 3))
    if spin.s != 0 and spin.g != 0:
        mag, dmag = _magnetization_terms(val, grad, spin.generators)
        curl = np.zeros((n, 3))
        # curl_i = eps_ijk d_j m_k, with derivatives only along existing axes
        pairs = (((1, 2), (2, 1)), ((2, 0), (0, 2)), ((0, 1), (1, 0)))
        for i, ((ja, ka), (jb, kb)) in enumerate(pairs):
            if ja < d:
                curl[:, i] += dmag[ja, ka]
            if jb < d:
                curl[:, i] -= dmag[jb, kb]
        j_s = (spin.g / (2.0 * m)) * curl
    return CurrentField(rho=rho, j=j_c + j_s, j_c=j_c, j_s=j_s,
                        in_phase=in_phase)


def spin_eigenstate_current(phi_scalar, chi, spin, at=None, t=None):
    """Current of a spin eigenstate psi = phi'(x) chi in factored form.

    j = (hbar/2mi)(phi'* grad phi' - c.c.) + (g/2m) curl(|phi'|^2 s) with
    the constant spin vector s = chi^dag S chi.
    """
    chi = np.asarray(chi, dtype=complex)
    if abs(np.vdot(chi, chi) - 1.0) > 1e-10:
        raise NormalizationError("chi must be a unit spinor")
    if phi_scalar.spin_dim != 1:
        raise ShapeError("phi_scalar must be a scalar state")
    if len(chi) != spin.dim:
        raise ShapeError("chi length does not match spin")
    m = phi_scalar.masses[0]
    hbar = phi_scalar.units.hbar
    tt = phi_scalar.time if t is None else t
    at, val, grad, _ = _state_arrays(phi_scalar, at, tt)
    n, d = at.shape
    rho = np.abs(val[0]) ** 2
    svec = bilinears(chi[:, None], spin.generators)[:, 0]

    j = np.zeros((n, 3))
    j[:, :d] = (hbar / m) * np.imag(val[0].conj() * grad[0]).T
    if spin.g != 0:
        drho = 2.0 * np.real(grad[0].conj() * val[0])   # (d, n)
        grad_rho = np.zeros((n, 3))
        grad_rho[:, :d] = drho.T
        j += (spin.g / (2.0 * m)) * np.cross(grad_rho, svec[None, :])
    return rho, j, svec


def continuity_residual(psi_a, psi_b, spin, em=None):
    """Discrete continuity defect between two grid snapshots.

    Forward difference of the density in time plus the stencil divergence
    of the current; the current is averaged over the two snapshots so the
    time difference is effectively centered (second order in dt).
    Returns (field, max_norm, l2_norm); the norms cover the interior
    nodes only, since the outermost layers switch stencil order and the
    experiments keep boundary probability negligible.
    """
    if psi_a.representation != "grid" or psi_b.representation != "grid":
        raise ShapeError("continuity_residual needs grid snapshots")
    if psi_a.grid.shape != psi_b.grid.shape or psi_a.grid.extents != psi_b.grid.extents:
        raise ShapeError("snapshots live on different grids")
    dt = psi_b.time - psi_a.time
    if dt <= 0:
        raise ShapeError("snapshots must be time ordered")
    drho_dt = (psi_b.density_nodes() - psi_a.density_nodes()) / dt
    div = 0.5 * (_current_divergence_nodes(psi_a, spin, em)
                 + _current_divergence_nodes(psi_b, spin, em))
    res = drho_dt + div
    margin = 4 if all(n > 12 for n in psi_a.grid.shape) else 0
    core = res[tuple(slice(margin, n - margin) for n in res.shape)] if margin else res
    vol = psi_a.grid.cell_volume()
    return res, float(np.max(np.abs(core))), float(np.sqrt(np.sum(core**2) * vol))


def _current_divergence_nodes(psi, spin, em):
    """div j on the grid nodes (axes beyond the grid carry no flux)."""
    j = grid_current_nodes(psi, spin, em)      # (ndim, *shape)
    div = np.zeros(psi.grid.shape)
    for a in range(psi.grid.ndim):
        div += grid_gradient(j[a], psi.grid)[a]
    return div


def grid_current_nodes(psi, spin, em=None):
    """Current arrays on all grid nodes, shape (ndim, *shape).

    Same physics as current(), vectorized over the whole grid; only the
    components along the grid axes are returned.
    """
    if spin.dim != psi.spin_dim:
        raise ShapeError("state/spin mismatch")
    m = psi.masses[0]
    hbar = psi.units.hbar
    val = psi.values
    grad = psi.gradient_nodes()                # (spin, ndim, *shape)
    nd = psi.grid.ndim
    rho = psi.density_nodes()
    j = (hbar / m) * np.imag(np.einsum("s...,si...->i...", val.conj(), grad))
    if em is not None:
        mesh = psi.grid.meshgrid()
        pts = np.zeros(mesh[0].shape + (3,))
        for a in range(nd):
            pts[..., a] = mesh[a]
        vvec = em.vector(pts.reshape(-1, 3), psi.time).reshape(mesh[0].shape + (3,))
        for a in range(nd):
            j[a] -= (em.charge / (m * psi.units.c)) * vvec[..., a] * rho
    if spin.s != 0 and spin.g != 0 and nd >= 2:
        mag = bilinears(val.reshape(len(val), -1), spin.generators).reshape(
            (3,) + val.shape[1:])
        dmag = np.stack([grid_gradient(mag[a], psi.grid) for a in range(3)])
        # curl components along grid axes; missing axes contribute nothing
        def dd(a, i):
            return dmag[a][i] if i < nd else 0.0
        curl = [dd(2, 1) - dd(1, 2), dd(0, 2) - dd(2, 0), dd(1, 0) - dd(0, 1)]
        for a in range(nd):
            j[a] = j[a] + (spin.g / (2.0 * m)) * curl[a]
    return j


def configuration_velocity(psi, at=None, t=None):
    """Spin-0 N-particle guidance velocity in configuration space.

    v_k = (hbar / m_k) Im(grad_k psi / psi), returned flattened over the
    configuration axes, shape (n, config_dim).  A single closed-form term
    gives grad log psi in closed form (`log_gradient`), so psi, the
    division and the density never enter: far in a Gaussian tail the
    velocity stays exact where psi itself underflows.  Otherwise the
    velocity is grad psi / psi, and a point is a node encounter (NaN
    velocity) where it is not finite (psi = 0) or where the density is at
    or below RHO_FLOOR_REL times the state's in-phase density (a sum whose
    terms cancel; grid states have no floor).
    """
    if psi.spin_dim != 1:
        raise ShapeError("configuration_velocity covers scalar states")
    tt = psi.time if t is None else t
    at = np.atleast_2d(np.asarray(at, dtype=float))
    dlog = (psi.log_gradient(at, tt) if psi.representation == "parametric"
            else None)
    node = False
    if dlog is None:
        at, val, grad, in_phase = _state_arrays(psi, at, tt)
        # psi = 0 divides by zero, a subnormal psi may overflow; the NaN or
        # inf left behind is the node signal
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dlog = grad[0] / val[0]
        if in_phase is not None:
            floor = RHO_FLOOR_REL * in_phase
            node = (floor > 0) & ~(np.abs(val[0]) ** 2 > floor)
    hbar = psi.units.hbar
    v = np.empty_like(at)
    for k, axes in enumerate(psi.particle_axes):
        for a in axes:
            v[:, a] = (hbar / psi.masses[k]) * np.imag(dlog[a])
    v[~np.all(np.isfinite(v), axis=1) | node] = np.nan
    return v
