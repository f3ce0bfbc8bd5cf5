"""Non-relativistic density and current with spin, and both guidance
laws with their node floor RHO_FLOOR_REL: `configuration_velocity`
(v = j / rho of a closed-form state) and `bilinear_flow` (v = j^i / j^0
of every Dirac and DKP bilinear current).

The non-relativistic current splits as j = j_c + j_s:

    j_c = (hbar / 2 m i) (psi^dag D psi - (D psi)^dag psi)
    j_s = (g / 2 m) curl(psi^dag S psi)

with D = grad - (i e / hbar c) V the covariant derivative and S the
rotation generators for the state's spin.  j_s is divergence-free, so it
never contributes to the continuity equation; whether to include it in
the guidance law is ambiguous in principle (any divergence-free addition
is admissible), which is why the gyromagnetic factor g is a free knob
here with the elementary-particle default g = 1/s.

One kernel, `_flux`, computes both parts from values and gradients: at
points of a closed-form state (`current`, and `configuration_velocity`,
the one guidance law v = j / rho of every closed-form state) and on the
nodes of a grid state (`grid_current_nodes`).  A grid state has that one
current: the snapshot velocity source and `continuity_residual` use its
nodes, and the pointwise functions raise ShapeError for a grid state
rather than interpolate psi and its stencil gradient.  `_flux` takes
hbar/m per configuration axis, so each particle of a many-particle
state keeps its own mass.  On a grid, grad psi is
`wavefunction.grid_gradient`: fourth-order stencils written per axis
into one array, with no axis moved, a complex psi differenced as its
float view (real and imaginary parts alike, bit for bit the complex
arithmetic).  The spin term needs d_j m_k for
m = psi^dag S psi: the product rule at points, stencil differences of m
on grids.  Stencil differences commute, so the stencil divergence of the
stencil curl cancels to roundoff (3.8e-14 of max|j_s| on a 201^2
spin-1/2 grid, 3.7e-6 with the product rule) and j_s stays out of
`continuity_residual`.  A grid state's density is computed once
(`GridWaveFunction.density_nodes`, read-only), so the split step's norm
check and the snapshot field share it.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (CausalityViolationError, DomainError,
                     InvariantViolationError, NodeError, ShapeError)
from .matrices import PAULI, bilinears
from .wavefunction import grid_gradient

# the relative node floor of every guidance velocity (see `guide`)
RHO_FLOOR_REL = 1e-12


def bilinear_flow(j, scale):
    """The relativistic flow law: v = j^i / j^0, shape (n, 3k), from the
    bilinears j of k particles, time component first, shape (1 + 3k, n).

    Bilinears that are not finite, as at a NaN point, raise DomainError.
    With the state's density scale, j^0 < -1e-12 scale raises
    InvariantViolationError, j^0 <= RHO_FLOOR_REL scale NodeError, and a
    particle with |v_r|^2 > 1 + 1e-10 CausalityViolationError."""
    if not np.isfinite(j).all():
        raise DomainError("bilinears not finite")
    if np.any(j[0] < -1e-12 * scale):
        raise InvariantViolationError("j^0 < 0 on a supposedly valid state")
    if np.any(j[0] <= RHO_FLOOR_REL * scale):
        raise NodeError("density j^0 at or below floor")
    v = j[1:].T / j[0][:, None]
    if np.any(np.sum(v.reshape(len(v), -1, 3) ** 2, axis=-1) > 1 + 1e-10):
        raise CausalityViolationError("spacelike current: |v| > 1")
    return v


def _spin_generators():
    """Rotation generators S_i in the (2s+1)-dimensional representation
    of each supported spin s, read-only, their commutators checked."""
    eps = np.zeros((3, 3, 3))
    for (i, j, k), sign in {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
                            (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}.items():
        eps[i, j, k] = sign
    sets = {0: np.zeros((3, 1, 1), dtype=complex), 0.5: 0.5 * PAULI,
            1: -1j * eps}
    for gens in sets.values():
        # [S_i, S_j] = i hbar eps_ijk S_k, checked entrywise
        for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            comm = gens[i] @ gens[j] - gens[j] @ gens[i]
            if not np.allclose(comm, 1j * gens[k], atol=1e-14):
                raise InvariantViolationError(
                    "generator commutation relations failed")
        gens.setflags(write=False)
    return sets


_GENERATORS = _spin_generators()


@dataclass(frozen=True)
class SpinSpec:
    """Spin value, gyromagnetic factor and generators.

    s is 0, 1/2 or 1, and any other value raises ShapeError; generators
    is that spin's read-only set, built and verified once, at import.
    g defaults to 0 for spin 0 and 1/s otherwise (the elementary value),
    but is overridable: time-of-arrival experiments contrast g choices.
    """
    s: float
    g: float = None
    generators: np.ndarray = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        try:
            gens = _GENERATORS[self.s]
        except (KeyError, TypeError):
            raise ShapeError(f"unsupported spin {self.s}; use 0, 1/2 or 1") from None
        object.__setattr__(self, "generators", gens)
        if self.g is None:
            object.__setattr__(self, "g", 0.0 if self.s == 0 else 1.0 / self.s)

    @property
    def dim(self):
        return int(2 * self.s + 1)


@dataclass(frozen=True)
class EmPotential:
    """An external vector potential V(x, t) and magnetic field B(x, t).

    v and b map (n, 3) points to (n, 3) vectors.  `vector` and `bfield`
    take points with 1 to 3 columns and pad them with zero coordinates to
    3 before calling v or b, so a 2-D state's plane is z = 0.  B is the
    given b, never derived from v.  The currents and guidance read v and
    the split step reads only b: `Propagator` rejects a potential with v.
    """
    v: object = None
    charge: float = 1.0
    b: object = None

    def vector(self, x, t):
        x = _pad3(x)
        if self.v is None:
            return np.zeros_like(x)
        return np.asarray(self.v(x, t), dtype=float)

    def bfield(self, x, t):
        x = _pad3(x)
        if self.b is None:
            return np.zeros_like(x)
        return np.asarray(self.b(x, t), dtype=float)


def _pad3(x):
    """Rows (n, d) as (n, 3), the missing columns zero."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] >= 3:
        return x
    out = np.zeros((x.shape[0], 3))
    out[:, :x.shape[1]] = x
    return out


def _curl(df):
    """curl_i = eps_ijk d_j F_k from df[k, j] = d_j F_k, shape (3, d, ...);
    directions j >= d carry no derivative."""
    d = df.shape[1]
    if d < 3:
        df = np.concatenate([df, np.zeros((3, 3 - d) + df.shape[2:])], axis=1)
    return np.stack([df[2, 1] - df[1, 2], df[0, 2] - df[2, 0],
                     df[1, 0] - df[0, 1]])


@dataclass(frozen=True)
class CurrentField:
    """Density and current at the evaluated points, with decomposition
    (the velocity j / rho is `configuration_velocity`)."""
    rho: np.ndarray
    j: np.ndarray
    j_c: np.ndarray
    j_s: np.ndarray


def _require_closed_form(psi):
    """Pointwise currents take closed-form states; a grid state's current
    is `grid_current_nodes`."""
    if psi.representation == "grid":
        raise ShapeError("pointwise currents take closed-form states; a grid "
                         "state's current is grid_current_nodes")


def _spin_term(spin):
    return spin is not None and spin.s != 0 and spin.g != 0


def _require_spin(psi, spin):
    """A spinor state needs the SpinSpec of its spin; None means spin 0."""
    if (1 if spin is None else spin.dim) != psi.spin_dim:
        raise ShapeError(f"state spin_dim {psi.spin_dim} does not match {spin}")


def _flux(val, grad, hbar_m, spin, m, dmag=None):
    """The current kernel, from values (s, ...) and gradients (s, d, ...)
    at points (closed form) or on grid nodes (stencils).

    Returns j_c = (hbar/m_a) Im psi^dag d_a psi, shape (d, ...), with
    hbar_m the per-axis hbar/m (d,), and the spin term (g/2m) curl m of
    the magnetization m_k = psi^dag S_k psi, shape (3, ...), or None when
    there is none.  dmag[k, j] = d_j m_k, shape (3, d, ...), is the
    product rule 2 Re (d_j psi)^dag S_k psi when not given.
    """
    lead = np.reshape(hbar_m, (-1,) + (1,) * (grad.ndim - 2))
    j_c = lead * np.imag(val.conj()[:, None] * grad).sum(axis=0)
    if not _spin_term(spin):
        return j_c, None
    if dmag is None:
        dmag = 2.0 * np.real(np.einsum("sj...,ksb,b...->kj...", grad.conj(),
                                       spin.generators, val))
    return j_c, (spin.g / (2.0 * m)) * _curl(dmag)


def current(psi, spin, em=None, *, at, t=None):
    """Density, total current and its convective/spin split at points of
    a closed-form state.

    Returns a CurrentField with rho (n,), and j, j_c, j_s shaped (n, 3).
    States with fewer than 3 spatial axes are padded with zero components
    so curls are well defined.  For a spin eigenstate psi = phi chi this
    is j = (hbar/m) Im phi* grad phi + (g/2m) curl(|phi|^2 s), with the
    constant spin vector s = chi^dag S chi of a unit spinor chi.
    """
    _require_spin(psi, spin)
    if len(psi.masses) != 1:
        raise ShapeError("current() is single-particle; see configuration_velocity")
    m = psi.masses[0]
    tt = psi.time if t is None else t
    _require_closed_form(psi)
    at = np.atleast_2d(np.asarray(at, dtype=float))
    val, grad, _ = psi.value_gradient_moduli(at, tt)
    rho = np.sum(np.abs(val) ** 2, axis=0)
    flux, spin_flux = _flux(val, grad, psi.hbar_m, spin, m)
    # convective part: (hbar/m) Im(psi^dag grad psi) - (e/mc) V rho
    j_c = _pad3(flux.T)
    if em is not None:
        j_c -= (em.charge / m) * em.vector(at, tt) * rho[:, None]
    j_s = np.zeros_like(j_c) if spin_flux is None else spin_flux.T
    return CurrentField(rho=rho, j=j_c + j_s, j_c=j_c, j_s=j_s)


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
    j = 0.5 * (grid_current_nodes(psi_a, spin, em)
               + grid_current_nodes(psi_b, spin, em))
    # axes beyond the grid carry no flux
    res = drho_dt + sum(grid_gradient(j[a], psi_a.grid)[a]
                        for a in range(psi_a.grid.ndim))
    margin = 4 if all(n > 12 for n in psi_a.grid.shape) else 0
    core = res[tuple(slice(margin, n - margin) for n in res.shape)] if margin else res
    vol = psi_a.grid.cell_volume()
    return res, float(np.max(np.abs(core))), float(np.sqrt(np.sum(core**2) * vol))


def grid_current_nodes(psi, spin, em=None):
    """Current arrays on all grid nodes, shape (ndim, *shape).

    Same physics as current(), vectorized over the whole grid, with the
    magnetization differentiated by the grid stencil; only the components
    along the grid axes are returned.
    """
    _require_spin(psi, spin)
    grid, val = psi.grid, psi.values
    m = psi.masses[0]
    dmag = None
    if _spin_term(spin):
        mag = bilinears(val.reshape(len(val), -1), spin.generators).reshape(
            (3,) + grid.shape)
        dmag = grid_gradient(mag, grid)
    j, spin_flux = _flux(val, grid_gradient(val, grid), psi.hbar_m, spin,
                         m, dmag)
    if em is not None:
        vvec = em.vector(grid.nodes(), psi.time)[:, :grid.ndim].T
        j -= (em.charge / m) * vvec.reshape(j.shape) * psi.density_nodes()
    if spin_flux is not None:
        j = j + spin_flux[:grid.ndim]
    return j


def configuration_velocity(psi, at, t=None, spin=None, em=None):
    """The guidance law of a closed-form state: v = j / rho - (e/mc) A,
    flattened over the configuration axes, shape (n, config_dim).

    j is the current of `current` (convective, plus the spin term of
    `spin`; None means spin 0) with hbar/m per configuration axis, and A
    is `em`'s vector potential.  A single closed-form scalar term gives
    j / rho = (hbar/m) grad S, S the phase of psi = R e^{iS}, from its
    family's `phase_gradient`: real arithmetic on the points, with psi,
    grad psi and the density never formed.  Far in a Gaussian tail the
    velocity stays exact where psi itself underflows, and one finiteness
    test of the result suffices unless it fails.  Every other state (a
    sum, or a spinor) divides `_flux` by rho, with psi and grad psi
    first divided by each point's largest term modulus, so no square
    overflows; such a point is a node where |psi|^2 <=
    RHO_FLOOR_REL (sum_i |c_i phi_i|)^2 summed over spin (its terms
    cancel).  Node rows and rows that are not finite are NaN.  The spin
    term and A are single-particle, and a grid state raises ShapeError:
    its current is `grid_current_nodes`.
    """
    _require_spin(psi, spin)
    _require_closed_form(psi)
    if (em is not None or _spin_term(spin)) and len(psi.masses) != 1:
        raise ShapeError("the spin term and em guidance are single-particle")
    tt = psi.time if t is None else t
    dphase = psi.phase_gradient(at, tt)
    node = False
    if dphase is not None:
        v = psi.hbar_m * dphase
    else:
        val, grad, mod = psi.value_gradient_moduli(at, tt)
        mod = np.abs(val) if mod is None else mod
        # at least the smallest normal float, whose reciprocal (which
        # complex division forms) is finite; a zero or non-finite psi
        # leaves rho 0 or NaN, the node signal
        scale = np.maximum(mod.max(axis=0), np.finfo(float).tiny)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            val, grad, mod = val / scale, grad / scale, mod / scale
            j, j_s = _flux(val, grad, psi.hbar_m, spin, psi.masses[0])
            if j_s is not None:
                j = j + j_s[:len(j)]
            rho = np.sum(np.abs(val) ** 2, axis=0)
            v = (j / rho).T
        node = ~(rho > RHO_FLOOR_REL * np.sum(mod**2, axis=0))
    if em is not None:
        v = v - (em.charge / psi.masses[0]) * em.vector(at, tt)[:, :v.shape[1]]
    if node is not False or not np.isfinite(v).all():
        v[~np.isfinite(v).all(axis=1) | node] = np.nan
    return v
