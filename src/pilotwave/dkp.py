"""Duffin-Kemmer-Petiau and Harish-Chandra energy-flow trajectory model.

Massive spin-0 (5 components) and spin-1 (10 components) states, plus the
massless analogues with the idempotent projector.  States are finite
plane-wave superpositions, so the first-class constraint is enforced
structurally per term and all claims are checked in exact arithmetic up
to roundoff.  Natural units hbar = c = 1.

The current is built from the symmetrized energy-momentum tensor and a
constant future-causal observer vector:

    j^mu = Theta^{mu nu} n_nu,     v^i = j^i / j^0,

which is future-causal with nonnegative density; its integral curves are
energy-flow lines, not particle trajectories (the charge current of the
theory is indefinite, exhibited by `charge_current` below), and every
output of this module labels them as such.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigurationError, DegenerateObserverError,
                     InvariantViolationError, NodeError, PhysicsError,
                     ShapeError)
from .families import PlaneWaveSum
from .guide import RHO_FLOOR_REL
from .matrices import METRIC, bilinears, build_matrix_set
from .wavefunction import ParametricWaveFunction

_SETS = {"spin0": build_matrix_set("dkp5"), "spin1": build_matrix_set("dkp10")}

CONSTRAINT_TOL = 1e-10
ONSHELL_TOL = 1e-9


@dataclass(frozen=True)
class ObserverVector:
    """Constant future-causal 4-vector n^mu (n^0 > 0, n.n >= 0)."""
    n: np.ndarray
    source: str = "explicit"

    def __post_init__(self):
        n = np.asarray(self.n, dtype=float)
        if n.shape != (4,):
            raise ShapeError("observer vector must have 4 components")
        if not n[0] > 0:
            raise PhysicsError("observer vector must have positive time component")
        if n @ METRIC @ n < -1e-12 * (n @ n):
            raise PhysicsError("observer vector must be causal (n.n >= 0)")
        object.__setattr__(self, "n", n)

    @property
    def lower(self):
        return METRIC @ self.n


TIME_OBSERVER = ObserverVector(np.array([1.0, 0.0, 0.0, 0.0]))


def _spin0_components(p, e, mass):
    # psi = m^{-1/2} (d_mu phi, m phi)^T for phi = exp(i(p.x - E t))
    return np.concatenate(([-1j * e], 1j * p, [mass])) / np.sqrt(mass)


def _spin1_components(p, e, mass, pol, massless):
    pol = np.asarray(pol, dtype=complex)
    if pol.shape != (3,):
        raise PhysicsError("spin-1 terms need a 3-component polarization")
    if massless:
        if abs(p @ pol) > 1e-10 * max(np.linalg.norm(p) * np.linalg.norm(pol), 1e-30):
            raise PhysicsError("massless spin-1 polarization must be transverse")
        pol0 = 0.0
    else:
        pol0 = p @ pol / e               # Proca condition d_mu A^mu = 0
    efield = 1j * (e * pol - p * pol0)   # E = -grad A0 - d0 A
    bfield = 1j * np.cross(p, pol)
    return np.concatenate((-efield, bfield, mass * pol, [-mass * pol0])) \
        / np.sqrt(mass)


@dataclass(frozen=True)
class DkpState:
    """Plane-wave superposition of a DKP (massive) or HC (massless) field.

    rep is 'spin0' or 'spin1'.  For the massless kinds the `mass` is only
    a normalization scale of the wavefunction layout; the physical
    dispersion is E = |p|.  `wave` holds the field as `plane_wave_sum`
    params, with amplitudes coef * components.
    """
    rep: str
    mass: float
    terms: tuple                 # (coef, p, E, components) per term
    massless: bool = False
    wave: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "wave", {
            "k": np.reshape([p for _, p, _, _ in self.terms], (-1, 3)),
            "omega": np.array([e for _, _, e, _ in self.terms], dtype=float),
            "amps": np.reshape([c * u for c, _, _, u in self.terms],
                               (-1, self.dim)).astype(complex)})

    @property
    def mats(self):
        return _SETS[self.rep]

    @property
    def dim(self):
        return self.mats.dim

    def evaluate(self, x, t):
        """Field amplitude, shape (dim, npoints)."""
        return PlaneWaveSum.value(self.wave, x, t)

    def scale(self):
        return PlaneWaveSum.scale(self.wave)


def build_dkp_state(rep, mass, waves, massless=False):
    """Assemble a DKP/HC state from plane-wave specs.

    Each spec is {'coef': complex, 'p': 3-vector} plus, for spin1, a
    'polarization' 3-vector (transverse when massless).  Momenta must be
    on shell: E = sqrt(p^2 + m^2), or E = |p| for massless kinds.  The
    wavefunction components follow the physical reductions (scalar-field
    derivative stack for spin0; field-strength/potential stack for
    spin1), and the construction verifies the constraint per term; a
    residual above 1e-10 is a construction bug, not user error.
    """
    if rep not in _SETS:
        raise ConfigurationError(f"unknown DKP representation {rep!r}")
    if mass <= 0:
        raise PhysicsError("mass (or massless scale constant) must be positive")
    mats = _SETS[rep]
    terms = []
    for spec in waves:
        p = np.asarray(spec["p"], dtype=float)
        if p.shape != (3,):
            raise PhysicsError("momentum must be a 3-vector")
        e = np.linalg.norm(p) if massless else np.sqrt(p @ p + mass * mass)
        if "E" in spec and abs(spec["E"] - e) > ONSHELL_TOL * max(e, 1.0):
            raise PhysicsError(
                f"off-shell momentum: supplied E={spec['E']} vs {e}")
        if massless and e == 0:
            raise PhysicsError("massless terms need nonzero momentum")
        if rep == "spin0":
            comp = _spin0_components(p, e, mass)
        else:
            comp = _spin1_components(p, e, mass, spec["polarization"], massless)
        res = mats.constraint_residual_op(p, mass, massless=massless) @ comp
        if np.max(np.abs(res)) > CONSTRAINT_TOL * max(1.0, np.max(np.abs(comp))):
            raise ConfigurationError(
                "constraint residual above 1e-10: construction bug")
        terms.append((complex(spec.get("coef", 1.0)), p, e, comp))
    return DkpState(rep=rep, mass=mass, terms=tuple(terms), massless=massless)


def constraint_residual(state):
    """Max constraint residual over terms (exactly 0 for built states)."""
    worst = 0.0
    for c, p, e, comp in state.terms:
        res = state.mats.constraint_residual_op(p, state.mass,
                                                massless=state.massless) @ comp
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


def theta_tensor(state, x, t):
    """Symmetrized energy-momentum tensor Theta^{mu nu} at points.

    Massive: m psi^dag eta0 (b^mu b^nu + b^nu b^mu - g^{mu nu}) psi;
    massless: the same sandwich around gamma psi.  Returns (n, 4, 4)."""
    psi = state.evaluate(x, t)
    mats = state.mats.theta_matrices(state.massless)
    th = state.mass * bilinears(psi, mats.reshape(16, state.dim, state.dim))
    return th.T.reshape(-1, 4, 4)


def _flow_matrices(state, lower):
    """G^mu = m M^{mu nu} n_nu, shape (4, dim, dim): psi^dag G^mu psi is
    Theta^{mu nu} n_nu for the observer's lower-index vector n_nu."""
    return state.mass * np.tensordot(
        state.mats.theta_matrices(state.massless), lower, axes=(1, 0))


def energy_momentum_current(state, n, x, t):
    """j^mu = Theta^{mu nu} n_nu and the velocity v = j / j^0.

    Raises NodeError where j^0 falls below the floor and
    InvariantViolationError if j^0 were ever negative (cannot happen for
    valid states; kept as a test hook)."""
    if not isinstance(n, ObserverVector):
        n = ObserverVector(np.asarray(n, dtype=float))
    j = bilinears(state.evaluate(x, t), _flow_matrices(state, n.lower)).T
    j0 = j[:, 0]
    if np.any(j0 < -1e-12 * state.scale()):
        raise InvariantViolationError("j^0 < 0 on a supposedly valid state")
    if np.any(j0 <= RHO_FLOOR_REL * state.scale()):
        raise NodeError("energy density at or below floor")
    v = j[:, 1:] / j0[:, None]
    if j.shape[0] == 1:
        return j[0], v[0]
    return j, v


def total_energy_momentum(state, box, points_per_axis=64):
    """P^mu = integral of Theta^{mu 0} over the box, by trapezoid
    quadrature, plus the normalized observer P / sqrt(P.P).

    For superpositions the box should be a periodicity box of the
    momentum differences so the cross terms integrate out."""
    axes = [np.linspace(lo, hi, points_per_axis, endpoint=False)
            for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    psi = state.evaluate(pts, 0.0)
    cell = np.prod([(hi - lo) / points_per_axis for lo, hi in box])
    # Theta^{0 mu} = Theta^{mu 0}: the tensor is symmetric
    column = state.mats.theta_matrices(state.massless)[0]
    p_mu = state.mass * bilinears(psi, column).sum(axis=1) * cell
    p_sq = p_mu @ METRIC @ p_mu
    if p_sq <= 1e-8 * (p_mu @ p_mu):
        raise DegenerateObserverError(
            f"P.P = {p_sq:.3e} not timelike within quadrature error")
    return p_mu, ObserverVector(p_mu / np.sqrt(p_sq), source="total-P")


def charge_current(state, x, t):
    """Diagnostic charge current s^mu = psi^bar beta^mu psi (unit charge).

    Indefinite: superpositions can make s^0 locally negative, which is
    exactly why the energy-momentum route is used for trajectories."""
    mats = state.mats
    return bilinears(state.evaluate(x, t),
                     mats.eta0 @ np.array(mats.generators)).T


# ---------------------------------------------------------------------------
# non-relativistic limit


def reduced_nonrel_state(state):
    """The Schroedinger-side state matching a massive DKP superposition.

    spin0: scalar psi' from phi = exp(-imt) psi'/sqrt(2) m; spin1: the
    3-component Phi = (phi^1, phi^2, phi^3) from A^mu = exp(-imt)
    phi^mu / sqrt(2) m.  Rest energy is removed; the exact relativistic
    frequencies are kept so the comparison is honest at every order.
    Returns a `plane_wave_sum` ParametricWaveFunction."""
    if state.massless:
        raise PhysicsError("the non-relativistic limit needs massive states")
    wave = state.wave
    # the components m^{1/2} phi (spin0) or m^{1/2} A^i (spin1)
    rest = slice(4, 5) if state.rep == "spin0" else slice(6, 9)
    return ParametricWaveFunction("plane_wave_sum", {
        "k": wave["k"], "omega": wave["omega"] - state.mass,
        "amps": wave["amps"][:, rest] / np.sqrt(state.mass)}, [state.mass])


def nonrel_limit_check(rep, epsilons, mass=1.0, seed=0, n_points=16,
                       point_scale=0.5, tau=0.3):
    """Deviation of the DKP velocity (n = time observer) from the
    Schroedinger / non-relativistic spin-1 current velocity, per epsilon
    = |p|/m.  Returns the list of max relative deviations.

    The comparison uses corresponding states: momenta scale as eps m u,
    evaluation points as y / (eps m) and the time as tau / (m eps^2), so
    the interference pattern is epsilon-independent and the deviation
    scales as a clean eps^2 (ratios ~ 1/4 under halving)."""
    from .currents import SpinSpec, current

    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(3, 3))
    mags = np.array([1.0, 0.7, 0.45])
    coefs = rng.normal(size=3) + 1j * rng.normal(size=3)
    pols = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    y_pts = rng.normal(size=(n_points, 3)) * point_scale
    devs = []
    for eps in epsilons:
        waves = []
        for i in range(3):
            u = dirs[i] / np.linalg.norm(dirs[i]) * mags[i]
            spec = {"coef": coefs[i], "p": eps * mass * u}
            if rep == "spin1":
                spec["polarization"] = pols[i]
            waves.append(spec)
        state = build_dkp_state(rep, mass, waves)
        pts = y_pts / (eps * mass)
        t = tau / (mass * eps * eps)
        _, v_dkp = energy_momentum_current(state, TIME_OBSERVER, pts, t)
        red = reduced_nonrel_state(state)
        spin = SpinSpec(0) if rep == "spin0" else SpinSpec(1)
        f = current(red, spin, at=pts, t=t)
        v_nr = f.j / f.rho[:, None]
        num = np.linalg.norm(v_dkp - v_nr, axis=-1)
        devs.append(float(np.max(num) / np.max(np.linalg.norm(v_dkp, axis=-1))))
    return devs


# ---------------------------------------------------------------------------
# two-particle tensor current


def dkp2_velocity(state_a, state_b, x1, x2, t, a=None, symmetrized=False):
    """Two-particle energy-flow velocities from the rank-2 tensor current.

    The two-particle wave is the product state_a(x1) state_b(x2),
    optionally symmetrized.  With the rank-2 contraction tensor
    n^{mu1 mu2} = a^{mu1} a^{mu2} (a future-causal, default the time
    observer), j^{mu1 mu2} = psi^dag G^{mu1} x G^{mu2} psi with
    G^mu = m M^{mu nu} a_nu from `MatrixSet.theta_matrices` (gamma-projected
    for massless states), and v_r = j^{(r: i)} / j^{00}."""
    if state_a.rep != state_b.rep or state_a.massless != state_b.massless:
        raise ShapeError("two-particle states must share representation")
    if a is None:
        a = TIME_OBSERVER
    elif not isinstance(a, ObserverVector):
        a = ObserverVector(np.asarray(a, dtype=float))
    # the seven j^{mu1 mu2} the velocities need, as operators on the
    # flattened (dim^2, n) pair amplitude
    ga, gb = (_flow_matrices(s, a.lower) for s in (state_a, state_b))
    ops = [np.kron(ga[m1], gb[m2])
           for m1, m2 in ((0, 0), (1, 0), (2, 0), (3, 0),
                          (0, 1), (0, 2), (0, 3))]

    x1 = np.atleast_2d(np.asarray(x1, dtype=float))
    x2 = np.atleast_2d(np.asarray(x2, dtype=float))

    def amp(s1, y1, s2, y2):
        v1, v2 = s1.evaluate(y1, t), s2.evaluate(y2, t)
        return (v1[:, None] * v2[None, :]).reshape(-1, v1.shape[1])

    psi = amp(state_a, x1, state_b, x2)
    if symmetrized:
        psi = (psi + amp(state_b, x1, state_a, x2)) / np.sqrt(2.0)

    j = bilinears(psi, ops)
    j00 = j[0]
    if np.any(j00 < -1e-12 * state_a.scale() * state_b.scale()):
        raise InvariantViolationError("j^{00} < 0 on a valid state")
    if np.any(j00 <= RHO_FLOOR_REL * state_a.scale() * state_b.scale()):
        raise NodeError("two-particle density at or below floor")
    v1 = j[1:4].T / j00[:, None]
    v2 = j[4:7].T / j00[:, None]
    if j00.shape[0] == 1:
        return v1[0], v2[0]
    return v1, v2


def dkp2_tensor_causal(state_a, state_b, x1, x2, t, a=None, symmetrized=False):
    """Minkowski norms of j^{0 mu_r 0} for r = 1, 2 (must be >= 0)."""
    v1, v2 = dkp2_velocity(state_a, state_b, x1, x2, t, a=a,
                           symmetrized=symmetrized)
    v1 = np.atleast_2d(v1)
    v2 = np.atleast_2d(v2)
    return 1.0 - np.sum(v1**2, axis=-1), 1.0 - np.sum(v2**2, axis=-1)
