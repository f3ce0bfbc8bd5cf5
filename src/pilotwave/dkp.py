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

from .currents import SpinSpec, bilinear_flow, configuration_velocity
from .errors import (ConfigurationError, DegenerateObserverError,
                     InvariantViolationError, PhysicsError, ShapeError)
from .families import PlaneWaveSum
from .matrices import METRIC, bilinears, build_matrix_set
from .wavefunction import ParametricWaveFunction

_SETS = {"spin0": build_matrix_set("dkp5"), "spin1": build_matrix_set("dkp10")}

CONSTRAINT_TOL = 1e-10
ONSHELL_TOL = 1e-9


@dataclass(frozen=True)
class ObserverVector:
    """Constant future-causal 4-vector n^mu (n^0 > 0, n.n >= 0)."""
    n: np.ndarray

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
        raise ShapeError("spin-1 terms need a 3-component polarization")
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
    dispersion is E = |p|.  `wave` is the field as a `plane_wave_sum`,
    bound once, with amplitudes coef * components.
    """
    rep: str
    mass: float
    terms: tuple                 # (coef, p, E, components) per term
    massless: bool = False
    wave: PlaneWaveSum = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "wave", PlaneWaveSum(
            k=np.reshape([p for _, p, _, _ in self.terms], (-1, 3)),
            omega=np.array([e for _, _, e, _ in self.terms], dtype=float),
            amps=np.reshape([c * u for c, _, _, u in self.terms],
                            (-1, self.dim)).astype(complex)))

    @property
    def mats(self):
        return _SETS[self.rep]

    @property
    def dim(self):
        return self.mats.dim

    def evaluate(self, x, t):
        """Field amplitude, shape (dim, npoints)."""
        return self.wave.value(x, t)

    def scale(self):
        return self.wave.scale()


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
            raise ShapeError("momentum must be a 3-vector")
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
            raise InvariantViolationError(
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
    """j^mu = Theta^{mu nu} n_nu, shape (npoints, 4), and the velocity
    v = j^i / j^0, shape (npoints, 3), by `currents.bilinear_flow` with
    its errors."""
    if not isinstance(n, ObserverVector):
        n = ObserverVector(np.asarray(n, dtype=float))
    j = bilinears(state.evaluate(x, t), _flow_matrices(state, n.lower))
    return j.T, bilinear_flow(j, state.scale())


def total_energy_momentum(state, box, points_per_axis=64):
    """P^mu = integral of Theta^{mu 0} over the box by the periodic
    trapezoid rule on points_per_axis nodes per axis, plus the normalized
    observer P / sqrt(P.P).  The node sum is taken per pair of terms of
    psi = sum_i A_i exp(i k_i.x) at t = 0, with no grid, in
    O(terms^2 (dim^2 + 3 N)):

        sum_nodes psi^dag M psi = sum_ij A_i^dag M A_j prod_a D_a(k_j - k_i),
        D_a(dk) = sum_{n < N} exp(i dk x_n) over the axis-a nodes x_n.

    For superpositions the box should be a periodicity box of the
    momentum differences so the cross terms integrate out."""
    k, amps = state.wave.k, state.wave.amps
    if len(box) != k.shape[1]:
        raise ShapeError(f"box has {len(box)} axes, the state {k.shape[1]}")
    pair = 1.0
    for a, (lo, hi) in enumerate(box):
        nodes = np.linspace(lo, hi, points_per_axis, endpoint=False)
        dk = k[None, :, a] - k[:, None, a]
        pair = pair * np.exp(1j * dk[..., None] * nodes).sum(axis=-1)
    cell = np.prod([(hi - lo) / points_per_axis for lo, hi in box])
    # Theta^{0 mu} = Theta^{mu 0}: the tensor is symmetric
    column = state.mats.theta_matrices(state.massless)[0]
    p_mu = state.mass * cell * np.real(
        np.einsum("is,ksr,jr,ij->k", amps.conj(), column, amps, pair))
    p_sq = p_mu @ METRIC @ p_mu
    if p_sq <= 1e-8 * (p_mu @ p_mu):
        raise DegenerateObserverError(
            f"P.P = {p_sq:.3e} not timelike within quadrature error")
    return p_mu, ObserverVector(p_mu / np.sqrt(p_sq))


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
        "k": wave.k, "omega": wave.omega - state.mass,
        "amps": wave.amps[:, rest] / np.sqrt(state.mass)}, [state.mass])


def nonrel_limit_check(rep, epsilons, seed=0, n_points=16):
    """Deviation of the DKP velocity (n = time observer) from the
    Schroedinger / non-relativistic spin-1 guidance velocity of the
    reduced state (`configuration_velocity`), per epsilon
    = |p|/m, for mass m = 1.  Returns per epsilon the median over points
    of |v_DKP - v_NR|, relative to the largest |v_DKP|.

    The comparison uses corresponding states: momenta scale as eps m u,
    evaluation points as y / (eps m) with y ~ N(0, 0.5^2) per axis, and
    the time as tau / (m eps^2) with tau = 0.3, so the interference
    pattern is epsilon-independent.  The median falls about 4- to 12-fold
    per halving of eps; the worst point need not, since near a density
    node v_NR = j / rho is large and its eps^2 law sets in late."""
    mass = 1.0
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(3, 3))
    mags = np.array([1.0, 0.7, 0.45])
    coefs = rng.normal(size=3) + 1j * rng.normal(size=3)
    pols = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    y_pts = rng.normal(size=(n_points, 3)) * 0.5
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
        t = 0.3 / (mass * eps * eps)
        _, v_dkp = energy_momentum_current(state, TIME_OBSERVER, pts, t)
        red = reduced_nonrel_state(state)
        spin = SpinSpec(0) if rep == "spin0" else SpinSpec(1)
        v_nr = configuration_velocity(red, pts, t, spin)
        num = np.median(np.linalg.norm(v_dkp - v_nr, axis=-1))
        devs.append(float(num / np.max(np.linalg.norm(v_dkp, axis=-1))))
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
    for massless states), and v_r = j^{(r: i)} / j^{00}.  The amplitude
    psi = c sum_p u_p(x1) w_p(x2), one term (a, b) with c = 1 or, when
    symmetrized, (a, b) and (b, a) with c = 1/sqrt 2, is never formed:
    j^{mu1 mu2} = |c|^2 sum_{p,q} (u_p^dag G^{mu1} u_q)(w_p^dag G^{mu2} w_q)
    takes about 8 dim^2 multiply-adds per pair, where dim^2 x dim^2
    Kronecker operators on psi take 7 dim^4.  Returns v1 and v2, each
    (npoints, 3), by `currents.bilinear_flow` with its errors."""
    if state_a.rep != state_b.rep or state_a.massless != state_b.massless:
        raise ShapeError("two-particle states must share representation")
    if a is None:
        a = TIME_OBSERVER
    elif not isinstance(a, ObserverVector):
        a = ObserverVector(np.asarray(a, dtype=float))
    ga, gb = (_flow_matrices(s, a.lower) for s in (state_a, state_b))
    terms = [(state_a, state_b), (state_b, state_a)][:2 if symmetrized else 1]
    u = [s1.evaluate(x1, t) for s1, _ in terms]
    w = [s2.evaluate(x2, t) for _, s2 in terms]
    # j^{mu 0} and j^{0 mu}; G^mu is Hermitian, so the (q, p) term is the
    # conjugate of the (p, q) one
    j1 = j2 = 0.0
    for p in range(len(u)):
        for q in range(p, len(u)):
            fa, fb = bilinears(u[p], ga, u[q]), bilinears(w[p], gb, w[q])
            j1 = j1 + (1 if p == q else 2) * (fa * fb[0]).real
            j2 = j2 + (1 if p == q else 2) * (fa[0] * fb).real
    # j1[0] and j2[0] are the same sum j^{00}, and 1 / len(u) is exact
    v = bilinear_flow(np.concatenate([j1, j2[1:]]) / len(u),
                      state_a.scale() * state_b.scale())
    return v[:, :3], v[:, 3:]
