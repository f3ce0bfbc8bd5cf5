"""Dirac-equation pilot-wave velocities for plane-wave spinor states.

States are finite superpositions of free plane-wave spinors, so the time
evolution is exact (each term rotates by exp(-i E t)) and there is no
grid propagation to destabilize.  Natural units hbar = c = 1.

Spinor normalization is u^dag u = 2|E|; velocities are ratios of
bilinears and therefore normalization independent (asserted by the
global-scaling invariance test).  Negative-energy terms are permitted
and labeled as such; no Dirac-sea machinery is attempted.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (CausalityViolationError, NodeError, PhysicsError,
                     ShapeError)
from .families import PlaneWaveSum
from .guide import RHO_FLOOR_REL
from .matrices import bilinears, build_matrix_set
from .wavefunction import ParametricWaveFunction

_DIRAC = build_matrix_set("dirac4")
_SIGMA = np.array([[[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]],
                   [[1, 0], [0, -1]]], dtype=complex)


def free_spinor(p, mass, energy_sign, spin_label):
    """Eigenvector of alpha.p + beta m with eigenvalue sign * sqrt(p^2+m^2).

    spin_label selects the rest-frame spin-up/down basis vector; the
    returned spinor satisfies (gamma^0 E - gamma.p - m) u = 0 with the
    signed energy E, and u^dag u = 2|E|.
    """
    p = np.asarray(p, dtype=float)
    if energy_sign not in (+1, -1):
        raise PhysicsError("energy sign must be +1 or -1")
    if spin_label not in (0, 1):
        raise PhysicsError("spin label must be 0 or 1")
    e = np.sqrt(p @ p + mass * mass)
    chi = np.zeros(2, dtype=complex)
    chi[spin_label] = 1.0
    sp = np.einsum("iab,i->ab", _SIGMA, p)
    if energy_sign > 0:
        upper, lower = chi, (sp @ chi) / (e + mass)
    else:
        upper, lower = -(sp @ chi) / (e + mass), chi
    return np.sqrt(e + mass) * np.concatenate([upper, lower]), energy_sign * e


@dataclass(frozen=True)
class PlaneWaveSpinorState:
    """Superposition of free Dirac plane waves, one or two particles.

    One particle: terms = [(coef, p(3,), energy_sign, spin_label), ...].
    Two particles: terms = [(coef, (p1, sign1, spin1), (p2, sign2, spin2)), ...];
    the amplitude is a 16-component tensor product per term.  `wave`
    holds the amplitude as `plane_wave_sum` params: a two-particle term
    is one plane wave with K = (p1, p2), w = E1 + E2 and A = coef
    kron(u1, u2).
    """
    terms: tuple
    mass: float
    n_particles: int = 1
    wave: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_particles not in (1, 2):
            raise ShapeError("only one- and two-particle states are supported")
        if not self.terms:
            raise ShapeError("state needs at least one term")
        k, omega, amps = [], [], []
        for term in self.terms:
            parts = (term[1:],) if self.n_particles == 1 else term[1:]
            ps, e_sum, amp = [], 0.0, np.array([complex(term[0])])
            for p, sign, lab in parts:
                u, e = free_spinor(p, self.mass, sign, lab)
                self._check_term(u, e, p)
                ps.append(np.asarray(p, float))
                e_sum += e
                amp = np.kron(amp, u)
            k.append(np.concatenate(ps))
            omega.append(e_sum)
            amps.append(amp)
        object.__setattr__(self, "wave", {
            "k": np.array(k), "omega": np.array(omega),
            "amps": np.array(amps)})

    def _check_term(self, u, e, p):
        p = np.asarray(p, dtype=float)
        d = (_DIRAC.generators[0] * e
             - sum(_DIRAC.generators[i + 1] * p[i] for i in range(3))
             - self.mass * np.eye(4))
        if np.max(np.abs(d @ u)) > 1e-12 * max(1.0, np.max(np.abs(u))):
            raise PhysicsError("constructed spinor fails the Dirac equation")

    def antisymmetrized(self):
        """Two-particle state with exchanged-partner terms subtracted."""
        if self.n_particles != 2:
            raise ShapeError("antisymmetrization applies to two particles")
        new = []
        norm = 1.0 / np.sqrt(2.0)
        for (c, one, two) in self.terms:
            new.append((c * norm, one, two))
            new.append((-c * norm, two, one))
        return PlaneWaveSpinorState(tuple(new), self.mass, n_particles=2)

    def amplitude(self, x, t):
        """Complex spinor amplitude at configuration points.

        x has shape (n, 3) for one particle, (n, 6) for two; returns
        (4, n) or (16, n).
        """
        return PlaneWaveSum.value(self.wave, x, t)


# [1, alpha^i of each particle] on the one- (4) and two-particle (16)
# amplitude: psi^dag M psi is rho followed by the currents rho v_r
_FLOW = {1: np.array([np.eye(4), *_DIRAC.beta_tilde]),
         2: np.array([np.eye(16)]
                     + [np.kron(a, np.eye(4)) for a in _DIRAC.beta_tilde]
                     + [np.kron(np.eye(4), a) for a in _DIRAC.beta_tilde])}


def dirac_velocity(state, x, t):
    """Guidance velocity v^i = psi^dag alpha^i psi / psi^dag psi and the
    normalized 4-velocity u^mu = j^mu / sqrt(j.j) (None when j is null).

    Raises NodeError at nodes and CausalityViolationError if j were ever
    spacelike (a test hook; it cannot fire on valid states).
    """
    if state.n_particles != 1:
        raise ShapeError("use dirac2_velocity for two-particle states")
    rho, *j = bilinears(state.amplitude(x, t), _FLOW[1])
    if np.any(rho <= RHO_FLOOR_REL * PlaneWaveSum.scale(state.wave)):
        raise NodeError("density at or below floor at the requested point")
    v = np.transpose(j) / rho[:, None]
    jsq = rho**2 - np.sum((v * rho[:, None]) ** 2, axis=-1)
    if np.any(jsq < -1e-10 * rho**2):
        raise CausalityViolationError("spacelike Dirac current encountered")
    u = None
    if np.all(jsq > 0):
        norm = np.sqrt(jsq)
        u = np.concatenate([(rho / norm)[:, None],
                            v * (rho / norm)[:, None]], axis=-1)
    return (v[0], u[0] if u is not None else None) if v.shape[0] == 1 else (v, u)


def _dirac2_flow(state, x1, x2, t):
    """Density (n,) and the two per-particle velocities (n, 3) of a
    two-particle state, from one amplitude evaluation."""
    if state.n_particles != 2:
        raise ShapeError("state is not two-particle")
    x1 = np.atleast_2d(np.asarray(x1, dtype=float))
    x2 = np.atleast_2d(np.asarray(x2, dtype=float))
    x = np.concatenate([x1, x2], axis=1)
    rho, *j = bilinears(state.amplitude(x, t), _FLOW[2])
    if np.any(rho <= RHO_FLOOR_REL * PlaneWaveSum.scale(state.wave)):
        raise NodeError("density at or below floor (antisymmetrized zero?)")
    v = np.transpose(j) / rho[:, None]
    return rho, v[:, :3], v[:, 3:]


def dirac2_velocity(state, x1, x2, t):
    """Per-particle velocities of a two-particle plane-wave state."""
    _, v1, v2 = _dirac2_flow(state, x1, x2, t)
    return (v1[0], v2[0]) if v1.shape[0] == 1 else (v1, v2)


def tensor_current_causal(state, x1, x2, t):
    """j^{0 mu_r 0} j_{0 mu_r 0} >= 0 check for both particles; returns the
    two Minkowski norms (they must be nonnegative for valid states)."""
    rho, v1, v2 = _dirac2_flow(state, x1, x2, t)
    return tuple(rho**2 - np.sum((v * rho[:, None]) ** 2, axis=-1)
                 for v in (v1, v2))


def nonrelativistic_pauli_state(state):
    """The 2-spinor Pauli state matching a positive-energy superposition.

    Each term c u(p) exp(i(p.x - E t)) maps onto c chi exp(i(p.x -
    (E - m) t)) with the rest energy removed; valid for |p| << m where
    the small components decouple.  The upper components of u are
    sqrt(E + m) times the unit rest spinor chi.  Returns a
    `plane_wave_sum` ParametricWaveFunction.
    """
    if state.n_particles != 1:
        raise ShapeError("one-particle states only")
    wave = state.wave
    if np.any(wave["omega"] < 0):
        raise PhysicsError("non-relativistic limit needs positive energies")
    return ParametricWaveFunction("plane_wave_sum", {
        "k": wave["k"], "omega": wave["omega"] - state.mass,
        "amps": wave["amps"][:, :2]
        / np.sqrt(wave["omega"] + state.mass)[:, None]}, [state.mass])
