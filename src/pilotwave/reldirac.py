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

from .currents import bilinear_flow
from .errors import (ConfigurationError, InvariantViolationError,
                     PhysicsError, ShapeError)
from .families import PlaneWaveSum
from .matrices import PAULI, bilinears, build_matrix_set
from .wavefunction import ParametricWaveFunction

_DIRAC = build_matrix_set("dirac4")


def free_spinor(p, mass, energy_sign, spin_label):
    """Eigenvector of alpha.p + beta m with eigenvalue sign * sqrt(p^2+m^2).

    spin_label selects the rest-frame spin-up/down basis vector; the
    returned spinor satisfies (gamma^0 E - gamma.p - m) u = 0 with the
    signed energy E, and u^dag u = 2|E|.
    """
    p = np.asarray(p, dtype=float)
    if energy_sign not in (+1, -1):
        raise ConfigurationError("energy sign must be +1 or -1")
    if spin_label not in (0, 1):
        raise ConfigurationError("spin label must be 0 or 1")
    e = np.sqrt(p @ p + mass * mass)
    chi = np.zeros(2, dtype=complex)
    chi[spin_label] = 1.0
    sp = np.einsum("iab,i->ab", PAULI, p)
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
    the amplitude is a 16-component tensor product per term.  `wave` is
    the amplitude as a `plane_wave_sum`, bound once: a two-particle term
    is one plane wave with K = (p1, p2), w = E1 + E2 and A = coef
    kron(u1, u2).
    """
    terms: tuple
    mass: float
    n_particles: int = 1
    wave: PlaneWaveSum = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "wave", PlaneWaveSum(
            k=np.array(k), omega=np.array(omega), amps=np.array(amps)))

    def _check_term(self, u, e, p):
        p = np.asarray(p, dtype=float)
        d = (_DIRAC.generators[0] * e
             - sum(_DIRAC.generators[i + 1] * p[i] for i in range(3))
             - self.mass * np.eye(4))
        # |d @ u| is at most 3e-16 max(|E|, m) max|u| for |p| 1e2 to 1e8 m
        size = max(abs(e), self.mass) * np.max(np.abs(u))
        if np.max(np.abs(d @ u)) > 1e-12 * size:
            raise InvariantViolationError(
                "constructed spinor fails the Dirac equation")

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
        return self.wave.value(x, t)


# [1, alpha^i of each particle] on the one- (4) and two-particle (16)
# amplitude: psi^dag M psi is rho followed by the currents rho v_r; then,
# for one particle, gamma^0 and gamma^0 i gamma^5 = -gamma^0 gamma^0123
_FLOW = {1: np.array([np.eye(4), *_DIRAC.beta_tilde, _DIRAC.eta0,
                      -_DIRAC.eta0 @ np.linalg.multi_dot(_DIRAC.generators)]),
         2: np.array([np.eye(16)]
                     + [np.kron(a, np.eye(4)) for a in _DIRAC.beta_tilde]
                     + [np.kron(np.eye(4), a) for a in _DIRAC.beta_tilde])}


def dirac_velocity(state, x, t):
    """Guidance velocity v^i = psi^dag alpha^i psi / psi^dag psi, shape
    (npoints, 3), and the normalized 4-velocity u^mu = j^mu / sqrt(j.j),
    shape (npoints, 4), or None when j is null at some point.

    v is `currents.bilinear_flow` of (rho, rho v), with its errors.  j.j
    is the Fierz sum sigma^2 + omega^2 of sigma = psibar psi and omega =
    psibar i gamma^5 psi; rho^2 - |j|^2 cancels as |v| -> 1.
    """
    if state.n_particles != 1:
        raise ShapeError("use dirac2_velocity for two-particle states")
    rho, *_, sigma, omega = flows = bilinears(state.amplitude(x, t), _FLOW[1])
    v = bilinear_flow(flows[:4], state.wave.scale())
    u, jsq = None, sigma**2 + omega**2
    if np.all(jsq > 0):
        norm = np.sqrt(jsq)
        u = np.concatenate([(rho / norm)[:, None],
                            v * (rho / norm)[:, None]], axis=-1)
    return v, u


def dirac2_velocity(state, x1, x2, t):
    """Per-particle velocities of a two-particle plane-wave state, each
    (npoints, 3), from one amplitude evaluation, by
    `currents.bilinear_flow` with its errors."""
    if state.n_particles != 2:
        raise ShapeError("state is not two-particle")
    x1 = np.atleast_2d(np.asarray(x1, dtype=float))
    x2 = np.atleast_2d(np.asarray(x2, dtype=float))
    x = np.concatenate([x1, x2], axis=1)
    v = bilinear_flow(bilinears(state.amplitude(x, t), _FLOW[2]),
                      state.wave.scale())
    return v[:, :3], v[:, 3:]


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
    if np.any(wave.omega < 0):
        raise PhysicsError("non-relativistic limit needs positive energies")
    return ParametricWaveFunction("plane_wave_sum", {
        "k": wave.k, "omega": wave.omega - state.mass,
        "amps": wave.amps[:, :2]
        / np.sqrt(wave.omega + state.mass)[:, None]}, [state.mass])
