"""Explicit matrix sets for the first-order relativistic wave equations.

Three kinds are supported:

* ``dirac4``  - 4x4 gamma matrices in the Dirac-Pauli standard
  representation (the anticommutator fixes the algebra; any
  representation satisfying it is equivalent).
* ``dkp5``    - 5x5 Duffin-Kemmer-Petiau matrices (spin 0).
* ``dkp10``   - 10x10 Duffin-Kemmer-Petiau matrices (spin 1).

All entries are exact (0, +-1, +-i) so the defining algebra identities
hold in exact arithmetic.  The DKP kinds also carry the idempotent
projector ``gamma_proj`` of the massless (Harish-Chandra) theory, which
keeps the mass-independent components of the wavefunction.

Every current built from these sets is a bilinear psi^dag M chi, or a
stack of them, Hermitian (chi = psi) or between two terms of a product
state; ``bilinears`` is the one kernel that evaluates them.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

# the Pauli matrices sigma_x, sigma_y, sigma_z, shape (3, 2, 2)
PAULI = np.array([[[0, 1], [1, 0]],
                  [[0, -1j], [1j, 0]],
                  [[1, 0], [0, -1]]], dtype=complex)
PAULI.setflags(write=False)

# points per block in `bilinears`: bounds the (k, dim, block) product
# M_k psi, which for a large point set (the 16 matrices of `theta_tensor`)
# would otherwise be many times the size of psi itself
BLOCK = 16384


def bilinears(psi, mats, chi=None):
    """psi^dag M_k chi at every point, shape (k, n), for fields of shape
    (dim, n) and a stack of k (dim, dim) matrices: complex with chi, and
    the real Re psi^dag M_k psi without it."""
    mats = np.asarray(mats)
    real = chi is None
    chi = psi if real else chi
    out = np.empty((mats.shape[0], psi.shape[1]), float if real else complex)
    for lo in range(0, psi.shape[1], BLOCK):
        blk = slice(lo, lo + BLOCK)
        form = np.einsum("sn,ksn->kn", psi[:, blk].conj(), mats @ chi[:, blk])
        out[:, blk] = form.real if real else form
    return out


def _from_entries(dim, entries):
    m = np.zeros((dim, dim), dtype=complex)
    for r, c, v in entries:
        m[r - 1, c - 1] = v
    return m


def _dirac_gammas():
    s0 = np.eye(2, dtype=complex)
    z = np.zeros((2, 2), dtype=complex)
    g0 = np.block([[s0, z], [z, -s0]])
    gi = [np.block([[z, s], [-s, z]]) for s in PAULI]
    return [g0] + gi


def _dkp5_betas():
    i = 1j
    b0 = _from_entries(5, [(5, 1, i), (1, 5, -i)])
    b1 = _from_entries(5, [(5, 2, -i), (2, 5, -i)])
    b2 = _from_entries(5, [(5, 3, -i), (3, 5, -i)])
    b3 = _from_entries(5, [(5, 4, -i), (4, 5, -i)])
    return [b0, b1, b2, b3]


def _dkp10_betas():
    i = 1j
    b0 = _from_entries(10, [(7, 1, i), (8, 2, i), (9, 3, i),
                            (1, 7, -i), (2, 8, -i), (3, 9, -i)])
    b1 = _from_entries(10, [(10, 1, i), (9, 5, i), (8, 6, -i),
                            (6, 8, -i), (5, 9, i), (1, 10, i)])
    b2 = _from_entries(10, [(10, 2, i), (9, 4, -i), (7, 6, i),
                            (6, 7, i), (4, 9, -i), (2, 10, i)])
    b3 = _from_entries(10, [(10, 3, i), (8, 4, i), (7, 5, -i),
                            (5, 7, -i), (4, 8, i), (3, 10, i)])
    return [b0, b1, b2, b3]


@dataclass(frozen=True)
class MatrixSet:
    kind: str
    dim: int
    generators: list            # gamma^mu (dirac4) or beta^mu (dkp)
    beta_tilde: list            # b0 b^i - b^i b0 (alpha^i for dirac4)
    eta0: np.ndarray            # 2 b0^2 - 1 (gamma^0 for dirac4)
    gamma_proj: np.ndarray = None   # massless projector, DKP kinds only
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def beta0(self):
        return self.generators[0]

    def hamiltonian(self, p, mass):
        """Momentum-space Hamiltonian: alpha . p + m beta for dirac4,
        beta_tilde . p + m beta0 for the DKP kinds."""
        p = np.asarray(p, dtype=float)
        rest = mass * (self.eta0 if self.kind == "dirac4" else self.generators[0])
        return sum(self.beta_tilde[i] * p[i] for i in range(3)) + rest

    def constraint_residual_op(self, p, mass, massless=False):
        """Matrix whose kernel holds physical DKP states at momentum p.

        Massive: m * C with C = 1 - H beta0 / m.  Massless (HC):
        (beta.p) b0^2 + m (1 - b0^2) gamma, from the constraint equation
        with the plane-wave substitution p_op -> p.
        """
        if self.kind == "dirac4":
            raise ConfigurationError("constraint operator is a DKP concept")
        p = np.asarray(p, dtype=float)
        b = self.generators
        b0sq = b[0] @ b[0]
        bp = sum(b[i + 1] * p[i] for i in range(3))
        eye = np.eye(self.dim)
        if massless:
            return bp @ b0sq + mass * (eye - b0sq) @ self.gamma_proj
        return bp @ b0sq + mass * (eye - b0sq)

    def theta_matrices(self, massless=False):
        """Sandwich matrices of the symmetrized energy-momentum tensor,
        shape (4, 4, dim, dim): Theta^{mu nu} = m psi^dag M^{mu nu} psi with
        M^{mu nu} = eta0 (b^mu b^nu + b^nu b^mu - g^{mu nu}); gamma-projected
        on both sides in the massless case."""
        if massless not in self._cache:
            b = np.array(self.generators)
            bb = b[:, None] @ b[None, :]
            m = self.eta0 @ (bb + bb.transpose(1, 0, 2, 3)
                             - METRIC[:, :, None, None] * np.eye(self.dim))
            if massless:
                m = self.gamma_proj.conj().T @ m @ self.gamma_proj
            self._cache[massless] = m
        return self._cache[massless]


def _check_dirac(gammas):
    for mu in range(4):
        for nu in range(4):
            anti = gammas[mu] @ gammas[nu] + gammas[nu] @ gammas[mu]
            if not np.array_equal(anti, 2 * METRIC[mu, nu] * np.eye(4)):
                raise ConfigurationError("Dirac anticommutator identity failed")


def _check_dkp(betas, gamma_proj):
    dim = betas[0].shape[0]
    for mu in range(4):
        for nu in range(4):
            for lam in range(4):
                lhs = (betas[mu] @ betas[nu] @ betas[lam]
                       + betas[lam] @ betas[nu] @ betas[mu])
                rhs = (betas[mu] * METRIC[nu, lam]
                       + betas[lam] * METRIC[nu, mu])
                if not np.array_equal(lhs, rhs):
                    raise ConfigurationError(
                        f"DKP trilinear identity failed at ({mu},{nu},{lam})")
    if not np.array_equal(gamma_proj @ gamma_proj, gamma_proj):
        raise ConfigurationError("projector is not idempotent")
    for b in betas:
        if not np.array_equal(gamma_proj @ b + b @ gamma_proj, b):
            raise ConfigurationError("projector does not split the betas")


def build_matrix_set(kind):
    """Return the exact MatrixSet for 'dirac4', 'dkp5' or 'dkp10'.

    The defining algebra (anticommutator for dirac4, trilinear DKP
    relation otherwise) and the projector identities are re-verified
    entrywise in exact arithmetic on every build.
    """
    if kind == "dirac4":
        gammas = _dirac_gammas()
        _check_dirac(gammas)
        alphas = [gammas[0] @ gammas[i] for i in (1, 2, 3)]
        return MatrixSet(kind=kind, dim=4, generators=gammas,
                         beta_tilde=alphas, eta0=gammas[0])
    if kind == "dkp5":
        betas = _dkp5_betas()
        proj = np.diag([1.0, 1, 1, 1, 0]).astype(complex)
    elif kind == "dkp10":
        betas = _dkp10_betas()
        proj = np.diag([1.0, 1, 1, 1, 1, 1, 0, 0, 0, 0]).astype(complex)
    else:
        raise ConfigurationError(f"unknown matrix kind {kind!r}")
    _check_dkp(betas, proj)
    dim = betas[0].shape[0]
    bt = [betas[0] @ betas[i] - betas[i] @ betas[0] for i in (1, 2, 3)]
    eta0 = 2 * betas[0] @ betas[0] - np.eye(dim)
    return MatrixSet(kind=kind, dim=dim, generators=betas,
                     beta_tilde=bt, eta0=eta0, gamma_proj=proj)
