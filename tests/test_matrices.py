"""Matrix-set algebra: the defining identities must hold exactly."""

import numpy as np
import pytest

from pilotwave.errors import ConfigurationError
from pilotwave.matrices import BLOCK, METRIC, bilinears, build_matrix_set


@pytest.fixture(scope="module")
def sets():
    return {k: build_matrix_set(k) for k in ("dirac4", "dkp5", "dkp10")}


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError):
        build_matrix_set("dkp99")


def test_dirac_anticommutator_exact(sets):
    g = sets["dirac4"].generators
    for mu in range(4):
        for nu in range(4):
            anti = g[mu] @ g[nu] + g[nu] @ g[mu]
            assert np.array_equal(anti, 2 * METRIC[mu, nu] * np.eye(4))


@pytest.mark.parametrize("kind", ["dkp5", "dkp10"])
def test_dkp_trilinear_exact(sets, kind):
    b = sets[kind].generators
    for mu in range(4):
        for nu in range(4):
            for lam in range(4):
                lhs = b[mu] @ b[nu] @ b[lam] + b[lam] @ b[nu] @ b[mu]
                rhs = b[mu] * METRIC[nu, lam] + b[lam] * METRIC[nu, mu]
                assert np.array_equal(lhs, rhs), (mu, nu, lam)


def test_dkp5_beta0_entries(sets):
    """beta^0 of the 5x5 set has exactly two nonzero entries:
    (1,5) = -i and (5,1) = +i."""
    b0 = sets["dkp5"].beta0
    expected = np.zeros((5, 5), dtype=complex)
    expected[0, 4] = -1j
    expected[4, 0] = 1j
    assert np.array_equal(b0, expected)


def test_dkp5_cubes(sets):
    """beta0^3 + beta0^3 = 2 beta0 (trilinear identity at mu=nu=lam=0)."""
    b0 = sets["dkp5"].beta0
    assert np.array_equal(2 * b0 @ b0 @ b0, 2 * b0)


@pytest.mark.parametrize("kind", ["dkp5", "dkp10"])
def test_projector_identities_exact(sets, kind):
    s = sets[kind]
    gam = s.gamma_proj
    assert np.array_equal(gam @ gam, gam)          # gamma^2 = gamma
    assert np.count_nonzero(gam @ gam - gam) == 0  # entrywise zero
    for b in s.generators:
        assert np.array_equal(gam @ b + b @ gam, b)


@pytest.mark.parametrize("kind", ["dkp5", "dkp10"])
def test_eta0_squares_to_identity(sets, kind):
    s = sets[kind]
    assert np.array_equal(s.eta0 @ s.eta0, np.eye(s.dim))


@pytest.mark.parametrize("kind", ["dkp5", "dkp10"])
def test_hamiltonian_cubic_identity(sets, kind):
    """H^3 = H (p^2 + m^2) in the momentum representation."""
    s = sets[kind]
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = rng.normal(size=3) * rng.uniform(0.1, 3.0)
        m = rng.uniform(0.2, 4.0)
        h = s.hamiltonian(p, m)
        np.testing.assert_allclose(h @ h @ h, h * (p @ p + m * m),
                                   atol=1e-12, rtol=0)


@pytest.mark.parametrize("kind", ["dkp5", "dkp10"])
def test_constraint_compatible_with_motion(sets, kind):
    """C H = 0: the constraint is preserved by the time evolution."""
    s = sets[kind]
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = rng.normal(size=3)
        m = rng.uniform(0.5, 2.0)
        h = s.hamiltonian(p, m)
        c = np.eye(s.dim) - h @ s.beta0 / m
        np.testing.assert_allclose(c @ h, 0.0, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 10, 16, 100])
@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                               5 * BLOCK // 2 + 3])
def test_bilinears_match_per_matrix_einsum(dim, n):
    """Re psi^dag M_k psi against one explicit einsum per matrix, with
    point counts on both sides of the block seams."""
    rng = np.random.default_rng(dim * 7919 + n)
    psi = rng.normal(size=(dim, n)) + 1j * rng.normal(size=(dim, n))
    mats = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
    got = bilinears(psi, mats)
    assert got.shape == (3, n)
    for k in range(3):
        ref = np.real(np.einsum("sn,st,tn->n", psi.conj(), mats[k], psi,
                                optimize=True))
        np.testing.assert_allclose(got[k], ref, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("kind", ["dkp5", "dkp10"])
@pytest.mark.parametrize("massless", [False, True])
def test_theta_matrices_match_definition(sets, kind, massless):
    """M^{mu nu} = eta0 (b^mu b^nu + b^nu b^mu - g^{mu nu}), gamma-projected
    on both sides when massless; exact, and symmetric in (mu, nu)."""
    s = sets[kind]
    b = s.generators
    gam = s.gamma_proj if massless else np.eye(s.dim)
    stack = s.theta_matrices(massless)
    assert stack.shape == (4, 4, s.dim, s.dim)
    for mu in range(4):
        for nu in range(4):
            m = s.eta0 @ (b[mu] @ b[nu] + b[nu] @ b[mu]
                          - METRIC[mu, nu] * np.eye(s.dim))
            assert np.array_equal(stack[mu, nu], gam.conj().T @ m @ gam)
            assert np.array_equal(stack[mu, nu], stack[nu, mu])
