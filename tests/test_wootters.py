"""Spin-flip spectrum, concurrence, and the biorthogonal basis."""

import numpy as np
import pytest

from lsdecomp import matcore as mc
from lsdecomp import states as st
from lsdecomp import wootters as wo

from helpers import ginibre_state, lambdas_via_proxy, random_unitary


def pure_two_qubit(theta: float) -> st.DensityMatrix:
    v = np.zeros(4, dtype=complex)
    v[0], v[3] = np.cos(theta), np.sin(theta)
    return st.DensityMatrix(np.outer(v, v.conj()), (2, 2))


def test_lambdas_pure_state():
    for theta in np.linspace(0.05, np.pi / 2 - 0.05, 9):
        lam = wo.wootters_basis(pure_two_qubit(theta)).lambdas
        assert lam[0] == pytest.approx(np.sin(2 * theta), abs=1e-12)
        assert np.all(lam[1:] <= 1e-12)


def test_lambdas_bell_diagonal_and_mixed():
    lam = wo.wootters_basis(st.make_bd22([0.7, 0.1, 0.1, 0.1])).lambdas
    assert np.allclose(lam, [0.7, 0.1, 0.1, 0.1], atol=1e-12)
    lam = wo.wootters_basis(st.make_bd22([0.25] * 4)).lambdas
    assert np.allclose(lam, [0.25] * 4, atol=1e-12)


def test_lambdas_agree_with_hermitian_proxy():
    rng = np.random.default_rng(0)
    for _ in range(100):
        rho = ginibre_state(rng, 4, (2, 2))
        a = wo.wootters_basis(rho).lambdas
        b = lambdas_via_proxy(rho)
        assert np.max(np.abs(a - b)) <= 1e-7


def test_lambdas_local_unitary_invariance():
    rng = np.random.default_rng(1)
    for _ in range(100):
        rho = ginibre_state(rng, 4, (2, 2))
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = st.DensityMatrix(u @ rho.mat @ u.conj().T, (2, 2))
        lam, rotated_lam = wo.wootters_basis(rho).lambdas, wo.wootters_basis(rotated).lambdas
        assert np.max(np.abs(rotated_lam - lam)) <= 1e-9


def test_concurrence_values():
    assert wo.concurrence(st.make_bd22([0, 0, 0, 1])) == pytest.approx(1.0, abs=1e-12)
    assert wo.concurrence(st.make_bd22([0.25] * 4)) == 0.0
    assert wo.concurrence(st.make_bd22([0.7, 0.1, 0.1, 0.1])) == pytest.approx(0.4, abs=1e-12)
    for theta in np.linspace(0.05, np.pi / 2 - 0.05, 11):
        assert wo.concurrence(pure_two_qubit(theta)) == pytest.approx(
            np.sin(2 * theta), abs=1e-10
        )


def test_basis_on_bell_diagonal():
    rho = st.make_bd22([0.7, 0.1, 0.1, 0.1])
    data = wo.wootters_basis(rho)
    assert np.allclose(data.lambdas, [0.7, 0.1, 0.1, 0.1], atol=1e-12)
    assert np.allclose(data.k, np.ones(4), atol=1e-9)
    # the nondegenerate top vector is sqrt(p_1) |psi_1> up to phase; the
    # degenerate trio is only fixed up to a cluster rotation
    basis = st.bell_basis_22()
    overlap = abs(np.vdot(basis[0], data.x_vectors[0]))
    assert overlap == pytest.approx(np.sqrt(0.7), abs=1e-9)
    # degenerate cluster spans the remaining Bell directions
    span = data.x_vectors[1:].T
    proj = basis[1:].conj() @ span
    assert np.linalg.norm(proj @ proj.conj().T - 0.1 * np.eye(3)) <= 1e-9


def test_basis_invariants_random_full_rank():
    rng = np.random.default_rng(2)
    yy = np.kron(mc.SIGMA_Y, mc.SIGMA_Y)
    for _ in range(200):
        rho = ginibre_state(rng, 4, (2, 2))
        data = wo.wootters_basis(rho)
        x = data.x_vectors.T
        assert np.all(np.diff(data.lambdas) <= 1e-12)
        assert np.linalg.norm(x @ x.conj().T - rho.mat) <= 1e-9
        overlap = x.conj().T @ yy @ x.conj()
        assert np.linalg.norm(overlap - np.diag(data.lambdas)) <= 1e-9
        assert abs(data.P.sum() - 1.0) <= 1e-9
        assert np.all(data.k > 0)
        # x' columns are x / sqrt(lambda)
        for i in range(4):
            assert np.allclose(
                data.x_prime_vectors[i] * np.sqrt(data.lambdas[i]),
                data.x_vectors[i],
                atol=1e-12,
            )


def test_basis_maximally_mixed_biorthogonality():
    data = wo.wootters_basis(st.make_bd22([0.25] * 4))
    yy = np.kron(mc.SIGMA_Y, mc.SIGMA_Y)
    x = data.x_vectors.T
    assert np.linalg.norm(x.conj().T @ yy @ x.conj() - np.eye(4) / 4) <= 1e-9


def test_basis_rank_deficient_state():
    # rank-2 mixture with nonzero flip overlap
    rho = st.make_bd22([0.8, 0.2, 0.0, 0.0])
    data = wo.wootters_basis(rho)
    assert np.allclose(data.lambdas, [0.8, 0.2, 0.0, 0.0], atol=1e-12)
    assert data.k[2] == 0.0 and data.k[3] == 0.0
    assert np.array_equal(data.flip_vectors, data.x_prime_vectors[:2])
    assert data.product_vectors.shape == (0, 4)
    x = data.x_vectors.T
    assert np.linalg.norm(x @ x.conj().T - rho.mat) <= 1e-9


def test_basis_of_a_product_state_is_zero():
    # |00><00| has rho rho~ = 0: every flip eigenvalue, k and P vanish
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    data = wo.wootters_basis(st.DensityMatrix(np.outer(v, v.conj()), (2, 2)))
    assert np.array_equal(data.lambdas, np.zeros(4))
    assert np.array_equal(data.k, np.zeros(4)) and np.array_equal(data.P, np.zeros(4))
    assert np.array_equal(data.x_prime_vectors, np.zeros((4, 4)))
    assert data.concurrence == 0.0
    assert data.flip_vectors.shape == (0, 4)
