"""Shared samplers and small utilities for the test suite."""

from __future__ import annotations

import numpy as np

from lsdecomp import lsd, separability, wootters
from lsdecomp.states import DensityMatrix, make_bd22, make_bd23, make_icd


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Gaussian matrix."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def ginibre_state(rng: np.random.Generator, n: int, dims=None) -> DensityMatrix:
    """Full-rank random density matrix G G^dag / tr."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    m /= np.real(np.trace(m))
    return DensityMatrix(m, dims if dims is not None else (n,))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (g + g.conj().T)


def sample_entangled_bd22(rng: np.random.Generator) -> np.ndarray:
    while True:
        p = rng.dirichlet(np.ones(4))
        if p.max() > 0.5 + 1e-4:
            return p


def sample_entangled_icd(rng: np.random.Generator) -> tuple[float, np.ndarray]:
    while True:
        theta = rng.uniform(0.35, np.pi / 2 - 0.35)
        p = rng.dirichlet(np.ones(4))
        if separability.icd_region(theta, p).status == separability.ENTANGLED:
            return theta, p


def sample_entangled_2q(rng: np.random.Generator, cmin: float = 0.02) -> DensityMatrix:
    """Random full-rank 2-qubit state with concurrence at least cmin."""
    while True:
        rho = ginibre_state(rng, 4, (2, 2))
        if wootters.concurrence(rho) >= cmin:
            return rho


def sample_entangled_bd23(rng: np.random.Generator) -> tuple[np.ndarray, lsd.LSDecomposition]:
    """Entangled 2x3 mixture inside the pure-residual chamber of the split."""
    while True:
        p = rng.dirichlet(np.ones(6))
        if separability.bd23_region(p).status != separability.ENTANGLED:
            continue
        try:
            dec = lsd.lsd_bd23(p)
        except Exception:
            continue
        return p, dec


def bd22_state(p) -> DensityMatrix:
    return make_bd22(p)


def icd_state(theta, p) -> DensityMatrix:
    return make_icd(theta, p)


def bd23_state(p) -> DensityMatrix:
    return make_bd23(p)


def zero_flip_states() -> dict[str, tuple[np.ndarray, float]]:
    """Two-qubit states with a support vector of no spin-flip weight, |01>,
    and the weight 1 - C of their optimal split."""
    phi_plus = np.outer([1.0, 0, 0, 1.0], [1.0, 0, 0, 1.0]) / 2
    phi_minus = np.outer([1.0, 0, 0, -1.0], [1.0, 0, 0, -1.0]) / 2
    ket01 = np.diag([0, 1.0, 0, 0])
    return {
        "rank3": (0.5 * phi_plus + 0.2 * phi_minus + 0.3 * ket01, 0.7),
        "one_flip": (0.6 * phi_plus + 0.4 * ket01, 0.4),
    }
