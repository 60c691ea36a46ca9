"""Spin-flip machinery for generic 2-qubit states.

The central object is a subnormalized decomposition rho = sum_i |x_i><x_i|
whose vectors are biorthogonal under the spin flip, <x_i|x~_j> = lam_i d_ij
with lam_1 >= ... >= lam_4 >= 0. The lam_i determine the concurrence and,
downstream, the optimal separable weight of the state.

The lam_i are computed as the Takagi singular values of the spin-flip overlap
matrix tau_ij = <v_i|v~_j> built on the support of rho. This has the same
spectrum as sqrt(rho rho~) but is accurate additively: squaring-then-rooting
(eigenvalues of the Hermitian proxy sqrt(rho) rho~ sqrt(rho)) loses half the
digits near zero, which is visible on pure states. Neither route needs a
non-Hermitian eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import InputError
from .states import DensityMatrix

_YY = np.kron(matcore.SIGMA_Y, matcore.SIGMA_Y)

SUPPORT_CUT = 1e-12


def _spin_flip(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The support columns v_i = sqrt(mu_i) |e_i> of a 2-qubit rho, the
    Takagi unitary of their overlap tau_ij = <v_i|v~_j>, and its Takagi
    values lam_i, descending and padded with zeros to 4.

    A real rho is cast to complex128 first. The Takagi step needs complex
    values anyway, and the real eigensolver would round otherwise, so the
    cast gives a real rho the spin-flip basis of its complex copy."""
    if tuple(rho.dims) != (2, 2):
        raise InputError(f"expected dims (2, 2), got {rho.dims}")
    w, v = np.linalg.eigh(rho.mat.astype(np.complex128, copy=False))
    keep = w > SUPPORT_CUT
    vcols = v[:, keep] * np.sqrt(w[keep])
    u, d = matcore.takagi_factorize(vcols.conj().T @ _YY @ vcols.conj())
    lambdas = np.zeros(4)
    lambdas[: d.shape[0]] = d
    return vcols, u, lambdas


def _concurrence(lam: np.ndarray) -> float:
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def concurrence(rho: DensityMatrix) -> float:
    """max(0, lam1 - lam2 - lam3 - lam4); 0 for separable, 1 for Bell states."""
    return _concurrence(_spin_flip(rho)[2])


@dataclass(frozen=True, eq=False)
class WoottersData:
    """Spin-flip basis of a 2-qubit state.

    x_vectors[i] is the subnormalized |x_i> (rows); x_prime_vectors[i] is
    |x_i>/sqrt(lam_i) where lam_i > 0 and the zero vector otherwise, in which
    case k[i] is reported as 0.
    """

    lambdas: np.ndarray
    x_vectors: np.ndarray
    x_prime_vectors: np.ndarray
    k: np.ndarray
    P: np.ndarray
    concurrence: float

    @property
    def product_vectors(self) -> np.ndarray:
        """The rows x_i of the support with no flip weight: <x_i|x~_i> = 0
        makes each one a product vector."""
        return self.x_vectors[(self.lambdas <= SUPPORT_CUT) & self.x_vectors.any(axis=1)]

    @property
    def flip_vectors(self) -> np.ndarray:
        """The rows x'_i of flip weight lam_i > SUPPORT_CUT."""
        return self.x_prime_vectors[self.lambdas > SUPPORT_CUT]


def wootters_basis(rho: DensityMatrix) -> WoottersData:
    """Construct the biorthogonal spin-flip basis of a 2-qubit state.

    Takes the subnormalized eigenvectors |v_i> of rho, forms the complex
    symmetric overlap matrix tau_ij = <v_i|v~_j> on the support, and rotates
    by the conjugated Takagi unitary of tau so that <x_i|x~_j> = lam_i d_ij
    with lam_i real nonnegative descending. Where rho rho~ vanishes
    identically (as for |00><00|), every lam_i, k_i and the concurrence are 0.
    """
    vcols, u, lambdas = _spin_flip(rho)
    xcols = np.zeros((4, 4), dtype=np.complex128)
    xcols[:, : vcols.shape[1]] = vcols @ u.conj().T

    xprime = np.zeros_like(xcols)
    k = np.zeros(4)
    for i in range(4):
        if lambdas[i] > SUPPORT_CUT:
            xprime[:, i] = xcols[:, i] / np.sqrt(lambdas[i])
            k[i] = float(np.real(np.vdot(xprime[:, i], xprime[:, i])))
    return WoottersData(
        lambdas=lambdas,
        x_vectors=xcols.T.copy(),
        x_prime_vectors=xprime.T.copy(),
        k=k,
        P=lambdas * k,
        concurrence=_concurrence(lambdas),
    )
