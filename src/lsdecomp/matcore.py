"""Dense real or complex matrix algebra for small Hilbert spaces.

Everything operates on plain numpy arrays, float64 for real matrices and
complex128 for complex ones, and stays dense: the package never sees a
dimension above 64, so full eigendecompositions are always the right tool.
A real symmetric matrix is Hermitian, and real arithmetic on it is
cheaper: a 64x64 `eigvalsh` takes about 40% of the time in float64. All
functions are pure and never mutate their inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, NoConvergence, NumericalError

HERM_RTOL = 1e-12
PSD_TOL = 1e-9

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d array: float64 when the entries are real
    (bool, integer or float) and complex128 when they are complex. An
    object array is read as the numbers it holds."""
    arr = np.asarray(a)
    if arr.dtype == object:
        arr = np.array(arr.tolist())
    if arr.dtype.kind not in "biufc":
        raise InputError(f"matrix entries are not numbers: dtype {arr.dtype}")
    arr = arr.astype(np.complex128 if arr.dtype.kind == "c" else np.float64, copy=False)
    if arr.ndim != 2:
        raise InputError(f"expected a 2-d matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise InputError("matrix contains non-finite entries")
    return arr


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def _require_square_hermitian(a: np.ndarray) -> tuple[np.ndarray, float]:
    """The checked matrix and its Frobenius norm."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise InputError(f"matrix is not square: shape {a.shape}")
    norm = frob(a)
    if frob(a - dagger(a)) > HERM_RTOL * max(1e-300, norm):
        raise InputError("matrix is not Hermitian within tolerance")
    return a, norm


def kron(a, b) -> np.ndarray:
    """Kronecker product A (x) B."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_transpose(rho, dims) -> np.ndarray:
    """Partial transpose of a bipartite matrix on its second subsystem.

    `dims` is the pair (dA, dB); the matrix must be square of size dA*dB.
    The operation is an involution and preserves trace and Hermiticity.
    """
    rho = as_matrix(rho)
    da, db = int(dims[0]), int(dims[1])
    n = da * db
    if rho.shape != (n, n):
        raise InputError(
            f"matrix shape {rho.shape} does not match dims {da}x{db}"
        )
    return rho.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(n, n).copy()


def is_psd(a, tol: float = PSD_TOL) -> bool:
    """True iff the Hermitian matrix has min eigenvalue >= -tol*max(1, ||A||_F)."""
    a, norm = _require_square_hermitian(a)
    return float(np.linalg.eigvalsh(a)[0]) >= -tol * max(1.0, norm)


def psd_sqrt(a) -> np.ndarray:
    """Principal square root of a PSD matrix (negative noise clipped to 0)."""
    a, norm = _require_square_hermitian(a)
    w, v = np.linalg.eigh(a)
    if w[0] < -PSD_TOL * max(1.0, norm):
        raise NumericalError(f"matrix has eigenvalue {w[0]:.3e} below -tol")
    out = (v * np.sqrt(np.maximum(w, 0.0))) @ dagger(v)
    return 0.5 * (out + dagger(out))


def swap_operator(d: int) -> np.ndarray:
    """Flip operator F = sum_ij |ij><ji| on C^d (x) C^d."""
    f = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            f[i * d + j, j * d + i] = 1.0
    return f


def _orthonormal_completion(cols: np.ndarray, n: int, k: int) -> np.ndarray:
    """k orthonormal columns spanning the orthocomplement of `cols` in C^n."""
    if cols.shape[1] == 0:
        return np.eye(n, dtype=np.complex128)[:, :k]
    proj = np.eye(n, dtype=np.complex128) - cols @ dagger(cols)
    u, _, _ = np.linalg.svd(proj)
    return u[:, :k]


def takagi_factorize(s) -> tuple[np.ndarray, np.ndarray]:
    """Takagi factorization of a complex symmetric matrix.

    Returns (U, d) with U unitary and d real, nonnegative, descending such
    that U S U^T = diag(d). Works through the real symmetric embedding
    [[Re S, Im S], [Im S, -Re S]]: its eigenpairs with eigenvalue +s yield
    con-eigenvectors w with S conj(w) = s w, which are automatically
    orthonormal for s > 0; the null block is completed explicitly.
    """
    s = as_matrix(s)
    n = s.shape[0]
    if s.shape[0] != s.shape[1]:
        raise InputError(f"matrix is not square: shape {s.shape}")
    scale = max(1.0, frob(s))
    if frob(s - s.T) > 1e-12 * scale:
        raise InputError("matrix is not complex symmetric within tolerance")

    x, y = s.real, s.imag
    t = np.block([[x, y], [y, -x]])
    try:
        w, q = np.linalg.eigh(t)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(f"Takagi embedding eigensolver failed: {exc}") from exc

    order = np.argsort(w)[::-1][:n]
    d = w[order].copy()
    cols = q[:, order]
    wvecs = cols[:n, :] + 1.0j * cols[n:, :]

    cut = 1e-12 * scale
    pos = d > cut
    if not np.all(pos):
        # con-eigenvectors for s ~ 0 are not reliably orthonormal; rebuild
        # the null block as an orthonormal completion of the positive one.
        k = int(n - np.count_nonzero(pos))
        wvecs[:, ~pos] = _orthonormal_completion(wvecs[:, pos], n, k)
        d[~pos] = np.maximum(d[~pos], 0.0)

    u = dagger(wvecs)
    return u, d
