"""Independent numeric verification of the closed-form decompositions.

Three layers:

* `lambda_max_fixed` / `lambda_max_bisect` compute the largest weight L with
  rho - L sigma PSD for a fixed separable candidate, once analytically (top
  eigenvalue of rho^(-1/2) sigma rho^(-1/2) on the support) and once by pure
  feasibility bisection.
* `bsa_search` maximizes that weight over a family of separable candidates
  by solving one small semidefinite program. With y = L x the family's
  problem is linear in y: maximize tr S(y) subject to rho - S(y) >= 0 and
  the family's region, written as linear rows and 2x2 blocks (Vandenberghe
  and Boyd, SIAM Rev. 38, 49, 1996). Its optimum is the family-restricted
  best separable approximation (Lewenstein and Sanpera, PRL 80, 2261,
  1998). A damped-Newton log-barrier method solves it deterministically to
  a duality gap of tol/1000, but not below 1e-12.
* `bsa_as_sdp` / `duality_check` phrase the fixed-candidate problem as a
  one-variable linear matrix inequality and certify an optimum through a
  kernel-supported dual matrix: zero duality gap and complementary slackness
  hold exactly at the true maximum weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matcore, separability, wootters
from .errors import (
    DimensionMismatch,
    EmptyFamily,
    InfeasiblePoint,
    NoConvergence,
    NoDualCertificate,
)
from .states import (
    BD22,
    BD23,
    ICD,
    DensityMatrix,
    Horodecki33,
    Isotropic,
    MultiIso,
    Raw,
    StateSpec,
    Werner,
    bell_basis_22,
    bell_basis_23,
    dispatch,
    iso_basis,
    make_horodecki33,
    make_isotropic,
    make_raw,
    make_werner,
    max_entangled,
)

SUPPORT_CUT = 1e-11
LEAK_TOL = 1e-9


# --------------------------------------------------------------------------
# fixed-candidate weight

def _support_pieces(rho_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    r = matcore.pinv_sqrt(rho_mat, tol=SUPPORT_CUT)
    pi = r @ rho_mat @ r
    full_rank = float(np.linalg.eigvalsh(rho_mat)[0]) > SUPPORT_CUT
    return r, pi, full_rank


def lambda_max_fixed(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Largest L >= 0 with rho - L sigma PSD, computed analytically.

    Equals 1 / max_eig(rho^(-1/2) sigma rho^(-1/2)) on the support of rho;
    0 when sigma has weight outside that support.
    """
    if rho.mat.shape != sigma.mat.shape:
        raise DimensionMismatch(
            f"state sizes differ: {rho.mat.shape} vs {sigma.mat.shape}"
        )
    r, pi, full_rank = _support_pieces(rho.mat)
    if not full_rank:
        leak = 1.0 - float(np.real(np.trace(pi @ sigma.mat)))
        if leak > LEAK_TOL:
            return 0.0
    m = r @ sigma.mat @ r
    top = float(np.linalg.eigvalsh(m)[-1])
    if top <= 0.0:
        return 0.0
    return 1.0 / top


def lambda_max_bisect(rho: DensityMatrix, sigma: DensityMatrix, tol: float = 1e-9) -> float:
    """Same weight by bisection on L in [0, 1] using only PSD feasibility.

    Unit traces force L <= 1. The PSD slack inside the bisection is kept well
    below `tol` so the two routes agree to `tol`.
    """
    if rho.mat.shape != sigma.mat.shape:
        raise DimensionMismatch(
            f"state sizes differ: {rho.mat.shape} vs {sigma.mat.shape}"
        )
    psd_tol = min(1e-12, tol * 1e-3)
    if matcore.is_psd(rho.mat - sigma.mat, psd_tol):
        return 1.0
    if not matcore.is_psd(rho.mat, 1e-9):
        raise InfeasiblePoint("rho itself is not PSD")
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if matcore.is_psd(rho.mat - mid * sigma.mat, psd_tol):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --------------------------------------------------------------------------
# separable families

@dataclass
class SeparableFamily:
    """A convex cone of unnormalized separable candidates.

    A point y of the cone stands for S(y) = sum_k y_k gens[k]; the candidate
    state is S(y) / tr S(y) and its weight inside rho is tr S(y). The cone is
    cut out by the linear rows `rows @ y >= 0` and by the 2x2 blocks
    `blocks @ y >= 0` (PSD); `start` lies strictly inside it.
    """

    name: str
    dims: tuple[int, ...]
    gens: np.ndarray  # (m, n, n) Hermitian generators
    rows: np.ndarray  # (r, m)
    blocks: np.ndarray  # (b, 2, 2, m)
    start: np.ndarray  # (m,)

    def sigma(self, y: np.ndarray) -> np.ndarray:
        mat = np.tensordot(np.asarray(y, dtype=float), self.gens, axes=1)
        return mat / np.real(np.trace(mat))


def _projectors(rows: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ik->ijk", rows, rows.conj())


def _block(top, off, bottom) -> np.ndarray:
    """The 2x2 block [[top, off], [off, bottom]], each entry linear in y."""
    return np.array([[top, off], [off, bottom]], dtype=float)


def _half_rows(m: int) -> np.ndarray:
    """y >= 0 and 2 y_k <= sum(y): no weight exceeds half the total."""
    return np.vstack([np.eye(m), np.ones((m, m)) - 2.0 * np.eye(m)])


def _cone_family(name, dims, gens, rows, blocks=()) -> SeparableFamily:
    m = gens.shape[0]
    return SeparableFamily(
        name=name,
        dims=dims,
        gens=gens,
        rows=np.asarray(rows, dtype=float),
        blocks=np.asarray(blocks, dtype=float).reshape(-1, 2, 2, m),
        start=np.ones(m),
    )


def bd22_family() -> SeparableFamily:
    return _cone_family("bd22", (2, 2), _projectors(bell_basis_22()), _half_rows(4))


def icd_family(theta: float) -> SeparableFamily:
    """Two second-order cones ||(y1-y2, c(y3-y4))|| <= (y3+y4)/s and the
    same with the pairs swapped, s = |sin 2 theta|, c = sqrt(1/s^2 - 1);
    each is the 2x2 block [[tau + a, b], [b, tau - a]]."""
    s = abs(math.sin(2.0 * theta))
    c = math.sqrt(max(1.0 / (s * s) - 1.0, 0.0))
    u = 1.0 / s
    blocks = (
        _block([1, -1, u, u], [0, 0, c, -c], [-1, 1, u, u]),
        _block([u, u, 1, -1], [c, -c, 0, 0], [u, u, -1, 1]),
    )
    return _cone_family("icd", (2, 2), _projectors(iso_basis(theta)), np.eye(4), blocks)


def bd23_family() -> SeparableFamily:
    """(y1-y2)^2 <= (y3+y4)(y5+y6) and its two cyclic shifts, as 2x2 blocks."""
    blocks = (
        _block([0, 0, 1, 1, 0, 0], [1, -1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1]),
        _block([0, 0, 0, 0, 1, 1], [0, 0, 1, -1, 0, 0], [1, 1, 0, 0, 0, 0]),
        _block([1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, -1], [0, 0, 1, 1, 0, 0]),
    )
    return _cone_family("bd23", (2, 3), _projectors(bell_basis_23()), np.eye(6), blocks)


def wootters_family(rho: DensityMatrix) -> SeparableFamily:
    """Candidates sum_i w_i |x'_i><x'_i| over the spin-flip basis of rho.

    Separability within the family is the flip-spectrum condition: the
    largest normalized weight must not exceed the sum of the others. With
    two basis vectors that leaves the single candidate of equal weights.
    """
    wd = wootters.wootters_basis(rho)
    gens = _projectors(wd.x_prime_vectors[wd.lambdas > 1e-12])
    m = gens.shape[0]
    if m < 2:
        raise EmptyFamily("spin-flip basis supports no separable candidates")
    if m == 2:
        return _cone_family("wootters", (2, 2), gens.sum(axis=0, keepdims=True), np.eye(1))
    return _cone_family("wootters", (2, 2), gens, _half_rows(m))


def _interval_family(name, dims, base, gen, lo, hi) -> SeparableFamily:
    """S = t base + u gen with lo t <= u <= hi t; gen is traceless, so the
    weight is t."""
    return SeparableFamily(
        name=name,
        dims=dims,
        gens=np.array([base, gen]),
        rows=np.array([[-lo, 1.0], [hi, -1.0]]),
        blocks=np.zeros((0, 2, 2, 2)),
        start=np.array([1.0, 0.5 * (lo + hi)]),
    )


def werner_family(d: int) -> SeparableFamily:
    scale = d**3 - d
    eye = np.eye(d * d, dtype=np.complex128)
    flip = matcore.swap_operator(d)
    base = make_werner(d, 0.0).mat
    gen = (d * flip - eye) / scale
    return _interval_family("werner", (d, d), base, gen, 0.0, 1.0)


def isotropic_family(d: int) -> SeparableFamily:
    base = make_isotropic(d, 0.0).mat
    psi = max_entangled(d)
    proj = np.outer(psi, psi.conj())
    eye = np.eye(d * d, dtype=np.complex128)
    gen = proj - (eye - proj) / (d * d - 1.0)
    return _interval_family("isotropic", (d, d), base, gen, 0.0, 1.0 / d)


def horodecki33_family() -> SeparableFamily:
    base = make_horodecki33(2.0).mat
    gen = (make_horodecki33(3.0).mat - base)  # one unit of alpha
    return _interval_family("horodecki33", (3, 3), base, gen, 0.0, 1.0)


def multi_iso_family(d: int, n: int) -> SeparableFamily:
    size = d**n
    psi = max_entangled(d, n)
    eye = np.eye(size, dtype=np.complex128) / size
    gen = np.outer(psi, psi.conj()) - eye
    s0 = separability.multi_iso_threshold(d, n)
    return _interval_family("multi_iso", (d,) * n, eye, gen, 0.0, s0)


_SEARCH_FAMILIES = {
    BD22: lambda p: bd22_family(),
    ICD: lambda theta, p: icd_family(theta),
    BD23: lambda p: bd23_family(),
    Werner: lambda d, f: werner_family(d),
    Isotropic: lambda d, fidelity: isotropic_family(d),
    Horodecki33: lambda alpha: horodecki33_family(),
    MultiIso: lambda d, n, s: multi_iso_family(d, n),
    Raw: lambda dims, matrix: wootters_family(make_raw(dims, matrix)),
}


def family_for_spec(spec: StateSpec) -> SeparableFamily:
    """The separable search family matching a state spec."""
    return dispatch(_SEARCH_FAMILIES, spec)


# --------------------------------------------------------------------------
# the search: a log-barrier method for one small SDP

EPS = 1e-12  # rho + EPS*I - S(y) >= 0 gives a rank-deficient rho an interior
STEP_UP = 1000.0  # barrier weight factor per centered iterate
CENTERED = 1.0  # squared Newton decrement below which a point counts as centered
MAX_NEWTON = 200
BACKTRACKS = 30  # step halvings tried when a trial point fails to factor
MIN_GAP = 1e-12  # smallest duality gap the Newton steps still resolve in double precision
COMMUTE_TOL = 1e-13  # largest off-diagonal entry _commuting_rows may drop


def _commuting_rows(f0: np.ndarray, fk: np.ndarray):
    """Linear rows (a0, A) equivalent to f0 + sum_k y_k fk[k] >= 0 when all
    the matrices commute (one eigenbasis then diagonalizes them all), or
    None. The eigenbasis is that of a generic combination of them."""
    weights = 1.0 / (np.arange(fk.shape[0]) + math.sqrt(2.0))
    _, u = np.linalg.eigh(f0 + np.tensordot(weights, fk, axes=1))
    rot = u.conj().T @ np.concatenate([f0[None], fk]) @ u
    diag = np.diagonal(rot, axis1=1, axis2=2)
    off = rot - diag[:, :, None] * np.eye(f0.shape[0])
    if np.abs(off).max() > COMMUTE_TOL:
        return None
    return diag[0].real, diag[1:].real.T


def _lmi(rho_mat: np.ndarray, shift: float, fam: SeparableFamily):
    """The problem as linear rows a0 + A y >= 0 and one block-diagonal matrix
    inequality f0 + sum_k y_k fk[k] >= 0, possibly 0x0.

    The state constraint rho + shift*I - S(y) >= 0 becomes linear rows when
    rho and the generators commute, and the first matrix block otherwise;
    the region's rows and 2x2 blocks follow. Returns (a0, A) and
    (f0, fk, entries), `entries` being the flat indices of the blocks'
    entries in an N x N matrix.
    """
    m = fam.gens.shape[0]
    state = rho_mat + shift * np.eye(rho_mat.shape[0])
    rows = _commuting_rows(state, -fam.gens)
    parts = [(np.zeros((2, 2)), np.moveaxis(block, -1, 0)) for block in fam.blocks]
    if rows is None:
        rows = (np.zeros(0), np.zeros((0, m)))
        parts.insert(0, (state, -fam.gens))
    size = sum(p0.shape[0] for p0, _ in parts)
    dtype = np.result_type(float, *(p0 for p0, _ in parts), *(pk for _, pk in parts))
    f0 = np.zeros((size, size), dtype=dtype)
    fk = np.zeros((m, size, size), dtype=dtype)
    mask = np.zeros((size, size), dtype=bool)
    at = 0
    for p0, pk in parts:
        k = p0.shape[0]
        f0[at:at + k, at:at + k] = p0
        fk[:, at:at + k, at:at + k] = pk
        mask[at:at + k, at:at + k] = True
        at += k
    a0 = np.concatenate([rows[0], np.zeros(fam.rows.shape[0])])
    return (a0, np.vstack([rows[1], fam.rows])), (f0, fk, np.flatnonzero(mask))


def _line_search(mus: np.ndarray, slope: float) -> float:
    """Minimizer of the convex h(a) = -slope*a - sum log(1 + a mu) where every
    1 + a mu >= 0.01, so no slack shrinks more than 100-fold in one step:
    Newton's method on h', safeguarded by bisection, to a relative
    precision of 1e-2."""
    neg = mus[mus < 0.0]
    lo, hi = 0.0, (-0.99 / neg.min() if neg.size else math.inf)
    a = min(1.0, 0.5 * hi)
    for _ in range(50):
        r = mus / (1.0 + a * mus)
        d1 = -slope - r.sum()
        if d1 < 0.0:
            lo = a
        else:
            hi = a
        step = a - d1 / (r @ r)
        if not lo < step < hi:
            step = 0.5 * (lo + hi) if hi < math.inf else 2.0 * a
        if abs(step - a) <= 1e-2 * a:
            return step
        a = step
    return a


def _barrier_max(lin, mat, c: np.ndarray, y: np.ndarray, gap_tol: float) -> np.ndarray:
    """Maximize c.y subject to a0 + A y > 0 and F(y) = f0 + sum_k y_k fk[k]
    > 0, from the interior point y.

    Damped-Newton path following on -t c.y + barrier(y). Each Newton step is
    solved in square-root form: with s = a0 + A y, L a square root of F(y)
    (L L^H = F(y), from its eigendecomposition) and W_k = L^-1 fk[k] L^-H,
    the barrier Hessian is the Gram matrix J^T J of the columns
    J_k = (A_k / s, W_k) and its gradient is -J^T e, e = (1, I). The SVD
    U S V^T of the column-scaled J gives the step through Q = U and
    R^-1 = V S^-1, without forming J^T J, which is singular on
    rank-deficient states; an exact line search along it takes the step
    length. The barrier weight t starts at the central-path point nearest y
    and grows by STEP_UP whenever y is centered; the search stops once the
    central path's duality gap nu/t is at most gap_tol.
    """
    a0, a = lin
    f0, fk, entries = mat
    m, size = fk.shape[0], fk.shape[1]
    fk_flat = fk.reshape(m, -1)
    eye = np.concatenate([np.ones(a.shape[0]), np.eye(size).ravel()[entries]])
    if np.iscomplexobj(fk):
        eye = np.concatenate([eye, np.zeros(entries.size)])
    nu = a.shape[0] + size

    def factor(y):
        """Row slacks s and a factor L^-1 with L^-1 F(y) L^-H = I at y;
        LinAlgError outside."""
        s = a0 + a @ y
        if not np.all(s > 0.0):
            raise np.linalg.LinAlgError("a linear slack is not positive")
        if not size:
            return s, None
        evals, vecs = np.linalg.eigh(f0 + (y @ fk_flat).reshape(size, size))
        if not evals[0] > 0.0:
            raise np.linalg.LinAlgError("the matrix inequality does not hold strictly")
        return s, (vecs / np.sqrt(evals)).conj().T

    s, li = factor(y)
    t = None
    for _ in range(MAX_NEWTON):
        jac = a / s[:, None]
        if size:
            w = (li @ fk @ li.conj().T).reshape(m, -1)
            wk = w[:, entries]
            if np.iscomplexobj(wk):
                wk = np.concatenate([wk.real, wk.imag], axis=1)
            jac = np.concatenate([jac, wk.T])
        scale = 1.0 / np.sqrt(np.einsum("ij,ij->j", jac, jac))
        q_mat, sv, vt = np.linalg.svd(jac * scale, full_matrices=False)
        r_inv = vt.T / sv
        q = eye @ q_mat  # centering part of the scaled Newton step
        u = (scale * c) @ r_inv  # objective part, per unit t
        if t is None:
            t = max(1.0, -float(u @ q) / float(u @ u))
        v = q + t * u
        while v @ v <= CENTERED:
            if nu / t <= gap_tol:
                return y
            t *= STEP_UP
            v = q + t * u
        dy = scale * (r_inv @ v)
        mus = (a @ dy) / s
        if size:
            mus = np.concatenate([mus, np.linalg.eigvalsh((dy @ w).reshape(size, size))])
        step = _line_search(mus, t * float(c @ dy))
        for _ in range(BACKTRACKS):
            trial = y + step * dy
            if not np.all(np.isfinite(trial)):
                raise NoConvergence("barrier iterate is not finite")
            try:  # rounding can put a point the line search kept inside outside
                s, li = factor(trial)
                break
            except np.linalg.LinAlgError:
                step *= 0.5
        else:
            raise NoConvergence("no step along the Newton direction stays inside")
        y = trial
    raise NoConvergence(f"barrier search did not converge in {MAX_NEWTON} Newton steps")


def bsa_search(
    rho: DensityMatrix,
    family: SeparableFamily,
    tol: float = 1e-7,
    seed: int = 0,
) -> tuple[float, DensityMatrix]:
    """Maximize the separable weight of `rho` over a candidate family.

    Solves max tr S(y) subject to rho + eps*I - S(y) >= 0 and the family's
    region by a log-barrier method, to a duality gap of at most tol/1000
    (but not below MIN_GAP); eps is EPS, plus the size of rho's smallest
    eigenvalue if that is negative. The search is deterministic; `seed` is
    accepted and not used. Returns the weight tr S(y) and the maximizing
    candidate S(y) / tr S(y). Raises NoConvergence when the solver fails.
    """
    if family.gens.shape[1] != rho.mat.shape[0]:
        raise DimensionMismatch(
            f"family size {family.gens.shape[1]} != state size {rho.mat.shape[0]}"
        )
    c = np.real(np.trace(family.gens, axis1=1, axis2=2))
    try:
        # shift rho by EPS past its smallest eigenvalue, then scale the start
        # to half its largest step inside the shifted state
        evals, vecs = np.linalg.eigh(rho.mat)
        shift = EPS + max(0.0, -float(evals[0]))
        r = vecs / np.sqrt(evals + shift)
        s0 = np.tensordot(family.start, family.gens, axes=1)
        top = float(np.linalg.eigvalsh(r.conj().T @ s0 @ r)[-1])
        lin, mat = _lmi(rho.mat, shift, family)
        gap = max(tol / 1000.0, MIN_GAP)
        y = _barrier_max(lin, mat, c, family.start * (0.5 / top), gap)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"barrier search failed: {exc}") from exc
    lam = float(c @ y)
    return lam, DensityMatrix(family.sigma(y), family.dims)


# --------------------------------------------------------------------------
# SDP phrasing and duality diagnostics

@dataclass(frozen=True)
class SdpProblem:
    """minimize c.x subject to F(x) = f0 + sum_i x_i fis[i] >= 0."""

    c: np.ndarray
    f0: np.ndarray
    fis: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class DualityReport:
    primal_value: float
    dual_value: float
    gap: float
    slackness_residual: float


def bsa_as_sdp(rho: DensityMatrix, sigma: DensityMatrix) -> SdpProblem:
    """One-variable LMI whose optimum is minus the maximal separable weight."""
    if rho.mat.shape != sigma.mat.shape:
        raise DimensionMismatch(
            f"state sizes differ: {rho.mat.shape} vs {sigma.mat.shape}"
        )
    return SdpProblem(c=np.array([-1.0]), f0=rho.mat.copy(), fis=(-sigma.mat.copy(),))


KERNEL_CUT = 1e-8


def duality_check(problem: SdpProblem, x_hat: np.ndarray) -> DualityReport:
    """Certify a primal point through a kernel-supported dual matrix.

    Z is the projector onto the kernel of F(x_hat), scaled so that the dual
    equality constraints Tr[F_i Z] = c_i hold. Raises InfeasiblePoint when
    F(x_hat) is not PSD and NoDualCertificate when the kernel is empty or
    admits no consistent scaling (both mean x_hat is not optimal).
    """
    x_hat = np.atleast_1d(np.asarray(x_hat, dtype=float))
    if x_hat.shape[0] != len(problem.fis):
        raise DimensionMismatch(
            f"{x_hat.shape[0]} variables for {len(problem.fis)} constraint matrices"
        )
    f_at = problem.f0 + np.tensordot(x_hat, np.stack(problem.fis), axes=1)
    f_at = 0.5 * (f_at + f_at.conj().T)
    scale = max(1.0, matcore.frob(f_at))
    eig = matcore.hermitian_eig(f_at)
    if eig.values[0] < -1e-9 * scale:
        raise InfeasiblePoint(
            f"F(x) has eigenvalue {eig.values[0]:.3e}; point is primal infeasible"
        )
    kernel = eig.vectors[:, eig.values <= KERNEL_CUT * scale]
    if kernel.shape[1] == 0:
        raise NoDualCertificate("F(x) is positive definite; no active constraint")
    z0 = kernel @ kernel.conj().T

    zeta = None
    for i, fi in enumerate(problem.fis):
        ti = float(np.real(np.trace(fi @ z0)))
        ci = float(problem.c[i])
        if abs(ti) <= 1e-10:
            if abs(ci) > 1e-10:
                raise NoDualCertificate(
                    "kernel projector cannot satisfy the dual equality constraints"
                )
            continue
        cand = ci / ti
        if zeta is None:
            zeta = cand
        elif abs(cand - zeta) > 1e-6 * max(1.0, abs(zeta)):
            raise NoDualCertificate("inconsistent dual scaling across constraints")
    if zeta is None or zeta < 0.0:
        raise NoDualCertificate("no nonnegative dual scaling exists")
    z = zeta * z0

    primal = float(problem.c @ x_hat)
    dual = -float(np.real(np.trace(problem.f0 @ z)))
    slack = matcore.frob(f_at @ z)
    return DualityReport(
        primal_value=primal,
        dual_value=dual,
        gap=primal - dual,
        slackness_residual=slack,
    )
