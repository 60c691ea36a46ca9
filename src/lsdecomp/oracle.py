"""Independent numeric verification of the closed-form decompositions.

Three layers:

* `lambda_max_fixed` computes the largest weight L with rho - L sigma PSD
  for a fixed separable candidate, analytically: the inverse of the top
  eigenvalue of rho^(-1/2) sigma rho^(-1/2) on the support of rho.
* `bsa_search` maximizes that weight over a family of separable candidates
  by solving one small semidefinite program. With y = L x the family's
  problem is linear in y: maximize tr S(y) subject to rho - S(y) >= 0 and
  the family's region, which the family holds in the solver's form: linear
  rows and cone stacks, each stack matrix blocks of one size, any size,
  factored by one batched eigh (Vandenberghe and Boyd, SIAM Rev. 38, 49,
  1996). Every family is a cone of separable generators, the one-parameter
  families the mixtures of the two end states of their separable range
  (one routine, `_line_family`, read from their rows of `states.FAMILIES`).
  Its optimum is the family-restricted best separable approximation
  (Lewenstein and Sanpera, PRL 80, 2261, 1998). A damped-Newton log-barrier
  method solves it deterministically from the all-ones point to a duality
  gap of tol/1000, but not below 1e-12.
* `bsa_as_sdp` / `duality_check` phrase the fixed-candidate problem as a
  one-constraint linear matrix inequality and certify an optimum through a
  kernel-supported dual matrix: zero duality gap and complementary slackness
  hold exactly at the true maximum weight.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import matcore, separability, wootters
from .errors import (
    InfeasiblePoint,
    InputError,
    NoConvergence,
    NoDualCertificate,
)
from .states import (
    BD22,
    BD23,
    ICD,
    FAMILIES,
    FAMILY_BY_SPEC,
    DensityMatrix,
    Raw,
    StateSpec,
    bell_basis_22,
    bell_basis_23,
    dispatch,
    icd_theta,
    iso_basis,
    make_raw,
)

SUPPORT_CUT = 1e-11
LEAK_TOL = 1e-9


# --------------------------------------------------------------------------
# fixed-candidate weight

def lambda_max_fixed(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Largest L >= 0 with rho - L sigma PSD, computed analytically.

    Equals 1 / max_eig(rho^(-1/2) sigma rho^(-1/2)) on the support of rho
    (eigenvalues above SUPPORT_CUT); 0 when sigma has weight outside that
    support. The weight inside is read in rho's eigenbasis, where it stays
    exact; rho^(-1/2) rho rho^(-1/2) would carry rounding of eps / min_eig.
    """
    if rho.mat.shape != sigma.mat.shape:
        raise InputError(f"state sizes differ: {rho.mat.shape} vs {sigma.mat.shape}")
    w, v = np.linalg.eigh(rho.mat)
    keep = w > SUPPORT_CUT
    inside = v[:, keep].conj().T @ sigma.mat @ v[:, keep]
    if 1.0 - float(np.real(np.trace(inside))) > LEAK_TOL:
        return 0.0
    scale = 1.0 / np.sqrt(w[keep])
    return 1.0 / float(np.linalg.eigvalsh(scale[:, None] * inside * scale)[-1])


# --------------------------------------------------------------------------
# separable families

@dataclass(frozen=True, eq=False)
class SeparableFamily:
    """A convex cone of unnormalized separable candidates.

    A point y of the cone stands for S(y) = sum_k y_k gens[k]; the candidate
    state is S(y) / tr S(y) and its weight inside rho is tr S(y). The cone is
    cut out by the linear rows `rows @ y >= 0` and by every block j of every
    stack fk in `cones`: sum_k y_k fk[k, j] >= 0 (PSD). The all-ones point
    lies strictly inside it.
    """

    name: str
    gens: np.ndarray  # (m, n, n) Hermitian generators
    rows: np.ndarray  # (r, m)
    cones: tuple[np.ndarray, ...]  # stacks fk of shape (m, b, k, k), k per stack

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


def _cone_family(name, gens, rows, blocks=()) -> SeparableFamily:
    """A family whose 2x2 `_block`s, if any, form one cone stack. The stack
    is a view: a contiguous copy can take the batched matmul down another
    kernel, and so change the search's rounding."""
    cones = (np.moveaxis(np.asarray(blocks, dtype=float), -1, 0),) if blocks else ()
    return SeparableFamily(name, np.asarray(gens), np.asarray(rows, dtype=float), cones)


def bd22_family() -> SeparableFamily:
    return _cone_family("bd22", _projectors(bell_basis_22()), _half_rows(4))


def icd_family(theta: float) -> SeparableFamily:
    """Two second-order cones ||(y1-y2, c(y3-y4))|| <= (y3+y4)/s and the
    same with the pairs swapped, s = |sin 2 theta|, c = sqrt(1/s^2 - 1);
    each is the 2x2 block [[tau + a, b], [b, tau - a]]."""
    theta = icd_theta(theta)
    s = abs(math.sin(2.0 * theta))
    c = math.sqrt(max(1.0 / (s * s) - 1.0, 0.0))
    u = 1.0 / s
    blocks = (
        _block([1, -1, u, u], [0, 0, c, -c], [-1, 1, u, u]),
        _block([u, u, 1, -1], [c, -c, 0, 0], [u, u, -1, 1]),
    )
    return _cone_family("icd", _projectors(iso_basis(theta)), np.eye(4), blocks)


def bd23_family() -> SeparableFamily:
    """(y1-y2)^2 <= (y3+y4)(y5+y6) and its two cyclic shifts, as 2x2 blocks."""
    blocks = (
        _block([0, 0, 1, 1, 0, 0], [1, -1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1]),
        _block([0, 0, 0, 0, 1, 1], [0, 0, 1, -1, 0, 0], [1, 1, 0, 0, 0, 0]),
        _block([1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, -1], [0, 0, 1, 1, 0, 0]),
    )
    return _cone_family("bd23", _projectors(bell_basis_23()), np.eye(6), blocks)


def wootters_family(rho: DensityMatrix) -> SeparableFamily:
    """Candidates sum_i w_i |x'_i><x'_i| over the spin-flip basis of rho,
    plus any mixture of its support vectors of no flip weight, which are
    product vectors.

    Separability within the flip basis is the flip-spectrum condition: the
    largest normalized weight must not exceed the sum of the others. With
    two basis vectors that leaves the single candidate of equal weights,
    and with one none. A pure entangled rho has no candidate at all, and
    rho - L sigma >= 0 with L > 0 forces sigma = rho, so its family is I/4,
    of weight 0.
    """
    wd = wootters.wootters_basis(rho)
    flip = _projectors(wd.x_prime_vectors[wd.lambdas > wootters.SUPPORT_CUT])
    m = flip.shape[0]
    if m < 3:  # two flip vectors give one candidate, their equal mixture; one gives none
        flip = flip.sum(axis=0, keepdims=True)[:m // 2]
    gens = np.concatenate([flip, _projectors(wd.product_vectors)])
    if not len(gens):
        return _cone_family("wootters", np.eye(4)[None] / 4.0, np.eye(1))
    rows = np.eye(len(gens))
    if m > 2:  # and no flip weight exceeds half the flip total
        rows = np.vstack([rows, np.pad(_half_rows(m)[m:], ((0, 0), (0, len(gens) - m)))])
    return _cone_family("wootters", gens, rows)


def _line_family(spec: type, *sizes) -> SeparableFamily:
    """A one-parameter state is affine in its parameter: its separable
    members are the non-negative mixtures of the two end states of its
    separable range, the generators here in ascending parameter order."""
    fam = FAMILY_BY_SPEC[spec]
    line = fam.line
    far = separability.line_state(spec, *sizes, line.far)  # built first: it checks the sizes
    num, den = line.threshold(*sizes)
    near = separability.line_state(spec, *sizes, num / den)
    ends = [far.mat, near.mat] if line.far < line.end else [near.mat, far.mat]
    return _cone_family(fam.name, ends, np.eye(2))


_SEARCH_FAMILIES = {
    BD22: lambda p: bd22_family(),
    ICD: lambda theta, p: icd_family(theta),
    BD23: lambda p: bd23_family(),
    # a one-parameter spec's family is that of its sizes, its fields but the last
    **{fam.spec: lambda *args, spec=fam.spec: _line_family(spec, *args[:-1])
       for fam in FAMILIES if fam.line},
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
    return diag[0].real, diag[1:].T.real


def _line_search(mus: list[float], slope: float) -> float:
    """Minimizer of the convex h(a) = -slope*a - sum log(1 + a mu) where every
    1 + a mu >= 0.01, so no slack shrinks more than 100-fold in one step:
    Newton's method on h' from min(1, hi/2), safeguarded by bisection, until
    a step moves a by at most 1e-2 of it. `mus` is a list of floats: there
    are at most a few dozen, where numpy's per-call cost exceeds the work."""
    low = min(mus)
    lo, hi = 0.0, (-0.99 / low if low < 0.0 else math.inf)
    a = min(1.0, 0.5 * hi)
    for _ in range(50):
        d1 = d2 = 0.0
        for mu in mus:
            r = mu / (1.0 + a * mu)
            d1 += r
            d2 += r * r
        d1 = -slope - d1
        lo, hi = (a, hi) if d1 < 0.0 else (lo, a)
        step = a - d1 / d2 if d2 else math.nan
        if not lo < step < hi:
            step = 0.5 * (lo + hi) if hi < math.inf else 2.0 * a
        if abs(step - a) <= 1e-2 * a:
            return step
        a = step
    return a


def _barrier_max(lin, stacks, c: np.ndarray, y: np.ndarray, gap_tol: float) -> np.ndarray:
    """Maximize c.y subject to a0 + A y > 0 and, for every block j of every
    stack, F_j(y) = f0[j] + sum_k y_k fk[k, j] > 0, from the interior point y.

    Damped-Newton path following on -t c.y + barrier(y). Each Newton step is
    solved in square-root form: with s = a0 + A y, L_j = F_j(y)^(1/2) (from
    one batched eigendecomposition per stack) and W_jk = L_j^-1 fk[k, j]
    L_j^-1, the barrier Hessian is the Gram matrix J^T J of the columns
    J_k = (A_k / s, W_1k, W_2k, ...) and its gradient is -J^T e,
    e = (1, vec I, vec I, ...). J is filled in place in one buffer per
    search: every real number of every block entry is one row, so a complex
    entry gives two, its real part and then its imaginary part, and its
    share of e reads 0 in the second. The SVD U S V^T of the
    column-scaled J gives the step through Q = U and R^-1 = V S^-1, without
    forming J^T J, which is singular on rank-deficient states; an exact line
    search along it, on the step's relative slack changes as Python floats,
    takes the step length. The barrier weight t starts at the central-path
    point nearest y and grows by STEP_UP whenever y is centered; the search
    stops once the central path's duality gap nu/t is at most gap_tol.
    """
    a0, a = lin
    n_lin, m = a.shape
    parts, at, eye = [], n_lin, [np.ones(n_lin)]
    for f0, fk in stacks:  # each stack with its Jacobian rows, and its part of e
        e = np.eye(f0.shape[-1], dtype=np.result_type(f0, fk))
        eye.append(np.broadcast_to(e, f0.shape).ravel().view(np.float64))
        parts.append((f0, fk, fk.reshape(m, -1), slice(at, at + eye[-1].size)))
        at += eye[-1].size
    jac = np.empty((at, m))
    eye = np.concatenate(eye)
    nu = eye.sum()  # one per linear row and per block eigenvalue

    def factor(y):
        """Row slacks s and each stack's L^-1 = F(y)^(-1/2) at y;
        LinAlgError outside."""
        s = a0 + a @ y
        if not s.min(initial=math.inf) > 0.0:
            raise np.linalg.LinAlgError("a linear slack is not positive")
        roots = []
        for f0, _, fk_flat, _ in parts:
            evals, vecs = np.linalg.eigh(f0 + (y @ fk_flat).reshape(f0.shape))
            if not evals.min() > 0.0:
                raise np.linalg.LinAlgError("a matrix inequality does not hold strictly")
            roots.append((vecs / np.sqrt(evals)[:, None]) @ vecs.conj().swapaxes(1, 2))
        return s, roots

    s, roots = factor(y)
    t = None
    for _ in range(MAX_NEWTON):
        np.divide(a, s[:, None], out=jac[:n_lin])
        ws = []
        for li, (_, fk, _, rows) in zip(roots, parts):
            w = (li @ fk @ li).reshape(m, -1)  # li is Hermitian
            jac[rows] = w.view(np.float64).T
            ws.append(w)
        scale = 1.0 / np.sqrt(np.einsum("ij,ij->j", jac, jac))
        jac *= scale
        q_mat, sv, vt = np.linalg.svd(jac, full_matrices=False)
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
        mus = ((a @ dy) / s).tolist()
        for w, (f0, *_) in zip(ws, parts):
            mus += np.linalg.eigvalsh((dy @ w).reshape(f0.shape)).ravel().tolist()
        step = _line_search(mus, t * float(c @ dy))
        for _ in range(BACKTRACKS):
            trial = y + step * dy
            if not math.isfinite(trial.sum()):
                raise NoConvergence("barrier iterate is not finite")
            try:  # rounding can put a point the line search kept inside outside
                s, roots = factor(trial)
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
    candidate S(y) / tr S(y). Raises InputError for a tol that is not a
    finite real number and NoConvergence when the solver fails.
    """
    if not isinstance(tol, numbers.Real):
        raise InputError(f"tol must be a real number, got {tol!r}")
    if not math.isfinite(tol):
        raise InputError(f"tol must be finite, got {tol}")
    gens = family.gens
    if gens.shape[1] != rho.mat.shape[0]:
        raise InputError(f"family size {gens.shape[1]} != state size {rho.mat.shape[0]}")
    c = np.real(np.trace(gens, axis1=1, axis2=2))
    try:
        # shift rho by EPS past its smallest eigenvalue, then scale the start
        # to half its largest step inside the shifted state
        evals, vecs = np.linalg.eigh(rho.mat)
        shift = EPS + max(0.0, -float(evals[0]))
        r = vecs / np.sqrt(evals + shift)
        start = np.ones(gens.shape[0])
        s0 = np.tensordot(start, gens, axes=1)
        top = float(np.linalg.eigvalsh(r.conj().T @ s0 @ r)[-1])
        # the state constraint rho + shift*I - S(y) >= 0: linear rows when
        # rho and the generators commute, else one N x N block; then the
        # family's rows and its cone stacks
        state = rho.mat + shift * np.eye(len(evals))
        rows, stacks = _commuting_rows(state, -gens), []
        if rows is None:
            rows, stacks = (np.zeros(0), np.zeros((0, len(gens)))), [(state[None], -gens[:, None])]
        a0 = np.concatenate([rows[0], np.zeros(len(family.rows))])
        lin = a0, np.vstack([rows[1], family.rows])
        stacks += [(np.zeros(fk.shape[1:]), fk) for fk in family.cones]
        gap = max(tol / 1000.0, MIN_GAP)
        y = _barrier_max(lin, stacks, c, start * (0.5 / top), gap)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"barrier search failed: {exc}") from exc
    lam = float(c @ y)
    return lam, DensityMatrix(family.sigma(y), rho.dims)


# --------------------------------------------------------------------------
# SDP phrasing and duality diagnostics

@dataclass(frozen=True, eq=False)
class SdpProblem:
    """maximize x subject to F(x) = f0 + x f1 >= 0."""

    f0: np.ndarray
    f1: np.ndarray


@dataclass(frozen=True)
class DualityReport:
    primal_value: float
    dual_value: float
    gap: float
    slackness_residual: float


def bsa_as_sdp(rho: DensityMatrix, sigma: DensityMatrix) -> SdpProblem:
    """The LMI whose optimum is the maximal weight of sigma inside rho."""
    if rho.mat.shape != sigma.mat.shape:
        raise InputError(f"state sizes differ: {rho.mat.shape} vs {sigma.mat.shape}")
    return SdpProblem(f0=rho.mat.copy(), f1=-sigma.mat.copy())


KERNEL_CUT = 1e-8


def duality_check(problem: SdpProblem, x_hat: np.ndarray) -> DualityReport:
    """Certify a primal point, the length-1 `x_hat`, through a
    kernel-supported dual matrix.

    The primal value is -x, the objective in minimization form. Z is the projector
    onto the kernel of F(x), scaled so that the dual equality constraint
    Tr[f1 Z] = -1 holds. Raises InfeasiblePoint when F(x) is not PSD and
    NoDualCertificate when the kernel is empty or admits no non-negative
    scaling (both mean x is not optimal).
    """
    x = np.asarray(x_hat, dtype=float).item()
    f_at = problem.f0 + x * problem.f1
    f_at = matcore.as_matrix(0.5 * (f_at + f_at.conj().T))
    scale = max(1.0, matcore.frob(f_at))
    w, v = np.linalg.eigh(f_at)
    if w[0] < -1e-9 * scale:
        raise InfeasiblePoint(f"F(x) has eigenvalue {w[0]:.3e}; point is primal infeasible")
    kernel = v[:, w <= KERNEL_CUT * scale]
    if kernel.shape[1] == 0:
        raise NoDualCertificate("F(x) is positive definite; no active constraint")
    z0 = kernel @ kernel.conj().T

    t1 = float(np.real(np.trace(problem.f1 @ z0)))
    if abs(t1) <= 1e-10:
        raise NoDualCertificate("kernel projector cannot satisfy the dual equality constraints")
    if t1 > 0.0:
        raise NoDualCertificate("no nonnegative dual scaling exists")
    z = (-1.0 / t1) * z0

    primal = -x
    dual = -float(np.real(np.trace(problem.f0 @ z)))
    slack = matcore.frob(f_at @ z)
    return DualityReport(
        primal_value=primal,
        dual_value=dual,
        gap=primal - dual,
        slackness_residual=slack,
    )
