"""Independent numeric verification of the closed-form decompositions.

Three layers:

* `lambda_max_fixed` / `lambda_max_bisect` compute the largest weight L with
  rho - L sigma PSD for a fixed separable candidate, once analytically (top
  eigenvalue of rho^(-1/2) sigma rho^(-1/2) on the support) and once by pure
  feasibility bisection.
* `bsa_search` maximizes that weight over a parameterized family of separable
  candidates by direction-set search: coordinate sweeps with a staged-grid
  plus golden-section line maximizer, an aggregate-direction step per sweep,
  seeded random restarts, and a random-direction polish that resolves the
  tied-ratio corners where pure coordinate moves stall.
* `bsa_as_sdp` / `duality_check` phrase the fixed-candidate problem as a
  one-variable linear matrix inequality and certify an optimum through a
  kernel-supported dual matrix: zero duality gap and complementary slackness
  hold exactly at the true maximum weight.

Candidate states are affine in the search parameters for every family here,
so the congruence by rho^(-1/2) is precomputed once per state and each
objective evaluation costs one small Hermitian eigensolve; line searches
evaluate whole grids of candidates through one batched solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import matcore, separability, wootters
from .errors import (
    DimensionMismatch,
    EmptyFamily,
    InfeasiblePoint,
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
FEAS_EPS = 1e-12

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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
    """Affine parameterization of separable candidates.

    sigma(x) = (base + sum_k x_k gens[k]) / trace, with `feasible` deciding
    membership of the separable region. When `projective` is set the
    parameters are unnormalized mixture weights (any positive scaling of x
    describes the same state).
    """

    name: str
    dims: tuple[int, ...]
    gens: np.ndarray
    base: np.ndarray | None
    box: tuple[np.ndarray, np.ndarray]
    feasible: Callable[[np.ndarray], bool]
    center: np.ndarray
    sample: Callable[[np.random.Generator], np.ndarray]
    projective: bool = False
    region_free: bool = False  # True when `feasible` adds nothing beyond the box

    def warm_start(self, rho_mat: np.ndarray) -> np.ndarray:
        """Feasible point near the projection of the state onto the family
        coordinates; a plain heuristic start, not a solution. Coordinates
        the state has no weight on are left out of the center when that
        keeps it feasible, so the start stays inside the state's support."""
        if not self.projective:
            return self.center
        raw = np.real(np.einsum("nij,ji->n", self.gens, rho_mat))
        raw = np.clip(raw, 0.0, None)
        if raw.sum() <= 1e-9 or not np.all(np.isfinite(raw)):
            return self.center
        local = np.where(raw > SUPPORT_CUT, self.center, 0.0)
        center = local if self.feasible(local) else self.center
        return _mix_to_feasible(self.feasible, center, raw / raw.sum())

    @property
    def nx(self) -> int:
        return self.gens.shape[0]

    def sigma(self, x: np.ndarray) -> np.ndarray:
        mat = np.tensordot(np.asarray(x, dtype=float), self.gens, axes=1)
        if self.base is not None:
            mat = mat + self.base
        return mat / np.real(np.trace(mat))


def _projectors(rows: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ik->ijk", rows, rows.conj())


def _mix_to_feasible(
    feasible: Callable[[np.ndarray], bool],
    center: np.ndarray,
    target: np.ndarray,
    iters: int = 30,
) -> np.ndarray:
    """Largest feasible convex mix of `center` toward `target` (slightly inside)."""
    if feasible(target):
        return target
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if feasible((1.0 - mid) * center + mid * target):
            lo = mid
        else:
            hi = mid
    return (1.0 - 0.95 * lo) * center + 0.95 * lo * target


def _simplex_family(name, dims, basis_rows, region_ok) -> SeparableFamily:
    m = basis_rows.shape[0]

    def feasible(u: np.ndarray) -> bool:
        vals = u.tolist() if isinstance(u, np.ndarray) else list(u)
        s = 0.0
        for v in vals:
            if v < -FEAS_EPS:
                return False
            s += v
        if s <= 1e-9:
            return False
        return region_ok([v / s for v in vals])

    center = np.full(m, 1.0 / m)

    def sample(rng: np.random.Generator) -> np.ndarray:
        return _mix_to_feasible(feasible, center, rng.dirichlet(np.ones(m)))

    return SeparableFamily(
        name=name,
        dims=dims,
        gens=_projectors(basis_rows),
        base=None,
        box=(np.zeros(m), np.full(m, 8.0)),
        feasible=feasible,
        center=center,
        sample=sample,
        projective=True,
    )


def bd22_family() -> SeparableFamily:
    return _simplex_family(
        "bd22", (2, 2), bell_basis_22(), lambda p: max(p) <= 0.5 + FEAS_EPS
    )


def icd_family(theta: float) -> SeparableFamily:
    s2 = math.sin(2.0 * theta) ** 2

    def region_ok(p) -> bool:
        p1, p2, p3, p4 = p
        r34 = math.sqrt(4.0 * p3 * p4 / s2 + (p3 - p4) ** 2)
        if abs(p1 - p2) > r34 + FEAS_EPS:
            return False
        r12 = math.sqrt(4.0 * p1 * p2 / s2 + (p1 - p2) ** 2)
        return abs(p3 - p4) <= r12 + FEAS_EPS

    return _simplex_family("icd", (2, 2), iso_basis(theta), region_ok)


def bd23_family() -> SeparableFamily:
    def region_ok(p) -> bool:
        a, b, c = p[0] + p[1], p[2] + p[3], p[4] + p[5]
        return (
            (p[0] - p[1]) ** 2 <= b * c + FEAS_EPS
            and (p[2] - p[3]) ** 2 <= c * a + FEAS_EPS
            and (p[4] - p[5]) ** 2 <= a * b + FEAS_EPS
        )

    return _simplex_family("bd23", (2, 3), bell_basis_23(), region_ok)


def wootters_family(rho: DensityMatrix) -> SeparableFamily:
    """Candidates sum_i w_i |x'_i><x'_i| over the spin-flip basis of rho.

    Separability within the family is the flip-spectrum condition: the
    largest normalized weight must not exceed the sum of the others.
    """
    wd = wootters.wootters_basis(rho)
    keep = wd.lambdas > 1e-12
    rows = wd.x_prime_vectors[keep]
    kvec = wd.k[keep]
    m = rows.shape[0]
    if m < 2:
        raise EmptyFamily("spin-flip basis supports no separable candidates")

    klist = kvec.tolist()

    def feasible(u: np.ndarray) -> bool:
        vals = u.tolist() if isinstance(u, np.ndarray) else list(u)
        tr = 0.0
        for v, kk in zip(vals, klist):
            if v < -FEAS_EPS:
                return False
            tr += v * kk
        if tr <= 1e-9:
            return False
        s = mx = 0.0
        for v, kk in zip(vals, klist):
            lam = v / tr
            if lam * kk > 1.0 + 1e-9:
                return False
            s += lam
            mx = lam if lam > mx else mx
        return mx <= s - mx + FEAS_EPS

    center = np.ones(m)

    def sample(rng: np.random.Generator) -> np.ndarray:
        return _mix_to_feasible(feasible, center, rng.dirichlet(np.ones(m)) / kvec)

    return SeparableFamily(
        name="wootters",
        dims=(2, 2),
        gens=_projectors(rows),
        base=None,
        box=(np.zeros(m), np.full(m, 8.0)),
        feasible=feasible,
        center=center,
        sample=sample,
        projective=True,
    )


def _interval_family(name, dims, base, gen, lo, hi) -> SeparableFamily:
    box = (np.array([lo]), np.array([hi]))

    def feasible(x: np.ndarray) -> bool:
        return lo - FEAS_EPS <= float(x[0]) <= hi + FEAS_EPS

    def sample(rng: np.random.Generator) -> np.ndarray:
        return np.array([rng.uniform(lo, hi)])

    return SeparableFamily(
        name=name,
        dims=dims,
        gens=np.array([gen]),
        base=base,
        box=box,
        feasible=feasible,
        center=np.array([0.5 * (lo + hi)]),
        sample=sample,
        region_free=True,
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
# the search

class _Objective:
    """Weight L(x) = trace(x) / max_eig(R sigma_raw(x) R) with leak guard."""

    def __init__(self, rho: DensityMatrix, fam: SeparableFamily):
        if fam.gens.shape[1] != rho.mat.shape[0]:
            raise DimensionMismatch(
                f"family size {fam.gens.shape[1]} != state size {rho.mat.shape[0]}"
            )
        r, pi, full_rank = _support_pieces(rho.mat)
        base = fam.base if fam.base is not None else np.zeros_like(rho.mat)
        self.m0 = r @ base @ r
        self.gmats = np.einsum("ij,njk,kl->nil", r, fam.gens, r)
        self.t0 = float(np.real(np.trace(base)))
        self.tg = np.real(np.trace(fam.gens, axis1=1, axis2=2)).astype(float)
        self.full_rank = full_rank
        if not full_rank:
            self.l0 = self.t0 - float(np.real(np.trace(pi @ base)))
            self.lg = self.tg - np.real(np.einsum("ij,nji->n", pi, fam.gens))
        else:
            self.l0 = 0.0
            self.lg = np.zeros(fam.nx)

    def state(self, x: np.ndarray):
        m = self.m0 + np.tensordot(x, self.gmats, axes=1)
        tr = self.t0 + float(x @ self.tg)
        leak = self.l0 + float(x @ self.lg)
        return m, tr, leak

    def value_from(self, m, tr, leak) -> float:
        if not self.full_rank and leak > LEAK_TOL * max(tr, 1e-12):
            return 0.0
        top = float(np.linalg.eigvalsh(m)[-1])
        if top <= 0.0:
            return 0.0
        return tr / top

    def value(self, x: np.ndarray) -> float:
        return self.value_from(*self.state(x))

    def value_line(self, m, tr, leak, md, trd, leakd, ts: np.ndarray) -> np.ndarray:
        """Batched values along m + t*md for an array of offsets t."""
        mats = m[None, :, :] + ts[:, None, None] * md[None, :, :]
        tops = np.linalg.eigvalsh(mats)[:, -1]
        trs = tr + ts * trd
        vals = np.where(tops > 0.0, trs / np.where(tops > 0.0, tops, 1.0), 0.0)
        if not self.full_rank:
            leaks = leak + ts * leakd
            vals = np.where(leaks > LEAK_TOL * np.maximum(trs, 1e-12), 0.0, vals)
        return vals


def _segment(
    fam: SeparableFamily, x: np.ndarray, d: np.ndarray, iters: int = 30
) -> tuple[float, float]:
    """Feasible parameter interval [t_lo, t_hi] along x + t d, containing 0."""
    lo_box, hi_box = fam.box
    t_lo, t_hi = -1e6, 1e6
    for k in range(x.shape[0]):
        dk = d[k]
        if abs(dk) < 1e-15:
            continue
        a = (lo_box[k] - x[k]) / dk
        b = (hi_box[k] - x[k]) / dk
        if a > b:
            a, b = b, a
        t_lo = max(t_lo, a)
        t_hi = min(t_hi, b)
    if t_lo > 0.0 or t_hi < 0.0:
        return 0.0, 0.0
    if fam.region_free:
        return t_lo, t_hi

    xl = x.tolist()
    dl = d.tolist()

    def ok(t: float) -> bool:
        return fam.feasible([xv + t * dv for xv, dv in zip(xl, dl)])

    def edge(limit: float) -> float:
        if ok(limit):
            return limit
        good, bad = 0.0, limit
        for _ in range(iters):
            mid = 0.5 * (good + bad)
            if ok(mid):
                good = mid
            else:
                bad = mid
        return good

    return edge(t_lo), edge(t_hi)


_GRID = 17


def _line_max(obj, fam, x, d, fx, m, tr, leak, gtol, seg_iters=30):
    """Maximize along x + t d; returns (t_best, f_best).

    Staged 17-point grid refinement narrows the bracket by 8x per batched
    eigensolve; a golden-section pass finishes below `gtol`. Endpoints are
    always candidates, so boundary maxima are hit exactly.
    """
    t_lo, t_hi = _segment(fam, x, d, seg_iters)
    if t_hi - t_lo < 1e-15:
        return 0.0, fx
    md = np.tensordot(d, obj.gmats, axes=1)
    trd = float(d @ obj.tg)
    leakd = float(d @ obj.lg) if not obj.full_rank else 0.0

    best_t, best_f = 0.0, fx
    a, b = t_lo, t_hi
    while b - a > 128.0 * gtol:
        ts = np.linspace(a, b, _GRID)
        vals = obj.value_line(m, tr, leak, md, trd, leakd, ts)
        j = int(np.argmax(vals))
        if vals[j] > best_f:
            best_f, best_t = float(vals[j]), float(ts[j])
        a2 = ts[max(0, j - 1)]
        b2 = ts[min(_GRID - 1, j + 1)]
        a, b = float(a2), float(b2)

    def f(t: float) -> float:
        return obj.value_from(
            m + t * md, tr + t * trd, leak + t * leakd if not obj.full_rank else 0.0
        )

    for t, ft in ((a, f(a)), (b, f(b))):
        if ft > best_f:
            best_f, best_t = ft, t
    c = b - _INVPHI * (b - a)
    e = a + _INVPHI * (b - a)
    fc, fe = f(c), f(e)
    for t, ft in ((c, fc), (e, fe)):
        if ft > best_f:
            best_f, best_t = ft, t
    while b - a > gtol:
        if fc >= fe:
            b, e, fe = e, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
            if fc > best_f:
                best_f, best_t = fc, c
        else:
            a, c, fc = c, e, fe
            e = a + _INVPHI * (b - a)
            fe = f(e)
            if fe > best_f:
                best_f, best_t = fe, e
    return best_t, best_f


def _sweep_search(obj, fam, x0, fine_gtol, move_tol, max_sweeps):
    """Coordinate sweeps plus an aggregate-direction line search per sweep.

    Stops once a sweep neither moves the point beyond `move_tol` nor
    improves the value.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx = obj.value(x)
    nx = x.shape[0]
    basis = np.eye(nx)
    seg_iters = 14 if fine_gtol > 1e-4 else 28
    for _ in range(max_sweeps):
        x_start, f_start = x.copy(), fx
        m, tr, leak = obj.state(x)
        for k in range(nx):
            t, f = _line_max(obj, fam, x, basis[k], fx, m, tr, leak, fine_gtol, seg_iters)
            if f > fx and t != 0.0:
                x = x + t * basis[k]
                fx = f
                m, tr, leak = obj.state(x)
        delta = x - x_start
        dn = float(np.linalg.norm(delta))
        if dn > 1e-15:
            t, f = _line_max(obj, fam, x, delta / dn, fx, m, tr, leak, fine_gtol, seg_iters)
            if f > fx and t != 0.0:
                x = x + t * (delta / dn)
                fx = f
        if fam.projective:
            s = float(x.sum())
            if s > 1e-9:
                x = x / s
            fx = obj.value(x)
        if (
            float(np.max(np.abs(x - x_start))) < move_tol
            and fx - f_start < 1e-13 * (1.0 + abs(fx))
        ):
            break
    return x, fx


def _polish(obj, fam, x, fx, gtol, rng, max_rounds=3):
    """Random-direction line searches; escapes corners where tied PSD
    constraints block every single-coordinate move."""
    nx = x.shape[0]
    for _ in range(max_rounds):
        m, tr, leak = obj.state(x)
        gained = 0.0
        for _ in range(nx + 2):
            d = rng.standard_normal(nx)
            d /= float(np.linalg.norm(d))
            t, f = _line_max(obj, fam, x, d, fx, m, tr, leak, gtol)
            if f > fx and t != 0.0:
                gained += f - fx
                x = x + t * d
                fx = f
                m, tr, leak = obj.state(x)
        if fam.projective:
            s = float(x.sum())
            if s > 1e-9:
                x = x / s
            fx = obj.value(x)
        if gained < 1e-13 * (1.0 + abs(fx)):
            break
    return x, fx


def bsa_search(
    rho: DensityMatrix,
    family: SeparableFamily,
    tol: float = 1e-7,
    seed: int = 0,
) -> tuple[float, DensityMatrix]:
    """Maximize the separable weight of `rho` over a candidate family.

    Runs a deterministic center start at full precision, four seeded random
    restarts at coarse precision (refined only when they win), then polishes
    the champion along random directions. Returns the best weight and the
    maximizing candidate.
    """
    if not family.feasible(family.center):
        raise EmptyFamily(f"family {family.name} has no feasible center")
    obj = _Objective(rho, family)
    fine = max(min(1e-8, tol * 0.1), tol * 0.5)

    x, fx = _sweep_search(obj, family, family.warm_start(rho.mat), fine, tol, 18)
    if family.nx > 1:
        for restart in range(1, 5):
            rng = np.random.default_rng([seed, restart])
            xr = family.sample(rng)
            xr, fr = _sweep_search(obj, family, xr, 1e-2, 3e-2, 1)
            if fr > fx + 1e-10:
                xr, fr = _sweep_search(obj, family, xr, fine, tol, 18)
                if fr > fx:
                    x, fx = xr, fr
        rng = np.random.default_rng([seed, 4096])
        x, fx = _polish(obj, family, x, fx, fine, rng)

    sigma = DensityMatrix(family.sigma(x), family.dims)
    return float(fx), sigma


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
