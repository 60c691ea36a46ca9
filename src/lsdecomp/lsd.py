"""Closed-form optimal Lewenstein-Sanpera decompositions.

Each family operation splits rho = lam * rho_s + E with rho_s separable,
E >= 0 of trace 1 - lam, and lam the largest weight achievable with a
separable part drawn from the state's own family. Every result is checked
against the decomposition invariants (reconstruction, PSD residual,
separable part inside its region) before it is returned. Bell-diagonal 2x3
states outside the chambers the closed form covers raise
DecompositionUnavailable. The four one-parameter families share one
split, `_line_split`, read from the `line` of their rows of
`states.FAMILIES`.

Inputs are canonicalized to the chamber the formulas cover: the dominant
probability (or violated separability inequality) is identified and the
formulas are applied with the corresponding index roles; this is a local
unitary relabeling, so outputs stay in the caller's labeling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import separability, wootters
from .errors import DecompositionUnavailable, InputError, NumericalError
from .separability import SeparabilityVerdict
from .states import (
    BD22,
    BD23,
    ICD,
    FAMILIES,
    FAMILY_BY_SPEC,
    DensityMatrix,
    Raw,
    StateSpec,
    clean_probabilities,
    dispatch,
    icd_theta,
    make_bd22,
    make_bd23,
    make_icd,
    make_raw,
)

RESIDUAL_PSD_TOL = 1e-9
RANK_CUT = 1e-8


@dataclass(frozen=True, eq=False)
class LSDecomposition:
    """rho = lam * separable_part + entangled_part.

    `entangled_part` is the unnormalized PSD residual of trace 1 - lam (zero
    for separable states). `method` names the formula used ("bd22",
    "wootters", ...), with a "/separable" or "/pure" suffix when lam is 1 or 0.
    `state` is rho, the state that was split.
    """

    lam: float
    separable_part: DensityMatrix
    entangled_part: np.ndarray
    method: str
    state: DensityMatrix


@dataclass(frozen=True)
class VerificationReport:
    residual_norm: float
    separable_verdict: SeparabilityVerdict
    residual_min_eig: float
    residual_rank: int
    entangled_purity: float | None


def _ppt_tol(lam: float) -> float:
    """PPT tolerance for a separable part of weight 0 < lam < 1: PPT_TOL on
    the unnormalized part lam * sep, the scale of every other check on the
    split, since the rounding in sep = (lam * sep) / lam grows as 1 / lam."""
    return separability.PPT_TOL / lam if 0.0 < lam < 1.0 else separability.PPT_TOL


def _assemble(rho: DensityMatrix, lam: float, sep: DensityMatrix, method: str) -> LSDecomposition:
    """Validate invariants and package a decomposition with residual
    rho - lam*sep; every caller has checked that sep is separable, or
    checks it on the result."""
    lam = float(lam)
    if not (-1e-12 <= lam <= 1.0 + 1e-12):
        raise NumericalError(f"weight {lam} outside [0, 1]")
    lam = min(1.0, max(0.0, lam))
    ent = rho.mat - lam * sep.mat
    ent = 0.5 * (ent + ent.conj().T)
    # ent is finite and exactly Hermitian here, so only its spectrum is tested
    if np.linalg.eigvalsh(ent)[0] < -RESIDUAL_PSD_TOL * max(1.0, np.linalg.norm(ent)):
        raise NumericalError("entangled part is not PSD")
    return LSDecomposition(lam, sep, ent, method, rho)


def _separable_case(rho: DensityMatrix, method: str) -> LSDecomposition:
    return LSDecomposition(1.0, rho, np.zeros_like(rho.mat), method + "/separable", rho)


# --------------------------------------------------------------------------
# pure-residual splits: 2x2 Bell-diagonal, iso-concurrence, 2x3 Bell-diagonal

def _rest(p: np.ndarray, k: int) -> float:
    """1 - p_k as the sum of the other weights."""
    return float(np.delete(p, k).sum())


def _pure_residual(rho, make, region, p: np.ndarray, chambers, method: str) -> LSDecomposition:
    """The largest-weight split whose residual is pure on one basis vector.

    A chamber (k, extra) has weight lam = (1 - p_k) + extra and puts the
    residual (1 - lam) P_k on basis vector k, so the separable weights are
    p_i / lam off k and 1 - (1 - p_k) / lam on k (Lewenstein & Sanpera
    1998). 1 - p_k is summed from the other weights: subtracting p_k from 1
    would lose its digits when p_k is near 1, and dividing by a small lam
    would magnify the loss. At lam <= 1e-14 the state is pure and the
    separable part is the uniform mixture. Keeps the largest lam whose
    weights pass `region`; DecompositionUnavailable when none does.
    `rho` is built from the caller's weights, as `build` builds it: built
    from the cleaned `p`, it could lie an ulp away.
    """
    best = None
    for k, extra in chambers:
        rest = _rest(p, k)
        lam = rest + extra
        if lam <= 1e-14:
            lam, q, name = 0.0, np.full(len(p), 1.0 / len(p)), method + "/pure"
        else:
            q = p / lam
            q[k] = 1.0 - rest / lam
            name = method
        if region(q).is_separable and (best is None or lam > best[0]):
            best = (lam, q, name)
    if best is None:
        raise DecompositionUnavailable(
            "state lies outside the chambers covered by the closed-form splits"
        )
    lam, q, name = best
    return _assemble(rho, lam, make(q), name)


def lsd_bd22(p) -> LSDecomposition:
    """Optimal split of a Bell-diagonal 2-qubit state.

    For dominant p_k > 1/2: lam = 2(1 - p_k), the separable part sits on the
    octahedron boundary (p'_k = 1/2, others p_i / lam), and the residual is
    the pure Bell projector with weight 2 p_k - 1.
    """
    rho = make_bd22(p)
    p = clean_probabilities(p, 4)
    k = int(np.argmax(p))
    if p[k] <= 0.5:
        return _separable_case(rho, "bd22")
    return _pure_residual(rho, make_bd22, separability.bd22_region, p, [(k, _rest(p, k))], "bd22")


def lsd_icd(theta: float, p) -> LSDecomposition:
    """Split of an iso-concurrence state, optimal within the family: the
    separable part is drawn from iso-concurrence states of the same theta.

    Where inequality ppt_k is violated, p_k - p_j exceeds the root
    sqrt(4 p_a p_b / sin^2(2 theta) + (p_a - p_b)^2), with j = k ^ 1 its
    partner and (a, b) the other pair. The weight is lam = 1 - (p_k - p_j) +
    root; the separable part saturates the same inequality and the residual
    is pure on basis vector k.
    """
    theta = icd_theta(theta)
    rho = make_icd(theta, p)
    p = clean_probabilities(p, 4)
    region = separability.icd_region(theta, p)
    if region.is_separable:
        return _separable_case(rho, "icd")
    k = int(region.detail[-1]) - 1
    a, b = p[k ^ 2], p[k ^ 3]
    root = math.sqrt(4.0 * a * b / math.sin(2.0 * theta) ** 2 + (a - b) ** 2)
    return _pure_residual(
        rho, partial(make_icd, theta), partial(separability.icd_region, theta), p,
        [(k, p[k ^ 1] + root)], "icd",
    )


def lsd_bd23(p) -> LSDecomposition:
    """Optimal split of a Bell-diagonal 2x3 state (pure-residual branch).

    A pair inequality is violated where its larger member p_k exceeds its
    partner p_j by more than w, the geometric mean of the other two pair
    sums. Its chamber has lam = 1 - p_k + p_j + w; the largest weight whose
    separable part stays in the region is kept. When no chamber yields one,
    the state lies outside the covered closed form and
    DecompositionUnavailable is raised.
    """
    rho = make_bd23(p)
    p = clean_probabilities(p, 6)
    if separability.bd23_region(p).is_separable:
        return _separable_case(rho, "bd23")
    chambers = []
    for pair in ((0, 1), (2, 3), (4, 5)):
        k, j = pair if p[pair[0]] >= p[pair[1]] else pair[::-1]
        c, d, e, f = (i for i in range(6) if i not in pair)
        w = math.sqrt((p[c] + p[d]) * (p[e] + p[f]))
        if p[k] - p[j] > w:
            chambers.append((k, p[j] + w))
    return _pure_residual(rho, make_bd23, separability.bd23_region, p, chambers, "bd23")


# --------------------------------------------------------------------------
# generic 2-qubit states through the spin-flip basis

def lsd_wootters(rho: DensityMatrix) -> LSDecomposition:
    """Split of an arbitrary 2-qubit state, optimal within the family of
    separable states diagonal in its spin-flip basis.

    lam = 1 - k_1 C with C the concurrence and k_1 = <x'_1|x'_1>; the
    separable part reweights the spin-flip basis onto its separability
    boundary and the residual is C |x'_1><x'_1|. The unnormalized
    separable part is sum_i w_i |x'_i><x'_i| with w_1 = l_2 + l_3 + l_4 and
    w_i = l_i otherwise, plus |x_i><x_i| for each support vector x_i of no
    flip weight, which is a product vector. lam is read as its trace, which
    keeps its digits where 1 - k_1 C cancels.
    """
    wd = wootters.wootters_basis(rho)
    if wd.concurrence <= 1e-12:
        return _separable_case(rho, "wootters")
    weights = wd.lambdas.copy()
    weights[0] = wd.lambdas[1] + wd.lambdas[2] + wd.lambdas[3]
    xprime = wd.x_prime_vectors
    sep_mat = np.einsum("i,ij,ik->jk", weights, xprime, xprime.conj())
    product = wd.product_vectors
    if len(product):  # adding a zero matrix would turn a -0.0 entry into 0.0
        sep_mat += product.T @ product.conj()
    lam = float(np.real(np.trace(sep_mat)))
    if lam <= 1e-14:  # pure entangled state: all weight in the residual
        dec = _assemble(rho, 0.0, make_bd22([0.25] * 4), "wootters/pure")
    else:
        dec = _assemble(rho, lam, DensityMatrix(sep_mat / lam, (2, 2)), "wootters")
    # PPT is decisive on 2x2; held to PPT_TOL on the weighted part lam * sep
    verdict = separability.ppt_check(dec.separable_part, _ppt_tol(dec.lam))
    if not verdict.is_separable:
        raise NumericalError(f"separable part failed its separability check: {verdict}")
    return dec


# --------------------------------------------------------------------------
# one-parameter families: Werner, isotropic, the 3x3 alpha state and the
# multipartite isotropic state, each read from its states.FAMILIES row

def _line_split(spec: type, *args) -> LSDecomposition:
    """Split past the threshold x0 = num / den: lam = (x1 - x) / (x1 - x0)
    against rho(x0), x1 the entangled end. Written (x1 - x) den / (x1 den -
    num), lam rounds as 1 + f, d (1 - F) / (d - 1), (5 - alpha) / 2 and
    (1 - s) / (1 - s0) do, where x0 is 0, 1/d, 3 and s0."""
    fam = FAMILY_BY_SPEC[spec]
    *sizes, x = fam.line.params(*args)  # checked first: the threshold reads the sizes
    rho = fam.make(*args)
    num, den = fam.line.threshold(*sizes)
    x0, x1 = num / den, fam.line.end
    if (x - x0) * (x1 - x0) <= 0.0:  # x is not past x0 towards x1
        return _separable_case(rho, fam.name)
    lam = max(0.0, (x1 - x) * den / (x1 * den - num))
    return _assemble(rho, lam, separability.line_state(spec, *sizes, x0), fam.name)


# --------------------------------------------------------------------------
# dispatch and verification

def _lsd_raw(dims, matrix) -> LSDecomposition:
    """Raw matrices go through the spin-flip route, which covers 2x2 only;
    other raw dimensions would need a general search and are rejected."""
    rho = make_raw(dims, matrix)
    if tuple(rho.dims) != (2, 2):
        raise InputError(
            f"raw decomposition is only supported on 2x2, got dims {rho.dims}"
        )
    return lsd_wootters(rho)


_CLOSED_FORMS = {
    BD22: lsd_bd22,
    ICD: lsd_icd,
    BD23: lsd_bd23,
    **{fam.spec: partial(_line_split, fam.spec) for fam in FAMILIES if fam.line},
    Raw: _lsd_raw,
}


def decompose(spec: StateSpec) -> LSDecomposition:
    """Dispatch a StateSpec to its family decomposition."""
    return dispatch(_CLOSED_FORMS, spec)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported by _require_finite
def verify(dec: LSDecomposition) -> VerificationReport:
    """Recompute the decomposition invariants of `dec` against its state.

    The implied residual rho - lam * separable_part is compared with the
    stored entangled part; its minimum eigenvalue flags infeasible weights.
    Rank counts eigenvalues above 1e-8 times the residual trace. The PPT
    test of the separable part, across the state's first-vs-rest cut, is
    held to PPT_TOL on lam * separable_part.

    A check that overflows, as on a report of huge numbers, raises
    NumericalError naming it.
    """
    rho, sep = dec.state, dec.separable_part
    if sep.mat.shape != rho.mat.shape:
        raise InputError(f"decomposition size {sep.mat.shape} != state {rho.mat.shape}")
    implied = rho.mat - dec.lam * sep.mat
    implied = 0.5 * (implied + implied.conj().T)
    residual_norm = float(np.linalg.norm(implied - dec.entangled_part))
    _require_finite(reconstruction_error=residual_norm)  # so implied is finite
    evals = np.linalg.eigvalsh(implied)
    min_eig = float(evals[0])
    tr = np.real(np.trace(dec.entangled_part))  # a numpy float: tr**2 overflows to inf
    if tr > 1e-12:
        if residual_norm != 0.0:  # else the stored part is the implied one
            evals = np.linalg.eigvalsh(dec.entangled_part)
        rank = int(np.count_nonzero(evals > RANK_CUT * tr))
        purity = float(np.real(np.trace(dec.entangled_part @ dec.entangled_part)) / tr**2)
    else:
        rank = 0
        purity = None
    cut = (rho.dims[0], math.prod(rho.dims[1:]))  # not sep.dims, which a report sets
    verdict = separability._ppt(sep.mat, cut, _ppt_tol(dec.lam))
    _require_finite(residual_min_eig=min_eig, residual_purity=purity, ppt_margin=verdict.margin)
    return VerificationReport(
        residual_norm=residual_norm,
        separable_verdict=verdict,
        residual_min_eig=min_eig,
        residual_rank=rank,
        entangled_purity=purity,
    )


def _require_finite(**checks) -> None:
    for name, value in checks.items():
        if value is not None and not math.isfinite(value):
            raise NumericalError(f"check {name!r} is not finite: {value}")
