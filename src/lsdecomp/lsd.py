"""Closed-form optimal Lewenstein-Sanpera decompositions.

Each family operation splits rho = lam * rho_s + E with rho_s separable,
E >= 0 of trace 1 - lam, and lam the largest weight achievable with a
separable part drawn from the state's own family. Every result is checked
against the decomposition invariants (reconstruction, PSD residual,
separable part inside its region) before it is returned. Bell-diagonal 2x3
states outside the chambers the closed form covers raise
DecompositionUnavailable.

Inputs are canonicalized to the chamber the formulas cover: the dominant
probability (or violated separability inequality) is identified and the
formulas are applied with the corresponding index roles; this is a local
unitary relabeling, so outputs stay in the caller's labeling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matcore, separability, wootters
from .errors import DecompositionUnavailable, InputError, NumericalError
from .separability import SeparabilityVerdict
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
    clean_probabilities,
    dispatch,
    make_bd22,
    make_bd23,
    make_horodecki33,
    make_icd,
    make_isotropic,
    make_multi_iso,
    make_raw,
    make_werner,
)

RESIDUAL_PSD_TOL = 1e-9
RANK_CUT = 1e-8


@dataclass(frozen=True)
class LSDecomposition:
    """rho = lam * separable_part + entangled_part.

    `entangled_part` is the unnormalized PSD residual of trace 1 - lam (zero
    for separable states). `method` names the formula used ("bd22",
    "wootters", ...), with a "/separable" or "/pure" suffix when lam is 1 or 0.
    """

    lam: float
    separable_part: DensityMatrix
    entangled_part: np.ndarray
    method: str


@dataclass(frozen=True)
class VerificationReport:
    residual_norm: float
    separable_verdict: SeparabilityVerdict
    residual_min_eig: float
    residual_rank: int
    entangled_purity: float | None


def _certify_separable(sep: DensityMatrix, region: SeparabilityVerdict | None) -> None:
    """Require the separable part to pass its region test (or PPT where decisive)."""
    verdict = region
    if verdict is None:
        verdict = separability.ppt_check(sep)
    if not verdict.is_separable:
        raise NumericalError(
            f"separable part failed its separability check: {verdict}"
        )


def _assemble(
    rho: DensityMatrix,
    lam: float,
    sep: DensityMatrix,
    method: str,
    region: SeparabilityVerdict | None,
) -> LSDecomposition:
    """Validate invariants and package a decomposition with residual rho - lam*sep."""
    lam = float(lam)
    if not (-1e-12 <= lam <= 1.0 + 1e-12):
        raise NumericalError(f"weight {lam} outside [0, 1]")
    lam = min(1.0, max(0.0, lam))
    ent = rho.mat - lam * sep.mat
    ent = 0.5 * (ent + ent.conj().T)
    if not matcore.is_psd(ent, RESIDUAL_PSD_TOL):
        raise NumericalError("entangled part is not PSD")
    tr = float(np.real(np.trace(ent)))
    if abs(tr - (1.0 - lam)) > 1e-9:
        raise NumericalError(f"residual trace {tr} != 1 - lam = {1.0 - lam}")
    _certify_separable(sep, region)
    return LSDecomposition(lam=lam, separable_part=sep, entangled_part=ent, method=method)


def _separable_case(rho: DensityMatrix, method: str) -> LSDecomposition:
    return LSDecomposition(
        lam=1.0,
        separable_part=rho,
        entangled_part=np.zeros_like(rho.mat),
        method=method + "/separable",
    )


# --------------------------------------------------------------------------
# 2x2 Bell-diagonal

def lsd_bd22(p) -> LSDecomposition:
    """Optimal split of a Bell-diagonal 2-qubit state.

    For dominant p_k > 1/2: lam = 2(1 - p_k), the separable part sits on the
    octahedron boundary (p'_k = 1/2, others p_i / lam), and the residual is
    the pure Bell projector with weight 2 p_k - 1.
    """
    p = clean_probabilities(p, 4)
    rho = make_bd22(p)
    k = int(np.argmax(p))
    if p[k] <= 0.5:
        return _separable_case(rho, "bd22")
    lam = 2.0 * (1.0 - p[k])
    if lam <= 1e-14:
        sep = make_bd22([0.25] * 4)
        return _assemble(rho, 0.0, sep, "bd22/pure", separability.bd22_region([0.25] * 4))
    pprime = p / lam
    pprime[k] = 0.5
    sep = make_bd22(pprime)
    return _assemble(rho, lam, sep, "bd22", separability.bd22_region(pprime))


# --------------------------------------------------------------------------
# iso-concurrence states

# index relabelings that map the chamber violating inequality ppt_k to the
# ppt1 chamber; each is a local unitary on the underlying state
_ICD_PERMS = {0: (0, 1, 2, 3), 1: (1, 0, 3, 2), 2: (2, 3, 0, 1), 3: (3, 2, 1, 0)}


def lsd_icd(theta: float, p) -> LSDecomposition:
    """Split of an iso-concurrence state, optimal within the family: the
    separable part is drawn from iso-concurrence states of the same theta.

    In the chamber where p_1 - p_2 exceeds sqrt(4 p3 p4 / sin^2(2 theta)
    + (p3 - p4)^2), the weight is lam = 1 - (p1 - p2) + that root; the
    separable part saturates the same inequality and the residual is pure on
    the dominant basis vector.
    """
    p = clean_probabilities(p, 4)
    rho = make_icd(theta, p)
    region = separability.icd_region(theta, p)
    if region.is_separable:
        return _separable_case(rho, "icd")

    violated = int(region.detail[-1]) - 1
    perm = np.array(_ICD_PERMS[violated])
    q = p[perm]  # canonical frame: q_1 - q_2 > root(q_3, q_4)
    s2 = math.sin(2.0 * theta) ** 2
    root = math.sqrt(4.0 * q[2] * q[3] / s2 + (q[2] - q[3]) ** 2)
    lam = 1.0 - (q[0] - q[1]) + root
    if lam <= 1e-14:
        # pure basis vector: all weight in the residual
        sep = make_icd(theta, [0.25] * 4)
        return _assemble(rho, 0.0, sep, "icd/pure", separability.icd_region(theta, [0.25] * 4))
    qprime = q / lam
    qprime[0] = 1.0 - (1.0 - q[0]) / lam
    pprime = np.empty(4)
    pprime[perm] = qprime  # invert the (involutive) relabeling
    sep = make_icd(theta, pprime)
    return _assemble(rho, lam, sep, "icd", separability.icd_region(theta, pprime))


# --------------------------------------------------------------------------
# generic 2-qubit states through the spin-flip basis

def lsd_wootters(rho: DensityMatrix) -> LSDecomposition:
    """Split of an arbitrary 2-qubit state, optimal within the family of
    separable states diagonal in its spin-flip basis.

    lam = 1 - k_1 C with C the concurrence and k_1 = <x'_1|x'_1>; the
    separable part reweights the spin-flip basis onto its separability
    boundary and the residual is C |x'_1><x'_1|.
    """
    wd = wootters.wootters_basis(rho)
    if wd.concurrence <= 1e-12:
        return _separable_case(rho, "wootters")
    lam = 1.0 - wd.k[0] * wd.concurrence
    if lam <= 1e-14:
        # pure entangled state: all weight in the residual
        sep = make_bd22([0.25] * 4)
        return _assemble(rho, 0.0, sep, "wootters/pure", None)
    weights = wd.lambdas / lam
    weights[0] = (wd.lambdas[1] + wd.lambdas[2] + wd.lambdas[3]) / lam
    xprime = wd.x_prime_vectors
    sep_mat = np.einsum("i,ij,ik->jk", weights, xprime, xprime.conj())
    sep = DensityMatrix(sep_mat, (2, 2))
    return _assemble(rho, lam, sep, "wootters", None)


# --------------------------------------------------------------------------
# 2x3 Bell-diagonal

def _bd23_rank1_candidate(p: np.ndarray, order: np.ndarray) -> LSDecomposition | None:
    """Try the pure-residual 2x3 formula with pair roles given by `order`.

    `order` lists the six indices with the dominant pair first and each pair
    internally descending. Returns None when the derived separable part
    leaves the separability region.
    """
    q = p[order]
    w = math.sqrt((q[2] + q[3]) * (q[4] + q[5]))
    if q[0] - q[1] <= w:
        return None  # inequality not violated in this frame
    lam = 1.0 - q[0] + q[1] + w
    rho = make_bd23(p)
    if lam <= 1e-14:
        sep = make_bd23([1.0 / 6.0] * 6)
        return _assemble(rho, 0.0, sep, "bd23/pure", separability.bd23_region([1.0 / 6.0] * 6))
    qprime = q / lam
    qprime[0] = 1.0 - (1.0 - q[0]) / lam
    pprime = np.empty(6)
    pprime[order] = qprime
    region = separability.bd23_region(pprime)
    if not region.is_separable:
        return None
    sep = make_bd23(pprime)
    return _assemble(rho, lam, sep, "bd23", region)


def _bd23_orders(p: np.ndarray) -> list[np.ndarray]:
    """Candidate index orders: each pair fronted, pairs internally descending."""
    pairs = []
    for a, b in ((0, 1), (2, 3), (4, 5)):
        pairs.append((a, b) if p[a] >= p[b] else (b, a))
    orders = []
    for lead in range(3):
        rest = [pairs[j] for j in range(3) if j != lead]
        orders.append(np.array(list(pairs[lead]) + list(rest[0]) + list(rest[1])))
    return orders


def lsd_bd23(p) -> LSDecomposition:
    """Optimal split of a Bell-diagonal 2x3 state (pure-residual branch).

    Applies the boundary formula in the chamber of the violated inequality
    and keeps the largest weight whose separable part stays in the region.
    When no chamber yields one, the state lies outside the covered closed
    form and DecompositionUnavailable is raised.
    """
    p = clean_probabilities(p, 6)
    rho = make_bd23(p)
    region = separability.bd23_region(p)
    if region.is_separable:
        return _separable_case(rho, "bd23")

    candidates: list[LSDecomposition] = []
    for order in _bd23_orders(p):
        dec = _bd23_rank1_candidate(p, order)
        if dec is not None:
            candidates.append(dec)
    if candidates:
        return max(candidates, key=lambda d: d.lam)
    raise DecompositionUnavailable(
        "state lies outside the chambers covered by the closed-form splits"
    )


# --------------------------------------------------------------------------
# one-parameter families

def lsd_werner(d: int, f: float) -> LSDecomposition:
    """Werner split: for f < 0, lam = 1 + f against the f' = 0 state.

    The residual |f| (I - F) / (d^2 - d) is the normalized antisymmetric
    projector scaled by |f|; it is pure only for d = 2.
    """
    rho = make_werner(d, f)
    if f >= 0.0:
        return _separable_case(rho, "werner")
    lam = 1.0 + float(f)
    sep = make_werner(d, 0.0)
    return _assemble(rho, lam, sep, "werner", separability.werner_region(d, 0.0))


def lsd_isotropic(d: int, fidelity: float) -> LSDecomposition:
    """Isotropic split: for F > 1/d, lam = d(1 - F)/(d - 1) against F' = 1/d."""
    rho = make_isotropic(d, fidelity)
    if fidelity <= 1.0 / d:
        return _separable_case(rho, "isotropic")
    lam = d * (1.0 - float(fidelity)) / (d - 1.0)
    sep = make_isotropic(d, 1.0 / d)
    return _assemble(rho, lam, sep, "isotropic", separability.isotropic_region(d, 1.0 / d))


def lsd_horodecki33(alpha: float) -> LSDecomposition:
    """One-parameter 3x3 split: for alpha > 3, lam = (5 - alpha)/2 against alpha' = 3.

    The residual is ((alpha - 3)/2) times the alpha = 5 state (rank 4), the
    unique trace-consistent residual of rho_alpha - lam rho_3.
    """
    rho = make_horodecki33(alpha)
    if alpha <= 3.0:
        return _separable_case(rho, "horodecki33")
    lam = (5.0 - float(alpha)) / 2.0
    sep = make_horodecki33(3.0)
    return _assemble(rho, lam, sep, "horodecki33", separability.horodecki33_region(3.0))


def lsd_multi_iso(d: int, n: int, s: float) -> LSDecomposition:
    """Multipartite isotropic split: for s > s0, lam = (1 - s)/(1 - s0)."""
    rho = make_multi_iso(d, n, s)
    s0 = separability.multi_iso_threshold(d, n)
    if s <= s0:
        return _separable_case(rho, "multi_iso")
    lam = (1.0 - float(s)) / (1.0 - s0)
    sep = make_multi_iso(d, n, s0)
    return _assemble(rho, lam, sep, "multi_iso", separability.multi_iso_region(d, n, s0))


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
    Werner: lsd_werner,
    Isotropic: lsd_isotropic,
    Horodecki33: lsd_horodecki33,
    MultiIso: lsd_multi_iso,
    Raw: _lsd_raw,
}


def decompose(spec: StateSpec) -> LSDecomposition:
    """Dispatch a StateSpec to its family decomposition."""
    return dispatch(_CLOSED_FORMS, spec)


def verify(rho: DensityMatrix, dec: LSDecomposition) -> VerificationReport:
    """Recompute the decomposition invariants of `dec` against `rho`.

    The implied residual rho - lam * separable_part is compared with the
    stored entangled part; its minimum eigenvalue flags infeasible weights.
    Rank counts eigenvalues above 1e-8 times the residual trace.
    """
    if dec.separable_part.mat.shape != rho.mat.shape:
        raise InputError(
            f"decomposition size {dec.separable_part.mat.shape} != state {rho.mat.shape}"
        )
    implied = rho.mat - dec.lam * dec.separable_part.mat
    implied = 0.5 * (implied + implied.conj().T)
    residual_norm = float(np.linalg.norm(implied - dec.entangled_part))
    min_eig = float(np.linalg.eigvalsh(implied)[0])
    tr = float(np.real(np.trace(dec.entangled_part)))
    if tr > 1e-12:
        evals = np.linalg.eigvalsh(dec.entangled_part)
        rank = int(np.count_nonzero(evals > RANK_CUT * tr))
        purity = float(np.real(np.trace(dec.entangled_part @ dec.entangled_part)) / tr**2)
    else:
        rank = 0
        purity = None

    sep = dec.separable_part
    if len(sep.dims) == 2:
        verdict = separability.ppt_check(sep)
    else:
        # multipartite: PPT across the first-vs-rest cut (necessary condition)
        cut = (sep.dims[0], int(np.prod(sep.dims[1:])))
        flat = DensityMatrix(sep.mat, cut)
        verdict = separability.ppt_check(flat)
    return VerificationReport(
        residual_norm=residual_norm,
        separable_verdict=verdict,
        residual_min_eig=min_eig,
        residual_rank=rank,
        entangled_purity=purity,
    )
