"""Separability verdicts: the PPT test and closed-form region tests.

The partial-transpose criterion is decisive on 2x2 and 2x3 systems; for
larger systems a passing PPT test is reported as inconclusive. Region tests
return a signed margin in the natural units of the inequality that decides
the verdict (nonnegative means separable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import NotBipartite, RawSpecUnsupported, ThetaOutOfRange
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
    horodecki33_params,
    isotropic_params,
    multi_iso_params,
    werner_params,
)

SEPARABLE = "separable"
ENTANGLED = "entangled"
PPT_INCONCLUSIVE = "ppt_inconclusive"

PPT_TOL = 1e-9
REGION_TOL = 1e-11


@dataclass(frozen=True)
class SeparabilityVerdict:
    status: str
    margin: float
    detail: str

    @property
    def is_separable(self) -> bool:
        return self.status == SEPARABLE


def _region_verdict(margin: float, detail: str) -> SeparabilityVerdict:
    # the separable set is closed: rounding noise on boundary states is
    # clamped so that Separable always reports margin >= 0
    if -REGION_TOL <= margin < 0.0:
        margin = 0.0
    status = SEPARABLE if margin >= 0.0 else ENTANGLED
    return SeparabilityVerdict(status=status, margin=margin, detail=detail)


def ppt_check(rho: DensityMatrix, tol: float = PPT_TOL) -> SeparabilityVerdict:
    """Peres-Horodecki test: negativity of the partial transpose.

    The margin is the minimum eigenvalue of the partial transpose. On 2x2
    and 2x3 a nonnegative margin certifies separability; elsewhere it is
    only inconclusive.
    """
    if len(rho.dims) != 2:
        raise NotBipartite(f"ppt_check needs exactly two subsystems, got dims {rho.dims}")
    pt = matcore.partial_transpose(rho.mat, rho.dims, "B")
    mu = float(np.linalg.eigvalsh(pt)[0])
    decisive = rho.dims[0] * rho.dims[1] <= 6
    if mu < -tol:
        status = ENTANGLED
    elif decisive:
        status = SEPARABLE
    else:
        status = PPT_INCONCLUSIVE
    return SeparabilityVerdict(status=status, margin=mu, detail="ppt")


def bd22_region(p) -> SeparabilityVerdict:
    """Bell-diagonal 2-qubit region test: separable iff max p_i <= 1/2."""
    p = clean_probabilities(p, 4)
    margin = 0.5 - float(np.max(p))
    return _region_verdict(margin, "octahedron")


def icd_margins(theta: float, p) -> list[float]:
    """Slacks (RHS - LHS) of the four iso-concurrence PPT inequalities."""
    s2 = math.sin(2.0 * theta) ** 2
    p1, p2, p3, p4 = (float(v) for v in p)
    r34 = math.sqrt(4.0 * p3 * p4 / s2 + (p3 - p4) ** 2)
    r12 = math.sqrt(4.0 * p1 * p2 / s2 + (p1 - p2) ** 2)
    return [r34 - (p1 - p2), r34 - (p2 - p1), r12 - (p3 - p4), r12 - (p4 - p3)]


def icd_region(theta: float, p) -> SeparabilityVerdict:
    """Iso-concurrence region test; margin is the worst inequality slack."""
    theta = float(theta)
    if not (0.0 < theta < math.pi / 2):
        raise ThetaOutOfRange(f"theta must lie strictly in (0, pi/2), got {theta}")
    p = clean_probabilities(p, 4)
    slacks = icd_margins(theta, p)
    worst = int(np.argmin(slacks))
    return _region_verdict(float(slacks[worst]), f"ppt{worst + 1}")


def bd23_margins(p) -> list[float]:
    """Slacks of the three quadratic 2x3 separability inequalities."""
    p1, p2, p3, p4, p5, p6 = (float(v) for v in p)
    return [
        (p3 + p4) * (p5 + p6) - (p1 - p2) ** 2,
        (p5 + p6) * (p1 + p2) - (p3 - p4) ** 2,
        (p1 + p2) * (p3 + p4) - (p5 - p6) ** 2,
    ]


def bd23_region(p) -> SeparabilityVerdict:
    """Bell-diagonal 2x3 region test; margin is the worst quadratic slack."""
    p = clean_probabilities(p, 6)
    slacks = bd23_margins(p)
    worst = int(np.argmin(slacks))
    return _region_verdict(float(slacks[worst]), f"S{worst + 1}")


def multi_iso_threshold(d: int, n: int) -> float:
    """Separability threshold s0 = 1 / (1 + d^(n-1))."""
    return 1.0 / (1.0 + float(d) ** (n - 1))


def werner_region(d: int, f: float) -> SeparabilityVerdict:
    """Werner region test: separable iff 0 <= f <= 1; only f < 0 is entangled."""
    d, f = werner_params(d, f)
    return _region_verdict(f, "werner_f")


def isotropic_region(d: int, fidelity: float) -> SeparabilityVerdict:
    """Isotropic region test: separable iff F <= 1/d."""
    d, fidelity = isotropic_params(d, fidelity)
    return _region_verdict(1.0 / d - fidelity, "isotropic_fidelity")


def horodecki33_region(alpha: float) -> SeparabilityVerdict:
    """One-parameter 3x3 region test: separable iff alpha <= 3, then bound
    entangled up to alpha = 4 and distillable above."""
    alpha = horodecki33_params(alpha)
    margin = 3.0 - alpha
    if margin >= -REGION_TOL:
        return _region_verdict(margin, "alpha_range")
    detail = "bound_entangled" if alpha <= 4.0 else "distillable"
    return SeparabilityVerdict(status=ENTANGLED, margin=margin, detail=detail)


def multi_iso_region(d: int, n: int, s: float) -> SeparabilityVerdict:
    """Multipartite isotropic region test: separable iff s <= s0."""
    d, n, s = multi_iso_params(d, n, s)
    return _region_verdict(multi_iso_threshold(d, n) - s, "multi_iso_threshold")


_REGIONS = {
    BD22: bd22_region,
    ICD: icd_region,
    BD23: bd23_region,
    Werner: werner_region,
    Isotropic: isotropic_region,
    Horodecki33: horodecki33_region,
    MultiIso: multi_iso_region,
}


def family_region(spec: StateSpec) -> SeparabilityVerdict:
    """Closed-form separability verdict for a named family spec."""
    if isinstance(spec, Raw):
        raise RawSpecUnsupported("family_region needs a named family, not a raw matrix")
    return dispatch(_REGIONS, spec)
