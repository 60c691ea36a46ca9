"""Separability verdicts: the PPT test and closed-form region tests.

The partial-transpose criterion is decisive on 2x2 and 2x3 systems; for
larger systems a passing PPT test is reported as inconclusive. Region tests
return a signed margin in the natural units of the inequality that decides
the verdict (nonnegative means separable).

The four one-parameter families get one region test, `_line_region`,
read from the `line` of their rows of `states.FAMILIES`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import InputError
from .states import (
    BD22,
    BD23,
    FAMILIES,
    FAMILY_BY_SPEC,
    ICD,
    DensityMatrix,
    Raw,
    StateSpec,
    clean_probabilities,
    dispatch,
    icd_theta,
    make_raw,
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
        raise InputError(f"ppt_check needs exactly two subsystems, got dims {rho.dims}")
    return _ppt(rho.mat, rho.dims, tol)


def _ppt(mat: np.ndarray, dims, tol: float) -> SeparabilityVerdict:
    """ppt_check on a checked density matrix `mat` cut into the pair `dims`."""
    mu = float(np.linalg.eigvalsh(matcore.partial_transpose(mat, dims))[0])
    if mu < -tol:
        status = ENTANGLED
    elif dims[0] * dims[1] <= 6:
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
    theta = icd_theta(theta)
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


# --------------------------------------------------------------------------
# the one-parameter families, read from their rows of states.FAMILIES

def _line_region(spec: type, *args) -> SeparabilityVerdict:
    """Region test of a one-parameter family: separable iff x is not past
    x0 towards `end`. The margin is x - x0 or x0 - x, whichever is negative
    past x0, so f = -0.0 keeps the margin -0.0 and f = 0.0 the margin 0.0;
    a sign factor would give both the same zero."""
    line = FAMILY_BY_SPEC[spec].line
    *sizes, x = line.params(*args)  # checked first: the threshold reads the sizes
    num, den = line.threshold(*sizes)
    x0 = num / den
    margin = x - x0 if line.end < x0 else x0 - x
    detail = line.detail
    if margin < -REGION_TOL:
        detail = next((d for upper, d in line.bands if x <= upper), detail)
    return _region_verdict(margin, detail)


@functools.cache
def line_state(spec: type, *args) -> DensityMatrix:
    """The state of a one-parameter family's constructor at `args`, built
    once per argument tuple; like every DensityMatrix, it is read-only. Each
    family's two ends of its separable range are built here: its splits'
    separable part and its oracle family."""
    return FAMILY_BY_SPEC[spec].make(*args)


_REGIONS = {
    BD22: bd22_region,
    ICD: icd_region,
    BD23: bd23_region,
    **{fam.spec: functools.partial(_line_region, fam.spec) for fam in FAMILIES if fam.line},
    Raw: lambda dims, matrix: ppt_check(make_raw(dims, matrix)),
}


def family_region(spec: StateSpec) -> SeparabilityVerdict:
    """Closed-form region verdict for a named family, PPT for a raw matrix."""
    return dispatch(_REGIONS, spec)
