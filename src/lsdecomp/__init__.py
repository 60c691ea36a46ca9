"""Optimal Lewenstein-Sanpera decompositions with independent verification.

The package splits structured mixed states into the largest possible
separable part plus a positive remainder, using closed forms for each
supported family, and re-derives every weight numerically by solving a
small semidefinite program per state, with duality diagnostics.
"""

from .errors import LsdError
from .lsd import LSDecomposition, VerificationReport, decompose, verify
from .oracle import (
    DualityReport,
    SdpProblem,
    SeparableFamily,
    bsa_as_sdp,
    bsa_search,
    duality_check,
    family_for_spec,
    lambda_max_fixed,
)
from .separability import SeparabilityVerdict, family_region, ppt_check
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
    build,
)
from .wootters import WoottersData, concurrence, wootters_basis

__version__ = "0.1.0"

__all__ = [
    "BD22",
    "BD23",
    "DensityMatrix",
    "DualityReport",
    "Horodecki33",
    "ICD",
    "Isotropic",
    "LSDecomposition",
    "LsdError",
    "MultiIso",
    "Raw",
    "SdpProblem",
    "SeparabilityVerdict",
    "SeparableFamily",
    "StateSpec",
    "VerificationReport",
    "Werner",
    "WoottersData",
    "bsa_as_sdp",
    "bsa_search",
    "build",
    "concurrence",
    "decompose",
    "duality_check",
    "family_for_spec",
    "family_region",
    "lambda_max_fixed",
    "ppt_check",
    "verify",
    "wootters_basis",
    "__version__",
]
