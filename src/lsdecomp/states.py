"""Constructors for the supported density-matrix families.

Basis conventions, fixed once for the whole package:

* 2 (x) 2 systems use the computational product order |00>, |01>, |10>, |11>
  (spin-up maps to 0).
* 2 (x) 3 and 3 (x) 3 systems use 1-indexed kets |ab> mapped row-major to the
  0-indexed position (a-1)*dB + (b-1).

Every constructor returns a validated :class:`DensityMatrix`; constructors
build states from projectors of explicit unit vectors so positivity holds by
construction.

The seven named families are real symmetric in the product basis, so their
matrices are float64; a raw matrix keeps its own type, complex128 when it
has complex entries.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, Union

import numpy as np

from . import matcore
from .errors import InputError

PROB_SUM_TOL = 1e-9
PROB_ENTRY_TOL = 1e-12
MAX_SIZE = 64  # largest Hilbert-space dimension of a named family


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A Hermitian, unit-trace, PSD matrix with a subsystem-dimension signature."""

    mat: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        mat = matcore.as_matrix(self.mat)
        try:
            dims = tuple(_whole("subsystem dimension", d) for d in self.dims)
        except TypeError:  # dims is not iterable
            raise InputError(f"dims must be a sequence of integers, got {self.dims!r}") from None
        size = 1
        for d in dims:
            if d < 1:
                raise InputError(f"invalid subsystem dimension {d}")
            size *= d
        if mat.shape != (size, size):
            raise InputError(
                f"matrix shape {mat.shape} does not match dims {dims}"
            )
        psd = matcore.is_psd(mat)  # raises InputError first if mat is not Hermitian
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > 1e-12:
            raise InputError(f"trace is {tr:.15g}, expected 1 within 1e-12")
        if not psd:
            raise InputError("density matrix is not PSD within tolerance")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", dims)


# --------------------------------------------------------------------------
# family parameter records (a tagged union, StateSpec, read off FAMILIES below)

@dataclass(frozen=True)
class BD22:
    p: tuple[float, float, float, float]


@dataclass(frozen=True)
class ICD:
    theta: float
    p: tuple[float, float, float, float]


@dataclass(frozen=True)
class BD23:
    p: tuple[float, float, float, float, float, float]


@dataclass(frozen=True)
class Werner:
    d: int
    f: float


@dataclass(frozen=True)
class Isotropic:
    d: int
    F: float


@dataclass(frozen=True)
class Horodecki33:
    alpha: float


@dataclass(frozen=True)
class MultiIso:
    d: int
    n: int
    s: float


@dataclass(frozen=True, eq=False)
class Raw:
    dims: tuple[int, ...]
    matrix: np.ndarray = field(repr=False)


def clean_probabilities(p, n: int) -> np.ndarray:
    """Validate an n-point probability vector; renormalize rounding noise.

    Entries must lie in [0, 1] and sum to 1 within 1e-9; the vector is then
    renormalized exactly. Worse violations raise InputError.
    """
    try:
        arr = np.asarray(p, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"probabilities must be numbers, got {p!r}") from None
    if arr.shape != (n,):
        raise InputError(f"expected {n} probabilities, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError("probabilities contain non-finite entries")
    if np.any(arr < -PROB_ENTRY_TOL) or np.any(arr > 1.0 + PROB_ENTRY_TOL):
        raise InputError(f"probabilities outside [0, 1]: {arr}")
    total = float(arr.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise InputError(f"probabilities sum to {total:.12g}, not 1")
    return np.clip(arr, 0.0, None) / total


# --------------------------------------------------------------------------
# basis vectors

def bell_basis_22() -> np.ndarray:
    """The four 2-qubit Bell vectors as rows: phi+, phi-, psi+, psi-."""
    s = 1.0 / math.sqrt(2.0)
    return np.array(
        [
            [s, 0, 0, s],
            [s, 0, 0, -s],
            [0, s, s, 0],
            [0, s, -s, 0],
        ]
    )


def iso_basis(theta: float) -> np.ndarray:
    """Orthonormal partially entangled basis interpolating to Bell at theta=pi/4."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [c, 0, 0, s],
            [s, 0, 0, -c],
            [0, c, s, 0],
            [0, s, -c, 0],
        ]
    )


def bell_basis_23() -> np.ndarray:
    """The six maximally entangled 2x3 basis vectors as rows.

    Pairs live on the ket pairs (|11>,|22>), (|12>,|23>), (|13>,|21>) with
    +/- relative phase inside each pair.
    """
    s = 1.0 / math.sqrt(2.0)
    vecs = np.zeros((6, 6))
    pairs = [(0, 4), (1, 5), (2, 3)]  # (a-1)*3+(b-1) of |11>/|22>, |12>/|23>, |13>/|21>
    for k, (i, j) in enumerate(pairs):
        vecs[2 * k, i] = s
        vecs[2 * k, j] = s
        vecs[2 * k + 1, i] = s
        vecs[2 * k + 1, j] = -s
    return vecs


def max_entangled(d: int, n: int = 2) -> np.ndarray:
    """|psi+> = d^{-1/2} sum_i |ii...i> on n parties of dimension d."""
    v = np.zeros(d**n)
    step = (d**n - 1) // (d - 1)
    v[::step] = 1.0 / math.sqrt(d)
    return v


def bd22_correlation(p) -> tuple[float, float, float]:
    """Correlation vector (t1, t2, t3) of a Bell-diagonal 2-qubit state."""
    p = clean_probabilities(p, 4)
    t1 = p[0] - p[1] + p[2] - p[3]
    t2 = -p[0] + p[1] + p[2] - p[3]
    t3 = p[0] + p[1] - p[2] - p[3]
    return float(t1), float(t2), float(t3)


# --------------------------------------------------------------------------
# constructors

def _mixture(vectors: np.ndarray, weights: np.ndarray, dims) -> DensityMatrix:
    mat = np.einsum("i,ij,ik->jk", weights, vectors, vectors.conj())
    return DensityMatrix(mat=mat, dims=tuple(dims))


def make_bd22(p) -> DensityMatrix:
    """Bell-diagonal 2-qubit state sum_i p_i |psi_i><psi_i|."""
    p = clean_probabilities(p, 4)
    return _mixture(bell_basis_22(), p, (2, 2))


def icd_theta(theta: float) -> float:
    """theta as a number in (0, pi/2) at which sin^2(2 theta), which the
    icd region test, split and search family divide by, is a normal double."""
    theta = _real("theta", theta)
    if not (0.0 < theta < math.pi / 2):
        raise InputError(f"theta must lie strictly in (0, pi/2), got {theta}")
    if math.sin(2.0 * theta) ** 2 < sys.float_info.min:
        raise InputError(f"theta={theta} is too close to 0: sin^2(2 theta) is not a normal double")
    return theta


def make_icd(theta: float, p) -> DensityMatrix:
    """Iso-concurrence 2-qubit state; theta in (0, pi/2), Bell case at pi/4."""
    theta = icd_theta(theta)
    p = clean_probabilities(p, 4)
    return _mixture(iso_basis(theta), p, (2, 2))


def make_bd23(p) -> DensityMatrix:
    """Bell-diagonal 2x3 state on the six-vector basis."""
    p = clean_probabilities(p, 6)
    return _mixture(bell_basis_23(), p, (2, 3))


def _real(name: str, value) -> float:
    """A parameter as a float; InputError for one float() rejects."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{name} must be a number, got {value!r}") from None


def _whole(name: str, value) -> int:
    """A size as an int; InputError for a fractional one, which int()
    would truncate to another state's size, and for one int() rejects."""
    try:
        size = int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    else:
        if size == value:
            return size
    raise InputError(f"{name} must be an integer, got {value!r}")


def _bipartite_params(kind: str, label: str, lo: float, hi: float, d, x) -> tuple[int, float]:
    """(d, x) as numbers, checked against the family's range [lo, hi] and
    the size limit d*d <= 64."""
    d = _whole(f"{kind} dimension", d)
    x = _real(label, x)
    if d < 2:
        raise InputError(f"{kind} dimension must be >= 2, got {d}")
    if not (lo - 1e-12 <= x <= hi + 1e-12):
        raise InputError(f"{label}={x} outside [{lo:g}, {hi:g}]")
    if d * d > MAX_SIZE:
        raise InputError(f"d*d = {d * d} exceeds the supported maximum {MAX_SIZE}")
    return d, x


werner_params = partial(_bipartite_params, "Werner", "Werner parameter f", -1.0, 1.0)
isotropic_params = partial(_bipartite_params, "isotropic", "fidelity F", 0.0, 1.0)


def make_werner(d: int, f: float) -> DensityMatrix:
    """Werner state ((d-f)I + (df-1)F) / (d^3-d), f in [-1, 1]."""
    d, f = werner_params(d, f)
    f = min(1.0, max(-1.0, f))
    eye = np.eye(d * d)
    flip = matcore.swap_operator(d)
    mat = ((d - f) * eye + (d * f - 1.0) * flip) / (d**3 - d)
    return DensityMatrix(mat=mat, dims=(d, d))


def make_isotropic(d: int, fidelity: float) -> DensityMatrix:
    """Isotropic state with fidelity F = <psi+|rho|psi+>, F in [0, 1]."""
    d, fidelity = isotropic_params(d, fidelity)
    fidelity = min(1.0, max(0.0, fidelity))
    psi = max_entangled(d)
    proj = np.outer(psi, psi.conj())
    eye = np.eye(d * d)
    mat = (1.0 - fidelity) / (d * d - 1.0) * (eye - proj) + fidelity * proj
    return DensityMatrix(mat=mat, dims=(d, d))


def _horodecki_parts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    psi = max_entangled(3)
    proj = np.outer(psi, psi.conj())

    def diag_mix(kets):
        m = np.zeros((9, 9))
        for a, b in kets:
            i = (a - 1) * 3 + (b - 1)
            m[i, i] = 1.0 / 3.0
        return m

    sigma_plus = diag_mix([(1, 2), (2, 3), (3, 1)])
    sigma_minus = diag_mix([(2, 1), (3, 2), (1, 3)])
    return proj, sigma_plus, sigma_minus


def horodecki33_params(alpha: float) -> tuple[float]:
    """(alpha,), alpha as a number checked against [2, 5]."""
    alpha = _real("alpha", alpha)
    if not (2.0 - 1e-12 <= alpha <= 5.0 + 1e-12):
        raise InputError(f"alpha={alpha} outside [2, 5]")
    return (alpha,)


def make_horodecki33(alpha: float) -> DensityMatrix:
    """One-parameter 3x3 state (2/7)P+ + (alpha/7)s+ + ((5-alpha)/7)s-."""
    alpha = min(5.0, max(2.0, horodecki33_params(alpha)[0]))
    proj, sigma_plus, sigma_minus = _horodecki_parts()
    mat = (2.0 / 7.0) * proj + (alpha / 7.0) * sigma_plus + ((5.0 - alpha) / 7.0) * sigma_minus
    return DensityMatrix(mat=mat, dims=(3, 3))


def multi_iso_params(d: int, n: int, s: float) -> tuple[int, int, float]:
    """(d, n, s) as numbers, checked against the multipartite ranges and
    the size limit d^n <= 64."""
    d, n = _whole("local dimension", d), _whole("party count", n)
    s = _real("s", s)
    if d < 2:
        raise InputError(f"local dimension must be >= 2, got {d}")
    if n < 2:
        raise InputError(f"party count must be >= 2, got {n}")
    if not (-1e-12 <= s <= 1.0 + 1e-12):
        raise InputError(f"s={s} outside [0, 1]")
    if n > MAX_SIZE:  # d >= 2, so d^n > MAX_SIZE; checked first so that d**n stays small
        raise InputError(f"d^n = {d}^{n} exceeds the supported maximum {MAX_SIZE}")
    if d**n > MAX_SIZE:
        raise InputError(f"d^n = {d**n} exceeds the supported maximum {MAX_SIZE}")
    return d, n, s


def multi_iso_threshold(d: int, n: int) -> float:
    """Separability threshold s0 = 1 / (1 + d^(n-1))."""
    return 1.0 / (1.0 + float(d) ** (n - 1))


def make_multi_iso(d: int, n: int, s: float) -> DensityMatrix:
    """n-party, d-level mixture (1-s) I/d^n + s |psi+><psi+|."""
    d, n, s = multi_iso_params(d, n, s)
    s = min(1.0, max(0.0, s))
    size = d**n
    psi = max_entangled(d, n)
    mat = (1.0 - s) / size * np.eye(size) + s * np.outer(psi, psi.conj())
    return DensityMatrix(mat=mat, dims=(d,) * n)


def make_raw(dims, matrix) -> DensityMatrix:
    """A user-supplied matrix, validated as a density matrix."""
    return DensityMatrix(mat=np.asarray(matrix), dims=dims)


# --------------------------------------------------------------------------
# the family table: one row per family

@dataclass(frozen=True)
class Line:
    """A one-parameter family, affine in its parameter x: separable from
    `far` up to the threshold x0 = num / den, (num, den) = threshold(*sizes),
    and entangled past it up to `end`, where it is lam rho(x0) + (1 - lam)
    rho(end), lam = (end - x) / (end - x0) (Lewenstein & Sanpera 1998). A
    region verdict's detail is `detail`, or for an entangled x that of the
    first (upper, detail) of `bands` with x <= upper."""

    params: Callable[..., tuple]  # (*sizes, x) as numbers, range-checked
    threshold: Callable[..., tuple[float, float]]
    far: float
    end: float
    detail: str
    bands: tuple[tuple[float, str], ...] = ()


@dataclass(frozen=True)
class Family:
    """A supported family: its JSON tag, its spec record, its constructor
    and, for a one-parameter family, its `Line`.

    The spec's fields are the family's JSON fields and, in the same order,
    the arguments of its constructor and of every entry `dispatch` calls
    for it.
    """

    name: str
    spec: type
    make: Callable[..., DensityMatrix]
    line: Line | None = None


FAMILIES = (
    Family("bd22", BD22, make_bd22),
    Family("icd", ICD, make_icd),
    Family("bd23", BD23, make_bd23),
    Family("werner", Werner, make_werner,
           Line(werner_params, lambda d: (0.0, 1.0), 1.0, -1.0, "werner_f")),
    Family("isotropic", Isotropic, make_isotropic,
           Line(isotropic_params, lambda d: (1.0, d), 0.0, 1.0, "isotropic_fidelity")),
    Family("horodecki33", Horodecki33, make_horodecki33,
           Line(horodecki33_params, lambda: (3.0, 1.0), 2.0, 5.0, "alpha_range",
                ((4.0, "bound_entangled"), (math.inf, "distillable")))),
    Family("multi_iso", MultiIso, make_multi_iso,
           Line(multi_iso_params, lambda d, n: (multi_iso_threshold(d, n), 1.0), 0.0, 1.0,
                "multi_iso_threshold")),
    Family("raw", Raw, make_raw),
)
StateSpec = Union[tuple(fam.spec for fam in FAMILIES)]
FAMILY_BY_NAME = {fam.name: fam for fam in FAMILIES}
FAMILY_BY_SPEC = {fam.spec: fam for fam in FAMILIES}
_CONSTRUCTORS = {fam.spec: fam.make for fam in FAMILIES}


def dispatch(table: dict, spec: StateSpec):
    """Call the entry for the spec's family in a table keyed by spec type
    with the spec's field values, in declaration order."""
    if type(spec) not in table:
        raise TypeError(f"unknown state spec {type(spec).__name__}")
    return table[type(spec)](*(getattr(spec, f.name) for f in fields(spec)))


def build(spec: StateSpec) -> DensityMatrix:
    """Build the density matrix described by a StateSpec."""
    return dispatch(_CONSTRUCTORS, spec)
