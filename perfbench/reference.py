"""Reference physics computed apart from the package under test.

Every output the benchmark receives is checked against what this module
computes from the input spec alone: the density matrix (README basis
conventions), the closed-form optimal weight, the Wootters concurrence and
the partial transpose. Nothing here imports ``lsdecomp``.
"""

from __future__ import annotations

import math

import numpy as np

LAMBDA_TOL = 1e-9
RECON_TOL = 1e-10
PSD_TOL = 1e-9
CONCURRENCE_TOL = 1e-7
ORACLE_TOL = 1e-6
GAP_TOL = 1e-6

_S = 1.0 / math.sqrt(2.0)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SY, _SY)


# --------------------------------------------------------------------------
# states, following the README's basis order |00>, |01>, |10>, |11> and the
# row-major 1-indexed kets |ab> -> (a-1)*dB + (b-1)

def _ket(n: int, *pairs) -> np.ndarray:
    v = np.zeros(n, dtype=complex)
    for idx, amp in pairs:
        v[idx] = amp
    return v


def _mixture(vectors, weights) -> np.ndarray:
    return sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vectors))


def _iso_vectors(theta: float):
    c, s = math.cos(theta), math.sin(theta)
    return [
        _ket(4, (0, c), (3, s)),
        _ket(4, (0, s), (3, -c)),
        _ket(4, (1, c), (2, s)),
        _ket(4, (1, s), (2, -c)),
    ]


def _bd23_vectors():
    # pairs on (|11>,|22>), (|12>,|23>), (|13>,|21>), + then - relative phase
    out = []
    for i, j in ((0, 4), (1, 5), (2, 3)):
        out.append(_ket(6, (i, _S), (j, _S)))
        out.append(_ket(6, (i, _S), (j, -_S)))
    return out


def _ghz(d: int, n: int) -> np.ndarray:
    size = d**n
    step = (size - 1) // (d - 1)
    v = np.zeros(size, dtype=complex)
    v[::step] = 1.0 / math.sqrt(d)
    return v


def _swap(d: int) -> np.ndarray:
    f = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            f[i * d + j, j * d + i] = 1.0
    return f


def dims_of(spec: dict) -> tuple[int, ...]:
    fam = spec["family"]
    if fam in ("bd22", "icd"):
        return (2, 2)
    if fam == "bd23":
        return (2, 3)
    if fam in ("werner", "isotropic"):
        return (spec["d"], spec["d"])
    if fam == "horodecki33":
        return (3, 3)
    if fam == "multi_iso":
        return (spec["d"],) * spec["n"]
    return tuple(spec["dims"])


def density(spec: dict) -> np.ndarray:
    """The density matrix a spec describes."""
    fam = spec["family"]
    if fam == "bd22":
        return _mixture(_iso_vectors(math.pi / 4), spec["p"])
    if fam == "icd":
        return _mixture(_iso_vectors(spec["theta"]), spec["p"])
    if fam == "bd23":
        return _mixture(_bd23_vectors(), spec["p"])
    if fam == "werner":
        d, f = spec["d"], spec["f"]
        return ((d - f) * np.eye(d * d) + (d * f - 1.0) * _swap(d)) / (d**3 - d)
    if fam == "isotropic":
        d, fid = spec["d"], spec["F"]
        proj = _mixture([_ghz(d, 2)], [1.0])
        return (1.0 - fid) / (d * d - 1.0) * (np.eye(d * d) - proj) + fid * proj
    if fam == "horodecki33":
        a = spec["alpha"]
        plus = np.zeros((9, 9))
        minus = np.zeros((9, 9))
        for x, y in ((1, 2), (2, 3), (3, 1)):
            plus[(x - 1) * 3 + y - 1, (x - 1) * 3 + y - 1] = 1.0 / 3.0
            minus[(y - 1) * 3 + x - 1, (y - 1) * 3 + x - 1] = 1.0 / 3.0
        proj = _mixture([_ghz(3, 2)], [1.0])
        return (2.0 * proj + a * plus + (5.0 - a) * minus) / 7.0
    if fam == "multi_iso":
        d, n, s = spec["d"], spec["n"], spec["s"]
        size = d**n
        return (1.0 - s) / size * np.eye(size) + s * _mixture([_ghz(d, n)], [1.0])
    if fam == "raw":
        return from_block(spec)
    raise ValueError(f"unknown family {fam!r}")


def from_block(block: dict) -> np.ndarray:
    """A matrix serialized as {"re": [[...]], "im": [[...]]}."""
    return np.asarray(block["re"], dtype=float) + 1j * np.asarray(block["im"], dtype=float)


# --------------------------------------------------------------------------
# separability regions and closed forms (README table)

def icd_violation(theta: float, p) -> float:
    """Largest violation over the four iso-concurrence chambers (> 0: entangled)."""
    s2 = math.sin(2.0 * theta) ** 2
    p1, p2, p3, p4 = p
    best = -math.inf
    for a, b, c, d in ((p1, p2, p3, p4), (p2, p1, p4, p3), (p3, p4, p1, p2), (p4, p3, p2, p1)):
        best = max(best, (a - b) - math.sqrt(4.0 * c * d / s2 + (c - d) ** 2))
    return best


def bd23_slacks(p) -> list[float]:
    """Slacks of the three 2x3 Bell-diagonal PPT inequalities (< 0: entangled)."""
    a, b, c = p[0] + p[1], p[2] + p[3], p[4] + p[5]
    return [b * c - (p[0] - p[1]) ** 2, c * a - (p[2] - p[3]) ** 2, a * b - (p[4] - p[5]) ** 2]


def bd23_split(p, margin: float = 0.0) -> float | None:
    """Closed-form 2x3 weight inside the pure-residual chamber.

    Each pair in turn leads (pairs internally descending); the formula
    lam = 1 - p1 + p2 + sqrt((p3+p4)(p5+p6)) applies when the derived
    separable weights stay inside the region. Returns None outside that
    chamber, and also when a candidate sits within `margin` of a boundary
    that decides coverage.
    """
    pairs = [tuple(sorted((i, i + 1), key=lambda k: -p[k])) for i in (0, 2, 4)]
    best = None
    for lead in range(3):
        order = list(pairs[lead]) + [k for j in range(3) if j != lead for k in pairs[j]]
        q = [p[k] for k in order]
        w = math.sqrt((q[2] + q[3]) * (q[4] + q[5]))
        if margin and abs(q[0] - q[1] - w) <= margin:
            return None
        if q[0] - q[1] <= w:
            continue
        lam = 1.0 - q[0] + q[1] + w
        qp = [v / lam for v in q]
        qp[0] = 1.0 - (1.0 - q[0]) / lam
        pp = [0.0] * 6
        for k, v in zip(order, qp):
            pp[k] = v
        # the lead pair's inequality is saturated; the other two decide
        slack = min(s for j, s in enumerate(bd23_slacks(pp)) if j != lead)
        if margin and abs(slack) <= margin:
            return None
        if slack >= 0.0:
            best = lam if best is None else max(best, lam)
    return best


def multi_iso_threshold(d: int, n: int) -> float:
    return 1.0 / (1.0 + float(d) ** (n - 1))


def closed_form_lambda(spec: dict) -> float | None:
    """The README's optimal weight; None for raw, where no closed form in p exists."""
    fam = spec["family"]
    if fam == "bd22":
        pmax = max(spec["p"])
        return 2.0 * (1.0 - pmax) if pmax > 0.5 else 1.0
    if fam == "icd":
        v = icd_violation(spec["theta"], spec["p"])
        return 1.0 - v if v > 0.0 else 1.0
    if fam == "bd23":
        if min(bd23_slacks(spec["p"])) >= 0.0:
            return 1.0
        return bd23_split(spec["p"])
    if fam == "werner":
        return 1.0 + spec["f"] if spec["f"] < 0.0 else 1.0
    if fam == "isotropic":
        d, fid = spec["d"], spec["F"]
        return d * (1.0 - fid) / (d - 1.0) if fid > 1.0 / d else 1.0
    if fam == "horodecki33":
        return (5.0 - spec["alpha"]) / 2.0 if spec["alpha"] > 3.0 else 1.0
    if fam == "multi_iso":
        d, n, s = spec["d"], spec["n"], spec["s"]
        if s <= multi_iso_threshold(d, n):
            return 1.0
        return (1.0 - s) * (1.0 + d ** (n - 1)) / d ** (n - 1)
    return None


# --------------------------------------------------------------------------
# matrix facts

def min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])


def partial_transpose(m: np.ndarray, da: int, db: int) -> np.ndarray:
    return m.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(da * db, da * db)


def wootters_margin(rho: np.ndarray) -> float:
    """l1 - l2 - l3 - l4, l_i the square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy), taken through sqrt(rho); negative means
    separable."""
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    m = root @ _YY @ rho.conj() @ _YY @ root
    ls = np.sqrt(np.clip(np.linalg.eigvalsh(0.5 * (m + m.conj().T)), 0.0, None))[::-1]
    return float(ls[0] - ls[1] - ls[2] - ls[3])


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4)."""
    return max(0.0, wootters_margin(rho))


# --------------------------------------------------------------------------
# checks; each returns a list of failure messages, empty when the output holds

def check_split(spec: dict, rho: np.ndarray, lam: float, sep: np.ndarray,
                ent: np.ndarray | None, conc: float | None) -> list[str]:
    """Closed-form weight, reconstruction, PSD residual, PPT separable part,
    concurrence (None: the operation reports none), and the convexity bound
    for raw states."""
    bad = []
    dims = dims_of(spec)
    want = closed_form_lambda(spec)
    if want is not None and not abs(lam - want) <= LAMBDA_TOL:
        bad.append(f"lambda {lam!r} != closed form {want!r}")
    if ent is None:
        ent = np.zeros_like(rho)
    recon = float(np.linalg.norm(rho - lam * sep - ent))
    if not recon <= RECON_TOL:
        bad.append(f"reconstruction error {recon:.3e}")
    if min_eig(ent) < -PSD_TOL:
        bad.append("entangled part is not PSD")
    if abs(float(np.trace(sep).real) - 1.0) > RECON_TOL or min_eig(sep) < -PSD_TOL:
        bad.append("separable part is not a density matrix")
    if dims in ((2, 2), (2, 3)) and min_eig(partial_transpose(sep, *dims)) < -PSD_TOL:
        bad.append("separable part fails PPT")
    if dims == (2, 2):
        c_ref = concurrence(rho)
        if conc is not None and not abs(conc - c_ref) <= CONCURRENCE_TOL:
            bad.append(f"concurrence {conc!r} != Wootters {c_ref!r}")
        if spec["family"] == "raw" and lam > 1.0 - c_ref + LAMBDA_TOL:
            bad.append(f"lambda {lam!r} exceeds 1 - C = {1.0 - c_ref!r}")
    return bad


def check_oracle(rho: np.ndarray, lam_ref: float, lam_oracle: float,
                 sigma: np.ndarray, gap: float) -> list[str]:
    """Oracle agreement, feasibility of its witness, and the duality gap."""
    bad = []
    if not abs(lam_oracle - lam_ref) <= ORACLE_TOL:
        bad.append(f"oracle lambda {lam_oracle!r} != {lam_ref!r}")
    if min_eig(rho - lam_oracle * sigma) < -PSD_TOL:
        bad.append("rho - lambda_oracle sigma is not PSD")
    if not abs(gap) <= GAP_TOL:
        bad.append(f"duality gap {gap!r}")
    return bad
