"""Seeded inputs for the three workloads, as flat JSON specs (README schema).

A workload runs in rounds. Every round has the same make-up: a fixed quota
of freshly drawn seeded states per family, plus a fixed fault slice that
does not depend on the seed. Seeded states keep a margin of 1e-3 from every
separability threshold and, for bd23, from the edge of the chamber the
closed form covers, so none of them fails; the fault slices fail the same
way in every round. The discrete parameters (werner and isotropic ``d``,
multi_iso ``(d, n)``) are not drawn but cycled per family and kind
(entangled or separable), so that every seed runs the same mix of sizes
and only the continuous parameters vary: with drawn sizes the share of
64-dimensional states, which set the tail of ``report_roundtrip``, moved
by about 8% from seed to seed.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

FAMILIES = ("bd22", "icd", "raw", "bd23", "werner", "isotropic", "horodecki33", "multi_iso")
MARGIN = 1e-3
WORKLOAD_INDEX = {"oracle_battery": 0, "report_roundtrip": 1, "cli_cold": 2}
# oracle_battery draws icd and bd23 weights of at least this much: below it
# bsa_search stops short of the optimum for a few states in 10,000 (icd)
# or a few in 1,000 with a weight under 0.005 (bd23), which would make the
# failed share depend on the seed
ORACLE_WEIGHT_FLOOR = 0.02

# oracle_battery: the battery's own ranges (acceptance samplers)
BATTERY_MULTI = ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3))
# report_roundtrip and cli_cold: every size up to d^n = 64
WIDE_MULTI = ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3),
              (4, 2), (4, 3), (5, 2), (6, 2), (7, 2), (8, 2))

# Rank-2 Bell-diagonal states: bsa_search returns 0 for each of them.
RANK2_SLICE = (
    {"family": "bd22", "p": [0.7, 0.3, 0.0, 0.0]},
    {"family": "bd22", "p": [0.0, 0.2, 0.0, 0.8]},
)


def near_threshold_slice() -> list[dict]:
    """States a gap eps past their separability threshold, eps = 1e-5 .. 1e-9."""
    out = []
    for k in range(5, 10):
        eps = 10.0**-k
        rest = (0.5 - eps) / 3.0
        out += [
            {"family": "bd22", "p": [0.5 + eps, rest, rest, rest]},
            {"family": "werner", "d": 3, "f": -eps},
            {"family": "isotropic", "d": 3, "F": 1.0 / 3.0 + eps},
            {"family": "horodecki33", "alpha": 3.0 + eps},
            {"family": "multi_iso", "d": 2, "n": 3, "s": 0.2 + eps},
        ]
    return out


def _ginibre(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return 0.5 * (m + m.conj().T)


def draw(family: str, entangled: bool, rng: np.random.Generator, wide: bool,
         pick: int = 0) -> dict:
    """One seeded spec of `family`, entangled or separable, clear of every
    edge; `pick` chooses the dimension where the family has one."""
    while True:
        if family == "bd22":
            p = rng.dirichlet(np.ones(4)).tolist()
            gap = max(p) - 0.5
            spec = {"family": "bd22", "p": p}
        elif family == "icd":
            theta = float(rng.uniform(0.35, math.pi / 2 - 0.35))
            p = rng.dirichlet(np.ones(4)).tolist()
            if not wide and min(p) < ORACLE_WEIGHT_FLOOR:
                continue  # the oracle stalls below the optimum here (CHANGES.md)
            gap = ref.icd_violation(theta, p)
            spec = {"family": "icd", "theta": theta, "p": p}
        elif family == "raw":
            rho = _ginibre(rng)
            gap = ref.wootters_margin(rho)
            if entangled:
                gap -= 0.02 - MARGIN  # the battery's concurrence floor
            spec = {"family": "raw", "dims": [2, 2], "re": rho.real.tolist(), "im": rho.imag.tolist()}
        elif family == "bd23":
            p = rng.dirichlet(np.ones(6)).tolist()
            if not wide and min(p) < ORACLE_WEIGHT_FLOOR:
                continue  # the oracle stalls below the optimum here (CHANGES.md)
            slack = min(ref.bd23_slacks(p))
            if slack < 0.0 and ref.bd23_split(p, MARGIN) is None:
                continue  # outside the covered chamber, or too close to its edge
            gap = -slack
            spec = {"family": "bd23", "p": p}
        elif family in ("werner", "isotropic"):
            d = 2 + pick % (4 if wide else 3)
            if family == "werner":
                f = float(rng.uniform(-1.0, 1.0))
                gap, spec = -f, {"family": "werner", "d": d, "f": f}
            else:
                fid = float(rng.uniform(0.0, 1.0))
                gap, spec = fid - 1.0 / d, {"family": "isotropic", "d": d, "F": fid}
        elif family == "horodecki33":
            alpha = float(rng.uniform(2.0, 5.0))
            gap, spec = alpha - 3.0, {"family": "horodecki33", "alpha": alpha}
        elif family == "multi_iso":
            sizes = WIDE_MULTI if wide else BATTERY_MULTI
            d, n = sizes[pick % len(sizes)]
            s = float(rng.uniform(0.0, 1.0))
            gap = s - ref.multi_iso_threshold(d, n)
            spec = {"family": "multi_iso", "d": d, "n": n, "s": s}
        else:
            raise ValueError(family)
        if (gap > MARGIN) if entangled else (gap < -MARGIN):
            return spec


def rounds(workload: str, seed: int):
    """Endless, deterministic stream of rounds for one workload and seed.

    A round is a list of (label, spec, fault) tuples; `label` names the
    family (or the fault slice) and `fault` marks the fixed slice expected
    to fail. Round r of a seed is the same in every run.
    """
    rng = np.random.default_rng([seed, WORKLOAD_INDEX[workload]])
    drawn = {(fam, entangled): 0 for fam in FAMILIES for entangled in (True, False)}

    def draw_next(fam: str, entangled: bool, wide: bool) -> dict:
        drawn[fam, entangled] += 1
        return draw(fam, entangled, rng, wide, pick=drawn[fam, entangled] - 1)

    while True:
        ops = []
        if workload == "oracle_battery":
            # searches cost tens of ms for the first four families and 2-6 ms
            # for the one-parameter ones; a 4:1 share puts the median
            # inside the slow class rather than in the gap between classes
            for fam in FAMILIES:
                quota = 4 if fam in ("bd22", "icd", "raw", "bd23") else 1
                ops += [(fam, draw_next(fam, True, wide=False), False) for _ in range(quota)]
            ops += [("bd22_rank2", spec, True) for spec in RANK2_SLICE]
        elif workload == "report_roundtrip":
            for fam in FAMILIES:
                ops += [(fam, draw_next(fam, True, wide=True), False) for _ in range(9)]
                ops += [(fam, draw_next(fam, False, wide=True), False) for _ in range(3)]
            ops += [("near_threshold", spec, True) for spec in near_threshold_slice()]
        elif workload == "cli_cold":
            for fam in FAMILIES:
                ops.append((fam, draw_next(fam, True, wide=True), False))
                ops.append((fam, draw_next(fam, False, wide=True), False))
        else:
            raise ValueError(workload)
        yield ops
