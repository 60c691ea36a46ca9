"""Acceptance battery.

Each criterion runs as one test over a shared battery of 200 seeded random
entangled instances per family (eight families), prints a one-line summary,
and enforces its stated tolerance. The battery itself (closed forms plus the
independent numeric search for every instance) must finish inside the 60 s
runtime budget; the build is timed and criterion 1 asserts the bound.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from lsdecomp import lsd
from lsdecomp import matcore as mc
from lsdecomp import oracle as orc
from lsdecomp import separability as sep
from lsdecomp import states as st
from lsdecomp import wootters as wo
from lsdecomp.errors import NoDualCertificate

from helpers import (
    ginibre_state,
    sample_entangled_2q,
    sample_entangled_bd22,
    sample_entangled_bd23,
    sample_entangled_icd,
)

N_PER_FAMILY = 200
FAMILIES = (
    "bd22",
    "icd",
    "wootters",
    "bd23",
    "werner",
    "isotropic",
    "horodecki33",
    "multi_iso",
)


@dataclass
class Instance:
    family: str
    rho: st.DensityMatrix
    dec: lsd.LSDecomposition
    lam_oracle: float
    sep_certificate: sep.SeparabilityVerdict


def _draw(family: str, rng: np.random.Generator):
    """One entangled instance: state, closed-form split, oracle family,
    and the certification verdict for the separable part."""
    if family == "bd22":
        p = sample_entangled_bd22(rng)
        rho, dec = st.make_bd22(p), lsd.lsd_bd22(p)
        return rho, dec, orc.bd22_family(), sep.ppt_check(dec.separable_part)
    if family == "icd":
        theta, p = sample_entangled_icd(rng)
        rho, dec = st.make_icd(theta, p), lsd.lsd_icd(theta, p)
        return rho, dec, orc.icd_family(theta), sep.ppt_check(dec.separable_part)
    if family == "wootters":
        rho = sample_entangled_2q(rng)
        dec = lsd.lsd_wootters(rho)
        return rho, dec, orc.wootters_family(rho), sep.ppt_check(dec.separable_part)
    if family == "bd23":
        p, dec = sample_entangled_bd23(rng)
        rho = st.make_bd23(p)
        return rho, dec, orc.bd23_family(), sep.ppt_check(dec.separable_part)
    if family == "werner":
        d = int(rng.integers(2, 5))
        f = float(rng.uniform(-1.0, -1e-3))
        rho, dec = st.make_werner(d, f), lsd.decompose(st.Werner(d, f))
        cert = (
            sep.ppt_check(dec.separable_part)
            if d == 2
            else sep.family_region(st.Werner(d=d, f=0.0))
        )
        return rho, dec, orc.family_for_spec(st.Werner(d, f)), cert
    if family == "isotropic":
        d = int(rng.integers(2, 5))
        fid = float(rng.uniform(1.0 / d + 1e-3, 1.0))
        rho, dec = st.make_isotropic(d, fid), lsd.decompose(st.Isotropic(d, fid))
        cert = (
            sep.ppt_check(dec.separable_part)
            if d == 2
            else sep.family_region(st.Isotropic(d=d, F=1.0 / d))
        )
        return rho, dec, orc.family_for_spec(st.Isotropic(d, fid)), cert
    if family == "horodecki33":
        alpha = float(rng.uniform(3.0 + 1e-3, 5.0))
        rho, dec = st.make_horodecki33(alpha), lsd.decompose(st.Horodecki33(alpha))
        cert = sep.family_region(st.Horodecki33(alpha=3.0))
        return rho, dec, orc.family_for_spec(st.Horodecki33(alpha)), cert
    if family == "multi_iso":
        d, n = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)][int(rng.integers(0, 6))]
        s0 = st.multi_iso_threshold(d, n)
        s = float(rng.uniform(s0 + 1e-3, 1.0))
        rho, dec = st.make_multi_iso(d, n, s), lsd.decompose(st.MultiIso(d, n, s))
        cert = (
            sep.ppt_check(dec.separable_part)
            if (d, n) == (2, 2)
            else sep.family_region(st.MultiIso(d=d, n=n, s=s0))
        )
        return rho, dec, orc.family_for_spec(st.MultiIso(d, n, s)), cert
    raise ValueError(family)


@pytest.fixture(scope="module")
def battery():
    instances: dict[str, list[Instance]] = {}
    t0 = time.perf_counter()
    for fam_idx, family in enumerate(FAMILIES):
        rng = np.random.default_rng([2026, fam_idx])
        rows = []
        for i in range(N_PER_FAMILY):
            rho, dec, search_family, cert = _draw(family, rng)
            lam_oracle, _ = orc.bsa_search(rho, search_family, tol=1e-7, seed=i)
            rows.append(
                Instance(
                    family=family,
                    rho=rho,
                    dec=dec,
                    lam_oracle=lam_oracle,
                    sep_certificate=cert,
                )
            )
        instances[family] = rows
    elapsed = time.perf_counter() - t0
    return instances, elapsed


def test_criterion_1_closed_form_oracle_agreement(battery):
    instances, elapsed = battery
    worst = {f: max(abs(i.dec.lam - i.lam_oracle) for i in instances[f]) for f in FAMILIES}
    print(
        f"\ncriterion 1: max |lambda_closed - lambda_oracle| = {max(worst.values()):.3e} "
        f"({N_PER_FAMILY} instances x {len(FAMILIES)} families, {elapsed:.1f}s) "
        + ("PASS" if max(worst.values()) <= 1e-6 and elapsed < 60.0 else "FAIL")
    )
    for family in FAMILIES:
        assert worst[family] <= 1e-6, f"{family}: worst gap {worst[family]:.3e}"
    assert elapsed < 60.0, f"battery took {elapsed:.1f}s, budget is 60s"


def test_criterion_2_reconstruction(battery):
    instances, _ = battery
    worst = 0.0
    for family in FAMILIES:
        for inst in instances[family]:
            resid = np.linalg.norm(
                inst.rho.mat
                - inst.dec.lam * inst.dec.separable_part.mat
                - inst.dec.entangled_part
            )
            worst = max(worst, resid)
    print(f"\ncriterion 2: max reconstruction residual = {worst:.3e} "
          + ("PASS" if worst <= 1e-10 else "FAIL"))
    assert worst <= 1e-10


def test_criterion_3_separable_part_certified(battery):
    instances, _ = battery
    bad = 0
    for family in FAMILIES:
        for inst in instances[family]:
            if not inst.sep_certificate.is_separable:
                bad += 1
    print(f"\ncriterion 3: uncertified separable parts = {bad} "
          + ("PASS" if bad == 0 else "FAIL"))
    assert bad == 0


def test_criterion_4_residual_structure(battery):
    instances, _ = battery
    pure_families = {"bd22", "icd", "wootters", "bd23", "isotropic", "multi_iso"}
    worst_second = 0.0
    for family in FAMILIES:
        for inst in instances[family]:
            ent = inst.dec.entangled_part
            tr = float(np.real(np.trace(ent)))
            evals = np.linalg.eigvalsh(ent)
            d = inst.rho.dims[0]
            if family in pure_families or (family == "werner" and d == 2):
                worst_second = max(worst_second, evals[-2] / tr)
            elif family == "werner":
                expected = d * (d - 1) // 2
                rank = int(np.count_nonzero(evals > 1e-8 * tr))
                assert rank == expected, f"werner d={d}: rank {rank} != {expected}"
            else:  # horodecki33
                rank = int(np.count_nonzero(evals > 1e-8 * tr))
                assert rank == 4, f"horodecki33: rank {rank} != 4"
    print(f"\ncriterion 4: max normalized second eigenvalue = {worst_second:.3e} "
          + ("PASS" if worst_second <= 1e-8 else "FAIL"))
    assert worst_second <= 1e-8


def test_criterion_5_spot_values():
    cases = [
        ("bd22(0.7,0.1,0.1,0.1)", lsd.lsd_bd22([0.7, 0.1, 0.1, 0.1]).lam, 0.6),
        ("werner(2,-0.5)", lsd.decompose(st.Werner(2, -0.5)).lam, 0.5),
        ("isotropic(3,0.5)", lsd.decompose(st.Isotropic(3, 0.5)).lam, 0.75),
        ("horodecki33(4)", lsd.decompose(st.Horodecki33(4.0)).lam, 0.5),
        ("multi_iso(2,3,0.6)", lsd.decompose(st.MultiIso(2, 3, 0.6)).lam, 0.5),
    ]
    worst = max(abs(got - want) for _, got, want in cases)
    print(f"\ncriterion 5: max spot-value error = {worst:.3e} "
          + ("PASS" if worst <= 1e-12 else "FAIL"))
    for name, got, want in cases:
        assert abs(got - want) <= 1e-12, f"{name}: {got} != {want}"


def test_criterion_6_cross_consistency():
    rng = np.random.default_rng(606)
    worst_icd = 0.0
    for _ in range(500):
        p = rng.dirichlet(np.ones(4))
        worst_icd = max(worst_icd, abs(lsd.lsd_icd(np.pi / 4, p).lam - lsd.lsd_bd22(p).lam))
    worst_woot = 0.0
    worst_conc = 0.0
    done = 0
    while done < 200:
        p = rng.dirichlet(np.ones(4))
        if p.max() <= 0.5 + 1e-9:
            continue
        done += 1
        rho = st.make_bd22(p)
        worst_woot = max(worst_woot, abs(lsd.lsd_wootters(rho).lam - lsd.lsd_bd22(p).lam))
        worst_conc = max(worst_conc, abs(wo.concurrence(rho) - (2.0 * p.max() - 1.0)))
    ok = worst_icd <= 1e-10 and worst_woot <= 1e-8 and worst_conc <= 1e-10
    print(
        f"\ncriterion 6: icd/bd22 {worst_icd:.3e}, wootters/bd22 {worst_woot:.3e}, "
        f"concurrence {worst_conc:.3e} " + ("PASS" if ok else "FAIL")
    )
    assert worst_icd <= 1e-10
    assert worst_woot <= 1e-8
    assert worst_conc <= 1e-10


def test_criterion_7_duality_at_optima(battery):
    instances, _ = battery
    worst_gap = worst_slack = 0.0
    for family in FAMILIES:
        for inst in instances[family]:
            prob = orc.bsa_as_sdp(inst.rho, inst.dec.separable_part)
            rep = orc.duality_check(prob, np.array([inst.dec.lam]))
            assert rep.gap >= -1e-9
            worst_gap = max(worst_gap, abs(rep.gap))
            worst_slack = max(worst_slack, rep.slackness_residual)
            with pytest.raises(NoDualCertificate):
                orc.duality_check(prob, np.array([inst.dec.lam - 0.1]))
    ok = worst_gap <= 1e-6 and worst_slack <= 1e-6
    print(f"\ncriterion 7: max gap {worst_gap:.3e}, max slackness {worst_slack:.3e} "
          + ("PASS" if ok else "FAIL"))
    assert worst_gap <= 1e-6
    assert worst_slack <= 1e-6


def test_criterion_8_wootters_invariants():
    rng = np.random.default_rng(808)
    yy = mc.kron(mc.SIGMA_Y, mc.SIGMA_Y)
    worst = 0.0
    for _ in range(200):
        rho = ginibre_state(rng, 4, (2, 2))
        data = wo.wootters_basis(rho)
        x = data.x_vectors.T
        worst = max(worst, np.linalg.norm(x.conj().T @ yy @ x.conj() - np.diag(data.lambdas)))
        worst = max(worst, np.linalg.norm(x @ x.conj().T - rho.mat))
        worst = max(worst, abs(float(data.P.sum()) - 1.0))
    print(f"\ncriterion 8: max spin-flip basis residual = {worst:.3e} "
          + ("PASS" if worst <= 1e-9 else "FAIL"))
    assert worst <= 1e-9


def test_criterion_9_region_vs_ppt():
    rng = np.random.default_rng(909)
    mismatches = 0
    for i in range(1000):
        p = rng.dirichlet(np.ones(4))
        if i % 2 == 0:
            a = sep.bd22_region(p).status
            b = sep.ppt_check(st.make_bd22(p)).status
        else:
            theta = rng.uniform(0.1, np.pi / 2 - 0.1)
            a = sep.icd_region(theta, p).status
            b = sep.ppt_check(st.make_icd(theta, p)).status
        mismatches += a != b
    for _ in range(1000):
        q = rng.dirichlet(np.ones(6))
        a = sep.bd23_region(q).status
        b = sep.ppt_check(st.make_bd23(q)).status
        mismatches += a != b
    print(f"\ncriterion 9: region/PPT mismatches = {mismatches} of 2000 "
          + ("PASS" if mismatches == 0 else "FAIL"))
    assert mismatches == 0
