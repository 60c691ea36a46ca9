"""Separability verdicts: PPT, region tests, and their agreement."""

import numpy as np
import pytest

from lsdecomp import separability as sep
from lsdecomp import states as st
from lsdecomp.errors import InputError

from helpers import sample_entangled_bd22


def test_ppt_maximally_mixed():
    v = sep.ppt_check(st.make_bd22([0.25] * 4))
    assert v.status == sep.SEPARABLE
    assert v.margin == pytest.approx(0.25, abs=1e-12)


def test_ppt_singlet():
    v = sep.ppt_check(st.make_bd22([0, 0, 0, 1]))
    assert v.status == sep.ENTANGLED
    assert v.margin == pytest.approx(-0.5, abs=1e-12)


def test_ppt_inconclusive_for_bound_entangled_range():
    v = sep.ppt_check(st.make_horodecki33(3.5))
    assert v.status == sep.PPT_INCONCLUSIVE
    assert v.margin >= -1e-9


def test_ppt_requires_bipartite():
    with pytest.raises(InputError, match=r"needs exactly two subsystems, got dims \(2, 2, 2\)"):
        sep.ppt_check(st.make_multi_iso(2, 3, 0.2))


def test_bd22_region_cases():
    v = sep.bd22_region([0.5, 0.5, 0, 0])
    assert v.status == sep.SEPARABLE and v.margin == pytest.approx(0.0, abs=1e-15)
    assert sep.bd22_region([0.7, 0.1, 0.1, 0.1]).status == sep.ENTANGLED
    v = sep.bd22_region([0.25] * 4)
    assert v.status == sep.SEPARABLE and v.margin == pytest.approx(0.25)


def test_icd_region_reduces_to_bd22_at_pi4():
    rng = np.random.default_rng(0)
    for _ in range(500):
        p = rng.dirichlet(np.ones(4))
        assert sep.icd_region(np.pi / 4, p).status == sep.bd22_region(p).status


def test_icd_region_example_and_ppt_crosscheck():
    theta, p = np.pi / 6, [0.6, 0.2, 0.1, 0.1]
    # p1 - p2 = 0.4 > sqrt(4 * 0.01 / sin^2(pi/3)) = 0.23094
    v = sep.icd_region(theta, p)
    assert v.status == sep.ENTANGLED
    assert v.detail == "ppt1"
    assert v.margin == pytest.approx(np.sqrt(0.04 / np.sin(np.pi / 3) ** 2) - 0.4, abs=1e-12)
    assert sep.ppt_check(st.make_icd(theta, p)).status == sep.ENTANGLED


def test_icd_region_uniform_always_separable():
    for theta in np.linspace(0.1, np.pi / 2 - 0.1, 9):
        assert sep.icd_region(theta, [0.25] * 4).status == sep.SEPARABLE


def test_bd23_region_examples():
    assert sep.bd23_region([1 / 6.0] * 6).status == sep.SEPARABLE
    v = sep.bd23_region([0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
    assert v.status == sep.ENTANGLED and v.detail == "S1"
    # slack of S1: 0.2 * 0.2 - 0.4^2 = -0.12
    assert v.margin == pytest.approx(-0.12, abs=1e-12)


def test_region_vs_ppt_agreement():
    rng = np.random.default_rng(1)
    for _ in range(300):
        p = rng.dirichlet(np.ones(4))
        assert sep.bd22_region(p).status == sep.ppt_check(st.make_bd22(p)).status
        theta = rng.uniform(0.1, np.pi / 2 - 0.1)
        assert (
            sep.icd_region(theta, p).status
            == sep.ppt_check(st.make_icd(theta, p)).status
        )
        q = rng.dirichlet(np.ones(6))
        assert sep.bd23_region(q).status == sep.ppt_check(st.make_bd23(q)).status


def test_family_region_werner():
    assert sep.family_region(st.Werner(d=3, f=0.5)).status == sep.SEPARABLE
    assert sep.family_region(st.Werner(d=3, f=-0.01)).status == sep.ENTANGLED
    # threshold agreement with PPT over an f grid
    for d in (2, 3):
        for f in np.linspace(-1, 1, 41):
            expected = sep.SEPARABLE if f >= 0 else sep.ENTANGLED
            assert sep.family_region(st.Werner(d=d, f=float(f))).status == expected
            ppt = sep.ppt_check(st.make_werner(d, float(f)))
            if d == 2:
                assert ppt.status == expected
            else:
                assert (ppt.status == sep.ENTANGLED) == (expected == sep.ENTANGLED)


def test_family_region_isotropic():
    assert sep.family_region(st.Isotropic(d=3, F=0.5)).status == sep.ENTANGLED
    assert sep.family_region(st.Isotropic(d=3, F=0.2)).status == sep.SEPARABLE
    v = sep.family_region(st.Isotropic(d=3, F=0.5))
    assert v.margin == pytest.approx(1 / 3 - 0.5, abs=1e-12)


def test_family_region_horodecki_details():
    assert sep.family_region(st.Horodecki33(alpha=2.5)).status == sep.SEPARABLE
    assert sep.family_region(st.Horodecki33(alpha=3.0)).status == sep.SEPARABLE
    v = sep.family_region(st.Horodecki33(alpha=3.5))
    assert v.status == sep.ENTANGLED and v.detail == "bound_entangled"
    v = sep.family_region(st.Horodecki33(alpha=4.5))
    assert v.status == sep.ENTANGLED and v.detail == "distillable"


def test_family_region_multi_iso_threshold():
    assert sep.multi_iso_threshold(2, 3) == pytest.approx(0.2)
    assert sep.family_region(st.MultiIso(d=2, n=3, s=0.19)).status == sep.SEPARABLE
    assert sep.family_region(st.MultiIso(d=2, n=3, s=0.21)).status == sep.ENTANGLED


def test_family_region_of_raw_is_ppt():
    for rho in (st.make_bd22([0.7, 0.1, 0.1, 0.1]), st.make_bd23([0.5, 0.1, 0.1, 0.1, 0.1, 0.1])):
        spec = st.Raw(dims=rho.dims, matrix=rho.mat)
        assert sep.family_region(spec) == sep.ppt_check(st.build(spec))
    with pytest.raises(InputError, match=r"needs exactly two subsystems, got dims \(2, 2, 2\)"):
        sep.family_region(st.Raw(dims=(2, 2, 2), matrix=np.eye(8) / 8))


def test_margin_continuity():
    # empirical Lipschitz bound L <= 4 for small perturbations away from
    # the singular corners (interior weights, moderate theta)
    rng = np.random.default_rng(2)
    eps = 1e-6
    for _ in range(100):
        p = rng.dirichlet(np.full(4, 4.0)) * 0.8 + 0.05
        p /= p.sum()
        delta = rng.normal(size=4)
        delta -= delta.mean()
        delta *= eps / np.linalg.norm(delta)
        m0 = sep.bd22_region(p).margin
        m1 = sep.bd22_region(p + delta).margin
        assert abs(m1 - m0) <= 4.0 * eps
        theta = rng.uniform(np.pi / 6, np.pi / 3)
        m0 = sep.icd_region(theta, p).margin
        m1 = sep.icd_region(theta, p + delta).margin
        assert abs(m1 - m0) <= 4.0 * eps
        q = rng.dirichlet(np.full(6, 4.0)) * 0.8 + 0.033
        q /= q.sum()
        dq = rng.normal(size=6)
        dq -= dq.mean()
        dq *= eps / np.linalg.norm(dq)
        m0 = sep.bd23_region(q).margin
        m1 = sep.bd23_region(q + dq).margin
        assert abs(m1 - m0) <= 4.0 * eps


def test_entangled_bd22_sampler_consistency():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = sample_entangled_bd22(rng)
        assert sep.bd22_region(p).status == sep.ENTANGLED
