"""Separability verdicts: PPT, region tests, and their agreement."""

import math
import re
from functools import partial

import numpy as np
import pytest

from lsdecomp import lsd
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
    assert st.multi_iso_threshold(2, 3) == pytest.approx(0.2)
    assert sep.family_region(st.MultiIso(d=2, n=3, s=0.19)).status == sep.SEPARABLE
    assert sep.family_region(st.MultiIso(d=2, n=3, s=0.21)).status == sep.ENTANGLED


MULTI_ISO_SIZES = [(d, n) for d in range(2, 9) for n in range(2, 7) if d**n <= 64]


def _one_parameter_rows():
    """(spec of x, threshold x0, points besides x0 and its neighbours,
    margin of x, separable detail) for every size of the four one-parameter
    families, with each margin written as its family's own expression."""
    for d in range(2, 9):
        yield partial(st.Werner, d), 0.0, (-1.0, 1.0, -0.0), lambda f: f, "werner_f"
        yield (partial(st.Isotropic, d), 1.0 / d, (0.0, 1.0),
               lambda F, d=d: 1.0 / d - F, "isotropic_fidelity")
    yield (st.Horodecki33, 3.0, (2.0, 5.0, 4.0, math.nextafter(4.0, 5.0)),
           lambda alpha: 3.0 - alpha, "alpha_range")
    for d, n in MULTI_ISO_SIZES:
        s0 = 1.0 / (1.0 + float(d) ** (n - 1))
        yield (partial(st.MultiIso, d, n), s0, (0.0, 1.0),
               lambda s, s0=s0: s0 - s, "multi_iso_threshold")


def test_family_region_one_parameter_margins_bit_for_bit():
    # at each threshold, +-1e-12 and +-2e-11 around it and the range ends:
    # the margin is the family's expression, clamped to 0.0 within
    # REGION_TOL below 0, with its sign of zero, so Werner f = -0.0 reads
    # -0.0 and f = 0.0 reads 0.0; the 3x3 alpha state past its threshold is
    # bound entangled up to alpha = 4 and distillable above
    assert len(MULTI_ISO_SIZES) == 13
    checked = 0
    for make, x0, extra, margin_of, detail in _one_parameter_rows():
        for x in (x0, *(x0 + e for e in (-2e-11, -1e-12, 1e-12, 2e-11)), *extra):
            spec, margin = make(x), margin_of(x)
            expected = 0.0 if -sep.REGION_TOL <= margin < 0.0 else margin
            want = detail
            if margin < -sep.REGION_TOL and make is st.Horodecki33:
                want = "bound_entangled" if x <= 4.0 else "distillable"
            v = sep.family_region(spec)
            assert v.margin == expected, (spec, v)
            assert math.copysign(1.0, v.margin) == math.copysign(1.0, expected), (spec, v)
            assert v.status == (sep.SEPARABLE if expected >= 0.0 else sep.ENTANGLED), (spec, v)
            assert v.detail == want, (spec, v)
            if abs(margin) > sep.REGION_TOL:
                assert lsd.decompose(spec).method.endswith("/separable") == v.is_separable, spec
            checked += 1
    assert checked == 7 * 8 + 7 * 7 + 9 + 13 * 7


@pytest.mark.parametrize("spec", [
    st.Isotropic(d=0, F=0.5), st.Werner(d=1, f=0.1), st.Werner(d=3, f=2.0),
    st.Horodecki33(alpha=6.0), st.MultiIso(d=2, n=1, s=0.5), st.MultiIso(d=2, n=7, s=0.5),
], ids=repr)
def test_family_region_checks_ranges_before_the_threshold(spec):
    # the sizes are checked before the threshold reads them: d = 0 raises
    # the size error, not a division by zero
    with pytest.raises(InputError) as built:
        st.build(spec)
    with pytest.raises(InputError, match=f"^{re.escape(str(built.value))}$"):
        sep.family_region(spec)


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
