"""Numeric oracle: fixed weights, bisection, family search, duality."""

import numpy as np
import pytest

from lsdecomp import lsd
from lsdecomp import matcore as mc
from lsdecomp import oracle as orc
from lsdecomp import states as st
from lsdecomp.errors import (
    DimensionMismatch,
    InfeasiblePoint,
    NoConvergence,
    NoDualCertificate,
)

from helpers import (
    ginibre_state,
    sample_entangled_2q,
    sample_entangled_bd22,
    sample_entangled_bd23,
    sample_entangled_icd,
)


# -- lambda_max --------------------------------------------------------------

def test_fixed_weight_commuting_min_ratio():
    rho = st.make_bd22([0.7, 0.1, 0.1, 0.1])
    sigma = st.make_bd22([0.5, 1 / 6, 1 / 6, 1 / 6])
    # commuting case: min_i p_i / p'_i = min(1.4, 0.6, 0.6, 0.6)
    assert orc.lambda_max_fixed(rho, sigma) == pytest.approx(0.6, abs=1e-12)


def test_fixed_weight_self():
    rho = st.make_werner(3, -0.3)
    assert orc.lambda_max_fixed(rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_fixed_weight_support_mismatch_is_zero():
    pure = st.make_bd22([1, 0, 0, 0])
    sigma = st.make_bd22([0, 0, 0.5, 0.5])
    assert orc.lambda_max_fixed(pure, sigma) == 0.0


def test_fixed_weight_dimension_check():
    with pytest.raises(DimensionMismatch):
        orc.lambda_max_fixed(st.make_bd22([0.25] * 4), st.make_bd23([1 / 6.0] * 6))


def test_bisect_matches_fixed_on_spots():
    rho = st.make_bd22([0.7, 0.1, 0.1, 0.1])
    sigma = st.make_bd22([0.5, 1 / 6, 1 / 6, 1 / 6])
    assert orc.lambda_max_bisect(rho, sigma, 1e-9) == pytest.approx(0.6, abs=1e-8)
    assert orc.lambda_max_bisect(rho, rho, 1e-9) == pytest.approx(1.0, abs=1e-9)
    # Werner: weight of the f'=0 state inside f=-0.5 is 0.5
    assert orc.lambda_max_bisect(
        st.make_werner(2, -0.5), st.make_werner(2, 0.0), 1e-9
    ) == pytest.approx(0.5, abs=1e-8)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_bisect_agrees_with_fixed_random(dims):
    rng = np.random.default_rng(dims[0] * 10 + dims[1])
    n = dims[0] * dims[1]
    for _ in range(500):
        rho = ginibre_state(rng, n, dims)
        sigma = ginibre_state(rng, n, dims)
        a = orc.lambda_max_fixed(rho, sigma)
        b = orc.lambda_max_bisect(rho, sigma, 1e-9)
        assert abs(a - b) <= 1e-8


def test_min_eig_monotone_in_weight():
    rng = np.random.default_rng(1)
    for _ in range(20):
        rho = ginibre_state(rng, 4, (2, 2))
        sigma = ginibre_state(rng, 4, (2, 2))
        grid = np.linspace(0.0, 1.0, 21)
        vals = [np.linalg.eigvalsh(rho.mat - t * sigma.mat)[0] for t in grid]
        assert np.all(np.diff(vals) <= 1e-12)


# -- family search -----------------------------------------------------------

def test_search_werner():
    lam, sigma = orc.bsa_search(st.make_werner(2, -0.5), orc.werner_family(2))
    assert lam == pytest.approx(0.5, abs=1e-8)
    # the optimum sits at f' = 0
    assert np.linalg.norm(sigma.mat - st.make_werner(2, 0.0).mat) <= 1e-6


def test_search_isotropic():
    lam, sigma = orc.bsa_search(st.make_isotropic(3, 0.5), orc.isotropic_family(3))
    assert lam == pytest.approx(0.75, abs=1e-8)
    assert np.linalg.norm(sigma.mat - st.make_isotropic(3, 1 / 3).mat) <= 1e-6


def test_search_horodecki():
    lam, _ = orc.bsa_search(st.make_horodecki33(4.0), orc.horodecki33_family())
    assert lam == pytest.approx(0.5, abs=1e-8)


def test_search_multi_iso():
    lam, _ = orc.bsa_search(st.make_multi_iso(2, 3, 0.6), orc.multi_iso_family(2, 3))
    assert lam == pytest.approx(0.5, abs=1e-8)


def test_search_bd22_octahedron():
    rho = st.make_bd22([0.7, 0.1, 0.1, 0.1])
    lam, sigma = orc.bsa_search(rho, orc.bd22_family())
    assert lam == pytest.approx(0.6, abs=1e-7)
    verdict = orc.separability.ppt_check(sigma)
    assert verdict.status == "separable"


def test_search_matches_closed_forms_random():
    rng = np.random.default_rng(2)
    for i in range(8):
        p = sample_entangled_bd22(rng)
        lam, _ = orc.bsa_search(st.make_bd22(p), orc.bd22_family(), seed=i)
        assert abs(lam - lsd.lsd_bd22(p).lam) <= 1e-6
    for i in range(8):
        theta, p = sample_entangled_icd(rng)
        lam, _ = orc.bsa_search(st.make_icd(theta, p), orc.icd_family(theta), seed=i)
        assert abs(lam - lsd.lsd_icd(theta, p).lam) <= 1e-6
    for i in range(6):
        rho = sample_entangled_2q(rng)
        lam, _ = orc.bsa_search(rho, orc.wootters_family(rho), seed=i)
        assert abs(lam - lsd.lsd_wootters(rho).lam) <= 1e-6
    for i in range(6):
        p, dec = sample_entangled_bd23(rng)
        lam, _ = orc.bsa_search(st.make_bd23(p), orc.bd23_family(), seed=i)
        assert abs(lam - dec.lam) <= 1e-6


@pytest.mark.parametrize("spec", [
    st.BD22(p=(0.7, 0.3, 0.0, 0.0)),
    st.BD22(p=(0.0, 0.2, 0.0, 0.8)),
    st.BD22(p=(0.9, 0.1, 0.0, 0.0)),
    st.ICD(theta=0.6, p=(0.7, 0.3, 0.0, 0.0)),
])
def test_search_rank_deficient_states(spec):
    # two zero weights: every candidate with weight on them leaves the
    # support, so the search has to start inside the support
    rho = st.build(spec)
    lam, sigma = orc.bsa_search(rho, orc.family_for_spec(spec))
    assert abs(lam - lsd.decompose(spec).lam) <= 1e-6
    assert np.linalg.eigvalsh(rho.mat - lam * sigma.mat)[0] >= -1e-9


@pytest.mark.parametrize("spec", [
    # entangled states with a weight near zero
    st.ICD(theta=0.631792478401638, p=(0.0035284521261180124, 0.55242046807794,
                                       0.0013215394550032751, 0.4427295403409386)),
    st.BD23(p=(0.0043524345591888815, 0.0736911069353176, 0.3586149275461722,
               0.5389321816221228, 0.015884141908899033, 0.0085252074282995)),
    st.BD22(p=(0.0194305135524357, 0.3513975578595278, 0.5772468019503505,
               0.05192512663768602)),
])
def test_search_reaches_optimum_at_small_weights(spec):
    rho = st.build(spec)
    lam, sigma = orc.bsa_search(rho, orc.family_for_spec(spec))
    assert abs(lam - lsd.decompose(spec).lam) <= 1e-9
    assert np.linalg.eigvalsh(rho.mat - lam * sigma.mat)[0] >= -1e-9


def test_search_icd_near_zero_weights():
    rng = np.random.default_rng(41)
    done = 0
    while done < 200:
        theta = rng.uniform(0.35, np.pi / 2 - 0.35)
        p = rng.dirichlet(np.ones(4))
        if p.min() >= 0.005:
            continue
        lam, _ = orc.bsa_search(st.make_icd(theta, p), orc.icd_family(theta))
        assert abs(lam - lsd.lsd_icd(theta, p).lam) <= 1e-9, (theta, p)
        done += 1


def test_search_ignores_seed():
    rho = st.make_bd23([0.45, 0.05, 0.2, 0.1, 0.15, 0.05])
    weights = {orc.bsa_search(rho, orc.bd23_family(), seed=k)[0] for k in range(4)}
    assert len(weights) == 1


@pytest.mark.parametrize("tol", [1e-12, 0.0, -1.0])
def test_search_tolerance_below_the_attainable_gap(tol):
    # the gap target is floored where double precision still resolves it
    spec = st.BD23(p=(0.45, 0.05, 0.2, 0.1, 0.15, 0.05))
    lam, _ = orc.bsa_search(st.build(spec), orc.bd23_family(), tol=tol)
    assert abs(lam - lsd.decompose(spec).lam) <= 1e-10


def test_search_failures_raise_no_convergence(monkeypatch):
    rho = st.make_bd22([0.7, 0.1, 0.1, 0.1])
    monkeypatch.setattr(orc, "MAX_NEWTON", 2)
    with pytest.raises(NoConvergence, match="did not converge"):
        orc.bsa_search(rho, orc.bd22_family())
    monkeypatch.undo()
    monkeypatch.setattr(orc, "_line_search", lambda mus, slope: float("nan"))
    with pytest.raises(NoConvergence, match="not finite"):
        orc.bsa_search(rho, orc.bd22_family())
    monkeypatch.undo()
    # the region is bounded, so every halving of a huge step stays outside
    monkeypatch.setattr(orc, "_line_search", lambda mus, slope: 1e30)
    with pytest.raises(NoConvergence, match="stays inside"):
        orc.bsa_search(rho, orc.bd22_family())


def test_search_separable_state_reaches_one():
    lam, _ = orc.bsa_search(st.make_werner(2, 0.3), orc.werner_family(2))
    assert lam == pytest.approx(1.0, abs=1e-7)


def test_search_is_deterministic():
    rho = st.make_bd22([0.62, 0.2, 0.1, 0.08])
    a, _ = orc.bsa_search(rho, orc.bd22_family(), seed=5)
    b, _ = orc.bsa_search(rho, orc.bd22_family(), seed=5)
    assert a == b


def test_family_for_spec_dispatch():
    assert orc.family_for_spec(st.Werner(d=2, f=-0.5)).name == "werner"
    assert orc.family_for_spec(st.BD22(p=(0.7, 0.1, 0.1, 0.1))).name == "bd22"
    raw = st.Raw(dims=(2, 2), matrix=st.make_bd22([0.7, 0.1, 0.1, 0.1]).mat)
    assert orc.family_for_spec(raw).name == "wootters"


# -- SDP phrasing and duality -------------------------------------------------

def test_bsa_as_sdp_structure():
    rho = st.make_bd22([0.7, 0.1, 0.1, 0.1])
    sigma = st.make_bd22([0.5, 1 / 6, 1 / 6, 1 / 6])
    prob = orc.bsa_as_sdp(rho, sigma)
    assert np.allclose(prob.c, [-1.0])
    assert np.allclose(prob.f0, rho.mat)
    assert np.allclose(prob.fis[0], -sigma.mat)
    # L = 0 is always feasible, and the constraint is active at the optimum
    assert mc.is_psd(prob.f0)
    lam = orc.lambda_max_fixed(rho, sigma)
    f_at = prob.f0 + lam * prob.fis[0]
    assert abs(np.linalg.eigvalsh(f_at)[0]) <= 1e-8
    # optimal objective value is -lambda_max
    assert prob.c @ np.array([lam]) == pytest.approx(-0.6, abs=1e-12)


def test_duality_certificate_at_optimum():
    rho = st.make_bd22([0.7, 0.1, 0.1, 0.1])
    sigma = st.make_bd22([0.5, 1 / 6, 1 / 6, 1 / 6])
    prob = orc.bsa_as_sdp(rho, sigma)
    rep = orc.duality_check(prob, np.array([0.6]))
    assert rep.primal_value == pytest.approx(-0.6)
    assert rep.gap == pytest.approx(0.0, abs=1e-9)
    assert rep.gap >= -1e-9
    assert rep.slackness_residual <= 1e-9


def test_duality_interior_point_has_no_certificate():
    rho = st.make_bd22([0.7, 0.1, 0.1, 0.1])
    sigma = st.make_bd22([0.5, 1 / 6, 1 / 6, 1 / 6])
    prob = orc.bsa_as_sdp(rho, sigma)
    with pytest.raises(NoDualCertificate):
        orc.duality_check(prob, np.array([0.5]))


def test_duality_infeasible_point_detected():
    rho = st.make_bd22([0.7, 0.1, 0.1, 0.1])
    sigma = st.make_bd22([0.5, 1 / 6, 1 / 6, 1 / 6])
    prob = orc.bsa_as_sdp(rho, sigma)
    with pytest.raises(InfeasiblePoint):
        orc.duality_check(prob, np.array([0.7]))


def test_duality_weak_duality_on_random_optima():
    rng = np.random.default_rng(3)
    for _ in range(50):
        rho = ginibre_state(rng, 4, (2, 2))
        sigma = ginibre_state(rng, 4, (2, 2))
        lam = orc.lambda_max_fixed(rho, sigma)
        rep = orc.duality_check(orc.bsa_as_sdp(rho, sigma), np.array([lam]))
        assert rep.gap >= -1e-9
        assert rep.gap <= 1e-6
        assert rep.slackness_residual <= 1e-6


def test_duality_rank_deficient_candidate():
    # the alpha-state separable part shares a kernel with the state; the
    # certificate must still exist at the optimum and fail below it
    rho = st.make_horodecki33(4.0)
    sigma = st.make_horodecki33(3.0)
    prob = orc.bsa_as_sdp(rho, sigma)
    rep = orc.duality_check(prob, np.array([0.5]))
    assert abs(rep.gap) <= 1e-9 and rep.slackness_residual <= 1e-9
    with pytest.raises(NoDualCertificate):
        orc.duality_check(prob, np.array([0.4]))
