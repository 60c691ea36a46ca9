"""Numeric oracle: fixed weights, bisection, family search, duality."""

import math

import numpy as np
import pytest

from lsdecomp import lsd
from lsdecomp import matcore as mc
from lsdecomp import oracle as orc
from lsdecomp import states as st
from lsdecomp.errors import (
    InfeasiblePoint,
    InputError,
    NoConvergence,
    NoDualCertificate,
)

from helpers import (
    ginibre_state,
    lambda_max_bisect,
    random_unitary,
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


def test_fixed_weight_full_rank_with_a_small_eigenvalue():
    # a support projector formed as rho^(-1/2) rho rho^(-1/2) is off by up
    # to ~1e-7 on these states, enough for the leak test to read them as 0
    rng = np.random.default_rng(4)
    for _ in range(100):
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        w = rng.dirichlet([1.0] * 4)
        w[0] = 1e-8
        rho = st.DensityMatrix((u * (w / w.sum())) @ u.conj().T, (2, 2))
        sigma = ginibre_state(rng, 4, (2, 2))
        exact = lambda_max_bisect(rho, sigma, 1e-10)
        assert abs(orc.lambda_max_fixed(rho, sigma) - exact) <= 1e-9


def test_fixed_weight_dimension_check():
    with pytest.raises(InputError, match=r"state sizes differ: \(4, 4\) vs \(6, 6\)"):
        orc.lambda_max_fixed(st.make_bd22([0.25] * 4), st.make_bd23([1 / 6.0] * 6))


@pytest.mark.parametrize("check", [lambda_max_bisect, orc.bsa_as_sdp],
                         ids=["lambda_max_bisect", "bsa_as_sdp"])
def test_fixed_candidate_size_checks(check):
    with pytest.raises(InputError, match=r"state sizes differ: \(4, 4\) vs \(6, 6\)"):
        check(st.make_bd22([0.25] * 4), st.make_bd23([1 / 6.0] * 6))


def test_search_rejects_a_family_of_another_size():
    with pytest.raises(InputError, match="family size 6 != state size 4"):
        orc.bsa_search(st.make_bd22([0.7, 0.1, 0.1, 0.1]), orc.bd23_family())


def test_bisect_matches_fixed_on_spots():
    rho = st.make_bd22([0.7, 0.1, 0.1, 0.1])
    sigma = st.make_bd22([0.5, 1 / 6, 1 / 6, 1 / 6])
    assert lambda_max_bisect(rho, sigma, 1e-9) == pytest.approx(0.6, abs=1e-8)
    assert lambda_max_bisect(rho, rho, 1e-9) == pytest.approx(1.0, abs=1e-9)
    # Werner: weight of the f'=0 state inside f=-0.5 is 0.5
    assert lambda_max_bisect(
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
        b = lambda_max_bisect(rho, sigma, 1e-9)
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
    lam, sigma = orc.bsa_search(st.make_werner(2, -0.5), orc.family_for_spec(st.Werner(2, -0.5)))
    assert lam == pytest.approx(0.5, abs=1e-8)
    # the optimum sits at f' = 0
    assert np.linalg.norm(sigma.mat - st.make_werner(2, 0.0).mat) <= 1e-6


def test_search_isotropic():
    lam, sigma = orc.bsa_search(
        st.make_isotropic(3, 0.5), orc.family_for_spec(st.Isotropic(3, 0.5)))
    assert lam == pytest.approx(0.75, abs=1e-8)
    assert np.linalg.norm(sigma.mat - st.make_isotropic(3, 1 / 3).mat) <= 1e-6


def test_search_horodecki():
    lam, _ = orc.bsa_search(st.make_horodecki33(4.0), orc.family_for_spec(st.Horodecki33(4.0)))
    assert lam == pytest.approx(0.5, abs=1e-8)


def test_search_multi_iso():
    lam, _ = orc.bsa_search(
        st.make_multi_iso(2, 3, 0.6), orc.family_for_spec(st.MultiIso(2, 3, 0.6)))
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


@pytest.mark.xfail(strict=True, raises=(AssertionError, NoConvergence), reason="ROADMAP F3")
@pytest.mark.parametrize("spec", [
    # a region block of the family is nearly singular at the optimum
    st.BD23(p=(0.8, 0.0, 0.1, 0.1, 0.0, 0.0)),
    st.ICD(theta=1.5577053845612294,
           p=(0.0, 0.11459899488910194, 0.15087455547844814, 0.73452644963245)),
    st.ICD(theta=0.01, p=(0.2, 0.0, 0.05, 0.75)),
    st.ICD(theta=0.001, p=(0.2, 0.0, 0.05, 0.75)),
    st.ICD(theta=1.5697963267948966, p=(0.0001, 0.6365, 0.0, 0.3634)),
], ids=["bd23", "icd_p1_zero", "icd_theta_0.01", "icd_theta_0.001", "icd_theta_edge"])
def test_search_reaches_optimum_where_a_region_block_is_singular(spec):
    lam, _ = orc.bsa_search(st.build(spec), orc.family_for_spec(spec))
    assert abs(lam - lsd.decompose(spec).lam) <= 1e-9


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


@pytest.mark.parametrize("tol, message", [
    (math.nan, "tol must be finite"), (math.inf, "tol must be finite"),
    (-math.inf, "tol must be finite"),
    ("1e-7", "tol must be a real number, got '1e-7'"),
    (None, "tol must be a real number, got None"),
], ids=["nan", "inf", "-inf", "text", "none"])
def test_search_rejects_a_tol_that_is_not_finite(tol, message):
    # inf would stop at the start point and nan would run out of Newton steps
    with pytest.raises(InputError, match=message):
        orc.bsa_search(st.make_bd22([0.7, 0.1, 0.1, 0.1]), orc.bd22_family(), tol=tol)


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


def _psd2(case):
    """The state, the family and the optimal weight of the psd2 problem:
    max tr S over real symmetric 2x2 S >= 0 with rho - S >= 0, which is the
    trace of rho on the generators' two levels. rho does not commute with
    the generators, so the state constraint is a matrix block beside the
    region's 2x2 block: of the same size on C^2, and 4x4 on C^4, where rho
    has a second block and a local unitary makes rho and the generators
    complex. The family has no linear rows."""
    # (the half-weight third generator puts the all-ones start inside)
    gens = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 0.5], [0.5, 0]]], dtype=complex)
    region = np.array([[[1, 0, 0], [0, 0, 0.5]], [[0, 0, 0.5], [0, 1, 0]]], dtype=float)
    rho = np.array([[0.7, 0.2], [0.2, 0.3]])
    dims, weight = (2,), 1.0
    if case != "c2":
        gens = np.pad(gens.real, ((0, 0), (0, 2), (0, 2)))
        rho = np.pad(0.5 * rho, ((0, 2), (0, 2))) + np.diag([0.0, 0.0, 0.25, 0.25])
        dims, weight = (2, 2), 0.5
    if case == "c4_rotated":
        rng = np.random.default_rng(3)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        gens, rho = u @ gens @ u.conj().T, u @ rho @ u.conj().T
    fam = orc.SeparableFamily(
        name="psd2", gens=gens, rows=np.zeros((0, 3)), cones=(np.moveaxis(region[None], -1, 0),),
    )
    return st.DensityMatrix(rho, dims), fam, weight


@pytest.mark.parametrize("case", ["c2", "c4", "c4_rotated"])
def test_search_reads_matrix_blocks_in_their_own_coordinates(case):
    rho, fam, weight = _psd2(case)
    lam, _ = orc.bsa_search(rho, fam, tol=1e-9)
    assert lam == pytest.approx(weight, abs=1e-9)


# the coefficient matrices of y1, y2 and y3: the binding cone
# [[y2, y1 - y3], [y1 - y3, y3]] >= 0, and slack cones that hold at its optimum
BINDING = np.array([[[0, 1], [1, 0]], [[1, 0], [0, 0]], [[0, -1], [-1, 1]]], dtype=float)
SLACK2 = np.array([[[1, 1], [1, 1]], [[1, -1], [-1, 1]], [[1, 0], [0, 1]]], dtype=float)
SLACK3 = np.array([
    [[1, 1, 0], [1, 1, -1], [0, -1, 1]],  # y1 - y2 at (0, 1), y3 - y1 at (1, 2)
    [[1, -1, 0], [-1, 1, 0], [0, 0, 1]],
    [[1, 0, 0], [0, 1, 1], [0, 1, 1]],
], dtype=float)
BINDING3 = np.pad(BINDING, ((0, 0), (0, 1), (0, 1)))
BINDING3[0, 2, 2] = 1.0  # y1 at (2, 2)


@pytest.mark.parametrize("cones", [(BINDING, SLACK3), (BINDING3, SLACK2)], ids=["2+3", "3+2"])
def test_search_reads_cone_stacks_of_two_sizes(cones):
    # diagonal generators on C^3 below rho = diag(0.5, 0.3, 0.2): y2 and y3
    # reach rho, and the binding cone stops y1 at y3 + sqrt(y2 y3)
    gens = np.array([np.diag(row) for row in np.eye(3)])
    fam = orc.SeparableFamily("two_sizes", gens, np.eye(3), tuple(c[:, None] for c in cones))
    lam, _ = orc.bsa_search(st.DensityMatrix(np.diag([0.5, 0.3, 0.2]), (3,)), fam, tol=1e-9)
    assert lam == pytest.approx(0.7 + math.sqrt(0.06), abs=1e-9)


def test_search_backtracks_when_a_matrix_block_fails_to_factor(monkeypatch):
    # with no linear rows, every trial point that fails to factor fails in a
    # matrix block; a first step 64 times the line search's answer leaves the
    # region, and its halvings cost extra factorizations (measured: 6)
    rho, fam, _ = _psd2("c2")
    eigh, line_search = np.linalg.eigh, orc._line_search

    def search(first_scale):
        calls, steps = [], []

        def counted(mat):
            calls.append(mat.shape)
            return eigh(mat)

        def scaled(mus, slope):
            steps.append(slope)
            return line_search(mus, slope) * (first_scale if len(steps) == 1 else 1.0)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        monkeypatch.setattr(orc, "_line_search", scaled)
        lam, _ = orc.bsa_search(rho, fam, tol=1e-9)
        monkeypatch.undo()
        return lam, len(calls)

    lam, factored = search(1.0)
    lam_scaled, factored_scaled = search(64.0)
    assert abs(lam_scaled - lam) <= 1e-9
    assert factored_scaled > factored


def test_search_separable_state_reaches_one():
    for spec in (st.Werner(d=2, f=0.3), st.Werner(d=4, f=0.9), st.Isotropic(d=3, F=0.2),
                 st.Horodecki33(alpha=2.5), st.MultiIso(d=2, n=3, s=0.1)):
        lam, _ = orc.bsa_search(st.build(spec), orc.family_for_spec(spec))
        assert lam == pytest.approx(1.0, abs=1e-7), spec


@pytest.mark.parametrize("ends", [
    (st.Werner(d=3, f=0.0), st.Werner(d=3, f=1.0)),
    (st.Isotropic(d=3, F=0.0), st.Isotropic(d=3, F=1 / 3)),
    (st.Horodecki33(alpha=2.0), st.Horodecki33(alpha=3.0)),
    (st.MultiIso(d=2, n=3, s=0.0), st.MultiIso(d=2, n=3, s=0.2)),
])
def test_one_parameter_family_spans_its_separable_end_states(ends):
    # each end state is separable, and the family's two generators are them
    fam = orc.family_for_spec(ends[0])
    assert fam.gens.shape[0] == 2 and fam.cones == ()
    for spec, gen in zip(ends, fam.gens):
        assert orc.separability.family_region(spec).status == "separable"
        assert np.allclose(gen, st.build(spec).mat, atol=1e-15)


def test_search_is_deterministic():
    rho = st.make_bd22([0.62, 0.2, 0.1, 0.08])
    a, _ = orc.bsa_search(rho, orc.bd22_family(), seed=5)
    b, _ = orc.bsa_search(rho, orc.bd22_family(), seed=5)
    assert a == b


# -- the barrier search's Newton steps ----------------------------------------

def _numpy_line_search(mus, slope):
    """The line search as whole-array numpy steps: the same iteration."""
    mus = np.asarray(mus)
    neg = mus[mus < 0.0]
    lo, hi = 0.0, (-0.99 / neg.min() if neg.size else math.inf)
    a = min(1.0, 0.5 * hi)
    for _ in range(50):
        r = mus / (1.0 + a * mus)
        d1 = -slope - r.sum()
        if d1 < 0.0:
            lo = a
        else:
            hi = a
        step = a - d1 / (r @ r)
        if not lo < step < hi:
            step = 0.5 * (lo + hi) if hi < math.inf else 2.0 * a
        if abs(step - a) <= 1e-2 * a:
            return step
        a = step
    return a


def _bisection_minimizer(mus, slope):
    """Minimizer of h(a) = -slope*a - sum log(1 + a mu) over the a where
    every 1 + a mu >= 0.01, by bisection on h' to a relative 1e-12."""
    mus = np.asarray(mus)

    def dh(a):
        return -slope - float(np.sum(mus / (1.0 + a * mus)))

    cap = -0.99 / mus.min() if mus.min() < 0.0 else math.inf
    if cap < math.inf and dh(cap) <= 0.0:
        return cap
    lo, hi = 0.0, min(cap, 1.0)
    while dh(hi) < 0.0:
        lo, hi = hi, min(2.0 * hi, cap)
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if dh(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def _line_search_cases():
    """Seeded (mus, slope) draws with h'(0) < 0 and a finite minimizer."""
    rng = np.random.default_rng(41)
    cases = []
    while len(cases) < 300:
        mus = rng.normal(size=int(rng.integers(3, 19))) * 10.0 ** rng.uniform(-3, 2)
        if mus.min() < 0.0:
            cases.append((mus, -mus.sum() + abs(rng.normal()) * 10.0 ** rng.uniform(-3, 2)))
    for _ in range(50):
        # no negative mu (hi = inf): a negative slope turns h' positive
        mus = abs(rng.normal(size=6))
        cases.append((mus, -mus.sum() * rng.uniform(0.05, 0.95)))
        one = np.append(abs(rng.normal(size=5)), -abs(rng.normal()))  # one negative mu
        cases.append((one, -one.sum() + abs(rng.normal())))
        zero = np.append(one, 0.0)
        cases.append((zero, -zero.sum() + abs(rng.normal())))
        large = np.append(rng.normal(size=7), -abs(rng.normal()))  # a slope past the cap
        cases.append((large, 1e6 * rng.uniform(1, 10)))
    return cases


def test_line_search_finds_the_minimizer_to_its_precision():
    # it stops at a step of at most 1e-2 * a; within 90% of the slack cap
    # that is a relative error of at most 1e-2, and beyond, where the
    # Newton steps come back from the pole's side, of at most 3e-2 (2.2%
    # seen); the numpy iteration differs by rounding in the cancelling h'
    for mus, slope in _line_search_cases():
        mus, slope = [float(mu) for mu in mus], float(slope)
        a = orc._line_search(mus, slope)
        best = _bisection_minimizer(mus, slope)
        cap = -0.99 / min(mus) if min(mus) < 0.0 else math.inf
        assert abs(a - best) <= (1e-2 if best <= 0.9 * cap else 3e-2) * best
        assert min(1.0 + a * mu for mu in mus) >= 0.01
        assert abs(a - _numpy_line_search(mus, slope)) <= 1e-9 * a


def _raw_pure_and_mixed():
    psi = np.array([math.cos(0.5), 0.3, 0.0, math.sin(0.5)])
    pure = np.outer(psi, psi) / (psi @ psi)
    return pure, 0.7 * pure + 0.3 * np.diag([0.1, 0.2, 0.3, 0.4])


# weight and Newton steps of the search on one state per family: the
# arithmetic of a Newton step may change, its iterates may not
PINNED_SEARCHES = [
    (st.BD22(p=(0.7, 0.1, 0.1, 0.1)), 0.6000000000021815, 14),
    (st.BD22(p=(0.7, 0.3, 0.0, 0.0)), 0.6000000000024367, 28),
    (st.ICD(theta=0.5, p=(0.7, 0.1, 0.1, 0.1)), 0.6376790211579698, 19),
    (st.BD23(p=(0.6, 0.05, 0.1, 0.1, 0.1, 0.05)), 0.6232050807593064, 21),
    (st.Werner(d=3, f=-0.5), 0.500000000011613, 15),
    (st.Isotropic(d=3, F=0.6), 0.600000000011588, 15),
    (st.Horodecki33(alpha=4.0), 0.5000000000097842, 13),
    (st.MultiIso(d=2, n=3, s=0.5), 0.625000000009542, 15),
    (st.Raw(dims=(2, 2), matrix=_raw_pure_and_mixed()[1]), 0.5603890013230072, 20),
    (st.Raw(dims=(2, 2), matrix=_raw_pure_and_mixed()[0]), 1.9999999999999996e-12, 0),
]


@pytest.mark.parametrize("spec, weight, steps", PINNED_SEARCHES,
                         ids=["bd22", "bd22_rank2", "icd", "bd23", "werner", "isotropic",
                              "horodecki33", "multi_iso", "raw", "raw_pure"])
def test_search_keeps_its_weight_and_newton_steps(monkeypatch, spec, weight, steps):
    calls = []
    line_search = orc._line_search

    def counted(mus, slope):
        calls.append(slope)
        return line_search(mus, slope)

    monkeypatch.setattr(orc, "_line_search", counted)
    lam, _ = orc.bsa_search(st.build(spec), orc.family_for_spec(spec))
    assert abs(lam - weight) <= 1e-13
    assert len(calls) == steps


def test_raw_family_with_two_flip_weights_is_their_equal_mixture():
    rho = st.make_raw((2, 2), st.make_bd22([0.7, 0.3, 0.0, 0.0]).mat)
    fam = orc.wootters_family(rho)
    assert fam.gens.shape[0] == 1
    lam, sigma = orc.bsa_search(rho, fam)
    assert lam == pytest.approx(0.6, abs=1e-9)
    assert np.allclose(sigma.mat, st.make_bd22([0.5, 0.5, 0.0, 0.0]).mat, atol=1e-9)


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
    assert np.allclose(prob.f0, rho.mat)
    assert np.allclose(prob.f1, -sigma.mat)
    # L = 0 is always feasible, and the constraint is active at the optimum
    assert mc.is_psd(prob.f0)
    lam = orc.lambda_max_fixed(rho, sigma)
    f_at = prob.f0 + lam * prob.f1
    assert abs(np.linalg.eigvalsh(f_at)[0]) <= 1e-8
    # the reported primal value is -lambda_max
    assert orc.duality_check(prob, np.array([lam])).primal_value == pytest.approx(-0.6, abs=1e-12)


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


def test_duality_psd_f1_has_no_nonnegative_scaling():
    # F(0) = diag(1, 0) has kernel e2, and tr(f1 P) = 1 > 0 on it, so no Z >= 0
    # meets the dual equality tr(f1 Z) = -1
    problem = orc.SdpProblem(f0=np.diag([1.0, 0.0]), f1=np.eye(2))
    with pytest.raises(NoDualCertificate, match="no nonnegative dual scaling exists"):
        orc.duality_check(problem, np.array([0.0]))


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
