"""Closed-form decompositions: weights, structure, verification."""

from dataclasses import replace

import numpy as np
import pytest

from lsdecomp import lsd
from lsdecomp import separability as sep
from lsdecomp import states as st
from lsdecomp import wootters as wo
from lsdecomp.errors import InputError, NumericalError

from helpers import (
    ginibre_state,
    sample_entangled_2q,
    sample_entangled_bd22,
    sample_entangled_bd23,
    sample_entangled_icd,
    zero_flip_states,
)


def check_decomposition(rho: st.DensityMatrix, dec: lsd.LSDecomposition):
    np.testing.assert_array_equal(dec.state.mat, rho.mat)
    report = lsd.verify(dec)
    assert report.residual_norm <= 1e-10
    assert report.residual_min_eig >= -1e-9
    assert report.separable_verdict.status != sep.ENTANGLED
    assert abs(np.trace(dec.entangled_part).real - (1.0 - dec.lam)) <= 1e-9
    return report


# -- bd22 -------------------------------------------------------------------

def test_bd22_weight_and_parts():
    dec = lsd.lsd_bd22([0.7, 0.1, 0.1, 0.1])
    assert dec.lam == pytest.approx(0.6, abs=1e-15)
    # separable weights (1/2, 1/6, 1/6, 1/6) on the Bell basis
    basis = st.bell_basis_22()
    weights = np.real(np.einsum("ij,jk,ik->i", basis.conj(), dec.separable_part.mat, basis))
    assert np.allclose(weights, [0.5, 1 / 6, 1 / 6, 1 / 6], atol=1e-12)
    # pure residual of weight 2 p1 - 1 on the dominant Bell projector
    psi = basis[0]
    assert np.linalg.norm(dec.entangled_part - 0.4 * np.outer(psi, psi.conj())) <= 1e-12
    report = check_decomposition(st.make_bd22([0.7, 0.1, 0.1, 0.1]), dec)
    assert report.residual_rank == 1
    assert report.entangled_purity == pytest.approx(1.0, abs=1e-10)


def test_bd22_boundary_and_vertex():
    dec = lsd.lsd_bd22([0.5, 0.3, 0.1, 0.1])
    assert dec.lam == 1.0
    assert np.linalg.norm(dec.entangled_part) == 0.0
    dec = lsd.lsd_bd22([1, 0, 0, 0])
    assert dec.lam == 0.0
    psi = st.bell_basis_22()[0]
    assert np.linalg.norm(dec.entangled_part - np.outer(psi, psi.conj())) <= 1e-12


def test_bd22_dominant_index_permutations():
    for k in range(4):
        p = np.full(4, 0.1)
        p[k] = 0.7
        dec = lsd.lsd_bd22(p)
        assert dec.lam == pytest.approx(0.6, abs=1e-15)
        psi = st.bell_basis_22()[k]
        assert np.linalg.norm(dec.entangled_part - 0.4 * np.outer(psi, psi.conj())) <= 1e-12
        check_decomposition(st.make_bd22(p), dec)


def test_bd22_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = sample_entangled_bd22(rng)
        dec = lsd.lsd_bd22(p)
        assert dec.lam == pytest.approx(2.0 * (1.0 - p.max()), abs=1e-12)
        check_decomposition(st.make_bd22(p), dec)


def test_bd22_entangled_weight_equals_concurrence():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = sample_entangled_bd22(rng)
        dec = lsd.lsd_bd22(p)
        conc = wo.concurrence(st.make_bd22(p))
        assert 1.0 - dec.lam == pytest.approx(2.0 * p.max() - 1.0, abs=1e-10)
        assert conc == pytest.approx(2.0 * p.max() - 1.0, abs=1e-10)


# -- icd --------------------------------------------------------------------

def test_icd_weight_example():
    dec = lsd.lsd_icd(np.pi / 6, [0.6, 0.2, 0.1, 0.1])
    expected = 1.0 - 0.4 + np.sqrt(0.04 / np.sin(np.pi / 3) ** 2)
    assert expected == pytest.approx(0.83094, abs=5e-6)
    assert dec.lam == pytest.approx(expected, abs=1e-14)
    check_decomposition(st.make_icd(np.pi / 6, [0.6, 0.2, 0.1, 0.1]), dec)


def test_icd_reduces_to_bd22_at_pi4():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = rng.dirichlet(np.ones(4))
        a, b = lsd.lsd_bd22(p), lsd.lsd_icd(np.pi / 4, p)
        assert abs(a.lam - b.lam) <= 1e-10


def test_icd_uniform_is_separable():
    assert lsd.lsd_icd(0.7, [0.25] * 4).lam == 1.0


def test_icd_pure_vertex_has_zero_weight():
    dec = lsd.lsd_icd(0.6, [1, 0, 0, 0])
    assert dec.lam == 0.0
    phi = st.iso_basis(0.6)[0]
    assert np.linalg.norm(dec.entangled_part - np.outer(phi, phi.conj())) <= 1e-12


def test_icd_all_chambers():
    for k, p in enumerate(([0.7, 0.1, 0.1, 0.1],
                           [0.1, 0.7, 0.1, 0.1],
                           [0.1, 0.05, 0.8, 0.05],
                           [0.05, 0.1, 0.05, 0.8])):
        for theta in (0.5, np.pi / 4, 1.0):
            rho = st.make_icd(theta, p)
            if sep.icd_region(theta, p).status != sep.ENTANGLED:
                continue
            dec = lsd.lsd_icd(theta, p)
            report = check_decomposition(rho, dec)
            assert report.residual_rank == 1
            # residual sits on the dominant basis vector
            phi = st.iso_basis(theta)[k]
            overlap = np.real(phi.conj() @ dec.entangled_part @ phi)
            assert overlap == pytest.approx(1.0 - dec.lam, abs=1e-10)


def test_icd_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(100):
        theta, p = sample_entangled_icd(rng)
        dec = lsd.lsd_icd(theta, p)
        report = check_decomposition(st.make_icd(theta, p), dec)
        assert report.entangled_purity == pytest.approx(1.0, abs=1e-8)


def test_icd_residual_weight_is_concurrence_over_sin2theta():
    rng = np.random.default_rng(30)
    for _ in range(100):
        theta, p = sample_entangled_icd(rng)
        dec = lsd.lsd_icd(theta, p)
        conc = wo.concurrence(st.make_icd(theta, p))
        assert 1.0 - dec.lam == pytest.approx(conc / np.sin(2 * theta), abs=1e-10)


# -- wootters ---------------------------------------------------------------

def test_wootters_on_bell_diagonal_matches_bd22():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = sample_entangled_bd22(rng)
        a = lsd.lsd_bd22(p)
        b = lsd.lsd_wootters(st.make_bd22(p))
        assert abs(a.lam - b.lam) <= 1e-8


def test_wootters_singlet():
    singlet = st.make_bd22([0, 0, 0, 1])
    dec = lsd.lsd_wootters(singlet)
    assert dec.lam == 0.0
    assert np.linalg.norm(dec.entangled_part - singlet.mat) <= 1e-12


def test_wootters_separable_input():
    rng = np.random.default_rng(5)
    found = 0
    while found < 20:
        from helpers import ginibre_state

        rho = ginibre_state(rng, 4, (2, 2))
        if wo.concurrence(rho) > 0.0:
            continue
        found += 1
        dec = lsd.lsd_wootters(rho)
        assert dec.lam == 1.0
        assert sep.ppt_check(rho).status == sep.SEPARABLE


def test_wootters_random_entangled():
    rng = np.random.default_rng(6)
    for _ in range(100):
        rho = sample_entangled_2q(rng)
        dec = lsd.lsd_wootters(rho)
        data = wo.wootters_basis(rho)
        assert dec.lam == pytest.approx(1.0 - data.k[0] * data.concurrence, abs=1e-10)
        report = check_decomposition(rho, dec)
        assert report.residual_rank == 1
        assert report.entangled_purity == pytest.approx(1.0, abs=1e-7)
        # residual is C |x'_1><x'_1|
        expected = data.concurrence * np.outer(
            data.x_prime_vectors[0], data.x_prime_vectors[0].conj()
        )
        assert np.linalg.norm(dec.entangled_part - expected) <= 1e-9


@pytest.mark.parametrize("name", ["rank3", "one_flip"])
def test_wootters_puts_product_support_vectors_in_the_separable_part(name):
    # |01> has no flip weight; left in the residual it cost the rank-3 state
    # 0.3 of weight (0.4 for 0.7) and the one-flip state all of it (0 for 0.4)
    mat, lam = zero_flip_states()[name]
    rho = st.make_raw((2, 2), mat)
    dec = lsd.lsd_wootters(rho)
    assert dec.method == "wootters"
    assert abs(dec.lam - (1.0 - wo.concurrence(rho))) <= 1e-12
    assert dec.lam == pytest.approx(lam, abs=1e-12)
    assert check_decomposition(rho, dec).residual_rank == 1


@pytest.mark.parametrize("name", ["mixed", "pure"])
def test_wootters_rejects_a_separable_part_that_fails_ppt(monkeypatch, name):
    # the one split whose separable part is not separable by construction
    if name == "mixed":
        rho = sample_entangled_2q(np.random.default_rng(8))
    else:
        rho = st.make_bd22([1.0, 0.0, 0.0, 0.0])
    assert lsd.lsd_wootters(rho).lam < 1.0
    entangled = sep.SeparabilityVerdict(status=sep.ENTANGLED, margin=-1.0, detail="ppt")
    monkeypatch.setattr(sep, "ppt_check", lambda rho, tol=sep.PPT_TOL: entangled)
    with pytest.raises(NumericalError, match="separable part failed its separability check"):
        lsd.lsd_wootters(rho)


def test_wootters_dims_check():
    with pytest.raises(InputError, match=r"expected dims \(2, 2\), got \(2, 3\)"):
        lsd.lsd_wootters(st.make_bd23([1 / 6.0] * 6))


# -- bd23 -------------------------------------------------------------------

def test_bd23_weight_example():
    dec = lsd.lsd_bd23([0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
    assert dec.lam == pytest.approx(0.8, abs=1e-15)
    report = check_decomposition(st.make_bd23([0.5, 0.1, 0.1, 0.1, 0.1, 0.1]), dec)
    assert report.residual_rank == 1
    assert report.entangled_purity == pytest.approx(1.0, abs=1e-10)


def test_bd23_boundary_cases():
    assert lsd.lsd_bd23([1 / 6.0] * 6).lam == 1.0
    dec = lsd.lsd_bd23([1, 0, 0, 0, 0, 0])
    assert dec.lam == 0.0


def test_bd23_pair_symmetry():
    # dominant member in any pair and either slot gives the same weight
    for p in (
        [0.1, 0.1, 0.5, 0.1, 0.1, 0.1],
        [0.1, 0.1, 0.1, 0.1, 0.5, 0.1],
        [0.1, 0.5, 0.1, 0.1, 0.1, 0.1],
        [0.1, 0.1, 0.1, 0.1, 0.1, 0.5],
    ):
        dec = lsd.lsd_bd23(p)
        assert dec.lam == pytest.approx(0.8, abs=1e-12)
        check_decomposition(st.make_bd23(p), dec)


def test_bd23_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(60):
        p, dec = sample_entangled_bd23(rng)
        report = check_decomposition(st.make_bd23(p), dec)
        assert report.residual_rank == 1


def test_bd23_uncovered_chambers_raise():
    from lsdecomp.errors import DecompositionUnavailable

    # single violated inequality, but the pure-residual separable part
    # leaves the region
    with pytest.raises(DecompositionUnavailable):
        lsd.lsd_bd23([0.71, 0.0, 0.21, 0.0, 0.08, 0.0])
    # two violated inequalities
    with pytest.raises(DecompositionUnavailable):
        lsd.lsd_bd23([0.5, 0.1, 0.3, 0.1, 0.0, 0.0])
    # the same error propagates through decompose()
    with pytest.raises(DecompositionUnavailable):
        lsd.decompose(st.BD23(p=(0.5, 0.1, 0.3, 0.1, 0.0, 0.0)))


# -- near-pure states -------------------------------------------------------

NEAR_PURE_GAPS = (1e-14, 1e-11, 1e-9, 1e-7, 1e-5)


def near_pure(gap: float, k: int, shares) -> np.ndarray:
    """Weight 1 - gap on index k, the gap shared out over the others."""
    return np.insert(gap * np.asarray(shares), k, 1.0 - gap)


@pytest.mark.parametrize("gap", NEAR_PURE_GAPS)
def test_near_pure_bell_type_states_decompose(gap):
    # 1 - p_max carries ~1e-16 of rounding that a small lam magnifies unless
    # it is summed from the small weights
    for k in range(4):
        p = near_pure(gap, k, [0.2, 0.3, 0.5])
        dec = lsd.lsd_bd22(p)
        assert dec.method == "bd22"
        assert dec.lam == pytest.approx(2.0 * gap, rel=1e-9)
        check_decomposition(st.make_bd22(p), dec)
        for theta in (0.4, np.pi / 4, 1.1):
            dec = lsd.lsd_icd(theta, p)
            assert dec.method == "icd"
            assert check_decomposition(st.make_icd(theta, p), dec).residual_rank == 1
    for k in (0, 3, 4):
        p = near_pure(gap, k, [0.1, 0.2, 0.3, 0.1, 0.3])
        dec = lsd.lsd_bd23(p)
        assert dec.method == "bd23"
        assert check_decomposition(st.make_bd23(p), dec).residual_rank == 1


@pytest.mark.parametrize("eps", (1e-5, 1e-3))
def test_near_pure_raw_states_decompose(eps):
    rng = np.random.default_rng(11)
    psis = [np.array([np.cos(0.5), 0.3, 0.0, np.sin(0.5)])]
    psis += [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(40)]
    for psi in psis:
        psi = psi / np.linalg.norm(psi)
        rho = st.make_raw((2, 2), (1.0 - eps) * np.outer(psi, psi.conj()) + eps * np.eye(4) / 4)
        dec = lsd.lsd_wootters(rho)
        assert dec.method == "wootters"
        check_decomposition(rho, dec)


@pytest.mark.parametrize("eps", (1e-9, 1e-10))
def test_near_pure_raw_states_pass_ppt_on_their_unnormalized_part(eps):
    # lam is about eps, so the separable part, divided by lam, carries a PPT
    # margin of rounding near -2e-8; lam times it meets PPT_TOL
    rng = np.random.default_rng(29)
    for _ in range(50):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        rho = st.make_raw((2, 2), (1.0 - eps) * np.outer(psi, psi.conj()) + eps * np.eye(4) / 4)
        dec = lsd.lsd_wootters(rho)
        assert dec.method == "wootters" and dec.lam < 1e-7
        check_decomposition(rho, dec)


# -- one-parameter families -------------------------------------------------

def test_werner_weights_and_residual():
    dec = lsd.decompose(st.Werner(2, -1.0))
    assert dec.lam == 0.0
    singlet = st.make_bd22([0, 0, 0, 1])
    assert np.linalg.norm(dec.entangled_part - singlet.mat) <= 1e-12

    dec = lsd.decompose(st.Werner(2, -0.5))
    assert dec.lam == pytest.approx(0.5, abs=1e-15)
    report = check_decomposition(st.make_werner(2, -0.5), dec)
    assert report.residual_rank == 1

    dec = lsd.decompose(st.Werner(3, -0.5))
    assert dec.lam == pytest.approx(0.5, abs=1e-15)
    assert np.trace(dec.entangled_part).real == pytest.approx(0.5, abs=1e-12)
    report = check_decomposition(st.make_werner(3, -0.5), dec)
    assert report.residual_rank == 3  # antisymmetric projector d(d-1)/2


def test_werner_separable_side():
    assert lsd.decompose(st.Werner(3, 0.2)).lam == 1.0


def test_isotropic_weights():
    dec = lsd.decompose(st.Isotropic(3, 0.5))
    assert dec.lam == pytest.approx(0.75, abs=1e-15)
    report = check_decomposition(st.make_isotropic(3, 0.5), dec)
    assert report.residual_rank == 1
    assert lsd.decompose(st.Isotropic(3, 1 / 3)).lam == 1.0
    assert lsd.decompose(st.Isotropic(3, 1.0)).lam == pytest.approx(0.0, abs=1e-15)


def test_horodecki_weights_and_affine_identity():
    dec = lsd.decompose(st.Horodecki33(4.0))
    assert dec.lam == pytest.approx(0.5, abs=1e-15)
    recon = 0.5 * st.make_horodecki33(3.0).mat + 0.5 * st.make_horodecki33(5.0).mat
    assert np.linalg.norm(st.make_horodecki33(4.0).mat - recon) <= 1e-14
    report = check_decomposition(st.make_horodecki33(4.0), dec)
    assert report.residual_rank == 4
    assert lsd.decompose(st.Horodecki33(3.0)).lam == 1.0
    dec = lsd.decompose(st.Horodecki33(5.0))
    assert dec.lam == 0.0
    assert np.linalg.norm(dec.entangled_part - st.make_horodecki33(5.0).mat) <= 1e-12


def test_multi_iso_weights():
    dec = lsd.decompose(st.MultiIso(2, 3, 0.6))
    assert dec.lam == pytest.approx(0.5, abs=1e-14)
    report = check_decomposition(st.make_multi_iso(2, 3, 0.6), dec)
    assert report.residual_rank == 1
    assert lsd.decompose(st.MultiIso(2, 3, 0.2)).lam == 1.0
    assert lsd.decompose(st.MultiIso(2, 3, 1.0)).lam == pytest.approx(0.0, abs=1e-14)
    assert lsd.decompose(st.MultiIso(3, 2, 0.5)).lam == pytest.approx(
        (1 - 0.5) * (1 + 3) / 3, abs=1e-14
    )


# each size of the one-parameter families at its entangled end, with the
# parameter 1e-12 past that end, which the range checks accept
PAST_THE_END = [
    *[(st.Werner(d=d, f=-1.0), "f", -1.0 - 1e-12) for d in range(2, 9)],
    *[(st.Isotropic(d=d, F=1.0), "F", 1.0 + 1e-12) for d in range(2, 9)],
    (st.Horodecki33(alpha=5.0), "alpha", 5.0 + 1e-12),
    *[(st.MultiIso(d=d, n=n, s=1.0), "s", 1.0 + 1e-12)
      for d in range(2, 9) for n in range(2, 7) if d**n <= st.MAX_SIZE],
]


@pytest.mark.parametrize("end, field, past", PAST_THE_END,
                         ids=[repr(end) for end, _, _ in PAST_THE_END])
def test_a_value_just_past_the_entangled_end_splits_as_that_end(end, field, past):
    # the state is built at the end, so its weight is the end's 0, not the
    # formula's -1e-12 or so
    dec, exact = lsd.decompose(replace(end, **{field: past})), lsd.decompose(end)
    assert dec.lam == exact.lam == 0.0
    assert dec.method == exact.method
    for part in ("state", "separable_part"):
        np.testing.assert_array_equal(getattr(dec, part).mat, getattr(exact, part).mat)
    np.testing.assert_array_equal(dec.entangled_part, exact.entangled_part)


@pytest.mark.parametrize("first, second", [
    (st.Werner(d=3, f=-0.5), st.Werner(d=3.0, f=-0.2)),
    (st.Isotropic(d=3, F=0.5), st.Isotropic(d=3.0, F=0.9)),
    (st.Horodecki33(alpha=4.0), st.Horodecki33(alpha=4.5)),
    (st.MultiIso(d=2, n=6, s=0.5), st.MultiIso(d=2.0, n=6.0, s=0.7)),
], ids=["werner", "isotropic", "horodecki33", "multi_iso"])
def test_splits_of_one_size_share_one_read_only_separable_part(first, second):
    a, b = lsd.decompose(first), lsd.decompose(second)
    assert a.separable_part is b.separable_part
    assert not a.separable_part.mat.flags.writeable


@pytest.mark.parametrize("spec, lam", [
    (st.Isotropic(d=3.5, F=0.5), 0.75),
    (st.MultiIso(d=2.5, n=3, s=0.5), 0.625),
], ids=["isotropic", "multi_iso"])
def test_fractional_sizes_are_not_split_as_a_smaller_state(spec, lam):
    # truncating d would split the d = 3 and d = 2 states with the weights of
    # the fractional d, 0.7 and 0.58, below their optima listed here
    with pytest.raises(InputError, match="must be an integer"):
        lsd.decompose(spec)
    whole = type(spec)(**{**vars(spec), "d": int(spec.d)})
    assert lsd.decompose(whole).lam == pytest.approx(lam, abs=1e-14)


# -- maximality, dispatch, verification --------------------------------------

def test_weight_is_maximal_within_family():
    rng = np.random.default_rng(9)
    cases = []
    for _ in range(20):
        p = sample_entangled_bd22(rng)
        cases.append((st.make_bd22(p), lsd.lsd_bd22(p)))
        theta, q = sample_entangled_icd(rng)
        cases.append((st.make_icd(theta, q), lsd.lsd_icd(theta, q)))
    cases.append((st.make_werner(3, -0.5), lsd.decompose(st.Werner(3, -0.5))))
    cases.append((st.make_isotropic(3, 0.5), lsd.decompose(st.Isotropic(3, 0.5))))
    cases.append((st.make_horodecki33(4.0), lsd.decompose(st.Horodecki33(4.0))))
    cases.append((st.make_multi_iso(2, 3, 0.6), lsd.decompose(st.MultiIso(2, 3, 0.6))))
    from lsdecomp import matcore as mc

    for rho, dec in cases:
        bumped = rho.mat - (dec.lam + 1e-4) * dec.separable_part.mat
        assert not mc.is_psd(bumped, 1e-12)


def test_decompose_dispatch():
    assert lsd.decompose(st.Werner(d=2, f=-0.5)).lam == pytest.approx(0.5)
    assert lsd.decompose(st.BD22(p=(0.7, 0.1, 0.1, 0.1))).lam == pytest.approx(0.6)
    raw = st.Raw(dims=(2, 2), matrix=st.make_bd22([0.7, 0.1, 0.1, 0.1]).mat)
    assert lsd.decompose(raw).lam == pytest.approx(0.6, abs=1e-8)
    assert lsd.decompose(raw).method.startswith("wootters")
    with pytest.raises(InputError, match="raw decomposition is only supported on 2x2"):
        lsd.decompose(st.Raw(dims=(3, 3), matrix=np.eye(9) / 9))


NEAR_THRESHOLD_EPS = [10.0**-k for k in range(4, 13)]


def near_threshold_specs(eps: float) -> list:
    """States a gap eps past each one-parameter separability threshold."""
    rest = (0.5 - eps) / 3.0
    return [
        st.BD22(p=(0.5 + eps, rest, rest, rest)),
        st.Werner(d=3, f=-eps),
        st.Isotropic(d=3, F=1.0 / 3.0 + eps),
        st.Horodecki33(alpha=3.0 + eps),
        st.MultiIso(d=2, n=3, s=0.2 + eps),
    ]


@pytest.mark.parametrize("eps", NEAR_THRESHOLD_EPS)
def test_near_threshold_states_decompose(eps):
    for spec in near_threshold_specs(eps):
        dec = lsd.decompose(spec)
        assert dec.lam < 1.0
        check_decomposition(st.build(spec), dec)


def test_raw_ginibre_states_decompose():
    # includes weakly entangled draws (1239, 1251, 1296, 1368 have
    # 1 - lam between 3e-5 and 4e-4), where rounding on the residual is
    # largest relative to its trace
    rng = np.random.default_rng(3)
    for _ in range(2000):
        rho = ginibre_state(rng, 4, (2, 2))
        dec = lsd.decompose(st.Raw(dims=(2, 2), matrix=rho.mat))
        check_decomposition(rho, dec)


def test_verify_flags_inflated_weight():
    rho = st.make_bd22([0.7, 0.1, 0.1, 0.1])
    dec = lsd.lsd_bd22([0.7, 0.1, 0.1, 0.1])
    lam_bad = dec.lam + 0.01
    tampered = replace(
        dec, lam=lam_bad, entangled_part=rho.mat - lam_bad * dec.separable_part.mat
    )
    report = lsd.verify(tampered)
    assert report.residual_min_eig < 0


@pytest.mark.parametrize("lam, excess, status", [
    (1e-3, 5e-7, sep.SEPARABLE), (1e-3, 2e-6, sep.ENTANGLED),
    (1.0, 5e-10, sep.SEPARABLE), (1.0, 2e-9, sep.ENTANGLED), (0.0, 2e-9, sep.ENTANGLED),
])
def test_verify_holds_the_weighted_separable_part_to_ppt_tol(lam, excess, status):
    # a Bell-diagonal part with p_1 = 1/2 + excess has PPT margin -excess,
    # and lam times that is held to PPT_TOL
    rho = st.make_bd22([0.25] * 4)
    part = st.make_bd22([0.5 + excess] + [(0.5 - excess) / 3.0] * 3)
    dec = lsd.LSDecomposition(lam, part, rho.mat - lam * part.mat, "bd22", rho)
    assert lsd.verify(dec).separable_verdict.status == status


def test_verify_dimension_mismatch():
    dec = lsd.lsd_bd22([0.7, 0.1, 0.1, 0.1])
    with pytest.raises(InputError, match=r"decomposition size \(4, 4\) != state \(6, 6\)"):
        lsd.verify(replace(dec, state=st.make_bd23([1 / 6.0] * 6)))


def test_verify_ranks_the_stored_residual_and_tests_the_implied_one():
    # the implied residual 0.4 |Phi+><Phi+| is rank 1; a stored residual of
    # the same trace spread over two Bell states is rank 2, purity 1/2
    dec = lsd.lsd_bd22([0.7, 0.1, 0.1, 0.1])
    stored = st.make_bd22([0.5, 0.5, 0.0, 0.0]).mat * 0.4
    exact = lsd.verify(dec)
    assert (exact.residual_norm, exact.residual_rank) == (0.0, 1)
    report = lsd.verify(replace(dec, entangled_part=stored))
    assert report.residual_norm > 0.1
    assert report.residual_rank == 2 and report.entangled_purity == pytest.approx(0.5)
    assert report.residual_min_eig == exact.residual_min_eig
