"""State constructors: invariants, conventions, and spot values."""

import math
import re

import numpy as np
import pytest

from lsdecomp import lsd, separability
from lsdecomp import matcore as mc
from lsdecomp import oracle as orc
from lsdecomp import states as st
from lsdecomp.errors import InputError

from helpers import random_unitary

PAULI = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))


def assert_density(dm: st.DensityMatrix):
    assert abs(np.trace(dm.mat) - 1.0) <= 1e-12
    assert np.linalg.norm(dm.mat - dm.mat.conj().T) <= 1e-12 * max(1.0, np.linalg.norm(dm.mat))
    assert np.linalg.eigvalsh(dm.mat)[0] >= -1e-9
    assert dm.mat.shape[0] == int(np.prod(dm.dims))


def test_bell_basis_orthonormal_and_amplitudes():
    basis = st.bell_basis_22()
    assert np.allclose(basis @ basis.conj().T, np.eye(4))
    assert np.allclose(basis[0], np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_bd22_vertex_is_bell_projector():
    rho = st.make_bd22([1, 0, 0, 0])
    psi = st.bell_basis_22()[0]
    assert np.allclose(rho.mat, np.outer(psi, psi.conj()))


def test_bd22_uniform_is_maximally_mixed():
    assert np.allclose(st.make_bd22([0.25] * 4).mat, np.eye(4) / 4)


def test_bd22_correlation_vector():
    assert st.bd22_correlation([1, 0, 0, 0]) == (1.0, -1.0, 1.0)
    assert np.allclose(st.bd22_correlation([0.7, 0.1, 0.1, 0.1]), (0.6, -0.6, 0.6))


def test_bd22_matches_pauli_expansion():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.dirichlet(np.ones(4))
        t = st.bd22_correlation(p)
        expansion = np.eye(4, dtype=complex)
        for i in range(3):
            expansion = expansion + t[i] * mc.kron(PAULI[i], PAULI[i])
        assert np.linalg.norm(st.make_bd22(p).mat - expansion / 4.0) <= 1e-12


def test_bd22_tetrahedron_membership():
    rng = np.random.default_rng(1)
    for _ in range(200):
        t1, t2, t3 = st.bd22_correlation(rng.dirichlet(np.ones(4)))
        slacks = [
            1 + t1 - t2 + t3,
            1 - t1 + t2 + t3,
            1 + t1 + t2 - t3,
            1 - t1 - t2 - t3,
        ]
        assert min(slacks) >= -1e-12


def test_icd_orthonormal_every_theta():
    for theta in np.linspace(0.1, np.pi / 2 - 0.1, 7):
        basis = st.iso_basis(theta)
        assert np.allclose(basis @ basis.conj().T, np.eye(4))


def test_icd_at_pi4_equals_bd22():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = rng.dirichlet(np.ones(4))
        a = st.make_icd(np.pi / 4, p)
        b = st.make_bd22(p)
        assert np.linalg.norm(a.mat - b.mat) <= 1e-12


def test_icd_vertex_and_validity():
    rho = st.make_icd(np.pi / 4, [1, 0, 0, 0])
    psi = st.bell_basis_22()[0]
    assert np.allclose(rho.mat, np.outer(psi, psi.conj()))
    assert_density(st.make_icd(np.pi / 6, [0.6, 0.2, 0.1, 0.1]))
    with pytest.raises(InputError, match=r"theta must lie strictly in \(0, pi/2\), got 0.0"):
        st.make_icd(0.0, [0.25] * 4)
    with pytest.raises(InputError, match=r"theta must lie strictly in \(0, pi/2\), got 1.57"):
        st.make_icd(np.pi / 2, [0.25] * 4)


@pytest.mark.parametrize("theta", [5e-324, 1e-300, 1e-163, 1e-161, 7.4e-155], ids=repr)
def test_icd_angles_whose_sine_squared_is_not_normal_are_rejected(theta):
    # the region test, split and search family divide by sin^2(2 theta)
    message = re.escape(f"theta={theta!r} is too close to 0: sin^2(2 theta) is not a normal double")
    for call in (lambda: st.make_icd(theta, [0.7, 0.1, 0.1, 0.1]),
                 lambda: separability.icd_region(theta, [0.7, 0.1, 0.1, 0.1]),
                 lambda: orc.icd_family(theta)):
        with pytest.raises(InputError, match=message):
            call()


def test_bd23_basis_and_states():
    basis = st.bell_basis_23()
    assert np.allclose(basis @ basis.conj().T, np.eye(6))
    assert np.allclose(st.make_bd23([1 / 6.0] * 6).mat, np.eye(6) / 6)
    # p = (1, 0, ..., 0) is the pure (|11> + |22>)/sqrt(2)
    v = np.zeros(6)
    v[0] = v[4] = 1 / np.sqrt(2)
    assert np.allclose(st.make_bd23([1, 0, 0, 0, 0, 0]).mat, np.outer(v, v))


def test_werner_singlet_and_psd():
    singlet = st.make_bd22([0, 0, 0, 1])
    assert np.linalg.norm(st.make_werner(2, -1.0).mat - singlet.mat) <= 1e-14
    # d=3, f=0 -> (3I - F)/24 must be PSD (F has eigenvalues +-1)
    w = st.make_werner(3, 0.0)
    assert np.allclose(w.mat, (3 * np.eye(9) - mc.swap_operator(3)) / 24)
    assert_density(w)


def test_werner_trace_one_random_params():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        f = rng.uniform(-1, 1)
        assert abs(np.trace(st.make_werner(d, f).mat) - 1.0) <= 1e-12


def test_werner_uu_invariance():
    rng = np.random.default_rng(4)
    for d in (2, 3):
        u = random_unitary(rng, d)
        uu = mc.kron(u, u)
        rho = st.make_werner(d, rng.uniform(-1, 1))
        assert np.linalg.norm(uu @ rho.mat @ uu.conj().T - rho.mat) <= 1e-9


def test_isotropic_special_points():
    d = 3
    psi = st.max_entangled(d)
    proj = np.outer(psi, psi.conj())
    assert np.linalg.norm(st.make_isotropic(d, 1.0).mat - proj) <= 1e-14
    assert np.linalg.norm(st.make_isotropic(d, 1.0 / d**2).mat - np.eye(9) / 9) <= 1e-14


def test_isotropic_fidelity_parameterization():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        fid = rng.uniform(0, 1)
        psi = st.max_entangled(d)
        rho = st.make_isotropic(d, fid)
        assert np.real(psi.conj() @ rho.mat @ psi) == pytest.approx(fid, abs=1e-12)


def test_isotropic_uustar_invariance():
    rng = np.random.default_rng(6)
    for d in (2, 3):
        u = random_unitary(rng, d)
        uustar = mc.kron(u, u.conj())
        rho = st.make_isotropic(d, rng.uniform(0, 1))
        assert np.linalg.norm(uustar @ rho.mat @ uustar.conj().T - rho.mat) <= 1e-9


def test_horodecki33_structure():
    for alpha in (2.0, 3.3, 5.0):
        assert_density(st.make_horodecki33(alpha))
    # alpha = 5 has no sigma_minus weight: the <21| diagonal entry vanishes
    r5 = st.make_horodecki33(5.0)
    assert r5.mat[3, 3] == 0.0
    # affine in alpha
    r37 = st.make_horodecki33(3.7)
    mix = 0.65 * st.make_horodecki33(3.0).mat + 0.35 * st.make_horodecki33(5.0).mat
    assert np.linalg.norm(r37.mat - mix) <= 1e-14


def test_multi_iso_points():
    d, n = 2, 3
    assert np.allclose(st.make_multi_iso(d, n, 0.0).mat, np.eye(8) / 8)
    psi = st.max_entangled(d, n)
    assert np.allclose(st.make_multi_iso(d, n, 1.0).mat, np.outer(psi, psi.conj()))
    rho = st.make_multi_iso(2, 3, 0.5)
    assert np.real(psi.conj() @ rho.mat @ psi) == pytest.approx(0.5 + 0.5 / 8, abs=1e-12)
    with pytest.raises(InputError, match=r"d\^n = 81 exceeds the supported maximum 64"):
        st.make_multi_iso(3, 4, 0.5)


def test_every_family_satisfies_density_invariants():
    rng = np.random.default_rng(7)
    for _ in range(200):
        assert_density(st.make_bd22(rng.dirichlet(np.ones(4))))
        assert_density(st.make_icd(rng.uniform(0.05, np.pi / 2 - 0.05), rng.dirichlet(np.ones(4))))
        assert_density(st.make_bd23(rng.dirichlet(np.ones(6))))
        assert_density(st.make_werner(int(rng.integers(2, 5)), rng.uniform(-1, 1)))
        assert_density(st.make_isotropic(int(rng.integers(2, 5)), rng.uniform(0, 1)))
        assert_density(st.make_horodecki33(rng.uniform(2, 5)))
        assert_density(st.make_multi_iso(2, int(rng.integers(2, 6)), rng.uniform(0, 1)))


def test_probability_validation():
    with pytest.raises(InputError, match=r"probabilities outside \[0, 1\]"):
        st.make_bd22([0.5, 0.5, 0.5, -0.5])
    with pytest.raises(InputError, match="probabilities sum to 1.2, not 1"):
        st.make_bd22([0.3, 0.3, 0.3, 0.3])
    for bad in (math.nan, math.inf):  # the CLI rejects these before they get here
        with pytest.raises(InputError, match="probabilities contain non-finite entries"):
            st.make_bd22([bad, 0.5, 0.25, 0.25])
    # rounding-level noise is renormalized
    rho = st.make_bd22([0.25 + 2e-10, 0.25, 0.25, 0.25])
    assert abs(np.trace(rho.mat) - 1.0) <= 1e-14


def test_param_validation():
    with pytest.raises(InputError, match="Werner dimension must be >= 2, got 1"):
        st.make_werner(1, 0.0)
    with pytest.raises(InputError, match=r"Werner parameter f=-1.5 outside \[-1, 1\]"):
        st.make_werner(2, -1.5)
    with pytest.raises(InputError, match=r"fidelity F=1.5 outside \[0, 1\]"):
        st.make_isotropic(3, 1.5)
    with pytest.raises(InputError, match=r"alpha=1.0 outside \[2, 5\]"):
        st.make_horodecki33(1.0)
    with pytest.raises(InputError, match="party count must be >= 2, got 1"):
        st.make_multi_iso(2, 1, 0.5)
    with pytest.raises(InputError, match="local dimension must be >= 2, got 1"):
        st.make_multi_iso(1, 3, 0.5)
    for s in (1.5, -0.5):
        with pytest.raises(InputError, match=rf"s={s} outside \[0, 1\]"):
            st.make_multi_iso(2, 3, s)


@pytest.mark.parametrize("params, args, whole, message", [
    (st.werner_params, (2.5, -0.5), (2, -0.5), "Werner dimension must be an integer, got 2.5"),
    (st.isotropic_params, (3.5, 0.5), (3, 0.5), "isotropic dimension must be an integer, got 3.5"),
    (st.multi_iso_params, (2.5, 3, 0.5), (2, 3, 0.5), "local dimension must be an integer, got 2.5"),
    (st.multi_iso_params, (2, 3.5, 0.5), (2, 3, 0.5), "party count must be an integer, got 3.5"),
], ids=["werner_d", "isotropic_d", "multi_iso_d", "multi_iso_n"])
def test_fractional_sizes_are_rejected(params, args, whole, message):
    # int() would truncate them to the size of another state
    with pytest.raises(InputError, match=message):
        params(*args)
    as_floats = tuple(float(a) for a in whole)
    assert params(*as_floats) == whole
    assert [type(v) for v in params(*as_floats)] == [type(v) for v in whole]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=repr)
@pytest.mark.parametrize("params, spec, name", [
    (lambda v: st.werner_params(v, -0.5), lambda v: st.Werner(d=v, f=-0.5),
     "Werner dimension"),
    (lambda v: st.isotropic_params(v, 0.5), lambda v: st.Isotropic(d=v, F=0.5),
     "isotropic dimension"),
    (lambda v: st.multi_iso_params(v, 3, 0.5), lambda v: st.MultiIso(d=v, n=3, s=0.5),
     "local dimension"),
    (lambda v: st.multi_iso_params(2, v, 0.5), lambda v: st.MultiIso(d=2, n=v, s=0.5),
     "party count"),
], ids=["werner_d", "isotropic_d", "multi_iso_d", "multi_iso_n"])
def test_non_finite_sizes_raise_input_error(params, spec, name, value):
    # int() raises OverflowError for an infinity and ValueError for NaN
    message = f"{name} must be an integer, got {value!r}"
    for call in (params, lambda v: lsd.decompose(spec(v)),
                 lambda v: separability.family_region(spec(v))):
        with pytest.raises(InputError, match=message):
            call(value)


def test_build_dispatch_and_raw():
    spec = st.Werner(d=2, f=-0.5)
    assert np.allclose(st.build(spec).mat, st.make_werner(2, -0.5).mat)
    ok = st.build(st.Raw(dims=(2, 2), matrix=np.eye(4) / 4))
    assert ok.dims == (2, 2)
    with pytest.raises(InputError, match=r"trace is 0.9\+0j, expected 1 within 1e-12"):
        st.build(st.Raw(dims=(2, 2), matrix=np.eye(4) * 0.225))
    with pytest.raises(InputError, match="density matrix is not PSD within tolerance"):
        st.build(st.Raw(dims=(2, 2), matrix=np.diag([1.5, -0.5, 0.0, 0.0])))


@pytest.mark.parametrize("mat, dims, message", [
    (np.eye(4) / 4, (0, 4), "invalid subsystem dimension 0"),
    (np.eye(4) / 4, (2, 3), r"matrix shape \(4, 4\) does not match dims \(2, 3\)"),
    (np.array([[0.5, 0.5], [0.0, 0.5]]), (2,), "not Hermitian within 1e-12"),
    (np.eye(2), (2,), r"trace is 2\+0j, expected 1"),
    (np.diag([1.5, -0.5]), (2,), "not PSD within tolerance"),
    (np.full((2, 2), np.nan), (2,), "matrix contains non-finite entries"),
    (np.ones(4) / 4, (4,), "expected a 2-d matrix, got ndim=1"),
    # entries whose Frobenius norm overflows a double, Hermitian or not
    (np.array([[0.5, 1e200], [1e200, 0.5]]), (2,), "its norm overflows a double"),
    (np.array([[0.5, 1e200], [-1e200, 0.5]]), (2,), "its norm overflows a double"),
    # a finite norm, but the skew part's norm overflows
    (np.array([[0.5, 8e153], [-8e153, 0.5]]), (2,), "not Hermitian within 1e-12"),
], ids=["dims", "shape", "hermitian", "trace", "psd", "finite", "ndim", "norm_overflow",
        "antisymmetric_norm_overflow", "skew_norm_overflow"])
def test_density_matrix_rejects_with_input_error(mat, dims, message):
    # InputError is also a ValueError, so code that catches ValueError still works
    with pytest.raises(InputError, match=message) as info:
        st.DensityMatrix(mat, dims)
    assert isinstance(info.value, ValueError)
    with pytest.raises(InputError, match=message):
        st.make_raw(dims, mat)


def test_density_matrix_accepts_exactly_hermitian_psd_matrices():
    # unit-trace 4x4 matrices near both boundaries: an anti-Hermitian part of relative
    # size about 1e-12 and a smallest eigenvalue about -1e-9 (the PSD tolerance at norm <= 1)
    rng = np.random.default_rng(17)
    outcomes = set()
    for _ in range(400):
        w = rng.dirichlet(np.ones(4))
        if rng.random() < 0.5:
            w[0] = rng.uniform(-1.2e-9, -0.8e-9)
        w[1:] *= (1.0 - w[0]) / w[1:].sum()
        v = random_unitary(rng, 4)
        mat = (v * w) @ v.conj().T
        mat = 0.5 * (mat + mat.conj().T)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        skew = g - g.conj().T
        np.fill_diagonal(skew, 0.0)
        skew *= rng.uniform(0.8e-12, 1.2e-12) * mc.frob(mat) / mc.frob(2.0 * skew)
        mat = mat + skew
        hermitian = mc.frob(mat - mat.conj().T) <= 1e-12 * mc.frob(mat)
        expected = hermitian and mc.is_psd(mat)
        try:
            st.DensityMatrix(mat, (2, 2))
            accepted = True
        except InputError:
            accepted = False
        assert accepted == expected
        outcomes.add((hermitian, expected))
    assert outcomes == {(False, False), (True, False), (True, True)}
