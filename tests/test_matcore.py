"""Matrix-algebra layer: matrix coercion, kron, partial transpose, the PSD test, Takagi."""

import warnings

import numpy as np
import pytest

from lsdecomp import matcore as mc
from lsdecomp.errors import InputError

from helpers import random_hermitian, random_unitary


def test_psd_sqrt_rejects_non_hermitian():
    with pytest.raises(InputError, match="matrix is not Hermitian within 1e-12"):
        mc.is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InputError, match=r"matrix is not square: shape \(2, 3\)"):
        mc.is_psd(np.ones((2, 3)))


def test_as_matrix_keeps_real_input_real():
    for a in ([[True, False], [False, True]], np.eye(2, dtype=np.int64), np.eye(2, dtype=np.uint8),
              np.eye(2, dtype=np.float32), np.array([[1, 0.5]], dtype=object)):
        out = mc.as_matrix(a)
        assert out.dtype == np.float64
        assert np.array_equal(out, np.asarray(a, dtype=float))
    assert mc.as_matrix(np.eye(2, dtype=np.complex64)).dtype == np.complex128
    assert mc.as_matrix(np.array([[1, 0.5j]], dtype=object)).dtype == np.complex128
    real = np.eye(2)
    assert mc.as_matrix(real) is real


@pytest.mark.parametrize("a, message", [
    ([["a", "b"]], "matrix entries are not numbers"),
    ([["1", "0"]], "matrix entries are not numbers"),
    (np.array([[1.0, None]], dtype=object), "matrix entries are not numbers"),
    (np.array([[1.0, "x"]], dtype=object), "matrix entries are not numbers"),
    ([[1.0, np.nan]], "matrix contains non-finite entries"),
    ([[1.0, np.inf * 1j]], "matrix contains non-finite entries"),
    (np.array([[1.0, np.inf]], dtype=object), "matrix contains non-finite entries"),
    ([1.0, 2.0], "expected a 2-d matrix, got ndim=1"),
    # finite entries whose Frobenius norm overflows a double
    ([[1e200, 1.0], [2.0, 1e200]], "matrix contains non-finite entries or its norm overflows"),
    ([[1e160j, 0.0], [0.0, 0.5]], "matrix contains non-finite entries or its norm overflows"),
], ids=["text", "numeric_text", "object_none", "object_text", "nan", "complex_inf", "object_inf",
        "ndim", "norm_overflow", "complex_norm_overflow"])
def test_as_matrix_rejects_with_input_error(a, message):
    with pytest.raises(InputError, match=message):
        mc.as_matrix(a)


def test_kron_identity():
    assert np.allclose(mc.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_sigma_z_pair():
    sigma_z = np.diag([1.0, -1.0])
    assert np.allclose(mc.kron(sigma_z, sigma_z), np.diag([1.0, -1.0, -1.0, 1.0]))


def test_kron_associative_and_bilinear():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        assert np.allclose(mc.kron(mc.kron(a, b), c), mc.kron(a, mc.kron(b, c)), atol=1e-12)
        a2 = rng.normal(size=(2, 2))
        assert np.allclose(
            mc.kron(a + a2, b), mc.kron(a, b) + mc.kron(a2, b), atol=1e-12
        )


def test_kron_index_formula():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    b = rng.normal(size=(4, 2))
    k = mc.kron(a, b)
    for i in range(2):
        for j in range(3):
            for r in range(4):
                for c in range(2):
                    assert k[i * 4 + r, j * 2 + c] == pytest.approx(a[i, j] * b[r, c])


def test_partial_transpose_product_state_stays_psd():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3))
    ra, rb = a @ a.T, b @ b.T
    ra /= np.trace(ra)
    rb /= np.trace(rb)
    rho = mc.kron(ra, rb)
    pt = mc.partial_transpose(rho, (2, 3))
    assert np.allclose(pt, mc.kron(ra, rb.T))
    assert np.linalg.eigvalsh(pt)[0] >= -1e-12


def test_partial_transpose_singlet_min_eig():
    # brute force oracle: the partially transposed projector written by hand
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    rho = np.outer(psi, psi)
    expected = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    pt = mc.partial_transpose(rho, (2, 2))
    assert np.allclose(pt, expected)
    assert np.linalg.eigvalsh(pt)[0] == pytest.approx(-0.5, abs=1e-12)


def test_partial_transpose_involution_and_trace():
    rng = np.random.default_rng(8)
    a = random_hermitian(rng, 6)
    pt = mc.partial_transpose(a, (2, 3))
    assert np.allclose(mc.partial_transpose(pt, (2, 3)), a)
    assert np.trace(pt) == pytest.approx(np.trace(a).real)
    assert np.linalg.norm(pt - pt.conj().T) < 1e-14


def test_partial_transpose_dimension_check():
    with pytest.raises(InputError, match=r"matrix shape \(4, 4\) does not match dims 2x3"):
        mc.partial_transpose(np.eye(4), (2, 3))


def test_is_psd_cases():
    assert mc.is_psd(np.zeros((3, 3)))
    assert not mc.is_psd(np.diag([1.0, -1e-3]), tol=1e-9)
    assert mc.is_psd(np.diag([1.0, -1e-12]), tol=1e-9)


@pytest.mark.parametrize("fn, a, message", [
    (mc.is_psd, [[1e200, 1.0], [2.0, 1e200]], "its norm overflows"),
    (mc.takagi_factorize, [[1e200, 1.0], [2.0, 1e200]], "its norm overflows"),
    # a finite norm whose skew part's norm overflows
    (mc.is_psd, [[0.5, 8e153], [-8e153, 0.5]], "matrix is not Hermitian within 1e-12"),
    (mc.takagi_factorize, [[0.5, 8e153], [-8e153, 0.5]], "not complex symmetric within tolerance"),
], ids=["is_psd", "takagi", "is_psd_skew", "takagi_skew"])
def test_checked_functions_reject_matrices_whose_norms_overflow(fn, a, message):
    # a norm of inf made every tolerance scaled by it inf, so any matrix passed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=message):
            fn(a)


def test_is_psd_werner_partial_transpose():
    from lsdecomp.states import make_werner

    w = make_werner(2, -0.5)
    pt = mc.partial_transpose(w.mat, (2, 2))
    assert not mc.is_psd(pt)
    assert np.linalg.eigvalsh(pt)[0] == pytest.approx(-0.25, abs=1e-12)


def test_takagi_real_diagonal():
    u, d = mc.takagi_factorize(np.diag([2.0, 1.0]))
    assert np.allclose(d, [2.0, 1.0])
    assert np.allclose(np.abs(u), np.eye(2), atol=1e-12)
    assert np.allclose(u @ np.diag([2.0, 1.0]) @ u.T, np.diag(d))


def test_takagi_negative_scalar_phase():
    u, d = mc.takagi_factorize(np.array([[-1.0]]))
    assert np.allclose(d, [1.0])
    assert abs(u[0, 0].real) < 1e-8 and abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_takagi_round_trip_recovers_singular_values():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 6):
        for _ in range(10):
            d0 = np.sort(rng.uniform(0.0, 2.0, size=n))[::-1]
            q = random_unitary(rng, n)
            s = q.T @ np.diag(d0) @ q
            u, d = mc.takagi_factorize(s)
            assert np.allclose(d, d0, atol=1e-9)
            resid = np.linalg.norm(u @ s @ u.T - np.diag(d))
            assert resid <= 1e-9 * max(1.0, np.linalg.norm(s))


def test_takagi_matches_singular_values_of_generic_symmetric():
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        s = g + g.T
        u, d = mc.takagi_factorize(s)
        sv = np.linalg.svd(s, compute_uv=False)
        assert np.allclose(d, sv, atol=1e-9)
        assert np.linalg.norm(u @ u.conj().T - np.eye(n)) < 1e-10


def test_takagi_degenerate_and_zero_blocks():
    # all singular values equal
    s = mc.kron(mc.SIGMA_Y, mc.SIGMA_Y).real.astype(complex)
    u, d = mc.takagi_factorize(s)
    assert np.allclose(d, np.ones(4))
    assert np.linalg.norm(u @ s @ u.T - np.diag(d)) < 1e-10
    # explicit zero block
    s = np.diag([3.0, 0.0, 0.0]).astype(complex)
    u, d = mc.takagi_factorize(s)
    assert np.allclose(d, [3.0, 0.0, 0.0])
    assert np.linalg.norm(u @ s @ u.T - np.diag(d)) < 1e-10
    assert np.linalg.norm(u @ u.conj().T - np.eye(3)) < 1e-10


def test_takagi_rejects_asymmetric():
    with pytest.raises(InputError, match="matrix is not complex symmetric within tolerance"):
        mc.takagi_factorize(np.array([[0.0, 1.0], [2.0, 0.0]]))
