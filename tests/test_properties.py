"""Symmetries of the optimal separable weight, tested across states.

A local unitary U_1 (x) ... (x) U_n, and complex conjugation in the product
basis, map separable states to separable states, so the optimal weight of
rho equals that of its image: the family search on the image, with the
family's generators mapped alike, must give the same weight, and `verify`
must read the image of a split as it reads the split. The weight is also
concave along mixtures, since mixing two splits gives a split of the
mixture.
"""

import dataclasses
from functools import reduce

import numpy as np
import pytest

from lsdecomp import lsd, matcore
from lsdecomp import oracle as orc
from lsdecomp import states as st
from lsdecomp.errors import DecompositionUnavailable

from helpers import ginibre_state, random_unitary, sample_entangled_bd22, sample_entangled_icd

NAMED = [
    st.BD22(p=(0.7, 0.1, 0.1, 0.1)),
    st.ICD(theta=0.5, p=(0.7, 0.1, 0.1, 0.1)),
    st.BD23(p=(0.6, 0.05, 0.1, 0.1, 0.1, 0.05)),
    st.Werner(d=3, f=-0.5),
    st.Isotropic(d=3, F=0.6),
    st.Horodecki33(alpha=4.0),
    st.MultiIso(d=2, n=3, s=0.5),
    st.MultiIso(d=3, n=2, s=0.5),
]


def _local_unitary(rng, dims) -> np.ndarray:
    return reduce(np.kron, [random_unitary(rng, d) for d in dims])


def _rotated(u, mats):
    return u @ mats @ u.conj().T


NAMED_IDS = ["bd22", "icd", "bd23", "werner", "isotropic", "horodecki33", "multi_iso_2_3",
             "multi_iso_3_2"]


@pytest.mark.parametrize("spec", NAMED, ids=NAMED_IDS)
def test_family_search_is_invariant_under_local_unitaries(spec):
    # measured: at most 5.6e-16 over these 40 rotations
    rho, fam = st.build(spec), orc.family_for_spec(spec)
    lam, _ = orc.bsa_search(rho, fam)
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = _local_unitary(rng, rho.dims)
        moved = dataclasses.replace(fam, gens=_rotated(u, fam.gens))
        lam_u, _ = orc.bsa_search(st.DensityMatrix(_rotated(u, rho.mat), rho.dims), moved)
        assert abs(lam_u - lam) <= 1e-13


def test_raw_search_is_invariant_under_local_unitaries_and_conjugation():
    # measured: at most 1.7e-15 over these 120 images
    rng = np.random.default_rng(11)
    for _ in range(60):
        rho = ginibre_state(rng, 4, (2, 2))
        lam, _ = orc.bsa_search(rho, orc.wootters_family(rho))
        images = (_rotated(_local_unitary(rng, (2, 2)), rho.mat), rho.mat.conj())
        for mat in images:
            image = st.DensityMatrix(mat, (2, 2))
            lam_image, _ = orc.bsa_search(image, orc.wootters_family(image))
            assert abs(lam_image - lam) <= 1e-12


@pytest.mark.parametrize("spec", NAMED, ids=NAMED_IDS)
def test_verify_is_invariant_under_local_unitaries(spec):
    # measured: at most 9.4e-17 over these 40 rotations
    dec = lsd.decompose(spec)
    check = lsd.verify(dec)
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = _local_unitary(rng, dec.state.dims)
        moved = lsd.LSDecomposition(
            dec.lam, st.DensityMatrix(_rotated(u, dec.separable_part.mat), dec.state.dims),
            _rotated(u, dec.entangled_part), dec.method,
            state=st.DensityMatrix(_rotated(u, dec.state.mat), dec.state.dims))
        moved_check = lsd.verify(moved)
        assert abs(moved_check.residual_min_eig - check.residual_min_eig) <= 1e-13
        assert abs(moved_check.separable_verdict.margin - check.separable_verdict.margin) <= 1e-13
        assert moved_check.residual_rank == check.residual_rank
        assert moved_check.separable_verdict.status == check.separable_verdict.status


def _raw_weight(mat) -> float:
    return lsd.decompose(st.Raw(dims=(2, 2), matrix=mat)).lam


def test_raw_two_qubit_states_get_their_named_weight():
    # two-qubit Werner, isotropic and Bell-diagonal states given as raw, also
    # after a local unitary or the party swap, get their named weight
    # (measured: at most 2.0e-15 over these 540 images)
    rng = np.random.default_rng(11)
    swap = matcore.swap_operator(2)
    specs = []
    for _ in range(60):
        specs += [st.Werner(d=2, f=float(rng.uniform(-1.0, 0.0))),
                  st.Isotropic(d=2, F=float(rng.uniform(0.5, 1.0))),
                  st.BD22(p=tuple(sample_entangled_bd22(rng)))]
    for spec in specs:
        lam, rho = lsd.decompose(spec).lam, st.build(spec).mat
        for mat in (rho, _rotated(_local_unitary(rng, (2, 2)), rho), swap @ rho @ swap):
            assert abs(_raw_weight(mat) - lam) <= 1e-12, spec


def test_raw_two_qubit_icd_states_get_at_least_the_icd_weight():
    # lsd_icd is optimal only within its family (measured: the raw weight
    # exceeds it on every one of these 60 draws, by 8.6e-6 to 0.080)
    rng = np.random.default_rng(11)
    for _ in range(60):
        theta, p = sample_entangled_icd(rng)
        assert _raw_weight(st.make_icd(theta, p).mat) >= lsd.lsd_icd(theta, p).lam - 1e-12


def _mixed(spec, other, weight):
    """The spec of weight * spec + (1 - weight) * other: the states are affine
    in every field but the sizes and the iso-concurrence angle, which the
    two share."""
    fields = dataclasses.asdict(spec)
    for name, value in fields.items():
        if isinstance(value, tuple):
            fields[name] = tuple(weight * np.asarray(value) + (1.0 - weight) * np.asarray(
                getattr(other, name)))
        elif isinstance(value, float) and name != "theta":
            fields[name] = weight * value + (1.0 - weight) * getattr(other, name)
    return type(spec)(**fields)


# each family's draw from Dirichlet(0.7) weights on its vertices
CONCAVE = {
    "bd22": lambda w: st.BD22(p=tuple(w(4))),
    "icd": lambda w: st.ICD(theta=0.5, p=tuple(w(4))),
    "bd23": lambda w: st.BD23(p=tuple(w(6))),
    "werner": lambda w: st.Werner(d=3, f=float(w(2) @ [-1.0, 1.0])),
    "isotropic": lambda w: st.Isotropic(d=3, F=float(w(2) @ [0.0, 1.0])),
    "multi_iso": lambda w: st.MultiIso(d=2, n=3, s=float(w(2) @ [0.0, 1.0])),
}


@pytest.mark.parametrize("family", CONCAVE)
def test_weight_is_concave_along_mixtures(family):
    # measured: the smallest slack over the 220 segments that run is -2.2e-16
    rng = np.random.default_rng(21)
    draw = CONCAVE[family]
    skipped = 0
    for _ in range(40):
        ends = [draw(lambda k: rng.dirichlet([0.7] * k)) for _ in range(2)]
        try:
            lams = [lsd.decompose(spec).lam for spec in (*ends, _mixed(*ends, 0.5))]
        except DecompositionUnavailable:  # bd23 outside the closed form's chambers
            skipped += 1
            continue
        assert lams[2] >= 0.5 * (lams[0] + lams[1]) - 1e-12, ends
    assert skipped <= (20 if family == "bd23" else 0)  # measured: 20 of the 40 bd23 segments
