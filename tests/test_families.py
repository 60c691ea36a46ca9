"""The family table: every family is declared once and reaches every layer."""

import json
import typing
from dataclasses import fields, replace

import numpy as np
import pytest

from lsdecomp import cli, lsd, oracle, separability
from lsdecomp import states as st

SAMPLES = [
    st.BD22(p=(0.7, 0.1, 0.1, 0.1)),
    st.ICD(theta=0.6, p=(0.6, 0.2, 0.1, 0.1)),
    st.BD23(p=(0.5, 0.1, 0.1, 0.1, 0.1, 0.1)),
    st.Werner(d=3, f=-0.5),
    st.Isotropic(d=3, F=0.5),
    st.Horodecki33(alpha=4.0),
    st.MultiIso(d=2, n=3, s=0.6),
    st.Raw(dims=(2, 2), matrix=st.make_bd22([0.7, 0.1, 0.1, 0.1]).mat),
]


def test_samples_cover_every_family():
    members = set(typing.get_args(st.StateSpec))
    assert {type(s) for s in SAMPLES} == members
    assert {fam.spec for fam in st.FAMILIES} == members
    assert len({fam.name for fam in st.FAMILIES}) == len(st.FAMILIES)


@pytest.mark.parametrize("spec", SAMPLES, ids=lambda s: type(s).__name__)
def test_json_round_trip(spec):
    obj = cli.spec_to_json(spec)
    again = cli.parse_spec(json.loads(json.dumps(obj)))
    assert type(again) is type(spec)
    if isinstance(spec, st.Raw):
        assert again.dims == spec.dims
        assert np.array_equal(again.matrix, spec.matrix)
    else:
        assert again == spec
        assert cli.spec_to_json(again) == obj


@pytest.mark.parametrize("spec", SAMPLES, ids=lambda s: type(s).__name__)
def test_every_layer_has_an_entry(spec):
    rho = st.build(spec)
    assert isinstance(rho, st.DensityMatrix)
    assert isinstance(lsd.decompose(spec), lsd.LSDecomposition)
    fam = oracle.family_for_spec(spec)
    assert fam.gens.shape[1:] == rho.mat.shape
    assert separability.family_region(spec).status == separability.ENTANGLED


def test_unknown_spec_type_is_rejected():
    class NotASpec:
        pass

    for dispatcher in (st.build, lsd.decompose, oracle.family_for_spec,
                       separability.family_region):
        with pytest.raises(TypeError):
            dispatcher(NotASpec())


# renormalizing these weights twice moves the built state by an ulp
BD22_ULP = st.BD22(p=(0.09358658134961685, 0.004869238048927678, 0.4857131178516458,
                      0.4158310627498098))


@pytest.mark.parametrize("spec", [*SAMPLES, BD22_ULP],
                         ids=[type(s).__name__ for s in SAMPLES] + ["BD22_ulp"])
def test_decompose_splits_the_state_build_makes(spec):
    assert np.array_equal(lsd.decompose(spec).state.mat, st.build(spec).mat)


@pytest.mark.parametrize("spec", SAMPLES, ids=lambda s: type(s).__name__)
def test_missing_field_exits_2(spec, capsys):
    obj = cli.spec_to_json(spec)
    for key in obj:
        if key in ("family", "im"):
            continue
        partial = {k: v for k, v in obj.items() if k != key}
        code = cli.main(["decompose", "--input", json.dumps(partial)])
        assert code == 2, key
        err = capsys.readouterr().err
        assert f"error (InputError): malformed fields for family {obj['family']!r}: " in err


# the seven named families at their largest sizes: every matrix is real
REAL_SAMPLES = [
    *SAMPLES[:3],
    st.Werner(d=8, f=-0.5),
    st.Isotropic(d=8, F=0.5),
    SAMPLES[5],
    st.MultiIso(d=2, n=6, s=0.5),
]


@pytest.mark.parametrize("spec", REAL_SAMPLES, ids=lambda s: type(s).__name__)
def test_named_families_stay_real(spec):
    dec = lsd.decompose(spec)
    for mat in (st.build(spec).mat, dec.state.mat, dec.separable_part.mat, dec.entangled_part):
        assert mat.dtype == np.float64
    _, sigma = oracle.bsa_search(dec.state, oracle.family_for_spec(spec))
    assert sigma.mat.dtype == np.float64


def test_raw_state_with_an_imaginary_part_stays_complex():
    mat = np.array([[0.5, 0.1j], [-0.1j, 0.5]])
    rho = st.build(st.Raw(dims=(2,), matrix=mat))
    assert rho.mat.dtype == np.complex128
    assert np.array_equal(rho.mat, mat)


def _complex(rho: st.DensityMatrix) -> st.DensityMatrix:
    return st.DensityMatrix(rho.mat.astype(np.complex128), rho.dims)


@pytest.mark.parametrize("spec", REAL_SAMPLES, ids=lambda s: type(s).__name__)
def test_verify_of_a_real_split_matches_its_complex_copy(spec):
    dec = lsd.decompose(spec)
    copy = replace(dec, separable_part=_complex(dec.separable_part),
                   entangled_part=dec.entangled_part.astype(np.complex128),
                   state=_complex(dec.state))
    real, cplx = lsd.verify(dec), lsd.verify(copy)
    assert copy.separable_part.mat.dtype == np.complex128
    assert real.separable_verdict.status == cplx.separable_verdict.status
    assert abs(real.separable_verdict.margin - cplx.separable_verdict.margin) <= 1e-15
    for field in fields(real):
        a, b = getattr(real, field.name), getattr(cplx, field.name)
        if isinstance(a, float):
            assert abs(a - b) <= 1e-15, field.name
        elif field.name != "separable_verdict":
            assert a == b, field.name
    # the report that verify reads back gives the same weight and the same checks
    report = cli._decompose_report(spec, False, None)
    checks = cli._verify_report(json.loads(cli._dump(report)), None)[0]["checks"]
    assert checks["lambda"] == dec.lam == report["lambda"]
    assert checks["residual_rank"] == real.residual_rank
    assert checks["residual_min_eig"] == real.residual_min_eig


# every size of the four one-parameter families: an entangled spec, its
# closed-form weight, its separable range's two end states (ascending) and
# the end at the threshold, which is the separable part of its split
def _line_cases():
    cases = []
    for d in range(2, 9):
        zero = st.Werner(d=d, f=0.0)
        cases.append((st.Werner(d=d, f=-0.3), 1 + -0.3, [zero, st.Werner(d=d, f=1.0)], zero))
        # F = 0.6 rounds (1 - F) / (1 - 1/d) differently at d = 3, 6 and 7
        edge = st.Isotropic(d=d, F=1.0 / d)
        cases.append((st.Isotropic(d=d, F=0.6), d * (1 - 0.6) / (d - 1),
                      [st.Isotropic(d=d, F=0.0), edge], edge))
    edge = st.Horodecki33(alpha=3.0)
    cases.append((st.Horodecki33(alpha=4.3), (5 - 4.3) / 2, [st.Horodecki33(alpha=2.0), edge], edge))
    for d in range(2, 9):
        for n in range(2, 7):
            if d**n <= 64:
                s0 = st.multi_iso_threshold(d, n)
                edge = st.MultiIso(d=d, n=n, s=s0)
                cases.append((st.MultiIso(d=d, n=n, s=0.6), (1 - 0.6) / (1 - s0),
                              [st.MultiIso(d=d, n=n, s=0.0), edge], edge))
    return cases


LINE_CASES = _line_cases()
LINE_IDS = [repr(case[0]) for case in LINE_CASES]


@pytest.mark.parametrize("spec, lam, ends, edge", LINE_CASES, ids=LINE_IDS)
def test_one_parameter_weight_is_its_closed_form_bit_for_bit(spec, lam, ends, edge):
    dec = lsd.decompose(spec)
    assert dec.lam == lam
    assert np.array_equal(dec.separable_part.mat, st.build(edge).mat)


@pytest.mark.parametrize("spec, lam, ends, edge", LINE_CASES, ids=LINE_IDS)
def test_one_parameter_family_is_its_two_end_states_in_order(spec, lam, ends, edge):
    fam = oracle.family_for_spec(spec)
    assert np.array_equal(fam.gens, np.array([st.build(end).mat for end in ends]))
    assert fam.gens.shape[1:] == st.build(spec).mat.shape
