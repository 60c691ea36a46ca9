"""Records: those that hold matrices compare by identity, the others by
value, and every record is frozen."""

import dataclasses
import importlib
import pkgutil
import typing

import numpy as np
import pytest

import lsdecomp
from lsdecomp import lsd, oracle, separability, wootters
from lsdecomp import states as st

SPEC = st.BD22(p=(0.7, 0.1, 0.1, 0.1))

# each call builds a new record of the named type, equal in value to the last
MATRIX_RECORDS = {
    "DensityMatrix": lambda: st.build(SPEC),
    "LSDecomposition": lambda: lsd.decompose(SPEC),
    "WoottersData": lambda: wootters.wootters_basis(st.build(SPEC)),
    "SdpProblem": lambda: oracle.bsa_as_sdp(st.build(SPEC), lsd.decompose(SPEC).separable_part),
    "SeparableFamily": lambda: oracle.family_for_spec(SPEC),
}

VALUE_SPECS = (
    SPEC,
    st.ICD(theta=0.6, p=(0.7, 0.1, 0.1, 0.1)),
    st.BD23(p=(0.5, 0.1, 0.1, 0.1, 0.1, 0.1)),
    st.Werner(d=2, f=-0.5),
    st.Isotropic(d=3, F=0.5),
    st.Horodecki33(alpha=4.0),
    st.MultiIso(d=2, n=3, s=0.6),
)


@pytest.mark.parametrize("name", sorted(MATRIX_RECORDS))
def test_matrix_records_compare_and_hash_by_identity(name):
    a, b = MATRIX_RECORDS[name](), MATRIX_RECORDS[name]()
    assert type(a).__name__ == name and a is not b
    assert (a == b) is False and (a != b) is True
    assert a == a
    assert a in [b, a]
    assert hash(a) == hash(a)
    assert len({a, b}) == 2
    assert {a: "a", b: "b"}[a] == "a"


@pytest.mark.parametrize("spec", VALUE_SPECS, ids=lambda spec: type(spec).__name__)
def test_specs_and_verdicts_compare_by_value(spec):
    twin = dataclasses.replace(spec)
    assert twin is not spec and twin == spec and hash(twin) == hash(spec)
    verdicts = separability.family_region(spec), separability.family_region(twin)
    assert verdicts[0] is not verdicts[1] and verdicts[0] == verdicts[1]


def test_a_replaced_decomposition_still_verifies():
    dec = lsd.decompose(SPEC)
    copy = dataclasses.replace(dec, method="copy")
    assert copy != dec and copy.method == "copy"
    report = lsd.verify(copy)
    assert report.residual_norm <= 1e-10
    assert report.residual_min_eig >= -lsd.RESIDUAL_PSD_TOL
    assert report.separable_verdict.status == separability.SEPARABLE
    assert report == lsd.verify(dec)
    assert [f.name for f in dataclasses.fields(copy)] == [f.name for f in dataclasses.fields(dec)]


def _records():
    """Every dataclass defined in an lsdecomp module."""
    found = set()
    for info in pkgutil.iter_modules(lsdecomp.__path__):
        module = importlib.import_module(f"{lsdecomp.__name__}.{info.name}")
        found.update(obj for obj in vars(module).values()
                     if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                     and obj.__module__ == module.__name__)
    return sorted(found, key=lambda cls: cls.__qualname__)


def _holds_matrix(cls) -> bool:
    return any(np.ndarray in (hint, *typing.get_args(hint))
               for hint in typing.get_type_hints(cls).values())


RECORDS = _records()


def test_the_record_walk_finds_the_matrix_records():
    names = {cls.__qualname__ for cls in RECORDS if _holds_matrix(cls)}
    assert names >= {*MATRIX_RECORDS, "Raw"}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_every_record_is_frozen_and_matrix_records_compare_by_identity(cls):
    params = cls.__dataclass_params__
    assert params.frozen
    if _holds_matrix(cls):
        assert not params.eq
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
