"""The seven immutable records are namedtuples with checked constructors.

Each record compares, hashes, indexes and unpacks as the tuple of its
fields, keeps the repr text of a frozen dataclass, and rejects assignment to
a field.  The two records whose constructors check their input,
`BianchiType` and `LaxFamilyParams`, admit no unchecked instance: `_make`
and `_replace` go through the same checks.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from operadyn import (AnomalyCertificate, BianchiType, JacobianTriple, LaxFamilyParams,
                      MatrixLaxPair, OscillatorState, QuasiCoords, TAGS, basis_jacobian,
                      build_matrix_lax, classify, quantize)
from operadyn.ncpoly import ExtScalar

_J3 = "NCPoly((1/2)*Ap*Am + (-1/2)*Am*Ap)"
_TRIPLE = f"JacobianTriple(j1=NCPoly((0)), j2=NCPoly((0)), j3={_J3})"
_ZERO, _HALF = "Fraction(0, 1)", "Fraction(1, 2)"

# a builder per record (keyword construction wherever the caller builds it)
# and the repr text it pins
RECORDS = {
    "OscillatorState": (
        lambda: OscillatorState(q=0.0, p=2.0, omega=1.0, p0=2.0),
        "OscillatorState(q=0.0, p=2.0, omega=1.0, p0=2.0)"),
    "QuasiCoords": (
        lambda: QuasiCoords(a_plus=2.0, a_minus=0.0),
        "QuasiCoords(a_plus=2.0, a_minus=0.0)"),
    "BianchiType": (
        lambda: BianchiType(tag="VIIa", a=Fraction(1, 2)),
        "BianchiType(tag='VIIa', a=Fraction(1, 2))"),
    "BianchiType IIIa1": (
        lambda: BianchiType(tag="IIIa1"),
        "BianchiType(tag='IIIa1', a=Fraction(1, 1))"),
    "MatrixLaxPair": (
        lambda: build_matrix_lax(Fraction(0), Fraction(2), Fraction(1)),
        "MatrixLaxPair(L=Operation(dim=3, degree=1, nonzero=3),"
        " M=Operation(dim=3, degree=1, nonzero=2))"),
    "LaxFamilyParams": (
        lambda: LaxFamilyParams(
            c=(1, 0, 0, 0, ExtScalar(0, Fraction(1, 4), p0=2), 0, 0, 0, Fraction(-1, 2))),
        f"LaxFamilyParams(c=(Fraction(1, 1), {_ZERO}, {_ZERO}, {_ZERO}, "
        + f"ExtScalar(1/4*s, p0=2), {_ZERO}, {_ZERO}, {_ZERO}, Fraction(-1, 2)))"),
    "JacobianTriple": (
        lambda: basis_jacobian(quantize(BianchiType("V"), 1, 2)),
        _TRIPLE),
    "AnomalyCertificate": (
        lambda: classify(BianchiType("V"), 1, 2),
        "AnomalyCertificate(kind='AnomalousI', type_label='V', omega=Fraction(1, 1),"
        " p0=Fraction(2, 1), a=None, tau=None, "
        + f"jacobian={_TRIPLE}, matched=('0', '0', '(1/p0)*[Ap,Am]'))"),
}


@pytest.mark.parametrize("name", RECORDS)
class TestRecordContract:
    def test_repr_text(self, name):
        build, text = RECORDS[name]
        assert repr(build()) == text

    def test_hash_is_the_field_tuple_hash(self, name):
        x = RECORDS[name][0]()
        assert hash(x) == hash(tuple(x))

    def test_tuple_semantics(self, name):
        x = RECORDS[name][0]()
        assert x == tuple(x) and len(x) == len(x._fields)
        assert [x[i] for i in range(len(x))] == [getattr(x, f) for f in x._fields]
        assert type(x)(*x) == x and type(x)(**x._asdict()) == x

    def test_fields_are_read_only(self, name):
        x = RECORDS[name][0]()
        for field in x._fields:
            with pytest.raises(AttributeError):
                setattr(x, field, x[0])
        with pytest.raises(AttributeError):
            x.extra = 1                                       # __slots__ = ()


def test_record_types_and_fields():
    assert BianchiType("II") == ("II", None)
    assert LaxFamilyParams(c=(0,) * 9) == ((Fraction(0),) * 9,)
    assert MatrixLaxPair._fields == ("L", "M")
    # the pair's entries, which the repr of its Operations does not show
    L, M = RECORDS["MatrixLaxPair"][0]()
    assert L.coeffs == (2, 0, 0, 0, -2, 0, 0, 0, 1)
    assert M.coeffs == (0, Fraction(-1, 2), 0, Fraction(1, 2), 0, 0, 0, 0, 0)
    assert all(type(v) is Fraction for v in L.coeffs + M.coeffs)
    assert JacobianTriple._fields == ("j1", "j2", "j3")
    assert AnomalyCertificate._fields == ("kind", "type_label", "omega", "p0", "a", "tau",
                                          "jacobian", "matched")
    j1, j2, j3 = RECORDS["JacobianTriple"][0]()      # tuple iteration yields j1, j2, j3
    assert j1.is_zero and j2.is_zero and str(j3) == "(1/2)*Ap*Am + (-1/2)*Am*Ap"


class TestCheckedRebuilds:
    """`_make` and `_replace` run the constructor's checks and normalization."""

    @pytest.mark.parametrize("build, error, message", [
        (lambda: BianchiType._make(("X", None)), ValueError,
         f"unknown type tag 'X', expected one of {TAGS}"),
        (lambda: BianchiType("II")._replace(tag="VIa"), ValueError,
         "type VIa requires a modulus a > 0"),
        (lambda: BianchiType("VIIa", 2)._replace(a=0), ValueError,
         "modulus must be positive, got 0"),
        (lambda: BianchiType("VIIa", 2)._replace(tag="VIa", a=1), ValueError,
         "type VIa requires a != 1 (a = 1 is type IIIa1)"),
        (lambda: BianchiType("IIIa1")._replace(a=2), ValueError,
         "type IIIa1 has fixed modulus a = 1"),
        (lambda: BianchiType("VIIa", 2)._replace(tag="II"), ValueError,
         "type II takes no modulus"),
        (lambda: BianchiType("VIIa", 2)._replace(a=0.5), TypeError,
         "unsupported scalar 0.5: expected a rational"),
        (lambda: LaxFamilyParams._make(((1,) * 8,)), ValueError,
         "expected nine coefficients, got 8"),
        (lambda: LaxFamilyParams((0,) * 9)._replace(c=(0.5,) * 9), TypeError,
         "unsupported scalar 0.5: expected a rational"),
    ])
    def test_rejects(self, build, error, message):
        with pytest.raises(error) as exc:
            build()
        assert str(exc.value) == message

    def test_normalizes(self):
        t = BianchiType._make(("VIIa", 2))
        assert type(t.a) is Fraction and t == ("VIIa", 2)
        assert BianchiType("II")._replace(tag="IIIa1").a == Fraction(1)
        params = LaxFamilyParams((0,) * 9)._replace(c=(ExtScalar(3, 0, p0=2),) + (1,) * 8)
        assert params.c[0] == 3 and all(type(v) is Fraction for v in params.c)
