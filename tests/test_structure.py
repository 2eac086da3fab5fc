from fractions import Fraction

import pytest

from operadyn.lax import LaxFamilyParams, formal_mu
from operadyn.ncpoly import ExtScalar
from operadyn.operad import Operation
from operadyn.poly import Poly, q, p
from operadyn.structure import PAIRS, StructureTensor, TableMismatchError


def test_mirror_filled_automatically():
    t = StructureTensor({(1, 2, 3): Fraction(1)})
    assert t.entry(1, 2, 3) == 1
    assert t.entry(1, 3, 2) == -1


def test_explicit_mirror_must_match():
    StructureTensor({(1, 2, 3): Fraction(2), (1, 3, 2): Fraction(-2)})
    with pytest.raises(ValueError):
        StructureTensor({(1, 2, 3): Fraction(2), (1, 3, 2): Fraction(2)})


def test_diagonal_must_vanish():
    with pytest.raises(ValueError):
        StructureTensor({(1, 1, 1): Fraction(1)})


def test_index_range():
    with pytest.raises(ValueError):
        StructureTensor({(4, 1, 2): Fraction(1)})
    t = StructureTensor({})
    with pytest.raises(ValueError):
        t.entry(0, 1, 2)


def test_independent_entries_order():
    t = StructureTensor({(1, 2, 3): Fraction(5)})
    keys = [idx for idx, _ in t.independent_entries()]
    assert keys == [(i, j, k) for (j, k) in PAIRS for i in (1, 2, 3)]
    assert len(keys) == 9


def test_operation_round_trip():
    t = StructureTensor({(2, 1, 2): Fraction(-1), (3, 3, 1): Fraction(1)})
    op = t.to_operation()
    assert isinstance(op, Operation) and op.degree == 2
    assert StructureTensor.from_operation(op) == t


def test_from_operation_rejects_asymmetric():
    op = Operation.from_entries(3, 2, {(1, 2, 3): Fraction(1)})  # no mirror
    with pytest.raises(ValueError):
        StructureTensor.from_operation(op)


def test_polynomial_entries_and_evaluate():
    t = StructureTensor({(1, 2, 3): q * p, (3, 1, 2): Fraction(2)})
    assert not t.is_constant
    numeric = t.evaluate(Fraction(3), Fraction(1, 3), 0, 0)
    assert numeric.entry(1, 2, 3) == 1
    assert numeric.entry(3, 1, 2) == 2


def test_constant_tensor_folds_polys():
    t = StructureTensor({(1, 2, 3): Poly.constant(Fraction(1, 2))})
    assert t.is_constant
    folded = t.constant_tensor()
    assert folded.entry(1, 2, 3) == Fraction(1, 2)


def test_bare_extscalar_entry_is_constant():
    # C9 alone gives mu^3_{12} = C9 as a bare number, here irrational
    s = ExtScalar(0, 1, p0=3)
    mu = formal_mu(LaxFamilyParams((0,) * 8 + (s,)), 1)
    assert mu.entry(3, 1, 2) is s
    assert mu.is_constant
    assert mu.constant_tensor().entry(3, 1, 2) == s
    assert mu.evaluate(0.5, 0.25, 1.0, 2.0).entry(3, 1, 2) == s


def test_diff_reports_all_mismatches():
    a = StructureTensor({(1, 2, 3): Fraction(1), (2, 3, 1): Fraction(1)})
    b = StructureTensor({(1, 2, 3): Fraction(2)})
    with pytest.raises(TableMismatchError) as err:
        a.diff(b, label="unit test")
    assert len(err.value.diffs) == 2
    assert "unit test" in str(err.value)


def test_zero_and_equality():
    assert StructureTensor({}).is_zero
    assert StructureTensor({(1, 2, 3): Fraction(0)}).is_zero
    assert StructureTensor({(1, 2, 3): Fraction(1)}) != StructureTensor({})
    # a constant Poly entry equals its number, and the tensors hash alike
    number = StructureTensor({(1, 2, 3): Fraction(1)})
    constant = StructureTensor({(1, 2, 3): Poly.constant(1)})
    assert constant == number and hash(constant) == hash(number)
