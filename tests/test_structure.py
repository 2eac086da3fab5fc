import abc
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import operadyn
from operadyn import quantum
from operadyn.bianchi import BianchiType, all_types, deform, structure_constants
from operadyn.lax import LaxFamilyParams, formal_mu, operadic_lax_residual, rotation_generator
from operadyn.ncpoly import ExtScalar
from operadyn.operad import Operation, gerstenhaber_bracket
from operadyn.poly import Poly, q, p
from operadyn.structure import PAIRS, StructureTensor
from reference_structure import constant_tensor, from_array, full_check, is_constant
from reference_tables import GRID
from reference_trace import scalar_evaluate


def test_mirror_filled_automatically():
    t = StructureTensor({(1, 2, 3): Fraction(1)})
    assert t.entry(1, 2, 3) == 1
    assert t.entry(1, 3, 2) == -1


def test_explicit_mirror_must_match():
    StructureTensor({(1, 2, 3): Fraction(2), (1, 3, 2): Fraction(-2)})
    with pytest.raises(ValueError, match=r"^antisymmetry broken at mu\^1_\{23\}: 2 vs 2$"):
        StructureTensor({(1, 2, 3): Fraction(2), (1, 3, 2): Fraction(2)})
    # the message names the lower pair, whichever orientation came first
    with pytest.raises(ValueError, match=r"^antisymmetry broken at mu\^2_\{13\}: \(1\)\*q vs \(5\)$"):
        StructureTensor({(2, 3, 1): Poly.constant(5), (2, 1, 3): q})


def test_diagonal_must_vanish():
    with pytest.raises(ValueError, match=r"^diagonal entry mu\^1_\{11\} = 1 must vanish$"):
        StructureTensor({(1, 1, 1): Fraction(1)})
    StructureTensor({(2, 3, 3): Fraction(0), (3, 1, 1): Poly()})


def test_first_fault_in_scan_order():
    # upper index first, then the pair: mu^1_{23} is found before mu^2_{11}
    entries = {(2, 1, 1): Fraction(7), (1, 3, 2): Fraction(1), (1, 2, 3): Fraction(1)}
    with pytest.raises(ValueError, match=r"^antisymmetry broken at mu\^1_\{23\}: 1 vs 1$"):
        StructureTensor(entries)
    del entries[(1, 3, 2)]
    with pytest.raises(ValueError, match=r"^diagonal entry mu\^2_\{11\} = 7 must vanish$"):
        StructureTensor(entries)


def _dense(entries):
    """The row-major entries of a sparse input, each missing mirror filled as -value."""
    full = dict(entries)
    for (i, j, k), value in entries.items():
        full.setdefault((i, k, j), -value)
    return [full.get((i, j, k), Fraction(0)) for i in (1, 2, 3) for j in (1, 2, 3)
            for k in (1, 2, 3)]


def _outcome(build, entries):
    """The built tensor's entries, or the message it was refused with."""
    try:
        return build(entries).coeffs
    except ValueError as exc:
        return str(exc)


_INDEX = st.tuples(*(st.integers(1, 3),) * 3)


@given(st.dictionaries(_INDEX, st.integers(-2, 2).map(Fraction), max_size=12))
@settings(max_examples=300, deadline=None)
def test_sparse_check_agrees_with_full_check(entries):
    # given diagonals and pairs given both ways are what the sparse input can
    # break; on the dense fill the full check raises the same first message
    full = _outcome(lambda e: from_array(_dense(e)), entries)
    assert _outcome(StructureTensor, entries) == full


@given(st.dictionaries(
    _INDEX.filter(lambda idx: idx[1] < idx[2]),
    st.builds(lambda c, e: c * q ** e, st.fractions(max_denominator=5), st.integers(0, 2))
    | st.fractions(max_denominator=5)))
@settings(max_examples=100, deadline=None)
def test_mirror_filled_input_equals_from_array(entries):
    # one orientation per pair: nothing to compare, and the same tensor as
    # the fully checked dense build
    t = StructureTensor(entries)
    dense = from_array(_dense(entries))
    assert t == dense and t.coeffs == dense.coeffs


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
    assert isinstance(t, Operation) and (t.dim, t.degree) == (3, 2)
    op = Operation(3, 2, t.coeffs)
    assert from_array(op.coeffs) == t == op


def test_from_operation_rejects_asymmetric():
    flat = [Fraction(0)] * 27
    flat[5] = Fraction(1)  # mu^1_{23} without its mirror
    with pytest.raises(ValueError):
        from_array(flat)


def test_derived_tensors_pass_full_check():
    # the tensors built unchecked, from antisymmetric ones, hold up under the
    # full scan: both tables of every class, the folded constant tensors and
    # the nine Lax residual probes
    rigid = ("I", "VII", "VIII", "IX")
    derived = []
    for omega, p0, a in GRID:
        for t in all_types(a):
            tables = (deform(t, omega, p0), quantum.quantize(t, omega, p0))
            derived.extend(tables)
            if t.tag in rigid:
                derived.extend(constant_tensor(table) for table in tables)
    for n in range(9):
        probe = LaxFamilyParams(tuple(int(m == n) for m in range(9)))
        derived.append(operadic_lax_residual(probe, Fraction(3, 2)))
    assert len(derived) == len(GRID) * (2 * 11 + 2 * len(rigid)) + 9
    for tensor in derived:
        assert type(tensor) is StructureTensor
        full_check(tensor)


def test_brackets_are_operations():
    # a class tensor and a family member are degree-2 Operations: the
    # Gerstenhaber bracket takes them as they are, and each equals, and hashes
    # like, the plain Operation with the same entries
    t = structure_constants(BianchiType("VIIa", Fraction(1, 2)))
    params = LaxFamilyParams((1, 2, 0, -1, 0, 3, 1, 0, 2))
    w = Fraction(3, 2)
    mu = formal_mu(params, w)
    for tensor in (t, mu):
        assert isinstance(tensor, Operation) and (tensor.dim, tensor.degree) == (3, 2)
        plain = Operation(3, 2, tensor.coeffs)
        assert type(plain) is Operation
        assert tensor == plain and plain == tensor and hash(tensor) == hash(plain)
    bracket = gerstenhaber_bracket(rotation_generator(w), mu)
    assert bracket.degree == 2 and not bracket.is_zero
    assert t != Operation(3, 2)


def test_public_names_resolve_once():
    names = operadyn.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(operadyn, name) is not None, name


def test_polynomial_entries_and_evaluate():
    t = StructureTensor({(1, 2, 3): q * p, (3, 1, 2): Fraction(2)})
    assert not is_constant(t)
    assert t.entry(1, 3, 2) == -(q * p)
    point = (Fraction(3), Fraction(1, 3), 0, 0)
    assert scalar_evaluate(t.entry(1, 2, 3).terms.items(), point) == 1
    assert t.entry(3, 1, 2) == 2


def test_constant_tensor_folds_polys():
    t = StructureTensor({(1, 2, 3): Poly.constant(Fraction(1, 2))})
    assert is_constant(t)
    folded = constant_tensor(t)
    assert folded.entry(1, 2, 3) == Fraction(1, 2)


def test_bare_extscalar_entry_is_constant():
    # C9 alone gives mu^3_{12} = C9 as a bare number, here irrational
    s = ExtScalar(0, 1, p0=3)
    mu = formal_mu(LaxFamilyParams((0,) * 8 + (s,)), 1)
    assert mu.entry(3, 1, 2) is s
    assert is_constant(mu)
    assert constant_tensor(mu).entry(3, 1, 2) == s


def _abc_checks(fn):
    """fn's result and how many times it ran `ABCMeta.__instancecheck__`."""
    check = abc.ABCMeta.__instancecheck__.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is check:
            calls.append(frame.f_locals.get("cls"))

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, len(calls)


def test_entry_kinds_by_exact_type_before_abc():
    # polynomial entries and the exact scalars are told without the Python
    # isinstance check of Fraction's ABCMeta; a float entry stays a number,
    # and a numbers.Rational that is no Fraction still counts as one
    mu = quantum.quantize(BianchiType("IX"), 1, Fraction(2))
    assert _abc_checks(lambda: is_constant(mu)) == (True, 0)
    folded, checks = _abc_checks(lambda: constant_tensor(mu))
    assert checks == 0 and folded == structure_constants(BianchiType("IX"))
    assert all(type(v) is Fraction for v in folded.coeffs)
    floats = StructureTensor({(1, 2, 3): 0.5, (3, 1, 2): Fraction(1, 3), (2, 3, 1): 2})
    assert is_constant(floats)
    assert [type(v) for v in constant_tensor(floats).coeffs] == [
        type(v) for v in floats.coeffs]
    assert is_constant(StructureTensor({(1, 2, 3): True}))


def test_zero_and_equality():
    assert StructureTensor({}).is_zero
    assert repr(StructureTensor({})) == "StructureTensor(0)"
    assert repr(StructureTensor({(1, 2, 3): Fraction(1, 2)})) == "StructureTensor(mu^1_{23}=1/2)"
    assert StructureTensor({(1, 2, 3): Fraction(0)}).is_zero
    assert StructureTensor({(1, 2, 3): Fraction(1)}) != StructureTensor({})
    # a constant Poly entry equals its number, and the tensors hash alike
    number = StructureTensor({(1, 2, 3): Fraction(1)})
    constant = StructureTensor({(1, 2, 3): Poly.constant(1)})
    assert constant == number and hash(constant) == hash(number)
