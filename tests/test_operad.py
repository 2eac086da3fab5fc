"""Composition, signs, and the graded Lie structure of operations.

The frozen examples were expanded by hand from the defining formula
    (f o_i g)(x_0, ..., x_{m+n-2}) = f(x_0, ..., g(x_i, ...), ...)
with the sign (-1)**(i*|g|), before the implementation existed.
"""

import importlib.util
import itertools
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operadyn import bianchi, operad, poly
from operadyn.lax import (LaxFamilyParams, build_matrix_lax, build_mu,
                          operadic_lax_residual, rotation_generator)
from operadyn.ncpoly import ExtScalar, NCPoly
from operadyn.operad import (MAX_DEGREE, MAX_DIM, Operation, Tensor,
                             gerstenhaber_bracket, graded_sign, partial_compose,
                             total_compose)
from operadyn.poly import Poly
from operadyn.quantum import basis_jacobian, quantize
from operadyn.structure import StructureTensor
from reference_compose import (apply, bracket_of_partials, dense_partial_compose,
                               total_of_partials)
from reference_quantum import formal_deformation
from reference_ring import entry_sums


def basis(d, i):
    v = [Fraction(0)] * d
    v[i - 1] = Fraction(1)
    return v


def from_entries(dim, degree, entries):
    """The operation with the given entries at 1-based index tuples, zero elsewhere."""
    flat = [Fraction(0)] * dim ** (degree + 1)
    for idx, value in entries.items():
        flat[sum((i - 1) * dim ** (degree - n) for n, i in enumerate(idx))] = value
    return Operation(dim, degree, flat)


def identity(dim):
    return Operation.from_matrix([[Fraction(int(i == j)) for j in range(dim)]
                                  for i in range(dim)])


E1, E2, E3 = basis(3, 1), basis(3, 2), basis(3, 3)


def test_graded_sign():
    assert graded_sign(0) == 1
    assert graded_sign(1) == -1
    assert graded_sign(2) == 1
    assert graded_sign(-1) == -1
    assert graded_sign(-2) == 1


class TestConstruction:
    def test_entries_are_one_based(self):
        f = from_entries(3, 2, {(3, 1, 2): Fraction(1)})
        assert f.entry(3, 1, 2) == 1
        assert f.entry(3, 2, 1) == 0

    def test_identity_applies(self):
        assert list(apply(identity(3), [E2])) == E2

    def test_apply_is_multilinear_lookup(self):
        f = from_entries(3, 2, {(3, 1, 2): Fraction(1)})
        assert list(apply(f, [E1, E2])) == E3
        assert list(apply(f, [E2, E1])) == [0, 0, 0]

    def test_dimension_limit(self):
        with pytest.raises(ValueError):
            Operation(MAX_DIM + 1, 1)

    def test_degree_limit_public_only(self):
        with pytest.raises(ValueError):
            Operation(2, MAX_DEGREE + 1)
        with pytest.raises(ValueError):
            Operation(3, -1)
        # a composition result may exceed the public cap, and its linear
        # structure works there
        top = (1,) * (MAX_DEGREE + 1)
        f = from_entries(2, MAX_DEGREE, {top: Fraction(1)})
        g = from_entries(2, 2, {(1, 1, 1): Fraction(2)})
        h = partial_compose(f, 0, g)
        assert h.degree == MAX_DEGREE + 1 and h.entry(1, *top) == 2
        assert h + h == 2 * h == h * 2 and (h + h).entry(1, *top) == 4
        assert (h - h).is_zero and (h - h).degree == MAX_DEGREE + 1
        assert -h == (-1) * h and -(-h) == h and -h != h

    def test_entry_cap_bounds_compositions_only(self, monkeypatch):
        # the dimension and degree limits keep a constructed tensor under the
        # entry cap, so the cap has nothing to check in the constructor
        assert MAX_DIM ** (MAX_DEGREE + 1) <= operad.MAX_ENTRIES
        monkeypatch.setattr(operad, "MAX_ENTRIES", MAX_DIM ** (MAX_DEGREE + 1) - 1)
        f = Operation(MAX_DIM, MAX_DEGREE)
        with pytest.raises(ValueError, match="^composition result would hold 32768 entries"):
            partial_compose(f, 0, Operation(MAX_DIM, 1))

    def test_shape_mismatch_rejected(self):
        f = Operation(3, 2)
        g = Operation(3, 1)
        with pytest.raises(ValueError):
            f + g
        # another dimension does not compose, and another shape or a number
        # is no operand of + or * and equals no operation
        h = Operation(2, 1)
        for compose in (lambda a, b: partial_compose(a, 0, b), total_compose,
                        gerstenhaber_bracket):
            with pytest.raises(ValueError, match="^dimension mismatch: 3 vs 2$"):
                compose(g, h)
        with pytest.raises(TypeError):
            g + 1
        with pytest.raises(TypeError):
            g * "x"
        assert g != 1 and g != f and g != h and not (g == 1)


class TestTensor:
    """Flat row-major entries in, and the read-only tuple `coeffs` out; the
    benchmark tracer also reads it as `coeffs.flat` and `coeffs.size`."""

    def test_row_major_indexing(self):
        f = Operation(2, 2, range(1, 9))
        assert f.coeffs == (1, 2, 3, 4, 5, 6, 7, 8)
        assert f.entry(1, 2, 1) == 3 and f.entry(2, 1, 2) == 6
        with pytest.raises(ValueError):
            f.entry(1, 3, 1)
        with pytest.raises(ValueError):
            f.entry(1, 2)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            Operation(2, 1, (1, 2, 3))
        with pytest.raises(ValueError):
            Operation(2, 1, (1, 2, 3, 4, 5))
        # nested rows: the wrong count, or the right count of rows
        with pytest.raises(ValueError):
            Operation(2, 1, [[1, 2], [3, 4], [5, 6]])
        with pytest.raises(ValueError):
            Operation(2, 0, [[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            Operation(2, 1, [1, 2, (3,), 4])

    def test_from_matrix_checks_square(self):
        assert Operation.from_matrix([[1, 2], [3, 4]]) == Operation(2, 1, (1, 2, 3, 4))
        for rows in ([[1, 2], [3]], [[1, 2, 3], [4, 5, 6]], [[1], [2]], [], [1, 2],
                     [[[1], [2]], [[3], [4]]], "ab"):
            with pytest.raises(ValueError):
                Operation.from_matrix(rows)

    def test_read_only(self):
        t = identity(2).coeffs
        with pytest.raises(TypeError):
            t[0, 0] = 5
        with pytest.raises(TypeError):
            t[0] = 5
        with pytest.raises(AttributeError):
            t.flat = (5, 0, 0, 1)
        with pytest.raises(AttributeError):
            t.size = 3
        assert t.flat == (1, 0, 0, 1)

    def test_coeffs_record_the_tracer_reads(self):
        # perfbench's partial_compose hook reads coeffs.flat and coeffs.size
        # of an Operation, a StructureTensor and a composition result
        f = Operation(3, 1, range(9))
        mu = StructureTensor({(1, 2, 3): Fraction(2), (3, 1, 2): Fraction(-1)})
        for op in (f, mu, partial_compose(mu, 1, f), gerstenhaber_bracket(f, mu)):
            t = op.coeffs
            assert type(t) is Tensor and type(t.flat) is tuple
            assert t.size == len(t.flat) == op.dim ** (op.degree + 1)
            assert t.flat == tuple(op.entry(*idx) for idx in itertools.product(
                range(1, op.dim + 1), repeat=op.degree + 1))

    def test_tracer_partial_compose_hook_runs(self):
        # the benchmark's tracer, installed, counts the entries of both operands
        path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
        tracer_module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer_module)
        tr = tracer_module.Tracer()
        tr.install()
        try:
            f = operad.Operation(3, 1, range(9))
            mu = StructureTensor({(1, 2, 3): Fraction(2), (3, 1, 2): Fraction(-1)})
            composed = operad.partial_compose(mu, 1, f)
        finally:
            tr.uninstall()
        assert operad.partial_compose is partial_compose
        assert composed == partial_compose(mu, 1, f)
        assert tr.counts["operad.partial_compose.entries"] == 27 + 9
        # mu is antisymmetric: four nonzero entries; f = range(9) has eight
        assert tr.counts["operad.partial_compose.nonzero_entries"] == 4 + 8

    def test_coeffs_is_the_read_only_flat_tuple(self):
        # of an Operation, a StructureTensor, a composition result and a bracket
        f = Operation(3, 1, range(9))
        mu = StructureTensor({(1, 2, 3): Fraction(2), (3, 1, 2): Fraction(-1)})
        for op in (f, mu, partial_compose(mu, 1, f), gerstenhaber_bracket(f, mu)):
            t = op.coeffs
            assert isinstance(t, tuple) and len(t) == op.dim ** (op.degree + 1)
            assert t == tuple(op.entry(*idx) for idx in itertools.product(
                range(1, op.dim + 1), repeat=op.degree + 1))
            with pytest.raises(TypeError):
                t[0] = 5
            assert Operation(op.dim, op.degree, t) == op


class TestPartialCompose:
    # f(e1, e2) = e3 and g(e1, e2) = e2, both zero elsewhere
    f = from_entries(3, 2, {(3, 1, 2): Fraction(1)})
    g = from_entries(3, 2, {(2, 1, 2): Fraction(1)})

    def test_slot1_hand_expansion(self):
        # h(x, y, z) = -f(x, g(y, z)); the sign is (-1)**(1*1) = -1,
        # so h(e1, e1, e2) = -f(e1, e2) = -e3
        h = partial_compose(self.f, 1, self.g)
        assert h.degree == 3
        assert list(apply(h, [E1, E1, E2])) == [0, 0, -1]
        assert h.entry(3, 1, 1, 2) == -1

    def test_slot0_vanishes_here(self):
        # f(g(x, y), z) needs g's output along e1, but g only outputs e2
        assert partial_compose(self.f, 0, self.g).is_zero

    def test_total_is_sum_of_slots(self):
        assert total_compose(self.f, self.g) == partial_compose(self.f, 1, self.g)

    def test_identity_neutral(self):
        ident = identity(3)
        for i in (0, 1):
            assert partial_compose(self.f, i, ident) == self.f
        assert partial_compose(ident, 0, self.g) == self.g

    def test_slot_out_of_range(self):
        with pytest.raises(ValueError):
            partial_compose(self.f, 2, self.g)
        with pytest.raises(ValueError):
            partial_compose(self.f, -1, self.g)
        with pytest.raises(TypeError):
            partial_compose(1, 0, self.g)

    def test_degree_zero_has_no_slots(self):
        v = Operation(3, 0)
        with pytest.raises(ValueError):
            partial_compose(v, 0, self.f)

    def test_apply_consistency_random(self):
        # (f o_i g)(args) must equal the signed nested evaluation
        rng = random.Random(4)
        for _ in range(30):
            d = rng.randint(1, 3)
            nf = rng.randint(1, 3)
            ng = rng.randint(1, 3)
            f = _random_operation(rng, d, nf)
            g = _random_operation(rng, d, ng)
            i = rng.randint(0, nf - 1)
            h = partial_compose(f, i, g)
            args = [[Fraction(rng.randint(-3, 3)) for _ in range(d)]
                    for _ in range(nf + ng - 1)]
            inner = apply(g, args[i:i + ng])
            outer = apply(f, args[:i] + [list(inner)] + args[i + ng:])
            sign = graded_sign(i * (ng - 1))
            assert list(apply(h, args)) == [sign * v for v in outer]


def _random_operation(rng, dim, degree):
    entries = {}
    for idx in itertools.product(range(1, dim + 1), repeat=degree + 1):
        if rng.random() < 0.4:
            entries[idx] = Fraction(rng.randint(-4, 4))
    return from_entries(dim, degree, entries)


class TestDegreeZero:
    v = Operation(3, 0, [Fraction(1), Fraction(2), Fraction(-1)])
    f = from_entries(3, 2, {(3, 1, 2): Fraction(1), (1, 2, 2): Fraction(2)})

    def test_total_compose_from_vector_is_zero_map(self):
        out = total_compose(self.v, self.f)
        assert out.degree == 1 and out.is_zero

    def test_vector_insertion_signs(self):
        # f . v = f(v, .) - f(., v) since (-1)**(i*(-1)) alternates
        out = total_compose(self.f, self.v)
        assert out.degree == 1
        plugged0 = [apply(self.f, [self.v.coeffs, e]) for e in (E1, E2, E3)]
        plugged1 = [apply(self.f, [e, self.v.coeffs]) for e in (E1, E2, E3)]
        for col, (p0c, p1c) in enumerate(zip(plugged0, plugged1)):
            for row in range(3):
                assert out.entry(row + 1, col + 1) == p0c[row] - p1c[row]

    @pytest.mark.parametrize("ring", ["Fraction", "Poly"])
    def test_bracket_of_matrix_with_vector_is_the_product(self, ring):
        # [A, v] = A . v - v . A, and a degree-0 v has no slot to fill, so
        # (A v)^i = sum over k of A^i_k v^k; zero entries on both sides
        rows = [[Fraction(1, 2), Fraction(0), Fraction(-3)],
                [Fraction(0), Fraction(0), Fraction(0)],
                [Fraction(2), Fraction(5, 7), Fraction(1)]]
        a = Operation.from_matrix(rows)
        entries = {"Fraction": [Fraction(1, 3), Fraction(0), Fraction(-2)],
                   "Poly": [poly.q * 2 + poly.a_minus, Poly(), poly.p * poly.p - 1]}[ring]
        out = gerstenhaber_bracket(a, Operation(3, 0, entries))
        assert out.degree == 0
        product = [sum((r * v for r, v in zip(row, entries)), Fraction(0)) for row in rows]
        assert list(out.coeffs) == product
        assert [hash(v) for v in out.coeffs] == [hash(v) for v in product]

    def test_two_vectors_rejected(self):
        w = Operation(3, 0)
        with pytest.raises(ValueError):
            total_compose(self.v, w)
        with pytest.raises(ValueError):
            gerstenhaber_bracket(self.v, w)


class TestGradedLie:
    def test_bracket_of_matrices_is_commutator(self):
        a = Operation.from_matrix([[0, 1], [0, 0]])
        b = Operation.from_matrix([[0, 0], [1, 0]])
        c = gerstenhaber_bracket(a, b)
        # matrix bracket: diag(1, -1)
        assert c.entry(1, 1) == 1 and c.entry(2, 2) == -1
        assert c.entry(1, 2) == 0 and c.entry(2, 1) == 0

    @given(st.lists(st.fractions(max_denominator=7), min_size=18, max_size=18))
    @settings(max_examples=100, deadline=None)
    def test_degree_one_bracket_is_matrix_commutator(self, values):
        # the bracket the matrix Lax residual reads: [A, B] = A.B - B.A,
        # entry for entry, on rational 3x3 matrices
        a = [values[0:3], values[3:6], values[6:9]]
        b = [values[9:12], values[12:15], values[15:18]]
        c = gerstenhaber_bracket(Operation.from_matrix(a), Operation.from_matrix(b))
        assert c.degree == 1
        for i in range(3):
            for j in range(3):
                expected = sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(3))
                assert c.entry(i + 1, j + 1) == expected

    def test_antisymmetry_random(self):
        rng = random.Random(11)
        for _ in range(40):
            d = rng.randint(1, 3)
            f = _random_operation(rng, d, rng.randint(0, 3))
            g = _random_operation(rng, d, rng.randint(0, 3))
            if f.degree == 0 and g.degree == 0:
                continue
            sign = graded_sign(f.reduced_degree * g.reduced_degree)
            left = gerstenhaber_bracket(f, g)
            right = gerstenhaber_bracket(g, f)
            assert left == (-sign) * right

    def test_graded_jacobi_random(self):
        rng = random.Random(12)
        for _ in range(25):
            d = rng.randint(1, 3)
            f = _random_operation(rng, d, rng.randint(1, 3))
            g = _random_operation(rng, d, rng.randint(1, 3))
            h = _random_operation(rng, d, rng.randint(1, 3))
            assert _jacobi_defect(f, g, h).is_zero


def _jacobi_defect(f, g, h):
    df, dg, dh = f.reduced_degree, g.reduced_degree, h.reduced_degree
    term1 = graded_sign(df * dh) * gerstenhaber_bracket(gerstenhaber_bracket(f, g), h)
    term2 = graded_sign(dg * df) * gerstenhaber_bracket(gerstenhaber_bracket(g, h), f)
    term3 = graded_sign(dh * dg) * gerstenhaber_bracket(gerstenhaber_bracket(h, f), g)
    return term1 + term2 + term3


def _kernel_operation(rng, dim, degree, kind, density):
    """Random entries of one kind, each nonzero with the given probability.

    Zeros take the operand's own zero: int 0, Fraction(0), or for `Poly`
    entries Fraction(0) and Poly() alike, as the Lax family holds them.
    """
    def nonzero():
        c = rng.choice([n for n in range(-4, 5) if n])
        if kind == "int":
            return c
        if kind == "Fraction":
            return Fraction(c, rng.randint(1, 3))
        return rng.choice([Fraction(c), c * poly.q + rng.randint(-2, 2), c * poly.p * poly.a_plus])

    zeros = {"int": [0], "Fraction": [Fraction(0)], "Poly": [Fraction(0), Poly()]}[kind]
    size = dim ** (degree + 1)
    flat = [nonzero() if rng.random() < density else rng.choice(zeros) for _ in range(size)]
    return Operation(dim, degree, flat)


class TestCompositionKernel:
    """The zero-skipping kernel against the dense one of reference_compose.py."""

    @pytest.mark.parametrize("kind", ["int", "Fraction", "Poly"])
    @pytest.mark.parametrize("density", [0.15, 0.5, 1.0])
    def test_matches_dense_kernel(self, kind, density):
        rng = random.Random(f"{kind}-{density}")
        for _ in range(12 if kind == "Poly" else 40):
            d = rng.randint(1, 3)
            f = _kernel_operation(rng, d, rng.randint(1, 3), kind, density)
            g = _kernel_operation(rng, d, rng.randint(0, 3), kind, density)
            for i in range(f.degree):
                got = partial_compose(f, i, g).coeffs
                want = dense_partial_compose(f, i, g)
                assert got == want and hash(got) == hash(want)
                for new, old in zip(got, want):
                    assert hash(new) == hash(old)
                    if kind != "Poly":
                        # rational operands keep their type: Fraction stays
                        # Fraction and int stays int
                        assert type(new) is type(old) is (int if kind == "int" else Fraction)
                    elif type(new) is not type(old):
                        # only a zero or constant Poly may come back as a scalar
                        assert _as_constant(new) == _as_constant(old)

    def test_all_zero_operands(self):
        for zero, kind in ((0, int), (Fraction(0), Fraction)):
            f = Operation(2, 2, (zero,) * 8)
            for i in range(2):
                flat = partial_compose(f, i, f).coeffs
                assert flat == dense_partial_compose(f, i, f)
                assert all(type(v) is kind for v in flat)


def _as_constant(value):
    return value.constant_value() if isinstance(value, Poly) else value


def _recording_mul(monkeypatch, cls):
    """Replace cls's `*` by one that records every call with a zero factor."""
    zero_calls = []
    mul, rmul = cls.__mul__, cls.__rmul__

    def record(method):
        def wrapped(self, other):
            if self == 0 or other == 0:
                zero_calls.append((self, other))
            return method(self, other)
        return wrapped

    monkeypatch.setattr(cls, "__mul__", record(mul))
    monkeypatch.setattr(cls, "__rmul__", record(rmul))
    return zero_calls


def _assert_same_entry(got, want):
    """Same type and value; for a polynomial, the same terms in the same order."""
    assert type(got) is type(want) and got == want
    if isinstance(want, (Poly, NCPoly)):
        assert list(got.terms.items()) == list(want.terms.items())
        assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]


class TestOneEntryList:
    """`total_compose` and `gerstenhaber_bracket` against the Operation sum
    of their partial compositions (`reference_compose`)."""

    def test_lax_family_brackets_keep_every_entry(self):
        # the brackets the verify suites form, and the class brackets both ways
        w, p0 = Fraction(3, 2), Fraction(3)
        m = rotation_generator(w)
        pairs = [(m, build_mu(LaxFamilyParams(tuple(int(k == n) for k in range(1, 10))),
                              poly.q, poly.p, poly.a_plus, poly.a_minus, w))
                 for n in range(1, 10)]
        pairs.append(tuple(build_matrix_lax(poly.q, poly.p, w))[::-1])
        for t in bianchi.all_types(Fraction(2, 3)):
            pairs += [(m, formal_deformation(t, w, p0)), (m, quantize(t, w, p0))]
        for f, g in pairs:
            for got, want in ((gerstenhaber_bracket(f, g), bracket_of_partials(f, g)),
                              (gerstenhaber_bracket(g, f), bracket_of_partials(g, f)),
                              (total_compose(g, f), total_of_partials(g, f))):
                assert (got.dim, got.degree) == (want.dim, want.degree)
                for x, y in zip(got.coeffs, want.coeffs, strict=True):
                    _assert_same_entry(x, y)

    @pytest.mark.parametrize("kinds", [("int", "Fraction"), ("Poly", "Fraction"),
                                       ("Poly", "Poly"), ("int", "Poly")])
    def test_random_operations_equal_the_sum(self, kinds):
        # entries may come back as the equal scalar, or with cancelled terms
        # in another order, but every entry equals and hashes like the sum's
        rng = random.Random(23)
        for _ in range(40):
            d = rng.randint(1, 3)
            f = _kernel_operation(rng, d, rng.randint(0, 2), kinds[0], 0.5)
            g = _kernel_operation(rng, d, rng.randint(0, 2), kinds[1], 0.5)
            if f.degree == 0 and g.degree == 0:
                continue
            got, want = gerstenhaber_bracket(f, g), bracket_of_partials(f, g)
            assert got == want and hash(got) == hash(want)
            if f.degree:
                got, want = total_compose(f, g), total_of_partials(f, g)
                assert got == want and hash(got) == hash(want)


class TestNoZeroProducts:
    """The composition and cyclic Jacobi kernels never multiply by zero."""

    def test_bracket_of_each_probe(self, monkeypatch):
        w = Fraction(1)
        for n in range(1, 10):
            probe = LaxFamilyParams(tuple(int(m == n) for m in range(1, 10)))
            mu = build_mu(probe, poly.q, poly.p, poly.a_plus, poly.a_minus, w)
            with monkeypatch.context() as patch:
                zero_calls = _recording_mul(patch, Poly)
                gerstenhaber_bracket(rotation_generator(w), mu)
            assert zero_calls == [], f"C{n} probe"

    def test_raw_jacobian(self, monkeypatch):
        mu = bianchi.deform(bianchi.BianchiType("VIIa", Fraction(1, 2)), 1, Fraction(2))
        zero_calls = _recording_mul(monkeypatch, Poly)
        bianchi.raw_jacobian(mu)
        assert zero_calls == []

    def test_basis_jacobian(self, monkeypatch):
        mu = quantize(bianchi.BianchiType("VIIa", Fraction(1, 2)), 1, Fraction(2))
        zero_calls = _recording_mul(monkeypatch, NCPoly)
        basis_jacobian(mu)
        assert zero_calls == []


class TestProbeSums:
    """The linear structure and the Lax residual on the family's unit probes."""

    def test_sum_and_difference_of_sparse_operations(self):
        w = Fraction(1)
        for n in range(1, 10):
            probe = LaxFamilyParams(tuple(int(m == n) for m in range(1, 10)))
            mu = build_mu(probe, poly.q, poly.p, poly.a_plus, poly.a_minus, w)
            bracket = gerstenhaber_bracket(rotation_generator(w), mu)
            total, difference = mu + bracket, mu - bracket
            assert total - bracket == mu and difference + bracket == mu, f"C{n} probe"

    def test_operadic_lax_residual_of_each_probe(self):
        for n in range(1, 10):
            probe = LaxFamilyParams(tuple(int(m == n) for m in range(1, 10)))
            assert operadic_lax_residual(probe, Fraction(3, 2)).is_zero, f"C{n} probe"


def _recording_fraction_mul(monkeypatch):
    """Replace Fraction's `*` by one that records every call whose other
    operand is not an int or a Fraction; `fractions` runs an ABC check
    before it hands such an operand to the reflected method."""
    calls = []
    mul = Fraction.__mul__

    def wrapped(self, other):
        if type(other) not in (int, Fraction):
            calls.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(Fraction, "__mul__", wrapped)
    return calls


class TestFractionOnTheRight:
    """Where one factor is a Fraction, the other operand's `*` runs first."""

    # s = sqrt(6) stays formal, so the entries hold ExtScalar coefficients
    VIIA = bianchi.BianchiType("VIIa", Fraction(1, 2))

    def test_bracket_and_operator_defect(self, monkeypatch):
        w, p0 = Fraction(3, 2), Fraction(3)
        mu, op = formal_deformation(self.VIIA, w, p0), quantize(self.VIIA, w, p0)
        assert any(type(c) is ExtScalar for v in mu.coeffs if isinstance(v, Poly)
                   for c in v.terms.values())
        calls = _recording_fraction_mul(monkeypatch)
        gerstenhaber_bracket(rotation_generator(w), mu)
        gerstenhaber_bracket(rotation_generator(w), op)
        basis_jacobian(op)
        s = ExtScalar(0, 1, p0=p0)
        (poly.q + 2) * s
        NCPoly.generator("Q") * NCPoly({("P",): s})
        assert calls == []

    def test_products_keep_type_and_term_order(self):
        # the dense kernel multiplies f's entry by g's, Fraction on the left
        w, p0 = Fraction(3, 2), Fraction(3)
        m = rotation_generator(w)
        for mu in (formal_deformation(self.VIIA, w, p0), quantize(self.VIIA, w, p0)):
            for f, g in ((m, mu), (mu, m)):
                for i in range(f.degree):
                    got = partial_compose(f, i, g).coeffs
                    for a, b in zip(got, dense_partial_compose(f, i, g), strict=True):
                        assert a == b
                        if isinstance(a, (Poly, NCPoly)):
                            assert list(a.terms.items()) == list(b.terms.items())
                            assert ([type(c) for c in a.terms.values()]
                                    == [type(c) for c in b.terms.values()])


# entries of every kind the linear structure meets: the exact zeros, a zero
# polynomial of each ring, the signed float zeros and nonzero scalars and
# polynomials of both rings
_ENTRIES = (0, Fraction(0), Poly(), NCPoly(), 0.0, -0.0, 2, Fraction(-3, 4),
            ExtScalar(1, -2, p0=Fraction(3)), poly.q * 2 + poly.a_minus,
            NCPoly.generator("Q") * NCPoly.generator("P") - 3, 1.5)


def _entry_outcomes(compute):
    try:
        return compute()
    except TypeError:
        # a polynomial and a float do not add, nor do a Poly and an NCPoly
        return TypeError


def _assert_same_entries(got, want):
    if want is TypeError:
        assert got is TypeError
        return
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert type(x) is type(y)
        if isinstance(y, float):
            assert repr(x) == repr(y)
        elif isinstance(y, (Poly, NCPoly)):
            assert list(x.terms) == list(y.terms) and x == y
            assert all(type(x.terms[k]) is type(c) for k, c in y.terms.items())
        else:
            assert x == y


class TestLinearStructureMatchesReference:
    """`Operation` + and - give the entries of the plain elementwise sum."""

    @pytest.mark.parametrize("negate", [False, True])
    def test_every_pair_of_entries(self, negate):
        for x, y in itertools.product(_ENTRIES, repeat=2):
            a, b = Operation(1, 0, [x]), Operation(1, 0, [y])
            got = _entry_outcomes(lambda: (a - b if negate else a + b).coeffs)
            want = _entry_outcomes(lambda: entry_sums([x], [y], negate))
            _assert_same_entries(got, want)

    @given(st.lists(st.sampled_from(_ENTRIES), min_size=18, max_size=18),
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_mixed_operations(self, entries, negate):
        a, b = Operation(3, 1, entries[:9]), Operation(3, 1, entries[9:])
        got = _entry_outcomes(lambda: (a - b if negate else a + b).coeffs)
        want = _entry_outcomes(lambda: entry_sums(entries[:9], entries[9:], negate))
        _assert_same_entries(got, want)
