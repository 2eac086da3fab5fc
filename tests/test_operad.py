"""Composition, signs, and the graded Lie structure of operations.

The frozen examples were expanded by hand from the defining formula
    (f o_i g)(x_0, ..., x_{m+n-2}) = f(x_0, ..., g(x_i, ...), ...)
with the sign (-1)**(i*|g|), before the implementation existed.
"""

import itertools
import random
from fractions import Fraction

import pytest

from operadyn.operad import (MAX_DEGREE, MAX_DIM, Operation, Tensor,
                             gerstenhaber_bracket, graded_sign,
                             partial_compose, total_compose)


def basis(d, i):
    v = [Fraction(0)] * d
    v[i - 1] = Fraction(1)
    return v


E1, E2, E3 = basis(3, 1), basis(3, 2), basis(3, 3)


def test_graded_sign():
    assert graded_sign(0) == 1
    assert graded_sign(1) == -1
    assert graded_sign(2) == 1
    assert graded_sign(-1) == -1
    assert graded_sign(-2) == 1


class TestConstruction:
    def test_entries_are_one_based(self):
        f = Operation.from_entries(3, 2, {(3, 1, 2): Fraction(1)})
        assert f.entry(3, 1, 2) == 1
        assert f.entry(3, 2, 1) == 0

    def test_identity_applies(self):
        ident = Operation.identity(3)
        assert list(ident.apply([E2])) == E2

    def test_apply_is_multilinear_lookup(self):
        f = Operation.from_entries(3, 2, {(3, 1, 2): Fraction(1)})
        assert list(f.apply([E1, E2])) == E3
        assert list(f.apply([E2, E1])) == [0, 0, 0]

    def test_dimension_limit(self):
        with pytest.raises(ValueError):
            Operation(MAX_DIM + 1, 1)

    def test_degree_limit_public_only(self):
        with pytest.raises(ValueError):
            Operation(2, MAX_DEGREE + 1)
        # internal results may exceed the public cap
        f = Operation(2, MAX_DEGREE + 1, check_limits=False)
        assert f.is_zero

    def test_wrong_index_rejected(self):
        with pytest.raises(ValueError):
            Operation.from_entries(3, 2, {(0, 1, 2): 1})
        with pytest.raises(ValueError):
            Operation.from_entries(3, 2, {(1, 1, 4): 1})

    def test_shape_mismatch_rejected(self):
        f = Operation(3, 2)
        g = Operation(3, 1)
        with pytest.raises(ValueError):
            f + g


class TestTensor:
    def test_row_major_indexing(self):
        t = Tensor.of([[[1, 2], [3, 4]], [[5, 6], [7, 8]]], (2, 2, 2))
        assert t.flat == (1, 2, 3, 4, 5, 6, 7, 8) and t.size == 8
        assert t[0, 1, 0] == 3 and t[1, 0, 1] == 6
        with pytest.raises(IndexError):
            t[0, 2, 0]

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            Tensor((1, 2, 3), (2, 2))
        with pytest.raises(ValueError):
            Tensor.of([[1, 2], [3]], (2, 2))
        with pytest.raises(ValueError):
            Tensor.of([[[1], [2]], [[3], [4]]], (2, 2))
        with pytest.raises(ValueError):
            Tensor.of(Tensor((1, 2, 3, 4), (4,)), (2, 2))
        with pytest.raises(ValueError):
            Operation(2, 1, [[1, 2], [3, 4], [5, 6]])

    def test_read_only(self):
        t = Operation.identity(2).coeffs
        with pytest.raises(TypeError):
            t[0, 0] = 5
        with pytest.raises(AttributeError):
            t.flat = (5, 0, 0, 1)
        assert t.flat == (1, 0, 0, 1)


class TestPartialCompose:
    # f(e1, e2) = e3 and g(e1, e2) = e2, both zero elsewhere
    f = Operation.from_entries(3, 2, {(3, 1, 2): Fraction(1)})
    g = Operation.from_entries(3, 2, {(2, 1, 2): Fraction(1)})

    def test_slot1_hand_expansion(self):
        # h(x, y, z) = -f(x, g(y, z)); the sign is (-1)**(1*1) = -1,
        # so h(e1, e1, e2) = -f(e1, e2) = -e3
        h = partial_compose(self.f, 1, self.g)
        assert h.degree == 3
        assert list(h.apply([E1, E1, E2])) == [0, 0, -1]
        assert h.entry(3, 1, 1, 2) == -1

    def test_slot0_vanishes_here(self):
        # f(g(x, y), z) needs g's output along e1, but g only outputs e2
        assert partial_compose(self.f, 0, self.g).is_zero

    def test_total_is_sum_of_slots(self):
        assert total_compose(self.f, self.g) == partial_compose(self.f, 1, self.g)

    def test_identity_neutral(self):
        ident = Operation.identity(3)
        for i in (0, 1):
            assert partial_compose(self.f, i, ident) == self.f
        assert partial_compose(ident, 0, self.g) == self.g

    def test_slot_out_of_range(self):
        with pytest.raises(ValueError):
            partial_compose(self.f, 2, self.g)
        with pytest.raises(ValueError):
            partial_compose(self.f, -1, self.g)

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
            inner = g.apply(args[i:i + ng])
            outer = f.apply(args[:i] + [list(inner)] + args[i + ng:])
            sign = graded_sign(i * (ng - 1))
            assert list(h.apply(args)) == [sign * v for v in outer]


def _random_operation(rng, dim, degree):
    entries = {}
    for idx in itertools.product(range(1, dim + 1), repeat=degree + 1):
        if rng.random() < 0.4:
            entries[idx] = Fraction(rng.randint(-4, 4))
    return Operation.from_entries(dim, degree, entries)


class TestDegreeZero:
    v = Operation(3, 0, [Fraction(1), Fraction(2), Fraction(-1)])
    f = Operation.from_entries(3, 2, {(3, 1, 2): Fraction(1), (1, 2, 2): Fraction(2)})

    def test_total_compose_from_vector_is_zero_map(self):
        out = total_compose(self.v, self.f)
        assert out.degree == 1 and out.is_zero

    def test_vector_insertion_signs(self):
        # f . v = f(v, .) - f(., v) since (-1)**(i*(-1)) alternates
        out = total_compose(self.f, self.v)
        assert out.degree == 1
        plugged0 = [self.f.apply([self.v.coeffs, e]) for e in (E1, E2, E3)]
        plugged1 = [self.f.apply([e, self.v.coeffs]) for e in (E1, E2, E3)]
        for col, (p0c, p1c) in enumerate(zip(plugged0, plugged1)):
            for row in range(3):
                assert out.coeffs[row, col] == p0c[row] - p1c[row]

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
