from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operadyn.ncpoly import ExtScalar
from operadyn.poly import (Poly, as_poly, evaluate_terms, rational_sqrt, q, p,
                           a_plus, a_minus)
from reference_ring import derivative
from reference_trace import scalar_evaluate

coeffs = st.builds(Fraction, st.integers(), st.integers(1, 12))
exponents = st.tuples(*(st.integers(min_value=0, max_value=3),) * 4)
polys = st.dictionaries(exponents, coeffs, max_size=5).map(Poly)


class TestRingLaws:
    @given(polys, polys)
    def test_addition_commutes(self, f, g):
        assert f + g == g + f

    @given(polys, polys, polys)
    def test_addition_associates(self, f, g, h):
        assert (f + g) + h == f + (g + h)

    @given(polys, polys)
    def test_multiplication_commutes(self, f, g):
        assert f * g == g * f

    @given(polys, polys, polys)
    @settings(max_examples=40)
    def test_multiplication_associates(self, f, g, h):
        assert (f * g) * h == f * (g * h)

    @given(polys, polys, polys)
    @settings(max_examples=40)
    def test_distributive(self, f, g, h):
        assert f * (g + h) == f * g + f * h

    @given(polys)
    def test_additive_inverse(self, f):
        assert (f - f).is_zero
        assert f + (-f) == 0

    @given(polys)
    def test_neutral_elements(self, f):
        assert f + 0 == f
        assert f * 1 == f
        assert (f * 0).is_zero


class TestCalculus:
    def test_derivative_product_rule(self):
        f = q * p + a_plus ** 2
        g = Fraction(3, 2) * p - a_minus
        left = derivative(f * g, "p")
        right = derivative(f, "p") * g + f * derivative(g, "p")
        assert left == right

    def test_derivative_known(self):
        f = q ** 3 * p - 2 * a_plus
        assert derivative(f, "q") == 3 * q ** 2 * p
        assert derivative(f, "Ap") == Poly.constant(-2)
        assert derivative(f, "Am").is_zero

    def test_evaluate_exact(self):
        f = Fraction(1, 3) * q * p - a_minus ** 2
        value = scalar_evaluate(f.terms.items(),
                                (Fraction(3), Fraction(2), Fraction(0), Fraction(1, 2)))
        assert value == Fraction(7, 4)


floats = st.floats(min_value=-4, max_value=4, allow_nan=False)
points = st.lists(st.tuples(floats, floats, floats, floats), min_size=1, max_size=6)


class TestEvaluateTerms:
    def _check(self, f, pts):
        columns = tuple(map(list, zip(*pts)))
        got = evaluate_terms(f.terms.items(), columns)
        assert len(got) == len(pts)
        for value, pt in zip(got, pts):
            assert repr(value) == repr(scalar_evaluate(f.terms.items(), pt))

    @given(polys, points)
    def test_columns_match_point_by_point(self, f, pts):
        self._check(f, pts)

    def test_negative_coefficient_at_zero(self):
        # -1/2 * 0.0 is -0.0, and the sum from int 0 turns it into 0.0
        f = Fraction(-1, 2) * q
        pts = [(0.0, 1.0, 1.0, 0.0), (-0.0, 0.5, 2.0, 1.0), (1.5, 0.0, 0.0, 0.0)]
        assert repr(evaluate_terms(f.terms.items(), tuple(map(list, zip(*pts))))[0]) == "0.0"
        self._check(f, pts)
        # the same with a coefficient in Q(s), s = sqrt(6) formal
        g = ExtScalar(0, Fraction(-1, 4), p0=3) * a_minus + Fraction(-3, 4) * q
        self._check(g, pts)
        assert repr(evaluate_terms(g.terms.items(), ([0.0], [1.0], [1.0], [0.0]))[0]) == "0.0"

    def test_zero_polynomial(self):
        assert evaluate_terms((), ([1.0, 2.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0])) == [0, 0]
        assert scalar_evaluate(Poly().terms.items(), (1.0, 2.0, 3.0, 4.0)) == 0

    def test_exact_columns(self):
        f = Fraction(1, 3) * q * p - a_minus ** 2
        got = evaluate_terms(f.terms.items(), ([Fraction(3), 0], [Fraction(2), 1],
                                               [0, 0], [Fraction(1, 2), 2]))
        assert got == [Fraction(7, 4), -4]


class TestCanonicalText:
    def test_zero(self):
        assert str(Poly()) == "(0)"

    def test_known_form(self):
        f = Fraction(-1, 4) * p + Fraction(1, 2)
        assert str(f) == "(-1/4)*p + (1/2)"

    def test_degree_sorted(self):
        f = 1 + q + q * p + a_minus ** 3
        assert str(f) == "(1)*Am^3 + (1)*q*p + (1)*q + (1)"


class TestHelpers:
    def test_as_poly(self):
        assert as_poly(Fraction(1, 2)) == Fraction(1, 2)
        assert as_poly(q) is q
        # an s-free ExtScalar folds to its Fraction, and a zero is dropped
        (coeff,) = Poly.constant(ExtScalar(3, 0, p0=2)).terms.values()
        assert type(coeff) is Fraction and coeff == 3
        s = ExtScalar(0, 1, p0=3)
        assert Poly.constant(s).terms == {(0, 0, 0, 0): s}
        for zero in (0, Fraction(0), ExtScalar(0, 0, p0=2)):
            assert Poly.constant(zero).terms == {} and as_poly(zero).is_zero

    def test_rational_sqrt(self):
        assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert rational_sqrt(4) == 2
        assert rational_sqrt(Fraction(2)) is None
        assert rational_sqrt(-1) is None

    def test_constant_value(self):
        assert (q - q + 5).constant_value() == 5
        assert (q - q + 5).is_constant and Poly().is_constant
        assert not q.is_constant and not (q * 0 + p + 1).is_constant
        with pytest.raises(ValueError):
            q.constant_value()

    @pytest.mark.parametrize("zero", [0, Fraction(0), ExtScalar(0, 0, p0=2)])
    def test_subtracting_zero(self, zero):
        # f - 0 is f itself and 0 - f is -f, with its terms in the same order
        f = Fraction(1, 3) * q * p - a_minus ** 2 + 5
        assert f - zero is f
        assert (zero - f).terms == (-f).terms
        assert list((zero - f).terms) == list((-f).terms)
        assert f - 2 == f + (-2) and 2 - f == -f + 2

    def test_bad_coefficient_rejected(self):
        with pytest.raises(TypeError):
            Poly({(0, 0, 0, 0): "nope"})
        with pytest.raises(TypeError):
            Poly({(0, 0, 0, 0): 0.5})
        with pytest.raises(TypeError):
            0.1 * q
        for bad in (0.5, "1"):
            with pytest.raises(TypeError):
                Poly.constant(bad)
            with pytest.raises(TypeError):
                as_poly(bad)

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError):
            Poly({(0, 0, -1, 0): Fraction(1)})
        for power in (-1, 1.5):
            with pytest.raises(ValueError):
                q ** power
        with pytest.raises(ValueError):
            Poly.variable("x")
