import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operadyn.ncpoly import GENERATORS, ExtScalar, NCPoly, commutator
from operadyn.poly import Poly

P0 = Fraction(2)

rationals = st.fractions(max_denominator=8)
scalars = st.builds(lambda u, v: ExtScalar(u, v, p0=P0), rationals, rationals)
words = st.lists(st.sampled_from(GENERATORS), max_size=3).map(tuple)
ncpolys = st.dictionaries(words, scalars, max_size=4).map(
    lambda terms: NCPoly(terms, p0=P0))


class TestExtScalar:
    def test_square_root_squares(self):
        s = ExtScalar(0, 1, p0=P0)
        assert s * s == 2 * P0

    def test_frozen_example(self):
        assert ExtScalar(0, 2, p0=P0) * ExtScalar(0, 2, p0=P0) == 16

    def test_inverse(self):
        x = ExtScalar(Fraction(3), Fraction(-1, 2), p0=P0)
        assert x * x.inverse() == 1
        with pytest.raises(ZeroDivisionError):
            ExtScalar(0, 0, p0=P0).inverse()

    def test_sqrt_p0_cubed_representation(self):
        # 1/sqrt(2 p0**3) = s / (2 p0**2); times p0*s it gives... sanity:
        # (p0*s)**2 = 2 p0**3
        p0s = ExtScalar(0, P0, p0=P0)
        assert p0s * p0s == 2 * P0 ** 3

    def test_context_mixing_rejected(self):
        with pytest.raises(ValueError):
            ExtScalar(1, p0=2) + ExtScalar(1, p0=Fraction(1, 2))

    @given(scalars, scalars, scalars)
    def test_ring_laws(self, x, y, z):
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        assert x + y == y + x

    @given(scalars)
    def test_text_round_trip(self, x):
        assert ExtScalar.from_text(str(x), p0=P0) == x


class TestNCPoly:
    def test_noncommutative(self):
        q = NCPoly.generator("Q", p0=P0)
        p = NCPoly.generator("P", p0=P0)
        assert q * p != p * q
        c = commutator(q, p)
        assert str(c) == "(1)*Q*P + (-1)*P*Q"
        assert commutator(q, q).is_zero

    def test_scalars_are_central(self):
        q = NCPoly.generator("Q", p0=P0)
        s = ExtScalar(0, 1, p0=P0)
        assert s * q == q * s

    def test_word_order_length_then_lex(self):
        f = NCPoly({("Am",): Fraction(1), ("Q", "P"): Fraction(1),
                    (): Fraction(1), ("P",): Fraction(1)}, p0=P0)
        assert str(f) == "(1)*1 + (1)*P + (1)*Am + (1)*Q*P"

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            NCPoly.generator("X", p0=P0)
        with pytest.raises(ValueError):
            NCPoly({("q",): Fraction(1)}, p0=P0)

    def test_context_mixing_rejected(self):
        a = NCPoly.generator("Q", p0=2)
        b = NCPoly.generator("Q", p0=Fraction(1, 2))
        with pytest.raises(ValueError):
            a + b

    def test_scalar_predicates(self):
        z = NCPoly({}, p0=P0)
        assert z.is_zero and z.is_scalar
        assert z.scalar_value() == 0
        f = NCPoly.scalar(ExtScalar(1, 1, p0=P0), p0=P0)
        assert f.is_scalar and not f.is_zero
        g = NCPoly.generator("Ap", p0=P0)
        assert not g.is_scalar
        with pytest.raises(ValueError):
            g.scalar_value()

    def test_commutative_image(self):
        f = commutator(NCPoly.generator("Q", p0=P0), NCPoly.generator("P", p0=P0))
        assert f.commutative_image(1.3, -0.7, 0.2, 0.9) == pytest.approx(0.0)

    @given(ncpolys, ncpolys, ncpolys)
    @settings(max_examples=50)
    def test_associativity(self, f, g, h):
        assert (f * g) * h == f * (g * h)

    @given(ncpolys, ncpolys, ncpolys)
    @settings(max_examples=50)
    def test_distributivity(self, f, g, h):
        assert f * (g + h) == f * g + f * h

    @given(ncpolys, ncpolys)
    def test_addition_commutes(self, f, g):
        assert f + g == g + f

    @given(ncpolys)
    def test_text_round_trip(self, f):
        assert NCPoly.from_text(str(f), p0=P0) == f

    @given(ncpolys, ncpolys, ncpolys)
    @settings(max_examples=30)
    def test_commutator_leibniz(self, f, g, h):
        # [f, g*h] = [f, g]*h + g*[f, h]
        assert commutator(f, g * h) == commutator(f, g) * h + g * commutator(f, h)


@given(rationals, rationals)
def test_equal_values_hash_alike(u, v):
    # one rational, and one element of Q(s), in each of their representations
    rational = [u, ExtScalar(u, p0=P0), Poly.constant(u), NCPoly.scalar(u, p0=P0)]
    if u.denominator == 1:
        rational.append(int(u))
    x = ExtScalar(u, v, p0=P0)
    forms = rational + [x, Poly.constant(x), NCPoly.scalar(x, p0=P0)]
    assert all(a == u for a in rational)
    for a in forms:
        for b in forms:
            if a == b:
                assert hash(a) == hash(b), (a, b)


class TestParsers:
    PARSERS = (Poly.from_text,
               lambda text: NCPoly.from_text(text, p0=P0),
               lambda text: ExtScalar.from_text(text, p0=P0))

    @pytest.mark.parametrize("parse, text", [
        (PARSERS[0], "(1/0)*q"),
        (PARSERS[0], "(1)**q"),
        (PARSERS[0], "(1)*q^-1"),
        (PARSERS[1], "(1/0)*Q"),
        (PARSERS[1], "(1)*Q**P"),
        (PARSERS[2], "1/0*s"),
        (PARSERS[2], "1/0"),
    ])
    def test_bad_term_named(self, parse, text):
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            parse(text)

    @given(st.text(alphabet="()*/+-^ 0123456789qpQPAmsx", max_size=24) | st.text(max_size=24))
    def test_only_value_error(self, text):
        for parse in self.PARSERS:
            try:
                parse(text)
            except ValueError:
                pass
