import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_ring
from operadyn.lax import _time_derivative
from operadyn.ncpoly import GENERATORS, ExtScalar, NCPoly, commutator
from operadyn.poly import Poly

P0 = Fraction(2)

rationals = st.builds(Fraction, st.integers(), st.integers(1, 8))
scalars = st.builds(lambda u, v: ExtScalar(u, v, p0=P0), rationals, rationals)
words = st.lists(st.sampled_from(GENERATORS), max_size=3).map(tuple)
ncpolys = st.dictionaries(words, scalars, max_size=4).map(NCPoly)


class TestExtScalar:
    def test_square_root_squares(self):
        s = ExtScalar(0, 1, p0=P0)
        assert s * s == 2 * P0

    def test_frozen_example(self):
        assert ExtScalar(0, 2, p0=P0) * ExtScalar(0, 2, p0=P0) == 16

    def test_sqrt_p0_cubed_representation(self):
        # 1/sqrt(2 p0**3) = s / (2 p0**2); times p0*s it gives... sanity:
        # (p0*s)**2 = 2 p0**3
        p0s = ExtScalar(0, P0, p0=P0)
        assert p0s * p0s == 2 * P0 ** 3

    def test_context_mixing_rejected(self):
        with pytest.raises(ValueError):
            ExtScalar(1, p0=2) + ExtScalar(1, p0=Fraction(1, 2))

    @pytest.mark.parametrize("u, v, p0", [
        (0.1, Fraction(1, 2), 2),
        (0, 0.5, 2),
        (1, 0, 2.0),
        ("1/2", 0, 2),
    ])
    def test_non_rational_rejected(self, u, v, p0):
        # the exact layers have no float fallback
        with pytest.raises(TypeError):
            ExtScalar(u, v, p0=p0)

    @given(scalars, scalars, scalars)
    def test_ring_laws(self, x, y, z):
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        assert x + y == y + x

    @pytest.mark.parametrize("u, v, p0, expected", [
        # float(v) is subnormal, so float(v) * sqrt(2*p0) kept few digits
        (0, Fraction(1, 10**320), Fraction(10**300), 1.4142135623730951e-170),
        # float(2*p0) overflows, though the value is a normal float
        (0, Fraction(1, 10**400), Fraction(10**700), 1.414213562373095e-50),
        # float(v) overflows and float(2*p0) underflows
        (0, Fraction(10**400), Fraction(1, 10**700), 1.414213562373095e+50),
        (0, Fraction(-1), Fraction(1, 10**330), -1.414213562373095e-165),
        # a subnormal result, and u added after v*s is rounded
        (0, Fraction(7, 10**310), Fraction(3, 2), 1.21243556529821e-309),
        (1, Fraction(-7, 10**310), Fraction(3, 2), 1.0),
        # u and v*s cancel to 5 of their 17 digits
        (Fraction(-99, 70), 1, 1, -7.215191261923692e-05),
        # 1 + 2**-53 + about 2**-201: just above a rounding midpoint
        (2, -1, (1 - Fraction(1, 2**53)) ** 2 / 2 - Fraction(1, 2**201), 1.0000000000000002),
    ])
    def test_float_is_correctly_rounded_at_the_float_range(self, u, v, p0, expected):
        # each expected value is u + v*sqrt(2*p0) to 200 digits, rounded once
        assert float(ExtScalar(u, v, p0=p0)) == expected

    @given(st.fractions(max_denominator=10**6), st.fractions(max_denominator=10**6),
           st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6))
    def test_float_of_an_ordinary_value_is_unchanged(self, u, v, p0):
        # where u and v do not have opposite signs and float(v) and float(2*p0)
        # are normal floats, the float is float(u) + float(v) * sqrt(2*p0) bit
        # for bit, so no trace byte moves
        v = v if u * v >= 0 else -v
        got = float(ExtScalar(u, v, p0=p0))
        assert repr(got) == repr(float(u) + float(v) * math.sqrt(2 * p0))

    @given(st.fractions(max_denominator=10**6).filter(bool),
           st.fractions(max_denominator=10**6).filter(bool),
           st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6))
    def test_float_with_cancellation_is_correctly_rounded(self, u, v, p0):
        # u and v*s of opposite signs lose up to about 50 of the terms' digits
        # here, so 120 digits of the exact value round like the value itself
        u = abs(u) if v < 0 else -abs(u)
        with localcontext() as ctx:
            ctx.prec = 120
            exact = (Decimal(u.numerator) / u.denominator
                     + Decimal(v.numerator) / v.denominator
                     * (Decimal(2 * p0.numerator) / p0.denominator).sqrt())
        assert float(ExtScalar(u, v, p0=p0)) == float(exact)


class TestNCPoly:
    def test_noncommutative(self):
        q = NCPoly.generator("Q")
        p = NCPoly.generator("P")
        assert q * p != p * q
        c = commutator(q, p)
        assert str(c) == "(1)*Q*P + (-1)*P*Q"
        assert commutator(q, q).is_zero

    def test_scalars_are_central(self):
        q = NCPoly.generator("Q")
        s = ExtScalar(0, 1, p0=P0)
        assert s * q == q * s

    def test_word_order_length_then_lex(self):
        f = NCPoly({("Am",): Fraction(1), ("Q", "P"): Fraction(1),
                    (): Fraction(1), ("P",): Fraction(1)})
        assert str(f) == "(1)*1 + (1)*P + (1)*Am + (1)*Q*P"

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            NCPoly.generator("X")
        with pytest.raises(ValueError):
            NCPoly({("q",): Fraction(1)})

    def test_non_rational_rejected(self):
        with pytest.raises(TypeError):
            NCPoly({("Q",): 0.5})
        with pytest.raises(TypeError):
            0.5 * NCPoly.generator("Q")

    def test_context_mixing_rejected(self):
        a = NCPoly({("Q",): ExtScalar(0, 1, p0=2)})
        b = NCPoly({("Q",): ExtScalar(0, 1, p0=Fraction(1, 2))})
        with pytest.raises(ValueError):
            a + b

    def test_scalar_predicates(self):
        z = NCPoly({})
        assert z.is_zero and z.is_constant
        # the zero element's value is the Fraction 0, as for a Poly
        assert type(z.constant_value()) is Fraction and z.constant_value() == 0
        f = NCPoly({(): ExtScalar(1, 1, p0=P0)})
        assert f.is_constant and not f.is_zero
        g = NCPoly.generator("Ap")
        assert not g.is_constant
        with pytest.raises(ValueError):
            g.constant_value()

    def test_commutative_image(self):
        # sending each word to its commutative monomial cancels [Q, P] exactly
        f = commutator(NCPoly.generator("Q"), NCPoly.generator("P"))
        image = sum((Poly({tuple(word.count(g) for g in GENERATORS): c})
                     for word, c in f.terms.items()), Poly())
        assert len(f.terms) == 2 and image.is_zero

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

    @given(ncpolys, ncpolys, ncpolys)
    @settings(max_examples=30)
    def test_commutator_leibniz(self, f, g, h):
        # [f, g*h] = [f, g]*h + g*[f, h]
        assert commutator(f, g * h) == commutator(f, g) * h + g * commutator(f, h)


@given(rationals, rationals)
def test_equal_values_hash_alike(u, v):
    # one rational, and one element of Q(s), in each of their representations
    rational = [u, ExtScalar(u, p0=P0), Poly.constant(u), NCPoly({(): u})]
    if u.denominator == 1:
        rational.append(int(u))
    x = ExtScalar(u, v, p0=P0)
    forms = rational + [x, Poly.constant(x), NCPoly({(): x})]
    assert all(a == u for a in rational)
    for a in forms:
        for b in forms:
            if a == b:
                assert hash(a) == hash(b), (a, b)


terms_strategy = st.dictionaries(
    st.tuples(*(st.integers(min_value=0, max_value=2),) * 4), scalars.filter(bool),
    min_size=2, max_size=5)


@given(terms_strategy, st.randoms(use_true_random=False))
def test_equal_elements_hash_alike_in_any_term_order(terms, rng):
    # the same terms given in another order build an equal element, which
    # hashes alike, for Poly and NCPoly both
    items = list(terms.items())
    rng.shuffle(items)
    words = {exps: tuple(g for g, e in zip(GENERATORS, exps) for _ in range(e))
             for exps in terms}
    for build in (Poly, lambda t: NCPoly({words[k]: c for k, c in t.items()})):
        a, b = build(terms), build(dict(items))
        assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("terms", [{}, {(): Fraction(3)}, {(): ExtScalar(0, 1, p0=2)},
                                   {("Q", "P"): Fraction(1), ("Am",): Fraction(-2)}])
def test_ncpolys_of_different_p0_compare_by_value(terms):
    # == compares the terms, an s-part only within its context, and the
    # arithmetic agrees: rational elements combine, s-parts of two p0 raise
    a = NCPoly({w: _rebase(c, 2) for w, c in terms.items()})
    b = NCPoly({w: _rebase(c, 3) for w, c in terms.items()})
    rational = all(type(c) is Fraction for c in terms.values())
    assert (a == b) is rational and (b == a) is rational and (a != b) is not rational
    assert hash(a) == hash(b) or not rational
    if rational:
        assert a + b == 2 * a and (a - b).is_zero and a * b == a * a
    else:
        with pytest.raises(ValueError, match="^mixed p0 contexts: 2 vs 3$"):
            a + b


@pytest.mark.parametrize("ring, x, y", [(Poly, (1, 0, 0, 0), (0, 1, 0, 0)),
                                        (NCPoly, ("Q",), ("P",))])
def test_elements_of_different_p0_do_not_mix(ring, x, y):
    # an element's context is the p0 of its s-parts, in both rings:
    # construction, +, - and * with an s-part of another p0 raise
    s2, s3 = ExtScalar(0, 1, p0=2), ExtScalar(0, 1, p0=3)
    f, g = ring({x: s2}), ring({y: s3})
    for mix in (lambda: ring({**f.terms, **g.terms}), lambda: ring({x: s2, y: s3}),
                lambda: f + g, lambda: f - g, lambda: f + s3, lambda: f - s3,
                lambda: s3 + f, lambda: s3 - f, lambda: f * g, lambda: g * f,
                lambda: f * s3, lambda: s3 * f):
        with pytest.raises(ValueError, match="^mixed p0 contexts: (2 vs 3|3 vs 2)$"):
            mix()
    # a rational of any context, s-free ExtScalars included, has no context
    rational = ring({y: ExtScalar(1, 0, p0=3)})
    assert f + rational == rational + f == ring({**f.terms, **rational.terms})
    assert f - ExtScalar(2, 0, p0=3) == f - 2
    assert f * rational == f * ring({y: 1})


def test_keys_naming_one_monomial_add_up():
    # two spellings of one key are one monomial, whose coefficients add
    assert NCPoly({"QP": 1, ("Q", "P"): 2}) == 3 * NCPoly.generator("Q") * NCPoly.generator("P")
    assert Poly({b"\x01\x00\x00\x00": 1, (1, 0, 0, 0): 1}) == 2 * Poly.variable("q")
    # s-parts of one p0 add like any coefficient, and cancel to nothing
    s = ExtScalar(0, 1, p0=2)
    assert NCPoly({"Q": s, ("Q",): -s, "P": 1}) == NCPoly.generator("P")
    # and s-parts of two p0 on one monomial raise
    with pytest.raises(ValueError, match="^mixed p0 contexts: 2 vs 3$"):
        NCPoly({"Q": s, ("Q",): ExtScalar(0, 1, p0=3)})


def _rebase(c, p0):
    return ExtScalar(c.u, c.v, p0=p0) if isinstance(c, ExtScalar) else c


@pytest.mark.parametrize("value", [0, Fraction(5, 2), ExtScalar(1, 1, p0=P0)])
def test_poly_and_ncpoly_share_only_constants(value):
    # the two rings share scalars: their constants equal them and each other,
    # and no other elements of the two compare equal
    f, x = Poly.constant(value), NCPoly({(): value})
    assert f == value and x == value
    assert f == x and x == f and not (f != x) and hash(f) == hash(x)
    g = Poly({(1, 0, 0, 0): value or 1})
    y = NCPoly({("Q",): value or 1})
    assert g != y and y != g
    # and neither compares with what is no value
    assert g.__eq__("q") is NotImplemented and y.__eq__("Q") is NotImplemented


class _Float(float):
    """A float subclass, as numpy's float64 is one."""


@st.composite
def exact_values(draw):
    """An int, Fraction, float, float subclass, Decimal, complex, ExtScalar,
    Poly or NCPoly over a few values, which meet across types and the
    contexts p0 = 2 and 3: u + v*s with u in {0, 1/2, 1, 2} and v in {0, 1},
    as a scalar, a constant, or the coefficient of q (Q); and -0.0."""
    u = draw(st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))))
    v = draw(st.sampled_from((0, 1)))
    p0 = draw(st.sampled_from((Fraction(2), Fraction(3))))
    c = ExtScalar(u, v, p0=p0)
    constant = draw(st.booleans())
    return draw(st.sampled_from((
        int(u) if u.denominator == 1 else u, u, float(u), -0.0, c,
        _Float(u), Decimal(u.numerator) / u.denominator, complex(u),
        Poly({(0, 0, 0, 0) if constant else (1, 0, 0, 0): c}),
        NCPoly({() if constant else ("Q",): c}),
    )))


@settings(max_examples=300, deadline=None)
@given(st.lists(exact_values(), min_size=3, max_size=3))
@example([ExtScalar(2, 0, p0=2), 2, ExtScalar(2, 0, p0=3)])
@example([Poly.constant(2), 2, NCPoly({(): 2})])
@example([ExtScalar(1, 0, p0=2), Fraction(1), 1.0])
@example([ExtScalar(1, 0, p0=2), Fraction(1), _Float(1.0)])
@example([Poly.constant(1), Fraction(1), Decimal(1)])
@example([NCPoly({(): 1}), Fraction(1), 1 + 0j])
def test_equality_is_an_equivalence_that_hash_agrees_with(values):
    for a in values:
        assert a == a
        # a value is truthy exactly when it is nonzero
        assert bool(a) is (a != 0), a
        for b in values:
            assert (a == b) is (b == a) is not (a != b), (a, b)
            if a == b:
                assert hash(a) == hash(b), (a, b)
                for c in values:
                    assert a == c or b != c, (a, b, c)


# Operands for the trusted ring operations: s-parts that cancel (s*s is
# rational), and p0 = 2, where sigma = 2 is rational and (2 - s)(2 + s) = 0,
# as well as p0 = 3, where it is not.
small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
s_parts = small.filter(lambda v: v != 0)


@st.composite
def ring_operands(draw):
    p0 = draw(st.sampled_from((Fraction(2), Fraction(3))))
    # pure multiples of s make s*s likely
    ext = st.builds(lambda u, v: ExtScalar(u, v, p0=p0), st.just(0) | small, s_parts)
    coeff = small | ext
    exps = st.tuples(*(st.integers(min_value=0, max_value=1),) * 4)
    ncwords = st.lists(st.sampled_from(GENERATORS), max_size=2).map(tuple)
    f, g = (Poly(draw(st.dictionaries(exps, coeff, max_size=3))) for _ in range(2))
    x, y = (NCPoly(draw(st.dictionaries(ncwords, coeff, max_size=3))) for _ in range(2))
    c = draw(coeff | st.integers(min_value=-2, max_value=2))
    return p0, f, g, x, y, c


def _assert_coefficient_format(r, copy, p0):
    # the terms of r, in order, are those the checking constructor keeps, and
    # each coefficient is a nonzero Fraction or an ExtScalar of context p0
    # with nonzero s-part: an s-free ExtScalar is stored as its Fraction
    assert list(copy.terms) == list(r.terms)
    for key, coeff in r.terms.items():
        twin = copy.terms[key]
        assert type(coeff) is type(twin) and coeff == twin
        assert coeff != 0
        if type(coeff) is ExtScalar:
            assert coeff.v != 0
            assert type(coeff.u) is Fraction and type(coeff.v) is Fraction
            assert type(coeff.p0) is Fraction and coeff.p0 == p0
        else:
            assert type(coeff) is Fraction
    assert hash(r) == hash(copy)


@given(ring_operands())
@settings(max_examples=100)
def test_ring_results_hold_the_invariants(operands):
    p0, f, g, x, y, c = operands
    polys = [f + g, f - g, f * g, -f, c * f, f * c, f + c, c - f,
             _time_derivative(f, Fraction(3, 4), Fraction(-9, 4), Fraction(-3, 4))]
    for r in polys:
        _assert_coefficient_format(r, Poly(r.terms), p0)
    ncpolys = [x + y, x - y, x * y, -x, c * x, x * c, x + c, c - x]
    for r in ncpolys:
        _assert_coefficient_format(r, NCPoly(r.terms), p0)


def test_zero_divisor_products_vanish():
    # at p0 = 2, sigma = 2 is rational, so (2 - s)(2 + s) = 4 - 2*p0 = 0
    minus, plus = ExtScalar(2, -1, p0=P0), ExtScalar(2, 1, p0=P0)
    assert (minus * plus).is_zero
    # s - 2 is a nonzero element whose value is exactly 0.0
    assert float(ExtScalar(-2, 1, p0=P0)) == 0.0 and ExtScalar(-2, 1, p0=P0)
    assert (Poly({(1, 0, 0, 0): minus}) * Poly({(0, 1, 0, 0): plus})).is_zero
    assert (Poly({(1, 0, 0, 0): minus}) * plus).is_zero
    x = NCPoly({("Q",): minus})
    assert (x * NCPoly({("P",): plus})).is_zero
    assert (x * plus).is_zero and (plus * x).is_zero


# ---- the exact-type fast paths against the generic bodies they replaced

_RING_METHODS = (
    ("__add__", reference_ring.ring_add), ("__radd__", reference_ring.ring_add),
    ("__sub__", reference_ring.ring_sub), ("__rsub__", reference_ring.ring_rsub),
    ("__mul__", reference_ring.ring_mul), ("__rmul__", reference_ring.ring_mul),
    ("__eq__", reference_ring.ring_eq),
)


def _outcome(fn, *args):
    """fn(*args), or the class of the ValueError it raises (mixed p0)."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def _assert_same_element(got, want):
    # the same type, and for an element the same terms in the same order,
    # each coefficient of the same type and value, and the same hash
    assert type(got) is type(want)
    if isinstance(want, (Poly, NCPoly)):
        assert list(got.terms) == list(want.terms)
        for key, coeff in want.terms.items():
            assert type(got.terms[key]) is type(coeff) and got.terms[key] == coeff
        assert got == want and hash(got) == hash(want)
    else:
        assert got == want


def _assert_same_scalar(got, want):
    assert type(got) is ExtScalar and type(want) is ExtScalar
    for part in ("u", "v", "p0"):
        assert type(getattr(got, part)) is Fraction
        assert getattr(got, part) == getattr(want, part)


@st.composite
def dispatch_operands(draw):
    """A Poly and an NCPoly of one p0, and an operand for each: an element of
    the same ring, an int, a Fraction, an exact zero or an ExtScalar, a
    rational element of the same ring, or an element of the same ring or an
    ExtScalar with an s-part of another p0."""
    p0, f, g, x, y, c = draw(ring_operands())
    other_p0 = p0 + 1
    scalar = st.one_of(
        st.sampled_from((0, Fraction(0))),
        st.integers(min_value=-2, max_value=2),
        small,
        st.builds(lambda u, v: ExtScalar(u, v, p0=p0), small, small),
        st.just(c),
    )
    foreign_scalar = st.builds(lambda v: ExtScalar(0, v, p0=other_p0), s_parts)
    foreign_poly = st.one_of(
        st.sampled_from(({}, {(0, 1, 0, 0): 1})).map(Poly),
        foreign_scalar.map(lambda c: Poly({(0, 1, 0, 0): c})),
    )
    foreign_ncpoly = st.one_of(
        st.sampled_from(({}, {("P",): 1})).map(NCPoly),
        foreign_scalar.map(lambda c: NCPoly({("P",): c})),
    )
    return ((f, draw(st.just(g) | scalar | foreign_poly | foreign_scalar)),
            (x, draw(st.just(y) | scalar | foreign_ncpoly | foreign_scalar)))


@given(dispatch_operands())
@settings(max_examples=100, deadline=None)
def test_ring_fast_paths_match_reference(operands):
    for element, other in operands:
        for name, reference in _RING_METHODS:
            got = _outcome(getattr(type(element), name), element, other)
            want = _outcome(reference, element, other)
            _assert_same_element(got, want)
        _assert_same_element(-element, reference_ring.ring_neg(element))


@given(st.sampled_from((Fraction(2), Fraction(3))), st.data())
@settings(max_examples=100, deadline=None)
def test_ext_scalar_fast_paths_match_reference(p0, data):
    parts = st.sampled_from((0, Fraction(0))) | small
    a = data.draw(st.builds(lambda u, v: ExtScalar(u, v, p0=p0), parts, parts))
    b = data.draw(st.builds(lambda u, v: ExtScalar(u, v, p0=p0), parts, parts)
                  | parts | st.integers(min_value=-2, max_value=2))
    _assert_same_scalar(a + b, reference_ring.ext_add(a, b))
    _assert_same_scalar(b + a, reference_ring.ext_add(a, b))
    _assert_same_scalar(-a, reference_ring.ext_neg(a))
    _assert_same_scalar(a * b, reference_ring.ext_mul(a, b))
    _assert_same_scalar(b * a, reference_ring.ext_mul(a, b))
    assert (a == b) == (b == a) == (a - b).is_zero
