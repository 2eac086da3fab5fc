"""Operator brackets, Jacobi defects, and the anomaly classification.

The type V bootstrap below builds the operator tensor and the defect from
literal dictionaries, bypassing quantize and the defect code entirely, so
the ordering convention of the defect is pinned by data rather than by the
code under test.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operadyn import bianchi, poly
from operadyn.bianchi import (BianchiType, ShellReduction, all_types, deform,
                              raw_jacobian, structure_constants)
from operadyn.lax import LaxFamilyParams, _member, _time_derivative, formal_mu, solve_C
from operadyn.ncpoly import GENERATORS, ExtScalar, NCPoly
from operadyn.poly import _exps, commutative_image
from operadyn.quantum import (ANOMALOUS_I, ANOMALOUS_II, QUANTUM_LIE, RIGID, basis_jacobian,
                              classify, generator_commutator, quantize, xi_pair)
from operadyn.structure import StructureTensor, _position, _trusted
from reference_compose import quantum_jacobian, triple_product
from reference_lax import word_derivative
from reference_quantum import (_word, classify_formal, deform_formal, formal_deformation,
                               quantize_formal)
from reference_tables import GRID, operator_table

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


class TestTripleProduct:
    def test_frozen_values(self):
        assert triple_product(E1, E2, E3) == 1
        assert triple_product(E1, E1, E3) == 0
        assert triple_product((1, 2, 0), (0, 1, 1), (1, 0, 1)) == 3

    def test_antisymmetry(self):
        x, y, z = (1, 2, 3), (0, 1, 1), (2, 0, 1)
        assert triple_product(x, y, z) == -triple_product(y, x, z)


class TestXi:
    def test_word_structure(self):
        xp, xm = xi_pair(1, Fraction(2))
        assert xp.terms == {("Q", "Am"): ExtScalar(1, p0=2),
                            ("P", "Ap"): ExtScalar(1, p0=2),
                            ("Ap",): ExtScalar(-2, p0=2)}
        assert xm.terms == {("Q", "Ap"): ExtScalar(1, p0=2),
                            ("P", "Am"): ExtScalar(-1, p0=2),
                            ("Am",): ExtScalar(-2, p0=2)}

    def test_commutative_image_vanishes_on_shell(self):
        # send each word of xi+ and xi- to its commutative monomial: the image
        # reduces to the zero polynomial on the shell, exactly
        for omega, p0 in ((1, Fraction(2)), (Fraction(2, 3), Fraction(3)),
                          (Fraction(3, 2), Fraction(5, 7))):
            for xi in xi_pair(omega, p0):
                image = _commutative_image(xi)
                assert not image.is_zero
                assert ShellReduction(omega, p0).reduce(image) == poly.Poly(), (omega, p0, xi)


def _commutative_image(value, sigma=None):
    """The Poly of an NCPoly with each word sent to its commutative monomial.

    Given sigma, the formal s of each coefficient is sent to it.
    """
    def number(c):
        return c.u + c.v * sigma if isinstance(c, ExtScalar) and sigma is not None else c
    return sum((poly.Poly({tuple(word.count(g) for g in GENERATORS): number(c)})
                for word, c in value.terms.items()), poly.Poly())


def _literal_type_v_tensor(p0):
    """Type V operator bracket from raw dictionaries only."""
    inv_s = ExtScalar(0, Fraction(1, 2) / p0, p0=p0)  # 1/sigma

    def w(name, coeff):
        return NCPoly({(name,): coeff})

    entries = {
        (1, 1, 2): w("Am", inv_s), (1, 2, 1): w("Am", -inv_s),
        (2, 1, 2): w("Ap", -inv_s), (2, 2, 1): w("Ap", inv_s),
        (3, 2, 3): w("Am", -inv_s), (3, 3, 2): w("Am", inv_s),
        (3, 3, 1): w("Ap", inv_s), (3, 1, 3): w("Ap", -inv_s),
    }
    zero = NCPoly({})
    full = {}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                full[(i, j, k)] = entries.get((i, j, k), zero)
    return StructureTensor(full)


class TestTypeVBootstrap:
    """Pin the defect convention with a from-scratch computation."""

    def test_defect_from_literal_data(self):
        p0 = Fraction(2)
        mu = _literal_type_v_tensor(p0)
        # accumulate J^m = sum over cyclic (i,j,l) and k of mu^m_{lk} mu^k_{ij},
        # written out with no shared helpers
        components = []
        for m in (1, 2, 3):
            total = NCPoly({})
            for (i, j, l) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
                for k in (1, 2, 3):
                    total = total + mu.entry(m, l, k) * mu.entry(k, i, j)
            components.append(total)
        assert components[0].is_zero
        assert components[1].is_zero
        expected = NCPoly({("Ap", "Am"): Fraction(1, 2),
                           ("Am", "Ap"): Fraction(-1, 2)})
        assert components[2] == expected

    def test_module_agrees_with_bootstrap(self):
        p0 = Fraction(2)
        defect = basis_jacobian(_literal_type_v_tensor(p0))
        assert defect.j1.is_zero and defect.j2.is_zero
        assert defect.j3 == (1 / p0) * generator_commutator()

    def test_quantize_agrees_with_literal(self):
        p0 = Fraction(2)
        assert quantize(BianchiType("V"), 1, p0) == _literal_type_v_tensor(p0)


class TestQuantize:
    def test_matches_operator_table_everywhere(self):
        for w, p0, a in GRID:
            for t in all_types(a):
                assert quantize(t, w, p0) == operator_table(t, w, p0), (
                    f"StructureTensor of {t.label} at omega={w}, p0={p0}")

    def test_unchecked_build_equals_checked_build(self):
        # every entry equals the NCPoly the checking constructor builds from
        # the same words, and holds its invariant: each coefficient a nonzero
        # Fraction or an ExtScalar with nonzero s-part of the bracket's p0
        for p0 in (Fraction(2), Fraction(8, 9), Fraction(3), Fraction(5, 7)):
            for t in all_types(Fraction(2, 3)):
                formal = formal_deformation(t, Fraction(3, 2), p0)
                mu = quantize(t, Fraction(3, 2), p0)
                for v, value in zip(mu.coeffs, formal.coeffs):
                    words = {tuple(g for g, e in zip(GENERATORS, exps) for _ in range(e)): c
                             for exps, c in poly.as_poly(value).terms.items()}
                    assert v == NCPoly(words)
                    assert all((type(c) is Fraction and c)
                               or (type(c) is ExtScalar and c.v and c.p0 == p0)
                               for c in v.terms.values())

    def test_p0_checked_once_and_against_each_coefficient(self):
        t = BianchiType("VIIa", Fraction(1, 2))
        for bad in (0, -3):
            with pytest.raises(ValueError, match="^p0 must be positive"):
                quantize(t, 1, bad)
        with pytest.raises(TypeError):
            quantize(t, 1, 3.0)
        # the s-parts of every entry hold the one p0 of the bracket, so the
        # defect refuses a tensor that mixes contexts, as the ring operations do
        flat = list(quantize(t, 1, 5).coeffs)
        flat[_position(1, 2, 3)] = NCPoly({("Q",): ExtScalar(0, 1, p0=3)})
        flat[_position(1, 3, 2)] = -flat[_position(1, 2, 3)]
        with pytest.raises(ValueError, match=r"^mixed p0 contexts: 5 vs 3$"):
            basis_jacobian(_trusted(flat))

    def test_entries_of_two_shells_combine_unless_their_s_parts_differ(self):
        # a rational entry has no context, so the VI entries of two shells
        # combine; only an s-part ties an entry to its p0
        half, third = (quantize(BianchiType("VI"), 1, p0).entry(1, 2, 3) for p0 in (2, 3))
        p = NCPoly.generator("P")
        assert (half, third) == (p * Fraction(1, 2), p * Fraction(1, 3))
        assert half + third == p * Fraction(5, 6) and half - third == p * Fraction(1, 6)
        assert half * third == p * p * Fraction(1, 6)
        a, b = (quantize(BianchiType("V"), 1, p0).entry(1, 1, 2) for p0 in (2, 3))
        for mix in (lambda: a + b, lambda: a - b, lambda: a * b):
            with pytest.raises(ValueError, match="^mixed p0 contexts: 2 vs 3$"):
                mix()

    def test_sigma_stays_symbolic(self):
        # p0 = 2 makes sigma = 2 rational, but the operator entries keep s
        mu = quantize(BianchiType("V"), 1, Fraction(2))
        coeff = mu.entry(1, 1, 2).terms[("Am",)]
        assert coeff.v != 0 and coeff.u == 0


class TestBracketAndJacobian:
    def test_multilinearity(self):
        mu = quantize(BianchiType("V"), 1, Fraction(2))
        j_scaled = quantum_jacobian(mu, (2, 0, 0), E2, E3)
        j_basis = basis_jacobian(mu)
        assert j_scaled.j3 == 2 * j_basis.j3

    def test_alternating(self):
        mu = quantize(BianchiType("VIIa", Fraction(1, 2)), 1, Fraction(2))
        repeated = quantum_jacobian(mu, E1, E1, E3)
        assert repeated.is_zero
        swapped = quantum_jacobian(mu, E2, E1, E3)
        base = basis_jacobian(mu)
        assert swapped.j1 == -base.j1 and swapped.j3 == -base.j3

    @pytest.mark.parametrize("omega, p0, a", [
        (Fraction(1), Fraction(2), Fraction(1, 2)),
        (Fraction(2, 3), Fraction(3), Fraction(3, 2)),   # irrational s
    ])
    def test_basis_jacobian_matches_sympy(self, omega, p0, a):
        # sympy redoes the defect sum over the same entries as noncommutative
        # symbols, with s its exact sqrt(2*p0): an oracle for the free-algebra
        # products and the Q(s) coefficient arithmetic
        sympy = pytest.importorskip("sympy")
        gens = dict(zip(GENERATORS, sympy.symbols("Q P Ap Am", commutative=False)))

        def rational(x):
            return sympy.Rational(x.numerator, x.denominator)

        s = sympy.sqrt(2 * rational(p0))

        def scalar(c):
            if isinstance(c, ExtScalar):
                return rational(c.u) + rational(c.v) * s
            return rational(c)

        def to_sympy(value):
            return sum((scalar(c) * sympy.Mul(*(gens[g] for g in word))
                        for word, c in value.terms.items()), sympy.Integer(0))

        for t in all_types(a):
            mu = quantize(t, omega, p0)
            ent = {(i, j, k): to_sympy(mu.entry(i, j, k))
                   for i in (1, 2, 3) for j in (1, 2, 3) for k in (1, 2, 3)}
            for m, component in zip((1, 2, 3), basis_jacobian(mu)):
                expected = sum((ent[m, l, k] * ent[k, i, j]
                                for (i, j, l) in ((1, 2, 3), (2, 3, 1), (3, 1, 2))
                                for k in (1, 2, 3)), sympy.Integer(0))
                assert sympy.expand(expected - to_sympy(component)) == 0, (t.label, m)

    @pytest.mark.parametrize("omega, p0, a", [
        (Fraction(1), Fraction(2), Fraction(1, 2)),
        (Fraction(1), Fraction(3), Fraction(1, 2)),      # irrational s
        (Fraction(2, 3), Fraction(5, 7), Fraction(3)),   # irrational s
    ])
    def test_basis_jacobian_matches_general_path(self, omega, p0, a):
        # the cyclic kernel gives the general path's products, in its order,
        # so each component has the same text and the same term order
        for t in all_types(a):
            mu = quantize(t, omega, p0)
            cyclic = basis_jacobian(mu)
            general = quantum_jacobian(mu, E1, E2, E3)
            assert cyclic == general, t.label
            for got, want in zip(cyclic, general):
                assert str(got) == str(want), t.label
                assert list(got.terms) == list(want.terms), t.label

    def test_each_product_collected_before_it_is_added(self):
        # mu^3_{21} * mu^1_{31} gives P twice, 1 then -1, while j3 already
        # holds -P, so adding the two uncollected would drop P and append it
        # again; the kernel keeps the ring sum's term order
        p0 = Fraction(2)
        flat = [NCPoly()] * 27
        for idx, terms in (((1, 1, 2), {("Q",): 1, (): 1}), ((1, 1, 3), {("P",): 1, (): -1}),
                           ((1, 2, 3), {("Q",): -1}), ((2, 1, 3), {("P",): -1, (): -1}),
                           ((3, 1, 2), {("P",): -1, (): -1}), ((3, 1, 3), {("P",): 1, (): -1})):
            value = NCPoly(terms)
            i, j, k = idx
            flat[_position(i, j, k)], flat[_position(i, k, j)] = value, -value
        mu = _trusted(flat)
        for got, want in zip(basis_jacobian(mu), quantum_jacobian(mu, E1, E2, E3), strict=True):
            assert got == want and list(got.terms) == list(want.terms)

    def test_non_ncpoly_entry_rejected(self):
        # every entry but mu^3_{12} = -mu^3_{21} stays the NCPoly of quantize
        op = quantize(BianchiType("V"), 1, Fraction(2))
        entries = {idx: op.entry(*idx) for idx in itertools.product((1, 2, 3), repeat=3)}
        entries[(3, 1, 2)], entries[(3, 2, 1)] = Fraction(1), Fraction(-1)
        mu = StructureTensor(entries)
        for defect in (basis_jacobian, lambda m: quantum_jacobian(m, E1, E2, E3)):
            with pytest.raises(ValueError, match="not an NCPoly"):
                defect(mu)

    def test_tensor_without_ncpoly_entries_rejected(self):
        # the first entry, mu^1_{11}, gives the context, so it is the one named
        mu = structure_constants(BianchiType("VII"))
        for defect in (basis_jacobian, lambda m: quantum_jacobian(m, E1, E2, E3)):
            with pytest.raises(ValueError, match=r"^entry mu\^1_\{11\} is not an NCPoly: "):
                defect(mu)

    def test_triple_product_factorization_random(self):
        rng = random.Random(21)
        mu = quantize(BianchiType("VIa", Fraction(3, 2)), 1, Fraction(2))
        base = basis_jacobian(mu)
        for _ in range(10):
            x, y, z = (tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))
                       for _ in range(3))
            det = triple_product(x, y, z)
            full = quantum_jacobian(mu, x, y, z)
            assert full.j1 == det * base.j1
            assert full.j2 == det * base.j2
            assert full.j3 == det * base.j3


def _image_and_defect(operator, formal, p0):
    """The commutative image of the defect of an operator bracket, and the
    commutative defect of the phase-space table of its formal tensor."""
    sigma = poly.rational_sqrt(2 * p0)
    image = tuple(commutative_image(c, sigma) for c in basis_jacobian(operator))
    return image, raw_jacobian(deform_formal(formal, p0))


def _in_format(value, sigma):
    """True when each coefficient is a nonzero Fraction, or an ExtScalar with
    nonzero s-part where s stays formal."""
    return all((type(c) is Fraction and c) or (sigma is None and type(c) is ExtScalar and c.v)
               for c in value.terms.values())


@st.composite
def _formal_members(draw):
    """(operator, formal, p0): the Lax family member at drawn C1..C9 and
    omega, written at the words and at the generators.

    Each C is u + v*s, so a rational one where v = 0; p0 gives a rational
    sigma (2, 9/8) or a formal one (3, 5/7).
    """
    p0 = draw(st.sampled_from((Fraction(2), Fraction(9, 8), Fraction(3), Fraction(5, 7))))
    parts = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    c = [ExtScalar(draw(parts), draw(st.sampled_from((Fraction(0), draw(parts)))), p0=p0)
         for _ in range(9)]
    omega = draw(st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4))
    params = LaxFamilyParams(c)
    return _member(params, omega, zero=NCPoly()), formal_mu(params, omega), p0


class TestCommutativeImage:
    """The image map that lets jacobi-classical read the operator defect."""

    def test_left_inverse_of_the_word_map(self):
        for exps in itertools.product(range(3), repeat=4):
            assert _exps(_word(exps)) == exps
        # letters commute in the image
        assert _exps(("Am", "Q", "Ap", "Q")) == (2, 0, 1, 1)

    def test_undoes_quantization_entry_by_entry(self):
        for omega, p0, a in ((1, Fraction(2), Fraction(1, 2)), (1, Fraction(3), Fraction(1, 2))):
            sigma = poly.rational_sqrt(2 * p0)
            for t in all_types(a):
                operator = quantize(t, omega, p0).coeffs
                table = deform(t, omega, p0).coeffs
                for got, want in zip(operator, table):
                    assert commutative_image(got, sigma) == poly.as_poly(want), t.label

    def test_matches_the_checked_oracle(self):
        # the unchecked _collect build against sums of checked Polys
        for p0, sigma in ((Fraction(2), Fraction(2)), (Fraction(3), None)):
            for t in all_types(Fraction(3, 2)):
                for c in classify(t, 1, p0).jacobian:
                    image = commutative_image(c, sigma)
                    assert image == _commutative_image(c, sigma), t.label
                    assert _in_format(image, sigma), t.label

    @pytest.mark.parametrize("omega, p0, a", [
        (Fraction(1), Fraction(2), Fraction(1, 2)),        # rational sigma 2
        (Fraction(1), Fraction(3), Fraction(1, 2)),        # irrational sigma
        (Fraction(1), Fraction(2), Fraction(10 ** 6)),     # large modulus
        (Fraction(2, 3), Fraction(9, 8), Fraction(3, 2)),  # rational sigma 3/2
        (Fraction(3, 2), Fraction(5, 7), Fraction(3)),     # irrational sigma
    ])
    def test_image_of_operator_defect_is_the_commutative_defect(self, omega, p0, a):
        for t in all_types(a):
            image, defect = _image_and_defect(quantize(t, omega, p0),
                                              formal_deformation(t, omega, p0), p0)
            assert image == defect, t.label
            assert tuple(map(str, image)) == tuple(map(str, defect)), t.label

    @given(_formal_members())
    @settings(max_examples=30, deadline=None)
    def test_image_of_operator_defect_for_family_members(self, case):
        operator, formal, p0 = case
        image, defect = _image_and_defect(operator, formal, p0)
        assert image == defect
        assert all(_in_format(c, poly.rational_sqrt(2 * p0)) for c in image)


class TestCovariance:
    """The operator defect moves under the oscillator flow as a vector moves
    under M, which makes one point enough for jacobi-classical."""

    def test_operator_defect_obeys_the_lax_equation(self):
        # D J1 = -(omega/2) J2, D J2 = (omega/2) J1 and D J3 = 0 in the free
        # algebra, with D the word derivation.  The residual is a quadratic
        # form in C1..C9, fixed by its values at the 45 polarization probes
        # 2e_m and e_m + e_n, whose coefficients have degree <= 4 in omega
        # (<= 2 from J, whose entries are affine in omega, and <= 2 from D),
        # so the probes at five omegas prove it for every C and every omega.
        units = [tuple(int(m == n) for m in range(9)) for n in range(9)]
        probes = [LaxFamilyParams(map(sum, zip(x, y)))
                  for n, x in enumerate(units) for y in units[n:]]
        assert len(probes) == 45
        zero = NCPoly()
        for omega in (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 7)):
            half_w = omega / 2
            for params in probes:
                j1, j2, j3 = basis_jacobian(_member(params, omega, zero=zero))
                assert word_derivative(j1, omega) == j2 * -half_w, (omega, params)
                assert word_derivative(j2, omega) == j1 * half_w, (omega, params)
                assert word_derivative(j3, omega).is_zero, (omega, params)

    @given(st.sampled_from((Fraction(2), Fraction(3))),
           st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4),
           st.dictionaries(st.lists(st.sampled_from(GENERATORS), max_size=4).map(tuple),
                           st.fractions(min_value=-4, max_value=4, max_denominator=4)
                           | st.integers(-4, 4), max_size=5),
           st.fractions(min_value=-4, max_value=4, max_denominator=4))
    @settings(max_examples=100, deadline=None)
    def test_commutative_image_commutes_with_the_flow(self, p0, omega, terms, v):
        # the lemma that carries the covariance over to the classical defect:
        # the image of D f is `lax._time_derivative` of the image of f
        f = NCPoly(terms) * ExtScalar(1, v, p0=p0)
        sigma = poly.rational_sqrt(2 * p0)
        flow = (omega / 2, -omega * omega, -omega / 2)
        for image in (lambda x: commutative_image(x), lambda x: commutative_image(x, sigma)):
            assert image(word_derivative(f, omega)) == _time_derivative(image(f), *flow)


# sqrt(2*p0) is rational at p0 = 2 and 9/8, and stays the formal s at 3 and 1/5
_ORACLE_P0S = (Fraction(2), Fraction(3), Fraction(9, 8), Fraction(1, 5))
_ORACLE_FLAGS = ((Fraction(1), Fraction(1, 2)), (Fraction(3, 2), Fraction(2, 3)))


def _assert_same_ncpoly(got, want):
    """Same value, type, text, term order and coefficient types."""
    assert type(got) is type(want) is NCPoly and got == want
    assert str(got) == str(want)
    assert list(got.terms.items()) == list(want.terms.items())
    assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]


class TestFamilyWrittenBracket:
    """The operator bracket written from the Lax family at the words against
    the quantization map of the formal deformation (`reference_quantum`)."""

    @pytest.mark.parametrize("p0", _ORACLE_P0S)
    def test_operator_bracket_matches_the_quantization_map(self, p0):
        for omega, a in _ORACLE_FLAGS:
            for t in all_types(a):
                got = quantize(t, omega, p0)
                want = quantize_formal(formal_deformation(t, omega, p0))
                assert type(got) is type(want) is StructureTensor
                for x, y in zip(got.coeffs, want.coeffs, strict=True):
                    _assert_same_ncpoly(x, y)

    @pytest.mark.parametrize("p0", _ORACLE_P0S)
    def test_certificates_match_the_quantization_map(self, p0):
        for omega, a in _ORACLE_FLAGS:
            for t in all_types(a):
                got = classify(t, omega, p0)
                want = classify_formal(t, formal_deformation(t, omega, p0), omega, p0)
                assert (got.kind, got.tau, got.matched) == (want.kind, want.tau, want.matched)
                assert got == want
                for x, y in zip(got.jacobian, want.jacobian, strict=True):
                    _assert_same_ncpoly(x, y)

    @given(_formal_members())
    @settings(max_examples=30, deadline=None)
    def test_family_members_match_the_quantization_map(self, case):
        # and the cyclic kernel keeps the terms and term order of the ring sum
        operator, formal, p0 = case
        want = quantize_formal(formal)
        for x, y in zip(operator.coeffs, want.coeffs, strict=True):
            _assert_same_ncpoly(x, y)
        for x, y in zip(basis_jacobian(operator), quantum_jacobian(want, E1, E2, E3),
                        strict=True):
            _assert_same_ncpoly(x, y)


class TestClassification:
    EXPECTED = {"I": RIGID, "VII": RIGID, "VIII": RIGID, "IX": RIGID,
                "II": QUANTUM_LIE, "VI": QUANTUM_LIE,
                "IV": ANOMALOUS_I, "V": ANOMALOUS_I,
                "VIIa": ANOMALOUS_II, "IIIa1": ANOMALOUS_II,
                "VIa": ANOMALOUS_II}

    def test_kinds_and_tau(self):
        for t in all_types(Fraction(1, 2)):
            cert = classify(t, 1, Fraction(2))
            assert cert.kind == self.EXPECTED[t.tag], t.tag
            if cert.kind == ANOMALOUS_II:
                assert cert.tau == -1
            else:
                assert cert.tau is None

    ZEROS = ("0", "0", "0")
    CERTIFICATES = {
        "I": (RIGID, None, ZEROS), "VII": (RIGID, None, ZEROS),
        "VIII": (RIGID, None, ZEROS), "IX": (RIGID, None, ZEROS),
        "II": (QUANTUM_LIE, None, ZEROS), "VI": (QUANTUM_LIE, None, ZEROS),
        "IV": (ANOMALOUS_I, None, ("0", "0", "(1/p0)*[Ap,Am]")),
        "V": (ANOMALOUS_I, None, ("0", "0", "(1/p0)*[Ap,Am]")),
        **dict.fromkeys(("VIIa", "IIIa1", "VIa"), (
            ANOMALOUS_II, -1, ("-1*(a/sqrt(2*p0^3))*xi_plus", "-1*(a/sqrt(2*p0^3))*xi_minus",
                               "(a^2/p0)*[Ap,Am]"))),
    }

    # the flag sets of tools/opcount.py: sqrt(2*p0) = 2, then sqrt(6)
    @pytest.mark.parametrize("omega, p0, a", [
        (1, Fraction(2), Fraction(1, 2)),
        (Fraction(3, 2), Fraction(3), Fraction(2, 3)),
    ])
    def test_kind_tau_and_matched(self, omega, p0, a):
        types = all_types(a)
        certs = {t.tag: classify(t, omega, p0) for t in types}
        assert {tag: (c.kind, c.tau, c.matched) for tag, c in certs.items()} == self.CERTIFICATES
        assert [c.type_label for c in certs.values()] == [t.label for t in types]

    # the weight of each of C1..C9 under the flow's turn about e3, and the
    # bucket of each support: the weights of a class's nonzero parameters
    WEIGHTS = (0, 2, 2, 0, 1, 1, 1, 1, 0)
    SUPPORT_KIND = {frozenset(): RIGID, frozenset({2}): QUANTUM_LIE,
                    frozenset({1}): ANOMALOUS_I, frozenset({1, 2}): ANOMALOUS_II}

    # s = sqrt(2*p0) irrational each time
    @pytest.mark.parametrize("omega, p0", [
        (1, Fraction(3)), (Fraction(3, 2), Fraction(5, 2)), (Fraction(5, 7), Fraction(7, 3)),
    ])
    def test_kind_follows_the_weight_support(self, omega, p0):
        for a in (Fraction(1, 3), Fraction(2), Fraction(5)):
            for t in all_types(a):
                params = solve_C(structure_constants(t), p0)
                support = frozenset(w for w, c in zip(self.WEIGHTS, params.c) if w and c)
                kind = classify(t, omega, p0).kind
                assert kind == self.SUPPORT_KIND[support] == bianchi._CLASSES[t.tag][1], t.label

    def test_anomalous_ii_closed_form(self):
        p0 = Fraction(2)
        a = Fraction(3, 2)
        cert = classify(BianchiType("VIIa", a), 1, p0)
        scale = ExtScalar(0, a / (2 * p0 * p0), p0=p0)  # a / sqrt(2 p0^3)
        xp, xm = xi_pair(1, p0)
        assert cert.jacobian.j1 == -1 * scale * xp
        assert cert.jacobian.j2 == -1 * scale * xm
        assert cert.jacobian.j3 == (a * a / p0) * generator_commutator()

    def test_classical_limit_of_defects(self):
        # sending words to commuting monomials and s to sigma kills every
        # defect on the shell, matching the classical Jacobi identity
        for t in all_types(Fraction(1, 2)):
            cert = classify(t, 1, Fraction(2))
            for component in cert.jacobian:
                image = _commutative_image(component, sigma=2)  # s = 2
                assert ShellReduction(1, Fraction(2)).reduce(image).is_zero, t.tag
