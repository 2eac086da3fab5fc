import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_lax
from operadyn import lax, poly
from operadyn.bianchi import all_types, structure_constants
from operadyn.ncpoly import ExtScalar
from operadyn.operad import Operation, gerstenhaber_bracket
from operadyn.poly import Poly
from operadyn.lax import (LaxFamilyParams, _time_derivative, build_matrix_lax, build_mu,
                          formal_mu, matrix_lax_residual,
                          operadic_lax_residual, rotation_generator, solve_C)
from operadyn.structure import StructureTensor
from reference_ring import derivative
from reference_structure import full_check


class TestMatrixPair:
    def test_frozen_commutator(self):
        # [M, L] at (q, p, omega) = (1, 2, 3), as the matrix commutator and
        # as the Gerstenhaber bracket of the pair's degree-1 operations
        pair = build_matrix_lax(Fraction(1), Fraction(2), Fraction(3))
        M, L = pair.M.entry, pair.L.entry
        bracket = gerstenhaber_bracket(pair.M, pair.L)
        expected = [[-9, 6, 0], [6, 9, 0], [0, 0, 0]]
        for i in range(1, 4):
            for j in range(1, 4):
                ml = sum(M(i, k) * L(k, j) - L(i, k) * M(k, j) for k in range(1, 4))
                assert ml == bracket.entry(i, j) == expected[i - 1][j - 1]

    def test_pair_holds_operations(self):
        # L and M are degree-1 Operations, M is rotation_generator itself,
        # and the residual is a degree-1 Operation too
        w = Fraction(3)
        pair = build_matrix_lax(Fraction(1), Fraction(2), w)
        residual = matrix_lax_residual(Fraction(1), Fraction(2), w)
        for op in (pair.L, pair.M, residual):
            assert type(op) is Operation and (op.dim, op.degree) == (3, 1)
        assert pair.M == rotation_generator(w)
        assert residual.is_zero and all(type(v) is Fraction for v in residual.coeffs)

    def test_residual_exact_zero_random(self):
        rng = random.Random(7)
        for _ in range(200):
            qv = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            pv = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            wv = Fraction(rng.randint(1, 24), rng.randint(1, 8))
            r = matrix_lax_residual(qv, pv, wv)
            assert all(v == 0 for v in r.coeffs)

    def test_l_encodes_phase_point(self):
        pair = build_matrix_lax(Fraction(1, 2), Fraction(-3), Fraction(2))
        assert pair.L.entry(1, 1) == -3 and pair.L.entry(1, 2) == 1
        assert pair.L.entry(2, 2) == 3 and pair.L.entry(3, 3) == 1
        assert pair.M.entry(1, 2) == -1 and pair.M.entry(2, 1) == 1


class TestFamily:
    def test_nine_coefficients_required(self):
        with pytest.raises(ValueError):
            LaxFamilyParams((1, 2, 3))
        with pytest.raises(TypeError):
            LaxFamilyParams((0.5,) * 9)

    def test_admissibility(self):
        assert LaxFamilyParams((0, 1, 0, 0, 0, 0, 0, 0, 0)).is_admissible
        assert LaxFamilyParams((0, 0, 0, 0, 0, 0, 0, 1, 0)).is_admissible
        assert not LaxFamilyParams((5, 0, 0, 5, 0, 0, 0, 0, 5)).is_admissible

    def test_build_mu_numeric_point(self):
        # C2 = 1 alone at (q, p) = (1, 2), omega = 3: mu^1_23 = p = 2,
        # mu^1_31 = omega*q = 3
        params = LaxFamilyParams((0, 1, 0, 0, 0, 0, 0, 0, 0))
        t = build_mu(params, Fraction(1), Fraction(2), Fraction(0), Fraction(0), Fraction(3))
        assert t.entry(1, 2, 3) == 2
        assert t.entry(2, 1, 3) == 2
        assert t.entry(1, 3, 1) == 3
        assert t.entry(2, 2, 3) == 3
        assert t.entry(3, 1, 2) == 0

    def test_formal_member_validated_once(self, monkeypatch):
        calls = []
        validate = StructureTensor._validate
        monkeypatch.setattr(StructureTensor, "_validate",
                            lambda self, *checks: calls.append(checks) or validate(self, *checks))
        formal_mu(LaxFamilyParams((1, 2, 0, 3, 0, 1, 0, 0, 2)), 1)
        # build_mu writes every mirror as the negative of its entry, so the
        # tensor is antisymmetric by construction and built unchecked
        assert calls == []

    def test_formal_member_entries(self):
        params = LaxFamilyParams((1, 0, 0, 0, 1, 0, 0, 0, 2))
        t = formal_mu(params, 1)
        assert t.entry(1, 3, 1) == -poly.Poly.constant(1)
        assert t.entry(1, 1, 2) == poly.a_plus
        assert t.entry(2, 1, 2) == poly.a_minus
        assert t.entry(3, 1, 2) == 2


class TestOperadicLaxEquation:
    def test_single_parameter_probes(self):
        for probe in range(9):
            c = [Fraction(0)] * 9
            c[probe] = Fraction(1)
            residual = operadic_lax_residual(LaxFamilyParams(tuple(c)), 1)
            assert residual.is_zero, f"C{probe + 1} probe failed"

    def test_random_vectors_two_frequencies(self):
        rng = random.Random(3)
        for w in (1, 2):
            for _ in range(20):
                params = LaxFamilyParams(tuple(
                    Fraction(rng.randint(-12, 12), rng.randint(1, 8))
                    for _ in range(9)))
                assert operadic_lax_residual(params, w).is_zero

    def test_residual_needs_no_p0(self):
        params = LaxFamilyParams((0, 1, 0, 0, 0, 0, 0, 0, 0))
        assert operadic_lax_residual(params, 1).is_zero

    def test_proof_builds_m_once(self, monkeypatch):
        # the nine probes share one M and one set of flow scalars
        real = lax.rotation_generator
        calls = []

        def counted(omega):
            calls.append(omega)
            return real(omega)

        monkeypatch.setattr(lax, "rotation_generator", counted)
        assert lax.prove_operadic_lax(Fraction(3, 2))[0]
        assert calls == [Fraction(3, 2)]
        calls.clear()
        assert operadic_lax_residual(LaxFamilyParams((1,) * 9), 2).is_zero
        assert calls == [2]

    def test_rotation_generator_shape(self):
        m = rotation_generator(Fraction(3))
        assert m.entry(1, 2) == Fraction(-3, 2)
        assert m.entry(2, 1) == Fraction(3, 2)
        assert m.entry(3, 3) == 0


coeffs = st.fractions(max_denominator=12)
exponents = st.tuples(*(st.integers(min_value=0, max_value=3),) * 4)
polys = st.dictionaries(exponents, coeffs, max_size=5).map(Poly)
omegas = st.fractions(min_value=Fraction(1, 12), max_value=12, max_denominator=12)


class TestTimeDerivative:
    @pytest.mark.parametrize("value", [
        Poly(), Poly.constant(Fraction(-3, 4)),
        Poly.constant(ExtScalar(1, 2, p0=Fraction(3))),
    ])
    def test_constant_entry_gives_zero_poly(self, value):
        d = _time_derivative(value, Fraction(1, 3), Fraction(-4, 9), Fraction(-1, 3))
        assert type(d) is Poly and d.is_zero

    @given(polys, omegas)
    def test_matches_four_term_formula(self, value, omega):
        half_w = omega / 2
        expected = (poly.p * derivative(value, "q")
                    - (omega * omega) * poly.q * derivative(value, "p")
                    - half_w * poly.a_minus * derivative(value, "Ap")
                    + half_w * poly.a_plus * derivative(value, "Am"))
        d = _time_derivative(value, half_w, -omega * omega, -half_w)
        assert type(d) is Poly
        assert d == expected and list(d.terms) == list(expected.terms)


class TestSolveC:
    def test_closed_form_known_tensor(self):
        # mu0 with [e1,e2] = -e2 + e3, [e3,e1] = e2 + e3 (type IV shape)
        mu0 = StructureTensor({
            (2, 1, 2): Fraction(-1), (3, 1, 2): Fraction(1),
            (2, 3, 1): Fraction(0), (3, 3, 1): Fraction(1),
        })
        params = solve_C(mu0, Fraction(2))
        # s = sqrt(4) stays formal: C6 = -mu^2_12 / s = s/4,
        # C7 = mu^3_13 / s = -mu^3_31 / s = -s/4
        s_over_4 = ExtScalar(0, Fraction(1, 4), p0=2)
        assert params.c == (Fraction(0), Fraction(0), Fraction(0), Fraction(0),
                            Fraction(0), s_over_4, -s_over_4,
                            Fraction(0), Fraction(1))

    def test_round_trip_reference_point(self):
        # rebuild at Ap = s, exact for rational and irrational sqrt(2 p0)
        rng = random.Random(9)
        for p0 in (Fraction(1, 2), Fraction(2), Fraction(1), Fraction(5, 7)):
            s = ExtScalar(0, 1, p0=p0)
            for _ in range(20):
                entries = {}
                for (j, k) in ((1, 2), (2, 3), (3, 1)):
                    for i in (1, 2, 3):
                        entries[(i, j, k)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                mu0 = StructureTensor(entries)
                params = solve_C(mu0, p0)
                rebuilt = build_mu(params, Fraction(0), p0, s, Fraction(0), Fraction(1))
                assert rebuilt == mu0

    def test_irrational_sigma_stays_formal(self):
        mu0 = StructureTensor({(1, 1, 2): Fraction(1)})
        params = solve_C(mu0, Fraction(1))  # s = sqrt(2) is irrational
        # C5 = 1/s = s/2 exactly
        assert params.c[4] == ExtScalar(0, Fraction(1, 2), p0=1)
        assert params.c[4] * ExtScalar(0, 1, p0=1) == 1
        assert float(params.c[4]) == pytest.approx(1 / 2 ** 0.5)

    def test_constant_poly_entries_read_as_their_values(self):
        # a constant Poly entry gives the parameters of its number, and an int
        # entry those of its Fraction
        p0 = Fraction(3)
        numbers = {(1, 2, 3): Fraction(1), (2, 1, 3): Fraction(-2, 3),
                   (1, 3, 1): Fraction(5), (2, 2, 3): Fraction(3),
                   (1, 1, 2): Fraction(1, 2), (3, 2, 3): Fraction(-1),
                   (3, 1, 2): Fraction(7)}
        want = solve_C(StructureTensor(numbers), p0)
        constants = {idx: Poly.constant(v) for idx, v in numbers.items()}
        assert solve_C(StructureTensor(constants), p0) == want
        assert solve_C(StructureTensor({(1, 2, 3): Poly()}), p0) == solve_C(StructureTensor({}), p0)
        ints = {idx: int(v) for idx, v in numbers.items() if v.denominator == 1}
        got = solve_C(StructureTensor(ints), p0)
        assert got == solve_C(StructureTensor({k: Fraction(v) for k, v in ints.items()}), p0)
        # C1 = (mu^2_23 - mu^1_31)/2 of two int entries is a Fraction, not a float
        assert got.c[0] == -1 and all(type(c) in (Fraction, ExtScalar) for c in got.c)

    @pytest.mark.parametrize("p0", [Fraction(2), Fraction(3), Fraction(9, 8)])
    def test_zero_parameters_are_fractions_formed_without_arithmetic(self, monkeypatch, p0):
        # a class tensor has at most five nonzero entries of 27: each zero
        # parameter is the Fraction 0 and builds no ExtScalar, each nonzero
        # C5..C8 is an entry over s, with an s-part only
        built = []
        monkeypatch.setattr(lax, "ExtScalar",
                            lambda *args, **kwargs: built.append(1) or ExtScalar(*args, **kwargs))
        s = ExtScalar(0, 1, p0=p0)
        for t in all_types():
            built.clear()
            constants = structure_constants(t)
            c = solve_C(constants, p0).c
            assert build_mu(LaxFamilyParams(c), Fraction(0), p0, s, Fraction(0), 1) == constants
            for n, value in enumerate(c):
                if not value:
                    assert type(value) is Fraction, (t.label, n)
                elif 4 <= n < 8:
                    assert type(value) is ExtScalar and value.v and not value.u, (t.label, n)
                else:
                    assert type(value) is Fraction, (t.label, n)
            assert len(built) == sum(1 for value in c[4:8] if value), t.label

    def test_rejects_nonpositive_p0(self):
        with pytest.raises(ValueError):
            solve_C(StructureTensor({}), 0)

    def test_rejects_nonconstant_entries(self):
        t = StructureTensor({(1, 2, 3): poly.q})
        with pytest.raises(ValueError):
            solve_C(t, Fraction(2))


small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
positive = st.builds(Fraction, st.integers(1, 12), st.integers(1, 6))
# 2*p0 a square (sigma = 2, 1) and not (sqrt(6), sqrt(10/7))
shells = st.sampled_from((Fraction(2), Fraction(1, 2), Fraction(3), Fraction(5, 7)))


@st.composite
def families(draw):
    """(params, p0): C5..C8 rational or in Q(s), drawn directly or placed
    by solve_C through a random constant tensor."""
    p0 = draw(shells)
    if draw(st.booleans()):
        entries = {(i, j, k): draw(small) for (j, k) in ((1, 2), (2, 3), (3, 1))
                   for i in (1, 2, 3)}
        return solve_C(StructureTensor(entries), p0), p0
    extension = st.builds(lambda u, v: ExtScalar(u, v, p0=p0), small, small)
    c = [draw(small) for _ in range(4)] + [draw(st.one_of(small, extension))
                                           for _ in range(4)] + [draw(small)]
    return LaxFamilyParams(c), p0


def _assert_same_entries(got, want):
    assert type(got) is StructureTensor
    for a, b in zip(got.coeffs, want.coeffs, strict=True):
        assert type(a) is type(b) and a == b
        if isinstance(a, float):
            assert repr(a) == repr(b)
        if isinstance(a, Poly):
            assert list(a.terms.items()) == list(b.terms.items())
            assert [type(v) for v in a.terms.values()] == [type(v) for v in b.terms.values()]


class TestBuildMuMatchesRingArithmetic:
    """The family member against the ring-arithmetic oracle: `build_mu` at
    points, the generators among them, and `formal_mu`, written term by term
    from the family table."""

    @given(families(), st.one_of(positive, st.integers(1, 5)))
    def test_at_the_generators(self, family, omega):
        params, _ = family
        args = (params, poly.q, poly.p, poly.a_plus, poly.a_minus, omega)
        got = build_mu(*args)
        _assert_same_entries(got, reference_lax.build_mu(*args))
        full_check(got)

    @given(families(), st.one_of(positive, st.integers(1, 5)))
    def test_formal_mu_at_the_generators(self, family, omega):
        params, _ = family
        got = formal_mu(params, omega)
        _assert_same_entries(got, reference_lax.build_mu(
            params, poly.q, poly.p, poly.a_plus, poly.a_minus, omega))
        full_check(got)

    @given(families(), st.lists(small, min_size=4, max_size=4), positive)
    def test_at_a_rational_point(self, family, point, omega):
        params, _ = family
        args = (params, *point, omega)
        _assert_same_entries(build_mu(*args), reference_lax.build_mu(*args))

    @given(families(), st.lists(small, min_size=8, max_size=8), positive)
    def test_at_a_point_in_q_of_s(self, family, parts, omega):
        params, p0 = family
        point = [ExtScalar(u, v, p0=p0) for u, v in zip(parts[::2], parts[1::2])]
        args = (params, *point, omega)
        _assert_same_entries(build_mu(*args), reference_lax.build_mu(*args))

    @given(families(), st.lists(st.floats(-4, 4), min_size=4, max_size=4),
           st.floats(0.1, 4))
    def test_at_a_float_point(self, family, point, omega):
        params, _ = family
        args = (params, *point, omega)
        _assert_same_entries(build_mu(*args), reference_lax.build_mu(*args))

    def test_scalar_entry_and_its_mirror(self):
        zero = LaxFamilyParams((0,) * 9)
        mu = formal_mu(zero, 1)
        assert type(mu.entry(3, 1, 2)) is Fraction and mu.entry(3, 2, 1) is mu.entry(3, 1, 2)
        assert all(type(v) is Poly and v.is_zero for idx, v in mu.independent_entries()
                   if idx != (3, 1, 2))
        c9 = ExtScalar(1, 2, p0=3)
        mu = formal_mu(LaxFamilyParams((0,) * 8 + (c9,)), 1)
        assert mu.entry(3, 1, 2) is c9 and mu.entry(3, 2, 1) == -c9
