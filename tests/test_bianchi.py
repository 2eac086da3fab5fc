"""Class registry, deformations, and the on-shell Jacobi identity.

The expected tables are frozen here as literal data, transcribed by hand,
so the registry and the generated deformations are checked against numbers
that never touched the implementation.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operadyn import lax, poly, quantum
from operadyn.bianchi import (BianchiType, TAGS, ShellReduction, all_types,
                              classical_jacobian, deform, deformation_trace,
                              is_rigid, raw_jacobian, structure_constants)
from operadyn.cli import main
from operadyn.lax import (LaxFamilyParams, build_matrix_lax, formal_mu,
                          matrix_lax_residual, operadic_lax_residual,
                          prove_matrix_lax, rotation_generator, solve_C)
from operadyn.ncpoly import ExtScalar, NCPoly
from operadyn.oscillator import BranchError
from operadyn.poly import Poly, commutative_image, rational_sqrt
from operadyn.structure import StructureTensor, _cyclic_defect
from reference_quantum import deform_formal, formal_deformation
from reference_shell import reference_point_defect, reference_reduce_on_shell
from reference_tables import GRID, transcribed_deformation
from reference_trace import scalar_evaluate

A = Fraction(1, 2)

# nine columns per class: (1,12) (2,12) (3,12) (1,23) (2,23) (3,23) (1,31) (2,31) (3,31)
FROZEN_CLASS_TABLE = {
    "I":     (0, 0, 0, 0, 0, 0, 0, 0, 0),
    "II":    (0, 0, 0, 1, 0, 0, 0, 0, 0),
    "VII":   (0, 0, 0, 1, 0, 0, 0, 1, 0),
    "VI":    (0, 0, 0, 1, 0, 0, 0, -1, 0),
    "IX":    (0, 0, 1, 1, 0, 0, 0, 1, 0),
    "VIII":  (0, 0, -1, 1, 0, 0, 0, 1, 0),
    "V":     (0, -1, 0, 0, 0, 0, 0, 0, 1),
    "IV":    (0, -1, 1, 0, 0, 0, 0, 0, 1),
    "VIIa":  (0, -A, 1, 0, 0, 0, 0, 1, A),
    "IIIa1": (0, -1, -1, 0, 0, 0, 0, 1, 1),
    "VIa":   (0, -A, -1, 0, 0, 0, 0, 1, A),
}

# deformed entries at omega = 1, p0 = 2 (sigma = 2), canonical Poly text
FROZEN_DEFORMED = {
    "II": {(1, 2, 3): "(1/4)*p + (1/2)", (2, 2, 3): "(1/4)*q",
           (1, 3, 1): "(1/4)*q", (2, 3, 1): "(-1/4)*p + (1/2)"},
    "V": {(1, 1, 2): "(1/2)*Am", (2, 1, 2): "(-1/2)*Ap",
          (3, 2, 3): "(-1/2)*Am", (3, 3, 1): "(1/2)*Ap"},
    "VIIa": {(1, 1, 2): "(1/4)*Am", (2, 1, 2): "(-1/4)*Ap", (3, 1, 2): "(1)",
             (1, 2, 3): "(-1/4)*p + (1/2)", (2, 2, 3): "(-1/4)*q",
             (3, 2, 3): "(-1/4)*Am", (1, 3, 1): "(-1/4)*q",
             (2, 3, 1): "(1/4)*p + (1/2)", (3, 3, 1): "(1/4)*Ap"},
}


class TestTypes:
    def test_eleven_tags(self):
        assert len(TAGS) == 11
        assert len(all_types()) == 11

    def test_modulus_rules(self):
        with pytest.raises(ValueError):
            BianchiType("VIIa")          # needs a
        with pytest.raises(ValueError):
            BianchiType("VIa", 1)        # excluded boundary
        with pytest.raises(ValueError):
            BianchiType("II", Fraction(1, 2))  # takes none
        with pytest.raises(ValueError):
            BianchiType("IIIa1", 2)      # fixed at 1
        assert BianchiType("IIIa1").a == 1
        assert BianchiType("VIIa", Fraction(3, 2)).label == "VIIa(a=3/2)"

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            BianchiType("X")


class TestClassTable:
    def test_matches_frozen_table(self):
        for t in all_types(A):
            got = tuple(v for _, v in structure_constants(t).independent_entries())
            assert got == FROZEN_CLASS_TABLE[t.tag], t.tag

    def test_jacobi_holds_for_constant_tensors(self):
        # the undeformed brackets are honest Lie algebras
        for t in all_types(A):
            raw = raw_jacobian(structure_constants(t))
            assert all(c.is_zero for c in raw), t.tag


class TestDeform:
    def test_frozen_rows(self):
        for tag, expected in FROZEN_DEFORMED.items():
            t = BianchiType(tag, A if tag in ("VIIa", "VIa") else None)
            d = deform(t, 1, Fraction(2))
            for (i, j, k), v in d.independent_entries():
                want = expected.get((i, j, k), "(0)")
                assert str(poly.as_poly(v)) == want, (tag, i, j, k)

    def test_generated_equals_transcribed(self):
        # rational sigma compares folded tables, irrational sigma formal ones
        for w, p0, a in GRID:
            for t in all_types(a):
                assert deform(t, w, p0) == transcribed_deformation(t, w, p0), (
                    f"StructureTensor of {t.label} at omega={w}, p0={p0}")

    def test_t0_recovers_class_tensor(self):
        # at t = 0 the flow sits at (q, p, Ap, Am) = (0, p0, sigma, 0); an
        # irrational sigma stays the formal s
        for p0 in (Fraction(1, 2), Fraction(2), Fraction(3), Fraction(5, 7)):
            sigma = rational_sqrt(2 * p0) or ExtScalar(0, 1, p0=p0)
            for t in all_types(A):
                d = deform(t, 1, p0)
                at0 = StructureTensor({
                    idx: scalar_evaluate(poly.as_poly(v).terms.items(),
                                         (Fraction(0), p0, sigma, Fraction(0)))
                    for idx, v in d.independent_entries()})
                assert at0 == structure_constants(t), (t.tag, p0)

    def test_irrational_sigma_stays_formal(self):
        # p0 = 3: sigma = sqrt(6), and mu^1_12 = Am / sigma = (s/6) * Am
        d = deform(BianchiType("V"), 1, 3)
        s_over_6 = ExtScalar(0, Fraction(1, 6), p0=3)
        assert d.entry(1, 1, 2) == Poly({(0, 0, 0, 1): s_over_6})
        assert d.entry(3, 3, 1) == Poly({(0, 0, 1, 0): s_over_6})
        assert str(d.entry(2, 1, 2)) == "(-1/6*s)*Ap"
        J = classical_jacobian(d, 1, 3)
        assert all(c.is_zero for c in J)

    def test_fold_drops_cancelled_coefficients(self):
        # at p0 = 2, sigma = 2, so s - 2 folds to 0 and must not be stored
        p0 = Fraction(2)
        entry = Poly({(1, 0, 0, 0): ExtScalar(-2, 1, p0=p0),
                      (0, 1, 0, 0): ExtScalar(1, 1, p0=p0)})
        formal = StructureTensor({(1, 2, 3): entry, (3, 1, 2): ExtScalar(-2, 1, p0=p0)})
        folded = deform_formal(formal, p0)
        assert folded.entry(1, 2, 3).terms == {(0, 1, 0, 0): Fraction(3)}
        assert folded.entry(1, 3, 2).terms == {(0, 1, 0, 0): Fraction(-3)}
        assert folded.entry(3, 1, 2) == 0 and type(folded.entry(3, 1, 2)) is Fraction
        # every coefficient of a folded class table is a nonzero Fraction
        for t in all_types(A):
            for v in deform(t, 1, Fraction(8, 9)).coeffs:
                assert all(type(c) is Fraction and c for c in poly.as_poly(v).terms.values())

    def test_every_entry_is_a_ring_element(self):
        # one entry type per table: Poly in the phase-space table, NCPoly in the
        # operator table, constants and the diagonal included
        for p0 in (Fraction(2), Fraction(3)):
            for t in all_types(A):
                assert all(type(v) is Poly for v in deform(t, 1, p0).coeffs), (t.label, p0)
                assert all(type(v) is NCPoly for v in quantum.quantize(t, 1, p0).coeffs), (
                    t.label, p0)
        for n in range(9):
            probe = LaxFamilyParams(tuple(int(m == n) for m in range(9)))
            assert all(type(v) is Poly for v in formal_mu(probe, Fraction(3, 2)).coeffs), n

    def test_rigidity_set(self):
        rigid = {t.tag for t in all_types(A) if is_rigid(t)}
        assert rigid == {"I", "VII", "VIII", "IX"}

    def test_rigidity_does_not_depend_on_p0(self):
        # is_rigid reads solve_C at one p0: the zero pattern of the
        # parameters that see the dynamics is the same at every p0
        for t in all_types(A):
            patterns = {tuple(not solve_C(structure_constants(t), p0).c[i]
                              for i in (1, 2, 4, 5, 6, 7))
                        for p0 in (Fraction(1, 8), Fraction(2), Fraction(3), Fraction(25, 2))}
            assert len(patterns) == 1, t.label

    # sqrt(2*p0) is rational at p0 = 2, 9/8, 25/18 and 8, and stays the formal s at 3 and 1/5
    @pytest.mark.parametrize("p0", [Fraction(2), Fraction(3), Fraction(9, 8), Fraction(1, 5),
                                    Fraction(25, 18), Fraction(8)])
    def test_folded_parameters_match_the_folded_table(self, p0):
        # the table written from folded C5..C8 against the fold of every
        # entry of the formal table (`reference_quantum.deform_formal`)
        for omega, a in ((Fraction(1), A), (Fraction(3, 2), Fraction(2, 3))):
            for t in all_types(a):
                got = deform(t, omega, p0)
                want = deform_formal(formal_deformation(t, omega, p0), p0)
                assert type(got) is type(want) is StructureTensor
                for x, y in zip(got.coeffs, want.coeffs, strict=True):
                    assert type(x) is type(y) and x == y and str(x) == str(y), t.label
                    if isinstance(y, Poly):
                        assert list(x.terms.items()) == list(y.terms.items()), t.label
                        assert ([type(c) for c in x.terms.values()]
                                == [type(c) for c in y.terms.values()]), t.label


class TestOnShellReduction:
    def test_energy_relation_reduces_to_zero(self):
        # p**2 + omega**2 q**2 - p0**2 vanishes on the shell
        for w in (1, 2):
            for p0 in (Fraction(1, 2), Fraction(2)):
                h = poly.p ** 2 + w * w * poly.q ** 2 - Fraction(p0) ** 2
                assert ShellReduction(w, p0).reduce(h).is_zero

    def test_defining_relations(self):
        p0 = Fraction(2)
        shell = ShellReduction(1, p0)
        assert shell.reduce(2 * poly.p - poly.a_plus ** 2 + poly.a_minus ** 2).is_zero
        assert shell.reduce(poly.q - poly.a_plus * poly.a_minus).is_zero
        assert shell.reduce(poly.a_plus ** 2 + poly.a_minus ** 2 - 2 * p0).is_zero

    def test_nonvanishing_survives(self):
        assert not ShellReduction(1, Fraction(2)).reduce(poly.a_plus).is_zero
        # p -> (Ap^2 - Am^2)/2 -> Ap^2 - p0 once Am^2 is eliminated
        assert ShellReduction(1, Fraction(2)).reduce(poly.p) == poly.a_plus ** 2 - 2

    def test_am_powers_eliminated(self):
        out = ShellReduction(1, Fraction(2)).reduce(poly.a_minus ** 4)
        assert all(exps[3] <= 1 for exps in out.terms)

    @given(st.dictionaries(st.tuples(*(st.integers(0, 3),) * 4),
                           st.fractions(max_denominator=12), max_size=5).map(Poly),
           st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9),
           st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9))
    @settings(max_examples=40, deadline=None)
    def test_matches_sympy_groebner_normal_form(self, f, w, p0):
        # Under lex q > p > Am > Ap the shell relations have the pairwise
        # coprime leading terms q, p, Am**2, so they form a Groebner basis
        # and sympy's remainder is the unique normal form.
        sympy = pytest.importorskip("sympy")
        q, p, ap, am = sympy.symbols("q p Ap Am")

        def rational(x):
            return sympy.Rational(x.numerator, x.denominator)

        basis = [rational(w) * q - ap * am, p - (ap ** 2 - am ** 2) / 2,
                 am ** 2 + ap ** 2 - 2 * rational(p0)]
        expr = sum((rational(c) * q ** i * p ** j * ap ** k * am ** l
                    for (i, j, k, l), c in f.terms.items()), sympy.Integer(0))
        _, remainder = sympy.reduced(expr, basis, q, p, am, ap, order="lex")
        terms = sympy.Poly(remainder, q, p, ap, am).terms()
        expected = Poly({exps: Fraction(int(c.p), int(c.q)) for exps, c in terms})
        assert ShellReduction(w, p0).reduce(f) == expected


# p0 with rational sqrt(2*p0) (2, 8/9) and irrational (3, 5/7)
SHELL_P0 = (Fraction(2), Fraction(8, 9), Fraction(3), Fraction(5, 7))


@st.composite
def shell_inputs(draw):
    """(value, omega, p0): a zero, constant, Am-power or general polynomial."""
    p0 = draw(st.sampled_from(SHELL_P0))
    omega = draw(st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9))
    small = st.fractions(max_denominator=6)
    # a few fixed s-parts, so sums on one normal-form monomial often cancel s
    fixed = st.sampled_from([ExtScalar(u, v, p0=p0) for u in (0, 1) for v in (1, -1)])
    scalar = small | fixed | st.builds(lambda u, v: ExtScalar(u, v, p0=p0), small, small)
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
                     st.integers(0, 9))
    value = draw(st.one_of(
        st.just(Poly()),
        scalar,
        scalar.map(Poly.constant),
        st.integers(0, 14).map(lambda n: poly.a_minus ** n),
        st.builds(lambda c, n: c * poly.a_plus * poly.a_minus ** n, scalar,
                  st.integers(0, 14)),
        st.dictionaries(exps, scalar, max_size=6).map(Poly)))
    return value, omega, p0


def _same(got, want):
    """Equal polynomials, with equal coefficient types and canonical text."""
    return (got == want and str(got) == str(want)
            and {e: type(c) for e, c in got.terms.items()}
            == {e: type(c) for e, c in want.terms.items()})


def _count_poly_products(monkeypatch):
    calls = []
    mul = Poly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    monkeypatch.setattr(Poly, "__rmul__", counted)
    return calls


class TestShellReduction:
    """The table-based reduction against the term-by-term oracle."""

    @given(shell_inputs())
    @settings(max_examples=150, deadline=None)
    def test_matches_term_by_term_oracle(self, case):
        value, omega, p0 = case
        want = reference_reduce_on_shell(value, omega, p0)
        assert _same(ShellReduction(omega, p0).reduce(value), want)
        shell = ShellReduction(omega, p0)
        # a second pass reads the monomial forms the first one filled
        for _ in range(2):
            assert _same(shell.reduce(value), want)

    @pytest.mark.parametrize("omega, p0", [(1, Fraction(2)), (Fraction(3, 2), Fraction(3)),
                                           (Fraction(5, 7), Fraction(25, 18))])
    def test_every_monomial_up_to_degree_four(self, omega, p0):
        # sqrt(2*p0) = 2, sqrt(6) and 5/3; the class defects have total
        # degree <= 2, and these monomials cover twice that
        shell = ShellReduction(omega, p0)
        for exps in itertools.product(range(5), repeat=4):
            if sum(exps) <= 4:
                f = Poly({exps: 1})
                assert _same(shell.reduce(f), reference_reduce_on_shell(f, omega, p0)), exps

    def test_cancelled_s_part_folds_to_fraction(self):
        # (1 + s)*Ap**2 - s*p and p = Ap**2 - p0 on the shell: the s-parts on
        # Ap**2 cancel, leaving the Fraction 1
        p0 = Fraction(3)
        s = ExtScalar(0, 1, p0=p0)
        f = Poly({(0, 0, 2, 0): 1 + s, (0, 1, 0, 0): -s})
        got = ShellReduction(1, p0).reduce(f)
        assert _same(got, reference_reduce_on_shell(f, 1, p0))
        assert got.terms == {(0, 0, 2, 0): Fraction(1), (0, 0, 0, 0): 3 * s}
        assert type(got.terms[(0, 0, 2, 0)]) is Fraction

    @pytest.mark.parametrize("p0", SHELL_P0)
    def test_every_raw_defect_through_one_table(self, p0):
        for omega in (Fraction(1), Fraction(3, 2)):
            shell = ShellReduction(omega, p0)
            for t in all_types(Fraction(2, 3)):
                for component in raw_jacobian(deform(t, omega, p0)):
                    got = shell.reduce(component)
                    assert _same(got, reference_reduce_on_shell(component, omega, p0))
                    assert got.is_zero, (t.label, omega, p0)

    def test_tables_share_no_state(self):
        f = poly.q ** 2 * poly.a_minus ** 3 + poly.p * poly.a_plus + poly.q
        points = ((1, Fraction(2)), (Fraction(3, 2), Fraction(5, 7)))
        want = [reference_reduce_on_shell(f, w, p0) for w, p0 in points]
        assert want[0] != want[1]
        tables = [ShellReduction(w, p0) for w, p0 in points]
        for _ in range(2):
            for table, expected in zip(tables, want):
                assert _same(table.reduce(f), expected)
            for (w, p0), expected in zip(points, want):
                assert _same(ShellReduction(w, p0).reduce(f), expected)

    def test_no_cache_outlives_a_call(self, monkeypatch):
        f = poly.q ** 3 + poly.p ** 2 * poly.a_minus ** 5
        calls = _count_poly_products(monkeypatch)
        costs = []
        for _ in range(3):
            calls.clear()
            ShellReduction(1, Fraction(2)).reduce(f)
            costs.append(len(calls))
        assert costs[0] > 0 and costs == [costs[0]] * 3

    def test_zero_input_costs_nothing(self, monkeypatch):
        shell = ShellReduction(1, Fraction(2))
        calls = _count_poly_products(monkeypatch)
        assert shell.reduce(Poly()).is_zero and shell.reduce(0).is_zero
        assert calls == []

    def test_one_table_per_jacobian_and_suite(self, monkeypatch, capsys):
        built = []
        init = ShellReduction.__init__

        def counted(self, omega, p0):
            built.append((omega, p0))
            init(self, omega, p0)

        monkeypatch.setattr(ShellReduction, "__init__", counted)
        classical_jacobian(deform(BianchiType("VIIa", A), 1, Fraction(2)), 1, Fraction(2))
        assert len(built) == 1
        built.clear()
        assert main(["verify", "jacobi-classical", "--p0", "3"]) == 0
        assert "jacobi-classical: PASS" in capsys.readouterr().out
        assert built == [(Fraction(1), Fraction(3))]



# (omega, p0) with sqrt(2*p0) = 2, 5/3 and the irrational sqrt(6)
POINT_SHELLS = ((Fraction(1), Fraction(2)), (Fraction(5, 7), Fraction(25, 18)),
                (Fraction(3, 2), Fraction(3)))


@st.composite
def point_inputs(draw):
    """(values, omega, p0): up to three named polynomials whose coefficients
    are Fractions drawn as integer over positive integer (and, where
    sqrt(2*p0) is irrational, u + v*s of two such), each as drawn, times
    the shell relation Ap**2 + Am**2 - 2*p0, or less its shell normal form."""
    omega, p0 = draw(st.sampled_from(POINT_SHELLS))
    rational = st.builds(Fraction, st.integers(), st.integers(1, 10 ** 6))
    scalar = rational
    if rational_sqrt(2 * p0) is None:
        scalar = scalar | st.builds(lambda u, v: ExtScalar(u, v, p0=p0), rational, rational)
    exps = st.tuples(*(st.integers(0, 2),) * 4)
    relation = poly.a_plus ** 2 + poly.a_minus ** 2 - 2 * p0
    shell = ShellReduction(omega, p0)
    values = []
    for n in range(draw(st.integers(1, 3))):
        f = Poly(draw(st.dictionaries(exps, scalar, max_size=4)))
        f = draw(st.sampled_from((f, f * relation, f - shell.reduce(f))))
        values.append((f"f{n}", f))
    return values, omega, p0


class TestPointDefect:
    """The Fraction-point oracle, which the covariance tests compare with,
    against the shell normal form."""

    @pytest.mark.parametrize("omega, p0", POINT_SHELLS)
    def test_every_monomial_up_to_degree_four(self, omega, p0):
        # a monomial is not zero on the shell; less its shell normal form it
        # is zero there, though in general not as a polynomial
        shell = ShellReduction(omega, p0)
        for exps in itertools.product(range(5), repeat=4):
            if sum(exps) <= 4:
                f = Poly({exps: 1})
                g = f - shell.reduce(f)
                assert not shell.reduce(f).is_zero and shell.reduce(g).is_zero
                for values in ([("f", f)], [("0", Poly()), ("g", g), ("f", f)]):
                    assert reference_point_defect(values, omega, p0)[1] == "f", exps

    @pytest.mark.parametrize("omega, p0", POINT_SHELLS)
    def test_multiples_of_the_shell_relation_vanish(self, omega, p0):
        relation = poly.a_plus ** 2 + poly.a_minus ** 2 - 2 * p0
        s = rational_sqrt(2 * p0) or ExtScalar(0, 1, p0=p0)
        shell = ShellReduction(omega, p0)
        for exps in itertools.product(range(3), repeat=4):
            for c in (Fraction(1), Fraction(-7, 3), s + Fraction(1, 2)):
                g = Poly.constant(c) * Poly({exps: 1}) * relation
                want = (2 * (exps[0] + exps[1]) + exps[2] + exps[3] + 2, None)
                assert reference_point_defect([("g", g)], omega, p0) == want, (exps, c)
                assert shell.reduce(g).is_zero

    @given(point_inputs())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_fraction_point_oracle(self, case):
        # the first value whose normal form is not zero is the one the oracle names
        values, omega, p0 = case
        shell = ShellReduction(omega, p0)
        first = next((name for name, f in values if not shell.reduce(f).is_zero), None)
        assert reference_point_defect(values, omega, p0)[1] == first

    def test_prove_jacobi_rejects_no_certificates(self):
        with pytest.raises(ValueError, match="^prove_jacobi needs at least one"
                                             r" \(class, certificate\) pair, got none$"):
            ShellReduction.prove_jacobi([])

    def test_prove_kinds_rejects_no_certificates(self):
        # no class is no verdict, for the quantum suite as for the classical one
        with pytest.raises(ValueError, match="^prove_kinds needs at least one"
                                             r" \(class, certificate\) pair, got none$"):
            quantum.prove_kinds([])

    @pytest.mark.parametrize("other", [(1, Fraction(3)), (2, Fraction(2))])
    def test_prove_jacobi_rejects_mixed_shells(self, other):
        # one table serves every certificate, so a second (omega, p0) is an
        # input error, not a verdict
        t = BianchiType("VIIa", A)
        certificates = [(t, quantum.classify(t, 1, Fraction(2))), (t, quantum.classify(t, *other))]
        with pytest.raises(ValueError, match=r"^prove_jacobi needs one \(omega, p0\), got"
                                             rf" \(1, 2\) and \({other[0]}, {other[1]}\)$"):
            ShellReduction.prove_jacobi(certificates)


def _classical_defect(t, shell, omega, p0):
    """The commutative image of class t's operator defect, as `prove_jacobi` reads it."""
    return [commutative_image(c, shell.sigma) for c in quantum.classify(t, omega, p0).jacobian]


def _replace_row(index, row):
    """The `lax._FAMILY` with the terms of entry `index` replaced by `row`."""
    return tuple((idx, row if idx == index else terms) for idx, terms in lax._FAMILY)


# each bracket or image mutant with the tags of the classes whose classical
# defect then fails both legs of jacobi-classical, at every shell
MUTANTS = {
    "none": (None, ()),
    "C6's sign flipped in mu^2_12": (
        (lax, "_FAMILY", _replace_row((2, 1, 2), ((5, lax._AM), (6, lax._AP)))),
        ("V", "IV", "VIIa", "IIIa1", "VIa")),
    "Am counted as Ap by the image": (
        (poly, "_exps", lambda w: (w.count("Q"), w.count("P"), w.count("Ap") + w.count("Am"), 0)),
        ("VIIa", "IIIa1", "VIa")),
    # the family leaves the Lax equation, which operadic-lax catches, yet
    # every class's defect still vanishes on the shell
    "omega*q written as p in mu^1_23": (
        (lax, "_FAMILY", _replace_row((1, 2, 3), ((2, lax._P), (-3, lax._P), (-4, lax._1)))),
        ()),
}


class TestCovariance:
    """The second leg of jacobi-classical: D J = M J plus one point."""

    @pytest.mark.parametrize("mutant", MUTANTS)
    @pytest.mark.parametrize("omega, p0", POINT_SHELLS)
    def test_kill_profile_matches_the_reduction_and_the_oracle(self, monkeypatch, mutant,
                                                              omega, p0):
        patch, failing = MUTANTS[mutant]
        if patch is not None:
            monkeypatch.setattr(*patch)
        shell = ShellReduction(omega, p0)
        verdicts = {}
        for t in all_types(A):
            raw = _classical_defect(t, shell, omega, p0)
            leg = shell.covariant(raw)
            oracle = reference_point_defect([(t.label, c) for c in raw], omega, p0)[1]
            reduced = any(not shell.reduce(c).is_zero for c in raw)
            assert (leg is not None) is (oracle is not None) is reduced, t.label
            verdicts[t.tag] = leg
        assert tuple(tag for tag, leg in verdicts.items() if leg) == failing
        assert {leg for leg in verdicts.values() if leg} <= {"does not obey D J = M J"}

    @pytest.mark.parametrize("omega, p0", POINT_SHELLS)
    def test_reference_point_off_the_shell_fails(self, omega, p0):
        # at (0, -p0, s, 0), where p = Ap**2 - p0 does not hold, the
        # AnomalousII defects are not zero, though they obey D J = M J
        shell = ShellReduction(omega, p0)
        q, _, ap, am = shell._reference
        shell._reference = (q, [-p0], ap, am)
        for t in all_types(A):
            leg = shell.covariant(_classical_defect(t, shell, omega, p0))
            if t.tag in ("VIIa", "IIIa1", "VIa"):
                assert leg == "is not zero at (0, p0, s, 0)", t.label
            else:
                assert leg is None, t.label

    @pytest.mark.parametrize("omega, p0", POINT_SHELLS)
    def test_each_fact_alone(self, omega, p0):
        # (xi+, xi-, shell relation) is zero on the shell and obeys both facts;
        # (Ap, Am, 0) and a nonzero constant J3 obey D J = M J but not the
        # point, and (Am, Ap, 0) or a q in J3 obeys neither
        s = rational_sqrt(2 * p0) or ExtScalar(0, 1, p0=p0)
        q, p, ap, am = poly.q, poly.p, poly.a_plus, poly.a_minus
        xi_plus = q * am * omega + p * ap - ap * p0
        xi_minus = q * ap * omega - p * am - am * p0
        relation = ap * ap + am * am - 2 * p0
        zero = Poly()
        shell = ShellReduction(omega, p0)
        assert shell.covariant([xi_plus, xi_minus, relation]) is None
        assert shell.covariant([zero, zero, zero]) is None
        for defect in ([ap, am, zero], [am, -ap, zero], [zero, zero, Poly.constant(s)]):
            assert shell.covariant(defect) == "is not zero at (0, p0, s, 0)"
        for defect in ([am, ap, zero], [zero, zero, q], [xi_minus, xi_plus, zero]):
            assert shell.covariant(defect) == "does not obey D J = M J"


class TestJacobi:
    def test_symbolic_zero_across_moduli(self):
        for a in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
            for tag in ("VIIa", "IIIa1", "VIa"):
                if tag == "VIa" and a == 1:
                    continue
                if tag == "IIIa1" and a != 1:
                    continue
                t = BianchiType(tag, a if tag != "IIIa1" else None)
                J = classical_jacobian(deform(t, 1, Fraction(2)), 1, Fraction(2))
                assert all(c.is_zero for c in J), (tag, a)

    def test_raw_jacobian_promotes_only_the_factors(self, monkeypatch):
        # each component holds the terms, in their order, of the kernel over
        # fully promoted entries; exact zeros build no constant Poly
        for p0 in (Fraction(2), Fraction(3)):
            for t in all_types(A):
                mu = deform(t, 1, p0)
                promoted = _cyclic_defect([poly.as_poly(v) for v in mu.coeffs], Poly())
                got = raw_jacobian(mu)
                for c, want in zip(got, promoted):
                    assert list(c.terms.items()) == list(want.terms.items()), t.label
        mu = structure_constants(BianchiType("VI"))
        constants = []
        real = Poly.constant.__func__
        monkeypatch.setattr(Poly, "constant",
                            classmethod(lambda cls, v: constants.append(v) or real(cls, v)))
        assert all(c.is_zero for c in raw_jacobian(mu))
        assert constants == [v for v in mu.coeffs if v]

    def test_raw_defect_nonzero_off_shell(self):
        # before reduction the parametric defect is a real polynomial
        t = BianchiType("VIIa", A)
        raw = raw_jacobian(deform(t, 1, Fraction(2)))
        assert any(not c.is_zero for c in raw)


_VIIA = BianchiType("VIIa", Fraction(1))
_PARAMS = LaxFamilyParams((1,) * 9)

# each exact entry point with one of omega, p0 (or the modulus a) given as a float
_FLOAT_CALLS = {
    "BianchiType a": lambda: BianchiType("VIIa", 0.1),
    "BianchiType IIIa1 a": lambda: BianchiType("IIIa1", 1.0),
    "all_types a": lambda: all_types(0.1),
    # the oracle `reference_quantum.formal_deformation`: formal_mu through solve_C
    "formal_deformation omega": lambda: formal_deformation(_VIIA, 0.1, Fraction(2)),
    "formal_deformation p0": lambda: formal_deformation(_VIIA, 1, 0.1),
    "deform omega": lambda: deform(_VIIA, 0.1, Fraction(2)),
    "deform p0": lambda: deform(_VIIA, 1, 0.1),
    "ShellReduction omega": lambda: ShellReduction(0.5, Fraction(2)),
    "ShellReduction p0": lambda: ShellReduction(1, 0.5),
    "deformation_trace omega": lambda: deformation_trace(_VIIA, 0.1, Fraction(2), [0.0]),
    "deformation_trace p0": lambda: deformation_trace(_VIIA, 1, 0.1, [0.0]),
    "solve_C p0": lambda: solve_C(structure_constants(_VIIA), 0.1),
    "formal_mu omega": lambda: formal_mu(_PARAMS, 0.1),
    "build_matrix_lax omega": lambda: build_matrix_lax(Fraction(1), Fraction(2), 0.1),
    "matrix_lax_residual omega": lambda: matrix_lax_residual(Fraction(1), Fraction(2), 0.1),
    "prove_matrix_lax omega": lambda: prove_matrix_lax(0.1),
    "quantize omega": lambda: quantum.quantize(_VIIA, 0.1, Fraction(2)),
    "quantize p0": lambda: quantum.quantize(_VIIA, 1, 0.1),
    "classify omega": lambda: quantum.classify(_VIIA, 0.1, Fraction(2)),
    "classify p0": lambda: quantum.classify(_VIIA, 1, 0.1),
}


# each exact entry point with omega or p0 not positive, and the message it gives
_NONPOSITIVE_CALLS = {
    "ShellReduction omega 0": (lambda: ShellReduction(0, 2), "omega must be positive, got 0"),
    "ShellReduction omega < 0": (lambda: ShellReduction(-1, 2), "omega must be positive, got -1"),
    "ShellReduction p0 < 0": (lambda: ShellReduction(1, Fraction(-1, 2)),
                              "p0 must be positive, got -1/2"),
    "classical_jacobian omega 0": (
        lambda: classical_jacobian(deform(_VIIA, 1, 2), 0, 2), "omega must be positive, got 0"),
    # the oracle `reference_quantum.formal_deformation`: formal_mu through solve_C
    "formal_deformation omega": (lambda: formal_deformation(_VIIA, 0, 2),
                                 "omega must be positive, got 0"),
    "formal_deformation p0": (lambda: formal_deformation(_VIIA, 1, -2),
                              "p0 must be positive, got -2"),
    "solve_C p0": (lambda: solve_C(structure_constants(_VIIA), 0), "p0 must be positive, got 0"),
    "operadic_lax_residual omega": (lambda: operadic_lax_residual(_PARAMS, -3),
                                    "omega must be positive, got -3"),
    "quantize p0": (lambda: quantum.quantize(_VIIA, 1, 0), "p0 must be positive, got 0"),
    "formal_mu omega 0": (lambda: formal_mu(_PARAMS, 0), "omega must be positive, got 0"),
    "formal_mu omega < 0": (lambda: formal_mu(_PARAMS, -1), "omega must be positive, got -1"),
    "build_matrix_lax omega": (lambda: build_matrix_lax(1, 2, 0), "omega must be positive, got 0"),
    "matrix_lax_residual omega": (lambda: matrix_lax_residual(1, 2, -1),
                                  "omega must be positive, got -1"),
    "prove_matrix_lax omega": (lambda: prove_matrix_lax(-1), "omega must be positive, got -1"),
    "rotation_generator omega": (lambda: rotation_generator(Fraction(-1, 2)),
                                 "omega must be positive, got -1/2"),
    "xi_pair omega": (lambda: quantum.xi_pair(0, 2), "omega must be positive, got 0"),
    "xi_pair p0": (lambda: quantum.xi_pair(1, 0), "p0 must be positive, got 0"),
    "xi_pair p0 < 0": (lambda: quantum.xi_pair(1, -2), "p0 must be positive, got -2"),
    "classify omega": (lambda: quantum.classify(_VIIA, 0, 2), "omega must be positive, got 0"),
    "deform p0": (lambda: deform(_VIIA, 1, -2), "p0 must be positive, got -2"),
}


@pytest.mark.parametrize("name", list(_FLOAT_CALLS))
def test_float_rejected_by_exact_entry_points(name):
    # Fraction(0.1) would silently become 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        _FLOAT_CALLS[name]()


@pytest.mark.parametrize("name", list(_NONPOSITIVE_CALLS))
def test_nonpositive_rejected_by_exact_entry_points(name):
    call, message = _NONPOSITIVE_CALLS[name]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def _row(columns, n):
    """Sample n of a trace: a list column gives its n-th value, a float itself."""
    return tuple(c[n] if isinstance(c, list) else c for c in columns)


class TestTrace:
    def test_rows_and_window(self):
        cols = deformation_trace(BianchiType("V"), 1, Fraction(2), [0.0, 0.5])
        assert len(cols) == 14
        assert all(len(c) == 2 for c in cols[:5])
        t0 = _row(cols, 0)
        assert t0[0] == 0.0 and t0[1] == 0.0 and t0[2] == 2.0
        # row 0 equals the class tensor: mu2_12 = -1, mu3_31 = 1
        assert t0[6] == -1.0 and t0[13] == 1.0

    @pytest.mark.parametrize("omega, p0, a", [
        (1, Fraction(2), A),
        (1, Fraction(3), A),                   # irrational sigma
        (Fraction(2, 3), Fraction(5, 7), 3),
    ])
    def test_matches_tensor_evaluate(self, omega, p0, a):
        # the compiled float path gives the bytes of evaluating the exact table
        w = float(omega)
        times = [0.0] + [n * math.pi / (7 * w) for n in range(1, 7)]
        for t in all_types(a):
            tensor = deform(t, omega, p0)
            cols = deformation_trace(t, omega, p0, times)
            assert cols[0] == times
            for n, tm in enumerate(times):
                row = _row(cols, n)
                q, p, ap, am = row[1:5]
                expected = [float(scalar_evaluate([(exps, float(c)) for exps, c in v.terms.items()],
                                                  (q, p, ap, am)))
                            for _, v in tensor.independent_entries()]
                assert list(map(repr, row[5:])) == list(map(repr, expected)), (t, tm)

    @pytest.mark.parametrize("omega, p0, a", [
        (1, Fraction(2), A),
        (1, Fraction(3), A),
        (Fraction(2, 3), Fraction(5, 7), 3),
    ])
    def test_constant_and_shared_columns(self, omega, p0, a):
        # an entry without a variable term is one float; each other entry is a
        # list per time, and equal entries share one list
        times = [0.0, 0.25, 0.5]
        constant = 0
        for t in all_types(a):
            exact = [poly.as_poly(v) for _, v in deform(t, omega, p0).independent_entries()]
            cols = deformation_trace(t, omega, p0, times)
            for value, col in zip(exact, cols[5:]):
                if value.is_constant:
                    assert type(col) is float
                    constant += 1
                else:
                    assert type(col) is list and len(col) == len(times)
            for i, j in itertools.combinations(range(9), 2):
                if isinstance(cols[5 + i], list) and isinstance(cols[5 + j], list):
                    assert (cols[5 + i] is cols[5 + j]) == (exact[i] == exact[j]), (t, i, j)
        if (omega, p0, a) == (1, Fraction(2), A):
            # all of I, VII, VIII, IX and five each of II, VI, V, IV
            assert constant == 59

    def test_window_enforced(self):
        with pytest.raises(BranchError):
            deformation_trace(BianchiType("V"), 1, Fraction(2), [math.pi])
