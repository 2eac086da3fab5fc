"""Acceptance suite: ten end-to-end checks at their stated tolerances.

Each test prints a one-line PASS summary (visible under pytest -s) so the
suite doubles as a verification report.  Tolerances appear inline next to
the assertions they bound; everything not explicitly float is exact.
"""

import math
import random
from fractions import Fraction

from operadyn.bianchi import (BianchiType, TAGS, all_types, classical_jacobian,
                              deform, is_rigid, raw_jacobian,
                              structure_constants)
from operadyn.lax import (LaxFamilyParams, build_mu, matrix_lax_residual,
                          operadic_lax_residual, solve_C)
from operadyn.ncpoly import ExtScalar
from operadyn.operad import (Operation, gerstenhaber_bracket,
                             graded_sign)
from operadyn.oscillator import (exact_flow, integrate_rk4, quasi_coords,
                                 quasi_coords_derivative)
from operadyn.quantum import (ANOMALOUS_II, basis_jacobian, classify,
                              generator_commutator, quantize, xi_pair)
from reference_compose import quantum_jacobian, triple_product
from reference_tables import transcribed_deformation
from reference_trace import scalar_evaluate

RIGID_TAGS = frozenset({"I", "VII", "VIII", "IX"})


def _rational(rng, num, den):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def test_criterion_01_matrix_lax_residual_exact():
    rng = random.Random(101)
    for _ in range(1000):
        qv = _rational(rng, 60, 20)
        pv = _rational(rng, 60, 20)
        wv = Fraction(rng.randint(1, 40), rng.randint(1, 10))
        residual = matrix_lax_residual(qv, pv, wv)
        assert all(v == 0 for v in residual.coeffs)
    print("ACCEPTANCE 1: PASS - matrix residual exactly zero at 1000"
          " random rational points")


def test_criterion_02_operadic_lax_residual_exact():
    rng = random.Random(102)
    probes = []
    for slot in range(9):
        c = [Fraction(0)] * 9
        c[slot] = Fraction(1)
        probes.append(LaxFamilyParams(tuple(c)))
    for params in probes:
        for omega in (Fraction(1), Fraction(2)):
            assert operadic_lax_residual(params, omega).is_zero
    for _ in range(100):
        params = LaxFamilyParams(tuple(_rational(rng, 20, 10) for _ in range(9)))
        assert operadic_lax_residual(params, Fraction(1)).is_zero
    print("ACCEPTANCE 2: PASS - family residual is the zero polynomial for"
          " 9 probes and 100 random parameter vectors")


def test_criterion_03_tables_round_trip():
    # the reference point has Ap = s = sqrt(2 p0), kept formal
    for p0 in (Fraction(1, 2), Fraction(2), Fraction(3)):
        s = ExtScalar(0, 1, p0=p0)
        for t in all_types(Fraction(1, 2)):
            constants = structure_constants(t)
            params = solve_C(constants, p0)
            rebuilt = build_mu(params, Fraction(0), p0, s, Fraction(0),
                               Fraction(1))
            assert rebuilt == constants
    # the deformed table: generated and transcribed agree entry by entry
    for omega in (Fraction(1), Fraction(2)):
        for p0 in (Fraction(1, 2), Fraction(2), Fraction(3)):
            for t in all_types(Fraction(1, 2)):
                assert deform(t, omega, p0) == transcribed_deformation(t, omega, p0), (
                    f"StructureTensor of {t.label} at omega={omega}, p0={p0}")
    print("ACCEPTANCE 3: PASS - class tensors round-trip through the family"
          " parameters and the deformed table matches its transcription")


def test_criterion_04_rigid_classes():
    for t in all_types(Fraction(1, 2)):
        assert is_rigid(t) is (t.tag in RIGID_TAGS), t.tag
    print("ACCEPTANCE 4: PASS - rigid classes are exactly I, VII, VIII, IX")


def test_criterion_05_classical_jacobi_on_shell():
    omega, p0 = Fraction(1), Fraction(2)
    worst = 0.0
    for a in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
        for tag in TAGS:
            if tag == "VIa" and a == 1:
                continue  # that class excludes modulus one
            t = BianchiType(tag, a if tag in ("VIIa", "VIa") else None)
            mu = deform(t, omega, p0)
            assert all(c.is_zero for c in classical_jacobian(mu, omega, p0))
            raw = raw_jacobian(mu)
            for n in range(100):
                tm = (n / 100.0) * math.pi * 0.99
                state = exact_flow(1.0, 2.0, tm)
                coords = quasi_coords(state)
                for component in raw:
                    value = scalar_evaluate(component.terms.items(),
                                            (state.q, state.p, coords.a_plus, coords.a_minus))
                    worst = max(worst, abs(value))
    assert worst < 1e-10
    print(f"ACCEPTANCE 5: PASS - on-shell defect vanishes symbolically for"
          f" a in {{1/2, 1, 3/2}}; numeric defect along the flow at most"
          f" {worst:.3e} (< 1e-10)")


def test_criterion_06_quantum_lie_classes_structurally_zero():
    for tag in ("II", "VI"):
        for omega in (Fraction(1), Fraction(2)):
            for p0 in (Fraction(1, 2), Fraction(2)):
                defect = basis_jacobian(quantize(BianchiType(tag), omega, p0))
                assert defect.j1.is_zero
                assert defect.j2.is_zero
                assert defect.j3.is_zero
    print("ACCEPTANCE 6: PASS - operator defects of II and VI vanish in the"
          " free algebra for omega in {1, 2}, p0 in {1/2, 2}")


def test_criterion_07_first_anomalous_pair():
    rng = random.Random(107)
    for tag in ("IV", "V"):
        for omega in (Fraction(1), Fraction(2)):
            for p0 in (Fraction(1, 2), Fraction(2)):
                mu = quantize(BianchiType(tag), omega, p0)
                defect = basis_jacobian(mu)
                expected = (1 / p0) * generator_commutator()
                assert defect.j1.is_zero and defect.j2.is_zero
                assert defect.j3 == expected
                assert str(defect.j3) == str(expected)
                for _ in range(5):
                    x, y, z = (tuple(_rational(rng, 6, 4) for _ in range(3))
                               for _ in range(3))
                    full = quantum_jacobian(mu, x, y, z)
                    assert full.j1.is_zero and full.j2.is_zero
                    assert full.j3 == triple_product(x, y, z) * expected
    print("ACCEPTANCE 7: PASS - IV and V leave a single central defect"
          " [Ap,Am]/p0 that scales with the triple product")


def test_criterion_08_second_anomalous_family():
    cases = [("IIIa1", Fraction(1)),
             ("VIa", Fraction(1, 2)), ("VIa", Fraction(3, 2)),
             ("VIIa", Fraction(1, 2)), ("VIIa", Fraction(3, 2))]
    for tag, a in cases:
        t = BianchiType(tag, a if tag != "IIIa1" else None)
        for omega in (Fraction(1), Fraction(2)):
            for p0 in (Fraction(1, 2), Fraction(2)):
                defect = basis_jacobian(quantize(t, omega, p0))
                # a / sqrt(2 p0^3) lives in the extension as (a / 2 p0^2) s
                scale = ExtScalar(0, a / (2 * p0 * p0), p0=p0)
                xp, xm = xi_pair(omega, p0)
                assert defect.j1 == -1 * scale * xp
                assert defect.j2 == -1 * scale * xm
                assert defect.j3 == (a * a / p0) * generator_commutator()
                cert = classify(t, omega, p0)
                assert cert.kind == ANOMALOUS_II and cert.tau == -1
    print("ACCEPTANCE 8: PASS - the parametric classes produce the xi pair"
          " with tau = -1 and central third component a^2 [Ap,Am]/p0")


def _random_operation(rng, dim, arity, fractions):
    flat = [_rational(rng, 4, 3) if fractions else rng.randint(-4, 4)
            for _ in range(dim ** (arity + 1))]
    return Operation(dim, arity, flat)


def _jacobi_defect(f, g, h):
    df, dg, dh = f.reduced_degree, g.reduced_degree, h.reduced_degree
    t1 = graded_sign(df * dh) * gerstenhaber_bracket(gerstenhaber_bracket(f, g), h)
    t2 = graded_sign(dg * df) * gerstenhaber_bracket(gerstenhaber_bracket(g, h), f)
    t3 = graded_sign(dh * dg) * gerstenhaber_bracket(gerstenhaber_bracket(h, f), g)
    return t1 + t2 + t3


def test_criterion_09_graded_lie_identities():
    rng = random.Random(109)
    for _ in range(200):
        dim = rng.randint(1, 3)
        # integer coefficients at the largest size keep the exact sweep fast;
        # both are exact, and the identities are multilinear over the rationals
        fractions = dim < 3
        f = _random_operation(rng, dim, rng.randint(1, 4), fractions)
        g = _random_operation(rng, dim, rng.randint(1, 4), fractions)
        h = _random_operation(rng, dim, rng.randint(1, 4), fractions)
        sign = graded_sign(f.reduced_degree * g.reduced_degree)
        assert gerstenhaber_bracket(f, g) == (-sign) * gerstenhaber_bracket(g, f)
        assert _jacobi_defect(f, g, h).is_zero
    print("ACCEPTANCE 9: PASS - graded antisymmetry and graded Jacobi hold"
          " exactly on 200 random triples (dim <= 3, reduced degree <= 3)")


def test_criterion_10_oscillator_numerics():
    period = 2.0 * math.pi
    steps = 1000
    states = integrate_rk4(1.0, 1.0, period, steps)
    worst = 0.0
    for k, state in enumerate(states):
        reference = exact_flow(1.0, 1.0, k * period / steps)
        worst = max(worst, abs(state.q - reference.q), abs(state.p - reference.p))
    assert worst < 1e-10

    omega, p0 = 1.0, 2.0
    relation_worst = 0.0
    for n in range(-49, 50):
        tm = (n / 50.0) * math.pi * 0.98
        state = exact_flow(omega, p0, tm)
        c = quasi_coords(state)
        relation_worst = max(
            relation_worst,
            abs(c.a_plus * c.a_minus - omega * state.q),
            abs((c.a_plus ** 2 - c.a_minus ** 2) / 2.0 - state.p),
            abs(c.a_plus ** 2 + c.a_minus ** 2 - 2.0 * p0))
    assert relation_worst < 1e-12

    h = 1e-5
    derivative_worst = 0.0
    for tm in (-2.5, -1.0, 0.0, 0.4, 1.7, 2.9):
        c = quasi_coords(exact_flow(omega, p0, tm))
        ahead = quasi_coords(exact_flow(omega, p0, tm + h))
        behind = quasi_coords(exact_flow(omega, p0, tm - h))
        dap, dam = quasi_coords_derivative(c, omega)
        derivative_worst = max(
            derivative_worst,
            abs((ahead.a_plus - behind.a_plus) / (2 * h) - dap),
            abs((ahead.a_minus - behind.a_minus) / (2 * h) - dam))
    assert derivative_worst < 1e-6
    print(f"ACCEPTANCE 10: PASS - RK4 error {worst:.3e} (< 1e-10) over one"
          f" period, quasi-coordinate relations within {relation_worst:.3e}"
          f" (< 1e-12), derivatives within {derivative_worst:.3e} (< 1e-6)")
