"""The term-by-term shell reduction the table-based one replaced, for the tests.

`reference_reduce_on_shell` rebuilds the substitution q = Ap*Am/omega,
p = (Ap**2 - Am**2)/2 and the shell relation Am**2 = 2*p0 - Ap**2 on every
call, substitutes the whole polynomial through `substitute`, and then
reduces term by term through the public ring operations.  The tests compare
`bianchi.ShellReduction` against it.

`reference_point_defect` is the conic-point test that
`bianchi.ShellReduction.point_defect` replaced by its integer form: it
evaluates each value through `poly.evaluate_terms` at exact Fraction (or
ExtScalar) columns q, p, Ap, Am of the points u = 0..2D of the shell conic.
"""

from fractions import Fraction

from operadyn import poly
from operadyn.ncpoly import ExtScalar, _coefficient, _rational
from operadyn.poly import VARIABLES, Poly, evaluate_terms, rational_sqrt


def substitute(value, **assignments):
    """Replace variables of a Poly by numbers or polynomials; unset ones stay."""
    for name in assignments:
        if name not in VARIABLES:
            raise ValueError(f"unknown variable {name!r}")
    out = Poly()
    for exps, coeff in value.terms.items():
        term = Poly.constant(coeff)
        for idx, e in enumerate(exps):
            if e == 0:
                continue
            name = VARIABLES[idx]
            if name in assignments:
                rep = assignments[name]
                base = rep if isinstance(rep, Poly) else Poly.constant(rep)
                term = term * base ** e
            else:
                term = term * Poly.variable(name) ** e
        out = out + term
    return out


def reference_reduce_on_shell(value, omega, p0):
    """Normal form of a phase-space polynomial on the oscillator shell."""
    value = poly.as_poly(value)
    w = _rational(omega)
    p0 = _rational(p0)
    substituted = substitute(
        value,
        q=(poly.a_plus * poly.a_minus) * (1 / w),
        p=(poly.a_plus ** 2 - poly.a_minus ** 2) * Fraction(1, 2),
    )
    shell = Poly.constant(2 * p0) - poly.a_plus ** 2
    out = Poly()
    for (eq, ep, eap, eam), coeff in substituted.terms.items():
        # q and p are gone after the substitution
        assert eq == 0 and ep == 0
        k, r = divmod(eam, 2)
        term = Poly.constant(coeff) * poly.a_plus ** eap * poly.a_minus ** r * shell ** k
        out = out + term
    return out


def reference_point_defect(values, omega, p0):
    """(D, name) over (name, polynomial) pairs, as `ShellReduction.point_defect`
    gives it: D = max(2i + 2j + k + l) over the terms q^i p^j Ap^k Am^l, and
    name the first value not zero at one of the shell points u = 0..2D."""
    w, p0 = _rational(omega), _rational(p0)
    s = rational_sqrt(2 * p0) or ExtScalar(0, 1, p0=p0)
    degree = max((2 * (i + j) + k + l for _, v in values for i, j, k, l in v.terms),
                 default=0)
    powers = [Fraction(1)]   # s^m for m = 0..D; each one free of s is a Fraction
    while len(powers) <= degree:
        powers.append(_coefficient(powers[-1] * s))
    # Ap = s*alpha and Am = s*beta; s enters each term through its coefficient
    alpha = [Fraction(1 - u * u, 1 + u * u) for u in range(2 * degree + 1)]
    beta = [Fraction(2 * u, 1 + u * u) for u in range(2 * degree + 1)]
    points = ([p0 * 2 * x * y / w for x, y in zip(alpha, beta)],
              [p0 * (x * x - y * y) for x, y in zip(alpha, beta)], alpha, beta)
    for name, value in values:
        terms = [(e, _coefficient(c * powers[e[2] + e[3]])) for e, c in value.terms.items()]
        if any(evaluate_terms(terms, points)):
            return degree, name
    return degree, None
