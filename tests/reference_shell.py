"""The term-by-term shell reduction the table-based one replaced, for the tests.

`reference_reduce_on_shell` rebuilds the substitution q = Ap*Am/omega,
p = (Ap**2 - Am**2)/2 and the shell relation Am**2 = 2*p0 - Ap**2 on every
call, substitutes the whole polynomial through `substitute`, and then
reduces term by term through the public ring operations.  The tests compare
`bianchi.ShellReduction` against it.
"""

from fractions import Fraction

from operadyn import poly
from operadyn.ncpoly import _rational
from operadyn.poly import VARIABLES, Poly


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
