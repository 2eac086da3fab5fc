"""Exact multivariate polynomials in the phase-space variables q, p, Ap, Am.

A polynomial maps exponent 4-tuples ``(e_q, e_p, e_Ap, e_Am)`` to
coefficients in Q(s), s = sqrt(2*p0), in the coefficient format that
`ncpoly` states; zero coefficients are never stored, so structural equality
is canonical-form equality.  `Poly` is the ring body `ncpoly._Ring`, shared
with `ncpoly.NCPoly`, over exponent keys; it adds `constant`, `variable`
and `**`.  The public constructors (`Poly(...)`, `constant`, `variable`)
check and coerce their input; results whose terms already hold the format
are built through the private `_trusted`, which checks nothing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul

from .ncpoly import GENERATORS, _new, _rational, _Ring, _coefficient, _collect, _fold_s

VARIABLES = ("q", "p", "Ap", "Am")

_ZERO_EXP = (0, 0, 0, 0)


def _trusted(terms):
    """A Poly over terms that already hold the class invariant, unchecked."""
    out = _new(Poly)
    out.terms = terms
    return out


def rational_sqrt(value):
    """Exact square root of a nonnegative rational, or None if irrational;
    TypeError on anything that is not rational, a float or a string included."""
    f = _rational(value)
    if f < 0:
        return None
    rn = math.isqrt(f.numerator)
    rd = math.isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


class Poly(_Ring):
    """Commutative polynomial over q, p, Ap, Am with exact coefficients."""

    __slots__ = ()

    _ONE = _ZERO_EXP
    _like = staticmethod(_trusted)

    @staticmethod
    def _key(exps):
        key = tuple(exps)
        if len(key) != 4 or any((not isinstance(e, int)) or e < 0 for e in key):
            raise ValueError(f"bad exponent tuple {exps!r}")
        return key

    def _products(self, terms):
        return (((a0 + b0, a1 + b1, a2 + b2, a3 + b3), ca * cb)
                for (a0, a1, a2, a3), ca in self.terms.items()
                for (b0, b1, b2, b3), cb in terms.items())

    # ---- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value):
        value = _coefficient(value)
        return _trusted({_ZERO_EXP: value} if value else {})

    @classmethod
    def variable(cls, name):
        if name not in VARIABLES:
            raise ValueError(f"unknown variable {name!r}, expected one of {VARIABLES}")
        return cls({tuple(int(v == name) for v in VARIABLES): 1})

    # ---- powers ----------------------------------------------------------

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Poly.constant(1)
        for _ in range(exponent):
            out = out * self
        return out

    # ---- canonical text form --------------------------------------------

    @staticmethod
    def _order(exps):
        # total degree first, then the exponents, both descending
        return -sum(exps), tuple(-e for e in exps)

    @staticmethod
    def _monomial(exps):
        return "".join(f"*{name}" if e == 1 else f"*{name}^{e}"
                       for name, e in zip(VARIABLES, exps) if e)

    def __repr__(self):
        return f"Poly({self})"


def evaluate_terms(terms, columns):
    """Sum of coeff * q^i p^j Ap^k Am^l over (exps, coeff) pairs, per point.

    `columns` holds one sequence per coordinate (q, p, Ap, Am), all of one
    length; the result is a list with one value per point.  At each point the
    float operations are those of a plain per-point loop, in its order: the
    sum starts at int 0 and adds the terms in the given order, and each term
    starts at its coefficient and is multiplied by every base once per unit
    of its exponent.  So a Fraction coefficient times a float becomes a float
    first, an ExtScalar must come as its float, and int 0 + -0.0 gives 0.0.
    """
    n = len(columns[0])
    total = [0] * n
    for exps, coeff in terms:
        value = [coeff] * n
        for column, e in zip(columns, exps):
            for _ in range(e):
                value = list(map(mul, value, column))
        total = list(map(add, total, value))
    return total


def _exps(word):
    """The exponents (i, j, k, l) of a word's commutative image: how often
    it holds Q, P, Ap and Am."""
    return tuple(map(word.count, GENERATORS))


def commutative_image(value, sigma=None):
    """The Poly of an NCPoly whose generators commute: each word becomes the
    monomial of its letter counts, and given the rational value sigma of s,
    each u + v*s folds to u + v*sigma first.  A ring map that takes each
    entry of `quantum.quantize(t, omega, p0)` to the entry of
    `bianchi.deform(t, omega, p0)`, so it takes the operator defect of a
    class to its commutative one."""
    terms = value.terms.items()
    if sigma is not None:
        terms = ((word, _fold_s(c, sigma)) for word, c in terms)
    return _trusted(_collect({}, ((_exps(word), c) for word, c in terms)))


def as_poly(value):
    """Promote a number to a constant Poly; pass polynomials through."""
    if isinstance(value, Poly):
        return value
    return Poly.constant(value)


# the four coordinate generators
q = Poly.variable("q")
p = Poly.variable("p")
a_plus = Poly.variable("Ap")
a_minus = Poly.variable("Am")
