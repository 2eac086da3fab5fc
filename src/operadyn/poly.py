"""Exact multivariate polynomials in the phase-space variables q, p, Ap, Am.

Every symbolic identity in this package is decided exactly.  Coefficients
live in Q(s) with s = sqrt(2*p0), in the coefficient format that
`ncpoly` states and shares with `ncpoly.NCPoly`: a nonzero Fraction, or an
`ncpoly.ExtScalar` with nonzero s-part.  A polynomial is a mapping from
exponent 4-tuples ``(e_q, e_p, e_Ap, e_Am)`` to coefficients.  Zero
coefficients are never stored, which makes structural equality the same
thing as canonical-form equality.

Invariant of every Poly: its keys are 4-tuples of ints >= 0, and each
coefficient is in that format.  The public constructors (`Poly(...)`,
`constant`, `variable`, `from_text`) check and coerce their input.  Only
`constant`, whose one key is known to be good once its value is coerced,
and the ring operations (`+`, `-`, `*`, negation, scalar `*`,
`derivative`), whose operands already hold the invariant, build their
result through the private `_trusted`, which checks nothing; sums and
products run through `ncpoly._collect`, which keeps the format.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from operator import add, mul

from .ncpoly import ExtScalar, _coefficient, _collect, _scaled_terms

VARIABLES = ("q", "p", "Ap", "Am")

_ZERO_EXP = (0, 0, 0, 0)

_SCALARS = (Rational, ExtScalar)

_new = object.__new__


def _trusted(terms):
    """A Poly over terms that already hold the class invariant, unchecked."""
    out = _new(Poly)
    out.terms = terms
    return out


def _is_scalar(value):
    return type(value) is Fraction or isinstance(value, _SCALARS)


def rational_sqrt(value):
    """Exact square root of a nonnegative rational, or None if irrational."""
    f = Fraction(value)
    if f < 0:
        return None
    rn = math.isqrt(f.numerator)
    rd = math.isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


class Poly:
    """Commutative polynomial over q, p, Ap, Am with exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for exps, coeff in (terms or {}).items():
            key = tuple(exps)
            if len(key) != 4 or any((not isinstance(e, int)) or e < 0 for e in key):
                raise ValueError(f"bad exponent tuple {exps!r}")
            coeff = _coefficient(coeff)
            if coeff != 0:
                clean[key] = coeff
        self.terms = clean

    # ---- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value):
        value = _coefficient(value)
        return _trusted({_ZERO_EXP: value} if value else {})

    @classmethod
    def variable(cls, name):
        try:
            idx = VARIABLES.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}, expected one of {VARIABLES}") from None
        exps = [0, 0, 0, 0]
        exps[idx] = 1
        return cls({tuple(exps): Fraction(1)})

    # ---- predicates and accessors -------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_constant(self):
        """True when no term has a variable (the zero polynomial included)."""
        return all(exps == _ZERO_EXP for exps in self.terms)

    def constant_value(self):
        if not self.is_constant:
            raise ValueError(f"not a constant polynomial: {self}")
        return self.terms[_ZERO_EXP] if self.terms else Fraction(0)

    # ---- ring structure ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Poly):
            return _trusted(_collect(dict(self.terms), other.terms.items()))
        if _is_scalar(other):
            # sum() starts at int 0; Poly is immutable, so 0 + f can be f
            return self if other == 0 else self + Poly.constant(other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _trusted({exps: -coeff for exps, coeff in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, Poly):
            return self + (-other)
        if _is_scalar(other):
            return self if other == 0 else self + Poly.constant(-other)
        return NotImplemented

    def __rsub__(self, other):
        if _is_scalar(other):
            return -self if other == 0 else Poly.constant(other) + (-self)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Poly):
            pairs = (((a0 + b0, a1 + b1, a2 + b2, a3 + b3), ca * cb)
                     for (a0, a1, a2, a3), ca in self.terms.items()
                     for (b0, b1, b2, b3), cb in other.terms.items())
            return _trusted(_collect({}, pairs))
        if _is_scalar(other):
            return _trusted(_scaled_terms(self.terms, _coefficient(other)))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Poly.constant(1)
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, _SCALARS):
            if other == 0:
                return not self.terms
            return set(self.terms) == {_ZERO_EXP} and self.terms[_ZERO_EXP] == other
        return NotImplemented

    def __hash__(self):
        # a constant equals its value, so it hashes like it
        if self.is_constant:
            return hash(self.terms.get(_ZERO_EXP, 0))
        return hash(frozenset(self.terms.items()))

    # ---- calculus and evaluation ---------------------------------------

    def derivative(self, name):
        idx = VARIABLES.index(name)
        out = {}
        for exps, coeff in self.terms.items():
            e = exps[idx]
            if e == 0:
                continue
            new = list(exps)
            new[idx] = e - 1
            out[tuple(new)] = coeff * e
        return _trusted(out)

    # ---- canonical text form --------------------------------------------

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "(0)"
        chunks = []
        for exps, coeff in self._sorted_terms():
            factors = [f"({coeff})"]
            for name, e in zip(VARIABLES, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            chunks.append("*".join(factors))
        return " + ".join(chunks)

    def __repr__(self):
        return f"Poly({self})"

    @classmethod
    def from_text(cls, text):
        """Parse the canonical form produced by str() for rational coefficients.

        Raises ValueError naming the first malformed term.
        """
        text = text.strip()
        if text == "(0)":
            return cls()
        terms = {}
        for chunk in text.split(" + "):
            head, close, rest = chunk.partition(")")
            exps = [0, 0, 0, 0]
            try:
                if not (head.startswith("(") and close and rest[:1] in ("", "*")):
                    raise ValueError(chunk)
                coeff = Fraction(head[1:])
                for factor in rest[1:].split("*") if rest else ():
                    name, caret, power = factor.partition("^")
                    e = int(power) if caret else 1
                    if e < 0:
                        raise ValueError(chunk)
                    exps[VARIABLES.index(name)] += e
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"malformed term {chunk!r}") from None
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + coeff
        return cls(terms)


def evaluate_terms(terms, columns):
    """Sum of coeff * q^i p^j Ap^k Am^l over (exps, coeff) pairs, per point.

    `columns` holds one sequence per coordinate (q, p, Ap, Am), all of one
    length; the result is a list with one value per point.  At each point the
    float operations are those of a plain per-point loop, in its order: the
    sum starts at int 0 and adds the terms in the given order (`Poly.terms`
    order), and each term starts at its coefficient and is multiplied by
    every base once per unit of its exponent.  So a Fraction or ExtScalar
    coefficient times a float converts itself to float first, and int 0 plus
    -0.0 gives 0.0.  This is the one evaluation loop:
    `bianchi.deformation_trace` runs it on float columns of the flow, and
    `verify jacobi-classical` on exact columns of shell points.
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
