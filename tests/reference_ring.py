"""Reference ring arithmetic the exact-type fast paths are compared against.

These are the generic bodies that `ncpoly._Ring` and `ncpoly.ExtScalar` ran
before they tested exact types first and skipped exact zeros, kept as the
oracle of the fast paths: every scalar goes through the one `isinstance`
check of `SCALARS` and `_coefficient`, every scalar product through
`_collect`, and an ExtScalar product forms all four part products.  Each
function takes the element as its first argument and returns what the
method returned, `NotImplemented` included; an s-part of another p0 than
the element's raises ValueError in arithmetic.  `ring_eq` is the contract
of `==` rather than an old body: two values are equal when their
`value_key`s are.

`ext_add`, `ext_neg` and `ext_mul` are the ExtScalar bodies, which formed
every part sum and product.  `entry_sums` is the plain elementwise sum of
two operations' entries, the oracle of `operad._sums`.  `derivative` is the
partial derivative that `Poly` once had, the oracle of the fused
`lax._time_derivative`.
"""

from fractions import Fraction
from numbers import Rational
from operator import add, sub

from operadyn import poly
from operadyn.ncpoly import ExtScalar, NCPoly, _coefficient, _collect, _ext, _same_p0
from operadyn.poly import VARIABLES, Poly

SCALARS = (int, ExtScalar, Fraction, Rational)


def coerce(f, other):
    """The terms of an element of f's ring or of a scalar, or None."""
    if type(other) is type(f):
        terms = other.terms
    elif isinstance(other, SCALARS):
        c = _coefficient(other)
        terms = {f._ONE: c} if c else {}
    else:
        return None
    # every s-part of f and of the operand has the p0 of f's first
    s_parts = [c for c in (*f.terms.values(), *terms.values()) if isinstance(c, ExtScalar)]
    for c in s_parts:
        _same_p0(s_parts[0].p0, c)
    return terms


def ring_add(f, other):
    terms = coerce(f, other)
    if terms is None:
        return NotImplemented
    return f._like(_collect(dict(f.terms), terms.items())) if terms else f


def ring_neg(f):
    return f._like({key: -c for key, c in f.terms.items()})


def ring_sub(f, other):
    terms = coerce(f, other)
    if terms is None:
        return NotImplemented
    negated = ((key, -c) for key, c in terms.items())
    return f._like(_collect(dict(f.terms), negated)) if terms else f


def ring_rsub(f, other):
    terms = coerce(f, other)
    if terms is None:
        return NotImplemented
    return ring_add(f._like(terms), ring_neg(f))


def ring_mul(f, other):
    terms = coerce(f, other)
    if terms is None:
        return NotImplemented
    if type(other) is type(f):
        return f._like(_collect({}, f._products(terms)))
    return f._like(_collect({}, ((key, coeff * c) for c in terms.values()
                                 for key, coeff in f.terms.items())))


def value_key(x):
    """What `==` compares: a rational as its Fraction, u + v*s with v != 0
    with its p0, a constant element as its constant, and any other element
    as its type and its terms, each coefficient by its own key."""
    if isinstance(x, ExtScalar):
        return (x.u, x.v, x.p0) if x.v else x.u
    if isinstance(x, Rational):
        return Fraction(x)
    if x.is_constant:
        return value_key(x.terms.get(x._ONE, 0))
    return type(x), frozenset((key, value_key(c)) for key, c in x.terms.items())


def ring_eq(f, other):
    if not isinstance(other, (*SCALARS, Poly, NCPoly)):
        return NotImplemented
    return value_key(f) == value_key(other)


def _ext_operand(b):
    # an ExtScalar as itself, any other rational as its Fraction
    return b if isinstance(b, ExtScalar) else Fraction(b)


def ext_add(a, b):
    b = _ext_operand(b)
    if type(b) is Fraction:
        return _ext(a.u + b, a.v, a.p0)
    return _ext(a.u + b.u, a.v + b.v, a.p0)


def ext_neg(a):
    return _ext(-a.u, -a.v, a.p0)


def ext_mul(a, b):
    """a * b for a rational or an ExtScalar b of a's p0, every part product formed."""
    b = _ext_operand(b)
    if type(b) is Fraction:
        return _ext(a.u * b, a.v * b, a.p0)
    return _ext(a.u * b.u + 2 * a.p0 * a.v * b.v, a.u * b.v + a.v * b.u, a.p0)


def entry_sums(xs, ys, negate):
    """The plain elementwise x + y (x - y if negate)."""
    return list(map(sub if negate else add, xs, ys))


def derivative(f, name):
    """The partial derivative of the Poly f in the variable `name`."""
    i = VARIABLES.index(name)
    return poly._trusted({exps[:i] + (exps[i] - 1,) + exps[i + 1:]: coeff * exps[i]
                          for exps, coeff in f.terms.items() if exps[i]})
