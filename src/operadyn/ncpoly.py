"""Free associative polynomials on Q, P, Ap, Am with square-root scalars.

No commutation relations at all are imposed between the generators: words
are compared letter by letter, so Q*P and P*Q are distinct monomials.

Scalars live in the quadratic extension Q[s] / (s**2 - 2*p0), written
u + v*s with rational u, v; s stands for sqrt(2*p0).  An `ExtScalar` carries
its p0 so that values from different shells cannot be mixed by accident.
Combined with a float, it gives a float, as a Fraction does.

The coefficient format, shared by `NCPoly` and `poly.Poly`: every stored
coefficient is a nonzero Fraction or an ExtScalar with nonzero s-part.  An
ExtScalar whose s-part is 0 is stored as its Fraction, so every value has
one representation.  `_collect` is the one kernel that keeps the format.

Both polynomial types are the one sparse ring `_Ring` over that format,
with words as keys here and exponent tuples in `poly`.  An element's context
is the one p0 of its s-parts, which the s-parts of its constructor's input
and of its operands in arithmetic must share (ValueError otherwise); an
element without s-parts has no context and combines with any.  `==`
compares values across types and contexts: a constant element equals its
scalar, a float (of a subclass too), a Decimal or a complex compares as a
Fraction does, elements of one ring compare term by term, and only an
s-part ties a value to its context, so u + v*s with v != 0 equals nothing
of another p0.  So `==` is an equivalence that `hash` agrees with, and the
arithmetic agrees with it too.  `+`,
`-`, `*` and `==` try an operand by exact type first, and only then the
scalars whose `numbers.Rational` check runs Python code.

Invariants: an ExtScalar's u, v and p0 are Fractions with p0 > 0, and an
NCPoly's words use only Q, P, Ap, Am.  The public constructors
(`ExtScalar(...)`, `NCPoly(...)`, `generator`) check and coerce their input,
and raise TypeError on anything that is not rational, a float included.
Only the ring operations, whose operands already hold the invariants, and
the operator bracket of `quantum.quantize`, which `lax` writes from the
family table, build their results through the private `_ext` and
`NCPoly._like`, which check nothing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

GENERATORS = ("Q", "P", "Ap", "Am")

_ZERO = Fraction(0)
# the smallest positive normal float
_MIN_NORMAL = 2.0 ** -1022

_GEN_INDEX = {name: i for i, name in enumerate(GENERATORS)}


def _rational(value):
    """The Fraction of an exact rational; TypeError on a float or anything else."""
    if type(value) is Fraction:
        return value
    if type(value) is int or isinstance(value, Rational):
        return Fraction(value)
    raise TypeError(f"unsupported scalar {value!r}: expected a rational")


def _positive(value, name):
    """The Fraction of a positive rational: `_rational`, and ValueError naming it if not."""
    fraction = value if type(value) is Fraction else _rational(value)
    # the sign through the numerator: `fraction > 0` checks 0 against an ABC
    if not fraction.numerator > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return fraction


def _same_p0(p0, other):
    """other, an ExtScalar, if its p0 is p0; ValueError if not."""
    if other.p0 is not p0 and other.p0 != p0:
        raise ValueError(f"mixed p0 contexts: {p0} vs {other.p0}")
    return other


def _plus(a, b):
    """a + b for Fractions, without the sum when either is 0."""
    return a + b if a and b else a or b


def _round_once(u, v, t):
    """float(u + v*sqrt(t)) rounded once, for rationals v != 0 and t > 0 and
    a u that is 0 or of the sign opposite to v's.

    Over integers the value is (a + b*r) / d with r = sqrt(m) and d > 0.  As
    a - b*r does not cancel, a**2 - b**2*m = (a + b*r)(a - b*r) gives the
    sign and a lower bound 2**(k - 2) on the magnitude x.  So z =
    floor(x * 2**e) has at least 56 bits; an inexact floor gets its last bit
    set, which keeps z on the true side of every rounding midpoint, and int
    division rounds once.
    """
    d = u.denominator * v.denominator * t.denominator
    a = u.numerator * v.denominator * t.denominator
    b = v.numerator * u.denominator
    m = t.numerator * t.denominator
    b2m = b * b * m
    excess = a * a - b2m
    if not excess:
        return 0.0
    negative = (a if excess > 0 else b) < 0
    if negative:
        a, b = -a, -b
    k = excess.bit_length() - d.bit_length() - max(a.bit_length(), (b2m.bit_length() + 1) // 2)
    e = max(0, 57 - k)
    root = math.isqrt(b2m << 2 * e)
    inexact = root * root != b2m << 2 * e
    # b*r * 2**e rounded down, whose dropped fraction leaves z unchanged
    z, rest = divmod((a << e) + (root if b > 0 else -root - inexact), d)
    x = (z | bool(rest or inexact)) / (1 << e)
    return -x if negative else x


_new = object.__new__


def _ext(u, v, p0):
    """The ExtScalar u + v*s for Fractions u, v and p0 > 0, unchecked."""
    out = _new(ExtScalar)
    out.u = u
    out.v = v
    out.p0 = p0
    return out


class ExtScalar:
    """An element u + v*s of Q[s]/(s**2 - 2*p0)."""

    __slots__ = ("u", "v", "p0")

    def __init__(self, u, v=Fraction(0), *, p0):
        self.u = _rational(u)
        self.v = _rational(v)
        self.p0 = _positive(p0, "p0")

    def _coerce(self, other):
        # an ExtScalar of the same p0, a Fraction, or None
        if isinstance(other, ExtScalar):
            return _same_p0(self.p0, other)
        if type(other) is Fraction:
            return other
        if type(other) is int or isinstance(other, Rational):
            return Fraction(other)
        return None

    def __float__(self):
        """u + v*s rounded once where u and v have opposite signs.  Elsewhere
        float(u) + float(v) * sqrt(2*p0) where float(v) and float(2*p0) are
        normal floats (or v is 0), else float(u) plus v*s rounded once."""
        u, v, two_p0 = self.u, self.v, 2 * self.p0
        if u * v < 0:
            return _round_once(u, v, two_p0)
        try:
            fv, f2p0 = float(v), float(two_p0)
        except OverflowError:
            fv = f2p0 = 0.0
        if f2p0 >= _MIN_NORMAL and (abs(fv) >= _MIN_NORMAL or not v):
            return float(u) + fv * math.sqrt(f2p0)
        return float(u) + _round_once(_ZERO, v, two_p0)

    def __add__(self, other):
        if isinstance(other, float):
            return float(self) + other
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if type(other) is Fraction:
            return _ext(_plus(self.u, other), self.v, self.p0)
        return _ext(_plus(self.u, other.u), _plus(self.v, other.v), self.p0)

    __radd__ = __add__

    def __neg__(self):
        return _ext(self.u and -self.u, self.v and -self.v, self.p0)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, float):
            return float(self) * other
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        u, v = self.u, self.v
        if type(other) is Fraction:
            return _ext(u and u * other, v and v * other, self.p0)
        # (u + v s)(x + y s) = (u x + 2 p0 v y) + (u y + v x) s, nonzero parts only
        x, y = other.u, other.v
        ux, uy = (x and u * x, y and u * y) if u else (u, u)
        vx, vy = (x and v * x, y and v * y * self.p0 * 2) if v else (v, v)
        return _ext(_plus(ux, vy), _plus(uy, vx), self.p0)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, ExtScalar):
            # an s-part compares only within one context
            return (self.v == other.v and self.u == other.u
                    and (not self.v or self.p0 is other.p0 or self.p0 == other.p0))
        cls = type(other)
        # a float compares as a Fraction does
        if cls is Fraction or cls is int or cls is float or isinstance(other, Rational):
            return not self.v and self.u == other
        # anything else, a float subclass, a Decimal or a complex, as u compares with it
        return NotImplemented if self.v else self.u == other

    def __hash__(self):
        # equal to a rational when v == 0, so hash like it then
        if self.v == 0:
            return hash(self.u)
        return hash((self.u, self.v, self.p0))

    def __bool__(self):
        return bool(self.u or self.v)

    @property
    def is_zero(self):
        return not (self.u or self.v)

    def __str__(self):
        if self.v == 0:
            return str(self.u)
        s_part = f"{self.v}*s"
        if self.u == 0:
            return s_part
        sign = "+" if self.v > 0 else "-"
        return f"{self.u}{sign}{abs(self.v)}*s"

    def __repr__(self):
        return f"ExtScalar({self}, p0={self.p0})"


# the scalars of the polynomial rings after the exact types Fraction and int
_SCALARS = (ExtScalar, Rational)


def _coefficient(value):
    """A rational or ExtScalar as its Fraction, or as itself with s-part != 0.

    TypeError on anything else, a float included.
    """
    if isinstance(value, ExtScalar):
        return value if value.v else value.u
    return _rational(value)


def _fold_s(c, sigma):
    """c with s set to its rational value sigma: u + v*sigma for an ExtScalar,
    any other c as it is."""
    return c.u + c.v * sigma if type(c) is ExtScalar else c


def _collect(out, pairs):
    """Add each (key, coeff) of pairs into the sparse terms out, in order.

    A sum that vanishes is dropped and one whose s-part cancelled, such as
    s*s, becomes its Fraction; a product of nonzero scalars can itself be 0,
    (sigma - s)*(sigma + s) when sigma = sqrt(2*p0) is rational.  Returns out.
    """
    for key, c in pairs:
        acc = out.get(key)
        if acc is not None:
            c = acc + c
        if not c:
            out.pop(key, None)
        elif type(c) is ExtScalar and not c.v:
            out[key] = c.u
        else:
            out[key] = c
    return out


class _Ring:
    """The body of Poly and NCPoly: `terms` maps monomial keys to coefficients,
    in the format, whose s-parts share one p0, the element's context.

    A subclass supplies `_ONE`, the constant key; `_key`, which checks a key;
    `_like`, an element of its type over trusted terms, unchecked;
    `_products`, the (key, coefficient) pairs of its terms times other terms,
    with the key product inline; and `_order` and `_monomial`, the text order
    and a key's text after its coefficient.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # keys that name one monomial add up, as their terms do in `+`
        self.terms = _collect({}, [(self._key(key), _coefficient(coeff))
                                   for key, coeff in (terms or {}).items()])
        p0 = None
        for c in self.terms.values():
            # the s-parts share one p0, the element's context
            if type(c) is ExtScalar and c.p0 is not p0:
                p0 = c.p0 if p0 is None else _same_p0(p0, c).p0

    def __bool__(self):
        return bool(self.terms)

    # ---- predicates -----------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_constant(self):
        """True when the constant monomial is the only key (the zero element included)."""
        return self.terms.keys() <= {self._ONE}

    def constant_value(self):
        if not self.is_constant:
            raise ValueError(f"not a constant element: {self}")
        return self.terms.get(self._ONE, _ZERO)

    # ---- ring structure ---------------------------------------------------------

    def _coerce(self, other):
        """The terms of an element or scalar, in the dispatch order; None if
        neither.  ValueError if their s-parts and self's have different p0."""
        cls = type(other)
        if cls is type(self):
            terms = other.terms
        elif cls is Fraction or cls is int:
            return {self._ONE: other if cls is Fraction else Fraction(other)} if other else {}
        elif isinstance(other, _SCALARS):
            c = _coefficient(other)
            terms = {self._ONE: c} if c else {}
        else:
            return None
        # the context is the p0 of any one s-part, inline: no call unless two differ
        for a in self.terms.values():
            if type(a) is ExtScalar:
                for b in terms.values():
                    if type(b) is ExtScalar:
                        b.p0 is a.p0 or _same_p0(a.p0, b)
                        break
                break
        return terms

    def __add__(self, other):
        terms = self._coerce(other)
        if terms is None:
            return NotImplemented
        # sum() starts at int 0; elements are immutable, so f + 0 can be f
        return self._like(_collect(dict(self.terms), terms.items())) if terms else self

    __radd__ = __add__

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        terms = self._coerce(other)
        if terms is None:
            return NotImplemented
        negated = ((key, -c) for key, c in terms.items())
        return self._like(_collect(dict(self.terms), negated)) if terms else self

    def __rsub__(self, other):
        terms = self._coerce(other)
        if terms is None:
            return NotImplemented
        return self._like(terms) + -self

    def __mul__(self, other):
        terms = self._coerce(other)
        if terms is None:
            return NotImplemented
        if type(other) is type(self):
            return self._like(_collect({}, self._products(terms)))
        # a scalar, whose terms hold its value unless it is 0
        c = terms.get(self._ONE)
        if c is None:
            return self._like({})
        # a nonzero rational neither cancels nor folds a coefficient; an
        # ExtScalar goes on the left, so its `*` runs before a Fraction's
        if type(c) is Fraction:
            return self._like({key: coeff * c for key, coeff in self.terms.items()})
        return self._like(_collect({}, ((key, c * coeff) for key, coeff in self.terms.items())))

    # only a scalar comes reflected, and scalars are central
    __rmul__ = __mul__

    def __eq__(self, other):
        cls = type(other)
        if cls is type(self):
            # coefficients compare by value, an s-part only within its context
            return self.terms == other.terms
        if isinstance(other, _Ring):
            # a Poly and an NCPoly share only their constants, which compare as scalars
            return other.is_constant and self == other.terms.get(other._ONE, _ZERO)
        if cls is Fraction or cls is int or cls is float or isinstance(other, _SCALARS):
            # a scalar of any context or a float, as the constant term it is
            return self.terms == ({self._ONE: other} if other else {})
        # anything else, a float subclass, a Decimal or a complex, as the constant term compares
        return self.terms.get(self._ONE, _ZERO) == other if self.is_constant else NotImplemented

    def __hash__(self):
        # a constant element equals its scalar, so it hashes like it
        if self.is_constant:
            return hash(self.terms.get(self._ONE, 0))
        return hash(frozenset(self.terms.items()))

    # ---- canonical text ---------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "(0)"
        return " + ".join(f"({self.terms[key]}){self._monomial(key)}"
                          for key in sorted(self.terms, key=self._order))


class NCPoly(_Ring):
    """Finite sum of scalar-weighted words in the free algebra."""

    __slots__ = ()

    _ONE = ()

    @classmethod
    def generator(cls, name):
        return cls({(name,): 1})

    @staticmethod
    def _key(word):
        word = tuple(word)
        for g in word:
            if g not in _GEN_INDEX:
                raise ValueError(f"unknown generator {g!r}, expected one of {GENERATORS}")
        return word

    def _like(self, terms):
        out = _new(NCPoly)
        out.terms = terms
        return out

    def _products(self, terms):
        # scalars are central: a Fraction's `*` runs only against a Fraction
        return ((wa + wb, cb * ca if type(ca) is Fraction else ca * cb)
                for wa, ca in self.terms.items() for wb, cb in terms.items())

    @staticmethod
    def _order(word):
        # graded order: length first, then generator indices letter by letter
        return len(word), tuple(_GEN_INDEX[g] for g in word)

    @staticmethod
    def _monomial(word):
        return "*" + ("*".join(word) or "1")

    def __repr__(self):
        return f"NCPoly({self})"


def commutator(f, g):
    """The ring commutator f*g - g*f."""
    return f * g - g * f
