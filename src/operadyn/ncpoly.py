"""Free associative polynomials on Q, P, Ap, Am with square-root scalars.

No commutation relations at all are imposed between the generators: words
are compared letter by letter, so Q*P and P*Q are distinct monomials and a
commutator vanishes only if it cancels literally.

Scalars live in the quadratic extension Q[s] / (s**2 - 2*p0), written
u + v*s with rational u, v; s stands for sqrt(2*p0).  An `ExtScalar` carries
its p0 so that values from different shells cannot be mixed by accident.
Combined with a float, it gives a float, as a Fraction does.

The coefficient format, shared by `NCPoly` and `poly.Poly`: every stored
coefficient is a nonzero Fraction or an ExtScalar with nonzero s-part.  An
ExtScalar whose s-part is 0 is stored as its Fraction, whose text, `==` and
`hash` it shares, so every value has one representation.  `_collect` is the
one kernel that keeps the format: it adds (key, coefficient) pairs into
sparse terms, drops zero sums and folds s-free sums to their Fraction.  Both
polynomial types run their sums, products and scalar products through it.

Invariants: an ExtScalar's u, v and p0 are Fractions with p0 > 0, and an
NCPoly's words use only Q, P, Ap, Am, each with a coefficient in the format
above whose ExtScalars have the polynomial's p0.  The public constructors
(`ExtScalar(...)`, `NCPoly(...)`, `generator`, `from_text`) check and coerce
their input, and raise TypeError on anything that is not rational, a float
included.  Only the ring operations, whose operands already hold the
invariants, and `quantum.quantize_formal`, whose words come from distinct
monomials of a Poly, build their results through the private `_ext` and
`_nc`, which check nothing.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from numbers import Rational

GENERATORS = ("Q", "P", "Ap", "Am")

_ZERO = Fraction(0)
# the smallest positive normal float
_MIN_NORMAL = 2.0 ** -1022

_GEN_INDEX = {name: i for i, name in enumerate(GENERATORS)}

# "v" or "u<sign>v" with u, v signed rationals: the text before "*s"
_S_PART = re.compile(r"(?:(?P<u>[+-]?\d+(?:/\d+)?)(?=[+-]))?(?P<v>[+-]?\d+(?:/\d+)?)")


def _rational(value):
    """The Fraction of an exact rational; TypeError on a float or anything else.

    Every exact entry point (ExtScalar, NCPoly and the omega, p0 arguments of
    bianchi, lax and quantum) takes its rationals through this check.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, Rational):
        return Fraction(value)
    raise TypeError(f"unsupported scalar {value!r}: expected a rational")


def _positive_p0(p0):
    value = _rational(p0)
    if not value > 0:
        raise ValueError(f"p0 must be positive, got {p0}")
    return value


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
        self.p0 = _positive_p0(p0)

    def _coerce(self, other):
        # an ExtScalar of the same p0, a Fraction, or None
        if isinstance(other, ExtScalar):
            if other.p0 is not self.p0 and other.p0 != self.p0:
                raise ValueError(f"mixed p0 contexts: {self.p0} vs {other.p0}")
            return other
        if type(other) is Fraction:
            return other
        if isinstance(other, Rational):
            return Fraction(other)
        return None

    def __float__(self):
        """float(u) + float(v) * sqrt(2*p0) where float(v) and float(2*p0) are
        normal floats (or v is 0); elsewhere v*s is rounded once, exactly."""
        u, v, two_p0 = self.u, self.v, 2 * self.p0
        try:
            fv, f2p0 = float(v), float(two_p0)
        except OverflowError:
            fv = f2p0 = 0.0
        if f2p0 >= _MIN_NORMAL and (abs(fv) >= _MIN_NORMAL or not v):
            return float(u) + fv * math.sqrt(f2p0)
        # the root of (v*s)**2 = n/d scaled by 4**e to at least 56 bits; an
        # inexact root gets its last bit set, which keeps it on the true side
        # of every rounding midpoint, and int division rounds once
        n, d = v.numerator ** 2 * two_p0.numerator, v.denominator ** 2 * two_p0.denominator
        e = max(0, (113 - n.bit_length() + d.bit_length()) // 2)
        root = math.isqrt((n << 2 * e) // d)
        vs = (root | (root * root * d != n << 2 * e)) / (1 << e)
        return float(u) + (-vs if v < 0 else vs)

    def __add__(self, other):
        if isinstance(other, float):
            return float(self) + other
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if type(other) is Fraction:
            return _ext(self.u + other, self.v, self.p0)
        return _ext(self.u + other.u, self.v + other.v, self.p0)

    __radd__ = __add__

    def __neg__(self):
        return _ext(-self.u, -self.v, self.p0)

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
        if type(other) is Fraction:
            return _ext(self.u * other, self.v * other, self.p0)
        # (u1 + v1 s)(u2 + v2 s) with s**2 = 2 p0
        return _ext(
            self.u * other.u + 2 * self.p0 * self.v * other.v,
            self.u * other.v + self.v * other.u,
            self.p0,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, ExtScalar):
            return self.p0 == other.p0 and self.u == other.u and self.v == other.v
        if isinstance(other, Rational):
            return self.v == 0 and self.u == other
        return NotImplemented

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

    @classmethod
    def from_text(cls, text, *, p0):
        """Parse the form produced by str(); raises ValueError on anything else."""
        text = text.strip()
        u, v = text, "0"
        if text.endswith("*s"):
            m = _S_PART.fullmatch(text[:-2])
            if not m:
                raise ValueError(f"cannot parse scalar {text!r}")
            u, v = m.group("u") or "0", m.group("v")
        try:
            u, v = Fraction(u), Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"cannot parse scalar {text!r}") from None
        return cls(u, v, p0=p0)


def _coefficient(value):
    """A rational or ExtScalar as its Fraction, or as itself with s-part != 0.

    TypeError on anything else, a float included.
    """
    if isinstance(value, ExtScalar):
        return value if value.v else value.u
    return _rational(value)


def _scalar(value, p0):
    """A rational or ExtScalar of context p0 in the coefficient format.

    ValueError on an ExtScalar of another p0, TypeError on a non-rational.
    """
    if isinstance(value, ExtScalar) and value.p0 is not p0 and value.p0 != p0:
        raise ValueError(f"mixed p0 contexts: {p0} vs {value.p0}")
    return _coefficient(value)


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


def _scaled_terms(terms, c):
    """The sparse terms times the scalar c, in the coefficient format."""
    if not c:
        return {}
    return _collect({}, ((key, coeff * c) for key, coeff in terms.items()))


def _nc(terms, p0):
    """The NCPoly over terms that already hold the invariant, unchecked."""
    out = _new(NCPoly)
    out.terms = terms
    out.p0 = p0
    return out


def _word_key(word):
    # graded order: length first, then generator indices letter by letter
    return (len(word), tuple(_GEN_INDEX[g] for g in word))


class NCPoly:
    """Finite sum of scalar-weighted words in the free algebra."""

    __slots__ = ("terms", "p0")

    def __init__(self, terms=None, *, p0):
        self.p0 = _positive_p0(p0)
        clean = {}
        for word, coeff in (terms or {}).items():
            word = tuple(word)
            for g in word:
                if g not in _GEN_INDEX:
                    raise ValueError(f"unknown generator {g!r}, expected one of {GENERATORS}")
            coeff = _scalar(coeff, self.p0)
            if coeff:
                clean[word] = coeff
        self.terms = clean

    # ---- constructors -----------------------------------------------------

    @classmethod
    def generator(cls, name, *, p0):
        if name not in _GEN_INDEX:
            raise ValueError(f"unknown generator {name!r}, expected one of {GENERATORS}")
        return cls({(name,): Fraction(1)}, p0=p0)

    # ---- predicates ---------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_constant(self):
        """True when every word is empty (the zero element included)."""
        return all(word == () for word in self.terms)

    def constant_value(self):
        if not self.is_constant:
            raise ValueError(f"not a constant element: {self}")
        return self.terms[()] if self.terms else _ZERO

    # ---- ring structure ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, NCPoly):
            if other.p0 is not self.p0 and other.p0 != self.p0:
                raise ValueError(f"mixed p0 contexts: {self.p0} vs {other.p0}")
            return other
        if isinstance(other, (ExtScalar, Rational)):
            c = _scalar(other, self.p0)
            return _nc({(): c} if c else {}, self.p0)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _nc(_collect(dict(self.terms), other.terms.items()), self.p0)

    __radd__ = __add__

    def __neg__(self):
        return _nc({w: -c for w, c in self.terms.items()}, self.p0)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if not isinstance(other, NCPoly):
            return self._scaled(other)
        other = self._coerce(other)
        pairs = ((wa + wb, ca * cb) for wa, ca in self.terms.items()
                 for wb, cb in other.terms.items())
        return _nc(_collect({}, pairs), self.p0)

    def __rmul__(self, other):
        # scalars are central, so reflected multiplication is the same product
        return self._scaled(other)

    def _scaled(self, other):
        if not isinstance(other, (ExtScalar, Rational)):
            return NotImplemented
        return _nc(_scaled_terms(self.terms, _scalar(other, self.p0)), self.p0)

    def __eq__(self, other):
        if isinstance(other, NCPoly):
            return self.p0 == other.p0 and self.terms == other.terms
        if isinstance(other, (ExtScalar, Rational)):
            try:
                return self == self._coerce(other)
            except ValueError:
                return False
        return NotImplemented

    def __hash__(self):
        # a scalar element equals its scalar, so it hashes like it
        if self.is_constant:
            return hash(self.terms.get((), 0))
        return hash((self.p0, frozenset(self.terms.items())))

    # ---- evaluation and text -------------------------------------------------

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _word_key(kv[0]))

    def __str__(self):
        if not self.terms:
            return "(0)"
        chunks = []
        for word, coeff in self._sorted_terms():
            body = "*".join(word) if word else "1"
            chunks.append(f"({coeff})*{body}")
        return " + ".join(chunks)

    def __repr__(self):
        return f"NCPoly({self}, p0={self.p0})"

    @classmethod
    def from_text(cls, text, *, p0):
        """Parse the canonical form produced by str().

        Raises ValueError naming the first malformed term.
        """
        zero = cls({}, p0=p0)
        text = text.strip()
        if text == "(0)":
            return zero
        terms = {}
        for chunk in text.split(" + "):
            m = re.fullmatch(r"\((?P<coeff>[^)]*)\)\*(?P<word>[A-Za-z0-9*]+)", chunk)
            body = m.group("word") if m else ""
            word = () if body == "1" else tuple(body.split("*"))
            try:
                if not m or any(g not in _GEN_INDEX for g in word):
                    raise ValueError(chunk)
                coeff = ExtScalar.from_text(m.group("coeff"), p0=p0)
            except ValueError:
                raise ValueError(f"malformed term {chunk!r}") from None
            prev = terms.get(word)
            terms[word] = coeff if prev is None else prev + coeff
        return cls(terms, p0=p0)


def commutator(f, g):
    """The ring commutator f*g - g*f."""
    return f * g - g * f
