"""Free associative polynomials on Q, P, Ap, Am with square-root scalars.

No commutation relations at all are imposed between the generators: words
are compared letter by letter, so Q*P and P*Q are distinct monomials and a
commutator vanishes only if it cancels literally.

Coefficients live in the quadratic extension Q[s] / (s**2 - 2*p0), written
u + v*s with rational u, v; s stands for sqrt(2*p0).  Every scalar carries
its p0 so that values from different shells cannot be mixed by accident.
The same scalars are the irrational coefficients of `poly.Poly`.  Combined
with a float, a scalar gives a float, as a Fraction does.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from numbers import Rational

GENERATORS = ("Q", "P", "Ap", "Am")

_GEN_INDEX = {name: i for i, name in enumerate(GENERATORS)}

# "v" or "u<sign>v" with u, v signed rationals: the text before "*s"
_S_PART = re.compile(r"(?:(?P<u>[+-]?\d+(?:/\d+)?)(?=[+-]))?(?P<v>[+-]?\d+(?:/\d+)?)")


class ExtScalar:
    """An element u + v*s of Q[s]/(s**2 - 2*p0)."""

    __slots__ = ("u", "v", "p0")

    def __init__(self, u, v=Fraction(0), *, p0):
        self.u = Fraction(u)
        self.v = Fraction(v)
        self.p0 = Fraction(p0)
        if not self.p0 > 0:
            raise ValueError(f"p0 must be positive, got {p0}")

    def _coerce(self, other):
        if isinstance(other, ExtScalar):
            if other.p0 != self.p0:
                raise ValueError(f"mixed p0 contexts: {self.p0} vs {other.p0}")
            return other
        if isinstance(other, Rational):
            return ExtScalar(other, p0=self.p0)
        return None

    def __float__(self):
        return float(self.u) + float(self.v) * math.sqrt(2 * self.p0)

    def __add__(self, other):
        if isinstance(other, float):
            return float(self) + other
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ExtScalar(self.u + other.u, self.v + other.v, p0=self.p0)

    __radd__ = __add__

    def __neg__(self):
        return ExtScalar(-self.u, -self.v, p0=self.p0)

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
        # (u1 + v1 s)(u2 + v2 s) with s**2 = 2 p0
        return ExtScalar(
            self.u * other.u + 2 * self.p0 * self.v * other.v,
            self.u * other.v + self.v * other.u,
            p0=self.p0,
        )

    __rmul__ = __mul__

    def inverse(self):
        # conjugate trick: 1/(u + v s) = (u - v s) / (u**2 - 2 p0 v**2)
        norm = self.u * self.u - 2 * self.p0 * self.v * self.v
        if norm == 0:
            raise ZeroDivisionError(f"{self} is not invertible")
        return ExtScalar(self.u / norm, -self.v / norm, p0=self.p0)

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

    @property
    def is_zero(self):
        return self.u == 0 and self.v == 0

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


def _word_key(word):
    # graded order: length first, then generator indices letter by letter
    return (len(word), tuple(_GEN_INDEX[g] for g in word))


class NCPoly:
    """Finite sum of scalar-weighted words in the free algebra."""

    __slots__ = ("terms", "p0")

    def __init__(self, terms=None, *, p0):
        self.p0 = Fraction(p0)
        if not self.p0 > 0:
            raise ValueError(f"p0 must be positive, got {p0}")
        clean = {}
        for word, coeff in (terms or {}).items():
            word = tuple(word)
            for g in word:
                if g not in _GEN_INDEX:
                    raise ValueError(f"unknown generator {g!r}, expected one of {GENERATORS}")
            coeff = self._scalar(coeff)
            if not coeff.is_zero:
                clean[word] = coeff
        self.terms = clean

    def _scalar(self, value):
        if isinstance(value, ExtScalar):
            if value.p0 != self.p0:
                raise ValueError(f"mixed p0 contexts: {self.p0} vs {value.p0}")
            return value
        if isinstance(value, Rational):
            return ExtScalar(value, p0=self.p0)
        raise TypeError(f"unsupported coefficient {value!r}")

    # ---- constructors -----------------------------------------------------

    @classmethod
    def scalar(cls, value, *, p0):
        return cls({(): value}, p0=p0)

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
    def is_scalar(self):
        return all(word == () for word in self.terms)

    def scalar_value(self):
        if not self.terms:
            return ExtScalar(0, p0=self.p0)
        if self.is_scalar:
            return self.terms[()]
        raise ValueError(f"not a scalar element: {self}")

    # ---- ring structure ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, NCPoly):
            if other.p0 != self.p0:
                raise ValueError(f"mixed p0 contexts: {self.p0} vs {other.p0}")
            return other
        if isinstance(other, (ExtScalar, Rational)):
            return NCPoly.scalar(self._scalar(other), p0=self.p0)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for word, coeff in other.terms.items():
            acc = out.get(word)
            acc = coeff if acc is None else acc + coeff
            if acc.is_zero:
                out.pop(word, None)
            else:
                out[word] = acc
        return NCPoly(out, p0=self.p0)

    __radd__ = __add__

    def __neg__(self):
        return NCPoly({w: -c for w, c in self.terms.items()}, p0=self.p0)

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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                word = wa + wb
                coeff = ca * cb
                acc = out.get(word)
                acc = coeff if acc is None else acc + coeff
                if acc.is_zero:
                    out.pop(word, None)
                else:
                    out[word] = acc
        return NCPoly(out, p0=self.p0)

    def __rmul__(self, other):
        # scalars are central, so reflected multiplication is the same product
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

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
        if self.is_scalar:
            return hash(self.terms.get((), 0))
        return hash((self.p0, frozenset(self.terms.items())))

    # ---- evaluation and text -------------------------------------------------

    def commutative_image(self, q, p, ap, am):
        """Evaluate as if the generators commuted (s evaluates numerically)."""
        point = {"Q": q, "P": p, "Ap": ap, "Am": am}
        total = 0
        for word, coeff in self.terms.items():
            val = float(coeff)
            for g in word:
                val *= point[g]
            total += val
        return total

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
