"""Lax representations of the harmonic oscillator.

Two layers live here.  The matrix layer is the classical 3x3 pair

    L = [[p, omega*q, 0], [omega*q, -p, 0], [0, 0, 1]]
    M = (omega/2) * [[0, -1, 0], [1, 0, 0], [0, 0, 0]]

whose isospectral equation dL/dt = [M, L] encodes the equations of motion.
L and M are degree-1 Operations: M is `rotation_generator(omega)`, [M, L]
is their Gerstenhaber bracket, which is the matrix commutator, and the
residual dL/dt - [M, L] is a degree-1 Operation too.

The operadic layer replaces L by a phase-space-dependent antisymmetric
bilinear operation mu on a 3d space, drawn from a nine-parameter family
mu(C1..C9), and keeps M and the bracket: [M, mu] is the same Gerstenhaber
bracket in the endomorphism operad.  `build_mu` returns mu as a
`StructureTensor`, the degree-2 Operation, so it enters the bracket as it
is; `formal_mu` is `build_mu` at the generators q, p, Ap, Am.  Every member
of the family satisfies

    d(mu)/dt = [M, mu]

identically along the oscillator flow, where d/dt differentiates the
coefficient polynomials through q' = p, p' = -omega**2 q,
Ap' = -(omega/2) Am, Am' = (omega/2) Ap.

The parameters are exact.  solve_C places a constant tensor in the family at
the reference point, where Ap = s = sqrt(2*p0); the four parameters that
multiply Ap or Am come back in Q(s) with s formal, so every rational p0 > 0
is exact.

`MatrixLaxPair` and `LaxFamilyParams` are namedtuples with read-only fields;
`LaxFamilyParams` checks c in its constructor, `_make` and `_replace`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain

from . import poly
from .ncpoly import _ZERO, ExtScalar, _coefficient, _collect, _positive
from .operad import Operation, _sums, gerstenhaber_bracket
from .poly import Poly
from .structure import StructureTensor, _position, _trusted

# ---------------------------------------------------------------------------
# matrix layer


class MatrixLaxPair(namedtuple("MatrixLaxPair", "L M")):
    __slots__ = ()


def rotation_generator(omega):
    """M, the half-frequency rotation block, as a degree-1 operation of both layers."""
    half_w, zero = _positive(omega, "omega") / 2, Fraction(0)
    return Operation.from_matrix([[zero, -half_w, zero], [half_w, zero, zero], [zero] * 3])


def build_matrix_lax(q, p, omega):
    """The 3x3 Lax pair at a phase-space point; M is `rotation_generator(omega)`."""
    wq, zero = omega * q, Fraction(0)
    L = Operation.from_matrix([[p, wq, zero], [wq, -p, zero], [zero, zero, Fraction(1)]])
    return MatrixLaxPair(L=L, M=rotation_generator(omega))


def matrix_lax_residual(q, p, omega):
    """dL/dt - [M, L] at a point, a degree-1 operation; identically zero.

    The time derivative is taken through the equations of motion, so
    dL/dt = [[-omega**2 q, omega*p, 0], [omega*p, omega**2 q, 0], [0, 0, 0]].
    [M, L] is the Gerstenhaber bracket of the two degree-1 operations.
    Exact inputs give exact zeros.  Every entry has degree <= 2 in omega, so
    a residual that is the zero polynomial in q, p at three distinct omegas
    is zero for all (q, p, omega).
    """
    w2q, wp, zero = omega * omega * q, omega * p, Fraction(0)
    dL = Operation.from_matrix([[-w2q, wp, zero], [wp, w2q, zero], [zero] * 3])
    pair = build_matrix_lax(q, p, omega)
    return dL - gerstenhaber_bracket(pair.M, pair.L)


# ---------------------------------------------------------------------------
# operadic layer


class LaxFamilyParams(namedtuple("LaxFamilyParams", "c")):
    """The nine coefficients C1..C9 of the bilinear Lax family.

    Each is a rational or an ExtScalar, stored as a Fraction or as an
    ExtScalar with nonzero s-part; anything else is a TypeError.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))   # `_replace` calls it

    def __new__(cls, c):
        values = tuple(c)
        if len(values) != 9:
            raise ValueError(f"expected nine coefficients, got {len(values)}")
        return super().__new__(cls, tuple(map(_coefficient, values)))

    @property
    def is_admissible(self):
        """True unless C2, C3, C5, C6, C7, C8 all vanish.

        Those six control the entries that see the dynamics; a family member
        with all of them zero is a constant tensor and carries no flow.
        """
        return any(self.c[i] != 0 for i in (1, 2, 4, 5, 6, 7))


def build_mu(params, q, p, a_plus, a_minus, omega):
    """The family member mu(C1..C9) as a validated StructureTensor.

    The arguments q, p, a_plus, a_minus may be numbers (giving a numeric
    tensor) or polynomial generators (giving the symbolic family member).
    Entry layout, with all mirrors filled in by antisymmetry:

        mu^1_{23} = C2*p - C3*omega*q - C4     mu^1_{31} = C2*omega*q + C3*p - C1
        mu^2_{13} = C2*p - C3*omega*q + C4     mu^2_{23} = C2*omega*q + C3*p + C1
        mu^1_{12} = C5*Ap + C6*Am              mu^2_{12} = C5*Am - C6*Ap
        mu^3_{13} = C7*Ap + C8*Am              mu^3_{23} = C7*Am - C8*Ap
        mu^3_{12} = C9
    """
    c1, c2, c3, c4, c5, c6, c7, c8, c9 = params.c
    # coordinates on the left: a polynomial's `*` runs, not a scalar's NotImplemented
    wq = q * omega
    entries = {
        (1, 2, 3): p * c2 - wq * c3 - c4,
        (2, 1, 3): p * c2 - wq * c3 + c4,
        (1, 3, 1): wq * c2 + p * c3 - c1,
        (2, 2, 3): wq * c2 + p * c3 + c1,
        (1, 1, 2): a_plus * c5 + a_minus * c6,
        (2, 1, 2): a_minus * c5 - a_plus * c6,
        (3, 1, 3): a_plus * c7 + a_minus * c8,
        (3, 2, 3): a_minus * c7 - a_plus * c8,
        (3, 1, 2): c9,
    }
    return StructureTensor(entries)


def formal_mu(params, omega):
    """The symbolic family member, with Poly entries in q, p, Ap, Am."""
    return build_mu(params, poly.q, poly.p, poly.a_plus, poly.a_minus, _positive(omega, "omega"))


def solve_C(mu0, p0):
    """Invert build_mu at the reference point (q, p, Ap, Am) = (0, p0, s, 0).

    Given a constant antisymmetric tensor mu0, returns the unique parameters
    C1..C9 whose family member passes through mu0 at that point, for every
    rational p0 > 0.  Here s = sqrt(2 p0) stays formal: C5..C8 divide an
    entry m by s and come back as the ExtScalar m*s/(2 p0); the other five
    are rational.
    """
    p0 = _positive(p0, "p0")
    two_p0 = 2 * p0

    flat = mu0.coeffs.flat

    def m(i, j, k):
        # a scalar entry as its coefficient, a constant Poly as its value
        value = flat[_position(i, j, k)]
        return value.constant_value() if isinstance(value, Poly) else _coefficient(value)

    def over_s(value):
        return ExtScalar(0, value / two_p0, p0=p0)

    return LaxFamilyParams((
        (m(2, 2, 3) - m(1, 3, 1)) / 2,
        (m(2, 1, 3) + m(1, 2, 3)) / two_p0,
        (m(2, 2, 3) + m(1, 3, 1)) / two_p0,
        (m(2, 1, 3) - m(1, 2, 3)) / 2,
        over_s(m(1, 1, 2)),
        over_s(-m(2, 1, 2)),
        over_s(m(3, 1, 3)),
        over_s(-m(3, 2, 3)),
        m(3, 1, 2),
    ))


def _time_derivative(value, omega):
    """d/dt of a coefficient through the oscillator and half-angle flows,
    p*d/dq - omega**2*q*d/dp - (omega/2)*Am*d/dAp + (omega/2)*Ap*d/dAm: a Poly
    in one `_collect` pass over the four flows' terms, each in `value.terms` order."""
    if not isinstance(value, Poly):
        return _ZERO
    if value.is_constant:
        return poly._trusted({})
    terms = value.terms.items()
    half_w = omega / 2
    minus_w2, minus_half_w = -omega * omega, -half_w
    return poly._trusted(_collect({}, chain(
        (((i - 1, j + 1, k, l), c * i) for (i, j, k, l), c in terms if i),
        (((i + 1, j - 1, k, l), c * (minus_w2 * j)) for (i, j, k, l), c in terms if j),
        (((i, j, k - 1, l + 1), c * (minus_half_w * k)) for (i, j, k, l), c in terms if k),
        (((i, j, k + 1, l - 1), c * (half_w * l)) for (i, j, k, l), c in terms if l))))


def operadic_lax_residual(params, omega):
    """d(mu)/dt - [M, mu] as a symbolic tensor; zero for every family member.

    Each entry is linear in C1..C9, so a zero residual at the nine unit
    vectors C = e_n proves it zero for every C.  The identity holds on every
    energy shell at once, so p0 never enters.
    """
    w = _positive(omega, "omega")
    mu = build_mu(params, poly.q, poly.p, poly.a_plus, poly.a_minus, w)
    bracket = gerstenhaber_bracket(rotation_generator(w), mu)
    flow = [_time_derivative(v, w) for v in mu.coeffs.flat]
    # a difference of antisymmetric tensors, which adds no exact zero
    return _trusted(_sums(flow, bracket.coeffs.flat, True))
