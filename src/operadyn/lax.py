"""Lax representations of the harmonic oscillator.

Two layers live here.  The matrix layer is the classical 3x3 pair

    L = [[p, omega*q, 0], [omega*q, -p, 0], [0, 0, 1]]
    M = (omega/2) * [[0, -1, 0], [1, 0, 0], [0, 0, 0]]

whose isospectral equation dL/dt = [M, L] encodes the equations of motion;
L and M are degree-1 Operations and [M, L] is their Gerstenhaber bracket.

The operadic layer replaces L by a phase-space-dependent antisymmetric
bilinear operation mu on a 3d space, drawn from a nine-parameter family
mu(C1..C9), and keeps M and the bracket.  The family formula is written
once, as the table `_FAMILY` of each independent entry's terms, from which
`_member` writes the member at a point, at the generators q, p, Ap, Am, or
at the words of the free algebra.  Every member of the family satisfies

    d(mu)/dt = [M, mu]

identically along the oscillator flow, where d/dt differentiates the
coefficient polynomials through q' = p, p' = -omega**2 q,
Ap' = -(omega/2) Am, Am' = (omega/2) Ap.

The parameters are exact: solve_C places a constant tensor in the family at
the reference point, where Ap = s = sqrt(2*p0), and the four parameters that
multiply Ap or Am come back in Q(s) with s formal.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain

from . import poly
from .ncpoly import _ZERO, ExtScalar, _coefficient, _collect, _plus, _positive
from .operad import Operation, _sums, gerstenhaber_bracket
from .poly import Poly
from .structure import _mirror, _position, _trusted

# ---------------------------------------------------------------------------
# matrix layer


MatrixLaxPair = namedtuple("MatrixLaxPair", "L M")


def rotation_generator(omega):
    """M, the half-frequency rotation block, as a degree-1 operation of both layers."""
    half_w, zero = _positive(omega, "omega") / 2, Fraction(0)
    return Operation.from_matrix([[zero, -half_w, zero], [half_w, zero, zero], [zero] * 3])


def build_matrix_lax(q, p, omega):
    """The 3x3 Lax pair at a phase-space point; M is `rotation_generator(omega)`."""
    wq, zero = q * omega, Fraction(0)
    L = Operation.from_matrix([[p, wq, zero], [wq, -p, zero], [zero, zero, Fraction(1)]])
    return MatrixLaxPair(L=L, M=rotation_generator(omega))


def matrix_lax_residual(q, p, omega):
    """dL/dt - [M, L] at a point, a degree-1 operation; identically zero.

    The time derivative is taken through the equations of motion, so
    dL/dt = [[-omega**2 q, omega*p, 0], [omega*p, omega**2 q, 0], [0, 0, 0]].
    Every entry has degree <= 2 in omega.
    """
    w2q, wp, zero = q * (omega * omega), p * omega, Fraction(0)
    dL = Operation.from_matrix([[-w2q, wp, zero], [wp, w2q, zero], [zero] * 3])
    pair = build_matrix_lax(q, p, omega)
    return dL - gerstenhaber_bracket(pair.M, pair.L)


def prove_matrix_lax(omega):
    """(ok, detail): the matrix residual is the zero polynomial in q, p at
    omega, omega + 1 and omega + 2, so by its degree bound in omega it is
    zero for every omega."""
    omegas = [omega + n for n in range(3)]
    for w in omegas:
        if not matrix_lax_residual(poly.q, poly.p, w).is_zero:
            return False, f"nonzero residual in q, p at omega={w}"
    return True, (f"zero polynomial in q, p at omega={', '.join(map(str, omegas))};"
                  " degree <= 2 in omega, so zero for every omega")


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


# the monomials of 1, omega*q, p, Ap and Am; omega multiplies the q terms and no other
_1, _WQ, _P, _AP, _AM = (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
# The family, one row per independent entry mu^i_{jk}: its terms in sum
# order, (n, x) for C_|n| times x, subtracted where n < 0.
_FAMILY = (
    ((1, 2, 3), ((2, _P), (-3, _WQ), (-4, _1))),
    ((2, 1, 3), ((2, _P), (-3, _WQ), (4, _1))),
    ((1, 3, 1), ((2, _WQ), (3, _P), (-1, _1))),
    ((2, 2, 3), ((2, _WQ), (3, _P), (1, _1))),
    ((1, 1, 2), ((5, _AP), (6, _AM))),
    ((2, 1, 2), ((5, _AM), (-6, _AP))),
    ((3, 1, 3), ((7, _AP), (8, _AM))),
    ((3, 2, 3), ((7, _AM), (-8, _AP))),
    ((3, 1, 2), ((9, _1),)),
)
# the word of each monomial among the keys of `ncpoly.NCPoly`
_WORDS = {_1: (), _WQ: ("Q",), _P: ("P",), _AP: ("Ap",), _AM: ("Am",)}


def build_mu(params, q, p, a_plus, a_minus, omega):
    """The family member mu(C1..C9) as a StructureTensor, read off `_FAMILY`.

    The arguments q, p, a_plus, a_minus may be numbers (giving a numeric
    tensor) or polynomials (giving a symbolic one).  Entry layout, with
    every mirror mu^i_{kj} = -mu^i_{jk}:

        mu^1_{23} = C2*p - C3*omega*q - C4     mu^1_{31} = C2*omega*q + C3*p - C1
        mu^2_{13} = C2*p - C3*omega*q + C4     mu^2_{23} = C2*omega*q + C3*p + C1
        mu^1_{12} = C5*Ap + C6*Am              mu^2_{12} = C5*Am - C6*Ap
        mu^3_{13} = C7*Ap + C8*Am              mu^3_{23} = C7*Am - C8*Ap
        mu^3_{12} = C9

    Each entry is the sum of its terms in the order above, with omega*q
    formed once; the tensor is antisymmetric by construction and is built
    unchecked.
    """
    return _member(params, omega, {_WQ: q * omega, _P: p, _AP: a_plus, _AM: a_minus})


def _member(params, omega, point=None, zero=None):
    """The family member at a point, {monomial: coordinate}, or at the generators.

    At a point each entry is the sum of its `_FAMILY` terms (`build_mu`).  At
    the generators (no point) each entry is written from its row, term by
    term, with coefficient C_n or C_n*omega and without its zero terms: a
    Poly keyed by the monomials, but mu^3_{12} stays the number C9 and the
    diagonal the Fraction 0.  Given `zero`, the zero NCPoly, every entry is
    instead an NCPoly keyed by the monomials' `_WORDS`, whose s-parts carry
    the p0 of the C_n: the operator bracket over the free algebra.
    """
    c = (None, *params.c)   # C_n at index n
    like = poly._trusted if zero is None else zero._like
    flat = [_ZERO if zero is None else zero] * 27
    for (i, j, k), form in _FAMILY:
        if point is None and (zero is not None or len(form) > 1):
            # a row's monomials are distinct, and a nonzero C_n (times omega) is in the format
            terms = {}
            for n, x in form:
                if c[abs(n)]:
                    v = c[abs(n)] * omega if x == _WQ else c[abs(n)]
                    terms[x if zero is None else _WORDS[x]] = -v if n < 0 else v
            value = like(terms)
        else:
            # coordinate on the left: a polynomial's `*` runs, not a scalar's NotImplemented
            value = None
            for n, x in form:
                v = c[abs(n)] if x == _1 else point[x] * c[abs(n)]
                value = v if value is None else value - v if n < 0 else value + v
        flat[_position(i, j, k)], flat[_position(i, k, j)] = value, _mirror(value)
    return _trusted(flat)


def formal_mu(params, omega):
    """The symbolic family member, `build_mu` at the generators q, p, Ap, Am."""
    return _member(params, _positive(omega, "omega"))


def solve_C(mu0, p0):
    """Invert build_mu at the reference point (q, p, Ap, Am) = (0, p0, s, 0).

    Given a constant antisymmetric tensor mu0, returns the unique parameters
    C1..C9 whose family member passes through mu0 at that point, for every
    rational p0 > 0.  Here s = sqrt(2 p0) stays formal: C5..C8 divide an
    entry m by s and come back as the ExtScalar m*s/(2 p0); the other five
    are rational.
    """
    p0 = _positive(p0, "p0")
    half, inverse = Fraction(1, 2), Fraction(p0.denominator, 2 * p0.numerator)   # 1/(2 p0)
    flat = mu0.coeffs

    def m(i, j, k):
        # a scalar entry as its coefficient, a constant Poly as its value; as
        # mu0 is antisymmetric, -m(i, j, k) is the mirror entry m(i, k, j)
        value = flat[_position(i, j, k)]
        return value.constant_value() if isinstance(value, Poly) else _coefficient(value)

    def scaled(x, y, by):
        # (x + y)*by, with no sum when x or y is 0 and no product when x + y is
        total = _plus(x, y)
        return total and total * by

    m223, m213 = m(2, 2, 3), m(2, 1, 3)   # each enters two parameters
    return LaxFamilyParams((
        scaled(m223, m(1, 1, 3), half),
        scaled(m213, m(1, 2, 3), inverse),
        scaled(m223, m(1, 3, 1), inverse),
        scaled(m213, m(1, 3, 2), half),
        # C5..C8: an entry x over s, x*s/(2 p0)
        *[x and ExtScalar(_ZERO, x * inverse, p0=p0)
          for x in (m(1, 1, 2), m(2, 2, 1), m(3, 1, 3), m(3, 3, 2))],
        m(3, 1, 2),
    ))


def _time_derivative(value, half_w, minus_w2, minus_half_w):
    """d/dt of a coefficient through the oscillator and half-angle flows,
    p*d/dq - omega**2*q*d/dp - (omega/2)*Am*d/dAp + (omega/2)*Ap*d/dAm, given
    the flow scalars omega/2, -omega**2 and -omega/2."""
    if not isinstance(value, Poly):
        return _ZERO
    if value.is_constant:
        return poly._trusted({})
    terms = value.terms.items()
    return poly._trusted(_collect({}, chain(
        (((i - 1, j + 1, k, l), c * i) for (i, j, k, l), c in terms if i),
        (((i + 1, j - 1, k, l), c * (minus_w2 * j)) for (i, j, k, l), c in terms if j),
        (((i, j, k - 1, l + 1), c * (minus_half_w * k)) for (i, j, k, l), c in terms if k),
        (((i, j, k + 1, l - 1), c * (half_w * l)) for (i, j, k, l), c in terms if l))))


def operadic_lax_residual(params, omega):
    """d(mu)/dt - [M, mu] as a symbolic tensor; zero for every family member.
    The identity holds on every energy shell at once, so p0 never enters."""
    return next(_residuals([params], omega))


def _residuals(members, omega):
    """The residual of each family member in turn, with M and the flow
    scalars built once for all of them."""
    w = _positive(omega, "omega")
    m, scalars = rotation_generator(w), (w / 2, -w * w, -w / 2)
    for params in members:
        mu = _member(params, w)
        flow = [_time_derivative(v, *scalars) for v in mu.coeffs]
        # a difference of antisymmetric tensors, which adds no exact zero
        yield _trusted(_sums(flow, gerstenhaber_bracket(m, mu).coeffs, True))


def prove_operadic_lax(omega):
    """(ok, detail): the operadic residual at omega is zero for the nine unit
    probes C = e_n, so by linearity in C1..C9 it is zero for every C."""
    probes = [LaxFamilyParams(tuple(int(m == n) for m in range(1, 10))) for n in range(1, 10)]
    for n, residual in enumerate(_residuals(probes, omega), 1):
        if not residual.is_zero:
            return False, f"nonzero residual for the C{n} probe"
    return True, ("the nine single-parameter probes give the zero tensor;"
                  " linear in C1..C9, so zero for every C")
