"""The eleven real 3d Lie algebra classes and their dynamical deformations.

Each class is presented through structure equations

    [e1, e2] = -alpha e2 + n3 e3,   [e2, e3] = n1 e1,   [e3, e1] = n2 e2 + alpha e3

and `_CLASSES` holds, per class, its signature (alpha, n1, n2, n3) and the
bucket its quantum counterpart lands in.  Two classes carry a positive
modulus a (with a != 1 for VIa); IIIa1 is the a = 1 boundary case kept as
its own entry.

A class becomes a one-parameter family of brackets driven by the harmonic
oscillator: solve_C places its constant tensor in the Lax family, with
s = sqrt(2*p0) kept formal.  On the energy shell the deformed bracket
satisfies the Jacobi identity at every time, which a `ShellReduction` of
one (omega, p0) proves by its normal form and again by the flow's
covariance.

`BianchiType` is a namedtuple whose constructor, `_make` and `_replace` check
and normalize (tag, a).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import poly
from .lax import LaxFamilyParams, _lax_sides, formal_mu, solve_C
from .ncpoly import _ZERO, ExtScalar, _collect, _fold_s, _positive, _rational
from .operad import Operation
from .oscillator import sample_flow
from .poly import Poly, commutative_image, evaluate_terms, rational_sqrt
from .structure import StructureTensor, _cyclic_defect

# the buckets of `quantum.classify`, and per class the signature (alpha, n1,
# n2, n3), "a" where the modulus enters, and the bucket of its quantum counterpart
RIGID, QUANTUM_LIE, ANOMALOUS_I, ANOMALOUS_II = "Rigid", "QuantumLie", "AnomalousI", "AnomalousII"
_CLASSES = {
    "I":     ((0, 0, 0, 0), RIGID),
    "II":    ((0, 1, 0, 0), QUANTUM_LIE),
    "VII":   ((0, 1, 1, 0), RIGID),
    "VI":    ((0, 1, -1, 0), QUANTUM_LIE),
    "IX":    ((0, 1, 1, 1), RIGID),
    "VIII":  ((0, 1, 1, -1), RIGID),
    "V":     ((1, 0, 0, 0), ANOMALOUS_I),
    "IV":    ((1, 0, 0, 1), ANOMALOUS_I),
    "VIIa":  (("a", 0, 1, 1), ANOMALOUS_II),
    "IIIa1": ((1, 0, 1, -1), ANOMALOUS_II),
    "VIa":   (("a", 0, 1, -1), ANOMALOUS_II),
}

TAGS = tuple(_CLASSES)

# the classes that take a modulus a
PARAMETRIC = tuple(tag for tag, (signature, _) in _CLASSES.items() if "a" in signature)


class BianchiType(namedtuple("BianchiType", "tag a")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))   # `_replace` calls it

    def __new__(cls, tag, a=None):
        if tag not in TAGS:
            raise ValueError(f"unknown type tag {tag!r}, expected one of {TAGS}")
        if tag in PARAMETRIC:
            if a is None:
                raise ValueError(f"type {tag} requires a modulus a > 0")
            a = _positive(a, "modulus")
            if tag == "VIa" and a == 1:
                raise ValueError("type VIa requires a != 1 (a = 1 is type IIIa1)")
        elif tag == "IIIa1":
            if a is not None and _rational(a) != 1:
                raise ValueError("type IIIa1 has fixed modulus a = 1")
            a = Fraction(1)
        elif a is not None:
            raise ValueError(f"type {tag} takes no modulus")
        return super().__new__(cls, tag, a)

    @property
    def label(self):
        if self.tag in PARAMETRIC:
            return f"{self.tag}(a={self.a})"
        return self.tag


def all_types(a=Fraction(1, 2)):
    """All eleven classes, the parametric ones at the given modulus."""
    a = _rational(a)
    return [BianchiType(tag, a if tag in PARAMETRIC else None) for tag in TAGS]


def structure_constants(t):
    """The constant structure tensor of the class, exact."""
    alpha, n1, n2, n3 = (t.a if v == "a" else Fraction(v) for v in _CLASSES[t.tag][0])
    # mu^2_{21} = alpha, whose mirror mu^2_{12} = -alpha the constructor fills
    entries = {(2, 2, 1): alpha, (3, 3, 1): alpha, (3, 1, 2): n3, (1, 2, 3): n1, (2, 3, 1): n2}
    return StructureTensor({idx: v for idx, v in entries.items() if v})


def deform(t, omega, p0):
    """The dynamical deformation of class t as a phase-space table of Polys:
    the family member through the class tensor, with s folded to its value
    when that is rational, so every coefficient is a Fraction; otherwise s
    stays formal."""
    _positive(omega, "omega")
    params = solve_C(structure_constants(t), p0)
    sigma = rational_sqrt(2 * p0)
    if sigma is not None:
        params = LaxFamilyParams(_fold_s(v, sigma) for v in params.c)
    return formal_mu(params, omega)


def is_rigid(t):
    """True when the deformation is constant in time: its parameters leave
    the dynamics out (`LaxFamilyParams.is_admissible`)."""
    # omega never enters solve_C, and each of C2, C3 and C5..C8 is an entry sum
    # times a factor no p0 > 0 makes zero, so every p0 gives the same answer
    return not solve_C(structure_constants(t), 2).is_admissible


# ---------------------------------------------------------------------------
# Jacobi identity on the energy shell


class ShellReduction:
    """Normal forms, filled lazily, and the flow's covariance on the shell of one (omega, p0).

    On the shell q = Ap*Am/omega, p = Ap**2 - p0 and Am**2 = 2*p0 - Ap**2, so
    the normal form of q^i p^j Ap^k Am^l is the one product
    Ap^(i+k) (Ap**2 - p0)^j (2*p0 - Ap**2)^((i+l)//2) Am^((i+l)%2) (1/omega)^i,
    with no Am-power above 1; the table keeps each monomial's form it has
    met.  `sigma` is sqrt(2*p0) when that is rational and None otherwise.
    """

    def __init__(self, omega, p0):
        self._w = w = _positive(omega, "omega")
        self._p0 = p0 = _positive(p0, "p0")
        # the Fraction on the left: an int there runs `fractions`' ABC check
        self.sigma = rational_sqrt(p0 * 2)
        self._inverse_w = Poly.constant(Fraction(w.denominator, w.numerator))
        self._p = poly.a_plus ** 2 - Poly.constant(p0)
        self._shell = Poly.constant(p0 * 2) - poly.a_plus ** 2
        self._forms = {}
        # the Lax equation at omega, and the reference point
        # (q, p, Ap, Am) = (0, p0, s, 0) as the columns of `poly.evaluate_terms`
        self._lax_sides = _lax_sides(w)
        self._reference = ([_ZERO], [p0], [self.sigma or ExtScalar(0, 1, p0=p0)], [_ZERO])

    def reduce(self, value):
        """Normal form of a phase-space polynomial or number on the shell.

        It is the zero polynomial exactly when the value vanishes on the
        shell (for the branch chart's image, which is Zariski dense in it).
        """
        pairs = ((key, coeff * c) for exps, coeff in poly.as_poly(value).terms.items()
                 for key, c in self._form(exps).terms.items())
        return poly._trusted(_collect({}, pairs))

    def _form(self, exps):
        form = self._forms.get(exps)
        if form is None:
            i, j, k, l = exps
            form = self._forms[exps] = (
                poly.a_plus ** (i + k) * self._p ** j * self._shell ** ((i + l) // 2)
                * poly.a_minus ** ((i + l) % 2) * self._inverse_w ** i)
        return form

    def covariant(self, defect):
        """None if the polynomials (J1, J2, J3) vanish on the shell by
        covariance, else the fact that fails.

        The facts: D J = M J as polynomials, the Lax equation of
        `lax._lax_sides` for J as a degree-0 Operation, whose bracket with M
        is M J; and J is zero at the reference point (q, p, Ap, Am) =
        (0, p0, s, 0).  The flow through it, q = (p0/omega) sin(omega t),
        p = p0 cos(omega t), Ap = s cos(omega t/2), Am = s sin(omega t/2),
        sweeps the whole shell in 4*pi/omega, and along it J solves the
        linear equation J' = M J, whose one solution through 0 is 0.
        """
        flow, bracket = self._lax_sides(Operation(3, 0, defect))
        if flow != bracket:
            return "does not obey D J = M J"
        if any(evaluate_terms(c.terms.items(), self._reference)[0] for c in defect):
            return "is not zero at (0, p0, s, 0)"
        return None

    @classmethod
    def prove_jacobi(cls, certificates):
        """(ok, detail) over (class, certificate) pairs of one (omega, p0): the
        commutative image of each operator defect, the classical defect, is
        zero on the shell by `reduce`, and again by `covariant`."""
        if not certificates:
            raise ValueError("prove_jacobi needs at least one (class, certificate) pair, got none")
        # one table serves every class, at the omega and p0 the certificates share
        shell = cls(certificates[0][1].omega, certificates[0][1].p0)
        for t, cert in certificates:
            if (cert.omega, cert.p0) != (shell._w, shell._p0):
                raise ValueError(f"prove_jacobi needs one (omega, p0), got ({shell._w},"
                                 f" {shell._p0}) and ({cert.omega}, {cert.p0})")
            raw = [commutative_image(c, shell.sigma) for c in cert.jacobian]
            reduced = tuple(map(shell.reduce, raw))
            if any(not c.is_zero for c in reduced):
                return False, f"on-shell defect of {t.label} is not zero: {reduced}"
            # a second proof, independent of the reduction; a zero defect needs none
            failure = any(c.terms for c in raw) and shell.covariant(raw)
            if failure:
                return False, f"defect of {t.label} {failure}"
        return True, ("all classes reduce to zero on shell; each defect obeys D J = M J and"
                      " is zero at (0, p0, s, 0), whose orbit is the shell, so on all of it")


def raw_jacobian(mu):
    """Cyclic Jacobi defect of a bracket at the basis triple, unreduced.

    Component m is the polynomial sum of mu^m_{l k} * mu^k_{i j} over
    (i, j, l) = (1,2,3), (2,3,1), (3,1,2) and all k.  For a time-dependent
    bracket it only has to vanish on the energy shell.  An exact zero entry
    goes in as the zero Poly, which the kernel skips.
    """
    zero = Poly()
    return _cyclic_defect([v if isinstance(v, Poly)
                           else zero if type(v) in (int, Fraction) and not v
                           else Poly.constant(v) for v in mu.coeffs], zero)


def classical_jacobian(mu, omega, p0):
    """On-shell Jacobi defect of a (possibly time-dependent) bracket: the
    three components of `raw_jacobian`, each reduced to shell normal form.
    A Lie bracket on the shell gives (0, 0, 0) exactly."""
    shell = ShellReduction(omega, p0)
    return tuple(shell.reduce(c) for c in raw_jacobian(mu))


def deformation_trace(t, omega, p0, times):
    """Sample the deformed bracket along the exact flow, column by column.

    Returns 14 columns: the times, q, p, Ap, Am (each a list with one float
    per time), then the nine independent entries in column order.  An entry
    without a variable term is a single float; every other entry is a list
    with one float per time, and equal entries share one list.  The flow's
    checks are `oscillator.sample_flow`'s.  Each distinct entry is evaluated
    over all times in one `poly.evaluate_terms` call, which does the float
    operations of a per-point loop on the exact entry, so each value is
    bitwise the one the exact table gives.
    """
    table = deform(t, omega, p0)
    times = list(times)
    flow = sample_flow(float(omega), float(p0), times)
    evaluated = {}
    entries = []
    for _, value in table.independent_entries():
        terms = tuple((exps, float(c)) for exps, c in value.terms.items())
        if not any(any(exps) for exps, _ in terms):
            # the kernel's sum at any point: int 0 plus the constant term
            entries.append(float(sum(c for _, c in terms)))
        else:
            if terms not in evaluated:
                evaluated[terms] = poly.evaluate_terms(terms, flow)
            entries.append(evaluated[terms])
    return [times, *flow, *entries]
