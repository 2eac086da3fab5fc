"""The old maps of the formal table, for the tests.

`quantum.quantize` writes each class's operator bracket from the Lax family
at the words, and `quantum.classify` classifies it.  Before that, the
operator bracket was the quantization map applied entry by entry to
`formal_deformation`, and the certificate was built from it with
the cyclic defect summed in the ring and the rigidity test on its constant
tensor.  `quantize_formal` and `classify_formal` here are those bodies, and
`formal_deformation`, the formal table they read, is the family member at
the generators through solve_C, with s = sqrt(2*p0) formal.

`bianchi.deform` writes the phase-space table from parameters in which s =
sqrt(2*p0) is folded to its value when that is rational.  Before that, it
folded every coefficient of the formal table: `deform_formal` and `_fold`
here are that map.

Both are kept as the oracle: the tests compare every entry's value, type,
term order and coefficient types, and every certificate, against them.
"""

from operadyn import bianchi, poly
from operadyn.lax import formal_mu, solve_C
from operadyn.ncpoly import (GENERATORS, ExtScalar, NCPoly, _coefficient, _fold_s, _positive,
                             _rational)
from operadyn.poly import Poly, rational_sqrt
from operadyn.structure import _trusted
from operadyn.quantum import (ANOMALOUS_I, ANOMALOUS_II, QUANTUM_LIE, RIGID, UNCLASSIFIED,
                              AnomalyCertificate, generator_commutator, xi_pair)
from reference_compose import quantum_jacobian
from reference_structure import constant_tensor, is_constant

_BASIS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _word(exps):
    """The word Q^i P^j Ap^k Am^l of the monomial q^i p^j Ap^k Am^l."""
    return tuple(g for g, e in zip(GENERATORS, exps) for _ in range(e))


def formal_deformation(t, omega, p0):
    """The dynamical deformation of class t, with s = sqrt(2*p0) formal.

    The class tensor is placed in the Lax family by solve_C at the reference
    point and the family member is taken symbolically: entries are Poly in
    q, p, Ap, Am with coefficients in Q(s).
    """
    _positive(omega, "omega")
    return formal_mu(solve_C(bianchi.structure_constants(t), p0), omega)


def quantize_formal(formal):
    """The quantization map on every entry of a formal deformation.

    The coefficients, s and its p0 included, carry over unchanged; distinct
    monomials map to distinct words, so each entry is built unchecked.
    """
    zero = NCPoly()

    def operator(value):
        if isinstance(value, Poly):
            return zero._like({_word(exps): _coefficient(c) for exps, c in value.terms.items()})
        c = _coefficient(value)
        return zero._like({(): c} if c else {})

    return _trusted(map(operator, formal.coeffs))


def _fold(value, sigma):
    """Replace the formal s of an entry by its rational value sigma (`ncpoly._fold_s`).

    A Poly keeps its keys, so it is rebuilt unchecked; a coefficient that
    folds to 0 is dropped.  The fold is odd, so `deform_formal` maps a
    tensor through it unchecked.
    """
    if not isinstance(value, Poly):
        return _fold_s(value, sigma)
    folded = ((exps, _fold_s(c, sigma)) for exps, c in value.terms.items())
    return poly._trusted({exps: c for exps, c in folded if c})


def deform_formal(formal, p0):
    """The phase-space table of a formal deformation at the same p0.

    When sigma = sqrt(2*p0) is rational, s is folded to sigma and every
    coefficient is a Fraction; otherwise s stays formal.
    """
    sigma = rational_sqrt(2 * _positive(p0, "p0"))
    if sigma is None:
        return formal
    return _trusted(_fold(v, sigma) for v in formal.coeffs)


def classify_formal(t, formal, omega, p0):
    """The certificate of class t, given its formal deformation at omega, p0."""
    w = _positive(omega, "omega")
    p0 = _rational(p0)
    mu = quantize_formal(formal)
    defect = quantum_jacobian(mu, *_BASIS)
    kind, tau, matched = _match(t, mu, defect, w, p0)
    return AnomalyCertificate(kind, t.label, w, p0, t.a, tau, defect, matched)


def _match(t, mu, defect, w, p0):
    """(kind, tau, matched): the first bucket that fits, or Unclassified."""
    if is_constant(mu) and constant_tensor(mu) == bianchi.structure_constants(t):
        return RIGID, None, ("0", "0", "0")
    if defect.is_zero:
        return QUANTUM_LIE, None, ("0", "0", "0")
    comm = generator_commutator()
    if defect.j1.is_zero and defect.j2.is_zero and defect.j3 == (1 / p0) * comm:
        return ANOMALOUS_I, None, ("0", "0", "(1/p0)*[Ap,Am]")
    if t.a is not None:
        scale = ExtScalar(0, t.a / (2 * p0 * p0), p0=p0)
        xp, xm = xi_pair(w, p0)
        j3_target = (t.a * t.a / p0) * comm
        for tau in (-1, 1):
            if (defect.j1 == tau * scale * xp and defect.j2 == tau * scale * xm
                    and defect.j3 == j3_target):
                return ANOMALOUS_II, tau, (f"{tau:+d}*(a/sqrt(2*p0^3))*xi_plus",
                                           f"{tau:+d}*(a/sqrt(2*p0^3))*xi_minus",
                                           "(a^2/p0)*[Ap,Am]")
    return UNCLASSIFIED, None, ()

