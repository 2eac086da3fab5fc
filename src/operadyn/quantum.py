"""Quantum counterparts of the dynamical deformations, over the free algebra.

Each deformed bracket is promoted to operator coefficients by the
quantization map applied to `bianchi.formal_deformation`: the monomial
q^i p^j Ap^k Am^l becomes the word Q^i P^j Ap^k Am^l of `ncpoly.NCPoly`, and
sqrt(2*p0) stays the formal scalar s.  The map is linear, so the operator
tensor is built unchecked from the antisymmetric formal one.  No commutation
relations are imposed, so the Jacobi defect measures the obstruction that
survives in the free algebra itself.

The defect of the bracket mu at vectors x, y, z is, component-wise,

    J^m(x, y, z) = sum over cyclic rotations (u, v, w) of (x, y, z) of
                   sum_{i,j,l,k}  mu^m_{l k} * mu^k_{i j} * u^i v^j w^l

with the outer coefficient (indexed by the scalar argument l and the inner
slot k) multiplying the inner one from the left.  The defect is trilinear and
alternating, so it factors through det(x | y | z); classification only needs
J(e1, e2, e3), whose weights are 1 on the cyclic (i, j, l) and 0 elsewhere.
`basis_jacobian` runs that weight-free cyclic kernel, the one
`bianchi.raw_jacobian` runs.  Making the generators commute maps the
operator defect onto the classical one (`commutative_image`), so one kernel
call per class serves both sides.

Every class lands in exactly one bucket:

    Rigid        constant tensor equal to the undeformed one (I, VII, VIII, IX)
    QuantumLie   defect identically zero in the free algebra (II, VI)
    AnomalousI   defect (0, 0, (1/p0) [Ap, Am])              (IV, V)
    AnomalousII  defect (tau*a/sqrt(2 p0**3) xi+, tau*a/sqrt(2 p0**3) xi-,
                 (a**2/p0) [Ap, Am]) with tau = -1           (IIIa1, VIa, VIIa)

`JacobianTriple` and `AnomalyCertificate` are namedtuples with read-only
fields, so a triple unpacks as j1, j2, j3 and compares as that tuple.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

from . import bianchi, poly
from .ncpoly import (GENERATORS, ExtScalar, NCPoly, _collect, _fold_s, _positive, _rational,
                     commutator)
from .structure import _cyclic_defect

RIGID = "Rigid"
QUANTUM_LIE = "QuantumLie"
ANOMALOUS_I = "AnomalousI"
ANOMALOUS_II = "AnomalousII"
UNCLASSIFIED = "Unclassified"


def _word(exps):
    """The word Q^i P^j Ap^k Am^l of the monomial q^i p^j Ap^k Am^l."""
    return tuple(g for g, e in zip(GENERATORS, exps) for _ in range(e))


def _exps(word):
    """The exponents (i, j, k, l) of a word's commutative image: how often
    it holds Q, P, Ap and Am.  `_exps(_word(e)) == e` for every monomial."""
    return tuple(map(word.count, GENERATORS))


def commutative_image(value, sigma=None):
    """The Poly of an NCPoly whose generators commute: each word becomes the
    monomial of its letter counts, merged through `_collect`, and given the
    rational value sigma of s, each u + v*s folds to u + v*sigma first by
    `ncpoly._fold_s`, the s-fold of `bianchi.deform_formal`.  A ring map that
    undoes `quantize_formal`, so it takes the operator defect of a formal
    tensor to its commutative one, `bianchi.raw_jacobian(bianchi.deform_formal(formal, p0))`."""
    terms = value.terms.items()
    if sigma is not None:
        terms = ((word, _fold_s(c, sigma)) for word, c in terms)
    return poly._trusted(_collect({}, ((_exps(word), c) for word, c in terms)))


def quantize(t, omega, p0):
    """Operator form of the deformed bracket."""
    return quantize_formal(bianchi.formal_deformation(t, omega, p0), p0)


def quantize_formal(formal, p0):
    """Operator form of a formal deformation at the same p0.

    Applies the quantization map to every entry; the coefficients, s
    included, carry over unchanged, since Poly and NCPoly share one
    coefficient format.  Distinct monomials map to distinct words, so each
    entry is built unchecked; p0 is checked once, and each ExtScalar
    coefficient against it.
    """
    zero = NCPoly(p0=p0)

    def operator(value):
        if isinstance(value, poly.Poly):
            return zero._like({_word(exps): zero._coeff(c) for exps, c in value.terms.items()})
        c = zero._coeff(value)
        return zero._like({(): c} if c else {})

    return formal._map(operator)


# ---------------------------------------------------------------------------
# brackets, defects, classification


def xi_pair(omega, p0):
    """The anomaly polynomials (xi+, xi-).

    xi+ = omega*Q*Am + P*Ap - p0*Ap and xi- = omega*Q*Ap - P*Am - p0*Am;
    both have vanishing commutative image on the energy shell.
    """
    w = _positive(omega, "omega")
    p0 = _rational(p0)
    return (NCPoly({("Q", "Am"): w, ("P", "Ap"): Fraction(1), ("Ap",): -p0}, p0=p0),
            NCPoly({("Q", "Ap"): w, ("P", "Am"): Fraction(-1), ("Am",): -p0}, p0=p0))


def generator_commutator(p0):
    """[Ap, Am] as an NCPoly; nonzero because no relations are imposed."""
    p0 = _rational(p0)
    ap = NCPoly.generator("Ap", p0=p0)
    am = NCPoly.generator("Am", p0=p0)
    return commutator(ap, am)


def _tensor_p0(mu):
    for _, value in mu.independent_entries():
        if isinstance(value, NCPoly):
            return value.p0
    raise ValueError("tensor has no NCPoly entries to infer the p0 context from")


def _nc_entries(mu):
    """The 27 row-major entries of mu, each checked to be an NCPoly."""
    for (i, j, k), value in zip(itertools.product((1, 2, 3), repeat=3), mu.coeffs.flat):
        if not isinstance(value, NCPoly):
            raise ValueError(f"entry mu^{i}_{{{j}{k}}} is not an NCPoly: {value!r}")
    return mu.coeffs.flat


class JacobianTriple(namedtuple("JacobianTriple", "j1 j2 j3")):
    __slots__ = ()

    @property
    def is_zero(self):
        return self.j1.is_zero and self.j2.is_zero and self.j3.is_zero


def basis_jacobian(mu):
    """The Jacobi defect of mu at the basis triple (e1, e2, e3).

    The cyclic kernel shared with `bianchi.raw_jacobian`, over NCPoly entries.
    """
    p0 = _tensor_p0(mu)
    return JacobianTriple(*_cyclic_defect(_nc_entries(mu), NCPoly({}, p0=p0)))


class AnomalyCertificate(namedtuple("AnomalyCertificate",
                                    "kind type_label omega p0 a tau jacobian matched")):
    __slots__ = ()

    def to_json_dict(self):
        return {
            "type": self.type_label,
            "kind": self.kind,
            "omega": str(self.omega),
            "p0": str(self.p0),
            "a": None if self.a is None else str(self.a),
            "tau": self.tau,
            "jacobian": [str(c) for c in self.jacobian],
            "matched": list(self.matched),
        }


def classify(t, omega, p0):
    """Sort a class into Rigid / QuantumLie / AnomalousI / AnomalousII.

    The certificate carries the full basis defect so the claim can be checked
    independently of the matching logic.
    """
    return classify_formal(t, bianchi.formal_deformation(t, omega, p0), omega, p0)


def classify_formal(t, formal, omega, p0):
    """`classify` for class t, given its formal deformation at omega, p0."""
    w = _positive(omega, "omega")
    p0 = _rational(p0)
    mu = quantize_formal(formal, p0)
    defect = basis_jacobian(mu)
    kind, tau, matched = _match(t, mu, defect, w, p0)
    return AnomalyCertificate(kind, t.label, w, p0, t.a, tau, defect, matched)


def _match(t, mu, defect, w, p0):
    """(kind, tau, matched) of class t, whose operator bracket mu has the
    basis defect `defect`: the first bucket that fits, or Unclassified."""
    if mu.is_constant and mu.constant_tensor() == bianchi.structure_constants(t):
        return RIGID, None, ("0", "0", "0")
    if defect.is_zero:
        return QUANTUM_LIE, None, ("0", "0", "0")
    comm = generator_commutator(p0)
    if defect.j1.is_zero and defect.j2.is_zero and defect.j3 == (1 / p0) * comm:
        return ANOMALOUS_I, None, ("0", "0", "(1/p0)*[Ap,Am]")
    if t.a is not None:
        # a / sqrt(2 p0**3) = (a / (2 p0**2)) * s
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
