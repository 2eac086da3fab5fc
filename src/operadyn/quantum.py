"""Quantum counterparts of the dynamical deformations, over the free algebra.

Each class's operator bracket is the Lax family member through its class
tensor, written at the words (), Q, P, Ap, Am of `ncpoly.NCPoly` with
sqrt(2*p0) the formal scalar s: the monomial q^i p^j Ap^k Am^l of the
symbolic member becomes the word Q^i P^j Ap^k Am^l.  No commutation
relations are imposed, so the Jacobi defect measures the obstruction that
survives in the free algebra itself.

The defect of the bracket mu at vectors x, y, z is, component-wise,

    J^m(x, y, z) = sum over cyclic rotations (u, v, w) of (x, y, z) of
                   sum_{i,j,l,k}  mu^m_{l k} * mu^k_{i j} * u^i v^j w^l

with the outer coefficient (indexed by the scalar argument l and the inner
slot k) multiplying the inner one from the left.  The defect is trilinear and
alternating, so classification only needs J(e1, e2, e3).  Making the
generators commute maps the operator defect onto the classical one
(`poly.commutative_image`), so one kernel call per class serves both sides.

Every class lands in exactly one bucket (`bianchi._CLASSES` says which):

    Rigid        no parameter sees the dynamics: the constant class tensor
    QuantumLie   defect identically zero in the free algebra
    AnomalousI   defect (0, 0, (1/p0) [Ap, Am])
    AnomalousII  defect (tau*a/sqrt(2 p0**3) xi+, tau*a/sqrt(2 p0**3) xi-,
                 (a**2/p0) [Ap, Am]) with tau = -1
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

from . import bianchi
from .bianchi import ANOMALOUS_I, ANOMALOUS_II, QUANTUM_LIE, RIGID
from .lax import _member, solve_C
from .ncpoly import ExtScalar, NCPoly, _one_context, _positive, commutator
from .structure import _cyclic_defect

_ONE = Fraction(1)

UNCLASSIFIED = "Unclassified"


def quantize(t, omega, p0):
    """Operator form of the deformed bracket of class t (see the module
    docstring), every entry built unchecked."""
    w, p0 = _positive(omega, "omega"), _positive(p0, "p0")
    return _operator(solve_C(bianchi.structure_constants(t), p0), w)


def _operator(params, w):
    """The operator bracket of the family member `params`, at a checked omega;
    its entries' s-parts carry the p0 of `params`."""
    return _member(params, w, zero=NCPoly())


# ---------------------------------------------------------------------------
# brackets, defects, classification


def xi_pair(omega, p0):
    """The anomaly polynomials (xi+, xi-).

    xi+ = omega*Q*Am + P*Ap - p0*Ap and xi- = omega*Q*Ap - P*Am - p0*Am;
    both have vanishing commutative image on the energy shell.
    """
    w, p0 = _positive(omega, "omega"), _positive(p0, "p0")
    return (NCPoly({("Q", "Am"): w, ("P", "Ap"): Fraction(1), ("Ap",): -p0}),
            NCPoly({("Q", "Ap"): w, ("P", "Am"): Fraction(-1), ("Am",): -p0}))


def generator_commutator():
    """[Ap, Am] as an NCPoly, of no context; nonzero because no relations
    are imposed."""
    return commutator(NCPoly.generator("Ap"), NCPoly.generator("Am"))


def _nc_entries(mu):
    """The 27 row-major entries of mu, each checked to be an NCPoly, whose
    s-parts share one p0 (ValueError naming two if not)."""
    flat = mu.coeffs
    for (i, j, k), value in zip(itertools.product((1, 2, 3), repeat=3), flat):
        if not isinstance(value, NCPoly):
            raise ValueError(f"entry mu^{i}_{{{j}{k}}} is not an NCPoly: {value!r}")
    _one_context([c for value in flat for c in value.terms.values()])
    return flat


class JacobianTriple(namedtuple("JacobianTriple", "j1 j2 j3")):
    __slots__ = ()

    @property
    def is_zero(self):
        return self.j1.is_zero and self.j2.is_zero and self.j3.is_zero


def basis_jacobian(mu):
    """The Jacobi defect of mu at the basis triple (e1, e2, e3)."""
    flat = _nc_entries(mu)
    return JacobianTriple(*_cyclic_defect(flat, flat[0]._like({})))


AnomalyCertificate = namedtuple("AnomalyCertificate",
                                "kind type_label omega p0 a tau jacobian matched")


def classify(t, omega, p0):
    """Sort a class into Rigid / QuantumLie / AnomalousI / AnomalousII.

    The parameters `solve_C` builds once give both `quantize`'s operator
    bracket and rigidity (`LaxFamilyParams.is_admissible`).  The certificate
    carries the full basis defect so the claim can be checked independently
    of the matching logic.
    """
    w, p0 = _positive(omega, "omega"), _positive(p0, "p0")
    params = solve_C(bianchi.structure_constants(t), p0)
    defect = basis_jacobian(_operator(params, w))
    kind, tau, matched = _match(t, not params.is_admissible, defect, w, p0)
    return AnomalyCertificate(kind, t.label, w, p0, t.a, tau, defect, matched)


def _match(t, rigid, defect, w, p0):
    """(kind, tau, matched) of class t, whose operator bracket has the basis
    defect `defect` and is the class tensor itself if rigid: the first
    bucket that fits, or Unclassified."""
    if rigid:
        return RIGID, None, ("0", "0", "0")
    if defect.is_zero:
        return QUANTUM_LIE, None, ("0", "0", "0")
    comm = generator_commutator()
    if defect.j1.is_zero and defect.j2.is_zero and defect.j3 == comm * (_ONE / p0):
        return ANOMALOUS_I, None, ("0", "0", "(1/p0)*[Ap,Am]")
    if t.a is not None:
        # a / sqrt(2 p0**3) = (a / (2 p0**2)) * s
        scale = ExtScalar(0, t.a / (p0 * p0 * 2), p0=p0)
        xp, xm = xi_pair(w, p0)
        j3_target = comm * (t.a * t.a / p0)
        for tau in (-1, 1):
            if (defect.j1 == xp * (scale * tau) and defect.j2 == xm * (scale * tau)
                    and defect.j3 == j3_target):
                return ANOMALOUS_II, tau, (f"{tau:+d}*(a/sqrt(2*p0^3))*xi_plus",
                                           f"{tau:+d}*(a/sqrt(2*p0^3))*xi_minus",
                                           "(a^2/p0)*[Ap,Am]")
    return UNCLASSIFIED, None, ()


def prove_kinds(certificates):
    """(ok, detail) over (class, certificate) pairs: each class lands in its
    bucket of `bianchi._CLASSES`, an AnomalousII one with tau = -1; the
    detail lists each class's kind and tau.  ValueError on no pairs."""
    if not certificates:
        raise ValueError("prove_kinds needs at least one (class, certificate) pair, got none")
    lines = []
    for t, cert in certificates:
        expected = bianchi._CLASSES[t.tag][1]
        if cert.kind != expected:
            return False, f"{t.label} classified {cert.kind}, expected {expected}"
        if expected == ANOMALOUS_II and cert.tau != -1:
            return False, f"{t.label} has tau={cert.tau}, expected -1"
        tau = f" tau={cert.tau}" if cert.tau is not None else ""
        lines.append(f"{t.label}={cert.kind}{tau}")
    return True, "; ".join(lines)
