"""Antisymmetric bilinear structure data on a 3-dimensional space.

A StructureTensor holds the coefficients mu[i][j][k] of a bracket
[e_j, e_k] = sum_i mu^i_{jk} e_i with mu^i_{jk} = -mu^i_{kj}.  It is the
degree-2 `operad.Operation` on a 3d space, and equals the Operation with the
same entries.  Entries can be exact numbers, `poly.Poly`, or `ncpoly.NCPoly`.

The sparse constructor is the one checked way in.  It checks only what its
input can break: a given diagonal entry must vanish, and a pair given in
both orientations must be opposite; a mirror it fills, the negated entry,
is not compared.  A tensor antisymmetric by construction, such as a Lax
family member, is built through the private `_trusted`, which checks
nothing.

Indices are 1-based everywhere in the public interface; the independent
components are reported in the column order (1,2), (2,3), (3,1).
"""

from __future__ import annotations

from fractions import Fraction

from .ncpoly import _collect
from . import operad
from .operad import Operation

DIM = 3

# independent index pairs, in standard column order
PAIRS = ((1, 2), (2, 3), (3, 1))


def _position(i, j, k):
    """Row-major position of mu^i_{jk} (1-based indices) in the flat entries."""
    return ((i - 1) * DIM + j - 1) * DIM + k - 1


# per component m, the positions of each (mu^m_{lk}, mu^k_{ij}) pair, over
# (i, j, l) = (1,2,3), (2,3,1), (3,1,2) and then k
_CYCLIC = tuple(tuple((_position(m, l, k), _position(k, i, j))
                      for (i, j, l) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)) for k in (1, 2, 3))
                for m in (1, 2, 3))


def _cyclic_defect(flat, zero):
    """Cyclic Jacobi defect at the basis triple, from the row-major entries.

    The entries are polynomials of one ring and context (`_Ring`) and
    `zero` is its zero.  Component m adds each product mu^m_{lk} * mu^k_{ij},
    outer factor on the left, in `_CYCLIC` order, skipping every product
    with a factor without terms.  Each product is collected before it is
    added, so each component holds the same terms in the same order as the
    ring sum of all nine from `zero`.
    """
    components = []
    for pairs in _CYCLIC:
        terms = {}
        for a, b in pairs:
            outer, inner = flat[a], flat[b]
            if outer.terms and inner.terms:
                product = _collect({}, outer._products(inner.terms))
                terms = _collect(terms, product.items()) if terms else product
        components.append(zero._like(terms))
    return tuple(components)


class StructureTensor(Operation):
    """Coefficients of an antisymmetric bilinear map on a 3d space."""

    __slots__ = ()

    def __init__(self, entries=None):
        """Build from a sparse mapping {(i, j, k): value} with 1-based indices,
        filling and checking as the module docstring says."""
        entries = entries or {}
        flat = [Fraction(0)] * DIM ** 3
        checks = set()
        for idx, value in entries.items():
            i, j, k = idx
            if any(not (1 <= n <= DIM) for n in (i, j, k)):
                raise ValueError(f"index {idx!r} out of range 1..{DIM}")
            flat[_position(i, j, k)] = value
            if (i, k, j) not in entries:
                flat[_position(i, k, j)] = -value
            else:
                # a given diagonal, or a pair given both ways
                checks.add((i - 1, min(j, k) - 1, max(j, k) - 1))
        super().__init__(DIM, 2, flat)
        self._validate(sorted(checks))

    def _validate(self, checks):
        """Antisymmetry at each 0-based (i, j, k) of `checks`, with j <= k."""
        flat = self.coeffs
        for i, j, k in checks:
            a = flat[(i * DIM + j) * DIM + k]
            if j == k:
                if not (a == 0):
                    raise ValueError(
                        f"diagonal entry mu^{i+1}_{{{j+1}{k+1}}} = {a} must vanish")
            else:
                b = flat[(i * DIM + k) * DIM + j]
                if not (a == -b):
                    raise ValueError(
                        f"antisymmetry broken at mu^{i+1}_{{{j+1}{k+1}}}:"
                        f" {a} vs {b}")

    def independent_entries(self):
        """Yield ((i, j, k), value) over the nine independent components.

        Ordered by pair column (1,2), (2,3), (3,1), then by upper index i.
        """
        for (j, k) in PAIRS:
            for i in (1, 2, 3):
                yield (i, j, k), self.coeffs[_position(i, j, k)]

    def __repr__(self):
        parts = [f"mu^{i}_{{{j}{k}}}={v}"
                 for (i, j, k), v in self.independent_entries() if not (v == 0)]
        return "StructureTensor(" + (", ".join(parts) or "0") + ")"


def _trusted(flat):
    """The StructureTensor over 27 antisymmetric row-major entries, unchecked."""
    return operad._trusted(StructureTensor, DIM, 2, flat)
