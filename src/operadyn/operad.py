"""Endomorphism operad of a finite-dimensional space, with graded composition.

An operation of degree n on a d-dimensional space V is a multilinear map
V**n -> V, stored as its dense coefficient tensor with the output axis first:
``coeffs[out, in_1, ..., in_n]``.  Entries may be exact numbers or elements
of any commutative ring with the usual Python operators (the package uses
`poly.Poly` for phase-space-dependent operations).

Signs are driven by the reduced degree |f| = deg(f) - 1:

    partial_compose(f, i, g) = (-1)**(i*|g|) * (f after g in input slot i),
        for 0 <= i <= |f|, producing degree deg(f) + |g|
    total_compose(f, g)      = sum of partial_compose(f, i, g) over all slots
    gerstenhaber_bracket     = total_compose(f, g)
                               - (-1)**(|f|*|g|) * total_compose(g, f)

Degree-0 operations are vectors; they admit no composition slots, and the
total composition f . g with deg(f) = 0 is the zero operation of degree
|g| (undefined when g also has degree 0).
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

import numpy as np

MAX_DIM = 8
MAX_DEGREE = 4
# hard cap on tensor size for composition results (they may exceed MAX_DEGREE)
MAX_ENTRIES = 2 ** 20


def graded_sign(exponent):
    """(-1)**exponent for any integer exponent."""
    return -1 if exponent % 2 else 1


def _zeros(shape):
    arr = np.empty(shape, dtype=object)
    arr.fill(Fraction(0))
    return arr


class Operation:
    """A multilinear operation V**degree -> V on a d-dimensional space."""

    __slots__ = ("dim", "degree", "coeffs")

    def __init__(self, dim, degree, coeffs=None, *, check_limits=True):
        if not isinstance(dim, int) or not (1 <= dim <= MAX_DIM):
            raise ValueError(f"dimension must be an integer in 1..{MAX_DIM}, got {dim!r}")
        if not isinstance(degree, int) or degree < 0:
            raise ValueError(f"degree must be a nonnegative integer, got {degree!r}")
        if check_limits and degree > MAX_DEGREE:
            raise ValueError(
                f"degree {degree} exceeds the construction limit {MAX_DEGREE}"
                " (composition results may go higher, direct construction may not)"
            )
        if dim ** (degree + 1) > MAX_ENTRIES:
            raise ValueError(
                f"coefficient tensor would hold {dim ** (degree + 1)} entries,"
                f" above the cap of {MAX_ENTRIES}"
            )
        shape = (dim,) * (degree + 1)
        if coeffs is None:
            arr = _zeros(shape)
        else:
            arr = np.asarray(coeffs, dtype=object)
            if arr.shape != shape:
                raise ValueError(f"coefficient tensor has shape {arr.shape}, expected {shape}")
            arr = arr.copy()
        arr.flags.writeable = False
        self.dim = dim
        self.degree = degree
        self.coeffs = arr

    # ---- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, dim, degree):
        return cls(dim, degree)

    @classmethod
    def identity(cls, dim):
        arr = _zeros((dim, dim))
        for i in range(dim):
            arr[i, i] = Fraction(1)
        return cls(dim, 1, arr)

    @classmethod
    def from_matrix(cls, rows):
        arr = np.asarray(rows, dtype=object)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        return cls(arr.shape[0], 1, arr)

    @classmethod
    def from_entries(cls, dim, degree, entries):
        """Build from a sparse mapping with 1-based indices.

        Keys are index tuples (out, in_1, ..., in_degree); anything unset
        is zero.
        """
        arr = _zeros((dim,) * (degree + 1))
        for idx, value in entries.items():
            idx = tuple(idx)
            if len(idx) != degree + 1 or any(not (1 <= i <= dim) for i in idx):
                raise ValueError(f"index {idx!r} out of range for dim {dim}, degree {degree}")
            arr[tuple(i - 1 for i in idx)] = value
        return cls(dim, degree, arr)

    # ---- accessors --------------------------------------------------------

    @property
    def reduced_degree(self):
        return self.degree - 1

    def entry(self, *indices):
        """Coefficient at 1-based indices (out, in_1, ..., in_degree)."""
        if len(indices) != self.degree + 1:
            raise ValueError(f"expected {self.degree + 1} indices, got {len(indices)}")
        if any(not (1 <= i <= self.dim) for i in indices):
            raise ValueError(f"index {indices!r} out of range for dim {self.dim}")
        return self.coeffs[tuple(i - 1 for i in indices)]

    @property
    def is_zero(self):
        return all(v == 0 for v in self.coeffs.flat)

    def apply(self, vectors):
        """Evaluate on a sequence of `degree` vectors, returning a vector."""
        vectors = list(vectors)
        if len(vectors) != self.degree:
            raise ValueError(f"operation of degree {self.degree} takes {self.degree} arguments,"
                             f" got {len(vectors)}")
        out = self.coeffs
        for vec in vectors:
            v = np.asarray(vec, dtype=object)
            if v.shape != (self.dim,):
                raise ValueError(f"argument vector has shape {v.shape}, expected ({self.dim},)")
            out = np.tensordot(out, v, axes=([1], [0]))
        return out

    # ---- linear structure --------------------------------------------------

    def _check_shape(self, other):
        if self.dim != other.dim or self.degree != other.degree:
            raise ValueError(
                f"shape mismatch: (dim {self.dim}, degree {self.degree})"
                f" vs (dim {other.dim}, degree {other.degree})"
            )

    def __add__(self, other):
        if not isinstance(other, Operation):
            return NotImplemented
        self._check_shape(other)
        return Operation(self.dim, self.degree, self.coeffs + other.coeffs, check_limits=False)

    def __sub__(self, other):
        if not isinstance(other, Operation):
            return NotImplemented
        self._check_shape(other)
        return Operation(self.dim, self.degree, self.coeffs - other.coeffs, check_limits=False)

    def __neg__(self):
        return Operation(self.dim, self.degree, -self.coeffs, check_limits=False)

    def __mul__(self, scalar):
        if isinstance(scalar, (Rational, float)):
            return Operation(self.dim, self.degree, self.coeffs * scalar, check_limits=False)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Operation):
            return NotImplemented
        if self.dim != other.dim or self.degree != other.degree:
            return False
        return bool((self.coeffs == other.coeffs).all())

    def __hash__(self):
        return hash((self.dim, self.degree, tuple(self.coeffs.flat)))

    def __repr__(self):
        nonzero = int(sum(1 for v in self.coeffs.flat if v != 0))
        return f"Operation(dim={self.dim}, degree={self.degree}, nonzero={nonzero})"


def partial_compose(f, i, g):
    """Insert g into input slot i of f (slots are 0-based), with the graded sign.

    Defined for 0 <= i <= |f|, so f must have degree at least 1.  The result
    has degree deg(f) + |g| and carries the sign (-1)**(i*|g|).
    """
    if not isinstance(f, Operation) or not isinstance(g, Operation):
        raise TypeError("partial_compose expects two Operations")
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if f.degree == 0:
        raise ValueError("a degree-0 operation has no composition slots")
    if not (0 <= i <= f.reduced_degree):
        raise ValueError(f"slot index {i} out of range 0..{f.reduced_degree}")
    out_degree = f.degree + g.reduced_degree
    if f.dim ** (out_degree + 1) > MAX_ENTRIES:
        raise ValueError(
            f"composition result would hold {f.dim ** (out_degree + 1)} entries,"
            f" above the cap of {MAX_ENTRIES}"
        )
    # contract slot i of f (axis i+1) against the output axis of g, then move
    # g's input axes from the tail back to slot position i
    t = np.tensordot(f.coeffs, g.coeffs, axes=([i + 1], [0]))
    m = g.degree
    if m:
        src = list(range(f.degree, f.degree + m))
        dst = list(range(i + 1, i + 1 + m))
        t = np.moveaxis(t, src, dst)
    if graded_sign(i * g.reduced_degree) < 0:
        t = -t
    return Operation(f.dim, out_degree, t, check_limits=False)


def total_compose(f, g):
    """Sum of partial compositions over every input slot of f.

    For degree-0 f the sum is empty: the result is the zero operation of
    degree |g|, and the combination of two degree-0 operations is rejected.
    """
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if f.degree == 0:
        if g.degree == 0:
            raise ValueError("total composition of two degree-0 operations is undefined")
        return Operation(f.dim, g.reduced_degree, check_limits=False)
    acc = partial_compose(f, 0, g)
    for i in range(1, f.degree):
        acc = acc + partial_compose(f, i, g)
    return acc


def gerstenhaber_bracket(f, g):
    """Graded commutator of total composition.

    [f, g] = f.g - (-1)**(|f||g|) g.f, an operation of degree |f|+|g|+1.
    """
    if f.degree == 0 and g.degree == 0:
        raise ValueError("bracket of two degree-0 operations is undefined")
    a = total_compose(f, g)
    b = total_compose(g, f)
    if graded_sign(f.reduced_degree * g.reduced_degree) < 0:
        return a + b
    return a - b
