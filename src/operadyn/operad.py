"""Endomorphism operad of a finite-dimensional space, with graded composition.

An operation of degree n on a d-dimensional space V is a multilinear map
V**n -> V, stored as its dense coefficient tensor with the output axis first:
``coeffs[out, in_1, ..., in_n]``.  Entries may be exact numbers or elements
of any commutative ring with the usual Python operators (the package uses
`poly.Poly` for phase-space-dependent operations).

Coefficient tensors are `Tensor`s: read-only, with the entries kept as one
flat tuple in row-major order (the last index varies fastest) beside the
shape.  A bracket is the degree-2 case: `structure.StructureTensor` is the
Operation of degree 2 on a 3d space.

The public constructor checks the dimension (at most MAX_DIM), the degree
(at most MAX_DEGREE) and the size.  Sums, differences, negations, scalar
multiples and composition results are built through the private
`_trusted`, which checks nothing; a composition may exceed MAX_DEGREE.

Composition never multiplies by zero: it pairs only the nonzero entries of
its operands, and a result entry without such a pair is the sum of a zero
entry of each operand (see `partial_compose`).

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
from math import prod
from numbers import Rational
from operator import add, neg, sub

MAX_DIM = 8
MAX_DEGREE = 4
# hard cap on tensor size for composition results (they may exceed MAX_DEGREE)
MAX_ENTRIES = 2 ** 20

_new = object.__new__


def graded_sign(exponent):
    """(-1)**exponent for any integer exponent."""
    return -1 if exponent % 2 else 1


def _offset(index, shape):
    """Row-major position of a 0-based index tuple, or IndexError."""
    if len(index) != len(shape) or any(not 0 <= i < n for i, n in zip(index, shape)):
        raise IndexError(f"index {index!r} out of range for shape {shape}")
    offset = 0
    for i, n in zip(index, shape):
        offset = offset * n + i
    return offset


class Tensor:
    """A read-only dense tensor: its entries as a flat row-major tuple.

    ``flat`` holds the entries, ``shape`` the axis lengths and ``size`` the
    entry count; ``t[i, j, k]`` reads one entry by its 0-based index tuple.
    """

    __slots__ = ("flat", "shape", "size")

    def __init__(self, flat, shape):
        flat, shape = tuple(flat), tuple(shape)
        if len(flat) != prod(shape):
            raise ValueError(f"{len(flat)} entries do not fill shape {shape}")
        # operations and structure tensors share a Tensor instead of copying it
        for name, value in (("flat", flat), ("shape", shape), ("size", len(flat))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Tensor is read-only, cannot set {name!r}")

    @classmethod
    def of(cls, values, shape):
        """A Tensor of the given shape from a Tensor or nested lists/tuples."""
        if isinstance(values, Tensor):
            if values.shape != shape:
                raise ValueError(f"tensor has shape {values.shape}, expected {shape}")
            return values
        flat = [values]
        for n in shape:
            rows, flat = flat, []
            for row in rows:
                if not isinstance(row, (list, tuple)) or len(row) != n:
                    raise ValueError(f"values do not nest to shape {shape}")
                flat.extend(row)
        if any(isinstance(v, (list, tuple, Tensor)) for v in flat):
            raise ValueError(f"values nest deeper than shape {shape}")
        return cls(flat, shape)

    def __getitem__(self, index):
        return self.flat[_offset(index, self.shape)]

    def __repr__(self):
        return f"Tensor({list(self.flat)!r}, shape={self.shape})"


class Operation:
    """A multilinear operation V**degree -> V on a d-dimensional space."""

    __slots__ = ("dim", "degree", "coeffs")

    def __init__(self, dim, degree, coeffs=None):
        if not isinstance(dim, int) or not (1 <= dim <= MAX_DIM):
            raise ValueError(f"dimension must be an integer in 1..{MAX_DIM}, got {dim!r}")
        if not isinstance(degree, int) or degree < 0:
            raise ValueError(f"degree must be a nonnegative integer, got {degree!r}")
        if degree > MAX_DEGREE:
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
            coeffs = Tensor((Fraction(0),) * dim ** (degree + 1), shape)
        self.dim = dim
        self.degree = degree
        self.coeffs = Tensor.of(coeffs, shape)

    @classmethod
    def from_matrix(cls, rows):
        """A degree-1 operation from a square matrix given as a list of rows."""
        if not isinstance(rows, (list, tuple)) or not rows:
            raise ValueError(f"expected a square matrix as a list of rows, got {rows!r}")
        return cls(len(rows), 1, rows)

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

    # ---- linear structure --------------------------------------------------

    def _check_shape(self, other):
        if self.dim != other.dim or self.degree != other.degree:
            raise ValueError(
                f"shape mismatch: (dim {self.dim}, degree {self.degree})"
                f" vs (dim {other.dim}, degree {other.degree})"
            )

    def _like(self, flat):
        return _trusted(self.dim, self.degree, flat)

    def __add__(self, other):
        if not isinstance(other, Operation):
            return NotImplemented
        self._check_shape(other)
        return self._like(map(add, self.coeffs.flat, other.coeffs.flat))

    def __sub__(self, other):
        if not isinstance(other, Operation):
            return NotImplemented
        self._check_shape(other)
        return self._like(map(sub, self.coeffs.flat, other.coeffs.flat))

    def __neg__(self):
        return self._like(map(neg, self.coeffs.flat))

    def __mul__(self, scalar):
        if isinstance(scalar, (Rational, float)):
            return self._like(v * scalar for v in self.coeffs.flat)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Operation):
            return NotImplemented
        if self.dim != other.dim or self.degree != other.degree:
            return False
        return self.coeffs.flat == other.coeffs.flat

    def __hash__(self):
        return hash((self.dim, self.degree, self.coeffs.flat))

    def __repr__(self):
        nonzero = sum(1 for v in self.coeffs.flat if v != 0)
        return f"Operation(dim={self.dim}, degree={self.degree}, nonzero={nonzero})"


def _trusted(dim, degree, flat):
    """The Operation over row-major entries that fill its shape, unchecked."""
    out = _new(Operation)
    out.dim = dim
    out.degree = degree
    out.coeffs = Tensor(flat, (dim,) * (degree + 1))
    return out


def partial_compose(f, i, g):
    """Insert g into input slot i of f (slots are 0-based), with the graded sign.

    Defined for 0 <= i <= |f|, so f must have degree at least 1.  The result
    has degree deg(f) + |g| and carries the sign (-1)**(i*|g|).

    No product with a zero factor is formed.  An entry sums its other
    products, f's entry on the left, in increasing order of the contracted
    index; an entry with none is `z_f + z_g`, for a zero entry of each
    operand (int 0 for an operand without one), so Fraction operands give
    Fraction(0) and int ones int 0.  Every entry equals, and hashes like,
    the sum of all products, but a `Poly` entry that comes out zero or
    constant may come back as the equal scalar.
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
    # The result index is (out, f's inputs before slot i, g's inputs, f's
    # inputs after slot i): position (r * width + b) * step + c for the row r
    # of f's leading indices, g's input column b and f's trailing inputs c.
    # Each nonzero f[r, k, c] (k in slot i) meets the nonzero entries of g's
    # row k, with the sign folded into g; f is walked in row-major order, so
    # each entry receives its products in increasing k.
    d = f.dim
    ff, gf = f.coeffs.flat, g.coeffs.flat
    step = d ** (f.degree - 1 - i)
    width = len(gf) // d
    negate = graded_sign(i * g.reduced_degree) < 0
    f_zero = g_zero = 0
    rows = [[] for _ in range(d)]
    for pos, v in enumerate(gf):
        if v == 0:
            g_zero = v
        else:
            k, b = divmod(pos, width)
            rows[k].append((b * step, -v if negate else v))
    out = [None] * (len(ff) // d * width)
    for pos, v in enumerate(ff):
        if v == 0:
            f_zero = v
            continue
        r, rest = divmod(pos, d * step)
        k, c = divmod(rest, step)
        base = r * width * step + c
        for offset, w in rows[k]:
            acc = out[base + offset]
            out[base + offset] = v * w if acc is None else acc + v * w
    zero = f_zero + g_zero
    flat = [zero if v is None else v for v in out]
    return _trusted(d, out_degree, flat)


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
        return _trusted(f.dim, g.reduced_degree, (Fraction(0),) * f.dim ** g.degree)
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
