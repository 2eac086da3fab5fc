"""Endomorphism operad of a finite-dimensional space, with graded composition.

An operation of degree n on a d-dimensional space V is a multilinear map
V**n -> V, given by its d**(n+1) coefficients, output index first, as one
row-major tuple (the last index varies fastest), its read-only `coeffs`.
Entries may be exact numbers or elements of any commutative ring with the
usual Python operators.  It is the package's one tensor type: the Lax
matrices are degree-1 Operations, and `structure.StructureTensor` is the
Operation of degree 2 on a 3d space.

The public constructor checks the dimension (at most MAX_DIM), the degree
(at most MAX_DEGREE) and the number of entries; every other result is built
through the private `_trusted`, which checks nothing, and a composition may
exceed MAX_DEGREE, up to MAX_ENTRIES entries.

Composition never multiplies by zero.  The linear structure adds entries
as they are, through their own `+` and `-`; where an operand is zero, the
entry's ring decides what the sum is.

Signs are driven by the reduced degree |f| = deg(f) - 1:

    partial_compose(f, i, g) = (-1)**(i*|g|) * (f after g in input slot i),
        for 0 <= i <= |f|, producing degree deg(f) + |g|
    total_compose(f, g)      = sum of partial_compose(f, i, g) over all slots
    gerstenhaber_bracket     = total_compose(f, g)
                               - (-1)**(|f|*|g|) * total_compose(g, f)
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from operator import add, neg, sub

MAX_DIM = 8
MAX_DEGREE = 4
MAX_ENTRIES = 2 ** 20

_new = object.__new__

def graded_sign(exponent):
    """(-1)**exponent for any integer exponent."""
    return -1 if exponent % 2 else 1


class Tensor(tuple):
    """An Operation's `coeffs`: the row-major tuple, also read as `flat` and `size`."""

    __slots__ = ()
    flat = property(tuple)
    size = property(len)


class Operation:
    """A multilinear operation V**degree -> V on a d-dimensional space."""

    __slots__ = ("dim", "degree", "coeffs")

    def __init__(self, dim, degree, flat=None):
        if not isinstance(dim, int) or not (1 <= dim <= MAX_DIM):
            raise ValueError(f"dimension must be an integer in 1..{MAX_DIM}, got {dim!r}")
        if not isinstance(degree, int) or degree < 0:
            raise ValueError(f"degree must be a nonnegative integer, got {degree!r}")
        if degree > MAX_DEGREE:
            raise ValueError(
                f"degree {degree} exceeds the construction limit {MAX_DEGREE}"
                " (composition results may go higher, direct construction may not)"
            )
        size = dim ** (degree + 1)
        if flat is None:
            flat = (Fraction(0),) * size
        # nested rows are not the flat entries
        flat = tuple(flat)
        if len(flat) != size or any(isinstance(v, (list, tuple)) for v in flat):
            raise ValueError(f"expected {size} flat entries for dim {dim}, degree {degree}")
        self.dim = dim
        self.degree = degree
        self.coeffs = Tensor(flat)

    @classmethod
    def from_matrix(cls, rows):
        """A degree-1 operation from a square matrix given as a list of rows."""
        n = len(rows) if isinstance(rows, (list, tuple)) else 0
        if not n or any(not isinstance(row, (list, tuple)) or len(row) != n for row in rows):
            raise ValueError(f"expected a square matrix as a list of rows, got {rows!r}")
        return cls(n, 1, [v for row in rows for v in row])

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
        offset = sum((i - 1) * self.dim ** n for n, i in enumerate(reversed(indices)))
        return self.coeffs[offset]

    @property
    def is_zero(self):
        return all(v == 0 for v in self.coeffs)

    # ---- linear structure --------------------------------------------------

    def _like(self, flat):
        return _trusted(Operation, self.dim, self.degree, flat)

    def _combine(self, op, other):
        if not isinstance(other, Operation):
            return NotImplemented
        if self.dim != other.dim or self.degree != other.degree:
            raise ValueError(
                f"shape mismatch: (dim {self.dim}, degree {self.degree})"
                f" vs (dim {other.dim}, degree {other.degree})"
            )
        return self._like(map(op, self.coeffs, other.coeffs))

    def __add__(self, other):
        return self._combine(add, other)

    def __sub__(self, other):
        return self._combine(sub, other)

    def __neg__(self):
        return self._like(map(neg, self.coeffs))

    def __mul__(self, scalar):
        if isinstance(scalar, (Fraction, int, float, Rational)):
            return self._like(v * scalar for v in self.coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Operation):
            return NotImplemented
        if self.dim != other.dim or self.degree != other.degree:
            return False
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.dim, self.degree, self.coeffs))

    def __repr__(self):
        nonzero = sum(1 for v in self.coeffs if v != 0)
        return f"Operation(dim={self.dim}, degree={self.degree}, nonzero={nonzero})"


def _trusted(cls, dim, degree, flat):
    """The `cls` Operation over row-major entries that fill its shape, unchecked."""
    out = _new(cls)
    out.dim = dim
    out.degree = degree
    out.coeffs = Tensor(flat)
    return out


def partial_compose(f, i, g):
    """Insert g into input slot i of f (slots are 0-based), with the graded sign.

    Defined for 0 <= i <= |f|, so f must have degree at least 1.  The result
    has degree deg(f) + |g| and carries the sign (-1)**(i*|g|).

    No product with a zero factor is formed.  An entry sums its other
    products in increasing order of the contracted index; an entry with
    none is `z_f + z_g`, the plain sum of a zero entry of each operand (int
    0 for an operand without one).  Every entry equals, and hashes
    like, the sum of all products, though a `Poly` entry that comes out zero
    or constant may come back as the equal scalar.
    """
    if not isinstance(f, Operation) or not isinstance(g, Operation):
        raise TypeError("partial_compose expects two Operations")
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if f.degree == 0:
        raise ValueError("a degree-0 operation has no composition slots")
    if not (0 <= i <= f.reduced_degree):
        raise ValueError(f"slot index {i} out of range 0..{f.reduced_degree}")
    return _composed(f, g, [(False, i, graded_sign(i * g.reduced_degree) < 0)])


def _composed(f, g, parts):
    """The Operation of degree deg(f) + |g| that sums the partial
    compositions of `parts` in one entry list: (False, i, negate) puts g
    into slot i of f, (True, i, negate) f into slot i of g, negated where
    `negate` is set.  An entry without a product is `z_f + z_g`, as in
    `partial_compose`.
    """
    d, out_degree = f.dim, f.degree + g.reduced_degree
    # a hard cap on the result's size: a composition may exceed MAX_DEGREE,
    # and only here can the entry count pass MAX_DIM ** (MAX_DEGREE + 1)
    if d ** (out_degree + 1) > MAX_ENTRIES:
        raise ValueError(
            f"composition result would hold {d ** (out_degree + 1)} entries,"
            f" above the cap of {MAX_ENTRIES}"
        )
    out = [None] * d ** (out_degree + 1)
    (f_pairs, f_zero), (g_pairs, g_zero) = _nonzero(f), _nonzero(g)
    signed = {}
    for swap, i, negate in parts:
        outer, outer_pairs, inner, inner_pairs = ((g, g_pairs, f, f_pairs) if swap
                                                  else (f, f_pairs, g, g_pairs))
        if (swap, negate) not in signed:
            signed[swap, negate] = ([(pos, -v) for pos, v in inner_pairs] if negate
                                    else inner_pairs)
        _compose_into(out, outer, i, outer_pairs, signed[swap, negate],
                      len(inner.coeffs) // d)
    zero = f_zero + g_zero
    return _trusted(Operation, d, out_degree, [zero if v is None else v for v in out])


def _nonzero(op):
    """The (position, entry) pairs of op's nonzero entries, in row-major
    order, and its last zero entry (int 0 if it has none)."""
    pairs, zero = [], 0
    for pos, v in enumerate(op.coeffs):
        if v == 0:
            zero = v
        else:
            pairs.append((pos, v))
    return pairs, zero


def _compose_into(out, f, i, f_pairs, g_pairs, width):
    """Add each product of f after g in slot i into the entry list out, from
    the nonzero entries of each, with g's `width` entries per output index.

    The result index is (out, f's inputs before slot i, g's inputs, f's
    inputs after slot i): position (r * width + b) * step + c for the row r
    of f's leading indices, g's input column b and f's trailing inputs c.
    f is walked in row-major order, so each entry receives its products in
    increasing k.  A product lands as it is where out holds None.
    """
    d = f.dim
    step = d ** (f.degree - 1 - i)
    rows = [[] for _ in range(d)]
    for pos, w in g_pairs:
        k, b = divmod(pos, width)
        rows[k].append((b * step, w))
    for pos, v in f_pairs:
        r, rest = divmod(pos, d * step)
        k, c = divmod(rest, step)
        base = r * width * step + c
        for offset, w in rows[k]:
            # a Fraction is central: the other factor's `*` runs first
            product = w * v if type(v) is Fraction else v * w
            acc = out[base + offset]
            out[base + offset] = product if acc is None else acc + product


def _slots(f, g, swap, negate):
    """The parts of the total composition f . g (g . f if swap), each
    negated if negate."""
    outer, inner = (g, f) if swap else (f, g)
    return [(swap, i, (graded_sign(i * inner.reduced_degree) < 0) != negate)
            for i in range(outer.degree)]


def total_compose(f, g):
    """Sum of partial compositions over every input slot of f, in one entry list.

    For degree-0 f the sum is empty: the result is the zero operation of
    degree |g|, and the combination of two degree-0 operations is rejected.
    """
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if f.degree == 0:
        if g.degree == 0:
            raise ValueError("total composition of two degree-0 operations is undefined")
        return _trusted(Operation, f.dim, g.reduced_degree, (Fraction(0),) * f.dim ** g.degree)
    return _composed(f, g, _slots(f, g, False, False))


def gerstenhaber_bracket(f, g):
    """Graded commutator of total composition, [f, g] = f.g - (-1)**(|f||g|) g.f,
    summed in one entry list: every partial composition of f.g, then of g.f."""
    if f.degree == 0 and g.degree == 0:
        raise ValueError("bracket of two degree-0 operations is undefined")
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    plus = graded_sign(f.reduced_degree * g.reduced_degree) < 0
    return _composed(f, g, _slots(f, g, False, False) + _slots(f, g, True, not plus))
