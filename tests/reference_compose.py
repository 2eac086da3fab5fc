"""Reference multilinear algebra the composition tests compare against.

`dense_partial_compose` is the dense kernel that `operad.partial_compose`
replaced, kept as the oracle of the zero-skipping kernel: every entry is the
sum, from int 0, of all d products of one fibre of f along slot i with one
column of g, zero factors included.  It returns the result's flat row-major
entries; the argument checks of `partial_compose` are left out.

`apply` evaluates an operation on vectors, the semantic oracle of
composition, and `triple_product` is the determinant that the Jacobi
defect of a 3d bracket factors through.

`quantum_jacobian` is the general weighted Jacobi defect of an operator
bracket at any three scalar vectors, the oracle of the weight-free cyclic
kernel `quantum.basis_jacobian` runs at the basis triple.

`total_of_partials` and `bracket_of_partials` sum the partial compositions
as Operations, the oracle of the one entry list `operad.total_compose` and
`operad.gerstenhaber_bracket` fill.
"""

from fractions import Fraction
from operator import mul, neg

from operadyn.ncpoly import NCPoly
from operadyn.operad import graded_sign, partial_compose, total_compose
from operadyn.quantum import JacobianTriple, _nc_entries
from operadyn.structure import _position


def dense_partial_compose(f, i, g):
    d = f.dim
    ff, gf = f.coeffs, g.coeffs
    step = d ** (f.degree - 1 - i)
    block = d * step
    fibres = [[ff[start + r:start + block:step] for r in range(step)]
              for start in range(0, len(ff), block)]
    if graded_sign(i * g.reduced_degree) < 0:
        gf = tuple(map(neg, gf))
    width = len(gf) // d
    columns = [gf[b::width] for b in range(width)]
    return tuple(sum(map(mul, fibre, column))
                 for row in fibres for column in columns for fibre in row)


def apply(op, vectors):
    """Evaluate op on a sequence of `degree` vectors, returning a vector (a tuple)."""
    vectors = list(vectors)
    if len(vectors) != op.degree:
        raise ValueError(f"operation of degree {op.degree} takes {op.degree} arguments,"
                         f" got {len(vectors)}")
    d = op.dim
    out = op.coeffs
    for vec in vectors:
        v = tuple(vec)
        if len(v) != d:
            raise ValueError(f"expected a vector of length {d}, got {vec!r}")
        # contract the first input axis, whose stride is `step`
        block = len(out) // d
        step = block // d
        out = tuple(sum(map(mul, out[start + r:start + block:step], v))
                    for start in range(0, len(out), block) for r in range(step))
    return out


def triple_product(x, y, z):
    """Scalar triple product: the determinant of the rows x, y, z."""
    x, y, z = (tuple(map(Fraction, v)) for v in (x, y, z))
    return (x[0] * (y[1] * z[2] - y[2] * z[1])
            - x[1] * (y[0] * z[2] - y[2] * z[0])
            + x[2] * (y[0] * z[1] - y[1] * z[0]))


def _as_vector(x):
    vec = tuple(Fraction(c) for c in x)
    if len(vec) != 3:
        raise ValueError(f"expected a 3-vector, got {x!r}")
    return vec


def quantum_jacobian(mu, x, y, z):
    """Jacobi defect of the operator bracket mu at scalar vectors x, y, z.

    Component m accumulates mu^m_{l k} * mu^k_{i j} * x^i y^j z^l plus the
    two cyclic rotations of (x, y, z), products taken in exactly that order
    (the formula of the `quantum` module docstring).  Each nonzero weight is
    computed once for all three components.
    """
    x = _as_vector(x)
    y = _as_vector(y)
    z = _as_vector(z)
    ent = _nc_entries(mu)

    # (i, j, l, u^i v^j w^l) in (rotation, i, j, l) order; a zero factor
    # skips the weight before anything is multiplied
    weights = [(i, j, l, u[i - 1] * v[j - 1] * w[l - 1])
               for (u, v, w) in ((x, y, z), (y, z, x), (z, x, y))
               for i in (1, 2, 3) if u[i - 1]
               for j in (1, 2, 3) if v[j - 1]
               for l in (1, 2, 3) if w[l - 1]]

    components = []
    for m in (1, 2, 3):
        total = NCPoly({})
        for i, j, l, weight in weights:
            for k in (1, 2, 3):
                term = ent[_position(m, l, k)] * ent[_position(k, i, j)]
                # a unit weight, like each of the basis triple's, scales nothing
                total = total + (term if weight == 1 else weight * term)
        components.append(total)
    return JacobianTriple(*components)


def total_of_partials(f, g):
    """The total composition as the `Operation` sum of its partial
    compositions, the body `operad.total_compose` had before it summed
    every slot into one entry list."""
    if f.degree == 0:
        return total_compose(f, g)
    acc = partial_compose(f, 0, g)
    for i in range(1, f.degree):
        acc = acc + partial_compose(f, i, g)
    return acc


def bracket_of_partials(f, g):
    """The Gerstenhaber bracket as the `Operation` difference (or sum) of
    the two total compositions, each summed from its partial compositions."""
    a, b = total_of_partials(f, g), total_of_partials(g, f)
    return a + b if graded_sign(f.reduced_degree * g.reduced_degree) < 0 else a - b
