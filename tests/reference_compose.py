"""The dense composition kernel that `operad.partial_compose` replaced.

Kept as the oracle of the zero-skipping kernel: every entry is the sum,
from int 0, of all d products of one fibre of f along slot i with one
column of g, zero factors included.  It returns the result's flat row-major
entries; the argument checks of `partial_compose` are left out.
"""

from operator import mul, neg

from operadyn.operad import graded_sign


def dense_partial_compose(f, i, g):
    d = f.dim
    ff, gf = f.coeffs.flat, g.coeffs.flat
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
