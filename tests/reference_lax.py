"""The Lax family member derived through ring arithmetic, for the tests.

`lax.build_mu` writes each entry from its terms in `lax._FAMILY`.  Before
that it computed the family formula with `+`, `-` and `*` on its arguments,
coordinate on the left of each product, and built the tensor through the
checked sparse constructor, which fills each mirror as -value (a Fraction 0
as itself).  `build_mu` here is that body, kept as the oracle: the tests
compare every entry's type, value and term order against it.

`word_derivative` is the flow derivation on the free algebra, which `lax`
never needs: `lax._time_derivative` differentiates commuting monomials.
"""

from operadyn.ncpoly import NCPoly
from operadyn.structure import StructureTensor


def build_mu(params, q, p, a_plus, a_minus, omega):
    """The family member mu(C1..C9) by the ring arithmetic of its formula."""
    c1, c2, c3, c4, c5, c6, c7, c8, c9 = params.c
    wq = q * omega
    entries = {
        (1, 2, 3): p * c2 - wq * c3 - c4,
        (2, 1, 3): p * c2 - wq * c3 + c4,
        (1, 3, 1): wq * c2 + p * c3 - c1,
        (2, 2, 3): wq * c2 + p * c3 + c1,
        (1, 1, 2): a_plus * c5 + a_minus * c6,
        (2, 1, 2): a_minus * c5 - a_plus * c6,
        (3, 1, 3): a_plus * c7 + a_minus * c8,
        (3, 2, 3): a_minus * c7 - a_plus * c8,
        (3, 1, 2): c9,
    }
    return StructureTensor(entries)


def word_derivative(value, omega):
    """d/dt of an NCPoly through Q' = P, P' = -omega**2 Q, Ap' = -(omega/2) Am
    and Am' = (omega/2) Ap, by the Leibniz rule with product order kept: each
    letter of a word is replaced, in its place, by its derivative."""
    flow = {"Q": (1, "P"), "P": (-omega * omega, "Q"),
            "Ap": (-omega / 2, "Am"), "Am": (omega / 2, "Ap")}
    out = {}
    for word, c in value.terms.items():
        for n, letter in enumerate(word):
            factor, image = flow[letter]
            key = word[:n] + (image,) + word[n + 1:]
            out[key] = out.get(key, 0) + c * factor
    return NCPoly(out)
