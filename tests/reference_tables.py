"""Independent transcriptions of the deformed brackets, for the tests.

The package generates every deformed table from one path: the class tensor
goes through solve_C, and both `deform` and `quantize` write the Lax family
member of those parameters.  The two tables below were typed in by hand
from the paper instead, so the tests can compare the generated tables
against data that never touched that path:

- `deformation_blueprint` holds each deformed entry as sigma-split terms
  (u, v, var), meaning (u + v*sigma) * var with sigma = sqrt(2*p0);
  `transcribed_deformation` renders it with sigma rational when it is, and
  with the formal s otherwise.
- `operator_table` is the operator form of each class, written directly in
  the free algebra with s formal.

`GRID` is the (omega, p0, a) grid the tests compare them over; it holds
shells with rational and with irrational sqrt(2*p0).
"""

from fractions import Fraction

from operadyn import poly
from operadyn.ncpoly import ExtScalar, NCPoly
from operadyn.poly import Poly, rational_sqrt
from operadyn.structure import StructureTensor

GRID = tuple(
    (omega, p0, a)
    for omega in (Fraction(1), Fraction(2), Fraction(2, 3))
    for p0 in (Fraction(1, 2), Fraction(2), Fraction(9, 8), Fraction(3), Fraction(5, 7))
    for a in (Fraction(3, 2), Fraction(1, 3))
)


def deformation_blueprint(t, omega, p0):
    """sigma-split entry data of the deformed bracket for class t."""
    w = Fraction(omega)
    p0 = Fraction(p0)
    if not (w > 0 and p0 > 0):
        raise ValueError("omega and p0 must be positive")
    a = t.a
    z = Fraction(0)
    half = Fraction(1, 2)
    i2p = 1 / (2 * p0)

    tag = t.tag
    if tag == "I":
        return {}
    if tag == "II":
        return {
            (1, 2, 3): ((half, z, "1"), (i2p, z, "p")),
            (2, 2, 3): ((w * i2p, z, "q"),),
            (1, 3, 1): ((w * i2p, z, "q"),),
            (2, 3, 1): ((half, z, "1"), (-i2p, z, "p")),
        }
    if tag == "VII":
        return {(1, 2, 3): ((Fraction(1), z, "1"),), (2, 3, 1): ((Fraction(1), z, "1"),)}
    if tag == "VI":
        return {
            (1, 2, 3): ((1 / p0, z, "p"),),
            (2, 2, 3): ((w / p0, z, "q"),),
            (1, 3, 1): ((w / p0, z, "q"),),
            (2, 3, 1): ((-1 / p0, z, "p"),),
        }
    if tag in ("IX", "VIII"):
        n3 = Fraction(1) if tag == "IX" else Fraction(-1)
        return {
            (3, 1, 2): ((n3, z, "1"),),
            (1, 2, 3): ((Fraction(1), z, "1"),),
            (2, 3, 1): ((Fraction(1), z, "1"),),
        }
    if tag in ("V", "IV"):
        # 1/sigma = sigma/(2 p0), so a pure 1/sigma coefficient has v = i2p
        out = {
            (1, 1, 2): ((z, i2p, "Am"),),
            (2, 1, 2): ((z, -i2p, "Ap"),),
            (3, 2, 3): ((z, -i2p, "Am"),),
            (3, 3, 1): ((z, i2p, "Ap"),),
        }
        if tag == "IV":
            out[(3, 1, 2)] = ((Fraction(1), z, "1"),)
        return out
    # the three parametric-shaped classes share one skeleton; only the
    # (3,1,2) constant differs
    n3 = Fraction(1) if tag == "VIIa" else Fraction(-1)
    return {
        (1, 1, 2): ((z, a * i2p, "Am"),),
        (2, 1, 2): ((z, -a * i2p, "Ap"),),
        (3, 1, 2): ((n3, z, "1"),),
        (1, 2, 3): ((half, z, "1"), (-i2p, z, "p")),
        (2, 2, 3): ((-w * i2p, z, "q"),),
        (3, 2, 3): ((z, -a * i2p, "Am"),),
        (1, 3, 1): ((-w * i2p, z, "q"),),
        (2, 3, 1): ((half, z, "1"), (i2p, z, "p")),
        (3, 3, 1): ((z, a * i2p, "Ap"),),
    }


_VAR_POLY = {
    "1": Poly.constant(1),
    "q": poly.q,
    "p": poly.p,
    "Ap": poly.a_plus,
    "Am": poly.a_minus,
}


def transcribed_deformation(t, omega, p0):
    """The deformed bracket rendered straight from the blueprint table."""
    sigma = rational_sqrt(2 * Fraction(p0))
    if sigma is None:
        sigma = ExtScalar(0, 1, p0=p0)
    entries = {}
    for key, parts in deformation_blueprint(t, omega, p0).items():
        total = Poly()
        for u, v, var in parts:
            total = total + (u + v * sigma) * _VAR_POLY[var]
        entries[key] = total
    return StructureTensor(entries)


def _complete_tensor(entries, p0):
    """Fill every unset component with the NCPoly zero of the right context."""
    full = {}
    seen = set()
    for (i, j, k), value in entries.items():
        full[(i, j, k)] = value
        seen.add((i, j, k))
        if (i, k, j) not in entries:
            full[(i, k, j)] = -value
            seen.add((i, k, j))
    zero = NCPoly({})
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                if (i, j, k) not in seen:
                    full[(i, j, k)] = zero
    return StructureTensor(full)


def operator_table(t, omega, p0):
    """Hardcoded operator brackets for each class, transcribed independently."""
    w = Fraction(omega)
    p0 = Fraction(p0)
    a = t.a
    i2p = Fraction(1, 2) / p0

    def sc(u, v=Fraction(0)):
        return ExtScalar(u, v, p0=p0)

    def nc(terms):
        return NCPoly(terms)

    one = nc({(): sc(1)})
    tag = t.tag
    if tag == "I":
        entries = {}
    elif tag == "II":
        entries = {
            (1, 2, 3): nc({(): sc(Fraction(1, 2)), ("P",): sc(i2p)}),
            (2, 2, 3): nc({("Q",): sc(w * i2p)}),
            (1, 3, 1): nc({("Q",): sc(w * i2p)}),
            (2, 3, 1): nc({(): sc(Fraction(1, 2)), ("P",): sc(-i2p)}),
        }
    elif tag == "VII":
        entries = {(1, 2, 3): one, (2, 3, 1): one}
    elif tag == "VI":
        entries = {
            (1, 2, 3): nc({("P",): sc(1 / p0)}),
            (2, 2, 3): nc({("Q",): sc(w / p0)}),
            (1, 3, 1): nc({("Q",): sc(w / p0)}),
            (2, 3, 1): nc({("P",): sc(-1 / p0)}),
        }
    elif tag in ("IX", "VIII"):
        entries = {
            (3, 1, 2): one if tag == "IX" else -one,
            (1, 2, 3): one,
            (2, 3, 1): one,
        }
    elif tag in ("V", "IV"):
        inv_s = sc(0, i2p)
        entries = {
            (1, 1, 2): nc({("Am",): inv_s}),
            (2, 1, 2): nc({("Ap",): -inv_s}),
            (3, 2, 3): nc({("Am",): -inv_s}),
            (3, 3, 1): nc({("Ap",): inv_s}),
        }
        if tag == "IV":
            entries[(3, 1, 2)] = one
    else:
        a_inv_s = sc(0, a * i2p)
        entries = {
            (1, 1, 2): nc({("Am",): a_inv_s}),
            (2, 1, 2): nc({("Ap",): -a_inv_s}),
            (3, 1, 2): one if tag == "VIIa" else -one,
            (1, 2, 3): nc({(): sc(Fraction(1, 2)), ("P",): sc(-i2p)}),
            (2, 2, 3): nc({("Q",): sc(-w * i2p)}),
            (3, 2, 3): nc({("Am",): -a_inv_s}),
            (1, 3, 1): nc({("Q",): sc(-w * i2p)}),
            (2, 3, 1): nc({(): sc(Fraction(1, 2)), ("P",): sc(i2p)}),
            (3, 3, 1): nc({("Ap",): a_inv_s}),
        }
    return _complete_tensor(entries, p0)
