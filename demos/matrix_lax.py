"""The 3x3 matrix Lax pair of the oscillator, checked in exact arithmetic.

Run as: python3 demos/matrix_lax.py
"""

from fractions import Fraction

from operadyn import build_matrix_lax, matrix_lax_residual

q, p, w = Fraction(1), Fraction(2), Fraction(3)
pair = build_matrix_lax(q, p, w)


def rows(m):
    """The rows of a 3x3 matrix (a degree-1 operation), entry by entry."""
    return [[m.entry(i + 1, j + 1) for j in range(3)] for i in range(3)]


def product(a, b):
    """The 3x3 matrix product a b, as rows."""
    return [[sum(a.entry(i + 1, k + 1) * b.entry(k + 1, j + 1) for k in range(3))
             for j in range(3)] for i in range(3)]


print(f"Lax pair at q = {q}, p = {p}, omega = {w}")
print()
print("L =")
for row in rows(pair.L):
    print("   ", [str(v) for v in row])
print("M =")
for row in rows(pair.M):
    print("   ", [str(v) for v in row])
print()

ml, lm = product(pair.M, pair.L), product(pair.L, pair.M)
commutator = [[x - y for x, y in zip(r, s)] for r, s in zip(ml, lm)]
print("[M, L] =")
for row in commutator:
    print("   ", [str(v) for v in row])
print()
print("and dL/dt along the flow (q' = p, p' = -omega^2 q) gives the same")
print("matrix, so the residual dL/dt - [M, L] vanishes identically:")
residual = matrix_lax_residual(q, p, w)
print("residual =", [[str(v) for v in row] for row in rows(residual)])
print()

# isospectrality: the invariants of L are conserved along the flow
trace_l2 = sum(product(pair.L, pair.L)[i][i] for i in range(3))
print(f"tr L^2 = {trace_l2} = 2 (p^2 + omega^2 q^2) + 1, twice the energy plus")
print("the unit block, so the spectrum of L encodes the conserved Hamiltonian.")
print()

print("spot checks at random rational points (exact, no tolerance):")
import random

rng = random.Random(5)
for n in range(3):
    qv = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    pv = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    wv = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    r = matrix_lax_residual(qv, pv, wv)
    print(f"  q = {str(qv):>5}, p = {str(pv):>5}, omega = {str(wv):>4}:"
          f" residual {'zero' if r.is_zero else 'NONZERO'}")
