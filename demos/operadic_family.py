"""The nine-parameter family of binary operations obeying the same Lax flow.

The matrix story lifts from endomorphisms to binary operations: a family
mu(C1..C9) of structure tensors built from q, p, and the half-angle pair
satisfies d(mu)/dt = [M, mu] identically in the phase-space variables.

Run as: python3 demos/operadic_family.py
"""

import random
from fractions import Fraction

from operadyn import LaxFamilyParams, formal_mu, operadic_lax_residual

print("single-parameter probes: switch on one C at a time")
for slot in range(1, 10):
    c = [Fraction(0)] * 9
    c[slot - 1] = Fraction(1)
    params = LaxFamilyParams(tuple(c))
    mu = formal_mu(params, Fraction(1))
    nonzero = [(idx, str(v)) for idx, v in mu.independent_entries() if v != 0]
    residual = operadic_lax_residual(params, Fraction(1))
    state = "residual zero" if residual.is_zero else "RESIDUAL NONZERO"
    print(f"  C{slot} = 1: {state};", ", ".join(
        f"mu^{i}_{{{j}{k}}} = {text}" for (i, j, k), text in nonzero[:2]),
        "..." if len(nonzero) > 2 else "")
print()

print("a random parameter vector, checked as polynomials (exact):")
rng = random.Random(17)
params = LaxFamilyParams(tuple(
    Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(9)))
print("  C =", [str(v) for v in params.c])
residual = operadic_lax_residual(params, Fraction(2))
print("  d(mu)/dt - [M, mu] is the zero tensor:", residual.is_zero)
print()

print("the family entries mix three ingredients: rotations of (q, p), the")
print("half-angle pair (A+, A-), and constants; the admissibility flag")
print("records whether any dynamical parameter is switched on:")
print("  admissible:", params.is_admissible)
constant_only = LaxFamilyParams((0, 0, 0, 1, 0, 0, 0, 0, 1))
print("  constants C4, C9 alone:", constant_only.is_admissible)
