"""Deform each 3d real Lie algebra class along the oscillator flow.

Every class tensor in the classification embeds into the nine-parameter
family: solving for C at the reference point t = 0 yields a deformation
whose bracket satisfies the Jacobi identity on the energy shell at all
times, even though most entries depend on (q, p, A+, A-).

Run as: python3 demos/bianchi_tables.py
"""

from fractions import Fraction

from operadyn import (all_types, as_poly, classical_jacobian, deform, is_rigid,
                      raw_jacobian, solve_C, structure_constants)

OMEGA, P0 = Fraction(1), Fraction(2)

print(f"omega = {OMEGA}, p0 = {P0} (so sqrt(2 p0) = 2 stays rational)")
print()

for t in all_types(Fraction(1, 2)):
    constants = structure_constants(t)
    params = solve_C(constants, P0)
    mu = deform(t, OMEGA, P0)
    rigid = is_rigid(t)

    print(f"{t.label}:")
    print("  class tensor:", ", ".join(
        f"mu^{i}_{{{j}{k}}} = {v}" for (i, j, k), v in
        constants.independent_entries() if v != 0) or "zero bracket")
    print("  family parameters C1..C9 (s = sqrt(2 p0)):", [str(v) for v in params.c])
    if rigid:
        print("  rigid: the deformation never leaves the constant tensor")
    else:
        moving = [(idx, str(v)) for idx, v in mu.independent_entries()
                  if not as_poly(v).is_constant]
        print(f"  {len(moving)} entries move with the flow, e.g."
              f" mu^{moving[0][0][0]}_{{{moving[0][0][1]}{moving[0][0][2]}}}"
              f" = {moving[0][1]}")
    reduced = classical_jacobian(mu, OMEGA, P0)
    print("  Jacobi defect on the energy shell:",
          "(0, 0, 0)" if all(c.is_zero for c in reduced) else reduced)
    print()

print("off the shell the defect is generally nonzero; for VIIa(a=1/2) the")
print("first raw component is")
from operadyn import BianchiType

mu = deform(BianchiType("VIIa", Fraction(1, 2)), OMEGA, P0)
print("  J^1 =", raw_jacobian(mu)[0])
print("which only cancels after substituting the shell relations, so the")
print("deformed brackets are honest Lie brackets precisely on shell.")
