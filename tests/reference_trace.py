"""The per-sample `trace` path the column path replaced, for the tests.

`scalar_evaluate` is the per-point evaluation loop, and `reference_trace`
renders `trace` one row per sample: the flow at that time, each exact entry
evaluated there with `scalar_evaluate`, and csv.writer over the repr of
every value.  The tests compare `poly.evaluate_terms` and the CLI's `trace`
output against them byte for byte.
"""

import csv
import io
import math

from operadyn import bianchi, oscillator, poly
from operadyn.cli import COLUMNS


def scalar_evaluate(terms, point):
    """Sum of coeff * q^i p^j Ap^k Am^l at one point: start at int 0, add the
    terms in order, one multiply per unit of exponent."""
    total = 0
    for exps, coeff in terms:
        value = coeff
        for base, e in zip(point, exps):
            for _ in range(e):
                value = value * base
        total = total + value
    return total


def reference_trace(tag, omega, p0, a, samples):
    """`operadyn trace TAG --t-samples SAMPLES` at (omega, p0, a), row by row."""
    t = bianchi.BianchiType(tag, a if tag in bianchi.PARAMETRIC else None)
    entries = [poly.as_poly(v).terms.items()
               for _, v in bianchi.deform(t, omega, p0).independent_entries()]
    w, p0f = float(omega), float(p0)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "q", "p", "Ap", "Am"] + COLUMNS)
    for n in range(samples):
        tm = (n * math.pi / w) / samples
        state = oscillator.exact_flow(w, p0f, tm)
        coords = oscillator.quasi_coords(state)
        point = (state.q, state.p, coords.a_plus, coords.a_minus)
        values = [float(scalar_evaluate(terms, point)) for terms in entries]
        writer.writerow([repr(float(v)) for v in (tm, *point, *values)])
    return buf.getvalue()
