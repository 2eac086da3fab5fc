"""The per-sample `trace` path the column path replaced, for the tests.

`reference_flow` is the per-sample flow loop, `scalar_evaluate` the
per-point evaluation loop, and `reference_trace` renders `trace` one row per
sample: the flow at that time, each exact entry evaluated there with
`scalar_evaluate`, and csv.writer over the repr of every value.  The tests
compare `oscillator.sample_flow`, `poly.evaluate_terms` and the CLI's
`trace` output against them byte for byte.
"""

import csv
import io
import math

from operadyn import bianchi, poly
from operadyn.cli import COLUMNS
from operadyn.oscillator import BranchError


def reference_flow(omega, p0, times):
    """q, p, Ap, Am at each time, one sample at a time, every check inline.

    At each time, in order: the chart window |omega*t| < pi, omega > 0 and
    p0 > 0, the closed-form state, the energy shell (relative tolerance
    1e-8), the branch p > -p0, then Ap and Am.  The first failing check of
    the earliest failing sample raises, so an empty `times` returns four
    empty lists whatever the parameters.  The energy is
    0.5*(p*p + (omega*q)*(omega*q)), which stays finite where omega**2
    overflows; every other formula is the one the per-sample loop used.
    """
    qs, ps, aps, ams = [], [], [], []
    for t in times:
        if not abs(omega * t) < math.pi:
            raise BranchError(f"time {t} leaves the chart window |omega*t| < pi")
        if not omega > 0:
            raise ValueError(f"omega must be positive, got {omega}")
        if not p0 > 0:
            raise ValueError(f"p0 must be positive, got {p0}")
        q = (p0 / omega) * math.sin(omega * t)
        p = p0 * math.cos(omega * t)
        energy = 0.5 * (p * p + (omega * q) * (omega * q))
        shell = 0.5 * p0 * p0
        if not abs(energy - shell) <= 1e-8 * max(shell, 1.0):
            raise ValueError(
                f"state is off the energy shell: H = {energy}, expected {shell}")
        if p <= -p0:
            raise BranchError(
                f"quasi-canonical chart requires p > -p0, got p = {p}, p0 = {p0}")
        a_plus = math.sqrt(p0 + p)
        qs.append(q)
        ps.append(p)
        aps.append(a_plus)
        ams.append(omega * q / a_plus)
    return qs, ps, aps, ams


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
    times = [(n * math.pi / w) / samples for n in range(samples)]
    for tm, *point in zip(times, *reference_flow(w, p0f, times)):
        values = [float(scalar_evaluate(terms, point)) for terms in entries]
        writer.writerow([repr(float(v)) for v in (tm, *point, *values)])
    return buf.getvalue()
