"""Command-line interface for the tables, verification suites, and traces.

Subcommands:

    tables   render the class table, its deformation, or the operator form
    verify   run exact invariant suites and report pass/fail
    trace    sample a deformation along the oscillator flow as CSV

Rational flags accept fractions ("1/2") or decimal strings ("0.5").  Each
verify suite is a finite exact proof whose detail line names its argument
(a degree bound in omega or on the shell conic, or linearity in C1..C9),
so every output depends only on the flags; only trace computes in floats.
`verify` builds each class's operator bracket and Jacobi defect once
(`quantum.classify`): jacobi-quantum reads the certificate, and
jacobi-classical proves the commutative image of its defect, the classical
defect, zero on the energy shell by the two proofs of a `ShellReduction`.

The argparse parser is built once per process, on the first call of
`main`, and reused by every later call; it holds no results, and each call
parses into a fresh namespace, so in-process callers see what separate
processes see.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage errors
and when the output cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import bianchi, poly, quantum
from .bianchi import BianchiType
from .lax import LaxFamilyParams, matrix_lax_residual, operadic_lax_residual
from .ncpoly import _positive
from .oscillator import BranchError
from .structure import PAIRS

# nine independent components in column order
COLUMNS = [f"mu{i}_{j}{k}" for (j, k) in PAIRS for i in (1, 2, 3)]

_VERIFY_SUITES = ("matrix-lax", "operadic-lax", "jacobi-classical", "jacobi-quantum")


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _positive_float(value, flag):
    """The float of a positive rational flag, or ValueError naming the flag.

    Only `trace` computes in floats: it squares --omega and --p0, and --a
    enters them for the parametric classes, so each square must be a normal
    float.
    """
    try:
        f = float(value)
    except OverflowError:
        f = math.inf
    if not (f > 0 and sys.float_info.min <= f * f <= sys.float_info.max):
        raise ValueError(f"{flag} {value} is outside the float range"
                         " (its square must be a normal float)")
    return f


@functools.cache
def _build_parser():
    """The argparse parser, built on the first call and then reused: it holds
    no results, and parse_args returns a fresh Namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="operadyn",
        description="Exact tables, verifications, and traces for dynamically"
                    " deformed 3d Lie brackets driven by the harmonic oscillator.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--omega", type=_fraction, default=Fraction(1),
                       help="oscillator frequency, positive rational (default 1)")
        p.add_argument("--p0", type=_fraction, default=Fraction(2),
                       help="initial momentum, positive rational (default 2)")
        p.add_argument("--a", type=_fraction, default=Fraction(1, 2),
                       help="modulus for the parametric classes (default 1/2)")
        p.add_argument("--out", type=Path, default=None,
                       help="write output to this file instead of stdout")

    t = sub.add_parser("tables", help="render one of the three tables")
    t.add_argument("which", choices=("bianchi", "deformed", "quantum"),
                   help="bianchi: constant tensors; deformed: phase-space"
                        " entries; quantum: operator entries")
    t.add_argument("--type", dest="type_tag", default=None,
                   help="restrict to a single class tag, e.g. II or VIIa")
    t.add_argument("--format", choices=("text", "json", "csv"), default="text")
    add_common(t)

    v = sub.add_parser("verify", help="run an exact invariant suite")
    v.add_argument("which", choices=(*_VERIFY_SUITES, "all"))
    add_common(v)

    r = sub.add_parser("trace", help="sample a deformation along the flow (CSV)")
    r.add_argument("type_tag", metavar="TYPE",
                   help="class tag, e.g. II or VIIa")
    r.add_argument("--t-samples", type=int, default=100, dest="t_samples",
                   help="number of sample times on [0, pi/omega) (default 100)")
    add_common(r)
    return parser


def _selected_types(cfg, tag):
    if tag is not None:
        return [BianchiType(tag, cfg.a if tag in bianchi.PARAMETRIC else None)]
    if cfg.a == 1:
        raise ValueError("--a 1 is not valid when listing all classes:"
                         " type VIa requires a != 1")
    return bianchi.all_types(cfg.a)


# ---------------------------------------------------------------------------
# tables


def _table_rows(which, cfg, tag):
    rows = []
    for t in _selected_types(cfg, tag):
        text = str
        if which == "bianchi":
            tensor = bianchi.structure_constants(t)
        elif which == "deformed":
            tensor = bianchi.deform(t, cfg.omega, cfg.p0)
            # constant entries come back as bare numbers; promote so every
            # value prints as Poly text, which parses back through
            # Poly.from_text when sqrt(2*p0) is rational (a formal s does not)
            text = lambda v: str(poly.as_poly(v))
        else:
            tensor = quantum.quantize(t, cfg.omega, cfg.p0)
        entries = [((i, j, k), text(v)) for (i, j, k), v in tensor.independent_entries()]
        rows.append((t, entries))
    return rows


def _render_tables(which, cfg, tag, fmt):
    rows = _table_rows(which, cfg, tag)
    if fmt == "json":
        import json  # only the formats that write json or csv load them
        doc = {
            "table": which,
            "omega": str(cfg.omega),
            "p0": str(cfg.p0),
            "a": str(cfg.a),
            "types": [
                {
                    "type": t.tag,
                    "label": t.label,
                    "a": str(t.a) if t.a is not None else None,
                    "entries": [
                        {"i": i, "j": j, "k": k, "value": value}
                        for (i, j, k), value in entries
                    ],
                }
                for t, entries in rows
            ],
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        import csv
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["type", "a"] + COLUMNS)
        for t, entries in rows:
            writer.writerow([t.tag, str(t.a) if t.a is not None else ""]
                            + [value for _, value in entries])
        return buf.getvalue()
    lines = [f"table {which}  omega={cfg.omega}  p0={cfg.p0}  a={cfg.a}"]
    for t, entries in rows:
        nonzero = [(idx, value) for idx, value in entries if value not in ("0", "(0)")]
        lines.append(f"{t.label}:")
        if not nonzero:
            lines.append("  (all entries zero)")
        for (i, j, k), value in nonzero:
            lines.append(f"  mu{i}_{j}{k} = {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verify


def _check_matrix_lax(cfg):
    omegas = [cfg.omega + n for n in range(3)]
    for w in omegas:
        if not matrix_lax_residual(poly.q, poly.p, w).is_zero:
            return False, f"nonzero residual in q, p at omega={w}"
    return True, (f"zero polynomial in q, p at omega={', '.join(map(str, omegas))};"
                  " degree <= 2 in omega, so zero for every omega")


def _check_operadic_lax(cfg):
    for n in range(1, 10):
        probe = LaxFamilyParams(tuple(int(m == n) for m in range(1, 10)))
        if not operadic_lax_residual(probe, cfg.omega).is_zero:
            return False, f"nonzero residual for the C{n} probe"
    return True, ("the nine single-parameter probes give the zero tensor;"
                  " linear in C1..C9, so zero for every C")


def _check_jacobi_classical(cfg, certificates):
    # one shell reduction table serves every class
    shell = bianchi.ShellReduction(cfg.omega, cfg.p0)
    components = []
    for t, cert in certificates:
        # the commutative image of the operator defect is the classical one
        raw = [quantum.commutative_image(c, shell.sigma) for c in cert.jacobian]
        reduced = tuple(map(shell.reduce, raw))
        if any(not c.is_zero for c in reduced):
            return False, f"on-shell defect of {t.label} is not zero: {reduced}"
        components += [(t.label, c) for c in raw]
    # a second proof, independent of the reduction
    degree, label = shell.point_defect(components)
    if label is not None:
        return False, f"defect of {label} is not zero at the shell points u = 0..{2 * degree}"
    return True, (f"all classes reduce to zero on shell; each defect has degree"
                  f" <= {degree} on the shell conic and vanishes at its points"
                  f" u = 0..{2 * degree}, so on all of it")


def _check_jacobi_quantum(certificates):
    lines = []
    for t, cert in certificates:
        expected = quantum._EXPECTED_KIND[t.tag]
        if cert.kind != expected:
            return False, f"{t.label} classified {cert.kind}, expected {expected}"
        if expected == quantum.ANOMALOUS_II and cert.tau != -1:
            return False, f"{t.label} has tau={cert.tau}, expected -1"
        tau = f" tau={cert.tau}" if cert.tau is not None else ""
        lines.append(f"{t.label}={cert.kind}{tau}")
    return True, "; ".join(lines)


def _run_verify(which, cfg):
    suites = _VERIFY_SUITES if which == "all" else (which,)
    # one operator bracket and one operator defect per class serve both
    # Jacobi suites: the certificate holds the defect, whose commutative
    # image jacobi-classical proves zero on shell
    certificates = None
    if "jacobi-classical" in suites or "jacobi-quantum" in suites:
        certificates = [(t, quantum.classify(t, cfg.omega, cfg.p0))
                        for t in _selected_types(cfg, None)]
    checks = {
        "matrix-lax": lambda: _check_matrix_lax(cfg),
        "operadic-lax": lambda: _check_operadic_lax(cfg),
        "jacobi-classical": lambda: _check_jacobi_classical(cfg, certificates),
        "jacobi-quantum": lambda: _check_jacobi_quantum(certificates),
    }
    lines = [f"verify  omega={cfg.omega}  p0={cfg.p0}  a={cfg.a}"]
    overall = True
    for name in suites:
        ok, detail = checks[name]()
        overall = overall and ok
        lines.append(f"{name}: {'PASS' if ok else 'FAIL'}  ({detail})")
    lines.append(f"overall: {'PASS' if overall else 'FAIL'}")
    return "\n".join(lines) + "\n", (0 if overall else 1)


# ---------------------------------------------------------------------------
# trace


def _run_trace(cfg, tag, samples):
    (t,) = _selected_types(cfg, tag)
    if samples < 1:
        raise ValueError(f"--t-samples must be at least 1, got {samples}")
    w = _positive_float(cfg.omega, "--omega")
    _positive_float(cfg.p0, "--p0")
    if t.tag in bianchi.PARAMETRIC:
        _positive_float(cfg.a, "--a")
    times = [(n * math.pi / w) / samples for n in range(samples)]
    columns = bianchi.deformation_trace(t, cfg.omega, cfg.p0, times)
    # one row template: a %r per time-dependent column, and the repr of each
    # constant entry written into it once
    template = ",".join("%r" if isinstance(c, list) else repr(c) for c in columns)
    rows = [template % row for row in zip(*(c for c in columns if isinstance(c, list)))]
    return "\n".join([",".join(["t", "q", "p", "Ap", "Am"] + COLUMNS), *rows, ""])


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        for flag in ("omega", "p0", "a"):
            _positive(getattr(args, flag), flag)
        code = 0
        if args.command == "tables":
            text = _render_tables(args.which, args, args.type_tag, args.format)
        elif args.command == "verify":
            text, code = _run_verify(args.which, args)
        else:
            text = _run_trace(args, args.type_tag, args.t_samples)
    except (ValueError, BranchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.out is None:
            sys.stdout.write(text)
        else:
            args.out.write_text(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
