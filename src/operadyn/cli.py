"""Command-line interface for the tables, verification suites, and traces.

Subcommands:

    tables   render the class table, its deformation, or the operator form
    verify   run exact invariant suites and report pass/fail
    trace    sample a deformation along the oscillator flow as CSV

Rational flags accept fractions ("1/2") or decimal strings ("0.5").  Each
verify suite is a finite exact proof, kept beside the facts it uses, that
returns (ok, detail), whose detail names its argument, so every output
depends only on the flags; only trace computes in floats.  This module
names the suites in one table and renders the lines.

The argparse parser is built once per process and reused; each call parses
into a fresh namespace, so in-process callers see what separate processes
see.

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

from . import bianchi, lax, poly, quantum
from .bianchi import BianchiType
from .ncpoly import _positive
from .oscillator import BranchError
from .structure import PAIRS

# nine independent components in column order
COLUMNS = [f"mu{i}_{j}{k}" for (j, k) in PAIRS for i in (1, 2, 3)]

# each verify suite, in the order `verify all` runs them: its proof, which
# returns (ok, detail), and whether the proof reads the classes'
# certificates (one per class for both Jacobi suites) or takes omega
_VERIFY_SUITES = {
    "matrix-lax": (lax.prove_matrix_lax, False),
    "operadic-lax": (lax.prove_operadic_lax, False),
    "jacobi-classical": (bianchi.ShellReduction.prove_jacobi, True),
    "jacobi-quantum": (quantum.prove_kinds, True),
}


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _positive_float(value, flag):
    """The float of a positive rational flag, or ValueError naming the flag.

    `trace` squares --omega and --p0, and --a enters them for the parametric
    classes, so each square must be a normal float.
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
    """The argparse parser, built on the first call and then reused."""
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
            # value prints as Poly text
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


def _run_verify(which, cfg):
    suites = _VERIFY_SUITES if which == "all" else (which,)
    # one certificate per class, holding its operator defect, serves both
    # Jacobi suites
    certificates = None
    lines = [f"verify  omega={cfg.omega}  p0={cfg.p0}  a={cfg.a}"]
    overall = True
    for name in suites:
        proof, reads_certificates = _VERIFY_SUITES[name]
        if reads_certificates and certificates is None:
            certificates = [(t, quantum.classify(t, cfg.omega, cfg.p0))
                            for t in _selected_types(cfg, None)]
        ok, detail = proof(certificates if reads_certificates else cfg.omega)
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
