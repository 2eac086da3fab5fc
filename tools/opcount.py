"""Count the Python-level work of `verify`, `tables` and `trace` in two operadyn trees.

For `verify all`, each of its four suites alone, `tables quantum` (the
operator table), `tables deformed` (the phase-space table) and `trace VIIa
--t-samples 100` (the exact table and its float samples), at two fixed flag
sets (the defaults, where sqrt(2*p0) = 2 is rational, and one where
sqrt(2*p0) = sqrt(6) stays formal), prints four counts per tree, taken with
`sys.setprofile` over one in-process `operadyn.cli.main` call after a
warm-up call:

    calls      Python function calls (profile "call" events, generator
               resumptions included)
    operadyn   the calls whose code lies in the `operadyn` package, so
               operadyn's own share of `calls`, without the standard
               library's (argparse, fractions, abc) and the counter's
    Fractions  calls of `Fraction.__new__`, so every Fraction built
    ABC        calls of `ABCMeta.__instancecheck__`, the Python-level
               isinstance check of an abstract base class: `numbers.Rational`
               and `Fraction` (whose metaclass is `ABCMeta`) alike, so every
               check whose class is not the exact type of the instance

The counts depend on the code alone, so they repeat exactly from run to run
and from machine to machine (for one Python version):

    python3 tools/opcount.py BASE_SRC NEW_SRC

where each argument is a directory holding the `operadyn` package (the
`src/` of a checkout).  Each count runs in a fresh interpreter with that
directory first on the path.  Exit code 0 when every run completed with the
same exit code under both trees.  Standard library only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

COMMANDS = (*(("verify", suite) for suite in
               ("all", "matrix-lax", "operadic-lax", "jacobi-classical", "jacobi-quantum")),
            ("tables", "quantum"), ("tables", "deformed"),
            ("trace", "VIIa", "--t-samples", "100"))

FLAG_SETS = (
    ("defaults: omega=1 p0=2 a=1/2, sqrt(2*p0) = 2", ()),
    ("omega=3/2 p0=3 a=2/3, sqrt(2*p0) = sqrt(6)", ("--omega", "3/2", "--p0", "3", "--a", "2/3")),
)

COUNTS = ("calls", "operadyn", "Fractions", "ABC")

# run in the child: warm up once, then count one call of main
CHILD = r"""
import abc, contextlib, io, json, os, sys
from fractions import Fraction
import operadyn
from operadyn import cli

argv = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(argv)
counts = {"calls": 0, "operadyn": 0, "Fractions": 0, "ABC": 0}
new_code = Fraction.__new__.__code__
check_code = abc.ABCMeta.__instancecheck__.__code__
package = os.path.dirname(operadyn.__file__) + os.sep

def profile(frame, event, arg):
    if event != "call":
        return
    counts["calls"] += 1
    code = frame.f_code
    if code.co_filename.startswith(package):
        counts["operadyn"] += 1
    elif code is new_code:
        counts["Fractions"] += 1
    elif code is check_code:
        counts["ABC"] += 1

out = io.StringIO()
with contextlib.redirect_stdout(out):
    sys.setprofile(profile)
    try:
        code = cli.main(argv)
    finally:
        sys.setprofile(None)
print(json.dumps({"exit": code, "counts": counts}))
"""


def count(src, argv):
    """The exit code and counts of one command line under src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True,
                          env=env, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["exit"], result["counts"]


def _change(base, new):
    ratio = f"{(new - base) / base:+.1%}" if base else "n/a"
    return f"{base:>7} -> {new:>7} ({ratio})"


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        print("usage: python3 tools/opcount.py BASE_SRC NEW_SRC", file=sys.stderr)
        return 2
    base_src, new_src = args
    same = True
    for title, flags in FLAG_SETS:
        print(f"flags: {title}")
        print((f"  {'command':<28}" + "".join(f"{name:<31}" for name in COUNTS)).rstrip())
        for command in COMMANDS:
            base_exit, base = count(base_src, (*command, *flags))
            new_exit, new = count(new_src, (*command, *flags))
            same = same and base_exit == new_exit
            line = "".join(f"{_change(base[name], new[name]):<31}" for name in COUNTS)
            note = "" if base_exit == new_exit else f"  exit {base_exit} -> {new_exit}"
            print(f"  {' '.join(command):<28}{line.rstrip()}{note}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
