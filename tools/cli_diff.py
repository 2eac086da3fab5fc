"""Compare the CLI output of two operadyn source trees byte for byte.

Runs every `tables` format, two single-class tables (`--type VIIa` deformed,
`--type II` quantum), `verify all` and each of its four suites alone (each
suite has its own dispatch), `trace` of all eleven classes and the edge
cases of the trace row template (an all-constant table and a single row:
`trace I --t-samples 1`, `trace VIIa --t-samples 1`; 2000 and 3000 samples,
sizes the benchmark's trace workload runs) at a set of (omega, p0, a)
configs under both trees, then the error paths (no samples, an --omega or
--p0 whose square overflows, an unknown tag, a nonpositive flag, --a 1 when
listing all classes, an unwritable --out), `verify` at extreme flags (a
flag, or a Jacobi coefficient of the flags, outside the float range), the
`--help` text of the program and of each subcommand, and every demo script,
and reports each command whose stdout, stderr or exit code differs.  A
command that fails is compared like any other: its exit code and its error
text are part of the contract.

    python3 tools/cli_diff.py BASE_SRC NEW_SRC

where each argument is a directory holding the `operadyn` package (the
`src/` of a checkout).  Each tree runs its own demos, from the `demos/`
beside its `SRC` when there is one and from this checkout's otherwise, so a
demo that follows an API change is compared by its output.  The demos are
matched by file name; one that only one tree has is reported as differing.
The two trees run under two different fixed `PYTHONHASHSEED` values, whatever
the caller's environment holds, so output that depends on the iteration
order of a set or dict of strings shows up as a difference.
The summary ends with the line count of each tree's `operadyn/*.py` (as
`wc -l` counts them) and the difference, `src lines: 2420 -> 2370 (-50)`,
then the same for its code lines, the lines that hold a token of code (no
comment, docstring or blank line), `src code lines: 1408 -> 1383 (-25)`,
followed by each module's code lines, `  cli.py: 225 -> 184 (-41)`, so that
code moved from one module to another shows as well as the net change (a
module that only one tree has counts 0 in the other).
Exit code 0 when every compared command matches.
"""

from __future__ import annotations

import ast
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# the eleven class tags, in the order of operadyn.bianchi.TAGS
TAGS = ("I", "II", "VII", "VI", "IX", "VIII", "V", "IV", "VIIa", "IIIa1", "VIa")

# the verify suites, in the order `verify all` runs them
SUITES = ("matrix-lax", "operadic-lax", "jacobi-classical", "jacobi-quantum")

CONFIGS = (
    (),
    ("--omega", "3/2", "--p0", "9/8", "--a", "2/3"),
    ("--omega", "2", "--p0", "1/2", "--a", "3/2"),
    ("--omega", "5/7", "--p0", "25/18", "--a", "7/5"),
    ("--omega", "1", "--p0", "8", "--a", "1/3"),
    ("--p0", "3"),
    ("--omega", "2/3", "--p0", "5/7", "--a", "3"),
    # large but inside the float range: the squares of omega and p0 are finite
    ("--omega", "1e150", "--p0", "1e100"),
)

# commands that exit 2 with one line on stderr
ERRORS = (
    ("trace", "VIIa", "--t-samples", "0"),
    ("trace", "VIIa", "--omega", "1e300"),
    ("trace", "VIIa", "--p0", "1e200"),
    ("trace", "X"),
    ("tables", "bianchi", "--omega", "0"),
    ("tables", "bianchi", "--p0", "-2"),
    ("tables", "bianchi", "--a", "0"),
    ("verify", "all", "--a", "1"),
    ("tables", "bianchi", "--out", "/nonexistent/dir/x.txt"),
)

# verify at flags whose values or Jacobi coefficients leave the float range
EXTREME_VERIFY = (
    ("verify", "jacobi-classical", "--a", "1e150", "--p0", "1e-150"),
    ("verify", "all", "--a", "1e150", "--p0", "1e-150"),
    ("verify", "jacobi-classical", "--omega", "1e-150", "--p0", "1e150"),
    ("verify", "jacobi-classical", "--omega", "1e-153", "--p0", "1e120", "--a", "1e77"),
    ("verify", "all", "--p0", "1e400"),
)

# the hash seeds of the base and the new tree: fixed, and not equal
HASH_SEEDS = ("1", "2")

# the usage text, which exits 0
HELP = (
    ("--help",),
    ("tables", "--help"),
    ("verify", "--help"),
    ("trace", "--help"),
)


def commands():
    for cfg in CONFIGS:
        for which in ("bianchi", "deformed", "quantum"):
            for fmt in ("text", "json", "csv"):
                yield ("tables", which, "--format", fmt, *cfg)
        yield ("tables", "deformed", "--type", "VIIa", *cfg)
        yield ("tables", "quantum", "--type", "II", *cfg)
        for suite in ("all", *SUITES):
            yield ("verify", suite, *cfg)
        for tag in TAGS:
            yield ("trace", tag, *cfg)
        yield ("trace", "VIIa", "--t-samples", "2000", *cfg)
        yield ("trace", "I", "--t-samples", "1", *cfg)
        yield ("trace", "VIIa", "--t-samples", "1", *cfg)
        yield ("trace", "IX", "--t-samples", "3000", *cfg)
    yield from ERRORS
    yield from EXTREME_VERIFY
    yield from HELP


def demos(*srcs):
    """The demo file names of the trees, each named once, as commands."""
    names = set()
    for src in srcs:
        names.update(path.name for path in demo_dir(src).glob("*.py"))
    return [(name,) for name in sorted(names)]


def demo_dir(src):
    """The `demos/` beside `src`, or this checkout's when it has none."""
    sibling = Path(src).resolve().parent / "demos"
    return sibling if sibling.is_dir() else DEMOS


def run(src, argv, seed):
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
    # a demo is a script name; everything else is a CLI command line
    if argv[0].endswith(".py"):
        script = demo_dir(src) / argv[0]
        if not script.is_file():
            return "missing", b"", b""
        head = (str(script),)
    else:
        head = ("-m", "operadyn.cli", *argv)
    proc = subprocess.run([sys.executable, *head], capture_output=True, env=env, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def src_lines(src):
    """The number of lines of the tree's `operadyn/*.py`."""
    return sum(path.read_bytes().count(b"\n") for path in Path(src, "operadyn").glob("*.py"))


# tokens that are not code: comments, line ends, indentation and file marks
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text):
    """The number of lines of Python source that hold a token of code, not
    counting the lines of a module, class or function docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def module_code_lines(src):
    """{file name: number of code lines} of the tree's `operadyn/*.py`."""
    return {path.name: code_lines(path.read_text()) for path in Path(src, "operadyn").glob("*.py")}


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.exit(__doc__)
    base, new = args
    same = differ = 0
    for cmd in (*commands(), *demos(base, new)):
        old, cur = run(base, cmd, HASH_SEEDS[0]), run(new, cmd, HASH_SEEDS[1])
        if old == cur:
            same += 1
        else:
            differ += 1
            print(f"DIFFERS (exit {old[0]} -> {cur[0]}): {' '.join(cmd)}")
    print(f"{same} identical, {differ} different")
    before, after = src_lines(base), src_lines(new)
    print(f"src lines: {before} -> {after} ({after - before:+d})")
    before, after = module_code_lines(base), module_code_lines(new)
    rows = [("src code lines", sum(before.values()), sum(after.values()))]
    rows += [(f"  {name}", before.get(name, 0), after.get(name, 0))
             for name in sorted(before.keys() | after.keys())]
    for label, old, cur in rows:
        print(f"{label}: {old} -> {cur} ({cur - old:+d})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
