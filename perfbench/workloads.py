"""Seeded inputs, operations and output oracles of the two workloads.

Each workload turns a seed into an endless sequence of blocks of operations.
A block holds a fixed multiset of request kinds and sizes; the seed only
shuffles them and draws the rational inputs.  The timed loop always runs
whole blocks, so the work in one run hardly depends on the seed.

Every operation goes through two steps:

    execute(op)   the timed in-process call of ``operadyn.cli.main``
    check(op, y)  the oracle; returns None or a one-line reason

The oracles live here and never read expectations from ``operadyn.cli``.
The deformed entries used by the ``trace`` oracle were recorded once by
``record_golden.py`` and are loaded from ``golden.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

SEED_ENV = "OPERADIC_BIANCHI_SEED"

TAGS = ("I", "II", "VII", "VI", "IX", "VIII", "V", "IV", "VIIa", "IIIa1", "VIa")
PARAMETRIC = ("VIIa", "VIa")

# The paper's classification of the operator brackets.
EXPECTED_KIND = {
    "I": "Rigid", "VII": "Rigid", "VIII": "Rigid", "IX": "Rigid",
    "II": "QuantumLie", "VI": "QuantumLie",
    "IV": "AnomalousI", "V": "AnomalousI",
    "VIIa": "AnomalousII", "IIIa1": "AnomalousII", "VIa": "AnomalousII",
}

VERIFY_SUITES = ("matrix-lax", "operadic-lax", "jacobi-classical", "jacobi-quantum")
COLUMNS = [f"mu{i}_{j}{k}" for (j, k) in ((1, 2), (2, 3), (3, 1)) for i in (1, 2, 3)]
TRACE_HEADER = ["t", "q", "p", "Ap", "Am"] + COLUMNS

# Relative tolerance of the trace oracle: a row's shell relations and its
# nine entries must match the float evaluation of the recorded exact table.
TRACE_TOL = 1e-9

# The pool whose outputs golden.json records.  Its generator is seeded by
# these constants, never by the workload seed.
TRACE_POOL_SIZE = 24
TRACE_POOL_SEED = 20090127

# trace: one block runs every class once; these sample counts are dealt to
# the classes by the seed.
TRACE_SAMPLES = (1000, 1200, 1400, 1600, 1800, 2000, 2200, 2400, 2600, 2800, 3000)

def _rat(rng, top, den):
    return Fraction(rng.randint(1, top), rng.randint(1, den))


def _modulus(rng):
    # VIa needs a != 1 when all classes are listed
    while True:
        a = _rat(rng, 5, 4)
        if a != 1:
            return a


@dataclass(frozen=True)
class Config:
    omega: Fraction
    p0: Fraction
    a: Fraction

    def flags(self):
        return ["--omega", str(self.omega), "--p0", str(self.p0), "--a", str(self.a)]

    def to_json(self):
        return [str(self.omega), str(self.p0), str(self.a)]

    @classmethod
    def from_json(cls, items):
        return cls(*(Fraction(x) for x in items))


def shell_config(rng):
    """omega, a and p0 = s**2/2 of small height, so sqrt(2*p0) = s is rational."""
    s = _rat(rng, 4, 3)
    return Config(_rat(rng, 4, 3), s * s / 2, _modulus(rng))


def trace_pool():
    rng = random.Random(TRACE_POOL_SEED)
    return [shell_config(rng) for _ in range(TRACE_POOL_SIZE)]


def load_golden():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    if golden["trace"]["configs"] != [c.to_json() for c in trace_pool()]:
        raise RuntimeError("golden.json trace pool does not match the generator")
    return golden


# ---------------------------------------------------------------------------
# operations


@dataclass(frozen=True)
class Op:
    """One request: a CLI argv, with the verify seed and the config it uses."""

    argv: tuple
    cfg: Config
    seed_env: int | None = None
    index: int | None = None           # position of cfg in the trace pool

    def describe(self):
        env = f"{SEED_ENV}={self.seed_env} " if self.seed_env is not None else ""
        return env + "operadyn " + " ".join(self.argv)


def run_cli(argv, seed_env):
    """One in-process operadyn invocation; returns (exit code, stdout, stderr)."""
    from operadyn import cli
    out, err = io.StringIO(), io.StringIO()
    if seed_env is None:
        os.environ.pop(SEED_ENV, None)
    else:
        os.environ[SEED_ENV] = str(seed_env)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _check_verify_text(text, cfg):
    """Every suite PASS, and jacobi-quantum reports the paper's classification."""
    got = text.splitlines()
    if len(got) != len(VERIFY_SUITES) + 2:
        return f"expected {len(VERIFY_SUITES) + 2} lines, got {len(got)}"
    if got[0] != f"verify  omega={cfg.omega}  p0={cfg.p0}  a={cfg.a}":
        return f"header {got[0]!r}"
    for suite, line in zip(VERIFY_SUITES, got[1:]):
        if suite == "jacobi-quantum":
            ok = line == f"{suite}: PASS  ({classification_detail(cfg.a)})"
        else:
            ok = line.startswith(f"{suite}: PASS  (")
        if not ok:
            return f"suite line {line!r}"
    if got[-1] != "overall: PASS":
        return f"overall line {got[-1]!r}"
    return None


def classification_detail(a):
    """The jacobi-quantum detail line the paper's classification implies."""
    items = []
    for tag in TAGS:
        label = f"{tag}(a={a})" if tag in PARAMETRIC else tag
        kind = EXPECTED_KIND[tag]
        items.append(f"{label}={kind} tau=-1" if kind == "AnomalousII" else f"{label}={kind}")
    return "; ".join(items)


class CliWorkload:
    """Shared plumbing of the workloads: one ``operadyn.cli.main`` call per operation."""

    def execute(self, op):
        return run_cli(op.argv, op.seed_env)

    def check(self, op, result):
        """result is (exit code, stdout, stderr), in-process or from a subprocess."""
        code, out, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()[:200]}"
        return self.check_output(op, out)


class VerifyWorkload(CliWorkload):
    name = "verify"
    cold_count = 12
    trace_count = 2

    def block(self, seed, b):
        rng = random.Random(f"verify:{seed}:{b}")
        cfg = shell_config(rng)
        return [Op(("verify", "all", *cfg.flags()), cfg, seed_env=rng.randrange(2 ** 31))]

    def check_output(self, op, out):
        return _check_verify_text(out, op.cfg)


def parse_poly(text):
    """Terms (coefficient, exponents) of a canonical polynomial string."""
    text = text.strip()
    if text == "(0)":
        return []
    terms = []
    for chunk in text.split(" + "):
        close = chunk.index(")")
        coeff = float(Fraction(chunk[1:close]))
        exps = [0, 0, 0, 0]
        rest = chunk[close + 1:]
        if rest:
            for factor in rest[1:].split("*"):
                name, _, power = factor.partition("^")
                exps[("q", "p", "Ap", "Am").index(name)] += int(power) if power else 1
        terms.append((coeff, tuple(exps)))
    return terms


def eval_poly(terms, point):
    total = 0.0
    for coeff, exps in terms:
        value = coeff
        for base, e in zip(point, exps):
            if e:
                value *= base ** e
        total += value
    return total


class TraceWorkload(CliWorkload):
    name = "trace"
    # two whole blocks, so every sample count is in the cold sample twice
    cold_count = 2 * len(TAGS)
    trace_count = len(TAGS)

    def __init__(self):
        golden = load_golden()["trace"]
        self.pool = [Config.from_json(c) for c in golden["configs"]]
        self.entries = [{tag: [parse_poly(v) for v in values] for tag, values in per.items()}
                        for per in golden["entries"]]

    def block(self, seed, b):
        rng = random.Random(f"trace:{seed}:{b}")
        tags = list(TAGS)
        samples = list(TRACE_SAMPLES)
        rng.shuffle(tags)
        rng.shuffle(samples)
        ops = []
        for tag, n in zip(tags, samples):
            idx = rng.randrange(len(self.pool))
            cfg = self.pool[idx]
            ops.append(Op(("trace", tag, "--t-samples", str(n), *cfg.flags()), cfg, index=idx))
        return ops

    def check_output(self, op, out):
        cfg = op.cfg
        tag, samples = op.argv[1], int(op.argv[3])
        entries = self.entries[op.index][tag]
        lines = out.splitlines()
        if not lines or lines[0].split(",") != TRACE_HEADER:
            return f"unexpected header {lines[:1]!r}"
        if len(lines) != samples + 1:
            return f"expected {samples} rows, got {len(lines) - 1}"
        w, p0 = float(cfg.omega), float(cfg.p0)
        shell = 0.5 * p0 * p0

        def close(x, y):
            return abs(x - y) <= TRACE_TOL * max(1.0, abs(y))

        for n, line in enumerate(lines[1:]):
            row = [float(v) for v in line.split(",")]
            tm, q, p, ap, am = row[:5]
            if not close(tm, (n * math.pi / w) / samples):
                return f"row {n}: time {tm} off the grid"
            if not (close(0.5 * (p * p + w * w * q * q), shell)
                    and close(ap * ap + am * am, 2 * p0)
                    and close(ap * am, w * q) and ap >= 0):
                return f"row {n}: ({q}, {p}, {ap}, {am}) is off the shell"
            point = (q, p, ap, am)
            for col, (got, terms) in enumerate(zip(row[5:], entries)):
                want = eval_poly(terms, point)
                if not close(got, want):
                    return f"row {n}: {COLUMNS[col]} = {got}, table gives {want}"
        return None


WORKLOADS = {w.name: w for w in (VerifyWorkload, TraceWorkload)}
