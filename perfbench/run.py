"""Seeded benchmark of the operadyn exact verifier.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 60 --trace 0

Workloads: verify, trace (see workloads.py and README.md).
One client runs a closed loop in this process, without threads: the next
operation starts when the previous one has returned and been checked.

``--trace 0`` measures the end-to-end metrics:

    setup_s      median time of a fresh interpreter importing operadyn.cli
    cold_op_s    median time of a subprocess running one operation,
                 over a seeded sample of the workload's operations
    op_p50_ms    median warm in-process operation latency
    op_tail_ms   highest percentile with at least ten samples beyond it
    ops_per_s    operations completed per second of operation time
    peak_rss_mb  peak resident memory of this process
    ok_ratio     operations that passed the oracle over operations attempted

Every time is a wall time scaled to a fixed reference speed of the machine
by a speed probe timed around it (see Speed); the metric lines also print
the raw wall-time medians.

``--trace 1`` runs a fixed number of operations untraced, then again with
every layer wrapped (tracer.py), and prints the per-layer metrics.

Metadata and a line per metric go to stdout first; the last line is one
JSON object {"correct", "attempted", "failed", "metrics"}.  The exit code
is 0 when the run completed, even if an oracle failed (``correct`` is then
false), and 2 when the checkout holds no operadyn sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 15
IMPORTTIME_REPEATS = 3
CALIBRATION_REPEATS = 7
# The speed probe (see Speed): Fraction products summed, then a dict of small
# lists filled, the kind of work operadyn's exact layers do.
PROBE_FRACTIONS = 400
PROBE_ALLOCATIONS = 3000
PROBE_REPEATS = 3
# Probe time at the reference speed: about the probe time when calibration_ms
# reads 20, the middle of what the 2-core VM the benchmark was written on gives.
PROBE_REF_S = 0.0037
SUBPROCESS_TIMEOUT_S = 120
SETUP_MODULE = "operadyn.cli"


def _child_env(seed_env=None):
    env = {k: v for k, v in os.environ.items() if k != "OPERADIC_BIANCHI_SEED"}
    env["PYTHONPATH"] = str(SRC)
    if seed_env is not None:
        env["OPERADIC_BIANCHI_SEED"] = str(seed_env)
    return env


def _run_child(args, seed_env=None, extra=()):
    """Run the interpreter on args from the checkout root; returns (seconds, process)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *extra, *args], cwd=ROOT, env=_child_env(seed_env),
                          capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    return time.perf_counter() - t0, proc


# ---------------------------------------------------------------------------
# metadata


def _calibrate():
    """Median time of a fixed pure-Python kernel, in ms (machine speed right now)."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        x = 0
        for i in range(200_000):
            x = (x * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _probe_kernel():
    """Seconds taken by the fixed work of the speed probe."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, PROBE_FRACTIONS):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    terms = {}
    for i in range(PROBE_ALLOCATIONS):
        terms[(i, i % 7)] = [i, str(i)]
    return time.perf_counter() - t0


class Speed:
    """Scales timed samples to a fixed reference machine speed.

    The machine's speed drifts by up to 1.5x within minutes.  The probe, fixed
    Fraction and allocation work, slows down with it about as much as operadyn
    does, so each sample is multiplied by PROBE_REF_S over the mean of the
    probes taken right before and right after it.  The raw wall times are kept
    for the report.
    """

    def __init__(self):
        self.probes = []
        self.raw = {}

    def probe(self):
        t = statistics.median(_probe_kernel() for _ in range(PROBE_REPEATS))
        self.probes.append(t)
        return t

    def scale(self, metric, seconds, before):
        """seconds at the reference speed, from the probe before and one taken now."""
        self.raw.setdefault(metric, []).append(seconds)
        return seconds * 2 * PROBE_REF_S / (before + self.probe())


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def metadata(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "calibration_ms": round(_calibrate(), 4),
    }


# ---------------------------------------------------------------------------
# shared pieces


class Tally:
    """Attempted and failed operations; prints the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, op, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {op.describe()}: {reason}", file=sys.stderr)


def _run_op(workload, op, tally, speed=None):
    """Time and check one in-process operation; returns (seconds, result).

    With a Speed the seconds are scaled to the reference speed.
    """
    before = speed.probe() if speed else None
    t0 = time.perf_counter()
    try:
        result = workload.execute(op)
    except Exception as exc:  # an operation that raises is a failed operation
        tally.record(op, f"raised {type(exc).__name__}: {exc}")
        return None, None
    elapsed = time.perf_counter() - t0
    if speed:
        elapsed = speed.scale("op", elapsed, before)
    tally.record(op, workload.check(op, result))
    return elapsed, result


def _ops(workload, seed, first_block, count):
    ops, b = [], first_block
    while len(ops) < count:
        ops.extend(workload.block(seed, b))
        b += 1
    return ops[:count]


def _warm_up(workload, seed, tally):
    """One untimed operation so imports and lazy set-up finish before timing."""
    _run_op(workload, workload.block(seed, -1)[0], tally)


def _tail(samples):
    """(percentile, value): highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    # with ten samples or fewer no percentile qualifies; report the maximum
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


# ---------------------------------------------------------------------------
# end-to-end run


def _cold_op(workload, op, tally, speed):
    """Time of one operation in a fresh interpreter, checked like a warm one."""
    before = speed.probe()
    elapsed, proc = _run_child(["-m", SETUP_MODULE, *op.argv], op.seed_env)
    elapsed = speed.scale("cold_op_s", elapsed, before)
    tally.record(op, workload.check(op, (proc.returncode, proc.stdout, proc.stderr)))
    return elapsed


def run_end_to_end(workload, args, tally):
    setup, cold, times = [], [], []
    speed = Speed()

    def setup_sample():
        before = speed.probe()
        elapsed = _run_child(["-c", f"import {SETUP_MODULE}"])[0]
        setup.append(speed.scale("setup_s", elapsed, before))

    # cold operations come from their own blocks, so they never repeat a warm input
    cold_ops = _ops(workload, args.seed, -1 - workload.cold_count, workload.cold_count)
    colds = [lambda op=op: cold.append(_cold_op(workload, op, tally, speed)) for op in cold_ops]
    # alternate the two kinds and spread them evenly over the measured
    # seconds, so they see the same machine as the warm operations do
    samples = []
    for n in range(max(SETUP_REPEATS, len(colds))):
        samples += [setup_sample] * (n < SETUP_REPEATS) + colds[n:n + 1]
    total = len(samples)

    _warm_up(workload, args.seed, tally)
    start = time.perf_counter()
    deadline = start + args.seconds
    b = 0
    while time.perf_counter() < deadline:
        for op in workload.block(args.seed, b):
            elapsed, _ = _run_op(workload, op, tally, speed)
            if elapsed is not None:
                times.append(elapsed)
            # between operations, not blocks: a trace block lasts seconds
            due = total * (time.perf_counter() - start) / args.seconds
            while samples and total - len(samples) < due:
                samples.pop(0)()
        b += 1
    for sample in samples:
        sample()

    pct, tail = _tail(times)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = {k: statistics.median(v) for k, v in speed.raw.items()}
    print(f"speed probe: median {statistics.median(speed.probes) * 1e3:.4f} ms over "
          f"{len(speed.probes)} probes; reference {PROBE_REF_S * 1e3:g} ms")
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters; wall {raw['setup_s']:.4g} s",
        "cold_op_s": f"median of {len(cold)} subprocess operations; "
                     f"wall {raw['cold_op_s']:.4g} s",
        "op_p50_ms": f"median of {len(times)} operations in {b} blocks; "
                     f"wall {raw['op'] * 1e3:.6g} ms",
        "op_tail_ms": f"p{pct:.1f} of {len(times)} operations",
        "ops_per_s": f"wall {len(speed.raw['op']) / sum(speed.raw['op']):.6g} 1/s",
    }
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cold_op_s": (statistics.median(cold), "s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    return metrics, notes


# ---------------------------------------------------------------------------
# traced run


def _import_split(module):
    """(numpy, operadyn) cumulative import seconds from ``python -X importtime``.

    The operadyn figure excludes numpy, which operadyn imports.
    """
    numpy_s, operadyn_s = [], []
    for _ in range(IMPORTTIME_REPEATS):
        _, proc = _run_child(["-c", f"import {module}"], extra=("-X", "importtime"))
        cumulative = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cum, name = line[len("import time:"):].split("|")
            # the least indented line of a package carries its whole subtree
            key = name.strip()
            if key == "numpy" or (key.split(".")[0] == "operadyn"
                                  and len(name) - len(name.lstrip()) == 1):
                cumulative[key] = max(cumulative.get(key, 0), int(cum))
        numpy_us = cumulative.get("numpy", 0)
        ours = sum(v for k, v in cumulative.items() if k != "numpy")
        numpy_s.append(numpy_us / 1e6)
        operadyn_s.append((ours - numpy_us) / 1e6)
    return statistics.median(numpy_s), statistics.median(operadyn_s)


def run_traced(workload, args, tally):
    from tracer import LAYERS, Tracer, layer_metrics

    numpy_s, operadyn_s = _import_split(SETUP_MODULE)
    _warm_up(workload, args.seed, tally)
    ops = _ops(workload, args.seed, 0, workload.trace_count)

    untraced = 0.0
    for op in ops:
        elapsed, _ = _run_op(workload, op, tally)
        untraced += elapsed or 0.0

    tracer = Tracer()
    tracer.install()
    output_bytes = 0
    traced = 0.0
    try:
        for n, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                result = tracer.call(n, workload.execute, op)
            except Exception as exc:  # an operation that raises is a failed operation
                tally.record(op, f"raised {type(exc).__name__}: {exc}")
                continue
            traced += time.perf_counter() - t0
            output_bytes += len(result[1].encode())
            tally.record(op, workload.check(op, result))
    finally:
        tracer.uninstall()

    OUT.mkdir(exist_ok=True)
    # one file per workload, replaced by its next traced run
    spans_path = OUT / f"spans-{workload.name}.tsv.gz"
    tracer.write_spans(spans_path, f"workload={workload.name} seed={args.seed}")

    n = len(ops)
    layer_self = sum(tracer.layer_self(layer) for layer in LAYERS)
    metrics = layer_metrics(tracer, n)
    metrics.update({
        "cli.output_bytes": (output_bytes / n, "bytes/op"),
        "setup.numpy_import_s": (numpy_s, "s"),
        "setup.operadyn_import_s": (operadyn_s, "s"),
        "trace.overhead_ratio": (traced / untraced if untraced else 0.0, "ratio"),
        "trace.layer_self_share": (layer_self / traced if traced else 0.0, "ratio"),
    })
    notes = {
        "trace.overhead_ratio": f"{n} operations: {traced:.3f} s traced, {untraced:.3f} s untraced",
        "trace.layer_self_share": f"{len(tracer.span_name)} spans written to "
                                  f"{spans_path.relative_to(ROOT)}",
    }
    return metrics, notes


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed loop of an end-to-end run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "operadyn" / "__init__.py").is_file():
        print(f"error: no operadyn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # one processor for the run and the interpreters it starts, so that a
    # sample and the speed probes around it run on the same processor
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    meta = metadata(args)
    meta["cpu"] = cpu
    print("meta " + json.dumps(meta, sort_keys=True))
    workload = workloads.WORKLOADS[args.workload]()
    tally = Tally()
    run = run_traced if args.trace else run_end_to_end
    metrics, notes = run(workload, args, tally)

    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"calibration_ms = {_calibrate():.4f} ms (start of run: {meta['calibration_ms']})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
