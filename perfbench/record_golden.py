"""Record the table entries the trace oracle compares against.

    PYTHONPATH=src python3 perfbench/record_golden.py

Writes perfbench/golden.json: for each config of the trace pool and each
class, the nine ``tables deformed`` entries in column order.

Run it only at a commit whose outputs are known good: every later run is
held to these entries.
"""

import json
import sys

import workloads


def _tables(argv):
    code, out, err = workloads.run_cli(argv, None)
    if code != 0:
        raise SystemExit(f"operadyn {' '.join(argv)} exited {code}: {err}")
    return out


def main():
    trace = workloads.trace_pool()
    entries = []
    for cfg in trace:
        doc = json.loads(_tables(["tables", "deformed", "--format", "json", *cfg.flags()]))
        entries.append({t["type"]: [e["value"] for e in t["entries"]] for t in doc["types"]})
    golden = {"trace": {"configs": [c.to_json() for c in trace], "entries": entries}}
    with open(workloads.GOLDEN, "w") as fh:
        json.dump(golden, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {workloads.GOLDEN}: {len(trace)} trace configs")


if __name__ == "__main__":
    sys.exit(main())
