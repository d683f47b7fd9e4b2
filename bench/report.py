"""Run every workload of the benchmark and print one table of its metrics.

    python3 bench/report.py [--seed 0] [--seconds 20] [--trace 0|1]

Each workload runs in its own fresh process, one after the other, through
``bench/run.py``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics and the tracing overhead.  Exits 1 if any workload
fails a check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("model", "groups", "simulate")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=BENCH.parent, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        for line in lines:
            if line.startswith(("run_record:", "FAILED")):
                print(f"{workload}: {line}")
        results[workload] = json.loads(lines[-1])

    names = list(results[WORKLOADS[0]]["metrics"])
    print(f"{'metric':30s} {'unit':6s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        cells = "".join(f"{results[w]['metrics'][name]['value']:14.6g}" for w in WORKLOADS)
        print(f"{name:30s} {unit:6s}{cells}")
    for label, key in (("ops", "attempted"), ("ops_failed", "failed")):
        print(f"{label:30s} {'count':6s}" + "".join(f"{results[w][key]:14d}" for w in WORKLOADS))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
