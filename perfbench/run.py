#!/usr/bin/env python3
"""patchcast benchmark: run one workload in its own process.

Run from the repository root:

    python3 perfbench/run.py --workload pretrain_short --seed 0 --seconds 20 --trace 0

The workload process runs with OPENBLAS_NUM_THREADS=1 and imports patchcast
from ``src/`` of this checkout. Its stdout is relayed; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones of a traced run. The exit code is 0 only when every
output check passed. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("pretrain_short", "pretrain_long", "forecast_stream", "evaluate_cli")
DEADLINE_S = 175  # the whole command must end within 180 s
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main() -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    src = ROOT / "src"
    if not (src / "patchcast" / "__init__.py").is_file():
        print(f"error: {src}/patchcast not found; run from a patchcast checkout",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = str(src)
    env.pop("PATCHCAST_OUTPUT_DIR", None)
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=DEADLINE_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"error: workload {args.workload} ran past {DEADLINE_S} s", file=sys.stderr)
        return 3

    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        print(f"error: workload exited {proc.returncode} without a result line",
              file=sys.stderr)
        return proc.returncode or 4
    print("\n".join(lines))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
