#!/usr/bin/env python3
"""Record the per-seed output values the benchmark checks against.

For each workload and seed this runs the operations that define the
workload's quality value and stores it in perfbench/expected.json:
final_loss (pretrain_*), the mean forecast NRMSE (forecast_stream) and the
model NRMSE of summary.json (evaluate_cli). Rerun it only when the workload
inputs change on purpose, from the repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/record_expected.py --seeds 0-99
"""

import argparse
import json
import sys

import workloads

TOLERANCE = {
    "relative": 1e-8,
    "reason": "Summing float64 values in another order (fused tape ops, batched or "
              "KV-cached inference, BLAS row blocking) perturbs each op by about 1e-16 "
              "relative. Scaling every initial weight by 1+1e-12 moved final_loss by "
              "at most 5e-12 relative on pretrain_short and pretrain_long, so such "
              "rounding stays far below 1e-8. A change to the maths moves these "
              "values by much more.",
}


def record(name: str, seed: int) -> float:
    print(f"{name} seed {seed}", file=sys.stderr, flush=True)
    w = workloads.WORKLOADS[name](seed)
    w.setup()
    w.prepare()
    try:
        for j in range(w.ops_per_pass):
            w.op(j)
    finally:
        w.close()
    return w.quality()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-99")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    out = {"tolerance": TOLERANCE,
           "quality": workloads.QUALITY,
           "workloads": {name: {str(seed): record(name, seed) for seed in range(lo, hi + 1)}
                         for name in workloads.WORKLOADS}}
    workloads.EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.EXPECTED} for seeds {lo}-{hi}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
