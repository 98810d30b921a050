#!/usr/bin/env python3
"""Print sha256 digests of the program's outputs on the benchmark inputs.

One JSON object on stdout, keys sorted:

- ``pretrain_short.loss_curve`` / ``pretrain_short.weights`` and the same
  for ``pretrain_long``: run 0 of that workload's training runs;
- ``pretrain_short.val_loss_curve``: that run again with ``val_every=5``, so
  the validation windows pass through batch assembly too;
- ``forecast_stream.forecasts``: every request of one pass, in order;
- ``evaluate_cli.summary.json`` and ``evaluate_cli.windows_<id>.csv``: the
  files ``patchcast evaluate`` writes;
- ``features.<granularity>``: the calendar-feature table of 2,000 points
  from a fixed start, for every granularity (the workloads use only daily
  and hourly data).

The other inputs come from the builders in ``perfbench/workloads.py``, so the
digests cover exactly what the benchmark runs. Two checkouts whose outputs
are bit-identical print the same JSON, and so do two runs of one checkout:

    OPENBLAS_NUM_THREADS=1 python3 scripts/output_digests.py --seed 0

The checkout's own ``src/`` is imported, wherever the command runs from.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from datetime import datetime
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from patchcast import data, training  # noqa: E402

# before the epoch, late in a 31-day month and off the hour
FEATURE_START = datetime(1969, 12, 31, 22, 45)


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def array_bytes(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def pretrain_digests(name: str, seed: int) -> dict:
    w = workloads.WORKLOADS[name](seed)
    w.setup()
    result = training.train(w.corpus, w.cfg, w.train_cfgs[0])
    weights = [chunk for key, p in result.weights.named()
               for chunk in (key.encode(), array_bytes(p.data))]
    return {f"{name}.loss_curve": sha256(repr(result.loss_curve).encode()),
            f"{name}.weights": sha256(*weights)}


def validation_digests(seed: int) -> dict:
    w = workloads.WORKLOADS["pretrain_short"](seed)
    w.setup()
    result = training.train(w.corpus, w.cfg, dataclasses.replace(w.train_cfgs[0], val_every=5))
    return {"pretrain_short.val_loss_curve": sha256(repr(result.loss_curve).encode())}


def feature_digests() -> dict:
    return {f"features.{g}": sha256(array_bytes(data.derive_date_features(FEATURE_START, g, 2000)))
            for g in data.GRANULARITIES}


def forecast_digests(seed: int) -> dict:
    w = workloads.ForecastStream(seed)
    w.setup()
    for j in range(w.ops_per_pass):
        w.op(j)
    return {"forecast_stream.forecasts":
            sha256(*(array_bytes(w.outputs[j]) for j in range(w.ops_per_pass)))}


def evaluate_digests(seed: int) -> dict:
    w = workloads.EvaluateCli(seed)
    w.work = Path(tempfile.mkdtemp(prefix="output_digests-"))
    try:
        w.setup()
        w.op(0)
        out_dir = w.work / "eval"
        return {f"evaluate_cli.{path.name}": sha256(path.read_bytes())
                for path in sorted(out_dir.iterdir())}
    finally:
        w.close()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=0, help="input seed of every workload")
    args = ap.parse_args(argv)
    digests = {**pretrain_digests("pretrain_short", args.seed),
               **validation_digests(args.seed),
               **pretrain_digests("pretrain_long", args.seed),
               **forecast_digests(args.seed),
               **evaluate_digests(args.seed),
               **feature_digests()}
    print(json.dumps(digests, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
