#!/usr/bin/env python3
"""Train the fixed `desk` checkpoint that forecast_stream and evaluate_cli load.

The forecast-side workloads read weights from the committed `desk.npz`, so
their metrics do not depend on the training code of the commit under test.
This script is the deterministic command that produced that file; rerun it
only to replace the checkpoint on purpose, from the repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_checkpoint.py
"""

import sys
from pathlib import Path

from patchcast.checkpoint import save_checkpoint
from patchcast.data import FamilySpec, GeneratorSpec, synth_corpus
from patchcast.model import ModelConfig
from patchcast.training import TrainConfig, train

CHECKPOINT = Path(__file__).resolve().parent / "desk.npz"

# Hourly series long enough to fill the 512-point context, plus short daily
# ones; the default mixture weights the two granularities equally.
CORPUS = GeneratorSpec(pretrain=[
    FamilySpec(name="hourly", granularity="hourly", n_series=60,
               length_range=(800, 1000), period_range=(12.0, 48.0), n_components=2,
               amplitude_range=(0.5, 1.5), trend="linear", drift_range=(-1.0, 1.0),
               level_range=(2.0, 6.0), noise_level=0.05),
    FamilySpec(name="daily", granularity="daily", n_series=80,
               length_range=(120, 160), period_range=(7.0, 30.0),
               amplitude_range=(0.8, 1.5), trend="linear", drift_range=(-1.5, 1.5),
               noise_level=0.05),
])
TRAIN = TrainConfig(total_steps=300, batch_size=16, base_lr=3e-3, seed=0, val_every=0)


def main() -> int:
    corpus = synth_corpus(CORPUS, seed=0).pretrain
    result = train(corpus, ModelConfig.preset("desk"), TRAIN)
    save_checkpoint(CHECKPOINT, result.model_config, result.weights,
                    extra={"normalization": TRAIN.normalization, "train_seed": TRAIN.seed,
                           "step": TRAIN.total_steps})
    tail = [loss for _, loss, _ in result.loss_curve[-20:]]
    print(f"wrote {CHECKPOINT}; mean train loss over the last 20 steps "
          f"{sum(tail) / len(tail):.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
