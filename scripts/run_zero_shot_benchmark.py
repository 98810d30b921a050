#!/usr/bin/env python3
"""Zero-shot generalization benchmark: pretrain on fast (period 8-20) and
slow (36-64) daily sinusoids, then score the untouched middle band (24-32)
against repeat-last and seasonal-naive baselines, over several seeds.

Each seed regenerates the corpus and retrains from scratch, so the printed
improvements measure transfer to genuinely unseen dynamics, not memorization.
"""

import argparse
import json
import math

from patchcast.data import FamilySpec, GeneratorSpec, synth_corpus
from patchcast.evaluation import (
    make_model_predictor,
    make_seasonal_naive,
    repeat_last,
    score_series,
)
from patchcast.model import ModelConfig
from patchcast.training import TrainConfig, train


def band(name: str, lo: float, hi: float, n: int) -> FamilySpec:
    return FamilySpec(name=name, granularity="daily", kind="sinusoid",
                      n_series=n, length_range=(120, 160), period_range=(lo, hi),
                      amplitude_range=(0.8, 1.5), trend="linear",
                      drift_range=(-1.5, 1.5), noise_level=0.05)


def run_seed(seed: int, *, steps: int = 800, context: int = 64, horizon: int = 12) -> dict:
    spec = GeneratorSpec(pretrain=[band("fast", 8.0, 20.0, 80),
                                   band("slow", 36.0, 64.0, 80)],
                         holdout=[band("mid", 24.0, 32.0, 20)])
    pair = synth_corpus(spec, seed=100 + seed)
    cfg = ModelConfig.preset("desk")
    tc = TrainConfig(total_steps=steps, batch_size=32, base_lr=3e-3,
                     seed=seed, val_every=0)
    weights = train(pair.pretrain, cfg, tc).weights

    kwargs = dict(context_len=context, horizon=horizon, stride=4)
    series = pair.holdout.series
    _, model = score_series(make_model_predictor(weights, cfg), series, **kwargs)
    _, naive = score_series(repeat_last, series, **kwargs)
    _, seasonal = score_series(make_seasonal_naive(28), series, **kwargs)
    return {"seed": seed,
            "model_nrmse": model["nrmse"],
            "repeat_last_nrmse": naive["nrmse"],
            "seasonal_nrmse": seasonal["nrmse"],
            "gain_vs_repeat": 1.0 - model["nrmse"] / naive["nrmse"],
            "gain_vs_seasonal": 1.0 - model["nrmse"] / seasonal["nrmse"],
            "n_windows": model["n_windows"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=5)
    for name, default in run_seed.__kwdefaults__.items():
        ap.add_argument(f"--{name}", type=int, default=default)
    ap.add_argument("--out", help="optional JSON results path")
    args = ap.parse_args(argv)

    rows = [run_seed(s, steps=args.steps, context=args.context, horizon=args.horizon)
            for s in range(args.seeds)]
    print(f"{'seed':>4}  {'model':>8}  {'repeat':>8}  {'seasonal':>8}  "
          f"{'vs repeat':>9}  {'vs seasonal':>11}")
    for r in rows:
        print(f"{r['seed']:>4}  {r['model_nrmse']:>8.4f}  "
              f"{r['repeat_last_nrmse']:>8.4f}  {r['seasonal_nrmse']:>8.4f}  "
              f"{100 * r['gain_vs_repeat']:>8.1f}%  "
              f"{100 * r['gain_vs_seasonal']:>10.1f}%")
    mean_gain = math.fsum(r["gain_vs_repeat"] for r in rows) / len(rows)
    print(f"mean NRMSE gain vs repeat-last over {len(rows)} seeds: "
          f"{100 * mean_gain:.1f}%")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
