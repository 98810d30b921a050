"""Acceptance gate: one test per shipped guarantee, each printing a
PASS/FAIL verdict line with its measured value against the stated tolerance.

The trained-model criteria (4-7, 11) use deliberately small fixed-seed
experiments sized for a single CPU core; every threshold below was chosen
before freezing the seeds, and the margins are reported in the verdicts.
"""

import csv
import json
import math
import sys
import time
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from patchcast import cli
from patchcast.checkpoint import load_checkpoint, save_checkpoint
from patchcast.data import (
    FEATURE_COLUMNS,
    GRANULARITIES,
    FamilySpec,
    GeneratorSpec,
    chronological_split,
    derive_date_features,
    synth_corpus,
)
from patchcast.evaluation import make_model_predictor, nrmse, score_series, wape
from patchcast.inference import autoregressive_rounds, forecast
from patchcast.model import ModelConfig, ModelWeights, forward
from patchcast.tensor import Tensor, no_grad
from patchcast.training import TrainConfig, train, train_loss

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import run_zero_shot_benchmark as zero_shot  # noqa: E402


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- shared runs -------------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """Criterion-4 experiment: desk model on a 200-series sinusoid+trend
    corpus, trained twice at the same seed for the byte-identity check."""
    spec = GeneratorSpec(pretrain=[FamilySpec(
        name="st", granularity="daily", kind="sinusoid", n_series=200,
        length_range=(110, 150), period_range=(8.0, 24.0), amplitude_range=(0.8, 1.5),
        trend="linear", drift_range=(-2.0, 2.0), noise_level=0.05)])
    corpus = synth_corpus(spec, seed=11).pretrain
    variance = float(np.var(np.concatenate([s.values for s in corpus.series])))
    cfg = ModelConfig.preset("desk")
    tc = TrainConfig(total_steps=600, batch_size=32, base_lr=3e-3,
                     normalization="none", seed=0, val_every=0)
    t0 = time.monotonic()
    dirs = [tmp_path_factory.mktemp("smoke_a"), tmp_path_factory.mktemp("smoke_b")]
    results = [train(corpus, cfg, tc, out_dir=d) for d in dirs]
    elapsed = time.monotonic() - t0
    return {"corpus": corpus, "variance": variance, "cfg": cfg,
            "results": results, "dirs": dirs, "elapsed": elapsed}


@pytest.fixture(scope="module")
def ablation(tmp_path_factory):
    """`patchcast ablate` on the committed configs of criteria 6 and 7:
    suite -> (its <suite>_table.txt, its <suite>_rows.csv rows)."""
    base, runs = tmp_path_factory.mktemp("ablate"), {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(cli.OUTPUT_DIR_ENV, str(base))
        for suite in ("context", "output-patch"):
            config = ROOT / "configs" / f"ablate_{suite.replace('-', '_')}.json"
            assert cli.main(["ablate", "--config", str(config)]) == 0
            out_dir = base / json.loads(config.read_text())["output_dir"]
            with open(out_dir / f"{suite}_rows.csv", newline="") as fh:
                runs[suite] = (out_dir / f"{suite}_table.txt").read_text(), list(csv.DictReader(fh))
    return runs


# -- criteria ----------------------------------------------------------------------


def test_criterion_01_gradient_correctness():
    # full finite-difference check of the training loss over every
    # parameter group of the desk configuration
    cfg = ModelConfig.preset("desk")
    weights = ModelWeights.initialize(cfg, seed=7)
    rng = np.random.default_rng(3)
    inputs = rng.normal(size=(2, 4, cfg.input_width))
    targets = rng.normal(size=(2, 4, cfg.output_patch_len))

    def loss_value() -> float:
        with no_grad():
            return train_loss(forward(weights, cfg, inputs), targets).item()

    t0 = time.monotonic()
    weights.zero_grads()
    loss = train_loss(forward(weights, cfg, Tensor(inputs)), targets)
    loss.backward()
    step = 1e-5
    worst_name, worst_err = "", 0.0
    for name, p in weights.named():
        flat = p.data.ravel()
        fd = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_value()
            flat[i] = orig - step
            fd[i] = (up - loss_value()) / (2 * step)
            flat[i] = orig
        rel = np.abs(p.grad.ravel() - fd) / np.maximum(np.abs(fd), 1e-6)
        group_err = float(rel.max())
        if group_err > worst_err:
            worst_name, worst_err = name, group_err
    elapsed = time.monotonic() - t0
    verdict(1, worst_err < 1e-3 and elapsed < 120.0,
            f"all {weights.count()} params FD-checked; worst group {worst_name} "
            f"rel err {worst_err:.2e} (tol 1e-3) in {elapsed:.0f}s (limit 120s)")


def test_criterion_02_causality_bitwise():
    cfg = ModelConfig.preset("desk")
    weights = ModelWeights.initialize(cfg, seed=5)
    rng = np.random.default_rng(17)
    failures = 0
    for _ in range(50):
        n = int(rng.integers(2, 13))
        inputs = rng.normal(size=(n, cfg.input_width))
        k = int(rng.integers(1, n))
        with no_grad():
            base = forward(weights, cfg, inputs).data
            bumped_in = inputs.copy()
            bumped_in[k] += rng.normal(size=cfg.input_width)
            bumped = forward(weights, cfg, bumped_in).data
        if not np.array_equal(base[:k], bumped[:k]):
            failures += 1
    verdict(2, failures == 0,
            f"50 random inputs, perturbed patch k: rows before k bit-identical; "
            f"{failures} failures (tol 0)")


def test_criterion_03_autoregressive_consistency():
    cfg = ModelConfig.preset("desk")  # h = 8
    weights = ModelWeights.initialize(cfg, seed=9)
    h = cfg.output_patch_len
    vals = np.sin(np.arange(48) / 5.0) + 2.0
    one = forecast(weights, cfg, vals, h)
    two = forecast(weights, cfg, vals, 2 * h)
    prefix_ok = np.array_equal(two.values[:h], one.values)
    round_ok = all(
        forecast(weights, cfg, vals, H).rounds == math.ceil(H / h) ==
        autoregressive_rounds(H, h)
        for H in (1, h - 1, h, h + 1, 4 * h))
    full_scale_ok = (autoregressive_rounds(512, 32) == 16
                      and autoregressive_rounds(512, 128) == 4)
    verdict(3, prefix_ok and round_ok and full_scale_ok,
            f"forecast(2h) prefix == forecast(h) exactly: {prefix_ok}; "
            f"rounds == ceil(H/h) for H in {{1,7,8,9,32}}: {round_ok}; "
            f"512-step horizon needs 16 rounds at h=32 vs 4 at h=128: {full_scale_ok}")


def test_criterion_04_training_smoke(smoke_run):
    var = smoke_run["variance"]
    res_a, res_b = smoke_run["results"]
    tail = [v for _, v, _ in res_a.loss_curve[-25:]]
    reached = sum(tail) / len(tail)
    curve_a = (smoke_run["dirs"][0] / "loss_curve.csv").read_bytes()
    curve_b = (smoke_run["dirs"][1] / "loss_curve.csv").read_bytes()
    ok = (res_a.weights.count() < 100_000 and reached < 0.1 * var
          and smoke_run["elapsed"] < 600.0 and curve_a == curve_b)
    verdict(4, ok,
            f"{res_a.weights.count()} params (<100k) on 200 series; last-25 train MSE "
            f"{reached:.4f} < 0.1*variance {0.1 * var:.4f} after 600 steps "
            f"(limit 2000); both runs in {smoke_run['elapsed']:.0f}s (limit 600s); "
            f"loss curves byte-identical: {curve_a == curve_b}")


def test_criterion_05_zero_shot_generalization():
    # the zero-shot script's experiment, seeds 0-4: a desk model pretrained on
    # fast (8-20) and slow (36-64) period bands must beat both baselines on the
    # untouched middle band (24-32)
    wins = []
    details = []
    for seed in range(5):
        row = zero_shot.run_seed(seed)
        vs_repeat, vs_seasonal = row["gain_vs_repeat"], row["gain_vs_seasonal"]
        wins.append(vs_repeat >= 0.20 and vs_seasonal >= 0.05)
        details.append(f"seed{seed}: {100 * vs_repeat:.0f}%/{100 * vs_seasonal:.0f}%")
    verdict(5, sum(wins) >= 4,
            f"held-out period band 24-32 (trained: 8-20, 36-64): NRMSE gains vs "
            f"repeat-last/seasonal-naive per seed [{', '.join(details)}]; "
            f"need >=20%/>=5% on >=4 of 5 seeds, got {sum(wins)}/5")


def test_zero_shot_script_prints_and_writes_its_rows(tmp_path, capsys):
    out = tmp_path / "rows.json"
    assert zero_shot.main(["--seeds", "1", "--steps", "5", "--out", str(out)]) == 0
    (row,) = json.loads(out.read_text())
    assert row["seed"] == 0 and row["n_windows"] > 0
    gains = [f"{100 * row[k]:.1f}%" for k in ("gain_vs_repeat", "gain_vs_seasonal")]
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"   0  {row['model_nrmse']:>8.4f}  {row['repeat_last_nrmse']:>8.4f}  "
        f"{row['seasonal_nrmse']:>8.4f}  {gains[0]:>9}  {gains[1]:>11}",
        f"mean NRMSE gain vs repeat-last over 1 seeds: {gains[0]}", f"wrote {out}"]


def test_criterion_06_context_sweep_direction(ablation):
    # configs/ablate_context.json: long-period series (100-250) on series long
    # enough that every training batch fills the full context capacity
    by_c = {int(r["context_len"]): float(r["nrmse"]) for r in ablation["context"][1]}
    verdict(6, by_c[512] <= by_c[96],
            f"long-memory corpus NRMSE by context "
            f"{ {c: round(v, 4) for c, v in by_c.items()} }; "
            f"need NRMSE(512) {by_c[512]:.4f} <= NRMSE(96) {by_c[96]:.4f}")


def test_criterion_07_output_patch_direction(ablation):
    # configs/ablate_output_patch.json: full-scale geometry shrunk 1/16, horizon
    # 32 with h=8 vs h=2 keeps the exact 4x round-count ratio of h=128 vs h=32
    # at horizon 512
    rows = {int(r["output_patch_len"]): r for r in ablation["output-patch"][1]}
    scores = {h: float(r["nrmse"]) for h, r in rows.items()}
    rounds = {h: int(r["rounds"]) for h, r in rows.items()}
    ratio = scores[8] / scores[2]
    ok = ratio <= 1.05 and rounds[2] == 4 * rounds[8]
    verdict(7, ok,
            f"horizon 32: NRMSE h=8 {scores[8]:.4f} vs h=2 {scores[2]:.4f} "
            f"(ratio {ratio:.3f}, tol <=1.05); rounds {rounds[8]} vs {rounds[2]} "
            f"(exactly 4x fewer: {rounds[2] == 4 * rounds[8]})")


def test_criterion_08_metric_oracles():
    rng = np.random.default_rng(8)
    worst = 0.0
    cs_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        y = rng.normal(3.0, 4.0, size=n)
        p = rng.normal(3.0, 4.0, size=n)
        mse_py = math.fsum((a - b) ** 2 for a, b in zip(y, p)) / n
        nrmse_py = math.sqrt(mse_py) / (math.fsum(abs(a) for a in y) / n)
        wape_py = (math.fsum(abs(a - b) for a, b in zip(y, p))
                   / math.fsum(abs(a) for a in y))
        got_n, got_w = nrmse(y, p), wape(y, p)
        worst = max(worst,
                    abs(got_n - nrmse_py) / max(1.0, nrmse_py),
                    abs(got_w - wape_py) / max(1.0, wape_py))
        cs_ok = cs_ok and got_w <= got_n * (1 + 1e-12)
    example_ok = (nrmse([2.0, 2.0], [1.0, 3.0]) == 0.5
                  and wape([2.0, 2.0], [1.0, 3.0]) == 0.5)
    verdict(8, worst < 1e-9 and cs_ok and example_ok,
            f"1000 random pairs vs brute-force fsum: worst rel diff {worst:.2e} "
            f"(tol 1e-9); wape<=nrmse on every pair: {cs_ok}; "
            f"y=[2,2] vs yhat=[1,3] gives 0.5/0.5: {example_ok}")


def test_criterion_09_date_feature_ranges():
    membership_ok = True
    for gran in GRANULARITIES:
        feats = derive_date_features(datetime(2020, 1, 6, 0, 0), gran, 400)
        masked = feats == -1.0
        in_range = (feats >= -0.5) & (feats <= 0.5)
        membership_ok = membership_ok and bool(np.all(masked | in_range))
    minute_col = FEATURE_COLUMNS.index("minute_of_hour")
    f15 = derive_date_features(datetime(2020, 1, 6, 0, 0), "15min", 4)
    half_hour_ok = f15[2, minute_col] == 0.0  # 00:30 -> 30/60 - 0.5 = 0.0 exactly
    daily = derive_date_features(datetime(2020, 1, 6), "daily", 64)
    time_cols = [FEATURE_COLUMNS.index(c) for c in
                 ("hour_of_day", "minute_of_hour", "second_of_minute")]
    daily_ok = bool(np.all(daily[:, time_cols] == -1.0))
    verdict(9, membership_ok and half_hour_ok and daily_ok,
            f"every granularity in {{-1}} u [-0.5, 0.5]: {membership_ok}; "
            f"minute=30 encodes to exactly 0.0: {half_hour_ok}; "
            f"daily series mask hour/minute/second: {daily_ok}")


def test_criterion_10_split_exactness():
    b = chronological_split(803)
    exact_ok = (b.train_end, b.val_end - b.train_end, 803 - b.val_end) == (562, 80, 161)
    rng = np.random.default_rng(10)
    overlap_ok = True
    for _ in range(100):
        t = int(rng.integers(10, 5000))
        s = chronological_split(t)
        overlap_ok = overlap_ok and 0 < s.train_end < s.val_end < t
    verdict(10, exact_ok and overlap_ok,
            f"T=803 -> 562/80/161: {exact_ok}; 100 random lengths partition "
            f"with no overlap: {overlap_ok}")


def test_criterion_11_checkpoint_roundtrip(smoke_run, tmp_path):
    corpus, cfg = smoke_run["corpus"], smoke_run["cfg"]
    weights = smoke_run["results"][0].weights
    series = corpus.series[:10]
    task = dict(context_len=48, horizon=8, stride=8)
    before = score_series(make_model_predictor(weights, cfg, "none"),
                          series, **task)[1]["nrmse"]
    path = tmp_path / "roundtrip.npz"
    save_checkpoint(path, cfg, weights, extra={"normalization": "none"})
    bundle = load_checkpoint(path)
    after = score_series(
        make_model_predictor(bundle.weights, bundle.config,
                             bundle.extra["normalization"]),
        series, **task)[1]["nrmse"]
    verdict(11, before == after and bundle.config == cfg,
            f"pooled NRMSE before save {before!r} == after load {after!r} "
            f"(bit-exact): {before == after}")


def test_readme_experiment_tables_match_the_ablate_output(ablation):
    # README "Experiments" quotes the tables of the suites criteria 6 and 7 run;
    # its input-patch table is no criterion's and is not rerun here
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Experiments\n")[1].split("\n## ")[0]
    blocks = section.split("```")[1::2]  # fenced blocks; a table's has no language tag
    tables = {block.split()[0]: block[1:] for block in blocks if block.startswith("\n")}
    assert set(tables) == {"context_len", "output_patch_len", "input_patch_len"}
    assert tables["context_len"] == ablation["context"][0]
    assert tables["output_patch_len"] == ablation["output-patch"][0]
