"""Pretraining: per-window normalization, patch-wise MSE, Adam with
linear warmup and cosine decay, and a deterministic training loop.

Determinism contract: batch content depends only on (seed, step index) via
SeedSequence spawn keys, so a resumed run replays the exact batch stream of
an uninterrupted one, and the loss curve for a fixed seed is byte-identical
across reruns.
"""

from __future__ import annotations

import csv
import math
import zipfile
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import (
    CONTEXT_CAPS,
    Corpus,
    TrainingWindow,
    default_mixture,
    sample_training_windows,
    window_length,
)
from .model import (ModelConfig, ModelWeights, assemble_patch_inputs, check_fields, check_int,
                    config_fields, forward)
from .tensor import NumericError, Tensor, no_grad, sum_exact

NORMALIZATION_MODES = ("per-window", "none")
SIGMA_FLOOR = 1e-8

# The fixed recipe. FIXED_TRAIN_KEYS are older TrainConfig fields, each accepted
# only at the value used here (mixture None: data.default_mixture).
WARMUP_FRAC, CLIP_NORM, VAL_WINDOWS = 0.05, 1.0, 32
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
FIXED_TRAIN_KEYS = {"warmup_frac": WARMUP_FRAC, "cosine": True, "clip_norm": CLIP_NORM,
                    "beta1": BETA1, "beta2": BETA2, "eps": EPS, "mixture": None,
                    "val_windows": VAL_WINDOWS}


class DegenerateBatchError(ValueError):
    """A training window too short to hold one token with its full target."""


class NonFiniteGradientError(RuntimeError):
    """A parameter gradient went NaN/inf; message names the parameter."""


class TrainingDivergedError(RuntimeError):
    """Training loss went non-finite; checkpoints on disk stay valid."""


class TrainConfigError(ValueError):
    pass


# -- normalization -----------------------------------------------------------


@dataclass(frozen=True)
class ScaleRecord:
    """Reversible per-window standardization: x -> (x - mu) / sigma.

    sigma is already floored at 1e-8, so inversion never divides by zero.
    """

    mu: float | np.ndarray
    sigma: float | np.ndarray


IDENTITY_SCALE = ScaleRecord(mu=0.0, sigma=1.0)


def scale_record(values: np.ndarray, mode: str = "per-window") -> ScaleRecord:
    """The record that standardizes a context span [.., L] along its last axis:
    mu and sigma are floats for one series and arrays [.., 1] for a stack.

    Where the plain mean or standard deviation of a span is not finite (its
    squares overflow float64), both are taken of the span divided by its
    largest magnitude and scaled back, as LAPACK's dnrm2 scales (Blue, ACM
    TOMS 1978); so a finite span always has finite statistics, and a span
    the plain form handles keeps its bits. A span holding inf or NaN keeps
    its non-finite statistics.
    """
    if mode not in NORMALIZATION_MODES:
        raise TrainConfigError(f"unknown normalization mode {mode!r}")
    if mode == "none":
        return IDENTITY_SCALE
    values = np.asarray(values, dtype=np.float64)
    mu = values.mean(axis=-1, keepdims=True)
    sigma = np.maximum(values.std(axis=-1, keepdims=True), SIGMA_FLOOR)
    redo = ~(np.isfinite(mu) & np.isfinite(sigma))
    if redo.any():
        big = np.abs(values).max(axis=-1, keepdims=True)
        with np.errstate(invalid="ignore"):  # 0/0 or inf/inf: spans kept plain or holding inf
            unit = values / big
        mu = np.where(redo, big * unit.mean(axis=-1, keepdims=True), mu)
        sigma = np.where(redo, np.maximum(big * unit.std(axis=-1, keepdims=True), SIGMA_FLOOR),
                         sigma)
    if values.ndim == 1:
        return ScaleRecord(mu=float(mu[0]), sigma=float(sigma[0]))
    return ScaleRecord(mu=mu, sigma=sigma)


def apply_scale(values: np.ndarray, rec: ScaleRecord) -> np.ndarray:
    return (np.asarray(values, dtype=np.float64) - rec.mu) / rec.sigma


def invert_scale(values: np.ndarray, rec: ScaleRecord) -> np.ndarray:
    return np.asarray(values, dtype=np.float64) * rec.sigma + rec.mu


# -- loss ---------------------------------------------------------------------


def train_loss(forecasts, targets) -> Tensor:
    """Mean squared error over every token's h-step forecast.

    forecasts/targets are [.., N, h]; every token's full target lies inside
    its window (see :func:`assemble_batch`). The reduction uses exactly
    rounded summation, so the value is invariant under permuting windows
    within a batch.
    """
    f = forecasts if isinstance(forecasts, Tensor) else Tensor(forecasts)
    t = targets if isinstance(targets, Tensor) else Tensor(np.asarray(targets, dtype=np.float64))
    if f.shape != t.shape:
        raise ValueError(f"forecasts {f.shape} and targets {t.shape} disagree")
    diff = f - t
    return sum_exact(diff * diff) * (1.0 / f.size)


# -- optimizer ------------------------------------------------------------------


@dataclass
class AdamState:
    """Adam's step count and moments. Each moment is one flat float64 array
    laid out like the weights' arena (``m_flat``, ``v_flat``), with
    per-name views ``m[name]`` and ``v[name]`` (see ModelWeights.views)."""

    m_flat: np.ndarray
    v_flat: np.ndarray
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_weights(cls, weights: ModelWeights) -> "AdamState":
        m, v = np.zeros_like(weights.arena), np.zeros_like(weights.arena)
        return cls(m, v, weights.views(m), weights.views(v))


def gather_grads(weights: ModelWeights) -> np.ndarray:
    """Every parameter's gradient in one flat array laid out like the
    weights' arena; a None gradient reads as zeros."""
    return np.concatenate([np.zeros(p.data.size) if p.grad is None else p.grad.ravel()
                           for p in weights.params.values()], dtype=np.float64)


def _norm_of_squares(weights: ModelWeights, sq: np.ndarray) -> float:
    """sqrt of the exactly rounded sum of each parameter's np.add.reduce of
    `sq`, the squared gathered gradients: what np.sum gives per parameter."""
    return math.sqrt(math.fsum(np.add.reduce(sq[span]) for span in weights.spans))


def adam_step(weights: ModelWeights, state: AdamState, lr: float) -> float:
    """One bias-corrected Adam update in place, over the whole arena at
    once; returns the pre-clip norm."""
    g = gather_grads(weights)
    if not np.isfinite(g).all():
        for name, p in weights.named():
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NonFiniteGradientError(f"non-finite gradient in parameter {name}")
    norm = _norm_of_squares(weights, g * g)
    if norm > CLIP_NORM:
        g *= CLIP_NORM / norm
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    m, v = state.m_flat, state.v_flat
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * g * g
    weights.arena -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    return norm


def lr_at(step: int, base_lr: float, total_steps: int) -> float:
    """Learning rate for a 1-based step: linear warmup then cosine decay to 0."""
    warmup = max(1, int(round(WARMUP_FRAC * total_steps)))
    if step <= warmup:
        return base_lr * step / warmup
    progress = (step - warmup) / (total_steps - warmup)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


# -- batch assembly -----------------------------------------------------------------


def assemble_batch(windows, cfg: ModelConfig, normalization: str):
    """Windows (equal length) -> (inputs [B,N,w], targets [B,N,h]).

    The scale record comes from the model-visible span (window minus its
    final h points); inputs and targets are standardized with the same
    record. Tokens are only built where the full h-step target fits, so
    every token counts in the loss.
    """
    p, h = cfg.input_patch_len, cfg.output_patch_len
    w_len = len(windows[0].values)
    n_tok = (w_len - h) // p
    if n_tok < 1:
        raise DegenerateBatchError(f"window of {w_len} points fits no token with a {h}-step target")
    if any(len(w.values) != w_len for w in windows):
        raise ValueError("windows in a batch must share one length")
    values = np.stack([w.values for w in windows])
    normed = apply_scale(values, scale_record(values[:, :w_len - h], normalization))
    feats = np.stack([w.features[:w_len - h] for w in windows]) if cfg.feature_dim else None
    inputs = assemble_patch_inputs(normed[:, :w_len - h], feats, cfg)
    # token j's target is the h points after its patch; the last token's ends the window
    tails = np.lib.stride_tricks.sliding_window_view(normed, h, axis=-1)
    targets = tails[:, w_len - h - (n_tok - 1) * p::p]
    return np.ascontiguousarray(inputs), targets.copy()


# -- train loop ------------------------------------------------------------------------


@dataclass
class TrainConfig:
    total_steps: int = 1000
    batch_size: int = 32
    base_lr: float = 3e-3
    seed: int = 0
    normalization: str = "per-window"
    checkpoint_every: int = 0  # 0: only the final checkpoint
    val_every: int = 100  # 0: never compute validation loss

    def __post_init__(self):
        check_fields(self, TrainConfigError, {"total_steps": 1, "batch_size": 1, "base_lr": 0,
                                              "seed": 0, "checkpoint_every": 0, "val_every": 0})
        if self.normalization not in NORMALIZATION_MODES:
            raise TrainConfigError(f"unknown normalization mode {self.normalization!r}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Build a config from a dict; FIXED_TRAIN_KEYS pass only at their values."""
        return cls(**config_fields(cls, d, TrainConfigError, "TrainConfig", FIXED_TRAIN_KEYS))


@dataclass
class TrainResult:
    weights: ModelWeights
    model_config: ModelConfig
    loss_curve: list[tuple[int, float, float | None]]
    final_checkpoint: Path | None
    checkpoints: list[Path] = field(default_factory=list)


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def _fixed_val_windows(corpus: Corpus, cfg: ModelConfig):
    """Deterministic validation windows: the tail of each val split."""
    p, h = cfg.input_patch_len, cfg.output_patch_len
    out = []
    for s in sorted(corpus.series, key=lambda s: s.series_id):
        bounds = s.split()
        val_len = bounds.val_end - bounds.train_end
        if val_len < p + h:
            continue
        w_len = window_length(val_len, CONTEXT_CAPS[s.granularity], h)
        start = bounds.val_end - w_len
        out.append(TrainingWindow(
            series_id=s.series_id, granularity=s.granularity, start=start,
            values=s.values[start:start + w_len],
            features=s.date_features()[start:start + w_len]))
        if len(out) >= VAL_WINDOWS:
            break
    return out


def _val_loss(val_windows, weights, model_cfg, normalization) -> float | None:
    """Mean over the windows of each window's own loss, with one forward per
    window length."""
    if not val_windows:
        return None
    by_length: dict[int, list] = {}
    for w in val_windows:
        by_length.setdefault(len(w.values), []).append(w)
    losses = []
    with no_grad():
        for group in by_length.values():
            inputs, targets = assemble_batch(group, model_cfg, normalization)
            out = forward(weights, model_cfg, inputs).data
            losses.extend(train_loss(out[i], targets[i]).item() for i in range(len(group)))
    return math.fsum(losses) / len(losses)


def write_loss_curve(path, curve) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step", "train_loss", "val_loss"])
        for step, tr, val in curve:
            writer.writerow([step, repr(float(tr)), "" if val is None else repr(float(val))])


def _state_path(ckpt_path: Path) -> Path:
    return ckpt_path.with_name(ckpt_path.name.replace("ckpt_", "state_", 1))


def _save_train_state(path: Path, state: AdamState) -> None:
    arrays = {f"m/{n}": a for n, a in state.m.items()}
    arrays.update({f"v/{n}": a for n, a in state.v.items()})
    np.savez(path, step=np.asarray(state.step), **arrays)


def _load_train_state(ckpt_path: Path, weights: ModelWeights, step: int | None) -> AdamState:
    """Adam state saved beside a checkpoint whose recorded step is `step`
    (None: not recorded); CheckpointError naming the file and the field if
    it is unusable."""
    path = _state_path(ckpt_path)
    if path == ckpt_path:
        raise CheckpointError(f"{ckpt_path} has no training state: only ckpt_*.npz files do")
    state = AdamState.for_weights(weights)
    slots = {f"{field}/{n}": view for field, moment in (("m", state.m), ("v", state.v))
             for n, view in moment.items()}
    try:
        with np.load(path) as archive:
            saved_step = archive["step"]
            saved = {key: archive[key] for key in slots}
    except (OSError, ValueError, TypeError, KeyError, EOFError, zipfile.BadZipFile) as err:
        raise CheckpointError(f"cannot read training state {path}: {err}") from err
    if saved_step.shape != () or saved_step.dtype.kind not in "iu":
        raise CheckpointError(f"training state {path} step must be a 0-d integer, "
                              f"got {saved_step.dtype} of shape {saved_step.shape}")
    state.step = int(saved_step)
    if step is None:
        check_int(state.step, f"training state {path} step", CheckpointError, low=0)
    elif state.step != step:
        raise CheckpointError(f"training state {path} step {state.step} differs from "
                              f"its checkpoint's step {step}")
    for key, slot in slots.items():
        arr = saved[key]
        if arr.shape != slot.shape:
            raise CheckpointError(f"training state {path} {key} has shape {arr.shape}, "
                                  f"expected {slot.shape}")
        if arr.dtype.kind != "f":
            raise CheckpointError(f"training state {path} {key} has dtype {arr.dtype}, "
                                  f"not a float")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"training state {path} {key} is not finite")
        if key.startswith("v/") and (arr < 0).any():
            raise CheckpointError(f"training state {path} {key} is negative")
        slot[...] = arr
    return state


# TrainConfig fields a resumed run may change: none of them touches the weights.
RESUME_FREE_FIELDS = ("checkpoint_every", "val_every")


def _check_resume_schedule(ckpt_path, extra: dict, cfg: TrainConfig) -> None:
    """TrainConfigError naming every weight-affecting field that differs from
    the train config recorded in a checkpoint, or a FIXED_TRAIN_KEYS entry
    recorded at another value; checkpoints without the record pass. A
    recorded val_windows may hold any value: it never touched the weights."""
    recorded = extra.get("train_config")
    if recorded is None:
        return
    if not isinstance(recorded, dict):
        raise CheckpointError(f"checkpoint {ckpt_path} records train_config {recorded!r}, "
                              f"not an object")
    recorded = config_fields(TrainConfig,
                             {k: v for k, v in recorded.items() if k != "val_windows"},
                             TrainConfigError, f"resume checkpoint {ckpt_path} train_config",
                             FIXED_TRAIN_KEYS)
    differ = [f"{name} {recorded.get(name)!r} -> {value!r}"
              for name, value in cfg.to_dict().items()
              if name not in RESUME_FREE_FIELDS and recorded.get(name) != value]
    if differ:
        raise TrainConfigError(f"resume checkpoint {ckpt_path} was trained with a different "
                               f"train config: {'; '.join(differ)}")


def train(corpus: Corpus, model_cfg: ModelConfig, cfg: TrainConfig,
          out_dir=None, resume_from=None) -> TrainResult:
    """Run the pretraining loop over a corpus.

    Writes ``ckpt_*.npz``/``state_*.npz`` pairs plus ``loss_curve.csv``
    under ``out_dir`` when given. ``resume_from`` takes a checkpoint path
    written by an earlier run and continues from its recorded step with the
    identical batch stream; the model config and every TrainConfig field
    outside RESUME_FREE_FIELDS must match the run that wrote it.
    """
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    p, h = model_cfg.input_patch_len, model_cfg.output_patch_len
    mixture = default_mixture(corpus, p, h)

    if resume_from is not None:
        bundle = load_checkpoint(resume_from)
        if bundle.config != model_cfg:
            raise TrainConfigError(
                f"resume checkpoint {resume_from} was trained with a different model config")
        _check_resume_schedule(resume_from, bundle.extra, cfg)
        weights = bundle.weights
        recorded_step = None
        if "step" in bundle.extra:
            recorded_step = check_int(bundle.extra["step"], f"checkpoint {resume_from} step",
                                      CheckpointError, low=0)
        state = _load_train_state(Path(resume_from), weights, recorded_step)
        start_step = state.step
        if start_step >= cfg.total_steps:
            raise TrainConfigError(f"resume checkpoint {resume_from} is at step {start_step}; "
                                   f"total_steps {cfg.total_steps} leaves no step to train")
    else:
        weights = ModelWeights.initialize(model_cfg, seed=cfg.seed)
        state = AdamState.for_weights(weights)
        start_step = 0

    val_windows = _fixed_val_windows(corpus, model_cfg) if cfg.val_every else []
    extra_base = {"normalization": cfg.normalization, "train_seed": cfg.seed,
                  "train_config": cfg.to_dict()}
    curve: list[tuple[int, float, float | None]] = []
    checkpoints: list[Path] = []

    for step in range(start_step + 1, cfg.total_steps + 1):
        rng = rng_for(cfg.seed, 1, step)
        windows = sample_training_windows(corpus, mixture, cfg.batch_size, rng,
                                          input_patch_len=p, output_patch_len=h)
        inputs, targets = assemble_batch(windows, model_cfg, cfg.normalization)
        weights.zero_grads()
        try:
            out = forward(weights, model_cfg, Tensor(inputs))
            loss = train_loss(out, targets)
            loss_value = loss.item()
            if not math.isfinite(loss_value):
                raise TrainingDivergedError(
                    f"training loss became non-finite at step {step}; "
                    f"last good checkpoint kept on disk")
            loss.backward()
        except NumericError as exc:
            raise TrainingDivergedError(
                f"activations became non-finite at step {step}; "
                f"last good checkpoint kept on disk") from exc
        adam_step(weights, state, lr_at(step, cfg.base_lr, cfg.total_steps))
        val = None
        if cfg.val_every and step % cfg.val_every == 0:
            val = _val_loss(val_windows, weights, model_cfg, cfg.normalization)
        curve.append((step, loss_value, val))
        if out_dir is not None and cfg.checkpoint_every and step % cfg.checkpoint_every == 0:
            ckpt = out_dir / f"ckpt_step{step:06d}.npz"
            save_checkpoint(ckpt, model_cfg, weights, extra={**extra_base, "step": step})
            _save_train_state(_state_path(ckpt), state)
            checkpoints.append(ckpt)

    final = None
    if out_dir is not None:
        final = out_dir / "ckpt_final.npz"
        save_checkpoint(final, model_cfg, weights,
                        extra={**extra_base, "step": cfg.total_steps})
        _save_train_state(_state_path(final), state)
        write_loss_curve(out_dir / "loss_curve.csv", curve)
    return TrainResult(weights=weights, model_config=model_cfg, loss_curve=curve,
                       final_checkpoint=final, checkpoints=checkpoints)
