"""Zero-shot autoregressive forecasting.

A trained model emits output_patch_len points per round; longer horizons are
covered by feeding each round's (still-normalized) predictions back as
context and re-tokenizing, for ceil(horizon / output_patch_len) rounds.
Normalization statistics are computed once from the original context (after
the capacity clamp) and reused for every round and for the final inversion.

Round 1 encodes the context and fills a per-layer key/value cache; each later
round encodes only the output_patch_len / input_patch_len patches the last
round appended. The cache is reset, and the round re-encodes its whole
window, when the window slides past input_patch_len * max_positions points
(positions shift) or when output_patch_len is no multiple of input_patch_len
(patch boundaries move). Round 1 is bit-identical to a full recompute; later
rounds agree with it within 1e-12 relative, since the full recompute
re-rounds the older tokens' states (numpy's pairwise row sum in the softmax
regroups past 128 elements).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (ContextTooShortError, ModelConfig, ModelWeights, assemble_patch_inputs,
                    check_int, forward)
from .tensor import no_grad
from .training import ScaleRecord, apply_scale, invert_scale, scale_record

__all__ = [
    "ForecastError",
    "HorizonError",
    "ForecastResult",
    "MAX_ROUNDS",
    "autoregressive_rounds",
    "check_horizon",
    "forecast",
]

MAX_ROUNDS = 256  # autoregressive rounds one forecast may take (desk: 2048 points)


class ForecastError(ValueError):
    pass


class HorizonError(ForecastError):
    pass


@dataclass
class ForecastResult:
    values: np.ndarray       # [horizon] forecast on the original scale
    rounds: int              # autoregressive rounds taken
    round_index: np.ndarray  # [horizon] round that produced each step
    scale: ScaleRecord       # record used to normalize context / invert output


def autoregressive_rounds(horizon: int, output_patch_len: int) -> int:
    """Rounds needed to cover a horizon h steps at a time."""
    return -(-horizon // output_patch_len)


def check_horizon(horizon, cfg: ModelConfig) -> None:
    """HorizonError unless horizon is an integer in [1, MAX_ROUNDS * output_patch_len]."""
    check_int(horizon, "horizon", HorizonError)
    limit = MAX_ROUNDS * cfg.output_patch_len
    if horizon > limit:
        raise HorizonError(f"horizon {horizon} exceeds {limit} points: MAX_ROUNDS = {MAX_ROUNDS} "
                           f"rounds of output_patch_len {cfg.output_patch_len}")


def forecast(weights: ModelWeights, cfg: ModelConfig, values, horizon: int, *,
             features=None, normalization: str = "per-window") -> ForecastResult:
    """Forecast `horizon` future points from a 1-d context.

    `features` covers the context and the forecast span: shape
    [len(values) + horizon, feature_dim], or None to mark every calendar
    column unavailable. Contexts longer than input_patch_len * max_positions
    are clamped to their most recent points, and the working window keeps
    sliding under that cap as predictions are appended. A horizon past
    MAX_ROUNDS rounds raises HorizonError before any work.
    """
    check_horizon(horizon, cfg)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ForecastError(f"context must be 1-d, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ForecastError("context contains non-finite values")
    p, h = cfg.input_patch_len, cfg.output_patch_len
    if len(values) < p:
        raise ContextTooShortError(
            f"context of {len(values)} points is shorter than one {p}-point patch")

    if cfg.feature_dim == 0:
        if features is not None:
            raise ForecastError("model takes no calendar features, but features were given")
    elif features is not None:
        features = np.asarray(features, dtype=np.float64)
        want = (len(values) + int(horizon), cfg.feature_dim)
        if features.shape != want:
            raise ForecastError(
                f"features shape {features.shape} does not match context+horizon {want}")

    cap_points = p * cfg.max_positions
    if len(values) > cap_points:
        drop = len(values) - cap_points
        values = values[drop:]
        if features is not None:
            features = features[drop:]

    rec = scale_record(values, normalization)
    rounds = autoregressive_rounds(int(horizon), h)
    work = apply_scale(values, rec)
    preds = []
    cache: list = []
    with no_grad():
        for _ in range(rounds):
            if len(work) > cap_points or h % p:
                cache.clear()  # positions shift or patch boundaries move: re-encode the window
            span = h if cache else min(len(work), cap_points)
            end = len(work)
            feats_cur = None if features is None else features[end - span:end]
            out = forward(weights, cfg, assemble_patch_inputs(work[end - span:], feats_cur, cfg),
                          cache)
            step = out.data[-1]  # last token: the h points after the context
            preds.append(step)
            work = np.concatenate([work, step])
    normed_pred = np.concatenate(preds)[:horizon]
    return ForecastResult(values=invert_scale(normed_pred, rec),
                          rounds=rounds,
                          round_index=np.arange(int(horizon)) // h,
                          scale=rec)
