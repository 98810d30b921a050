"""Zero-shot autoregressive forecasting.

A trained model emits output_patch_len points per round; longer horizons are
covered by feeding each round's (still-normalized) predictions back as
context and re-tokenizing, for ceil(horizon / output_patch_len) rounds.
Normalization statistics are computed once from the original context (after
the capacity clamp) and reused for every round and for the final inversion.

Round 1 encodes the context and fills a key/value cache (model.KVCache: one
preallocated key and value buffer per layer, written in place); each later
round encodes only the output_patch_len / input_patch_len patches the last
round appended. The cache holds the widest window any round of the forecast
encodes, never more than max_positions tokens. It is reset, and the round
re-encodes its whole window, when the window slides past input_patch_len *
max_positions points (positions shift). A forecast of one round, or one whose
output_patch_len is no multiple of input_patch_len (patch boundaries move, so
every round re-encodes its window), keeps no cache: no later round would read
it. Round 1 is bit-identical to a full recompute; later rounds agree with it
within 1e-12 relative, since the full recompute re-rounds the older tokens'
states (numpy's pairwise row sum in the softmax regroups past 128 elements).

A round reads one output row, the last token's, so its forward runs the last
layer's queries, attention and FFN, and the output block, on the trailing
LAST_ROWS tokens only. A stack of equal-length contexts [B, L] runs the same
rounds on all rows at once, split into chunks of rows whose attention scores
fit SCORES_BUDGET bytes. Each chunk has its own KV cache and writes only its
own rows, so the caller's thread and the worker thread take turns at the
chunk list (tensor.on_two_threads); each row equals the 1-d forecast of its
context bit for bit on either thread, and a 1-d context is one chunk, decoded
on the caller's thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (ContextTooShortError, KVCache, ModelConfig, ModelWeights,
                    assemble_patch_inputs, check_int, forward)
from .tensor import NumericError, no_grad, on_two_threads
from .training import ScaleRecord, apply_scale, invert_scale, scale_record

__all__ = [
    "ForecastError",
    "HorizonError",
    "ForecastResult",
    "LAST_ROWS",
    "MAX_ROUNDS",
    "SCORES_BUDGET",
    "autoregressive_rounds",
    "check_horizon",
    "forecast",
]

MAX_ROUNDS = 256  # autoregressive rounds one forecast may take (desk: 2048 points)
# Trailing rows each round's forward computes past the last layer's keys and values. The
# round reads one, but numpy sends a 1-row product to BLAS gemv, which rounds differently
# from the full product's gemm; from 2 rows on the rows match the full forward bit for bit.
LAST_ROWS = 2
# Bytes a chunk of a stack may spend on one layer's [rows, heads, N, N] attention scores.
# Measured on evaluate_cli (ctx 512, N = 128, desk), first against the per-window loop:
# 256 KB (one row a chunk) ran 1.3x its throughput and 512 KB (two rows) 1.8x for +0.9 MB
# peak RSS; with one thread decoding, 1.5 MB (six rows) then ran 1.17x the throughput of
# 512 KB for +2.0 MB. Since both threads take chunks (tensor.on_two_threads), each holds
# one chunk's arrays, so the budget trades throughput for peak RSS again. Against one
# thread at 1.5 MB, 4 alternating 10-s pairs per budget read: 1.5 MB 1.50x the throughput
# for +8.3% peak RSS, 1 MB (four rows) 1.41x for +3.2%, three rows 1.26x for +1.2%
# (2-core x86-64, OPENBLAS_NUM_THREADS=1). 1 MB gives the most throughput within +5% RSS;
# 10 alternating 25-s pairs read it 1.36x the throughput for +4.6% peak RSS and 1.56x the
# CPU time (BENCH_evaluate_cli_two_cores.json).
# Keep it under 2 MB: 8 rows of 128 x 128 scores reach SPLIT_MIN_ENTRIES, and a chunk's
# calls would then also hand halves to a worker that is busy with a chunk of its own.
SCORES_BUDGET = 1 << 20


class ForecastError(ValueError):
    pass


class HorizonError(ForecastError):
    pass


@dataclass
class ForecastResult:
    values: np.ndarray       # [horizon] or [B, horizon] forecast on the original scale
    rounds: int              # autoregressive rounds taken
    round_index: np.ndarray  # [horizon] round that produced each step
    scale: ScaleRecord       # record used to normalize context / invert output (mu, sigma
                             # [B, 1] for a stack)


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
    """Forecast `horizon` future points from a context [L] or a stack of
    equal-length contexts [B, L]; the values come back as [horizon] or
    [B, horizon], each row equal bit for bit to the 1-d call on its context.

    `features` covers the context and the forecast span: shape
    [L + horizon, feature_dim] (per row for a stack: [B, L + horizon,
    feature_dim]), or None to mark every calendar column unavailable.
    Contexts longer than input_patch_len * max_positions are clamped to their
    most recent points, and the working window keeps sliding under that cap
    as predictions are appended. A stack is decoded in chunks of rows whose
    attention scores fit SCORES_BUDGET, each chunk with its own KV cache; the
    whole stack is scaled once and inverted once, and its chunks are decoded
    on both threads (tensor.on_two_threads), or in order on one CPU. A
    horizon past MAX_ROUNDS rounds raises HorizonError before any work. A
    context whose normalized values overflow float64 (points of +-1.7e308),
    or whose forecast does so once inverted to the context's scale, raises
    ForecastError, naming the row of a stack; so do activations that are
    not finite (unscaled huge values), naming the first failing chunk's
    rows, as the in-order loop would.
    """
    check_horizon(horizon, cfg)
    horizon = int(horizon)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim not in (1, 2):
        raise ForecastError(f"context must be 1-d [L] or a stack [B, L], got shape {values.shape}")
    _check_finite(np.isfinite(values).all(axis=-1), values.ndim, "context contains non-finite values")
    p, h = cfg.input_patch_len, cfg.output_patch_len
    length = values.shape[-1]
    if length < p:
        raise ContextTooShortError(
            f"context of {length} points is shorter than one {p}-point patch")

    if cfg.feature_dim == 0:
        if features is not None:
            raise ForecastError("model takes no calendar features, but features were given")
    elif features is not None:
        features = np.asarray(features, dtype=np.float64)
        want = values.shape[:-1] + (length + horizon, cfg.feature_dim)
        if features.shape != want:
            raise ForecastError(
                f"features shape {features.shape} does not match context+horizon {want}")

    cap_points = p * cfg.max_positions
    drop = max(0, length - cap_points)
    values = values[..., drop:]
    if features is not None:
        features = features[..., drop:, :]
    rounds = autoregressive_rounds(horizon, h)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised just below
        scale = scale_record(values, normalization)
        work = apply_scale(values, scale)
    # finite statistics (scale_record's fallback) can still leave x - mu past float64
    _check_finite(np.isfinite(work).all(axis=-1), values.ndim,
                  "the normalized context overflows float64")
    # tokens of the widest window any round encodes: the KV cache's capacity,
    # and the side of the largest attention scores array
    widest = min(values.shape[-1] + (rounds - 1) * h, cap_points) // p
    if values.ndim == 1:
        chunks = [slice(None)]
    else:
        rows = max(1, SCORES_BUDGET // (8 * cfg.num_heads * widest * widest))
        chunks = [slice(i, i + rows) for i in range(0, len(values), rows)]
    preds = np.empty(values.shape[:-1] + (rounds * h,))

    def decode(c):
        try:
            preds[c] = _decode(weights, cfg, work[c], None if features is None else features[c],
                               rounds, widest)
        except NumericError as exc:  # unscaled huge values overflow the activations
            rows = "" if values.ndim == 1 else f" in rows {c.start} to {min(c.stop, len(values)) - 1}"
            raise ForecastError(f"the model's activations are not finite{rows}: {exc}") from exc

    on_two_threads(decode, chunks)
    with np.errstate(over="ignore", invalid="ignore"):
        out = invert_scale(preds[..., :horizon], scale)
    _check_finite(np.isfinite(out).all(axis=-1), values.ndim,
                  "the forecast overflows float64 on the context's scale")
    return ForecastResult(values=out, rounds=rounds, round_index=np.arange(horizon) // h,
                          scale=scale)


def _check_finite(finite, ndim: int, what: str) -> None:
    """ForecastError saying `what` unless every entry of `finite` (one per
    series) is True; for a stack (`ndim` 2) it names the first false row."""
    finite = np.ravel(finite)
    if not finite.all():
        row = "" if ndim == 1 else f" in row {int(np.argmin(finite))}"
        raise ForecastError(f"{what}{row}")


def _decode(weights: ModelWeights, cfg: ModelConfig, work: np.ndarray, features,
            rounds: int, widest: int) -> np.ndarray:
    """`rounds` rounds of forecasts [.., rounds * h] on the normalized scale from
    normalized clamped contexts [.., L] and their features [.., L + horizon, F] or
    None; no round encodes a window of more than `widest` tokens."""
    p, h = cfg.input_patch_len, cfg.output_patch_len
    cap_points = p * cfg.max_positions
    length = work.shape[-1]
    series = np.empty(work.shape[:-1] + (length + rounds * h,))  # context, then forecasts
    series[..., :length] = work
    # only a later round reads the cache: none for one round, nor where patch
    # boundaries move and every round re-encodes its window
    cache = KVCache(cfg, work.shape[:-1], widest) if rounds > 1 and h % p == 0 else None
    # unscaled huge values overflow silently: softmax's finite check raises NumericError
    with no_grad(), np.errstate(over="ignore", invalid="ignore"):
        for end in range(length, length + rounds * h, h):
            if cache is not None and end > cap_points:
                cache.reset()  # positions shift: re-encode the window
            span = h if cache is not None and cache.length else min(end, cap_points)
            feats_cur = None if features is None else features[..., end - span:end, :]
            inputs = assemble_patch_inputs(series[..., end - span:end], feats_cur, cfg)
            out = forward(weights, cfg, inputs, cache, last=min(LAST_ROWS, inputs.shape[-2]))
            series[..., end:end + h] = out.data[..., -1, :]  # the last token's h next points
    return series[..., length:]
