"""Autoregressive forecasting: round counting, feed-back continuation,
capacity sliding, fixed normalization, and input validation.

The continuation oracle below re-implements the loop with direct model
calls, so forecast() is checked against an independent walk of the same
contract.
"""

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime
from unittest import mock

import numpy as np
import pytest
import reference_model
from hypothesis import given, settings
from hypothesis import strategies as st

import patchcast.inference as inference

from patchcast import tensor as T
from patchcast.data import derive_date_features
from patchcast.inference import (
    MAX_ROUNDS,
    SCORES_BUDGET,
    ForecastError,
    ForecastResult,
    HorizonError,
    autoregressive_rounds,
    check_horizon,
    forecast,
)
from patchcast.model import (
    ContextTooShortError,
    ModelConfig,
    ModelWeights,
    assemble_patch_inputs,
    forward,
)
from patchcast.tensor import active_tape
from patchcast.training import apply_scale, invert_scale, scale_record


def tiny_cfg(**over):
    base = dict(input_patch_len=4, output_patch_len=8, model_dim=8, num_layers=1,
                num_heads=2, feature_dim=0, residual_hidden=8, max_positions=64)
    base.update(over)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def rig():
    cfg = tiny_cfg()
    return cfg, ModelWeights.initialize(cfg, seed=11)


def wave(n, period=12.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return np.sin(2 * math.pi * t / period) + 0.01 * rng.normal(size=n) + 3.0


# -- round counting -----------------------------------------------------------


@pytest.mark.parametrize("horizon,h,want", [
    (1, 8, 1), (8, 8, 1), (9, 8, 2), (16, 8, 2), (32, 8, 4),
    (32, 2, 16), (5, 2, 3), (512, 128, 4), (512, 32, 16),
])
def test_round_count_is_ceiling(horizon, h, want):
    assert autoregressive_rounds(horizon, h) == want


# -- shape and bookkeeping -------------------------------------------------------


@pytest.mark.parametrize("horizon", [1, 7, 8, 9, 26])
def test_forecast_length_and_rounds(rig, horizon):
    cfg, weights = rig
    res = forecast(weights, cfg, wave(60), horizon)
    assert isinstance(res, ForecastResult)
    assert res.values.shape == (horizon,)
    assert res.rounds == -(-horizon // 8)
    assert np.isfinite(res.values).all()


def test_round_index_labels_each_step(rig):
    cfg, weights = rig
    res = forecast(weights, cfg, wave(60), 20)
    assert res.round_index.tolist() == [0] * 8 + [1] * 8 + [2] * 4
    assert res.rounds == 3


def test_forecast_deterministic(rig):
    cfg, weights = rig
    a = forecast(weights, cfg, wave(60), 20)
    b = forecast(weights, cfg, wave(60), 20)
    assert np.array_equal(a.values, b.values)


def test_forecast_records_nothing_on_tape(rig):
    cfg, weights = rig
    assert all(p.requires_grad for _, p in weights.named())
    forecast(weights, cfg, wave(60), 9)
    forecast(weights, cfg, np.array([wave(60), wave(60, seed=1)]), 17)
    assert active_tape().records == []


# -- continuation oracle -----------------------------------------------------------


def manual_forecast(weights, cfg, values, horizon):
    """Independent reimplementation: explicit rounds of tokenize/forward."""
    p, h = cfg.input_patch_len, cfg.output_patch_len
    cap = p * cfg.max_positions
    values = values[-cap:] if len(values) > cap else values
    rec = scale_record(values)
    out = []
    work = apply_scale(values, rec)
    while len(out) * h < horizon:
        cur = work[-cap:]
        pred = forward(weights, cfg, assemble_patch_inputs(cur, None, cfg)).data[-1]
        out.append(pred)
        work = np.concatenate([work, pred])
    return invert_scale(np.concatenate(out)[:horizon], rec)


def test_forecast_matches_manual_continuation(rig):
    # one layer: the cached keys and values are the ones a full pass computes,
    # so the cached rounds are bitwise. output_patch_len 6 is no multiple of
    # input_patch_len 4, so every round of that config re-encodes its window.
    odd = tiny_cfg(output_patch_len=6)
    vals = wave(50, seed=4)
    for cfg, weights in (rig, (odd, ModelWeights.initialize(odd, seed=11))):
        for horizon in (8, 12, 24):
            got = forecast(weights, cfg, vals, horizon)
            assert np.array_equal(got.values, manual_forecast(weights, cfg, vals, horizon))


@pytest.fixture(scope="module")
def desk_rig():
    cfg = ModelConfig.preset("desk")
    return cfg, ModelWeights.initialize(cfg, seed=5)


@pytest.mark.parametrize("horizon", [64, 256])
def test_cached_rounds_match_full_recompute_within_tolerance(desk_rig, horizon):
    """Desk preset, 512-point context: the KV-cached forecast against the
    full-recompute oracle.

    Round 1 encodes the same rows as the oracle and matches bitwise. Later
    rounds agree to rtol 1e-12, not bitwise: past layer 0 a cached token
    keeps the state computed when it was the newest, while the oracle
    recomputes it over the longer window, and numpy's pairwise row sum in the
    softmax regroups its terms once a row exceeds 128 elements (the window
    here holds 128 tokens and more), so the recomputed states differ in the
    last bits.
    """
    cfg, weights = desk_rig
    vals = wave(512, period=24.0, seed=3)
    got = forecast(weights, cfg, vals, horizon).values
    want = manual_forecast(weights, cfg, vals, horizon)
    h = cfg.output_patch_len
    assert np.array_equal(got[:h], want[:h])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("context", [64, 512])
def test_forecast_grid_equals_reference_model_with_concatenating_cache(monkeypatch, desk_rig,
                                                                       context):
    """The benchmark's grid of contexts and horizons, with calendar features:
    forecasts through the in-place KV cache equal, bit for bit, those of the
    op-by-op reference model, which keeps its cache as a list of (K, V)
    arrays that grow by concatenation and computes every row of every round."""
    cfg, weights = desk_rig
    vals = wave(context + 256, period=24.0, seed=context)[:context]
    caches = {}

    def reference_forward(weights, cfg, inputs, cache, last):
        if cache is None:  # one round: nothing to cache
            return T.Tensor(reference_model.forward(weights, cfg, inputs).data[..., -last:, :])
        if cache.length == 0:  # a new window: start the reference's own cache
            caches[id(cache)] = []
        ref = caches[id(cache)]
        out = reference_model.forward(weights, cfg, inputs, ref)
        cache.length = ref[0][0].shape[-2]
        return T.Tensor(out.data[..., -last:, :])

    for horizon in (8, 64, 256):
        feats = derive_date_features(datetime(2024, 3, 1), "hourly", context + horizon)
        shipped = forecast(weights, cfg, vals, horizon, features=feats).values
        with monkeypatch.context() as patch:
            patch.setattr(inference, "forward", reference_forward)
            want = forecast(weights, cfg, vals, horizon, features=feats).values
        assert np.array_equal(shipped, want), horizon
    assert caches  # the reference path ran


def test_rounds_after_the_first_encode_only_new_patches(monkeypatch, desk_rig):
    import patchcast.inference as inference

    rows = []

    def spy(weights, cfg, inputs, cache=None, last=None):
        rows.append(np.shape(inputs)[-2])
        return forward(weights, cfg, inputs, cache, last)

    monkeypatch.setattr(inference, "forward", spy)
    cfg, weights = desk_rig
    p, h = cfg.input_patch_len, cfg.output_patch_len
    forecast(weights, cfg, wave(512, seed=1), 64)
    assert rows == [512 // p] + [h // p] * 7
    # past the positional cap every round re-encodes the whole window
    rows.clear()
    slide = tiny_cfg(max_positions=4)
    forecast(ModelWeights.initialize(slide, seed=3), slide, wave(16, seed=9), 24)
    assert rows == [4, 4, 4]


def test_longer_horizon_keeps_shorter_prefix_bitwise(rig):
    cfg, weights = rig
    vals = wave(44, seed=2)
    short = forecast(weights, cfg, vals, 5)
    long = forecast(weights, cfg, vals, 21)
    assert np.array_equal(long.values[:5], short.values)


def test_second_round_consumes_first_round_output(rig):
    # negative control: a model whose round-1 output is perturbed must give a
    # different round 2 — the feedback path is live
    cfg, weights = rig
    vals = wave(40, seed=6)
    honest = forecast(weights, cfg, vals, 16)
    rec = scale_record(vals)
    normed = apply_scale(vals, rec)
    pred1 = forward(weights, cfg, assemble_patch_inputs(normed, None, cfg)).data[-1]
    tampered = pred1 + 0.5
    work = np.concatenate([normed, tampered])
    pred2 = forward(weights, cfg, assemble_patch_inputs(work, None, cfg)).data[-1]
    assert not np.allclose(invert_scale(pred2, rec), honest.values[8:])


# -- capacity sliding window ---------------------------------------------------------


def test_long_context_clamps_to_most_recent_points():
    cfg = tiny_cfg(max_positions=4)  # cap = 16 points
    weights = ModelWeights.initialize(cfg, seed=3)
    vals = wave(40, seed=8)
    full = forecast(weights, cfg, vals, 8)
    clamped = forecast(weights, cfg, vals[-16:], 8)
    assert np.array_equal(full.values, clamped.values)
    assert full.scale == clamped.scale


def test_capacity_slides_across_rounds():
    # 16-point cap, 16-point context: round 2 must slide the window, and the
    # manual walk (which also slides) must agree exactly
    cfg = tiny_cfg(max_positions=4)
    weights = ModelWeights.initialize(cfg, seed=3)
    vals = wave(16, seed=9)
    got = forecast(weights, cfg, vals, 24)
    assert np.array_equal(got.values, manual_forecast(weights, cfg, vals, 24))


# -- normalization handling --------------------------------------------------------


def test_scale_record_comes_from_clamped_context(rig):
    cfg, weights = rig
    vals = wave(60, seed=5)
    res = forecast(weights, cfg, vals, 8)
    rec = scale_record(vals)  # 60 < cap, no clamp
    assert res.scale == rec


def test_forecast_respects_normalization_none(rig):
    cfg, weights = rig
    vals = wave(60, seed=5)
    res = forecast(weights, cfg, vals, 8, normalization="none")
    assert res.scale.mu == 0.0 and res.scale.sigma == 1.0
    # raw-space continuation: manually run one round without scaling
    pred = forward(weights, cfg, assemble_patch_inputs(vals, None, cfg)).data[-1]
    assert np.array_equal(res.values, pred)


def test_forecast_shift_equivariance_under_per_window_scaling(rig):
    # standardization makes the model see identical inputs for x and 5x+100,
    # so forecasts must map through the same affine transform
    cfg, weights = rig
    vals = wave(60, seed=7)
    base = forecast(weights, cfg, vals, 12)
    moved = forecast(weights, cfg, 5.0 * vals + 100.0, 12)
    assert np.allclose(moved.values, 5.0 * base.values + 100.0, rtol=0, atol=1e-9)


# -- calendar features ----------------------------------------------------------------


@pytest.fixture(scope="module")
def feat_rig():
    cfg = tiny_cfg(feature_dim=5)
    return cfg, ModelWeights.initialize(cfg, seed=13)


def test_features_cover_context_and_horizon(feat_rig):
    from patchcast.data import derive_date_features
    from datetime import datetime

    cfg, weights = feat_rig
    vals = wave(40)
    feats = derive_date_features(datetime(2021, 3, 1), "daily", 40 + 16)
    res = forecast(weights, cfg, vals, 16, features=feats)
    assert res.values.shape == (16,)


def test_future_features_feed_later_rounds_only(feat_rig):
    cfg, weights = feat_rig
    vals = wave(40)
    L, H = 40, 16
    rng = np.random.default_rng(0)
    feats = rng.uniform(-0.5, 0.5, size=(L + H, 5))
    base = forecast(weights, cfg, vals, H, features=feats)
    # rows [L, L+8) are inputs to round 2: changing them moves round 2 only
    bumped = feats.copy()
    bumped[L:L + 8] += 0.25
    moved = forecast(weights, cfg, vals, H, features=bumped)
    assert np.array_equal(moved.values[:8], base.values[:8])
    assert not np.array_equal(moved.values[8:], base.values[8:])
    # rows at/after L+8 are never consumed for H=16: bit-identical output
    tail = feats.copy()
    tail[L + 8:] += 0.25
    same = forecast(weights, cfg, vals, H, features=tail)
    assert np.array_equal(same.values, base.values)


def test_missing_features_fill_with_sentinel(feat_rig):
    cfg, weights = feat_rig
    vals = wave(40)
    bare = forecast(weights, cfg, vals, 8)
    sentinel = forecast(weights, cfg, vals, 8,
                        features=np.full((48, 5), -1.0))
    assert np.array_equal(bare.values, sentinel.values)


# -- validation -------------------------------------------------------------------


def test_horizon_must_be_positive_integer(rig):
    cfg, weights = rig
    for bad in (0, -3, 2.5, "8", True):
        with pytest.raises(HorizonError):
            forecast(weights, cfg, wave(40), bad)


def test_horizon_past_max_rounds_rejected_before_any_work(rig, monkeypatch):
    import patchcast.inference as inference

    cfg, weights = rig
    limit = MAX_ROUNDS * cfg.output_patch_len
    check_horizon(limit, cfg)  # the bound itself is allowed
    monkeypatch.setattr(inference, "forward", None)  # any model call would fail
    t0 = time.perf_counter()
    with pytest.raises(HorizonError, match=f"{limit} points.*MAX_ROUNDS = {MAX_ROUNDS}"):
        forecast(weights, cfg, wave(40), limit + 1)
    assert time.perf_counter() - t0 < 1.0


def test_context_shorter_than_patch_rejected(rig):
    cfg, weights = rig
    with pytest.raises(ContextTooShortError):
        forecast(weights, cfg, wave(3), 8)


def test_nonfinite_context_rejected(rig):
    cfg, weights = rig
    vals = wave(40)
    vals[7] = math.nan
    with pytest.raises(ForecastError, match="non-finite"):
        forecast(weights, cfg, vals, 8)


def test_feature_length_must_match_context_plus_horizon(feat_rig):
    cfg, weights = feat_rig
    with pytest.raises(ForecastError, match="features shape"):
        forecast(weights, cfg, wave(40), 16, features=np.zeros((40, 5)))


def test_featureless_model_rejects_features(rig):
    cfg, weights = rig
    with pytest.raises(ForecastError, match="no calendar features"):
        forecast(weights, cfg, wave(40), 8, features=np.zeros((48, 5)))


def test_context_must_be_a_series_or_a_stack(rig):
    cfg, weights = rig
    with pytest.raises(ForecastError, match=r"1-d \[L\] or a stack \[B, L\]"):
        forecast(weights, cfg, np.ones((2, 8, 4)), 8)


# -- stacks of contexts ---------------------------------------------------------------


STACK_CONFIGS = [
    tiny_cfg(),
    tiny_cfg(output_patch_len=6),  # h % p != 0: every round resets the cache
    tiny_cfg(max_positions=4),  # 16-point cap: long contexts clamp, the window slides
    tiny_cfg(feature_dim=5, num_layers=2),
]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(cfg=st.sampled_from(STACK_CONFIGS), batch=st.integers(1, 5),
       length=st.integers(4, 40), horizon=st.integers(1, 20),
       with_features=st.booleans(), normalization=st.sampled_from(["per-window", "none"]),
       budget=st.sampled_from([1, SCORES_BUDGET]), cpus=st.sampled_from([2, 1]),
       seed=st.integers(0, 2**16))
def test_each_stack_row_equals_the_series_forecast_bitwise(
        cfg, batch, length, horizon, with_features, normalization, budget, cpus, seed):
    """Budget 1 decodes every row as a chunk of its own, on both threads when
    the process may use 2 CPUs and in order on the caller's with 1;
    SCORES_BUDGET takes them all in one chunk."""
    weights = ModelWeights.initialize(cfg, seed=seed % 7)
    rng = np.random.default_rng(seed)
    values = rng.normal(3.0, 1.0, size=(batch, length))
    features = None
    if with_features and cfg.feature_dim:
        features = rng.uniform(-0.5, 0.5, size=(batch, length + horizon, cfg.feature_dim))
    with (mock.patch.object(inference, "SCORES_BUDGET", budget),
          mock.patch.object(T, "_usable_cpus", lambda: cpus)):
        got = forecast(weights, cfg, values, horizon, features=features,
                       normalization=normalization)
    assert got.values.shape == (batch, horizon)
    for i in range(batch):
        one = forecast(weights, cfg, values[i], horizon,
                       features=None if features is None else features[i],
                       normalization=normalization)
        assert np.array_equal(got.values[i], one.values)
        assert np.array_equal(got.round_index, one.round_index) and got.rounds == one.rounds
        if normalization == "per-window":
            assert (got.scale.mu[i, 0], got.scale.sigma[i, 0]) == (one.scale.mu, one.scale.sigma)
        else:
            assert got.scale == one.scale


def test_stack_splits_into_chunks_within_the_scores_budget(monkeypatch, desk_rig):
    rows = []

    def spy(weights, cfg, inputs, cache=None, last=None):
        rows.append(np.shape(inputs)[:-1])
        return forward(weights, cfg, inputs, cache, last)

    monkeypatch.setattr(inference, "forward", spy)
    cfg, weights = desk_rig
    n = 512 // cfg.input_patch_len
    per_row = 8 * cfg.num_heads * n * n  # one row's [heads, N, N] scores
    monkeypatch.setattr(inference, "SCORES_BUDGET", 2 * per_row + per_row // 2)
    forecast(weights, cfg, np.tile(wave(512), (5, 1)), cfg.output_patch_len)
    assert rows == [(2, n), (2, n), (1, n)]


@pytest.mark.parametrize("horizon", [8, 24])
def test_stack_rows_equal_series_forecasts_at_context_512(monkeypatch, desk_rig, horizon):
    """evaluate_cli's geometry under the shipped budget: 128-token windows,
    several rows a chunk, each row bit for bit its own 1-d forecast."""
    rows = []

    def spy(weights, cfg, inputs, cache=None, last=None):
        rows.append(np.shape(inputs)[0])
        return forward(weights, cfg, inputs, cache, last)

    cfg, weights = desk_rig
    stack = np.stack([wave(512, period=24.0, seed=s) for s in range(7)])
    monkeypatch.setattr(inference, "forward", spy)
    got = forecast(weights, cfg, stack, horizon).values
    monkeypatch.undo()
    assert min(rows) < max(rows) and max(rows) >= 2  # chunks of several rows and a last one
    for i, row in enumerate(stack):
        assert np.array_equal(got[i], forecast(weights, cfg, row, horizon).values)


def test_scores_budget_keeps_evaluate_below_the_split(desk_rig):
    # evaluate_cli's chunks (desk, ctx 512: N = 128) hold at least 2 rows, and
    # one layer's scores of a chunk stay below the two-thread split
    cfg, _ = desk_rig
    n = 512 // cfg.input_patch_len
    per_row = 8 * cfg.num_heads * n * n
    assert SCORES_BUDGET // per_row >= 2
    assert SCORES_BUDGET // 8 < T.SPLIT_MIN_ENTRIES


# -- a stack's chunks on both threads ----------------------------------------------------


def wrap_decode(monkeypatch, before, caller=None):
    """Patch inference._decode to call before(on_caller) first, on_caller
    telling whether the chunk runs on the thread `caller` (the main thread
    by default); returns the list of on_caller flags, one per chunk started."""
    decode, started = inference._decode, []
    caller = caller or threading.main_thread()

    def spy(*args):
        started.append(threading.current_thread() is caller)
        before(started[-1])
        return decode(*args)

    monkeypatch.setattr(inference, "_decode", spy)
    return started


def test_failing_chunks_on_both_threads_raise_the_first_chunks_error(rig, monkeypatch):
    # chunks 0 and 1 overflow the activations, one on each thread; both paths
    # raise chunk 0's error, as the in-order loop does
    cfg, weights = rig
    values = np.array([np.full(40, 1.7e308), np.full(40, 1.7e308), wave(40)])
    monkeypatch.setattr(inference, "SCORES_BUDGET", 1)  # one row a chunk
    messages = {}
    for cpus in (2, 1):
        monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
        both = threading.Barrier(cpus, timeout=5)  # 2: each thread holds a chunk
        started = wrap_decode(monkeypatch, lambda on_caller: both.wait())
        with pytest.raises(ForecastError) as info:
            forecast(weights, cfg, values, 8, normalization="none")
        assert sorted(started) == ([False, True] if cpus == 2 else [True])
        messages[cpus] = str(info.value)
    assert messages[2] == messages[1]
    assert messages[1].startswith("the model's activations are not finite in rows 0 to 0: ")


@pytest.mark.parametrize("cpus", [2, 1])
def test_no_chunk_starts_after_a_chunk_fails(rig, monkeypatch, cpus):
    cfg, weights = rig
    values = np.array([np.full(40, 1.7e308)] + [wave(40, seed=s) for s in range(5)])
    monkeypatch.setattr(inference, "SCORES_BUDGET", 1)  # six chunks; the first fails
    monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
    worker_busy = threading.Event()

    def before(on_caller):
        if on_caller and cpus == 2:
            assert worker_busy.wait(5)  # chunk 0 fails while the worker holds chunk 1
        elif not on_caller:
            worker_busy.set()
            time.sleep(0.2)  # and chunk 1 ends after the failure

    started = wrap_decode(monkeypatch, before)
    with pytest.raises(ForecastError, match="in rows 0 to 0: "):
        forecast(weights, cfg, values, 8, normalization="none")
    assert started == ([True, False] if cpus == 2 else [True])


def test_chunks_that_split_on_the_worker_finish_and_equal_one_cpu_bitwise(rig, monkeypatch):
    # every attention call of two rows splits, also on the worker, where
    # _in_halves' own task queues behind the running chunk: it must not wait on it
    cfg, weights = rig
    values = np.stack([wave(40, seed=s) for s in range(6)])
    widest = (40 + cfg.output_patch_len) // cfg.input_patch_len  # a 2-round forecast's window
    monkeypatch.setattr(inference, "SCORES_BUDGET", 2 * 8 * cfg.num_heads * widest * widest)
    monkeypatch.setattr(T, "SPLIT_MIN_ENTRIES", 1)
    monkeypatch.setattr(T, "_usable_cpus", lambda: 1)
    want = forecast(weights, cfg, values, 16).values
    monkeypatch.setattr(T, "_usable_cpus", lambda: 2)
    pool, submitters = ThreadPoolExecutor(max_workers=1), []

    class RecordingPool:
        def submit(self, fn, *args):
            submitters.append(threading.current_thread().name)
            return pool.submit(fn, *args)

    monkeypatch.setattr(T, "_second_core", lambda: RecordingPool())
    got, worker_busy = [], threading.Event()
    caller = threading.Thread(target=lambda: got.append(forecast(weights, cfg, values, 16)),
                              daemon=True)
    wrap_decode(monkeypatch, lambda on_caller: worker_busy.set() if not on_caller
                else worker_busy.wait(5), caller)
    caller.start()
    caller.join(20)
    if caller.is_alive():
        pool.shutdown(wait=False, cancel_futures=True)
        pytest.fail("the forecast did not finish")
    pool.shutdown()
    assert len(set(submitters)) == 2  # the caller's thread and the worker both split
    assert got[0].values.tobytes() == want.tobytes()


def test_forecast_runs_only_the_rows_a_round_reads(monkeypatch, desk_rig):
    lasts = []

    def spy(weights, cfg, inputs, cache=None, last=None):
        lasts.append(last)
        return forward(weights, cfg, inputs, cache, last)

    monkeypatch.setattr(inference, "forward", spy)
    cfg, weights = desk_rig
    forecast(weights, cfg, wave(512), 2 * cfg.output_patch_len)
    forecast(weights, cfg, wave(4), 1)  # one token: one row to read
    assert lasts == [inference.LAST_ROWS, inference.LAST_ROWS, 1]


def test_stack_of_more_than_two_dimensions_rejected(rig):
    cfg, weights = rig
    with pytest.raises(ForecastError, match="shape"):
        forecast(weights, cfg, np.ones((2, 3, 40)), 8)


def test_stack_features_of_the_wrong_shape_rejected(feat_rig):
    cfg, weights = feat_rig
    values = np.tile(wave(40), (3, 1))
    for bad in (np.zeros((48, 5)), np.zeros((2, 48, 5)), np.zeros((3, 40, 5))):
        with pytest.raises(ForecastError, match="features shape"):
            forecast(weights, cfg, values, 8, features=bad)


def test_nonfinite_stack_row_is_named(rig):
    cfg, weights = rig
    values = np.tile(wave(40), (4, 1))
    values[2, 5] = math.inf
    with pytest.raises(ForecastError, match="non-finite values in row 2"):
        forecast(weights, cfg, values, 8)


def test_context_whose_squares_overflow_forecasts_finite_values(rig):
    import warnings

    # a 96-point sine with one point at 1e200: its squares overflow float64, so
    # scale_record takes the statistics of the values over their largest magnitude
    cfg, weights = rig
    spiked = np.sin(2 * math.pi * np.arange(96) / 24.0)
    spiked[50] = 1e200
    plain = wave(96)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = forecast(weights, cfg, spiked, 8)
        stack = forecast(weights, cfg, np.array([plain, spiked]), 8)
    assert np.isfinite(one.values).all()
    assert one.scale.mu == pytest.approx(1.04e198, rel=0.01)
    assert one.scale.sigma == pytest.approx(1.02e199, rel=0.01)
    assert (stack.scale.mu[1, 0], stack.scale.sigma[1, 0]) == (one.scale.mu, one.scale.sigma)
    assert np.array_equal(stack.values[1], one.values)
    # the row the plain form handles keeps its bits
    assert stack.scale.mu[0, 0] == plain.mean() and stack.scale.sigma[0, 0] == plain.std()


def test_context_that_overflows_once_normalized_is_named_without_a_numpy_warning(rig):
    import warnings

    cfg, weights = rig
    mixed = [1.7e308] * 39 + [-1.7e308]  # finite statistics, but x - mu overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is reported once, as the error below
        with pytest.raises(ForecastError, match="normalized context overflows float64$"):
            forecast(weights, cfg, np.array(mixed), 8)
        with pytest.raises(ForecastError, match="overflows float64 in row 2$"):
            forecast(weights, cfg, np.array([wave(40), wave(40) * 1e200, mixed]), 8)


def test_forecast_that_overflows_once_inverted_is_named(rig, monkeypatch):
    cfg, weights = rig
    values = np.array([wave(40), wave(40) * 1e10])
    monkeypatch.setattr(inference, "_decode", lambda *args: np.full((2, 8), 1e300))
    with pytest.raises(ForecastError, match="forecast overflows float64 on the context's "
                                            "scale in row 1$"):
        forecast(weights, cfg, values, 8)


def test_activations_that_are_not_finite_raise_forecast_error(rig):
    import warnings

    # unscaled values near the float64 limit overflow inside the model
    cfg, weights = rig
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is reported once, as the error below
        with pytest.raises(ForecastError, match="activations are not finite: softmax"):
            forecast(weights, cfg, np.full(40, 1.7e308), 8, normalization="none")
        with pytest.raises(ForecastError, match="activations are not finite in rows 0 to 1"):
            forecast(weights, cfg, np.array([wave(40), np.full(40, 1.7e308)]), 8,
                     normalization="none")
