import json
import math
from pathlib import Path

import numpy as np
import pytest
import reference_model
from hypothesis import given, settings
from hypothesis import strategies as st

from patchcast import model as M
from patchcast import tensor as tt
from patchcast.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from patchcast.model import (
    CapacityError,
    ConfigError,
    ContextTooShortError,
    FeatureShapeError,
    KVCache,
    ModelConfig,
    ModelWeights,
    assemble_patch_inputs,
    forward,
    input_tokens,
    output_forecasts,
    parameter_count,
    patchify,
    positional_encoding,
    residual_block,
    stacked_transformer,
    weight_shapes,
)
from patchcast.tensor import Tensor, no_grad, sum_exact
from patchcast.training import train_loss

DESK_CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "desk.npz"

def tiny_cfg(**kw):
    base = dict(input_patch_len=4, output_patch_len=8, model_dim=16, num_layers=2,
                num_heads=2, feature_dim=0, residual_hidden=12, max_positions=64)
    base.update(kw)
    return ModelConfig(**base)


# -- independent straight-line reference ---------------------------------------


def reference_forward(cfg, arrays, inp):
    """Per-token, per-head loop implementation in plain numpy.

    Written against the architecture definition, not against model.py:
    causality comes from summing attention over positions <= j instead of
    additive masking.
    """
    n = inp.shape[0]
    d, nh = cfg.model_dim, cfg.num_heads
    dh = d // nh

    def res_block(v, prefix, skip_key):
        hidden = np.maximum(v @ arrays[prefix + ".w1"] + arrays[prefix + ".b1"], 0.0)
        out = hidden @ arrays[prefix + ".w2"] + arrays[prefix + ".b2"]
        return out + (v @ arrays[skip_key] if skip_key in arrays else v)

    x = np.zeros((n, d))
    for j in range(n):
        pe = np.zeros(d)
        for i in range(d // 2):
            angle = j / (10000.0 ** (2.0 * i / d))
            pe[2 * i] = math.sin(angle)
            pe[2 * i + 1] = math.cos(angle)
        x[j] = res_block(inp[j], "input", "input.wskip") + pe

    def ln(row, gain, bias):
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        return (row - mu) / math.sqrt(var + 1e-6) * gain + bias

    for li in range(cfg.num_layers):
        lp = f"layer{li}"
        normed = np.stack([ln(x[j], arrays[f"{lp}.ln1.gain"], arrays[f"{lp}.ln1.bias"])
                           for j in range(n)])
        q = normed @ arrays[f"{lp}.attn.wq"] + arrays[f"{lp}.attn.bq"]
        k = normed @ arrays[f"{lp}.attn.wk"] + arrays[f"{lp}.attn.bk"]
        v = normed @ arrays[f"{lp}.attn.wv"] + arrays[f"{lp}.attn.bv"]
        merged = np.zeros((n, d))
        for head in range(nh):
            cols = slice(head * dh, (head + 1) * dh)
            qh, kh, vh = q[:, cols], k[:, cols], v[:, cols]
            for j in range(n):
                scores = np.array([qh[j] @ kh[t] / math.sqrt(dh) for t in range(j + 1)])
                w = np.exp(scores - scores.max())
                w = w / w.sum()
                merged[j, cols] = sum(w[t] * vh[t] for t in range(j + 1))
        x = x + merged @ arrays[f"{lp}.attn.wo"] + arrays[f"{lp}.attn.bo"]
        normed = np.stack([ln(x[j], arrays[f"{lp}.ln2.gain"], arrays[f"{lp}.ln2.bias"])
                           for j in range(n)])
        hidden = np.maximum(normed @ arrays[f"{lp}.ffn.w1"] + arrays[f"{lp}.ffn.b1"], 0.0)
        x = x + hidden @ arrays[f"{lp}.ffn.w2"] + arrays[f"{lp}.ffn.b2"]

    return np.stack([res_block(x[j], "output", "output.wskip") for j in range(n)])


def test_forward_matches_loop_reference():
    cfg = tiny_cfg()
    weights = ModelWeights.initialize(cfg, seed=3)
    rng = np.random.default_rng(11)
    inp = rng.standard_normal((6, cfg.input_width))
    with no_grad():
        got = forward(weights, cfg, inp).data
    want = reference_forward(cfg, weights.as_arrays(), inp)
    assert got.shape == want.shape == (6, cfg.output_patch_len)
    assert np.allclose(got, want, atol=1e-10)


def test_forward_matches_reference_with_features():
    cfg = tiny_cfg(feature_dim=5, model_dim=24, num_heads=3, num_layers=1)
    weights = ModelWeights.initialize(cfg, seed=4)
    rng = np.random.default_rng(12)
    inp = rng.standard_normal((5, cfg.input_width))
    with no_grad():
        got = forward(weights, cfg, inp).data
    assert np.allclose(got, reference_forward(cfg, weights.as_arrays(), inp), atol=1e-10)


# -- the op-by-op reference model: bitwise ----------------------------------------


REFERENCE_CONFIGS = [
    ModelConfig.preset("desk"),  # learned skip projections on both residual blocks
    tiny_cfg(input_patch_len=8, model_dim=8, output_patch_len=8, num_heads=2,
             residual_hidden=6),  # identity skips: input width = model_dim = h
]


def random_weights(cfg, seed):
    """Two parameter sets holding the same random values, biases and gains
    included, so that a dropped bias or gain changes the result."""
    rng = np.random.default_rng(seed)
    arrays = {name: rng.standard_normal(shape) / math.sqrt(shape[0])
              for name, shape in weight_shapes(cfg).items()}
    return ModelWeights.from_arrays(cfg, arrays), ModelWeights.from_arrays(cfg, arrays)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(cfg=st.sampled_from(REFERENCE_CONFIGS), batch=st.integers(1, 3),
       n=st.integers(1, 12), split=st.integers(1, 12), seed=st.integers(0, 2**16))
def test_forward_gradients_and_cache_equal_reference_model_bitwise(cfg, batch, n, split, seed):
    model_w, ref_w = random_weights(cfg, seed)
    rng = np.random.default_rng(seed + 1)
    inputs = rng.standard_normal((batch, n, cfg.input_width))
    targets = rng.standard_normal((batch, n, cfg.output_patch_len))
    outs = []
    for run, weights in ((forward, model_w), (reference_model.forward, ref_w)):
        outs.append(run(weights, cfg, inputs))
        train_loss(outs[-1], targets).backward()
    assert np.array_equal(outs[0].data, outs[1].data)
    for name, p in model_w.named():
        assert np.array_equal(p.grad, ref_w[name].grad), name
    m = min(split, n)
    got_cache, trimmed_cache = (KVCache(cfg, (batch,), n) for _ in range(2))
    want_cache = []
    with no_grad():
        for chunk in (inputs[:, :m], inputs[:, m:]) if m < n else (inputs,):
            got = forward(model_w, cfg, chunk, got_cache)
            want = reference_model.forward(ref_w, cfg, chunk, want_cache)
            assert np.array_equal(got.data, want.data)
            rows = min(2, chunk.shape[-2])  # as a forecast round keeps them
            trimmed = forward(model_w, cfg, chunk, trimmed_cache, last=rows)
            assert np.array_equal(trimmed.data, want.data[..., -rows:, :])
    # each layer's filled key and value rows are the reference's concatenated arrays
    for cache in (got_cache, trimmed_cache):
        assert cache.length == n
        for got_k, got_v, (want_k, want_v) in zip(cache.keys, cache.values, want_cache,
                                                  strict=True):
            assert np.array_equal(got_k[..., :n, :], want_k)
            assert np.array_equal(got_v[..., :n, :], want_v)
    # forward(last=m): the reference's trailing m rows, bitwise from m = 2 on. One
    # row goes to BLAS gemv, which rounds differently from the full product's gemm.
    with no_grad():
        want = reference_model.forward(ref_w, cfg, inputs).data
        for last in range(1, n + 1):
            got = forward(model_w, cfg, inputs, last=last).data
            if last >= 2 or n == 1:
                assert np.array_equal(got, want[..., -last:, :]), last
            else:
                np.testing.assert_allclose(got, want[..., -1:, :], rtol=0,
                                           atol=1e-14 * np.abs(want).max())


@settings(derandomize=True, max_examples=25, deadline=None)
@given(cfg=st.sampled_from(REFERENCE_CONFIGS), lead=st.sampled_from([(), (1,), (3,)]),
       n=st.integers(1, 12), split=st.integers(1, 12), seed=st.integers(0, 2**16))
def test_no_grad_array_path_equals_the_recorded_reference_bitwise(cfg, lead, n, split, seed):
    # forward under no_grad runs the blocks on plain arrays; the oracle is the
    # op-by-op reference while recording, so every op takes its tape path there
    model_w, ref_w = random_weights(cfg, seed)
    inputs = np.random.default_rng(seed + 2).standard_normal((*lead, n, cfg.input_width))
    tape = tt.active_tape()
    want = reference_model.forward(ref_w, cfg, inputs).data
    assert len(tape) > 0
    m = min(split, n)
    chunks = [inputs[..., :m, :], inputs[..., m:, :]] if m < n else [inputs]
    ref_cache = []
    want_chunks = [reference_model.forward(ref_w, cfg, c, ref_cache).data for c in chunks]
    tape.records.clear()
    with no_grad():
        got = forward(model_w, cfg, inputs)
        assert type(got) is Tensor and not got.requires_grad
        assert np.array_equal(got.data, want)
        cache = KVCache(cfg, lead, n)
        for chunk, want_chunk in zip(chunks, want_chunks, strict=True):
            assert np.array_equal(forward(model_w, cfg, chunk, cache).data, want_chunk)
        for last in range(2, n + 1):  # 1 row goes to gemv; see forward
            assert np.array_equal(forward(model_w, cfg, inputs, last=last).data,
                                  want[..., -last:, :]), last
    assert len(tape) == 0


def test_array_path_keeps_every_check():
    cfg = tiny_cfg(max_positions=8)
    weights = ModelWeights.initialize(cfg, seed=31)
    inputs = np.random.default_rng(32).standard_normal((2, 4, cfg.input_width))
    bad = inputs.copy()
    bad[1, 2, 0] = math.nan
    with no_grad():
        with pytest.raises(tt.NumericError, match="softmax"):
            forward(weights, cfg, bad)
        with pytest.raises(CapacityError, match="max_positions"):
            forward(weights, cfg, np.zeros((2, 9, cfg.input_width)))
        with pytest.raises(CapacityError, match="capacity"):
            forward(weights, cfg, inputs, KVCache(cfg, (2,), 3))
        with pytest.raises(tt.ShapeError, match="KV cache"):
            forward(weights, cfg, inputs, KVCache(cfg, (3,), 8))
        with pytest.raises(FeatureShapeError):
            forward(weights, cfg, inputs[..., :-1])
    assert len(tt.active_tape()) == 0


# -- patchify -------------------------------------------------------------------


def test_patchify_counts():
    assert patchify(np.arange(512.0), 32).shape == (16, 32)
    assert patchify(np.arange(100.0), 32).shape == (3, 32)


def test_patchify_exact_split():
    got = patchify(np.array([1.0, 2, 3, 4, 5, 6, 7, 8]), 4)
    assert np.array_equal(got, [[1, 2, 3, 4], [5, 6, 7, 8]])


def test_patchify_drops_oldest_remainder():
    got = patchify(np.arange(1.0, 10.0), 4)
    assert np.array_equal(got, [[2, 3, 4, 5], [6, 7, 8, 9]])


def test_patchify_too_short():
    with pytest.raises(ContextTooShortError):
        patchify(np.array([1.0, 2.0, 3.0]), 4)


# -- positional encoding --------------------------------------------------------


def test_pe_position_zero():
    pe = positional_encoding(4, 8)
    assert np.array_equal(pe[0, 0::2], np.zeros(4))
    assert np.array_equal(pe[0, 1::2], np.ones(4))


def test_pe_formula_spot_values():
    d = 10
    pe = positional_encoding(7, d)
    for pos in range(7):
        for i in range(d // 2):
            angle = pos / (10000.0 ** (2.0 * i / d))
            assert pe[pos, 2 * i] == pytest.approx(math.sin(angle), abs=1e-15)
            assert pe[pos, 2 * i + 1] == pytest.approx(math.cos(angle), abs=1e-15)


def test_pe_values_bounded():
    pe = positional_encoding(256, 32)
    assert np.all(np.abs(pe) <= 1.0)


def test_kept_pe_table_slices_equal_fresh_encodings():
    cfg = ModelConfig.preset("desk")
    table = M._pe_table(cfg.max_positions, cfg.model_dim)
    assert table is M._pe_table(cfg.max_positions, cfg.model_dim)
    assert not table.flags.writeable
    for start in range(cfg.max_positions):
        for n in range(1, cfg.max_positions - start + 1):
            assert np.array_equal(table[start:start + n],
                                  positional_encoding(n, cfg.model_dim, start)), (start, n)


def test_zero_weights_tokens_equal_pe_exactly():
    cfg = tiny_cfg()
    weights = ModelWeights.initialize(cfg, seed=0)
    for name, p in weights.named():
        p.data[...] = 0.0
    inp = np.random.default_rng(0).standard_normal((5, cfg.input_width))
    with no_grad():
        toks = input_tokens(inp, weights, cfg)  # under no_grad, an array
    assert np.array_equal(toks, positional_encoding(5, cfg.model_dim))


# -- residual block -------------------------------------------------------------


def test_residual_block_hand_expansion():
    # 2 -> 2 -> 2 with identity skip, expanded by hand:
    #   hidden = relu(W1 v + b1); out = W2 hidden + b2 + v
    w1 = Tensor(np.array([[1.0, -1.0], [2.0, 0.5]]))
    b1 = Tensor(np.array([0.25, -0.5]))
    w2 = Tensor(np.array([[1.0, 3.0], [-2.0, 1.0]]))
    b2 = Tensor(np.array([0.1, 0.2]))
    v = np.array([1.5, -2.0])
    h0 = max(v[0] * 1.0 + v[1] * 2.0 + 0.25, 0.0)
    h1 = max(v[0] * -1.0 + v[1] * 0.5 - 0.5, 0.0)
    want = np.array([h0 * 1.0 + h1 * -2.0 + 0.1 + v[0],
                     h0 * 3.0 + h1 * 1.0 + 0.2 + v[1]])
    got = residual_block(Tensor(v[None, :]), w1, b1, w2, b2, None).data
    assert got.shape == (1, 2)
    assert np.allclose(got[0], want, atol=1e-12)


def test_residual_block_zero_weights_identity_skip():
    v = Tensor(np.array([[3.0, -4.0]]))
    zero = Tensor(np.zeros((2, 2)))
    zb = Tensor(np.zeros(2))
    out = residual_block(v, zero, zb, zero, zb, None).data
    assert np.array_equal(out, [[3.0, -4.0]])


def test_residual_block_learned_skip_when_dims_differ():
    cfg = tiny_cfg()
    shapes = weight_shapes(cfg)
    assert "input.wskip" in shapes  # input_width 4 != model_dim 16
    assert "output.wskip" in shapes  # model_dim 16 != h 8
    same = tiny_cfg(model_dim=16, output_patch_len=16)
    assert "output.wskip" not in weight_shapes(same)


# -- causality -------------------------------------------------------------------


def test_causality_by_perturbation_bitwise():
    cfg = tiny_cfg()
    weights = ModelWeights.initialize(cfg, seed=5)
    rng = np.random.default_rng(6)
    inp = rng.standard_normal((8, cfg.input_width))
    with no_grad():
        base = forward(weights, cfg, inp).data
    for k in [2, 5, 7]:
        bumped = inp.copy()
        bumped[k] += rng.standard_normal(cfg.input_width)
        with no_grad():
            out = forward(weights, cfg, bumped).data
        assert np.array_equal(out[:k], base[:k]), f"rows before {k} changed"
        assert not np.array_equal(out[k], base[k])


def test_causality_by_gradient_inspection():
    cfg = tiny_cfg(num_layers=1)
    weights = ModelWeights.initialize(cfg, seed=7)
    inp = Tensor(np.random.default_rng(8).standard_normal((6, cfg.input_width)),
                 requires_grad=True)
    out = forward(weights, cfg, inp)
    j = 2
    sum_exact(out * Tensor(np.outer(np.eye(6)[j], np.ones(out.shape[-1])))).backward()
    assert inp.grad is not None
    assert np.array_equal(inp.grad[j + 1:], np.zeros((3, cfg.input_width)))
    assert np.abs(inp.grad[: j + 1]).max() > 0


def test_prefix_forward_reproduces_rows():
    cfg = tiny_cfg()
    weights = ModelWeights.initialize(cfg, seed=9)
    inp = np.random.default_rng(10).standard_normal((7, cfg.input_width))
    with no_grad():
        full = forward(weights, cfg, inp).data
        prefix = forward(weights, cfg, inp[:4]).data
    assert np.allclose(full[:4], prefix, atol=1e-12)


def test_swap_perturbs_rows_at_and_after():
    cfg = tiny_cfg()
    weights = ModelWeights.initialize(cfg, seed=11)
    inp = np.random.default_rng(12).standard_normal((8, cfg.input_width))
    swapped = inp.copy()
    swapped[[2, 6]] = swapped[[6, 2]]
    with no_grad():
        base = forward(weights, cfg, inp).data
        out = forward(weights, cfg, swapped).data
    assert np.array_equal(out[:2], base[:2])
    for row in range(2, 8):
        assert not np.array_equal(out[row], base[row]), f"row {row} should differ"


def test_single_token_attention_is_identity_weight():
    cfg = tiny_cfg()
    weights = ModelWeights.initialize(cfg, seed=13)
    inp = np.random.default_rng(14).standard_normal((1, cfg.input_width))
    with no_grad():
        got = forward(weights, cfg, inp).data
    want = reference_forward(cfg, weights.as_arrays(), inp)
    assert got.shape == (1, cfg.output_patch_len)
    assert np.allclose(got, want, atol=1e-12)


# -- shapes, determinism, batching ------------------------------------------------


def test_shape_law():
    cfg = tiny_cfg()
    weights = ModelWeights.initialize(cfg, seed=15)
    for n in [1, 3, 9]:
        inp = np.zeros((n, cfg.input_width))
        with no_grad():
            assert forward(weights, cfg, inp).shape == (n, cfg.output_patch_len)


def test_sixteen_by_128_shape_at_full_patch_geometry():
    # p=32 over 512 points -> 16 tokens, each forecasting 128 steps
    cfg = ModelConfig(input_patch_len=32, output_patch_len=128, model_dim=8,
                      num_layers=1, num_heads=1, feature_dim=0, residual_hidden=4,
                      max_positions=32)
    weights = ModelWeights.initialize(cfg, seed=16)
    rows = assemble_patch_inputs(np.random.default_rng(17).standard_normal(512), None, cfg)
    assert rows.shape == (16, 32)
    with no_grad():
        assert forward(weights, cfg, rows).shape == (16, 128)


def test_forward_is_deterministic():
    cfg = tiny_cfg()
    weights = ModelWeights.initialize(cfg, seed=18)
    inp = np.random.default_rng(19).standard_normal((5, cfg.input_width))
    with no_grad():
        a = forward(weights, cfg, inp).data
        b = forward(weights, cfg, inp).data
    assert np.array_equal(a, b)


def test_batched_forward_matches_per_window():
    cfg = tiny_cfg()
    weights = ModelWeights.initialize(cfg, seed=20)
    batch = np.random.default_rng(21).standard_normal((3, 6, cfg.input_width))
    with no_grad():
        stacked = forward(weights, cfg, batch).data
        singles = np.stack([forward(weights, cfg, batch[i]).data for i in range(3)])
    assert stacked.shape == (3, 6, cfg.output_patch_len)
    assert np.allclose(stacked, singles, atol=1e-12)


def test_capacity_error():
    cfg = tiny_cfg(max_positions=4)
    weights = ModelWeights.initialize(cfg, seed=22)
    with pytest.raises(CapacityError):
        with no_grad():
            forward(weights, cfg, np.zeros((5, cfg.input_width)))
    cache = KVCache(cfg, (), 4)
    with no_grad():
        forward(weights, cfg, np.zeros((3, cfg.input_width)), cache)
        with pytest.raises(CapacityError):  # 3 cached + 2 new positions
            forward(weights, cfg, np.zeros((2, cfg.input_width)), cache)
    with pytest.raises(CapacityError):  # a cache longer than the positions it may hold
        KVCache(cfg, (), 5)


@pytest.mark.parametrize("capacity, max_positions", [(5, 8), (8, 8)])
def test_call_past_cache_capacity_leaves_the_cache_as_it_was(capacity, max_positions):
    # past the capacity (5 < 8) or past max_positions (8): nothing is written
    cfg = tiny_cfg(max_positions=max_positions)
    weights = ModelWeights.initialize(cfg, seed=26)
    batch = np.random.default_rng(27).standard_normal((2, capacity + 1, cfg.input_width))
    cache = KVCache(cfg, (2,), capacity)
    with no_grad():
        forward(weights, cfg, batch[:, :3], cache)
        keys, values = (np.stack(t).copy() for t in (cache.keys, cache.values))
        with pytest.raises(CapacityError):
            forward(weights, cfg, batch[:, 3:], cache)
    assert cache.length == 3
    assert np.array_equal(np.stack(cache.keys), keys, equal_nan=True)
    assert np.array_equal(np.stack(cache.values), values, equal_nan=True)


def test_cached_forward_matches_full_forward():
    # a batch encoded in chunks through a KV cache gives the full pass's rows
    cfg = tiny_cfg()
    weights = ModelWeights.initialize(cfg, seed=23)
    batch = np.random.default_rng(24).standard_normal((3, 9, cfg.input_width))
    cache = KVCache(cfg, (3,), 9)
    with no_grad():
        full = forward(weights, cfg, batch).data
        chunks = [forward(weights, cfg, batch[:, a:b], cache).data
                  for a, b in ((0, 4), (4, 6), (6, 7), (7, 9))]
    assert cache.length == 9
    assert all(a.shape == (3, 9, cfg.model_dim) for a in cache.keys + cache.values)
    assert np.allclose(np.concatenate(chunks, axis=1), full, rtol=0, atol=1e-12)
    with no_grad(), pytest.raises(tt.ShapeError, match="KV cache"):  # another batch shape
        forward(weights, cfg, batch[:2, :2], KVCache(cfg, (3,), 9))
    with pytest.raises(tt.TapeError):  # cached keys carry no gradient
        forward(weights, cfg, batch[:, :2], KVCache(cfg, (3,), 9))


def test_last_rows_must_lie_in_the_input_and_need_no_grad():
    cfg = tiny_cfg()
    weights = ModelWeights.initialize(cfg, seed=25)
    batch = np.zeros((2, 5, cfg.input_width))
    with no_grad():
        for bad in (0, 6, -1, 2.0, True):
            with pytest.raises(tt.ShapeError, match="last"):
                forward(weights, cfg, batch, last=bad)
    with pytest.raises(tt.TapeError, match="last"):  # the slice would cut the tape
        forward(weights, cfg, batch, last=2)
    assert tt.active_tape().records == []


# -- feature assembly --------------------------------------------------------------


def test_assemble_with_masked_features():
    cfg = tiny_cfg(feature_dim=5)
    rows = assemble_patch_inputs(np.arange(8.0), None, cfg)
    assert rows.shape == (2, 24)
    assert np.array_equal(rows[0, :4], [0, 1, 2, 3])
    assert np.all(rows[:, 4:] == -1.0)


def test_assemble_feature_rows_follow_truncation():
    cfg = tiny_cfg(feature_dim=5)
    values = np.arange(1.0, 10.0)  # drops the oldest point
    feats = np.arange(45.0).reshape(9, 5) * 0.01
    rows = assemble_patch_inputs(values, feats, cfg)
    assert rows.shape == (2, 24)
    assert np.allclose(rows[0], np.concatenate([[2, 3, 4, 5], feats[1:5].ravel()]))


def test_assemble_feature_shape_error():
    cfg = tiny_cfg(feature_dim=5)
    with pytest.raises(FeatureShapeError):
        assemble_patch_inputs(np.arange(8.0), np.zeros((8, 4)), cfg)
    with pytest.raises(FeatureShapeError):
        assemble_patch_inputs(np.arange(8.0), np.zeros((7, 5)), cfg)


def test_feature_dim_zero_rows_are_bare_patches():
    cfg = tiny_cfg(feature_dim=0)
    rows = assemble_patch_inputs(np.arange(8.0), None, cfg)
    assert rows.shape == (2, 4)


# -- config and weights --------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(model_dim=30, num_heads=4)
    with pytest.raises(ConfigError, match="ffn_hidden"):
        ModelConfig.from_dict({"ffn_hidden": 64, "model_dim": 32})
    with pytest.raises(ConfigError):
        ModelConfig(input_patch_len=0)
    with pytest.raises(ConfigError, match="dropout"):
        ModelConfig.from_dict({"dropout": 0.1})
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"model_dim": 32, "bogus": 1})


def test_presets():
    desk = ModelConfig.preset("desk")
    assert (desk.input_patch_len, desk.output_patch_len) == (4, 8)
    assert (desk.num_heads, desk.num_layers, desk.model_dim) == (2, 2, 32)
    full = ModelConfig.preset("full")
    assert (full.input_patch_len, full.output_patch_len) == (32, 128)
    assert (full.num_heads, full.num_layers, full.model_dim) == (16, 20, 1280)
    with pytest.raises(ConfigError):
        ModelConfig.preset("huge")


def test_desk_parameter_count_under_100k():
    weights = ModelWeights.initialize(ModelConfig.preset("desk"), seed=0)
    assert 0 < weights.count() < 100_000


@pytest.mark.parametrize("name", ["desk", "full"])
def test_parameter_count_sums_the_weight_shapes(name):
    cfg = ModelConfig.preset(name)
    assert parameter_count(cfg) == sum(math.prod(s) for s in weight_shapes(cfg).values())


@pytest.mark.parametrize("field,value", [("num_layers", 10**6), ("model_dim", 2**16),
                                         ("input_patch_len", 10**8)])
def test_initialize_past_the_memory_ceiling_names_the_field(field, value):
    cfg = ModelConfig.preset("desk", **{field: value})
    with pytest.raises(ConfigError, match=f"ceiling; lower .*{field} \\({value}\\)"):
        ModelWeights.initialize(cfg, seed=0)


def test_max_positions_past_the_memory_ceiling_is_rejected(tmp_path):
    # Configs only: no weight depends on max_positions, but the positional
    # table and one full window's attention scores do, so each is checked.
    desk = ModelConfig.preset("desk").to_dict()
    for fields in (desk, ModelConfig.preset("full").to_dict()):
        assert ModelConfig.from_dict(fields).to_dict() == fields
    with pytest.raises(ConfigError, match=r"ceiling; lower max_positions \(67108864\)"):
        ModelConfig.from_dict({**desk, "max_positions": 2**26})
    # scores: 8 bytes x 2 heads x 2^14 x 2^14 is the ceiling itself
    assert 8 * 2 * (2**14) ** 2 == M.MEMORY_CEILING_BYTES
    ModelConfig.from_dict({**desk, "max_positions": 2**14})
    with pytest.raises(ConfigError, match="max_positions"):
        ModelConfig.from_dict({**desk, "max_positions": 2**14 + 1})
    # the positional table: 8 bytes x 2^7 positions x 2^22 wide
    wide = {**desk, "model_dim": 2**22, "max_positions": 2**7}
    ModelConfig.from_dict(wide)
    with pytest.raises(ConfigError, match="max_positions"):
        ModelConfig.from_dict({**wide, "max_positions": 2**7 + 1})
    # a checkpoint of desk weights that claims 2^26 positions
    with np.load(DESK_CHECKPOINT) as archive:
        meta = json.loads(bytes(archive["meta"].tobytes()).decode())
        arrays = {n: archive[n] for n in archive.files if n != "meta"}
    meta["config"]["max_positions"] = 2**26
    bad = tmp_path / "long.npz"
    np.savez(bad, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
    with pytest.raises(CheckpointError, match="max_positions"):
        load_checkpoint(bad)


def test_weight_init_is_seed_deterministic():
    cfg = tiny_cfg()
    a = ModelWeights.initialize(cfg, seed=42)
    b = ModelWeights.initialize(cfg, seed=42)
    c = ModelWeights.initialize(cfg, seed=43)
    for name, _ in a.named():
        assert np.array_equal(a[name].data, b[name].data)
    assert any(not np.array_equal(a[name].data, c[name].data) for name, _ in a.named())


# -- checkpoints -----------------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    cfg = tiny_cfg(feature_dim=5)
    weights = ModelWeights.initialize(cfg, seed=23)
    path = tmp_path / "model.npz"
    save_checkpoint(path, cfg, weights, extra={"normalization": "per-window", "step": 17})
    bundle = load_checkpoint(path)
    assert bundle.config == cfg
    assert bundle.extra == {"normalization": "per-window", "step": 17}
    for name, p in weights.named():
        loaded = bundle.weights[name].data
        assert loaded.dtype == np.float64
        assert np.array_equal(loaded, p.data)


def assert_views_tile_the_arena(weights):
    start = weights.arena.ctypes.data
    for name, p in weights.named():
        assert p.data.flags.c_contiguous and p.data.base is weights.arena, name
        assert p.data.ctypes.data == start, name
        start += p.data.nbytes
    assert start == weights.arena.ctypes.data + weights.arena.nbytes


def test_every_parameter_is_a_contiguous_view_of_the_arena(tmp_path):
    cfg = tiny_cfg(feature_dim=5)
    fresh = ModelWeights.initialize(cfg, seed=31)
    assert list(dict(fresh.named())) == list(weight_shapes(cfg))
    path = tmp_path / "model.npz"
    save_checkpoint(path, cfg, fresh)
    loose = {"a": Tensor(np.arange(6.0).reshape(2, 3).T, requires_grad=True),
             "b": Tensor(np.array(7.0), requires_grad=True)}
    for weights in (fresh, ModelWeights.from_arrays(cfg, fresh.as_arrays()),
                    load_checkpoint(path).weights, ModelWeights(loose)):
        assert_views_tile_the_arena(weights)
    assert loose["a"].data.tolist() == [[0.0, 3.0], [1.0, 4.0], [2.0, 5.0]]
    assert ModelWeights(loose).arena.tolist() == [0.0, 3.0, 1.0, 4.0, 2.0, 5.0, 7.0]


def test_checkpoint_round_trip_is_bitwise_through_the_arena(tmp_path):
    cfg = tiny_cfg(feature_dim=5)
    weights = ModelWeights.initialize(cfg, seed=33)
    weights.arena += np.random.default_rng(1).normal(size=weights.arena.size) * 1e-3
    path, again = tmp_path / "model.npz", tmp_path / "again.npz"
    save_checkpoint(path, cfg, weights, extra={"step": 5})
    loaded = load_checkpoint(path).weights
    assert loaded.arena.tobytes() == weights.arena.tobytes()
    save_checkpoint(again, cfg, loaded, extra={"step": 5})
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_version_rejected(tmp_path):
    cfg = tiny_cfg()
    weights = ModelWeights.initialize(cfg, seed=24)
    path = tmp_path / "model.npz"
    save_checkpoint(path, cfg, weights)
    import zipfile

    with np.load(path) as archive:
        meta = json.loads(bytes(archive["meta"].tobytes()).decode())
        arrays = {n: archive[n] for n in archive.files if n != "meta"}
    meta["format_version"] = 99
    bad = tmp_path / "bad.npz"
    meta_arr = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(bad, meta=meta_arr, **arrays)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(bad)
    assert zipfile.is_zipfile(path)  # documented container format
    meta["format_version"], meta["config"]["input_patch_len"] = 1, 4.0
    np.savez(bad, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
    with pytest.raises(CheckpointError, match="input_patch_len must be an integer"):
        load_checkpoint(bad)


def test_checkpoint_missing_weight_rejected(tmp_path):
    cfg = tiny_cfg()
    weights = ModelWeights.initialize(cfg, seed=25)
    arrays = weights.as_arrays()
    arrays.pop("output.w2")
    with pytest.raises(ConfigError, match="output.w2"):
        ModelWeights.from_arrays(cfg, arrays)


def test_checkpoint_shape_mismatch_rejected():
    cfg = tiny_cfg()
    arrays = ModelWeights.initialize(cfg, seed=26).as_arrays()
    arrays["input.w1"] = arrays["input.w1"][:, :-1]
    with pytest.raises(ConfigError, match="input.w1"):
        ModelWeights.from_arrays(cfg, arrays)


def test_checkpoint_claiming_huge_depth_fails_fast(tmp_path):
    import time

    cfg = tiny_cfg()
    good = tmp_path / "model.npz"
    save_checkpoint(good, cfg, ModelWeights.initialize(cfg, seed=27))
    with np.load(good) as archive:
        meta = json.loads(bytes(archive["meta"].tobytes()).decode())
        arrays = {n: archive[n] for n in archive.files if n != "meta"}
    meta["config"]["num_layers"] = 10**6  # the archive holds 2 layers
    bad = tmp_path / "deep.npz"
    np.savez(bad, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
    t0 = time.perf_counter()
    with pytest.raises(CheckpointError, match="layer2.ln1.gain") as err:
        load_checkpoint(bad)
    assert time.perf_counter() - t0 < 1.0
    assert len(str(err.value)) < 600


def test_committed_benchmark_checkpoint_loads():
    if not DESK_CHECKPOINT.exists():
        pytest.skip("benchmark checkpoint not present")
    assert load_checkpoint(DESK_CHECKPOINT).config == ModelConfig.preset("desk")


def test_not_a_checkpoint(tmp_path):
    path = tmp_path / "junk.npz"
    path.write_bytes(b"not a zip")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


# -- output block ------------------------------------------------------------------


def test_output_zero_weights_give_zero_forecasts():
    cfg = tiny_cfg()
    weights = ModelWeights.initialize(cfg, seed=27)
    for name in ("output.w1", "output.b1", "output.w2", "output.b2", "output.wskip"):
        weights[name].data[...] = 0.0
    toks = Tensor(np.random.default_rng(28).standard_normal((4, cfg.model_dim)))
    with no_grad():
        out = output_forecasts(toks, weights, cfg)  # under no_grad, an array
    assert np.array_equal(out, np.zeros((4, cfg.output_patch_len)))


def test_model_grads_flow_to_every_parameter():
    cfg = tiny_cfg(num_layers=1)
    weights = ModelWeights.initialize(cfg, seed=29)
    inp = np.random.default_rng(30).standard_normal((4, cfg.input_width))
    out = forward(weights, cfg, inp)
    sum_exact(out * out).backward()
    for name, p in weights.named():
        assert p.grad is not None, f"{name} got no gradient"
        assert p.grad.shape == p.data.shape
