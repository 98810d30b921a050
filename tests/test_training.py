"""Training layer: normalization records, patch MSE loss, Adam, schedules, and
the deterministic train loop.

Expected values are either worked by hand in comments or recomputed inside
the test by an independent scalar implementation.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_adam as per_param
from patchcast.data import Corpus, FamilySpec, GeneratorSpec, synth_corpus
from patchcast.model import ModelConfig, ModelWeights, forward
from patchcast.tensor import Tensor, active_tape
from patchcast.training import (
    CLIP_NORM,
    AdamState,
    DegenerateBatchError,
    IDENTITY_SCALE,
    NORMALIZATION_MODES,
    NonFiniteGradientError,
    ScaleRecord,
    TrainConfig,
    TrainConfigError,
    TrainingDivergedError,
    _load_train_state,
    _save_train_state,
    _state_path,
    adam_step,
    apply_scale,
    assemble_batch,
    invert_scale,
    lr_at,
    rng_for,
    scale_record,
    train,
    train_loss,
    write_loss_curve,
)


def tiny_cfg(**over):
    base = dict(input_patch_len=4, output_patch_len=8, model_dim=8, num_layers=1,
                num_heads=2, feature_dim=5, residual_hidden=8, max_positions=256)
    base.update(over)
    return ModelConfig(**base)


def tiny_corpus(n=6, length=(110, 130), seed=7):
    spec = GeneratorSpec(pretrain=[FamilySpec(
        name="sine", granularity="daily", kind="sinusoid", n_series=n,
        length_range=length, period_range=(8.0, 20.0), amplitude_range=(0.8, 1.4),
        noise_level=0.02)])
    return synth_corpus(spec, seed=seed).pretrain


# -- normalization ------------------------------------------------------------


def test_normalize_two_points():
    # [0, 2]: mean 1, population std 1 -> exactly [-1, 1]
    rec = scale_record(np.array([0.0, 2.0]))
    normed = apply_scale(np.array([0.0, 2.0]), rec)
    assert rec == ScaleRecord(mu=1.0, sigma=1.0)
    assert normed.tolist() == [-1.0, 1.0]


def test_normalize_constant_window_uses_sigma_floor():
    rec = scale_record(np.array([5.0, 5.0, 5.0]))
    normed = apply_scale(np.array([5.0, 5.0, 5.0]), rec)
    assert rec.mu == 5.0 and rec.sigma == 1e-8
    assert normed.tolist() == [0.0, 0.0, 0.0]


def test_normalize_mode_none_is_identity():
    x = np.array([3.0, -4.0, 10.0])
    rec = scale_record(x, mode="none")
    normed = apply_scale(x, rec)
    assert rec == IDENTITY_SCALE
    assert normed.tolist() == x.tolist()


def test_normalize_rejects_unknown_mode():
    with pytest.raises(TrainConfigError, match="mode"):
        scale_record(np.ones(4), mode="zscore")


def test_scale_round_trip():
    rng = np.random.default_rng(0)
    x = rng.normal(3.0, 7.0, size=50)
    rec = scale_record(x)
    normed = apply_scale(x, rec)
    assert np.allclose(invert_scale(normed, rec), x, atol=1e-12)
    assert type(rec.mu) is float and type(rec.sigma) is float
    # the record standardizes: mean ~0, std ~1
    assert abs(normed.mean()) < 1e-12 and abs(normed.std() - 1.0) < 1e-12


def test_scale_record_of_a_stack_is_each_rows_record():
    rows = np.random.default_rng(2).normal(4.0, 9.0, size=(7, 33))[:, 5:]
    rec = scale_record(rows)
    assert rec.mu.shape == rec.sigma.shape == (7, 1)
    for i, row in enumerate(rows):
        one = scale_record(row)
        assert (rec.mu[i, 0], rec.sigma[i, 0]) == (one.mu, one.sigma)
        assert np.array_equal(apply_scale(rows, rec)[i], apply_scale(row, one))


# -- loss -----------------------------------------------------------------------


def test_train_loss_hand_value():
    # one token, h=2: loss = (1/2) * ((0-1)^2 + (0-1)^2) = 1.0
    f = Tensor(np.zeros((1, 2)), requires_grad=True)
    loss = train_loss(f, np.ones((1, 2)))
    assert loss.item() == 1.0


def test_train_loss_is_exact_mean_and_gradient():
    # 60 terms: 1/60 is inexact, so the value pins the reciprocal multiply
    rng = np.random.default_rng(4)
    f = rng.normal(size=(3, 5, 4))
    t = rng.normal(size=(3, 5, 4))
    ft = Tensor(f, requires_grad=True)
    loss = train_loss(ft, t)
    assert loss.item() == math.fsum(((f - t) ** 2).ravel()) * (1.0 / f.size)
    loss.backward()
    assert np.array_equal(ft.grad, 2.0 * ((f - t) * (1.0 / f.size)))
    assert np.allclose(ft.grad, 2.0 * (f - t) / f.size, rtol=1e-15, atol=0.0)


def test_train_loss_records_four_tape_entries():
    # f - t, its square, the exact sum and the 1/size scale
    f = Tensor(np.ones((2, 3, 4)), requires_grad=True)
    before = len(active_tape())
    loss = train_loss(f, np.zeros((2, 3, 4)))
    assert len(active_tape()) - before == 4
    loss.backward()


def test_train_loss_batched_matches_flat_mean():
    rng = np.random.default_rng(3)
    f = rng.normal(size=(3, 5, 4))
    t = rng.normal(size=(3, 5, 4))
    got = train_loss(Tensor(f), t).item()
    want = np.mean(np.sum((f - t) ** 2, axis=-1) / 4.0)
    assert abs(got - want) < 1e-12


def test_train_loss_batch_permutation_bitwise():
    rng = np.random.default_rng(11)
    f = rng.normal(size=(6, 4, 3))
    t = rng.normal(size=(6, 4, 3))
    perm = rng.permutation(6)
    a = train_loss(Tensor(f), t).item()
    b = train_loss(Tensor(f[perm]), t[perm]).item()
    assert a == b  # bit-for-bit under window reordering


def test_full_forward_loss_permutation_bitwise():
    cfg = tiny_cfg()
    weights = ModelWeights.initialize(cfg, seed=5)
    corpus = tiny_corpus()
    mix = {"daily": 1.0}
    from patchcast.data import sample_training_windows

    windows = sample_training_windows(corpus, mix, 6, rng_for(0, 1, 1),
                                      input_patch_len=4, output_patch_len=8)
    inputs, targets = assemble_batch(windows, cfg, "per-window")
    a = train_loss(forward(weights, cfg, inputs), targets).item()
    perm = np.random.default_rng(1).permutation(len(windows))
    b = train_loss(forward(weights, cfg, inputs[perm]), targets[perm]).item()
    assert a == b


# -- optimizer -------------------------------------------------------------------


def one_param_weights(value=0.0):
    return ModelWeights({"w": Tensor(np.array([[value]]), requires_grad=True)})


def reference_adam(params, grads, lr):
    """Independent textbook Adam over a flat list of scalar parameters: the
    gradient is clipped to global norm 1.0, then betas (0.9, 0.999), eps 1e-8
    and bias correction. `grads` holds one gradient list per step."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    p, m, v = list(params), [0.0] * len(params), [0.0] * len(params)
    for t, g in enumerate(grads, start=1):
        norm = math.sqrt(sum(x * x for x in g))
        g = [x / norm for x in g] if norm > 1.0 else g
        for i, gi in enumerate(g):
            m[i] = b1 * m[i] + (1 - b1) * gi
            v[i] = b2 * v[i] + (1 - b2) * gi * gi
            p[i] -= lr * (m[i] / (1 - b1 ** t)) / (math.sqrt(v[i] / (1 - b2 ** t)) + eps)
    return p


def test_adam_first_step_magnitude_is_lr():
    # constant gradient 1 (norm 1, not clipped): mhat = 1, vhat = 1 -> step = lr/(1+eps) ~ lr
    w = one_param_weights(0.0)
    w["w"].grad = np.array([[1.0]])
    adam_step(w, AdamState.for_weights(w), lr=0.01)
    assert abs(abs(w["w"].data[0, 0]) - 0.01) < 1e-9
    assert w["w"].data[0, 0] < 0  # moves against the gradient


def test_adam_zero_gradient_fresh_state_no_move():
    w = one_param_weights(1.5)
    w["w"].grad = np.array([[0.0]])
    adam_step(w, AdamState.for_weights(w), lr=0.1)
    assert w["w"].data[0, 0] == 1.5


def test_adam_matches_scalar_reference():
    # five arbitrary gradient values; the last (-2.0) is clipped to -1.0
    grads = [1.0, -0.3, 0.7, 0.01, -2.0]
    w = one_param_weights(2.0)
    state = AdamState.for_weights(w)
    for g in grads:
        w["w"].grad = np.array([[g]])
        adam_step(w, state, lr=0.05)
    [want] = reference_adam([2.0], [[g] for g in grads], lr=0.05)
    assert abs(w["w"].data[0, 0] - want) < 1e-15
    assert state.step == 5


def test_clip_scales_gradients_by_norm_ratio():
    # grads [3, 4]: global norm 5, clip 1.0 -> effective grads [0.6, 0.8]
    clipped = ModelWeights({"a": Tensor(np.array([0.0]), requires_grad=True),
                            "b": Tensor(np.array([0.0]), requires_grad=True)})
    clipped["a"].grad = np.array([3.0])
    clipped["b"].grad = np.array([4.0])
    norm = adam_step(clipped, AdamState.for_weights(clipped), lr=0.01)
    assert norm == 5.0
    want = reference_adam([0.0, 0.0], [[3.0, 4.0]], lr=0.01)
    # first step: mhat = g, vhat = g^2, so each moves by lr * g / (|g| + eps)
    assert abs(want[0] + 0.01 * 0.6 / (0.6 + 1e-8)) < 1e-15
    assert abs(clipped["a"].data[0] - want[0]) < 1e-15
    assert abs(clipped["b"].data[0] - want[1]) < 1e-15


def test_clip_leaves_small_gradients_alone():
    w = one_param_weights(0.0)
    w["w"].grad = np.array([[0.5]])
    norm = adam_step(w, AdamState.for_weights(w), lr=0.01)
    assert norm == 0.5
    [want] = reference_adam([0.0], [[0.5]], lr=0.01)
    assert abs(w["w"].data[0, 0] - want) < 1e-15


def test_global_grad_norm_value():
    w = ModelWeights({"a": Tensor(np.array([3.0]), requires_grad=True),
                      "b": Tensor(np.array([[4.0]]), requires_grad=True)})
    w["a"].grad = np.array([3.0])
    w["b"].grad = np.array([[4.0]])
    assert adam_step(w, AdamState.for_weights(w), lr=0.01) == 5.0  # the pre-clip norm


def test_adam_rejects_nonfinite_gradient_naming_parameter():
    w = one_param_weights(0.0)
    w["w"].grad = np.array([[math.nan]])
    with pytest.raises(NonFiniteGradientError, match="w"):
        adam_step(w, AdamState.for_weights(w), lr=0.01)


# -- the flat arena against per-parameter Adam -----------------------------------


def twin_weights(seed=3):
    """Two equal desk-shaped weight sets: one for the arena optimizer, one for
    the per-parameter reference."""
    cfg = tiny_cfg()
    return cfg, ModelWeights.initialize(cfg, seed), ModelWeights.initialize(cfg, seed)


def set_twin_grads(rng, step, *weight_sets):
    """Equal random gradients on every set: norm about 30 (clipped) on two
    steps of three and about 0.003 (unclipped) on the third; input.b1 gets
    None always and layer0.ffn.b2 on odd steps."""
    scale = 1.0 if step % 3 else 1e-4
    for name, p in weight_sets[0].named():
        g = None
        if name != "input.b1" and not (name == "layer0.ffn.b2" and step % 2):
            g = rng.normal(size=p.shape) * scale
        for w in weight_sets:
            w[name].grad = None if g is None else g.copy()


def assert_same_bytes(weights, state, ref_weights, ref_state):
    assert state.step == ref_state.step
    for name, p in weights.named():
        assert p.data.tobytes() == ref_weights[name].data.tobytes(), name
        assert state.m[name].tobytes() == ref_state.m[name].tobytes(), name
        assert state.v[name].tobytes() == ref_state.v[name].tobytes(), name


def test_arena_adam_equals_per_parameter_adam_bitwise_across_a_resume(tmp_path):
    from patchcast.checkpoint import load_checkpoint, save_checkpoint

    cfg, weights, ref_weights = twin_weights()
    state, ref_state = AdamState.for_weights(weights), per_param.ReferenceState(ref_weights)
    rng = np.random.default_rng(17)
    norms = []
    for step in range(1, 25):
        set_twin_grads(rng, step, weights, ref_weights)
        lr = lr_at(step, 3e-3, 24)
        norm = adam_step(weights, state, lr)
        assert norm == per_param.adam_step(ref_weights, ref_state, lr)
        norms.append(norm)
        assert_same_bytes(weights, state, ref_weights, ref_state)
        if step == 10:  # save and load the state midway, as a resumed run does
            ckpt = tmp_path / "ckpt_step000010.npz"
            save_checkpoint(ckpt, cfg, weights, extra={"step": step})
            _save_train_state(_state_path(ckpt), state)
            weights = load_checkpoint(ckpt).weights
            state = _load_train_state(ckpt, weights, step)
            assert_same_bytes(weights, state, ref_weights, ref_state)
    assert min(norms) < CLIP_NORM < max(norms)


def test_arena_grad_norm_equals_per_parameter_norm_bitwise():
    _, weights, _ = twin_weights()
    rng = np.random.default_rng(5)
    for step in (1, 2, 3):
        set_twin_grads(rng, step, weights)
        want = per_param.global_grad_norm(weights)
        assert adam_step(weights, AdamState.for_weights(weights), lr=1e-3) == want


def test_arena_adam_names_the_first_non_finite_parameter_and_changes_nothing():
    _, weights, ref_weights = twin_weights()
    set_twin_grads(np.random.default_rng(9), 1, weights, ref_weights)
    for w in (weights, ref_weights):  # input.w2 comes before layer0 in weight order
        w["layer0.attn.wk"].grad[0, 1] = math.inf
        w["input.w2"].grad[2, 3] = math.nan
    state, before = AdamState.for_weights(weights), weights.arena.tobytes()
    with pytest.raises(NonFiniteGradientError) as got:
        adam_step(weights, state, lr=0.01)
    with pytest.raises(NonFiniteGradientError) as want:
        per_param.adam_step(ref_weights, per_param.ReferenceState(ref_weights), 0.01)
    assert str(got.value) == str(want.value) == "non-finite gradient in parameter input.w2"
    assert state.step == 0 and weights.arena.tobytes() == before
    assert not state.m_flat.any() and not state.v_flat.any()


def test_saved_train_state_has_the_per_parameter_layout_and_bytes(tmp_path):

    _, weights, ref_weights = twin_weights()
    state, ref_state = AdamState.for_weights(weights), per_param.ReferenceState(ref_weights)
    rng = np.random.default_rng(23)
    for step in range(1, 4):
        set_twin_grads(rng, step, weights, ref_weights)
        adam_step(weights, state, 1e-3)
        per_param.adam_step(ref_weights, ref_state, 1e-3)
    _save_train_state(tmp_path / "arena.npz", state)
    per_param.save_state(tmp_path / "reference.npz", ref_state)
    with np.load(tmp_path / "arena.npz") as got, np.load(tmp_path / "reference.npz") as want:
        assert got.files == want.files
        for key in want.files:
            assert got[key].shape == want[key].shape and got[key].dtype == want[key].dtype
            assert got[key].tobytes() == want[key].tobytes(), key
    assert (tmp_path / "arena.npz").read_bytes() == (tmp_path / "reference.npz").read_bytes()


# -- learning-rate schedule ------------------------------------------------------


def test_lr_warmup_and_cosine_anchors():
    base, total = 0.1, 1000  # warmup = round(0.05*1000) = 50 steps
    assert lr_at(1, base, total) == base / 50
    assert lr_at(25, base, total) == base / 2
    assert lr_at(50, base, total) == base
    # halfway through decay: 50 + 475 = 525 -> cos(pi/2) -> base/2
    assert abs(lr_at(525, base, total) - base / 2) < 1e-15
    assert abs(lr_at(1000, base, total)) < 1e-17  # decays to ~0


def test_lr_monotone_up_then_down():
    vals = [lr_at(s, 1.0, 200) for s in range(1, 201)]
    warmup = 10
    assert all(vals[i] < vals[i + 1] for i in range(warmup - 1))
    assert all(vals[i] > vals[i + 1] for i in range(warmup, 199))


def test_lr_tiny_run_has_at_least_one_warmup_step():
    # round(0.05*10) = 0 -> clamped to one warmup step
    assert lr_at(1, 1.0, 10) == 1.0


# -- batch assembly -----------------------------------------------------------------


def windows_of(values, granularity="daily"):
    from patchcast.data import TrainingWindow, derive_date_features
    from datetime import datetime

    values = np.asarray(values, dtype=np.float64)
    feats = derive_date_features(datetime(2020, 1, 6), granularity, len(values))
    return TrainingWindow(series_id="w", granularity=granularity, start=0,
                          values=values, features=feats)


def test_assemble_batch_hand_example():
    # p=2, h=2, values 1..8: context span = first 6 points, 3 tokens, no drop
    cfg = tiny_cfg(input_patch_len=2, output_patch_len=2, feature_dim=0)
    vals = np.arange(1.0, 9.0)
    inputs, targets = assemble_batch([windows_of(vals)], cfg, "per-window")
    ctx = vals[:6]
    mu, sigma = ctx.mean(), ctx.std()
    normed = (vals - mu) / sigma
    assert inputs.shape == (1, 3, 2) and targets.shape == (1, 3, 2)
    assert np.array_equal(inputs[0], normed[:6].reshape(3, 2))
    assert np.array_equal(targets[0][0], normed[2:4])
    assert np.array_equal(targets[0][1], normed[4:6])
    assert np.array_equal(targets[0][2], normed[6:8])


def test_assemble_batch_drops_oldest_remainder():
    # p=4, h=8, length 23: tokens (23-8)//4 = 3, offset 3 -> values[3:15]
    cfg = tiny_cfg(feature_dim=0)
    vals = np.arange(23.0)
    inputs, targets = assemble_batch([windows_of(vals)], cfg, "none")
    assert inputs.shape == (1, 3, 4)
    assert np.array_equal(inputs[0].ravel(), vals[3:15])
    assert np.array_equal(targets[0][0], vals[7:15])
    assert np.array_equal(targets[0][2], vals[15:23])


def test_assemble_batch_normalization_span_excludes_targets():
    # stats must come from the window minus its final h points
    cfg = tiny_cfg(input_patch_len=2, output_patch_len=2, feature_dim=0)
    vals = np.array([1.0, 3.0, 1.0, 3.0, 100.0, -100.0])
    inputs, _ = assemble_batch([windows_of(vals)], cfg, "per-window")
    ctx = vals[:4]  # mean 2, std 1
    assert np.allclose(inputs[0].ravel(), (ctx - 2.0) / 1.0, atol=1e-12)


def test_assemble_batch_mode_none_keeps_raw_values():
    cfg = tiny_cfg(input_patch_len=2, output_patch_len=2, feature_dim=0)
    vals = np.arange(1.0, 9.0)
    inputs, targets = assemble_batch([windows_of(vals)], cfg, "none")
    assert np.array_equal(inputs[0].ravel(), vals[:6])
    assert np.array_equal(targets[0][2], vals[6:8])


def test_assemble_batch_includes_date_features():
    cfg = tiny_cfg(input_patch_len=2, output_patch_len=2)  # feature_dim=5
    vals = np.arange(1.0, 9.0)
    w = windows_of(vals)
    inputs, _ = assemble_batch([w], cfg, "none")
    assert inputs.shape == (1, 3, 2 * 6)  # p*(1+r) = 2*6
    # row 0: two raw values then the two 5-wide feature rows flattened
    assert np.array_equal(inputs[0, 0, :2], vals[:2])
    assert np.array_equal(inputs[0, 0, 2:], w.features[:2].ravel())


def test_assemble_batch_minimum_window_is_one_token():
    cfg = tiny_cfg(feature_dim=0)  # p=4, h=8
    vals = np.arange(12.0)
    inputs, targets = assemble_batch([windows_of(vals)], cfg, "none")
    assert inputs.shape == (1, 1, 4) and targets.shape == (1, 1, 8)
    with pytest.raises(DegenerateBatchError):
        assemble_batch([windows_of(np.arange(11.0))], cfg, "none")


def assemble_by_loop(windows, cfg, normalization):
    """Oracle: each window standardized, patched and cut into targets on its own."""
    p, h = cfg.input_patch_len, cfg.output_patch_len
    w_len = len(windows[0].values)
    n_tok = (w_len - h) // p
    offset = w_len - h - n_tok * p
    inputs, targets = [], []
    for w in windows:
        ctx = w.values[:w_len - h]
        mu, sigma = (float(ctx.mean()), max(float(ctx.std()), 1e-8)) \
            if normalization == "per-window" else (0.0, 1.0)
        normed = (w.values - mu) / sigma
        rows = normed[offset:offset + n_tok * p].reshape(n_tok, p)
        if cfg.feature_dim:
            feats = w.features[offset:offset + n_tok * p].reshape(n_tok, p * cfg.feature_dim)
            rows = np.concatenate([rows, feats], axis=1)
        inputs.append(rows)
        tails = np.lib.stride_tricks.sliding_window_view(normed, h)
        targets.append(tails[offset + p::p][:n_tok])
    return np.stack(inputs), np.stack(targets)


@settings(max_examples=150, deadline=None)
@given(batch=st.integers(1, 12), p=st.integers(1, 8), h=st.integers(1, 16),
       n_tok=st.integers(1, 40), drop=st.integers(0, 7), feature_dim=st.sampled_from([0, 5]),
       normalization=st.sampled_from(NORMALIZATION_MODES), seed=st.integers(0, 2**32 - 1))
def test_assemble_batch_matches_per_window_loop(batch, p, h, n_tok, drop, feature_dim,
                                                normalization, seed):
    from patchcast.data import TrainingWindow

    cfg = tiny_cfg(input_patch_len=p, output_patch_len=h, feature_dim=feature_dim)
    w_len = h + n_tok * p + drop % p
    rng = np.random.default_rng(seed)
    windows = [TrainingWindow(series_id=f"w{i}", granularity="daily", start=0,
                              values=rng.normal(rng.normal(0, 50), rng.uniform(1e-3, 40), w_len),
                              features=rng.uniform(-0.5, 0.5, (w_len, 5)))
               for i in range(batch)]
    inputs, targets = assemble_batch(windows, cfg, normalization)
    want_inputs, want_targets = assemble_by_loop(windows, cfg, normalization)
    assert np.array_equal(inputs, want_inputs) and np.array_equal(targets, want_targets)
    for out in (inputs, targets):
        assert out.flags.c_contiguous and out.flags.writeable
        assert not any(np.shares_memory(out, w.values) for w in windows)


def test_assemble_batch_rejects_unequal_windows():
    cfg = tiny_cfg(feature_dim=0)
    with pytest.raises(ValueError, match="share one length"):
        assemble_batch([windows_of(np.arange(20.0)), windows_of(np.arange(21.0))], cfg, "none")


# -- train config --------------------------------------------------------------------


def test_train_config_round_trip_and_unknown_key():
    cfg = TrainConfig(total_steps=10, batch_size=2, seed=3)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(TrainConfigError, match="unknown"):
        TrainConfig.from_dict({"total_steps": 5, "momentum": 0.9})
    with pytest.raises(TrainConfigError):
        TrainConfig(total_steps=0)
    with pytest.raises(TrainConfigError):
        TrainConfig(normalization="bogus")


def test_train_config_has_only_the_varied_fields():
    assert [f.name for f in dataclasses.fields(TrainConfig)] == [
        "total_steps", "batch_size", "base_lr", "seed", "normalization",
        "checkpoint_every", "val_every"]


@pytest.mark.parametrize("field,value", [
    ("total_steps", 2.5), ("batch_size", "4"), ("seed", -1), ("seed", True),
    ("checkpoint_every", -2), ("val_every", None), ("base_lr", "fast")])
def test_train_config_rejects_malformed_value_naming_the_field(field, value):
    with pytest.raises(TrainConfigError, match=field):
        TrainConfig(**{field: value})


# -- train loop -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    return tiny_corpus()


def quick_train(corpus, steps=4, seed=0, out_dir=None, resume_from=None, **over):
    tc = dict(total_steps=steps, batch_size=4, base_lr=1e-3, seed=seed,
              val_every=0, checkpoint_every=0)
    tc.update(over)
    return train(corpus, tiny_cfg(), TrainConfig(**tc), out_dir=out_dir,
                 resume_from=resume_from)


def test_train_runs_and_records_curve(corpus):
    res = quick_train(corpus, steps=4)
    assert [s for s, _, _ in res.loss_curve] == [1, 2, 3, 4]
    assert all(math.isfinite(v) for _, v, _ in res.loss_curve)
    assert res.final_checkpoint is None


def test_train_same_seed_bitwise_curve(corpus):
    a = quick_train(corpus, steps=3, seed=9)
    b = quick_train(corpus, steps=3, seed=9)
    assert a.loss_curve == b.loss_curve
    for (n, pa), (_, pb) in zip(a.weights.named(), b.weights.named()):
        assert np.array_equal(pa.data, pb.data), n


def test_train_seed_changes_curve(corpus):
    a = quick_train(corpus, steps=2, seed=1)
    b = quick_train(corpus, steps=2, seed=2)
    assert a.loss_curve != b.loss_curve


def test_loss_curve_file_bytes_reproducible(corpus, tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    quick_train(corpus, steps=3, seed=4, out_dir=d1)
    quick_train(corpus, steps=3, seed=4, out_dir=d2)
    b1 = (d1 / "loss_curve.csv").read_bytes()
    assert b1 == (d2 / "loss_curve.csv").read_bytes()
    assert b1.startswith(b"step,train_loss,val_loss\n1,")


def test_write_loss_curve_exact_bytes(tmp_path):
    path = tmp_path / "loss.csv"
    write_loss_curve(path, [(1, 0.5, None), (2, 0.25, 0.125)])
    assert path.read_bytes() == b"step,train_loss,val_loss\n1,0.5,\n2,0.25,0.125\n"


def test_validation_rows_at_cadence(corpus):
    res = quick_train(corpus, steps=6, val_every=3)
    by_step = {s: v for s, _, v in res.loss_curve}
    assert by_step[3] is not None and by_step[6] is not None
    assert by_step[1] is None and by_step[2] is None
    assert math.isfinite(by_step[3])


def test_validation_loss_takes_one_forward_per_window_length(monkeypatch):
    import patchcast.training as training

    cfg = tiny_cfg()
    weights = ModelWeights.initialize(cfg, seed=3)
    rng = np.random.default_rng(4)
    windows = [windows_of(rng.normal(2.0, 1.0, size=n)) for n in (40, 52, 40, 44, 52, 40)]
    per_window = []
    for w in windows:
        inputs, targets = assemble_batch([w], cfg, "per-window")
        per_window.append(train_loss(forward(weights, cfg, inputs), targets).item())
    active_tape().records.clear()
    calls = []

    def spy(*args, **kwargs):
        calls.append(np.shape(args[2])[0])
        return forward(*args, **kwargs)

    monkeypatch.setattr(training, "forward", spy)
    got = training._val_loss(windows, weights, cfg, "per-window")
    assert got == math.fsum(per_window) / len(per_window)
    assert sorted(calls) == [1, 2, 3]


def test_checkpoint_cadence_and_final(corpus, tmp_path):
    res = quick_train(corpus, steps=6, checkpoint_every=2, out_dir=tmp_path)
    names = sorted(p.name for p in res.checkpoints)
    assert names == ["ckpt_step000002.npz", "ckpt_step000004.npz", "ckpt_step000006.npz"]
    assert res.final_checkpoint.name == "ckpt_final.npz"
    for ckpt in res.checkpoints + [res.final_checkpoint]:
        assert ckpt.exists()
        assert ckpt.with_name(ckpt.name.replace("ckpt_", "state_")).exists()


def test_checkpoint_extra_records_run_metadata(corpus, tmp_path):
    from patchcast.checkpoint import load_checkpoint

    quick_train(corpus, steps=2, seed=6, out_dir=tmp_path)
    bundle = load_checkpoint(tmp_path / "ckpt_final.npz")
    assert bundle.extra["step"] == 2
    assert bundle.extra["normalization"] == "per-window"
    assert bundle.extra["train_seed"] == 6


def test_resume_replays_uninterrupted_run(corpus, tmp_path):
    # an 8-step run checkpointed midway; restarting from the step-4 checkpoint
    # with the same config must replay steps 5..8 of the original run
    straight = quick_train(corpus, steps=8, seed=5, checkpoint_every=4,
                           out_dir=tmp_path / "straight")
    midpoint = straight.checkpoints[0]
    assert midpoint.name == "ckpt_step000004.npz"
    resumed = quick_train(corpus, steps=8, seed=5, out_dir=tmp_path / "resumed",
                          resume_from=midpoint)
    assert [s for s, _, _ in resumed.loss_curve] == [5, 6, 7, 8]
    tail = {s: v for s, v, _ in straight.loss_curve if s >= 5}
    for s, v, _ in resumed.loss_curve:
        assert abs(v - tail[s]) <= 1e-10 * max(1.0, abs(tail[s]))
    for (n, pa), (_, pb) in zip(straight.weights.named(), resumed.weights.named()):
        assert np.allclose(pa.data, pb.data, rtol=0, atol=1e-12), n


def test_resume_rejects_different_model_config(corpus, tmp_path):
    first = quick_train(corpus, steps=2, checkpoint_every=2, out_dir=tmp_path)
    other = tiny_cfg(model_dim=16, residual_hidden=16)
    with pytest.raises(TrainConfigError, match="different model config"):
        train(corpus, other, TrainConfig(total_steps=4, batch_size=2),
              resume_from=first.checkpoints[-1])


def test_resume_rejects_different_schedule_naming_each_field(corpus, tmp_path):
    first = quick_train(corpus, steps=4, checkpoint_every=2, out_dir=tmp_path)
    with pytest.raises(TrainConfigError) as err:
        quick_train(corpus, steps=4, seed=3, batch_size=2, val_every=1,
                    resume_from=first.checkpoints[0])
    msg = str(err.value)
    assert "batch_size 4 -> 2" in msg and "seed 0 -> 3" in msg and "val_every" not in msg


def test_divergent_run_aborts_keeping_checkpoints(corpus, tmp_path, monkeypatch):
    # force the step-3 forward to blow up; the step-2 checkpoint must survive
    # and no later checkpoint may be written
    import patchcast.training as tr

    real, calls = tr.forward, {"n": 0}

    def exploding(*args, **kwargs):
        calls["n"] += 1
        out = real(*args, **kwargs)
        if calls["n"] >= 3:
            out.data[...] = np.inf
        return out

    monkeypatch.setattr(tr, "forward", exploding)
    with pytest.raises(TrainingDivergedError, match="step 3"):
        quick_train(corpus, steps=5, checkpoint_every=1, out_dir=tmp_path)
    assert (tmp_path / "ckpt_step000002.npz").exists()
    assert not (tmp_path / "ckpt_step000003.npz").exists()


def test_nonfinite_activations_report_divergence(corpus, monkeypatch):
    # NumericError raised inside the forward pass surfaces as divergence
    import patchcast.training as tr
    from patchcast.tensor import NumericError

    def raising(*args, **kwargs):
        raise NumericError("non-finite attention scores")

    monkeypatch.setattr(tr, "forward", raising)
    with pytest.raises(TrainingDivergedError, match="step 1"):
        quick_train(corpus, steps=2)


def test_train_batches_depend_only_on_seed_and_step(corpus):
    # the sampler stream is keyed (seed, 1, step); drawing step 3's batch in
    # isolation must match the batch a full run would draw at step 3
    from patchcast.data import sample_training_windows

    mix = {"daily": 1.0}
    a = sample_training_windows(corpus, mix, 4, rng_for(5, 1, 3),
                                input_patch_len=4, output_patch_len=8)
    b = sample_training_windows(corpus, mix, 4, rng_for(5, 1, 3),
                                input_patch_len=4, output_patch_len=8)
    assert [(w.series_id, w.start) for w in a] == [(w.series_id, w.start) for w in b]


def test_training_reduces_loss_on_tiny_problem():
    # strong sinusoid, generous steps: end-of-run loss must be well below start
    corpus = tiny_corpus(n=4, length=(120, 120), seed=3)
    res = quick_train(corpus, steps=60, base_lr=3e-3, seed=0)
    first = np.mean([v for _, v, _ in res.loss_curve[:5]])
    last = np.mean([v for _, v, _ in res.loss_curve[-5:]])
    assert last < 0.6 * first
