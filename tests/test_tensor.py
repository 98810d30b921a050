import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchcast import tensor as T
from patchcast.data import FamilySpec, GeneratorSpec, synth_corpus
from patchcast.model import ModelConfig, ModelWeights, forward
from patchcast.tensor import (
    LAYER_NORM_EPS,
    NumericError,
    ShapeError,
    TapeError,
    Tensor,
    active_tape,
    causal_attention,
    layer_norm,
    matmul,
    mul,
    no_grad,
    relu,
    softmax_lastdim,
    sum_exact,
)
from patchcast.training import TrainConfig, train, train_loss


def fd_grad(f, arrays, idx, step=1e-5):
    """Central finite differences of a scalar function of numpy arrays.

    Independent oracle: touches no engine internals, just evaluates f at
    perturbed inputs.
    """
    out = np.zeros_like(arrays[idx])
    flat = out.ravel()
    for i in range(flat.size):
        plus = [a.copy() for a in arrays]
        minus = [a.copy() for a in arrays]
        plus[idx].ravel()[i] += step
        minus[idx].ravel()[i] -= step
        flat[i] = (f(*plus) - f(*minus)) / (2.0 * step)
    return out


def max_rel_err(ga, gf, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(ga), np.abs(gf)), floor)
    return float(np.max(np.abs(ga - gf) / denom))


def check_op_grads(build, arrays, tol=1e-4):
    """Compare tape gradients of sum_exact(weights * op(...)) against fd_grad."""
    rng = np.random.default_rng(99)
    probe = None

    def scalar(*raw):
        nonlocal probe
        with no_grad():
            out = build(*[Tensor(a) for a in raw])
        if probe is None:
            probe = rng.standard_normal(out.data.shape)
        return float(np.sum(out.data * probe))

    base = scalar(*arrays)
    assert math.isfinite(base)
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    loss = sum_exact(build(*leaves) * Tensor(probe))
    loss.backward()
    for i, leaf in enumerate(leaves):
        assert leaf.grad is not None, f"operand {i} got no gradient"
        gf = fd_grad(lambda *raw: scalar(*raw), [a.copy() for a in arrays], i)
        assert max_rel_err(leaf.grad, gf) < tol, f"operand {i} gradient mismatch"


# -- forward values ----------------------------------------------------------


def test_matmul_identity_and_projection():
    eye = Tensor(np.eye(2))
    b = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
    assert np.array_equal(matmul(eye, b).data, b.data)
    proj = Tensor(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert np.array_equal(matmul(proj, b).data, np.array([[5.0, 6.0], [0.0, 0.0]]))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


def test_matmul_associativity_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b, c = (rng.standard_normal((4, 4)) for _ in range(3))
        left = matmul(matmul(Tensor(a), Tensor(b)), Tensor(c)).data
        right = matmul(Tensor(a), matmul(Tensor(b), Tensor(c))).data
        assert np.allclose(left, right, atol=1e-8)


def test_softmax_uniform_rows():
    y = softmax_lastdim(Tensor(np.zeros(3))).data
    assert np.allclose(y, [1 / 3] * 3, atol=1e-12)
    y = softmax_lastdim(Tensor(np.array([1000.0, 1000.0]))).data
    assert np.allclose(y, [0.5, 0.5], atol=1e-12)


def test_softmax_quarter_three_quarters():
    y = softmax_lastdim(Tensor(np.array([0.0, math.log(3.0)]))).data
    assert np.allclose(y, [0.25, 0.75], atol=1e-12)


def test_softmax_rejects_nonfinite():
    with pytest.raises(NumericError):
        softmax_lastdim(Tensor(np.array([0.0, np.inf])))
    with pytest.raises(NumericError):
        softmax_lastdim(Tensor(np.array([0.0, np.nan])))


@given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=12))
def test_softmax_rows_sum_to_one(row):
    y = softmax_lastdim(Tensor(np.array(row))).data
    assert abs(y.sum() - 1.0) < 1e-9
    assert (y >= 0).all()


def test_layer_norm_two_point_row():
    out = layer_norm(Tensor(np.array([1.0, 3.0])), Tensor(np.ones(2)), Tensor(np.zeros(2))).data
    assert np.allclose(out, [-1.0, 1.0], atol=1e-3)


def test_layer_norm_constant_row_gives_bias():
    x = Tensor(np.full((2, 4), 7.0))
    bias = np.array([1.0, 2.0, 3.0, 4.0])
    out = layer_norm(x, Tensor(np.ones(4)), Tensor(bias)).data
    assert np.allclose(out, np.broadcast_to(bias, (2, 4)), atol=1e-12)


def test_layer_norm_zero_gain_gives_bias():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((3, 5)))
    bias = rng.standard_normal(5)
    out = layer_norm(x, Tensor(np.zeros(5)), Tensor(bias)).data
    assert np.allclose(out, np.broadcast_to(bias, (3, 5)), atol=1e-12)


def test_layer_norm_affine_shape_error():
    with pytest.raises(ShapeError):
        layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))


def test_relu_values():
    out = relu(Tensor(np.array([-2.0, 0.0, 3.0]))).data
    assert np.array_equal(out, [0.0, 0.0, 3.0])


def test_disallowed_inner_broadcast():
    with pytest.raises(ShapeError):
        T.add(Tensor(np.zeros((3, 1))), Tensor(np.zeros((3, 4))))


def test_suffix_broadcast_allowed():
    out = T.add(Tensor(np.zeros((2, 3, 4))), Tensor(np.ones(4)))
    assert out.data.shape == (2, 3, 4)
    assert np.all(out.data == 1.0)


# -- backward ---------------------------------------------------------------


def test_grad_of_sum_is_ones():
    w = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    sum_exact(w).backward()
    assert np.array_equal(w.grad, np.ones(3))


def test_grad_of_sum_of_squares():
    w = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    sum_exact(w * w).backward()
    assert np.allclose(w.grad, [2.0, -4.0, 6.0], atol=1e-12)


def test_fanout_accumulates_once_per_record():
    # b = a + a, c = b * b => dc/da = 8a; double-counting a record would break this
    a = Tensor(np.array([3.0]), requires_grad=True)
    b = a + a
    c = b * b
    sum_exact(c).backward()
    assert np.allclose(a.grad, [24.0], atol=1e-12)


def test_off_path_leaf_keeps_no_grad():
    a = Tensor(np.ones(2), requires_grad=True)
    b = Tensor(np.ones(2), requires_grad=True)
    sum_exact(a * 2.0).backward()
    assert b.grad is None
    assert np.array_equal(a.grad, [2.0, 2.0])


def test_backward_requires_scalar():
    a = Tensor(np.ones(3), requires_grad=True)
    out = a * 2.0
    with pytest.raises(TapeError):
        out.backward()
    active_tape().records.clear()


def test_backward_on_empty_tape():
    lone = Tensor(np.array(1.0), requires_grad=True)
    with pytest.raises(TapeError):
        lone.backward()


def test_tape_is_single_use():
    a = Tensor(np.ones(2), requires_grad=True)
    loss = sum_exact(a * a)
    loss.backward()
    assert len(active_tape()) == 0
    with pytest.raises(TapeError):
        loss.backward()


def test_no_grad_records_nothing():
    before = len(active_tape())
    a = Tensor(np.ones(4), requires_grad=True)
    with no_grad():
        out = sum_exact(a * a)
    assert len(active_tape()) == before
    assert not out.requires_grad
    active_tape().records.clear()


def test_grad_accumulates_across_backwards():
    a = Tensor(np.array([2.0]), requires_grad=True)
    sum_exact(a * a).backward()
    sum_exact(a * a).backward()
    assert np.allclose(a.grad, [8.0])


# -- finite-difference agreement (oracle) -------------------------------------


RNG = np.random.default_rng(7)


def shifted(shape):
    # keep relu inputs away from the kink so central differences stay valid
    x = RNG.standard_normal(shape)
    return np.where(np.abs(x) < 0.1, x + 0.25, x)


@pytest.mark.parametrize(
    "name,build,arrays",
    [
        ("add", lambda a, b: a + b, [RNG.standard_normal((5, 7)), RNG.standard_normal((5, 7))]),
        ("add_suffix", lambda a, b: a + b, [RNG.standard_normal((3, 4, 6)), RNG.standard_normal(6)]),
        ("sub", lambda a, b: a - b, [RNG.standard_normal((6,)), RNG.standard_normal((6,))]),
        ("mul", lambda a, b: a * b, [RNG.standard_normal((4, 8)), RNG.standard_normal((4, 8))]),
        ("mul_scalar", lambda a: a * 3.5, [RNG.standard_normal((3, 3))]),
        ("sub_scalar", lambda a: a - 2.0, [RNG.standard_normal((2, 5))]),
        ("relu", relu, [shifted((6, 6))]),
        ("matmul_2d", matmul, [RNG.standard_normal((5, 4)), RNG.standard_normal((4, 7))]),
        ("matmul_batched", matmul, [RNG.standard_normal((3, 5, 4)), RNG.standard_normal((4, 6))]),
        ("matmul_3d3d", matmul, [RNG.standard_normal((2, 4, 3)), RNG.standard_normal((2, 3, 5))]),
        # constant operands: each live operand still gets its gradient
        ("mul_constant", lambda a: a * Tensor(np.arange(5.0)), [RNG.standard_normal((4, 5))]),
        ("matmul_constant_left", lambda a: matmul(Tensor(np.ones((3, 4))), a),
         [RNG.standard_normal((4, 5))]),
        ("layer_norm_constant_affine",
         lambda a: layer_norm(a, Tensor(np.linspace(0.5, 1.5, 5)), Tensor(np.ones(5))),
         [RNG.standard_normal((3, 4, 5))]),
        ("sum_exact", sum_exact, [RNG.standard_normal((6, 6))]),
        ("sub_constant_left", lambda a: Tensor(np.linspace(-1.0, 1.0, 6)) - a,
         [RNG.standard_normal((4, 6))]),
        ("attention", lambda q, k, v: causal_attention(q, k, v, 2),
         [RNG.standard_normal((2, 5, 8)) for _ in range(3)]),
        ("softmax", softmax_lastdim, [RNG.standard_normal((5, 8))]),
        ("layer_norm", layer_norm,
         [RNG.standard_normal((4, 8)), RNG.standard_normal(8), RNG.standard_normal(8)]),
        ("composite", lambda a, b: relu(matmul(a, b)) + matmul(a, b),
         [shifted((4, 4)), shifted((4, 4))]),
        ("attention_unbatched", lambda q, k, v: causal_attention(q, k, v, 2),
         [RNG.standard_normal((5, 8)) for _ in range(3)]),
        ("attention_offset", lambda q, k, v: causal_attention(q, k, v, 2),
         [RNG.standard_normal((2, 3, 8))] + [RNG.standard_normal((2, 5, 8)) for _ in range(2)]),
        ("matmul_bias", matmul,
         [RNG.standard_normal((3, 5, 4)), RNG.standard_normal((4, 6)), RNG.standard_normal(6)]),
    ],
)
def test_gradients_match_finite_differences(name, build, arrays):
    check_op_grads(build, arrays)


def reference_attention(q, k, v, num_heads):
    """Per-head softmax(Q K^T / sqrt(dh) + mask) V, heads concatenated.

    The M rows of q are the queries at the last M of k's N positions.
    """
    m, d = q.shape[-2:]
    n = k.shape[-2]
    dh = d // num_heads
    mask = np.where(np.arange(n)[None, :] > np.arange(n - m, n)[:, None], -np.inf, 0.0)
    heads = []
    for h in range(num_heads):
        cols = slice(h * dh, (h + 1) * dh)
        s = q[..., cols] @ np.swapaxes(k[..., cols], -1, -2) / math.sqrt(dh) + mask
        p = np.exp(s - s.max(axis=-1, keepdims=True))
        heads.append((p / p.sum(axis=-1, keepdims=True)) @ v[..., cols])
    return np.concatenate(heads, axis=-1)


@pytest.mark.parametrize("shape,num_heads", [((2, 5, 8), 2), ((5, 8), 2), ((3, 7, 12), 4)])
def test_causal_attention_matches_per_head_reference(shape, num_heads):
    rng = np.random.default_rng(21)
    q, k, v = (rng.standard_normal(shape) for _ in range(3))
    out = causal_attention(Tensor(q), Tensor(k), Tensor(v), num_heads).data
    assert out.shape == shape
    assert np.max(np.abs(out - reference_attention(q, k, v, num_heads))) < 1e-12


@pytest.mark.parametrize("m,n", [(1, 1), (1, 6), (2, 7), (5, 9), (9, 9)])
def test_causal_attention_query_offset_matches_reference(m, n):
    rng = np.random.default_rng(23)
    q = rng.standard_normal((2, m, 8))
    k, v = (rng.standard_normal((2, n, 8)) for _ in range(2))
    out = causal_attention(Tensor(q), Tensor(k), Tensor(v), 2).data
    assert out.shape == (2, m, 8)
    assert np.max(np.abs(out - reference_attention(q, k, v, 2))) < 1e-12


def test_causal_attention_last_queries_equal_full_rows_bitwise():
    # the M-query call is the last M rows of the square call, bit for bit
    rng = np.random.default_rng(24)
    q, k, v = (rng.standard_normal((3, 10, 8)) for _ in range(3))
    full = causal_attention(Tensor(q), Tensor(k), Tensor(v), 2).data
    tail = causal_attention(Tensor(q[:, -2:]), Tensor(k), Tensor(v), 2).data
    assert np.array_equal(tail, full[:, -2:])


def test_causal_attention_is_one_tape_record():
    rng = np.random.default_rng(22)
    q, k, v = (Tensor(rng.standard_normal((2, 5, 8)), requires_grad=True) for _ in range(3))
    before = len(active_tape())
    out = causal_attention(q, k, v, 2)
    assert len(active_tape()) == before + 1
    sum_exact(out).backward()
    assert all(t.grad is not None and t.grad.shape == (2, 5, 8) for t in (q, k, v))


def test_causal_attention_rejects_nonfinite_input():
    q = np.zeros((4, 8))
    q[1, 3] = np.nan
    with pytest.raises(NumericError):
        causal_attention(Tensor(q), Tensor(np.ones((4, 8))), Tensor(np.ones((4, 8))), 2)


def test_causal_attention_shape_errors():
    x = Tensor(np.zeros((4, 8)))
    with pytest.raises(ShapeError):
        causal_attention(x, x, Tensor(np.zeros((4, 6))), 2)
    with pytest.raises(ShapeError):
        causal_attention(x, x, x, 3)
    with pytest.raises(ShapeError):  # more queries than keys
        causal_attention(Tensor(np.zeros((5, 8))), x, x, 2)
    with pytest.raises(ShapeError):  # queries and keys of different widths
        causal_attention(Tensor(np.zeros((2, 4))), x, x, 2)


def test_layer_norm_epsilon_is_pinned():
    assert LAYER_NORM_EPS == 1e-6


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_softmax_batch_rows_each_sum_to_one(n, seed):
    x = np.random.default_rng(seed).uniform(-1e4, 1e4, size=(3, n))
    y = softmax_lastdim(Tensor(x)).data
    assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-9)


def test_all_op_outputs_finite_on_finite_input():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1e4, 1e4, size=(6, 6))
    outs = [
        (Tensor(x) + Tensor(x)).data,
        (Tensor(x) * Tensor(x)).data,
        matmul(Tensor(x), Tensor(x)).data,
        relu(Tensor(x)).data,
        softmax_lastdim(Tensor(x)).data,
        layer_norm(Tensor(x), Tensor(np.ones(6)), Tensor(np.zeros(6))).data,
        sum_exact(Tensor(x)).data,
    ]
    for out in outs:
        assert np.isfinite(out).all()


# -- in-place softmax and attention: bitwise equal to the three-temporary formulas --


def softmax_three_temporaries(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def attention_with_temporaries(q, k, v, num_heads, g):
    """Forward and VJP of causal_attention as separate arrays per stage,
    with the mask cut from an N x N triu."""
    shape, kv_shape = q.shape, k.shape
    m, n, dh = shape[-2], kv_shape[-2], shape[-1] // num_heads
    nb = len(shape) - 2
    heads = tuple(range(nb)) + (nb + 1, nb, nb + 2)
    split, kv_split = (s[:-1] + (num_heads, dh) for s in (shape, kv_shape))
    qh = q.reshape(split).transpose(heads)
    kh, vh = (t.reshape(kv_split).transpose(heads) for t in (k, v))
    scale = 1.0 / math.sqrt(dh)
    scores = qh @ np.swapaxes(kh, -1, -2)
    scores *= scale
    scores += np.triu(np.full((n, n), -np.inf), k=1)[n - m:]
    probs = softmax_three_temporaries(scores)
    out = (probs @ vh).transpose(heads).reshape(shape)
    dctx = g.reshape(split).transpose(heads)
    dp = dctx @ np.swapaxes(vh, -1, -2)
    dv = np.swapaxes(probs, -1, -2) @ dctx
    ds = probs * (dp - (dp * probs).sum(axis=-1, keepdims=True))
    ds *= scale
    dq = ds @ kh
    dk = np.swapaxes(np.swapaxes(qh, -1, -2) @ ds, -1, -2)
    return out, (dq.transpose(heads).reshape(shape),
                 *(a.transpose(heads).reshape(kv_shape) for a in (dk, dv)))


def last_record_vjp(g):
    """Gradients the newest tape record sends to its inputs for output grad g."""
    rec = active_tape().records[-1]
    return rec.vjp(g, rec.live)


def softmax_rows(kind):
    rng = np.random.default_rng(31)
    if kind == "random":
        return rng.standard_normal((3, 4, 17))
    if kind == "masked":
        return rng.standard_normal((2, 9, 9)) + np.triu(np.full((9, 9), -np.inf), k=1)
    return rng.choice([-1e4, 1e4], size=(5, 11)) + rng.standard_normal((5, 11))


@pytest.mark.parametrize("kind", ["random", "masked", "extreme"])
def test_softmax_bitwise_equal_to_three_temporaries(kind):
    x = softmax_rows(kind)
    before = x.copy()
    t = Tensor(x, requires_grad=True)
    y = softmax_lastdim(t)
    assert np.array_equal(y.data, softmax_three_temporaries(before))
    assert np.array_equal(x, before)  # the input is not mutated
    g = np.random.default_rng(32).standard_normal(x.shape)
    want = y.data * (g - (g * y.data).sum(axis=-1, keepdims=True))
    assert np.array_equal(last_record_vjp(g)[0], want)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 7), (9, 9), (128, 128)])
def test_causal_attention_bitwise_equal_to_temporaries(m, n):
    rng = np.random.default_rng(33)
    q = rng.standard_normal((2, m, 8))
    k, v = (rng.standard_normal((2, n, 8)) for _ in range(2))
    g = rng.standard_normal((2, m, 8))
    out = causal_attention(*(Tensor(a, requires_grad=True) for a in (q, k, v)), 2)
    want_out, want_grads = attention_with_temporaries(q, k, v, 2, g)
    assert np.array_equal(out.data, want_out)
    for got, want in zip(last_record_vjp(g), want_grads):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", [(7, 16), (3, 5, 32), (16,)])
def test_layer_norm_vjp_bitwise_equal_to_temporaries(shape):
    rng = np.random.default_rng(34)
    x = 3.0 * rng.standard_normal(shape) + 1.0
    gain, bias = 1.0 + rng.standard_normal(shape[-1]), rng.standard_normal(shape[-1])
    g = rng.standard_normal(shape)
    layer_norm(Tensor(x, requires_grad=True), gain, bias)
    centered = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centered ** 2).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    xhat = centered * inv
    dxhat = g * gain
    want = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                  - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    assert last_record_vjp(g)[0].tobytes() == want.tobytes()
    active_tape().records.clear()


def test_causal_attention_rejects_infinite_score():
    # finite inputs whose product overflows: the score, not the input, is inf
    big = np.full((4, 8), 1e300)
    # a masked +inf score plus the mask's -inf is NaN, which numpy flags as invalid
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
        causal_attention(Tensor(big), Tensor(big), Tensor(np.ones((4, 8))), 2)


def test_matmul_vjp_skips_constant_operand():
    x = Tensor(np.ones((3, 5, 4)))  # an input batch: no grad, not from the tape
    w = Tensor(np.ones((4, 6)), requires_grad=True)
    matmul(x, w)
    gx, gw = last_record_vjp(np.ones((3, 5, 6)))
    assert gx is None
    assert gw.shape == (4, 6)


def attention2(q, k, v):
    return causal_attention(q, k, v, 2)


@pytest.mark.parametrize("op,shapes,live", [
    (T.add, [(3, 4), (4,)], (False, True)),
    (T.mul, [(3, 4), (3, 4)], (True, False)),
    (matmul, [(3, 4), (4, 5)], (True, False)),
    (matmul, [(2, 3, 4), (4, 5), (5,)], (False, True, True)),
    (matmul, [(2, 3, 4), (4, 5), (5,)], (True, True, False)),
    (layer_norm, [(3, 4), (4,), (4,)], (False, True, True)),
    (layer_norm, [(3, 4), (4,), (4,)], (True, False, False)),
    (attention2, [(2, 5, 8)] * 3, (False, True, True)),
    (attention2, [(2, 5, 8)] * 3, (True, False, False)),
], ids=["add", "mul", "matmul_right", "matmul_bias_x", "matmul_bias_bias", "layer_norm_x", "layer_norm_affine",
        "attention_q", "attention_kv"])
def test_vjp_skips_constant_operand(op, shapes, live):
    # A constant operand gets None; every live one gets the gradient it gets
    # when all operands are live, bit for bit.
    rng = np.random.default_rng(41)
    arrays = [rng.standard_normal(s) for s in shapes]
    g = rng.standard_normal(op(*(Tensor(a) for a in arrays)).shape)
    op(*(Tensor(a, requires_grad=True) for a in arrays))
    full = last_record_vjp(g)
    op(*(Tensor(a, requires_grad=need) for a, need in zip(arrays, live)))
    got = last_record_vjp(g)
    active_tape().records.clear()
    assert [x is not None for x in got] == list(live)
    for x, want, need in zip(got, full, live):
        if need:
            assert np.array_equal(x, want)


# -- matmul with a bias: one record, bitwise equal to matmul then add ---------------


def dense_grads(x, w, b, x_live, fused):
    """Forward value and the (x, w, b) gradients of sum_exact(probe * dense(x, w, b)),
    by one fused matmul record or by matmul then a bias add."""
    probe = Tensor(np.random.default_rng(52).standard_normal(x.shape[:-1] + w.shape[-1:]))
    leaves = (Tensor(x, requires_grad=x_live), Tensor(w, requires_grad=True),
              Tensor(b, requires_grad=True))
    out = matmul(*leaves) if fused else matmul(*leaves[:2]) + leaves[2]
    value = out.data.copy()
    sum_exact(out * probe).backward()
    return value, [t.grad for t in leaves]


@pytest.mark.parametrize("x_shape", [(3, 5, 4), (5, 4)])
@pytest.mark.parametrize("x_live", [True, False])
def test_matmul_bias_bitwise_equal_to_matmul_then_add(x_shape, x_live):
    rng = np.random.default_rng(51)
    x, w, b = rng.standard_normal(x_shape), rng.standard_normal((4, 6)), rng.standard_normal(6)
    fused_out, fused = dense_grads(x, w, b, x_live, fused=True)
    pair_out, pair = dense_grads(x, w, b, x_live, fused=False)
    assert np.array_equal(fused_out, pair_out)
    assert (fused[0] is None) == (not x_live)
    for got, want in zip(fused, pair):
        assert (got is None and want is None) or np.array_equal(got, want)


def test_matmul_with_bias_is_one_tape_record():
    rng = np.random.default_rng(53)
    x, w, b = (Tensor(rng.standard_normal(s), requires_grad=True) for s in ((2, 5, 4), (4, 3), (3,)))
    before = len(active_tape())
    matmul(x, w, b)
    assert len(active_tape()) == before + 1
    active_tape().records.clear()


@pytest.mark.parametrize("bias_shape", [(1, 6), (5,), (7,)])
def test_matmul_bias_of_wrong_shape_is_rejected(bias_shape):
    with pytest.raises(ShapeError, match="bias"):
        matmul(Tensor(np.zeros((2, 4))), Tensor(np.zeros((4, 6))), Tensor(np.zeros(bias_shape)))


def test_desk_forward_and_loss_record_39_tape_entries():
    # 16 dense layers, one record each; 2 skip projections; 21 other ops. The
    # parameter gradients equal those of the op-by-op reference bit for bit.
    import reference_model

    cfg = ModelConfig.preset("desk")
    weights, ref = (ModelWeights.initialize(cfg, seed=0) for _ in range(2))
    inputs = np.random.default_rng(54).standard_normal((2, 6, cfg.input_width))
    targets = np.random.default_rng(55).standard_normal((2, 6, cfg.output_patch_len))
    before = len(active_tape())
    loss = train_loss(forward(weights, cfg, inputs), targets)
    assert len(active_tape()) - before == 39
    loss.backward()
    train_loss(reference_model.forward(ref, cfg, inputs), targets).backward()
    for name, p in weights.named():
        assert np.array_equal(p.grad, ref[name].grad), name


# -- one causal-mask table ------------------------------------------------------------


def test_mask_rows_of_the_table_equal_a_per_call_triu_bitwise():
    for n in range(1, 257):
        table = T._causal_table(1 << (n - 1).bit_length())
        assert not table.flags.writeable
        for m in range(1, n + 1):
            want = np.triu(np.full((m, n), -np.inf), k=n - m + 1)
            assert np.array_equal(table[n - m:n, :n].view(np.int64), want.view(np.int64)), (m, n)


# -- large calls in two halves: bit for bit the single call ------------------------------


class CountingPool:
    """A one-thread pool that counts submissions, and among them the
    leaf-gradient tasks: ``Tape.backward`` submits ``(run, vjp, g, aside)``,
    ``on_two_threads`` (so ``_in_halves``) submits ``(run, pull, None)``."""

    def __init__(self):
        self.pool = ThreadPoolExecutor(max_workers=1)
        self.submitted = 0
        self.leaf_tasks = 0

    def submit(self, fn, *args):
        self.submitted += 1
        self.leaf_tasks += len(args) == 3
        return self.pool.submit(fn, *args)


@pytest.fixture
def pool(monkeypatch):
    """A counting worker on a process that may use 2 CPUs."""
    counting = CountingPool()
    monkeypatch.setattr(T, "_second_core", lambda: counting)
    monkeypatch.setattr(T, "_usable_cpus", lambda: 2)
    yield counting
    counting.pool.shutdown()


def attention_and_grads(q, k, v, g, live, heads):
    """Forward output and the gradients of the live inputs (None for the others)."""
    out = causal_attention(*(Tensor(a, requires_grad=need) for a, need in zip((q, k, v), live)),
                           heads)
    grads = last_record_vjp(g)
    active_tape().records.clear()
    return out.data, grads


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(1, 17), st.sampled_from([1, 2, 4]), st.integers(1, 4), st.integers(1, 256),
       st.data())
def test_split_attention_equals_single_call_bitwise(batch, heads, dh, n, data):
    m = data.draw(st.integers(1, n), label="m")
    live = data.draw(st.tuples(st.booleans(), st.booleans(), st.booleans())
                     .filter(any), label="live")
    lead = data.draw(st.sampled_from([(batch,), ()]), label="batch axes")  # () splits heads
    rng = np.random.default_rng(batch * 1000 + n)
    q = rng.standard_normal(lead + (m, heads * dh))
    k, v = (rng.standard_normal(lead + (n, heads * dh)) for _ in range(2))
    g = rng.standard_normal(q.shape)
    runs = {}
    for threshold in (1, 2**62):  # every call split, then none
        with pytest.MonkeyPatch.context() as mp:
            counting = CountingPool()
            mp.setattr(T, "_second_core", lambda: counting)
            mp.setattr(T, "_usable_cpus", lambda: 2)
            mp.setattr(T, "SPLIT_MIN_ENTRIES", threshold)
            runs[threshold] = attention_and_grads(q, k, v, g, live, heads)
            # the worker's softmax of a bare array records nothing on its own tape
            assert counting.pool.submit(lambda: len(active_tape())).result() == 0
            counting.pool.shutdown()
        # one hand-off in the forward and one in the VJP when split
        assert counting.submitted == (2 if threshold == 1 and (lead or (heads,))[0] > 1 else 0)
    (split_out, split_grads), (one_out, one_grads) = runs[1], runs[2**62]
    assert split_out.tobytes() == one_out.tobytes()
    for got, want, need in zip(split_grads, one_grads, live):
        assert (got is None) == (want is None) == (not need)
        if need:
            assert got.strides == want.strides and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cpus", [2, 1])
@pytest.mark.parametrize("m", [24, 5])
@pytest.mark.parametrize("live", [(True, True, True), (False, False, True), (True, False, False)])
def test_blocked_attention_vjp_equals_one_block_bitwise(pool, monkeypatch, cpus, m, live):
    # 6 rows in blocks of 2 are 3 blocks; the halves of 3 rows each cut the
    # middle block, so each half works a block of 2 rows and one of 1
    monkeypatch.setattr(T, "SPLIT_MIN_ENTRIES", 1)
    monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
    heads, n = 2, 24
    rng = np.random.default_rng(35)
    q = rng.standard_normal((6, m, 16))
    k, v = (rng.standard_normal((6, n, 16)) for _ in range(2))
    g = rng.standard_normal(q.shape)
    row_bytes = heads * m * n * 8
    runs = {}
    for block in (row_bytes, 2 * row_bytes, 2**62):
        monkeypatch.setattr(T, "ATTENTION_VJP_BLOCK_BYTES", block)
        runs[block] = attention_and_grads(q, k, v, g, live, heads)[1]
    assert (pool.submitted > 0) == (cpus == 2)
    for got in (runs[row_bytes], runs[2 * row_bytes]):
        for a, b, need in zip(got, runs[2**62], live):
            assert (a is None) == (b is None) == (not need)
            if need:
                assert a.strides == b.strides and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("bad_row", [0, 3], ids=["first_half", "second_half"])
def test_split_nonfinite_score_raises_in_caller(pool, monkeypatch, bad_row):
    monkeypatch.setattr(T, "SPLIT_MIN_ENTRIES", 1)
    rng = np.random.default_rng(61)
    q, k, v = (rng.standard_normal((4, 6, 8)) for _ in range(3))
    big = q.copy()
    big[bad_row] = 1e300  # finite input whose scores overflow to inf
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
        causal_attention(Tensor(big), Tensor(big), Tensor(v), 2)
    assert pool.submitted == 1  # the forward's one hand-off; the bad row's half raises
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):  # both halves obey it
        causal_attention(Tensor(big), Tensor(big), Tensor(v), 2)
    out = causal_attention(Tensor(q), Tensor(k), Tensor(v), 2).data
    assert np.max(np.abs(out - reference_attention(q, k, v, 2))) < 1e-12


@pytest.mark.parametrize("failing", [0, 1], ids=["inline_half", "worker_half"])
def test_in_halves_raises_after_both_halves_finish(pool, monkeypatch, failing):
    monkeypatch.setattr(T, "SPLIT_MIN_ENTRIES", 1)
    started, done = threading.Event(), []

    def rows(sl):
        inline = threading.current_thread() is threading.main_thread()
        if not inline:
            started.set()
        elif not started.wait(5):  # hold the inline half until the worker runs
            raise TimeoutError("the worker never started its half")
        if inline == (failing == 0):
            raise KeyError(sl.start)
        time.sleep(0.05)  # the other half is still running when this one fails
        done.append(inline)

    with pytest.raises(KeyError):
        T._in_halves(rows, np.zeros((5, 3)))
    assert done == [failing == 1]  # the half that did not fail had finished
    assert pool.submitted == 1


def test_in_halves_runs_a_half_the_worker_has_not_started_inline(pool, monkeypatch):
    monkeypatch.setattr(T, "SPLIT_MIN_ENTRIES", 1)
    release = threading.Event()
    pool.pool.submit(release.wait, 5)  # keeps the worker busy
    calls = []
    T._in_halves(lambda sl: calls.append((sl.start, sl.stop,
                                           threading.current_thread().name)), np.zeros((5, 3)))
    release.set()
    main = threading.main_thread().name
    assert calls == [(0, 3, main), (3, None, main)]


def test_on_two_threads_runs_every_part_once_on_both_threads(pool):
    calls, worker_ran = [], threading.Event()

    def fn(i):
        if threading.current_thread() is threading.main_thread():
            assert i != 0 or worker_ran.wait(5)  # hold part 0 until the worker has run one
        else:
            worker_ran.set()
        calls.append((i, threading.current_thread() is threading.main_thread()))

    T.on_two_threads(fn, list(range(40)))
    assert sorted(i for i, _ in calls) == list(range(40))
    assert (0, True) in calls and {on_caller for _, on_caller in calls} == {True, False}
    assert pool.submitted == 1 and pool.leaf_tasks == 0


def test_on_two_threads_leaves_every_part_to_the_caller_while_the_worker_is_busy(pool):
    release = threading.Event()
    pool.pool.submit(release.wait, 5)  # keeps the worker busy
    calls = []
    T.on_two_threads(lambda i: calls.append((i, threading.current_thread().name)), list(range(5)))
    release.set()
    assert calls == [(i, threading.main_thread().name) for i in range(5)]


def test_on_two_threads_raises_the_lowest_failed_part_and_starts_no_other(pool):
    # part 1 fails on the worker first, then part 0 on the caller: the in-order
    # loop would raise part 0's error, and neither thread starts part 2
    one_failed, started = threading.Event(), []

    def fn(i):
        started.append(i)
        if i == 0:
            assert one_failed.wait(5)
            time.sleep(0.05)  # part 1's failure is recorded by now
            raise KeyError(0)
        one_failed.set()
        raise KeyError(i)

    with pytest.raises(KeyError) as info:
        T.on_two_threads(fn, list(range(6)))
    assert info.value.args == (0,) and sorted(started) == [0, 1]


@pytest.mark.parametrize("parts, cpus", [([0], 2), ([0, 1, 2], 1), ([], 2)])
def test_on_two_threads_runs_in_order_on_the_caller_for_one_part_or_one_cpu(
        monkeypatch, parts, cpus):
    class RefusingPool:
        def submit(self, *args):
            raise AssertionError("nothing reaches the worker")

    monkeypatch.setattr(T, "_second_core", lambda: RefusingPool())
    monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
    calls = []
    T.on_two_threads(calls.append, parts)
    assert calls == parts


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork() of a threaded process
def test_forked_child_splits_on_a_worker_of_its_own(monkeypatch):
    monkeypatch.setattr(T, "SPLIT_MIN_ENTRIES", 1)
    monkeypatch.setattr(T, "_usable_cpus", lambda: 2)
    T._in_halves(lambda sl: None, np.zeros((2, 1)))  # the parent's worker exists
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: did a thread other than this one run a half?
        started, names = threading.Event(), []

        def rows(sl):
            if sl.start:
                started.set()
            else:
                started.wait(5)
            names.append(threading.current_thread().name)

        T._in_halves(rows, np.zeros((2, 1)))
        os.write(write_end, b"worker" if len(set(names)) == 2 else b"inline")
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        assert fh.read() == b"worker"
    assert os.waitpid(pid, 0)[1] == 0


def test_below_threshold_or_one_cpu_submits_nothing(monkeypatch):
    class RefusingPool:
        def submit(self, *args):
            raise AssertionError("no call below the threshold reaches the worker")

    monkeypatch.setattr(T, "_second_core", lambda: RefusingPool())
    rng = np.random.default_rng(62)
    cfg = ModelConfig.preset("desk")
    weights = ModelWeights.initialize(cfg, seed=0)
    # pretrain_short's attention call: 32 windows, 2 heads, 19 tokens
    q, k, v = (Tensor(rng.standard_normal((32, 19, 32)), requires_grad=True) for _ in range(3))
    monkeypatch.setattr(T, "_usable_cpus", lambda: 2)
    assert 32 * 2 * 19 * 19 < T.SPLIT_MIN_ENTRIES
    sum_exact(causal_attention(q, k, v, 2)).backward()
    # pretrain_short's training step: no upstream gradient is wider than [32, 19, 32]
    assert 32 * 19 * max(cfg.model_dim, cfg.residual_hidden) < T.LEAF_TASK_MIN_ENTRIES
    desk_step_grads(weights, cfg, rng, (32, 19))
    # pretrain_long's calls and records are past both thresholds, but the process has one CPU
    monkeypatch.setattr(T, "_usable_cpus", lambda: 1)
    q, k, v = (Tensor(rng.standard_normal((16, 128, 32)), requires_grad=True) for _ in range(3))
    assert 16 * 2 * 128 * 128 >= T.SPLIT_MIN_ENTRIES
    sum_exact(causal_attention(q, k, v, 2)).backward()
    softmax_lastdim(Tensor(rng.standard_normal((2**10, 2**9))))
    assert 16 * 128 * cfg.model_dim >= T.LEAF_TASK_MIN_ENTRIES
    desk_step_grads(weights, cfg, rng, (16, 128))


def long_training_run(tmp_path, corpus):
    result = train(corpus, ModelConfig.preset("desk"),
                   TrainConfig(total_steps=3, batch_size=16, base_lr=3e-3, seed=7, val_every=0),
                   out_dir=tmp_path)
    weights = b"".join(a.tobytes() for a in result.weights.as_arrays().values())
    return (tmp_path / "loss_curve.csv").read_bytes(), weights


def test_train_on_long_windows_is_byte_identical_with_the_worker_off(pool, monkeypatch, tmp_path):
    # pretrain_long's geometry: 760-900 points, so windows fill 128 tokens and
    # every attention call is past the threshold. Pins dK's memory layout: the
    # attn.bk gradients are rounding noise that Adam turns into full-size steps.
    family = FamilySpec(name="long", granularity="daily", n_series=6, length_range=(760, 900),
                        period_range=(100.0, 250.0), amplitude_range=(0.8, 1.5))
    corpus = synth_corpus(GeneratorSpec(pretrain=[family]), seed=3).pretrain
    split = long_training_run(tmp_path / "split", corpus)
    assert pool.submitted > pool.leaf_tasks > 0  # attention halves and parameter gradients
    monkeypatch.setattr(T, "_usable_cpus", lambda: 1)
    submitted = pool.submitted
    assert long_training_run(tmp_path / "single", corpus) == split
    assert pool.submitted == submitted


# -- parameter gradients beside the input-gradient chain: bit for bit inline -----------


def desk_step_grads(weights, cfg, rng, lead):
    """The bytes of every parameter gradient of one desk training step on
    random patch rows and targets of leading shape ``lead``, by name."""
    weights.zero_grads()
    inputs = rng.standard_normal(lead + (cfg.input_width,))
    targets = rng.standard_normal(lead + (cfg.output_patch_len,))
    train_loss(forward(weights, cfg, inputs), targets).backward()
    return {name: p.grad.tobytes() for name, p in weights.named()}


def test_desk_parameter_gradients_on_the_worker_equal_inline_bitwise(pool, monkeypatch):
    cfg = ModelConfig.preset("desk")
    weights = ModelWeights.initialize(cfg, seed=5)
    runs = {}
    for threshold in (2**62, 1):  # every record inline, then every one on the worker
        monkeypatch.setattr(T, "LEAF_TASK_MIN_ENTRIES", threshold)
        runs[threshold] = desk_step_grads(weights, cfg, np.random.default_rng(80), (4, 16))
    # 18 matmul records (weights and biases) and 4 layer-norm records (gains and biases)
    assert pool.leaf_tasks == pool.submitted == 22
    assert {"layer0.ln1.gain", "layer1.ln2.bias", "layer0.attn.wq", "layer1.ffn.b2"} <= set(runs[1])
    assert runs[1] == runs[2**62]


def test_shared_and_produced_parameters_on_the_worker_equal_inline_bitwise(pool, monkeypatch):
    rng = np.random.default_rng(81)
    x = rng.standard_normal((3, 5, 4))
    arrays = (rng.standard_normal((4, 4)), rng.standard_normal(4), 1.0 + rng.standard_normal(4),
              rng.standard_normal(4))

    def grads():
        w, b, gain, bias = (Tensor(a, requires_grad=True) for a in arrays)
        h = layer_norm(matmul(x, w, b), gain, bias)
        h = layer_norm(matmul(h, w, b), gain, bias)  # every leaf feeds two records
        h = matmul(h, mul(w, 0.5))  # a produced right operand: its gradient joins the chain
        sum_exact(h * h).backward()
        return [t.grad.tobytes() for t in (w, b, gain, bias)]

    monkeypatch.setattr(T, "LEAF_TASK_MIN_ENTRIES", 2**62)
    inline = grads()
    monkeypatch.setattr(T, "LEAF_TASK_MIN_ENTRIES", 1)
    assert grads() == inline
    # the two matmul(., w, b) records, the two layer-norm records and mul(w, 0.5);
    # the last matmul and the ops after it have only produced inputs
    assert pool.leaf_tasks == 5


def test_leaf_first_operand_and_binary_leaf_on_the_worker_equal_inline_bitwise(pool, monkeypatch):
    rng = np.random.default_rng(83)
    x = rng.standard_normal((3, 5, 4))
    arrays = (rng.standard_normal((4, 4)), rng.standard_normal((5, 5)), rng.standard_normal(4))

    def grads():
        w, w_first, s = (Tensor(a, requires_grad=True) for a in arrays)
        h = matmul(x, w)
        h = matmul(w_first, h)  # a leaf first operand, broadcast over h's batch axis
        h = mul(h, s)  # a _binary op on a leaf
        sum_exact(h * h).backward()
        return [t.grad.tobytes() for t in (w, w_first, s)]

    monkeypatch.setattr(T, "LEAF_TASK_MIN_ENTRIES", 2**62)
    inline = grads()
    assert pool.submitted == 0
    monkeypatch.setattr(T, "LEAF_TASK_MIN_ENTRIES", 1)
    assert grads() == inline
    assert pool.leaf_tasks == pool.submitted == 3


def test_no_produced_input_gradient_is_computed_on_the_worker(pool, monkeypatch):
    monkeypatch.setattr(T, "LEAF_TASK_MIN_ENTRIES", 1)
    calls = []

    def vjp(g, need):
        calls.append((need, threading.current_thread() is threading.main_thread()))
        return tuple(g if n else None for n in need)

    w = Tensor(np.ones((2, 3)), requires_grad=True)
    h = mul(w, 2.0)  # produced; its record's one input is a leaf
    out = T._op(h.data + w.data + 1.0, (h, w, np.ones((2, 3))), vjp)
    sum_exact(out).backward()
    # (need, on the caller's thread): the leaf w on the worker, the produced h here
    assert sorted(calls) == [((False, True, False), False), ((True, False, False), True)]
    assert np.array_equal(w.grad, np.full((2, 3), 3.0))
    assert pool.leaf_tasks == pool.submitted == 2


def test_attention_on_leaves_on_the_worker_splits_there_and_equals_inline_bitwise(pool, monkeypatch):
    # In the model q, k and v are produced, so attention's VJP stays on the
    # caller's thread. Forced onto the worker, its _in_halves submits the
    # second half from there, finds it not started and runs it inline.
    monkeypatch.setattr(T, "SPLIT_MIN_ENTRIES", 1)
    rng = np.random.default_rng(84)
    arrays = [rng.standard_normal((4, 6, 8)) for _ in range(3)]
    probe = rng.standard_normal((4, 6, 8))
    submitters = []
    submit = pool.submit

    def recording_submit(fn, *args):
        submitters.append((len(args), threading.current_thread().name))
        return submit(fn, *args)

    monkeypatch.setattr(pool, "submit", recording_submit)

    def grads(out):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        sum_exact(causal_attention(*leaves, 2) * probe).backward()
        out.extend(t.grad.tobytes() for t in leaves)

    runs = {}
    for threshold in (2**62, 1):  # the record inline, then on the worker
        monkeypatch.setattr(T, "LEAF_TASK_MIN_ENTRIES", threshold)
        submitters.clear()
        runs[threshold] = []
        caller = threading.Thread(target=grads, args=(runs[threshold],), name="caller", daemon=True)
        caller.start()
        caller.join(10)
        if caller.is_alive():
            pool.pool.shutdown(wait=False, cancel_futures=True)
            pytest.fail("backward did not finish")
        # the forward's one hand-off, from the caller's thread
        assert submitters[:1] == [(2, "caller")]
    worker = submitters[2][1]
    assert submitters[1:] == [(3, "caller"), (2, worker)] and worker != "caller"
    assert len(runs[1]) == 3 and runs[1] == runs[2**62]


@pytest.mark.parametrize("on_worker", [False, True], ids=["inline", "worker"])
def test_vjp_raising_mid_sweep_leaves_no_task_running_and_an_empty_tape(pool, monkeypatch,
                                                                       on_worker):
    monkeypatch.setattr(T, "LEAF_TASK_MIN_ENTRIES", 1)
    started, done = threading.Event(), []
    submit = pool.submit

    def slow_submit(fn, *args):
        def task():
            started.set()
            time.sleep(0.05)  # still running when the VJP below raises
            result = fn(*args)
            done.append(True)
            return result
        return submit(task)

    monkeypatch.setattr(pool, "submit", slow_submit)

    def raising_vjp(g, live):
        assert started.wait(5)
        raise KeyError("vjp")

    rng = np.random.default_rng(82)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    # swept after the matmul below: on the worker for a leaf input, here for a produced one
    h = T._op(x.data.copy(), (x if on_worker else mul(x, 1.0),), raising_vjp)
    loss = sum_exact(matmul(h, w))
    with pytest.raises(KeyError):
        loss.backward()
    assert done == [True]  # w's task ended before backward raised
    assert len(active_tape()) == 0
    assert w.grad is None and x.grad is None  # no leaf gradient is written


# -- softmax on causal scores: bitwise the three-temporaries softmax --------------------


def causal_scores(rng, shape, m, n):
    """Random scores [.., M, N] under the additive causal mask of -inf."""
    mask = T._causal_table(1 << (n - 1).bit_length())
    return 4.0 * rng.standard_normal(shape + (m, n)) + mask[n - m:n, :n]


def softmax_and_vjp(x, g):
    """Bytes of softmax_lastdim's output and of its VJP for output grad g."""
    y = softmax_lastdim(Tensor(x, requires_grad=True))
    (gx,) = last_record_vjp(g)
    active_tape().records.clear()
    return y.data.tobytes(), gx.tobytes()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(lead=st.sampled_from([(), (1,), (3,), (2, 3)]), heads=st.sampled_from([1, 2, 4]),
       n=st.integers(1, 256), data=st.data())
def test_softmax_on_causal_scores_equals_three_temporaries_bitwise(lead, heads, n, data):
    m = data.draw(st.integers(1, n), label="m")
    rng = np.random.default_rng(n * 10 + m)
    x = causal_scores(rng, lead + (heads,), m, n)
    g = rng.standard_normal(x.shape)
    with pytest.MonkeyPatch.context() as mp:  # softmax never splits, past any threshold
        counting = CountingPool()
        mp.setattr(T, "_second_core", lambda: counting)
        mp.setattr(T, "_usable_cpus", lambda: 2)
        mp.setattr(T, "SPLIT_MIN_ENTRIES", 1)
        got = softmax_and_vjp(x, g)
        inplace = x.copy()
        assert softmax_lastdim(Tensor(inplace), out=inplace).data is inplace
        counting.pool.shutdown()
    assert counting.submitted == 0
    assert got[0] == softmax_three_temporaries(x).tobytes()
    assert inplace.tobytes() == got[0]


def test_softmax_on_a_large_input_submits_nothing_and_equals_one_cpu_bitwise(pool, monkeypatch):
    # 1024 rows of 256 keys hold 2^18 entries
    rng = np.random.default_rng(71)
    x = causal_scores(rng, (4,), 256, 256).reshape(1024, 256)
    assert x.size >= T.SPLIT_MIN_ENTRIES
    g = rng.standard_normal(x.shape)
    runs = {}
    for cpus in (2, 1):
        monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
        runs[cpus] = softmax_and_vjp(x, g)
    assert pool.submitted == 0
    assert runs[2] == runs[1]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["kept", "masked"])
def test_nonfinite_score_raises_on_causal_scores(value, where):
    # NaN or +inf raises wherever it sits; -inf gets +0.0, and a row of -inf only raises
    rng = np.random.default_rng(72)
    x = causal_scores(rng, (2, 2), 40, 40)
    assert np.isfinite(x[1, 0, 5, 2]) and x[1, 0, 5, 30] == -np.inf  # query 5: key 2 kept, 30 masked
    col = 2 if where == "kept" else 30
    x[1, 0, 5, col] = value
    if value == -np.inf:
        y = softmax_lastdim(Tensor(x)).data
        assert y[1, 0, 5, col] == 0.0 and not np.signbit(y[1, 0, 5, col])
        assert y.tobytes() == softmax_three_temporaries(x).tobytes()
        x[1, 0, 5, :6] = -np.inf  # query 5 keeps keys 0-5: now a row of -inf only
    for kw in ({}, {"out": x}):
        with pytest.raises(NumericError):
            softmax_lastdim(Tensor(x), **kw)


@pytest.mark.parametrize("where", ["kept", "masked"])
def test_causal_attention_rejects_nonfinite_score_in_either_part(where):
    n = 32
    rng = np.random.default_rng(73)
    q, k, v = (rng.standard_normal((2, n, 8)) for _ in range(3))
    q[1, 20] = 1e300
    k[1, 3 if where == "kept" else 25] = 1e300  # query 20's score of this key overflows
    # masked, that +inf score plus the mask's -inf is NaN, which numpy flags as invalid
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
        causal_attention(Tensor(q), Tensor(k), Tensor(v), 2)


def test_masked_keys_change_no_earlier_row_at_huge_scores():
    # one head of width 4 with q and k near 1e16: scores near 1e32 swamp any
    # finite mask constant (at this seed a mask of -1e30 let rows 0 and 2 move)
    rng = np.random.default_rng(86)
    q, k, v = (1e16 * rng.standard_normal((8, 4)) for _ in range(3))
    out = causal_attention(Tensor(q), Tensor(k), Tensor(v), 1).data
    k[-1], v[-1] = 1e16 * rng.standard_normal((2, 4))  # only the last key and value change
    moved = causal_attention(Tensor(q), Tensor(k), Tensor(v), 1).data
    assert moved[:7].tobytes() == out[:7].tobytes()
    q, k, v = (1e16 * rng.standard_normal((40, 4)) for _ in range(3))
    assert np.isfinite(causal_attention(Tensor(q), Tensor(k), Tensor(v), 1).data).all()


def test_softmax_out_shape_is_checked():
    x = Tensor(np.zeros((3, 4)))
    with pytest.raises(ShapeError, match="out"):
        softmax_lastdim(x, out=np.zeros((3, 5)))


def test_mask_table_is_minus_inf_above_the_diagonal_and_plus_zero_elsewhere():
    for size in (1, 2, 64, 256):
        mask = T._causal_table(size)
        assert not mask.flags.writeable and mask.dtype == np.float64
        above = ~np.tri(size, dtype=bool)
        assert (mask[above] == -np.inf).all()
        assert (mask[~above] == 0.0).all()
        assert not np.signbit(mask[~above]).any()  # +0.0, as np.triu writes it


def test_causal_attention_without_grad_holds_one_scores_buffer():
    import tracemalloc

    rng = np.random.default_rng(74)
    q, k, v = (Tensor(rng.standard_normal((4, 128, 32))) for _ in range(3))
    scores_bytes = 4 * 2 * 128 * 128 * 8
    out_bytes = q.data.nbytes
    with no_grad():
        causal_attention(q, k, v, 2)  # builds the cached tables
        tracemalloc.start()
        try:
            out = causal_attention(q, k, v, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert out.shape == (4, 128, 32)
    # the scores with their probabilities in place; the rest is the context and
    # its [.., M, D] copy, or the finite check's booleans, row maxima and sums
    assert scores_bytes <= peak <= scores_bytes + 2 * out_bytes + 64 * 1024, peak


def test_desk_backward_holds_little_beyond_the_forward(monkeypatch):
    # pretrain_long's step shape, every VJP inline: records are freed as they
    # are swept and attention's dP and dS exist one block at a time, so traced
    # memory rises little past what the forward left (about 1 MB; 11 MB when
    # every record lived to the end of the sweep and dP and dS were full size)
    import tracemalloc

    monkeypatch.setattr(T, "_usable_cpus", lambda: 1)
    cfg = ModelConfig.preset("desk")
    weights = ModelWeights.initialize(cfg, seed=5)
    rng = np.random.default_rng(83)
    inputs = rng.standard_normal((16, 128, cfg.input_width))
    targets = rng.standard_normal((16, 128, cfg.output_patch_len))
    tracemalloc.start()
    try:
        loss = train_loss(forward(weights, cfg, Tensor(inputs)), targets)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert start > 20e6  # the forward's activations, which the sweep frees
    assert peak - start <= 2.5e6, (start, peak)
    assert end < 1e6 and all(p.grad is not None for _, p in weights.named())
