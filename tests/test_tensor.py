import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchcast import tensor as T
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
    no_grad,
    relu,
    softmax_lastdim,
    sum_exact,
)


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
        ("neg", lambda a: -a, [RNG.standard_normal((2, 5))]),
        ("relu", relu, [shifted((6, 6))]),
        ("matmul_2d", matmul, [RNG.standard_normal((5, 4)), RNG.standard_normal((4, 7))]),
        ("matmul_batched", matmul, [RNG.standard_normal((3, 5, 4)), RNG.standard_normal((4, 6))]),
        ("matmul_3d3d", matmul, [RNG.standard_normal((2, 4, 3)), RNG.standard_normal((2, 3, 5))]),
        # constant operands: each live operand still gets its gradient
        ("mul_constant", lambda a: a * Tensor(np.arange(5.0)), [RNG.standard_normal((4, 5))]),
        ("matmul_constant_left", lambda a: Tensor(np.ones((3, 4))) @ a, [RNG.standard_normal((4, 5))]),
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
        ("composite", lambda a, b: relu(matmul(a, b)) + a @ b,
         [shifted((4, 4)), shifted((4, 4))]),
        ("attention_unbatched", lambda q, k, v: causal_attention(q, k, v, 2),
         [RNG.standard_normal((5, 8)) for _ in range(3)]),
        ("attention_offset", lambda q, k, v: causal_attention(q, k, v, 2),
         [RNG.standard_normal((2, 3, 8))] + [RNG.standard_normal((2, 5, 8)) for _ in range(2)]),
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
    mask = np.where(np.arange(n)[None, :] > np.arange(n - m, n)[:, None], T.MASK_VALUE, 0.0)
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
    scores += np.triu(np.full((n, n), T.MASK_VALUE), k=1)[n - m:]
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
    return active_tape().records[-1].vjp(g)


def softmax_rows(kind):
    rng = np.random.default_rng(31)
    if kind == "random":
        return rng.standard_normal((3, 4, 17))
    if kind == "masked":
        return rng.standard_normal((2, 9, 9)) + np.triu(np.full((9, 9), T.MASK_VALUE), k=1)
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


def test_causal_attention_rejects_infinite_score():
    # finite inputs whose product overflows: the score, not the input, is inf
    big = np.full((4, 8), 1e300)
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        causal_attention(Tensor(big), Tensor(big), Tensor(np.ones((4, 8))), 2)


def test_matmul_vjp_skips_constant_operand():
    x = Tensor(np.ones((3, 5, 4)))  # an input batch: no grad, not from the tape
    w = Tensor(np.ones((4, 6)), requires_grad=True)
    x @ w
    gx, gw = last_record_vjp(np.ones((3, 5, 6)))
    assert gx is None
    assert gw.shape == (4, 6)


def attention2(q, k, v):
    return causal_attention(q, k, v, 2)


@pytest.mark.parametrize("op,shapes,live", [
    (T.add, [(3, 4), (4,)], (False, True)),
    (T.mul, [(3, 4), (3, 4)], (True, False)),
    (matmul, [(3, 4), (4, 5)], (True, False)),
    (layer_norm, [(3, 4), (4,), (4,)], (False, True, True)),
    (layer_norm, [(3, 4), (4,), (4,)], (True, False, False)),
    (attention2, [(2, 5, 8)] * 3, (False, True, True)),
    (attention2, [(2, 5, 8)] * 3, (True, False, False)),
], ids=["add", "mul", "matmul_right", "layer_norm_x", "layer_norm_affine",
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
