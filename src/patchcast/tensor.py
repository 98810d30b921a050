"""Minimal dense-tensor autodiff engine.

Float64 numpy arrays wrapped in :class:`Tensor`, with reverse-mode
differentiation driven by an explicit :class:`Tape`. Every operation that
touches a gradient-requiring tensor appends one record (inputs, output, vjp
closure) to the active tape through :func:`_op`; ``backward`` replays the
records in reverse order exactly once and accumulates gradients into the
leaves.

Broadcasting is deliberately restricted: two operands must have identical
shapes, or one must be a scalar, or the smaller shape must be a trailing
suffix of the larger (leading batch dimensions). Anything fancier raises
``ShapeError`` so that every backward rule stays auditable.

Ops are single-threaded per tape; independent tapes may live on separate
threads, which is why the active-tape pointer is thread-local.
"""

from __future__ import annotations

import math
import threading
from typing import Callable

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


class NumericError(ArithmeticError):
    """Non-finite values where an op requires finite input."""


class TapeError(RuntimeError):
    """Backward called in a state the tape cannot honor."""


LAYER_NORM_EPS = 1e-6
MASK_VALUE = -1e30  # additive causal mask; finite, so softmax_lastdim accepts it

_state = threading.local()


def _tls():
    if not hasattr(_state, "tape"):
        _state.tape = Tape()
        _state.grad_enabled = True
    return _state


def active_tape() -> "Tape":
    """The tape new gradient-requiring ops record onto (one per thread)."""
    return _tls().tape


def grad_enabled() -> bool:
    return _tls().grad_enabled


class no_grad:
    """Context manager that suspends tape recording.

    Forward passes made inside the block produce constant tensors
    (requires_grad False) and leave the tape untouched.
    """

    def __enter__(self):
        tls = _tls()
        self._prev = tls.grad_enabled
        tls.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _tls().grad_enabled = self._prev
        return False


class Tensor:
    """A dense float64 array plus gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad", "_produced")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._produced = False  # True once an op on the tape emitted this tensor

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def backward(self) -> None:
        """Run reverse-mode accumulation from this (scalar) tensor.

        Consumes the active tape: records are visited exactly once in
        reverse recording order and the tape is cleared afterwards, so a
        second backward needs a fresh forward pass.
        """
        active_tape().backward(self)

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return mul(self, 1.0 / float(other))
        raise TypeError("tensor division is only supported by python scalars")

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class _Record:
    __slots__ = ("out", "inputs", "vjp")

    def __init__(self, out: Tensor, inputs: tuple[Tensor, ...], vjp: Callable):
        self.out = out
        self.inputs = inputs
        self.vjp = vjp


class Tape:
    """Ordered log of differentiable ops for one reverse sweep."""

    def __init__(self):
        self.records: list[_Record] = []

    def __len__(self) -> int:
        return len(self.records)

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], vjp: Callable) -> None:
        out._produced = True
        self.records.append(_Record(out, inputs, vjp))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) for every requires_grad leaf on the tape.

        ``loss`` must be a scalar (size-1) tensor. Gradients of ops whose
        output never received a gradient are skipped as zero. The tape is
        cleared on completion (and on error), so it is single-use.
        """
        if loss.data.size != 1:
            raise TapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if not self.records:
            raise TapeError("backward on an empty tape: no ops were recorded")
        try:
            flow: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
            for rec in reversed(self.records):
                g = flow.pop(id(rec.out), None)
                if g is None:
                    continue
                for t, gt in zip(rec.inputs, rec.vjp(g)):
                    if gt is None:
                        continue
                    if t._produced:
                        acc = flow.get(id(t))
                        flow[id(t)] = gt if acc is None else acc + gt
                    else:
                        t.grad = gt.copy() if t.grad is None else t.grad + gt
        finally:
            self.records.clear()


# -- shape plumbing --------------------------------------------------------


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _check_suffix_broadcast(sa: tuple[int, ...], sb: tuple[int, ...], opname: str) -> None:
    if sa == sb:
        return
    if sa == () or sb == ():
        return
    small, big = (sa, sb) if len(sa) <= len(sb) else (sb, sa)
    if len(small) < len(big) and big[len(big) - len(small):] == small:
        return
    raise ShapeError(f"{opname}: shapes {sa} and {sb} are neither equal, scalar, nor a trailing suffix")


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    return g.sum(axis=tuple(range(extra))) if extra else g.reshape(shape)


def _op(out_data: np.ndarray, inputs: tuple[Tensor, ...],
        vjp: Callable[[np.ndarray, tuple[bool, ...]], tuple]) -> Tensor:
    """Wrap an op's output, recording it on the active tape when gradients
    are on and some input is live: it requires grad or came from the tape.

    ``vjp(g, live)`` returns one gradient per input and None for each input
    that is not live (a constant such as an input batch or a positional
    table), so no gradient is computed only to be dropped.
    """
    out = Tensor(out_data)
    if grad_enabled():
        live = tuple(t.requires_grad or t._produced for t in inputs)
        if any(live):
            out.requires_grad = True
            active_tape().record(out, inputs, lambda g: vjp(g, live))
    return out


def _binary(a, b, opname: str, fwd, vjp_a, vjp_b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _check_suffix_broadcast(a.data.shape, b.data.shape, opname)
    return _op(fwd(a.data, b.data), (a, b), lambda g, live: tuple(
        _reduce_to(f(g, a.data, b.data), t.data.shape) if need else None
        for t, f, need in zip((a, b), (vjp_a, vjp_b), live)))


# -- elementwise ops -------------------------------------------------------


def add(a, b) -> Tensor:
    return _binary(a, b, "add", lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, "sub", lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, "mul", lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def neg(x) -> Tensor:
    x = _coerce(x)
    return _op(-x.data, (x,), lambda g, _: (-g,))


def relu(x) -> Tensor:
    x = _coerce(x)
    out_data = np.maximum(x.data, 0.0)
    return _op(out_data, (x,), lambda g, _: (g * (x.data > 0.0),))


# -- contractions and reductions -------------------------------------------


def matmul(a, b) -> Tensor:
    """Matrix product with optional leading batch dimensions.

    Both operands must be at least 2-d; the trailing two axes contract as
    usual and leading axes follow the suffix-broadcast rule. Gradients are
    g @ b^T and a^T @ g, summed over broadcast batch axes; a constant
    operand (an input batch) gets None.
    """
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs 2-d or higher operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} vs {b.data.shape}")
    _check_suffix_broadcast(a.data.shape[:-2], b.data.shape[:-2], "matmul(batch dims)")
    return _op(a.data @ b.data, (a, b), lambda g, live: (
        _reduce_to(g @ np.swapaxes(b.data, -1, -2), a.data.shape) if live[0] else None,
        _reduce_to(np.swapaxes(a.data, -1, -2) @ g, b.data.shape) if live[1] else None))


def sum_exact(x) -> Tensor:
    """Full reduction to a scalar using exactly rounded summation.

    math.fsum makes the result independent of element order, so losses
    reduced through this op are bit-identical under batch permutation.
    """
    x = _coerce(x)
    out_data = np.asarray(math.fsum(x.data.ravel().tolist()))
    return _op(out_data, (x,), lambda g, _: (np.full(x.data.shape, float(g)),))


# -- normalized nonlinearities ----------------------------------------------


def softmax_lastdim(x) -> Tensor:
    """Row-stabilized softmax over the final axis.

    Stable for entries up to +-1e4 via max subtraction. Raises
    ``NumericError`` on non-finite input (an additive mask must therefore
    use a large finite constant, not -inf). The shift, exp and division all
    run in one output buffer; the input is left unchanged.
    """
    x = _coerce(x)
    if x.data.shape == () or x.data.shape[-1] < 1:
        raise ShapeError(f"softmax needs a non-empty final axis, got shape {x.data.shape}")
    if not np.isfinite(x.data).all():
        raise NumericError("softmax input contains non-finite values")
    y = x.data - x.data.max(axis=-1, keepdims=True)  # the one output buffer
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def vjp(g, _):
        gx = g * y
        dot = gx.sum(axis=-1, keepdims=True)
        np.subtract(g, dot, out=gx)
        gx *= y
        return (gx,)

    return _op(y, (x,), vjp)


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the final axis to zero mean, unit variance, then affine.

    Population variance with epsilon 1e-6 inside the square root. ``gain``
    and ``bias`` are 1-d and must match the final axis of ``x``.
    """
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    d = x.data.shape[-1] if x.data.ndim else 0
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.data.shape}/{bias.data.shape} do not match final axis of {x.data.shape}")
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (centered ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv

    def vjp(g, live):
        dx = None
        if live[0]:
            dxhat = g * gain.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            dx = inv * (dxhat - m1 - xhat * m2)
        reduce_axes = tuple(range(g.ndim - 1))  # () for one row: sum(axis=()) copies
        return (dx, (g * xhat).sum(axis=reduce_axes) if live[1] else None,
                g.sum(axis=reduce_axes) if live[2] else None)

    return _op(xhat * gain.data + bias.data, (x, gain, bias), vjp)


def causal_attention(q, k, v, num_heads: int) -> Tensor:
    """Per head of q [.., M, D] against k, v [.., N, D] with M <= N:
    softmax(Q K^T / sqrt(dh) + mask) V, as one tape op.

    The M queries sit at the last M of the N key positions, so the mask adds
    MASK_VALUE wherever a key lies after its query; the mask is built at
    M x N on each call (a per-N cache costs more resident memory than it
    saves). ``softmax_lastdim`` on a constant tensor gives the
    probabilities, so non-finite scores raise ``NumericError``. The VJP uses
    dS = P * (dP - rowsum(dP * P)), in place in one buffer beside dP. Each of
    its products keeps a fixed operand order (dK = (Q^T dS)^T, not dS^T Q):
    another order rounds differently and changes the recorded loss curves.
    """
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    shape, kv_shape = q.data.shape, k.data.shape
    if (len(shape) < 2 or v.data.shape != kv_shape or len(kv_shape) != len(shape)
            or shape[:-2] != kv_shape[:-2] or shape[-1] != kv_shape[-1]
            or shape[-2] > kv_shape[-2] or num_heads < 1 or shape[-1] % num_heads):
        raise ShapeError(f"causal_attention needs q [.., M, D] and k, v [.., N, D] with M <= N and "
                         f"D divisible by {num_heads} heads, got {shape}, {kv_shape}, {v.data.shape}")
    m, n, dh = shape[-2], kv_shape[-2], shape[-1] // num_heads
    nb = len(shape) - 2
    heads = tuple(range(nb)) + (nb + 1, nb, nb + 2)  # [.., N, H, dh] <-> [.., H, N, dh]
    split, kv_split = (s[:-1] + (num_heads, dh) for s in (shape, kv_shape))
    qh = q.data.reshape(split).transpose(heads)
    kh, vh = (t.data.reshape(kv_split).transpose(heads) for t in (k, v))
    scale = 1.0 / math.sqrt(dh)
    scores = qh @ np.swapaxes(kh, -1, -2)
    scores *= scale
    scores += np.triu(np.full((m, n), MASK_VALUE), k=n - m + 1)
    probs = softmax_lastdim(Tensor(scores)).data

    def vjp(g, live):
        dctx = g.reshape(split).transpose(heads)
        dq = dk = None
        if live[0] or live[1]:
            dp = dctx @ np.swapaxes(vh, -1, -2)
            ds = dp * probs
            rowsum = ds.sum(axis=-1, keepdims=True)
            np.subtract(dp, rowsum, out=ds)
            ds *= probs
            ds *= scale
            dq = ds @ kh if live[0] else None
            dk = np.swapaxes(np.swapaxes(qh, -1, -2) @ ds, -1, -2) if live[1] else None
        dv = np.swapaxes(probs, -1, -2) @ dctx if live[2] else None
        return tuple(None if d is None else d.transpose(heads).reshape(s)
                     for d, s in zip((dq, dk, dv), (shape, kv_shape, kv_shape)))

    return _op((probs @ vh).transpose(heads).reshape(shape), (q, k, v), vjp)
