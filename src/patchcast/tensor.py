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
threads, which is why the active-tape pointer is thread-local. The one
exception is :func:`_in_halves`: attention and softmax work large arrays in
two halves of their leading axis, the second half on one worker thread, and
every value equals the single-call value bit for bit.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
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

# Arrays of at least this many entries are worked in two halves (_in_halves).
# One workload on each side of the line, each a 10-round in-process A/B of the
# split against the single call (2-core x86-64 VM, OPENBLAS_NUM_THREADS=1):
# evaluate_cli's largest attention calls hold 65,536 score entries and, split,
# ran at 0.84x (1 of 10 rounds faster); pretrain_long's hold 524,288 and ran
# at 1.15x (9 of 10). No call of pretrain_short (23,104 entries),
# forecast_stream (at most 131,072: one series at 256 positions) or
# evaluate_cli reaches 2^18; every attention call of pretrain_long does.
SPLIT_MIN_ENTRIES = 1 << 18

_state = threading.local()
_worker_lock = threading.Lock()
_worker = None  # the one-thread pool of _second_core


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

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

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


# -- the second core -------------------------------------------------------


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call (macOS, Windows)
        return os.cpu_count() or 1


def _second_core():
    """The one worker thread, created on first use (with its import, which
    a process that never splits does not pay)."""
    global _worker
    with _worker_lock:
        if _worker is None:
            from concurrent.futures import ThreadPoolExecutor
            _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="patchcast-half")
        return _worker


def _forget_worker() -> None:
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # a forked child has no worker thread
    os.register_at_fork(after_in_child=_forget_worker)


def _in_halves(fn: Callable[[slice], object], arr: np.ndarray) -> None:
    """Call ``fn(rows)`` so that together the calls cover the leading axis of
    ``arr`` (one row for a 1-d array): the second half on the worker thread
    and the first half inline, or one call over every row when ``arr`` holds
    fewer than SPLIT_MIN_ENTRIES entries, has fewer than 2 rows, or the
    process may use fewer than 2 CPUs. A second half the worker has not
    started by the time the first is done runs inline too, so a late worker
    (a busy or throttled CPU) costs no more than the single call.

    Each call must write only its own rows of preallocated outputs, so the
    values do not depend on the split. ``fn`` must not run a traced function
    (matmul, softmax_lastdim, layer_norm): perfbench's tracer keeps one span
    stack for all threads. The worker's half runs in a copy of the caller's
    context, so numpy's error state (``np.errstate``) applies to both halves.
    An exception from either half is raised here once neither half is
    running.
    """
    n = arr.shape[0] if arr.ndim > 1 else 1
    if arr.size < SPLIT_MIN_ENTRIES or n < 2 or _usable_cpus() < 2:
        fn(slice(None))
        return
    first, second = slice(0, (n + 1) // 2), slice((n + 1) // 2, None)
    late = _second_core().submit(contextvars.copy_context().run, fn, second)
    try:
        fn(first)
    except BaseException:
        if not late.cancel():
            late.exception()  # waits for the worker's half without raising
        raise
    if late.cancel():
        fn(second)
    else:
        late.result()


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


def relu(x) -> Tensor:
    x = _coerce(x)
    out_data = np.maximum(x.data, 0.0)
    return _op(out_data, (x,), lambda g, _: (g * (x.data > 0.0),))


# -- contractions and reductions -------------------------------------------


def matmul(a, b, bias=None) -> Tensor:
    """Matrix product with optional leading batch dimensions, plus an
    optional 1-d ``bias`` over the product's last axis (a dense layer).

    Both operands must be at least 2-d; the trailing two axes contract as
    usual and leading axes follow the suffix-broadcast rule. The bias is
    added in place in the same record, so the result equals ``matmul(a, b)
    + bias`` bit for bit. Gradients are g @ b^T and a^T @ g, summed over
    broadcast batch axes, and g summed down to the bias; a constant operand
    (an input batch) gets None.
    """
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs 2-d or higher operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} vs {b.data.shape}")
    _check_suffix_broadcast(a.data.shape[:-2], b.data.shape[:-2], "matmul(batch dims)")
    out = a.data @ b.data
    inputs = (a, b)
    if bias is not None:
        bias = _coerce(bias)
        if bias.data.shape != out.shape[-1:]:
            raise ShapeError(f"matmul bias shape {bias.data.shape} does not match "
                             f"the last axis of the product {out.shape}")
        out += bias.data
        inputs += (bias,)
    return _op(out, inputs, lambda g, live: (
        _reduce_to(g @ np.swapaxes(b.data, -1, -2), a.data.shape) if live[0] else None,
        _reduce_to(np.swapaxes(a.data, -1, -2) @ g, b.data.shape) if live[1] else None,
        *(_reduce_to(g, bias.data.shape) if need else None for need in live[2:])))


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
    run in one output buffer, in two halves of the rows for a large input
    (``_in_halves``); the input is left unchanged.
    """
    x = _coerce(x)
    if x.data.shape == () or x.data.shape[-1] < 1:
        raise ShapeError(f"softmax needs a non-empty final axis, got shape {x.data.shape}")
    y = np.empty_like(x.data)  # the one output buffer

    def rows(sl):
        xs, ys = x.data[sl], y[sl]
        if not np.isfinite(xs).all():
            raise NumericError("softmax input contains non-finite values")
        np.subtract(xs, xs.max(axis=-1, keepdims=True), out=ys)
        np.exp(ys, out=ys)
        ys /= ys.sum(axis=-1, keepdims=True)

    _in_halves(rows, x.data)

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


@functools.lru_cache(maxsize=None)
def _mask_table(size: int) -> np.ndarray:
    """Read-only size x size causal mask: MASK_VALUE above the diagonal."""
    table = np.triu(np.full((size, size), MASK_VALUE), k=1)
    table.flags.writeable = False
    return table


def causal_attention(q, k, v, num_heads: int) -> Tensor:
    """Per head of q [.., M, D] against k, v [.., N, D] with M <= N:
    softmax(Q K^T / sqrt(dh) + mask) V, as one tape op.

    The M queries sit at the last M of the N key positions, so the mask adds
    MASK_VALUE wherever a key lies after its query. It is rows [N-M, N) and
    columns [:N] of one cached table per power of two >= N, at most 512 KB
    for the desk preset's 256 positions. ``softmax_lastdim`` on a constant
    tensor gives the probabilities, so non-finite scores raise
    ``NumericError``. The VJP uses dS = P * (dP - rowsum(dP * P)), in place
    in one buffer beside dP. Each of its products keeps a fixed operand
    order and layout (dK is the swapped view of Q^T dS, not dS^T Q): another
    order rounds differently and changes the recorded loss curves. The
    score product, the context product and the VJP run in two halves of
    the leading axis for large calls (``_in_halves``), bit for bit.
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
    lead = qh.shape[:-2]
    scale = 1.0 / math.sqrt(dh)
    mask = _mask_table(1 << (n - 1).bit_length())[n - m:n, :n]
    scores = np.empty(lead + (m, n))

    def score_rows(sl):
        s = np.matmul(qh[sl], np.swapaxes(kh[sl], -1, -2), out=scores[sl])
        s *= scale
        s += mask

    _in_halves(score_rows, scores)
    probs = softmax_lastdim(Tensor(scores)).data
    out = np.empty(lead + (m, dh))
    _in_halves(lambda sl: np.matmul(probs[sl], vh[sl], out=out[sl]), probs)

    def vjp(g, live):
        dctx = g.reshape(split).transpose(heads)
        dq = np.empty(lead + (m, dh)) if live[0] else None
        dkt = np.empty(lead + (dh, n)) if live[1] else None  # Q^T dS; dK is its swapped view
        dv = np.empty(lead + (n, dh)) if live[2] else None

        def grad_rows(sl):
            p = probs[sl]
            if dq is not None or dkt is not None:
                dp = dctx[sl] @ np.swapaxes(vh[sl], -1, -2)
                ds = dp * p
                rowsum = ds.sum(axis=-1, keepdims=True)
                np.subtract(dp, rowsum, out=ds)
                ds *= p
                ds *= scale
                if dq is not None:
                    np.matmul(ds, kh[sl], out=dq[sl])
                if dkt is not None:
                    np.matmul(np.swapaxes(qh[sl], -1, -2), ds, out=dkt[sl])
            if dv is not None:
                np.matmul(np.swapaxes(p, -1, -2), dctx[sl], out=dv[sl])

        _in_halves(grad_rows, probs)
        dk = None if dkt is None else np.swapaxes(dkt, -1, -2)
        return tuple(None if d is None else d.transpose(heads).reshape(s)
                     for d, s in zip((dq, dk, dv), (shape, kv_shape, kv_shape)))

    return _op(out.transpose(heads).reshape(shape), (q, k, v), vjp)
