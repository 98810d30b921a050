"""Minimal dense-tensor autodiff engine.

Float64 numpy arrays wrapped in :class:`Tensor`, with reverse-mode
differentiation driven by an explicit :class:`Tape`. Every operation that
touches a gradient-requiring tensor appends one record (inputs, output, vjp
closure) to the active tape through :func:`_op`; ``backward`` replays the
records in reverse order exactly once and accumulates gradients into the
leaves.

Every op takes Tensors, float64 arrays or anything ``np.asarray`` reads as
operands; an operand that is not a Tensor is a constant. Under
:class:`no_grad` an op runs the same checks and arithmetic on its operands'
arrays, builds no VJP, records nothing, and returns a bare constant Tensor
whose ``data`` is the result, so a caller such as ``model.forward`` can
carry plain arrays from op to op (``as_array``) at little per-op cost.

Broadcasting is deliberately restricted: two operands must have identical
shapes, or one must be a scalar, or the smaller shape must be a trailing
suffix of the larger (leading batch dimensions). Anything fancier raises
``ShapeError`` so that every backward rule stays auditable.

Each tape records and sweeps on the thread that owns it; independent tapes
may live on separate threads, which is why the active-tape pointer is
thread-local. A process that may use 2 CPUs hands work to one worker
thread, and every value equals the one-thread value bit for bit:
:func:`on_two_threads` lets the caller and the worker take turns at an
ordered list of independent parts (``inference.forecast`` passes a stack's
chunks); :func:`_in_halves`, its two-part case, runs a large attention
call's forward and its VJP each in two halves of the leading axis; and
``Tape.backward`` computes the leaf (parameter) gradients of records with a
large upstream gradient there while it goes on along the input-gradient chain.
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

# Attention calls of at least this many score entries run in two halves (_in_halves).
# One workload on each side of the line, each a 10-round in-process A/B of the
# split against the single call (2-core x86-64 VM, OPENBLAS_NUM_THREADS=1):
# evaluate_cli's attention calls, then of 65,536 score entries, split ran at
# 0.84x (1 of 10 rounds faster); pretrain_long's hold 524,288 and ran at 1.15x
# (9 of 10). No call of pretrain_short (23,104 entries), forecast_stream (at
# most 131,072: one series at 256 positions) or evaluate_cli (at most 131,072:
# four windows of 128 tokens, under inference.SCORES_BUDGET) reaches 2^18;
# every attention call of pretrain_long does.
SPLIT_MIN_ENTRIES = 1 << 18

# A record whose upstream gradient holds at least this many entries computes
# its leaf (parameter) gradients on the worker thread while the sweep goes on
# (Tape.backward). A 10-round in-process A/B of whole train() passes against
# every record inline (2-core x86-64 VM, OPENBLAS_NUM_THREADS=1):
# pretrain_long's [16, 128, 32] gradients (65,536 entries) on the worker ran
# at 1.11x (10 of 10 rounds faster); forcing pretrain_short's [32, 19, 32]
# ones (19,456) onto it ran at 0.96x (0 of 10), where the hand-off costs more
# than the overlap saves.
LEAF_TASK_MIN_ENTRIES = 1 << 15

# causal_attention's VJP works the rows of each half of its leading axis in
# blocks of at most this many bytes of [.., H, M, N] (one row at least), so
# its dP and dS never exist at full size. It is one pretrain_long window: 2
# heads of 128 x 128 scores. On a [16, 128]-token desk step with every VJP
# inline, these blocks with records freed as they are swept (Tape.backward)
# cut backward's rise in traced memory above the forward's 28.0 MB from 11.2
# to 1.05 MB; 10 pairs of 25-s pretrain_long runs (2-core x86-64 VM,
# OPENBLAS_NUM_THREADS=1) read peak RSS 86.0 -> 73.9 MB at 1.06x the
# throughput. pretrain_short's calls (32 windows of 2 x 19 x 19) are one block.
ATTENTION_VJP_BLOCK_BYTES = 1 << 18

_FLOAT64 = np.dtype(np.float64)
_worker_lock = threading.Lock()
_worker = None  # the one-thread pool of _second_core


class _ThreadState(threading.local):
    """Each thread's tape and grad mode, set up on the thread's first access."""

    def __init__(self):
        self.tape = Tape()
        self.grad_enabled = True


def active_tape() -> "Tape":
    """The tape new gradient-requiring ops record onto (one per thread)."""
    return _state.tape


def grad_enabled() -> bool:
    return _state.grad_enabled


class no_grad:
    """Context manager that suspends tape recording.

    Forward passes made inside the block produce constant tensors
    (requires_grad False) and leave the tape untouched.
    """

    def __enter__(self):
        self._prev = _state.grad_enabled
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


class Tensor:
    """A dense float64 array plus gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad", "_produced")

    def __init__(self, data, requires_grad: bool = False):
        # a float64 ndarray, such as every op's output, is kept without a call
        self.data = (data if type(data) is np.ndarray and data.dtype is _FLOAT64
                     else np.asarray(data, dtype=np.float64))
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
    __slots__ = ("out", "inputs", "vjp", "live")

    def __init__(self, out: Tensor, inputs: tuple, vjp: Callable, live: tuple[bool, ...]):
        self.out = out
        self.inputs = inputs
        self.vjp = vjp
        self.live = live


class Tape:
    """Ordered log of differentiable ops for one reverse sweep."""

    def __init__(self):
        self.records: list[_Record] = []

    def __len__(self) -> int:
        return len(self.records)

    def record(self, out: Tensor, inputs: tuple, vjp: Callable, live: tuple[bool, ...]) -> None:
        out._produced = True
        self.records.append(_Record(out, inputs, vjp, live))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) for every requires_grad leaf on the tape.

        ``loss`` must be a scalar (size-1) tensor. Gradients of ops whose
        output never received a gradient are skipped as zero. Each record is
        popped off the tape as it is swept, so its VJP closure, the arrays
        it saved and its output are freed once its gradient has moved on, and
        the activations a sweep holds shrink as it goes. The tape is empty on
        completion (and cleared on error), so it is single-use.

        The sweep follows the input-gradient chain on this thread. No VJP
        reads a leaf's gradient, so a record whose upstream gradient holds at
        least LEAF_TASK_MIN_ENTRIES entries, in a process that may use 2
        CPUs, computes the gradients of its live leaf inputs on the worker
        thread, in a copy of the caller's context (so ``np.errstate``
        applies), while this thread computes those of its produced inputs
        and goes on. The leaves receive their gradients after the sweep, in
        record order, with the same copy or sum as inline. If anything
        raises, no leaf gradient is written and the error propagates once no
        worker task of this sweep is running.
        """
        if loss.data.size != 1:
            raise TapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if not self.records:
            raise TapeError("backward on an empty tape: no ops were recorded")
        # (leaf, gradient), or (a record's inputs with None for each one not
        # sent aside, the worker task computing the gradients of the others),
        # in sweep order
        leaves: list[tuple[object, object]] = []
        records = self.records
        try:
            flow: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
            while records:
                rec = records.pop()
                g = flow.pop(id(rec.out), None)
                if g is None:
                    continue
                live = rec.live
                if g.size >= LEAF_TASK_MIN_ENTRIES and _usable_cpus() >= 2:
                    aside = tuple(need and not t._produced for t, need in zip(rec.inputs, live))
                    if any(aside):
                        task = _second_core().submit(contextvars.copy_context().run, rec.vjp, g, aside)
                        leaves.append((tuple(t if a else None for t, a in zip(rec.inputs, aside)), task))
                        live = tuple(need and t._produced for t, need in zip(rec.inputs, live))
                        if not any(live):
                            continue
                for t, gt in zip(rec.inputs, rec.vjp(g, live)):
                    if gt is None:
                        continue
                    if not t._produced:
                        leaves.append((t, gt))
                        continue
                    acc = flow.get(id(t))
                    flow[id(t)] = gt if acc is None else acc + gt
            grads = []
            for t, gt in leaves:
                if type(t) is tuple:
                    grads.extend((x, gx) for x, gx in zip(t, gt.result()) if gx is not None)
                else:
                    grads.append((t, gt))
        except BaseException:
            for t, gt in leaves:
                if type(t) is tuple:
                    _settle(gt)
            raise
        finally:
            self.records.clear()
        for t, gt in grads:
            t.grad = gt.copy() if t.grad is None else t.grad + gt


_state = _ThreadState()


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


def _settle(task) -> None:
    """Cancel a worker task that has not started, or wait until it ends
    without raising what it raised."""
    if not task.cancel():
        task.exception()


def on_two_threads(fn: Callable[[object], object], parts: list) -> None:
    """Call ``fn(part)`` once for each part of ``parts``: the caller's thread
    and one worker task each take the next part not yet taken, in list order,
    and the caller takes the first part before the worker can. With fewer
    than 2 parts, or in a process that may use fewer than 2 CPUs, the caller
    runs them in order and nothing is submitted.

    Once a call raises, neither thread starts another part. The exception of
    the lowest-index part that raised, which is the one the in-order loop
    would raise, is raised here once no part is running. A worker task that
    has not started when the caller runs out of parts is cancelled, never
    waited on: the caller has taken its parts. So a part running on the
    worker may call this function again (a chunk of a stack reaching
    ``_in_halves``), where waiting on a task queued behind the running one
    would deadlock the one-thread pool. The worker's task runs in a copy of
    the caller's context, so numpy's error state (``np.errstate``) holds on
    both threads.

    Each call must write only its own part of preallocated outputs, so the
    values do not depend on which thread ran it. perfbench's tracer keeps
    one span stack for all threads: where ``fn`` runs traced functions, as
    ``inference.forecast``'s chunks run ``model.forward`` and
    ``tensor.matmul``, each per-layer ``_ms`` reading is the sum of both
    threads' time in that function.
    """
    if len(parts) < 2 or _usable_cpus() < 2:
        for part in parts:
            fn(part)
        return
    lock, failed = threading.Lock(), []  # (index, exception) of each part that raised
    untaken = iter(range(1, len(parts)))  # the caller holds part 0

    def take():
        with lock:
            return None if failed else next(untaken, None)

    def run(i):  # part i (None: the next untaken one), then each next untaken part
        if i is None:
            i = take()
        while i is not None:
            try:
                fn(parts[i])
            except BaseException as exc:
                with lock:
                    failed.append((i, exc))
                return
            i = take()

    task = _second_core().submit(contextvars.copy_context().run, run, None)
    run(0)
    if not task.cancel():
        task.result()
    if failed:
        raise min(failed)[1]  # indices differ, so no exceptions are compared


def _in_halves(fn: Callable[[slice], object], arr: np.ndarray) -> None:
    """Call ``fn(rows)`` so that together the calls cover the leading axis of
    ``arr``, an attention call's [.., H, M, N] scores: ``on_two_threads``
    over its two halves, the caller taking the first, or one call over every
    row when ``arr`` holds fewer than SPLIT_MIN_ENTRIES entries, has fewer
    than 2 rows, or the process may use fewer than 2 CPUs. A second half the
    worker has not started by the time the first is done runs on the caller
    too, so a late worker (a busy or throttled CPU) costs no more than the
    single call.

    Each call must write only its own rows of preallocated outputs, so the
    values do not depend on the split. The forward's ``fn`` runs
    ``softmax_lastdim`` on its half's scores, so where a call splits (every
    attention call of pretrain_long) perfbench's ``tensor.softmax_ms``, like
    every per-layer reading of a decoded stack, is the sum of both threads'
    time in it (see ``on_two_threads``).
    """
    if arr.size < SPLIT_MIN_ENTRIES or (n := arr.shape[0]) < 2 or _usable_cpus() < 2:
        fn(slice(None))
        return
    on_two_threads(fn, [slice(0, (n + 1) // 2), slice((n + 1) // 2, None)])


# -- shape plumbing --------------------------------------------------------


def as_array(x) -> np.ndarray:
    """The float64 array of an operand: a Tensor's data, a float64 array
    itself, or anything else converted."""
    if isinstance(x, Tensor):
        return x.data
    if type(x) is np.ndarray and x.dtype is _FLOAT64:
        return x
    return np.asarray(x, dtype=np.float64)


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


def _op(out_data: np.ndarray, inputs: tuple, vjp: Callable[[np.ndarray, tuple[bool, ...]], tuple]
        ) -> Tensor:
    """Wrap an op's output computed while gradients are on, recording it on
    the active tape when some input is live: a Tensor that requires grad or
    came from the tape. Ops return ``Tensor(out_data)`` themselves under
    no_grad, before building ``vjp``.

    ``vjp(g, need)`` returns a tuple of one gradient per input, None for each
    input that ``need`` marks False. ``Tape.backward`` passes the record's
    live mask, or a part of it when it computes the leaf gradients on the
    worker thread (see there), so no gradient is computed only to be
    dropped. ``vjp`` must not run a traced function (matmul, softmax_lastdim,
    layer_norm): ``backward_ms`` holds its time, and on the worker the tracer's
    one span stack for all threads would add it to the caller's too.
    """
    out = Tensor(out_data)
    live = tuple(isinstance(t, Tensor) and (t.requires_grad or t._produced) for t in inputs)
    if any(live):
        out.requires_grad = True
        _state.tape.record(out, inputs, vjp, live)
    return out


def _binary(a, b, opname: str, ufunc, vjp_a, vjp_b) -> Tensor:
    x, y = as_array(a), as_array(b)
    _check_suffix_broadcast(x.shape, y.shape, opname)
    out = ufunc(x, y)
    if not _state.grad_enabled:
        return Tensor(out)
    return _op(out, (a, b), lambda g, live: tuple(
        _reduce_to(f(g, x, y), t.shape) if need else None
        for t, f, need in zip((x, y), (vjp_a, vjp_b), live)))


# -- elementwise ops -------------------------------------------------------


def add(a, b) -> Tensor:
    return _binary(a, b, "add", np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, "sub", np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, "mul", np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)


def relu(x) -> Tensor:
    xd = as_array(x)
    out = np.maximum(xd, 0.0)
    if not _state.grad_enabled:
        return Tensor(out)
    return _op(out, (x,), lambda g, _: (g * (xd > 0.0),))


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
    ad, bd = as_array(a), as_array(b)
    sa, sb = ad.shape, bd.shape
    if len(sa) < 2 or len(sb) < 2:
        raise ShapeError(f"matmul needs 2-d or higher operands, got {sa} and {sb}")
    if sa[-1] != sb[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {sa} vs {sb}")
    if len(sb) > 2:  # a 2-d weight has no batch axes to check
        _check_suffix_broadcast(sa[:-2], sb[:-2], "matmul(batch dims)")
    out = ad @ bd
    if bias is not None:
        biasd = as_array(bias)
        if biasd.shape != sb[-1:]:  # the product's last axis
            raise ShapeError(f"matmul bias shape {biasd.shape} does not match "
                             f"the last axis of the product {out.shape}")
        out += biasd
    if not _state.grad_enabled:
        return Tensor(out)
    return _op(out, (a, b) if bias is None else (a, b, bias), lambda g, live: (
        _reduce_to(g @ np.swapaxes(bd, -1, -2), sa) if live[0] else None,
        _reduce_to(np.swapaxes(ad, -1, -2) @ g, sb) if live[1] else None,
        *(_reduce_to(g, biasd.shape) if need else None for need in live[2:])))


def sum_exact(x) -> Tensor:
    """Full reduction to a scalar using exactly rounded summation.

    math.fsum makes the result independent of element order, so losses
    reduced through this op are bit-identical under batch permutation.
    """
    xd = as_array(x)
    out = np.asarray(math.fsum(xd.ravel().tolist()))
    if not _state.grad_enabled:
        return Tensor(out)
    return _op(out, (x,), lambda g, _: (np.full(xd.shape, float(g)),))


# -- normalized nonlinearities ----------------------------------------------


def softmax_lastdim(x, out=None) -> Tensor:
    """Row-stabilized softmax over the final axis.

    Stable for entries up to +-1e4 via max subtraction. Raises
    ``NumericError`` unless every row's max is finite: a NaN or +inf
    anywhere, or a row of -inf only. A -inf entry, such as one under an
    additive causal mask, gets probability exactly +0.0. The shift, exp and
    division all run on the calling thread in one output buffer: a new
    array, or ``out`` (x's shape), which may be x's own array; only then is
    the input overwritten.
    """
    xd = as_array(x)
    shape = xd.shape
    if shape == () or shape[-1] < 1:
        raise ShapeError(f"softmax needs a non-empty final axis, got shape {shape}")
    if out is not None and (out.shape != shape or out.dtype != _FLOAT64):
        raise ShapeError(f"softmax out must be float64 of shape {shape}, got {out.dtype} {out.shape}")
    top = xd.max(axis=-1, keepdims=True)  # NaN wherever its row holds one
    if not np.isfinite(top).all():
        raise NumericError("softmax input contains non-finite values")
    y = np.empty_like(xd) if out is None else out
    np.subtract(xd, top, out=y)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    if not _state.grad_enabled:
        return Tensor(y)

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
    xd, gd, bd = as_array(x), as_array(gain), as_array(bias)
    d = xd.shape[-1] if xd.ndim else 0
    if gd.shape != (d,) or bd.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gd.shape}/{bd.shape} do not match final axis of {xd.shape}")
    # np.add.reduce / d is what ndarray.mean computes, bit for bit, less its dispatch
    centered = xd - np.add.reduce(xd, axis=-1, keepdims=True) / d
    var = np.add.reduce(centered ** 2, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv
    out = xhat * gd + bd
    if not _state.grad_enabled:
        return Tensor(out)

    def vjp(g, live):
        dx = None
        if live[0]:
            # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) in two
            # buffers, with the same operations in the same order
            dx = g * gd
            prod = dx * xhat
            m1 = np.add.reduce(dx, axis=-1, keepdims=True) / d
            m2 = np.add.reduce(prod, axis=-1, keepdims=True) / d
            dx -= m1
            np.multiply(xhat, m2, out=prod)
            dx -= prod
            dx *= inv
        reduce_axes = tuple(range(g.ndim - 1))  # () for one row: sum(axis=()) copies
        return (dx, (g * xhat).sum(axis=reduce_axes) if live[1] else None,
                g.sum(axis=reduce_axes) if live[2] else None)

    return _op(out, (x, gain, bias), vjp)


@functools.lru_cache(maxsize=None)
def _causal_table(size: int) -> np.ndarray:
    """The read-only size x size additive causal mask: -inf above the diagonal, +0.0 elsewhere."""
    mask = np.where(np.tri(size, dtype=bool), 0.0, -np.inf)
    mask.flags.writeable = False
    return mask


@functools.lru_cache(maxsize=1024)
def _attention_plan(shape: tuple, kv_shape: tuple, v_shape: tuple, num_heads: int) -> tuple:
    """The shape checks and the shape-only constants of a causal_attention
    call, worked out once per distinct shape: (M, N, the head width, the head
    transpose, the head splits of q and of k and v, the scores' leading
    shape, the score scale, the mask rows). Shapes repeat: every layer of a
    forward sees the same ones, and forecasts of equal context length and
    horizon walk the same key counts round by round."""
    if (len(shape) < 2 or v_shape != kv_shape or len(kv_shape) != len(shape)
            or shape[:-2] != kv_shape[:-2] or shape[-1] != kv_shape[-1]
            or shape[-2] > kv_shape[-2] or num_heads < 1 or shape[-1] % num_heads):
        raise ShapeError(f"causal_attention needs q [.., M, D] and k, v [.., N, D] with M <= N and "
                         f"D divisible by {num_heads} heads, got {shape}, {kv_shape}, {v_shape}")
    m, n, dh = shape[-2], kv_shape[-2], shape[-1] // num_heads
    nb = len(shape) - 2
    heads = (*range(nb), nb + 1, nb, nb + 2)  # [.., N, H, dh] <-> [.., H, N, dh]
    split, kv_split = (*shape[:-1], num_heads, dh), (*kv_shape[:-1], num_heads, dh)
    mask = _causal_table(1 << (n - 1).bit_length())
    return (m, n, dh, heads, split, kv_split, (*shape[:-2], num_heads), 1.0 / math.sqrt(dh),
            mask[n - m:n, :n])


def causal_attention(q, k, v, num_heads: int) -> Tensor:
    """Per head of q [.., M, D] against k, v [.., N, D] with M <= N:
    softmax(Q K^T / sqrt(dh) + mask) V, as one tape op.

    The M queries sit at the last M of the N key positions, so the mask adds
    -inf wherever a key lies after its query, and such a key gets weight
    exactly 0 for any finite score. It is rows [N-M, N) and columns [:N] of
    one cached table per power of two >= N (``_causal_table``), at most
    512 KB for the desk preset's 256 positions. ``softmax_lastdim`` on a
    bare array writes the probabilities over the scores in their own
    buffer, so the call holds one [.., H, M, N] array. A NaN or +inf score
    raises ``NumericError``, in a masked slot too: +inf plus the mask's -inf
    is NaN, which numpy also flags as an invalid value. A -inf score, which
    only an overflowing product gives, gets weight 0, the softmax's limit,
    as does every masked key: exp(-inf) is +0.0. The VJP uses
    dS = P * (dP - rowsum(dP * P)), in place in one buffer beside dP. Each
    of its products keeps a fixed operand order and layout (dK is the
    swapped view of Q^T dS, not dS^T Q): another order rounds differently
    and changes the recorded loss curves. A large call runs in
    two halves of the leading axis (``_in_halves``): once in the forward,
    each half's score product, softmax and context product back to back on
    one thread, and once in the VJP, which works each half in blocks of at
    most ATTENTION_VJP_BLOCK_BYTES of [.., H, M, N], bit for bit.
    """
    qd, kd, vd = as_array(q), as_array(k), as_array(v)
    shape, kv_shape = qd.shape, kd.shape
    m, n, dh, heads, split, kv_split, lead, scale, mask = _attention_plan(
        shape, kv_shape, vd.shape, num_heads)
    qh = qd.reshape(split).transpose(heads)
    kh = kd.reshape(kv_split).transpose(heads)
    vh = vd.reshape(kv_split).transpose(heads)
    probs = np.empty(lead + (m, n))  # the scores, then the probabilities over them
    out = np.empty(lead + (m, dh))

    def attend(sl):
        s = np.matmul(qh[sl], kh[sl].swapaxes(-1, -2), out=probs[sl])
        s *= scale
        s += mask
        # a bare array: softmax records nothing, also on the worker, whose grad mode stays on
        softmax_lastdim(s, out=s)
        np.matmul(s, vh[sl], out=out[sl])

    _in_halves(attend, probs)
    out = out.transpose(heads).reshape(shape)
    if not _state.grad_enabled:
        return Tensor(out)

    def vjp(g, live):
        dctx = g.reshape(split).transpose(heads)
        dq = np.empty(lead + (m, dh)) if live[0] else None
        dkt = np.empty(lead + (dh, n)) if live[1] else None  # Q^T dS; dK is its swapped view
        dv = np.empty(lead + (n, dh)) if live[2] else None

        def grad_block(sl):
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

        step = max(1, ATTENTION_VJP_BLOCK_BYTES * len(probs) // max(probs.nbytes, 1))

        def grad_rows(sl):
            start, stop, _ = sl.indices(len(probs))
            for i in range(start, stop, step):
                grad_block(slice(i, min(i + step, stop)))

        _in_halves(grad_rows, probs)
        dk = None if dkt is None else np.swapaxes(dkt, -1, -2)
        return tuple(None if d is None else d.transpose(heads).reshape(s)
                     for d, s in zip((dq, dk, dv), (shape, kv_shape, kv_shape)))

    return _op(out, (q, k, v), vjp)
