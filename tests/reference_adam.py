"""Adam applied parameter by parameter, as the tests' bitwise oracle for the
whole-arena optimizer in ``patchcast.training``.

Each moment here is a separate array per parameter, the gradient norm sums
one ``np.sum`` per parameter, and the clip, the moment updates and the
weight update run once per parameter: the layout and loop the arena
replaced, kept so the arena can be pinned to it with ``tobytes()``.
"""

from __future__ import annotations

import math

import numpy as np

from patchcast.training import BETA1, BETA2, CLIP_NORM, EPS, NonFiniteGradientError


class ReferenceState:
    def __init__(self, weights):
        self.m = {n: np.zeros_like(p.data) for n, p in weights.named()}
        self.v = {n: np.zeros_like(p.data) for n, p in weights.named()}
        self.step = 0


def global_grad_norm(weights) -> float:
    total = math.fsum(float(np.sum(p.grad * p.grad))
                      for _, p in weights.named() if p.grad is not None)
    return math.sqrt(total)


def adam_step(weights, state: ReferenceState, lr: float) -> float:
    for name, p in weights.named():
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise NonFiniteGradientError(f"non-finite gradient in parameter {name}")
    norm = global_grad_norm(weights)
    scale = CLIP_NORM / norm if norm > CLIP_NORM else 1.0
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in weights.named():
        g = (p.grad if p.grad is not None else np.zeros_like(p.data)) * scale
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    return norm


def save_state(path, state: ReferenceState) -> None:
    """The ``state_*.npz`` layout: ``step`` and one ``m/<name>`` and
    ``v/<name>`` array per parameter."""
    arrays = {f"m/{n}": a for n, a in state.m.items()}
    arrays.update({f"v/{n}": a for n, a in state.v.items()})
    np.savez(path, step=np.asarray(state.step), **arrays)
