"""The patched decoder op by op, as the tests' bitwise oracle for model.py.

Each dense layer here is two tape records, ``matmul`` then a bias ``+``, the
chain the fused ops in ``patchcast.model`` must reproduce bit for bit in
forward values, parameter gradients and the KV-cached path. Only public
tensor ops are used, so a fused op cannot hide behind the code it replaces.
"""

from __future__ import annotations

import numpy as np

from patchcast import tensor as tt
from patchcast.model import CapacityError, positional_encoding
from patchcast.tensor import Tensor


def dense(x, w, b):
    return tt.matmul(x, w) + b


def residual_block(v, w1, b1, w2, b2, wskip):
    hidden = tt.relu(dense(v, w1, b1))
    out = dense(hidden, w2, b2)
    skip = v if wskip is None else tt.matmul(v, wskip)
    return out + skip


def input_tokens(inputs, weights, cfg, start=0):
    x = Tensor(np.asarray(inputs, dtype=np.float64))
    tokens = residual_block(x, weights["input.w1"], weights["input.b1"],
                            weights["input.w2"], weights["input.b2"],
                            weights.get("input.wskip"))
    return tokens + Tensor(positional_encoding(x.shape[-2], cfg.model_dim, start))


def stacked_transformer(tokens, weights, cfg, cache=None):
    n = (cache[0][0].shape[-2] if cache else 0) + tokens.shape[-2]
    if n > cfg.max_positions:
        raise CapacityError(f"{n} tokens exceed max_positions {cfg.max_positions}")
    x = tokens
    for i in range(cfg.num_layers):
        lp = f"layer{i}"
        normed = tt.layer_norm(x, weights[f"{lp}.ln1.gain"], weights[f"{lp}.ln1.bias"])
        q = dense(normed, weights[f"{lp}.attn.wq"], weights[f"{lp}.attn.bq"])
        k = dense(normed, weights[f"{lp}.attn.wk"], weights[f"{lp}.attn.bk"])
        v = dense(normed, weights[f"{lp}.attn.wv"], weights[f"{lp}.attn.bv"])
        if cache is not None:
            if i < len(cache):
                k, v = (Tensor(np.concatenate([old, new.data], axis=-2))
                        for old, new in zip(cache[i], (k, v)))
                cache[i] = (k.data, v.data)
            else:
                cache.append((k.data, v.data))
        ctx = tt.causal_attention(q, k, v, cfg.num_heads)
        x = x + dense(ctx, weights[f"{lp}.attn.wo"], weights[f"{lp}.attn.bo"])
        normed = tt.layer_norm(x, weights[f"{lp}.ln2.gain"], weights[f"{lp}.ln2.bias"])
        hidden = tt.relu(dense(normed, weights[f"{lp}.ffn.w1"], weights[f"{lp}.ffn.b1"]))
        x = x + dense(hidden, weights[f"{lp}.ffn.w2"], weights[f"{lp}.ffn.b2"])
    return x


def output_forecasts(out_tokens, weights, cfg):
    return residual_block(out_tokens, weights["output.w1"], weights["output.b1"],
                          weights["output.w2"], weights["output.b2"],
                          weights.get("output.wskip"))


def forward(weights, cfg, inputs, cache=None):
    start = cache[0][0].shape[-2] if cache else 0
    toks = input_tokens(inputs, weights, cfg, start)
    return output_forecasts(stacked_transformer(toks, weights, cfg, cache), weights, cfg)
