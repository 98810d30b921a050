"""Decoder-only transformer over time-series patches.

The context is cut into non-overlapping patches of ``input_patch_len``
points. Each patch, concatenated with its flattened per-point date
features, passes through an input residual block and picks up a sinusoidal
positional encoding to become one token. A stack of causally masked
pre-norm transformer layers maps the token sequence to output tokens, and
an output residual block turns every output token j into a forecast of the
``output_patch_len`` points immediately following patch j.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, fields, replace
from itertools import islice

import numpy as np

from . import tensor as tt
from .tensor import Tensor


class ConfigError(ValueError):
    """Model configuration violates a structural constraint."""


class CapacityError(ValueError):
    """Token count exceeds the positional-encoding capacity."""


class ContextTooShortError(ValueError):
    """Fewer context points than one input patch."""


class FeatureShapeError(ValueError):
    """Date-feature matrix does not line up with the values."""


def config_fields(spec, d, error: type[Exception], section: str, fixed: dict | None = None) -> dict:
    """The entries of config section `d` for `spec`, a config dataclass or a set of
    allowed names, less the keys of `fixed` (retired fields) at their fixed values;
    `error` names a `d` that is not a dict, an unknown key, or another fixed value."""
    names = {f.name for f in fields(spec)} if isinstance(spec, type) else set(spec)
    if not isinstance(d, dict):
        raise error(f"{section} must be an object, got {d!r}")
    d = dict(d)
    for key, value in (fixed or {}).items():
        got = d.pop(key, value)
        if got != value:
            raise error(f"{section} {key} is fixed at {value!r}, got {got!r}")
    unknown = set(d) - names
    if unknown:
        raise error(f"unknown {section} keys: {sorted(unknown)} (allowed: {sorted(names)})")
    return d


def _check_value(value, kind: str, name: str, error: type[Exception], low=None):
    """`value` if it is of `kind` ("int": never a bool; "float": finite, an int passes;
    "str") and at least `low` where one is given; else `error` naming `name`."""
    want, types = {"int": ("an integer", (int, np.integer)), "str": ("a string", str),
                   "float": ("a finite number", (int, float, np.integer, np.floating))}[kind]
    if (isinstance(value, bool) or not isinstance(value, types)
            or kind == "float" and not abs(value) <= sys.float_info.max
            or low is not None and value < low):
        raise error(f"{name} must be {want}{'' if low is None else f' >= {low}'}, got {value!r}")
    return value


def check_int(value, name: str, error: type[Exception], low: int = 1):
    """`value` if it is an integer (never a bool) of at least `low`; else `error` naming `name`."""
    return _check_value(value, "int", name, error, low)


def check_fields(obj, error: type[Exception], low: dict, where: str = "") -> None:
    """`error` naming the first field of config dataclass `obj` whose value does not fit
    its annotation (see _check_value; a ``tuple[...]`` is a tuple or list checked entry
    by entry) or is below its bound in `low`; the message starts with `where`."""
    for f in fields(obj):
        value, name, bound = getattr(obj, f.name), where + f.name, low.get(f.name)
        if not f.type.startswith("tuple["):
            _check_value(value, f.type, name, error, bound)
            continue
        kinds = f.type[len("tuple["):-1].split(", ")
        if not isinstance(value, (tuple, list)) or len(value) != len(kinds):
            raise error(f"{name} must be a list of {len(kinds)} values, got {value!r}")
        for i, (item, kind) in enumerate(zip(value, kinds)):
            _check_value(item, kind, f"{name}[{i}]", error, bound)


# The most bytes a config may ask synth_corpus or ModelWeights.initialize for,
# checked before allocating. The full preset (about 6 GiB of weights,
# gradients and Adam moments) is built and shape-checked but never initialized.
MEMORY_CEILING_BYTES = 4 * 2**30


def check_memory(nbytes: int, what: str, fields: str, error: type[Exception]) -> None:
    """`error` naming `fields` when `what` needs more than MEMORY_CEILING_BYTES."""
    if nbytes > MEMORY_CEILING_BYTES:
        raise error(f"{what} needs {nbytes / 2**30:,.1f} GiB, past the "
                    f"{MEMORY_CEILING_BYTES >> 30} GiB ceiling; lower {fields}")


# the per-point calendar features data.derive_date_features yields, in column order
FEATURE_COLUMNS = ("month_of_year", "day_of_week", "hour_of_day",
                   "minute_of_hour", "second_of_minute")
MASKED = -1.0  # a calendar column that does not apply, or is unknown


@dataclass
class ModelConfig:
    input_patch_len: int = 4
    output_patch_len: int = 8
    model_dim: int = 32
    num_layers: int = 2
    num_heads: int = 2
    feature_dim: int = 5
    residual_hidden: int = 32
    max_positions: int = 256

    def __post_init__(self):
        check_fields(self, ConfigError, {f.name: int(f.name != "feature_dim") for f in fields(self)})
        if self.feature_dim not in (0, len(FEATURE_COLUMNS)):
            raise ConfigError(f"feature_dim must be 0 or {len(FEATURE_COLUMNS)} "
                              f"(the calendar features), got {self.feature_dim}")
        if self.model_dim % self.num_heads != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} is not divisible by num_heads {self.num_heads}")
        if self.model_dim % 2 != 0:
            raise ConfigError(f"model_dim must be even for the sinusoidal encoding, got {self.model_dim}")
        # no weight depends on max_positions, but the positional table [max_positions,
        # model_dim] and one full window's scores [num_heads, max_positions, max_positions] do
        n = self.max_positions
        check_memory(8 * n * max(self.model_dim, self.num_heads * n),
                     f"a series at {n:,} positions (its positional table or attention scores)",
                     f"max_positions ({n})", ConfigError)

    @property
    def input_width(self) -> int:
        return self.input_patch_len * (1 + self.feature_dim)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Build a config from a dict such as a checkpoint's meta. Older metas
        carry ``ffn_hidden`` and ``dropout``: dropped if they hold the only
        values the model has (model_dim and 0.0), rejected otherwise."""
        width = d.get("model_dim", cls.model_dim) if isinstance(d, dict) else None
        fixed = {"ffn_hidden": width, "dropout": 0.0}
        return cls(**config_fields(cls, d, ConfigError, "ModelConfig", fixed))

    @classmethod
    def preset(cls, name: str, **overrides) -> "ModelConfig":
        if not isinstance(name, str) or name not in PRESETS:
            raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
        if not overrides:
            return PRESETS[name]
        return replace(PRESETS[name], **config_fields(cls, overrides, ConfigError, "overrides"))


PRESETS = {
    # tiny CPU-friendly configuration used throughout the test suite
    "desk": ModelConfig(input_patch_len=4, output_patch_len=8, model_dim=32,
                        num_layers=2, num_heads=2, feature_dim=5,
                        residual_hidden=32, max_positions=256),
    # production-scale architecture numbers; never trained here
    "full": ModelConfig(input_patch_len=32, output_patch_len=128, model_dim=1280,
                        num_layers=20, num_heads=16, feature_dim=5,
                        residual_hidden=1280, max_positions=64),
}


# -- weights -----------------------------------------------------------------


def _weight_layout(cfg: ModelConfig, num_layers: int | None = None):
    """Yield (name, shape) for every weight in canonical order; `num_layers`
    stands in for cfg.num_layers where it is given."""
    w_in, d, rh, h = cfg.input_width, cfg.model_dim, cfg.residual_hidden, cfg.output_patch_len
    yield from (("input.w1", (w_in, rh)), ("input.b1", (rh,)),
                ("input.w2", (rh, d)), ("input.b2", (d,)))
    if w_in != d:
        yield "input.wskip", (w_in, d)
    for i in range(cfg.num_layers if num_layers is None else num_layers):
        lp = f"layer{i}"
        yield from ((f"{lp}.ln1.{n}", (d,)) for n in ("gain", "bias"))
        yield from ((f"{lp}.attn.{n}", (d, d)) for n in ("wq", "wk", "wv", "wo"))
        yield from ((f"{lp}.attn.{n}", (d,)) for n in ("bq", "bk", "bv", "bo"))
        yield from ((f"{lp}.ln2.{n}", (d,)) for n in ("gain", "bias"))
        yield from ((f"{lp}.ffn.{n}", (d, d) if n[0] == "w" else (d,))
                    for n in ("w1", "b1", "w2", "b2"))
    yield from (("output.w1", (d, rh)), ("output.b1", (rh,)),
                ("output.w2", (rh, h)), ("output.b2", (h,)))
    if d != h:
        yield "output.wskip", (d, h)


def parameter_count(cfg: ModelConfig) -> int:
    """Entries of all weights, counted without listing every layer."""
    size = [sum(math.prod(shape) for _, shape in _weight_layout(cfg, layers)) for layers in (0, 1)]
    return size[0] + cfg.num_layers * (size[1] - size[0])


def weight_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical name -> shape map; defines checkpoint layout and ordering."""
    return dict(_weight_layout(cfg))


def _first(names: list[str], limit: int = 5) -> str:
    return str(names) if len(names) <= limit else str(names[:limit])[:-1] + ", ...]"


def check_weights_memory(cfg: ModelConfig) -> None:
    """ConfigError if the weights of `cfg`, their gradients and both Adam
    moments would pass MEMORY_CEILING_BYTES."""
    params = parameter_count(cfg)
    sizes = ("model_dim", "num_layers", "residual_hidden", "input_patch_len", "output_patch_len")
    check_memory(params * 8 * 4, f"a model of {params:,} parameters with its gradients and "
                 "Adam moments", " or ".join(f"{f} ({getattr(cfg, f)})" for f in sizes),
                 ConfigError)


# one transformer layer's parameters, in the order of ModelWeights.layers' tuples
LAYER_PARAMS = ("ln1.gain", "ln1.bias", "attn.wq", "attn.bq", "attn.wk", "attn.bk",
                "attn.wv", "attn.bv", "attn.wo", "attn.bo", "ln2.gain", "ln2.bias",
                "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2")


class ModelWeights:
    """Named parameter store; every entry is a gradient-tracked Tensor.

    The weights live in one flat float64 array, ``arena``: each parameter's
    ``data`` is rebound to a C-contiguous view of its slot, the slots laid
    out in ``params`` order (``weight_shapes`` order for ``initialize`` and
    ``from_arrays``), so an optimizer updates every weight with one
    whole-buffer operation. ``spans`` holds each slot's slice of the arena.
    """

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        sizes = [p.data.size for p in params.values()]
        ends = np.cumsum([0, *sizes])
        self.spans = tuple(slice(int(a), int(b)) for a, b in zip(ends[:-1], ends[1:]))
        self.arena = np.empty(int(ends[-1]))
        for p, span in zip(params.values(), self.spans):
            view = self.arena[span].reshape(p.data.shape)
            view[...] = p.data
            p.data = view

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Name -> the view of `flat`, an array laid out like ``arena``, that
        holds that parameter's entries, in its shape."""
        return {name: flat[span].reshape(p.data.shape)
                for (name, p), span in zip(self.params.items(), self.spans)}

    @functools.cached_property
    def layers(self) -> tuple[tuple[Tensor, ...], ...]:
        """Each transformer layer's parameters in LAYER_PARAMS order, looked up
        once: the same Tensors as the named entries."""
        count = 0
        while f"layer{count}.{LAYER_PARAMS[0]}" in self.params:
            count += 1
        return tuple(tuple(self.params[f"layer{i}.{n}"] for n in LAYER_PARAMS)
                     for i in range(count))

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def get(self, name: str) -> Tensor | None:
        return self.params.get(name)

    def named(self):
        return self.params.items()

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.grad = None

    def count(self) -> int:
        return self.arena.size

    def as_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self.params.items()}

    @classmethod
    def initialize(cls, cfg: ModelConfig, seed: int) -> "ModelWeights":
        """Fresh weights; ConfigError past the memory ceiling (see check_weights_memory)."""
        check_weights_memory(cfg)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(101,)))
        params: dict[str, Tensor] = {}
        for name, shape in weight_shapes(cfg).items():
            leaf = name.rsplit(".", 1)[-1]
            if leaf in ("b1", "b2", "bq", "bk", "bv", "bo", "bias"):
                data = np.zeros(shape)
            elif leaf == "gain":
                data = np.ones(shape)
            elif leaf == "w1":  # feeds a relu
                data = rng.normal(0.0, math.sqrt(2.0 / shape[0]), size=shape)
            else:
                data = rng.normal(0.0, math.sqrt(1.0 / shape[0]), size=shape)
            params[name] = Tensor(data, requires_grad=True)
        return cls(params)

    @classmethod
    def from_arrays(cls, cfg: ModelConfig, arrays: dict[str, np.ndarray]) -> "ModelWeights":
        # At most one name past the arrays given, so a huge claimed depth fails fast.
        expected = dict(islice(_weight_layout(cfg), len(arrays) + 1))
        missing = [name for name in expected if name not in arrays]
        if len(expected) > len(arrays):
            raise ConfigError(f"config implies more than the {len(arrays)} weight arrays "
                              f"given; missing {_first(missing)}")
        extra = sorted(set(arrays) - set(expected))
        if missing or extra:
            raise ConfigError(
                f"weight set mismatch: missing {_first(missing)}, unexpected {_first(extra)}")
        params = {}
        for name, shape in expected.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != shape:
                raise ConfigError(f"weight {name} has shape {arr.shape}, expected {shape}")
            params[name] = Tensor(arr, requires_grad=True)
        return cls(params)


# -- tokenization ------------------------------------------------------------


def patchify(values: np.ndarray, patch_len: int) -> np.ndarray:
    """Cut series [.., L] into patches [.., N, patch_len], newest data preserved.

    When the length is not a multiple of ``patch_len`` the oldest remainder
    is dropped, so the final patch always ends at the final point.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim < 1:
        raise ContextTooShortError(f"patchify expects a series, got shape {values.shape}")
    length = values.shape[-1]
    n = length // patch_len
    if n < 1:
        raise ContextTooShortError(
            f"context of {length} points is shorter than one patch ({patch_len})")
    return values[..., length - n * patch_len:].reshape(*values.shape[:-1], n, patch_len)


def assemble_patch_inputs(values: np.ndarray, features: np.ndarray | None,
                          cfg: ModelConfig) -> np.ndarray:
    """Build the per-token input rows: flattened patch ++ flattened features.

    ``values`` is [.., L] and ``features`` holds one row of ``feature_dim``
    values per point, [.., L, feature_dim]; None stands for all-masked (-1)
    features. Returns an array of shape [.., num_patches, input_width].
    """
    values = np.asarray(values, dtype=np.float64)
    patches = patchify(values, cfg.input_patch_len)
    if cfg.feature_dim == 0:
        return patches
    if features is None:
        flat = np.full(patches.shape[:-1] + (cfg.input_patch_len * cfg.feature_dim,), MASKED)
    else:
        feat = np.asarray(features, dtype=np.float64)
        if feat.shape != values.shape + (cfg.feature_dim,):
            raise FeatureShapeError(f"features shape {feat.shape} does not match "
                                    f"{values.shape + (cfg.feature_dim,)}")
        # a patch's p feature rows, flattened, are a patch of p * feature_dim entries
        flat = patchify(feat.reshape(*values.shape[:-1], values.shape[-1] * cfg.feature_dim),
                        cfg.input_patch_len * cfg.feature_dim)
    return np.concatenate([patches, flat], axis=-1)


def positional_encoding(n_positions: int, dim: int, start: int = 0) -> np.ndarray:
    """Sinusoidal rows for positions [start, start + n_positions):
    PE[pos, 2i] = sin(pos / 10000^(2i/dim)), odd cols cos."""
    pos = np.arange(start, start + n_positions, dtype=np.float64)[:, None]
    i = np.arange(dim // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / dim)
    table = np.zeros((n_positions, dim))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return table


@functools.lru_cache(maxsize=8)
def _pe_table(max_positions: int, dim: int) -> np.ndarray:
    """Read-only ``positional_encoding(max_positions, dim)``, built once per
    model shape; row ``pos`` equals ``positional_encoding(1, dim, pos)`` bit for bit."""
    table = positional_encoding(max_positions, dim)
    table.flags.writeable = False
    return table


# -- blocks -------------------------------------------------------------------


def _carrier():
    """How the blocks below carry values from op to op. While gradients are
    recorded: as Tensors, so the tape sees every op (an operand that is no
    Tensor becomes a constant array). Under no_grad: as plain float64 arrays,
    each op's bare Tensor result unwrapped, so the residual and
    positional-encoding adds, the ``last`` slices and the KV-cache views
    cost numpy alone."""
    return _recorded if tt.grad_enabled() else tt.as_array


def _recorded(x):
    return x if isinstance(x, Tensor) else tt.as_array(x)


def residual_block(v, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, wskip: Tensor | None):
    """out = w2 @ relu(w1 @ v + b1) + b2 + skip(v), for rows v [.., d]; each
    dense layer is one ``tt.matmul`` record with its bias. Returns a Tensor
    while gradients are recorded and a float64 array under no_grad.

    The skip path is the identity when input and output widths agree
    (wskip None) and a learned linear map otherwise.
    """
    val = _carrier()
    v = val(v)
    hidden = val(tt.relu(val(tt.matmul(v, w1, b1))))
    out = val(tt.matmul(hidden, w2, b2))
    skip = v if wskip is None else val(tt.matmul(v, wskip))
    return out + skip


def input_tokens(inputs, weights: ModelWeights, cfg: ModelConfig, start: int = 0):
    """Patch rows [.., N, input_width] at positions [start, start + N) ->
    tokens [.., N, model_dim] with PE added (a Tensor while recording, an
    array under no_grad)."""
    x = _carrier()(inputs)
    if x.ndim < 2 or x.shape[-1] != cfg.input_width:
        raise FeatureShapeError(
            f"patch inputs shape {x.shape} does not end in input_width {cfg.input_width}")
    n = x.shape[-2]
    if start + n > cfg.max_positions:
        raise CapacityError(f"{start + n} tokens exceed max_positions {cfg.max_positions}")
    tokens = residual_block(x, weights["input.w1"], weights["input.b1"],
                            weights["input.w2"], weights["input.b2"],
                            weights.get("input.wskip"))
    return tokens + _pe_table(cfg.max_positions, cfg.model_dim)[start:start + n]


class KVCache:
    """The keys and values of the positions a decode has encoded, for
    :func:`forward`: per layer one key and one value buffer [.., capacity,
    model_dim], allocated once, whose first ``length`` positions are filled.

    Each forward call writes its tokens' keys and values in place after the
    filled rows, attends over the filled rows, and then advances ``length``.
    A call that would pass ``capacity`` raises CapacityError before it
    writes, so the filled rows and ``length`` stay as they were. ``lead`` is
    the inputs' leading shape: () for one series, (B,) for a stack of B.
    """

    def __init__(self, cfg: ModelConfig, lead: tuple[int, ...], capacity: int):
        check_int(capacity, "KV cache capacity", CapacityError)
        if capacity > cfg.max_positions:
            raise CapacityError(
                f"KV cache capacity {capacity} exceeds max_positions {cfg.max_positions}")
        shape = (*lead, capacity, cfg.model_dim)
        self.keys = tuple(np.empty(shape) for _ in range(cfg.num_layers))
        self.values = tuple(np.empty(shape) for _ in range(cfg.num_layers))
        self.capacity = capacity
        self.length = 0

    def reset(self) -> None:
        """Forget every position; the buffers are kept for the next window."""
        self.length = 0


def stacked_transformer(tokens, weights: ModelWeights, cfg: ModelConfig,
                        cache: KVCache | None = None, last: int | None = None):
    """Causally masked pre-norm stack: x += MHA(LN(x)); x += FFN(LN(x)).
    Returns a Tensor while gradients are recorded and a float64 array under
    no_grad.

    With a ``cache`` (see :func:`forward`), the tokens follow the cached
    positions: their keys and values are written into the cache after the
    filled rows, and they attend to all filled rows, their own included.
    With ``last``, the final layer still projects keys and values for every
    token, but its queries, attention, out-projection and FFN run on the
    trailing ``last`` rows only, and only those rows are returned.
    """
    val = _carrier()
    x = val(tokens)
    start = 0 if cache is None else cache.length
    n = start + x.shape[-2]
    if n > cfg.max_positions:
        raise CapacityError(f"{n} tokens exceed max_positions {cfg.max_positions}")
    if cache is not None:
        if n > cache.capacity:
            raise CapacityError(f"{n} tokens exceed the KV cache's capacity {cache.capacity}")
        want = (cfg.num_layers, x.shape[:-2] + (cache.capacity, cfg.model_dim))
        if (len(cache.keys), cache.keys[0].shape) != want:
            raise tt.ShapeError(f"KV cache of {len(cache.keys)} layers of {cache.keys[0].shape} "
                                f"does not fit {want[0]} layers of {want[1]}")
    for i in range(cfg.num_layers):
        (ln1_gain, ln1_bias, wq, bq, wk, bk, wv, bv, wo, bo,
         ln2_gain, ln2_bias, w1, b1, w2, b2) = weights.layers[i]
        normed = val(tt.layer_norm(x, ln1_gain, ln1_bias))
        rows = normed
        if last is not None and i == cfg.num_layers - 1:  # arrays: last needs no_grad
            x, rows = x[..., -last:, :], normed[..., -last:, :]
        q, k, v = (val(tt.matmul(rows, wq, bq)), val(tt.matmul(normed, wk, bk)),
                   val(tt.matmul(normed, wv, bv)))
        if cache is not None:  # arrays: a cache needs no_grad
            keys, values = cache.keys[i], cache.values[i]
            keys[..., start:n, :] = k
            values[..., start:n, :] = v
            k, v = keys[..., :n, :], values[..., :n, :]
        ctx = val(tt.causal_attention(q, k, v, cfg.num_heads))
        x = x + val(tt.matmul(ctx, wo, bo))
        normed = val(tt.layer_norm(x, ln2_gain, ln2_bias))
        hidden = val(tt.relu(val(tt.matmul(normed, w1, b1))))
        x = x + val(tt.matmul(hidden, w2, b2))
    if cache is not None:
        cache.length = n
    return x


def output_forecasts(out_tokens, weights: ModelWeights, cfg: ModelConfig):
    """Output tokens [.., N, model_dim] -> per-token h-step forecasts [.., N, h]
    (a Tensor while recording, an array under no_grad)."""
    return residual_block(out_tokens, weights["output.w1"], weights["output.b1"],
                          weights["output.w2"], weights["output.b2"],
                          weights.get("output.wskip"))


def forward(weights: ModelWeights, cfg: ModelConfig, inputs, cache: KVCache | None = None,
            last: int | None = None) -> Tensor:
    """Assembled patch inputs [.., N, input_width] -> forecasts [.., N, h].

    Row j depends only on patches 1..j; it is the model's prediction of the
    output_patch_len points immediately after patch j.

    While gradients are recorded, every op goes on the tape. Under
    ``no_grad`` the same blocks run on plain float64 arrays: each op runs
    its checks and arithmetic, builds no VJP and records nothing, and the
    result is wrapped in one constant Tensor at the end. Both give the same
    values bit for bit.

    ``cache`` is a :class:`KVCache` for incremental decoding, filled in
    place: the inputs are taken as the patches that follow its ``length``
    filled positions, and the result holds their rows only. An empty cache
    encodes from position 0. Cached keys and values are constants, so a
    cache needs ``no_grad``.

    ``last`` (1 <= last <= N) returns the trailing ``last`` rows [.., last, h]
    only: the final layer and the output block skip every other row (see
    :func:`stacked_transformer`), and the cache is still filled for all N.
    Rows from a product of two or more rows equal the full forward's bit for
    bit; a 1-row product goes to BLAS gemv, which rounds differently. The
    slice cuts the tape, so ``last`` needs ``no_grad``.
    """
    if cache is not None and tt.grad_enabled():
        raise tt.TapeError("a KV cache holds constants; decode with it under no_grad")
    if last is not None and tt.grad_enabled():
        raise tt.TapeError("last drops rows from the tape; run it under no_grad")
    toks = input_tokens(inputs, weights, cfg, 0 if cache is None else cache.length)
    if last is not None and check_int(last, "last", tt.ShapeError) > toks.shape[-2]:
        raise tt.ShapeError(f"last must be at most the {toks.shape[-2]} input rows, got {last}")
    out = output_forecasts(stacked_transformer(toks, weights, cfg, cache, last), weights, cfg)
    return out if isinstance(out, Tensor) else Tensor(out)
