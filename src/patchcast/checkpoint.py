"""Self-describing checkpoint files.

A checkpoint is a numpy ``.npz`` archive (a zip of ``.npy`` members):

* ``meta`` -- a uint8 array holding UTF-8 JSON with ``format_version``,
  the full model ``config`` dict and an open ``extra`` dict (training
  metadata such as the normalization mode and step count);
* ``param/<name>`` -- one float64 array per model weight, names and shapes
  exactly as given by :func:`patchcast.model.weight_shapes`.

float64 values survive the round trip bit-for-bit. Loading validates the
format version and the complete weight-set shape map before any use.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass

import numpy as np

from .model import ConfigError, ModelConfig, ModelWeights

FORMAT_VERSION = 1
_PARAM_PREFIX = "param/"


class CheckpointError(ValueError):
    """Unreadable, wrong-version, or structurally invalid checkpoint."""


@dataclass
class CheckpointBundle:
    config: ModelConfig
    weights: ModelWeights
    extra: dict


def save_checkpoint(path, config: ModelConfig, weights: ModelWeights,
                    extra: dict | None = None) -> None:
    meta = {
        "format_version": FORMAT_VERSION,
        "config": config.to_dict(),
        "extra": extra or {},
    }
    meta_arr = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    arrays = {_PARAM_PREFIX + name: data for name, data in weights.as_arrays().items()}
    np.savez(path, meta=meta_arr, **arrays)


def load_checkpoint(path) -> CheckpointBundle:
    try:
        archive = np.load(path)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise CheckpointError(f"{path} is a single array, not an .npz checkpoint")
        with archive:
            if "meta" not in archive.files:
                raise CheckpointError(f"{path} has no meta member; not a checkpoint")
            meta = json.loads(bytes(archive["meta"].tobytes()).decode("utf-8"))
            arrays = {name[len(_PARAM_PREFIX):]: archive[name]
                      for name in archive.files if name.startswith(_PARAM_PREFIX)}
    except CheckpointError:
        raise
    except (OSError, ValueError, RecursionError, EOFError, zipfile.BadZipFile) as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path} meta is not a JSON object; not a checkpoint")
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version} unsupported (expected {FORMAT_VERSION})")
    if not isinstance(meta.get("config"), dict):
        raise CheckpointError(f"{path} meta has no config object; not a checkpoint")
    extra = meta.get("extra", {})
    if not isinstance(extra, dict):
        raise CheckpointError(f"{path} meta extra is not a JSON object")
    try:
        config = ModelConfig.from_dict(meta["config"])
    except ConfigError as err:
        raise CheckpointError(f"invalid model config in {path}: {err}") from err
    try:
        weights = ModelWeights.from_arrays(config, arrays)
    except ValueError as err:
        raise CheckpointError(f"invalid weight arrays in {path}: {err}") from err
    return CheckpointBundle(config=config, weights=weights, extra=extra)
