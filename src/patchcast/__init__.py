"""patchcast: a desk-scale patched-attention time-series forecaster.

Decoder-only transformer over fixed-length patches of a univariate series,
trained on a synthetic multi-granularity corpus and applied zero-shot to
unseen series at arbitrary context and horizon lengths. All numerics run on
a small hand-rolled reverse-mode autodiff core (:mod:`patchcast.tensor`).
"""

__version__ = "0.1.0"

from . import tensor
from .allocator import keep_freed_memory
from .checkpoint import CheckpointBundle, load_checkpoint, save_checkpoint
from .data import (
    FamilySpec,
    GeneratorSpec,
    TimeSeries,
    chronological_split,
    derive_date_features,
    ingest_csv,
    synth_corpus,
)
from .evaluation import (
    EvalReport,
    context_sweep,
    make_model_predictor,
    make_seasonal_naive,
    nrmse,
    patch_size_comparison,
    repeat_last,
    rolling_eval,
    score_series,
    wape,
)
from .inference import ForecastResult, autoregressive_rounds, forecast
from .model import ModelConfig, ModelWeights, forward
from .tensor import Tensor, no_grad
from .training import TrainConfig, TrainResult, train

keep_freed_memory()

__all__ = [
    "CheckpointBundle",
    "EvalReport",
    "FamilySpec",
    "ForecastResult",
    "GeneratorSpec",
    "ModelConfig",
    "ModelWeights",
    "Tensor",
    "TimeSeries",
    "TrainConfig",
    "TrainResult",
    "autoregressive_rounds",
    "chronological_split",
    "context_sweep",
    "derive_date_features",
    "forecast",
    "forward",
    "ingest_csv",
    "load_checkpoint",
    "make_model_predictor",
    "make_seasonal_naive",
    "no_grad",
    "nrmse",
    "patch_size_comparison",
    "repeat_last",
    "rolling_eval",
    "save_checkpoint",
    "score_series",
    "synth_corpus",
    "tensor",
    "train",
    "wape",
]
