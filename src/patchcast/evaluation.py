"""Normalized forecast metrics, the rolling-window evaluation protocol,
naive reference predictors, and ablation tables.

A predictor is any callable (contexts [B, L], horizon, features
[B, L + horizon, F]) -> [B, horizon] array over a stack of equal-length
contexts; the trained model and the naive baselines all conform, so every
comparison runs through the identical protocol.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Corpus, TimeSeries
from .inference import ForecastError, autoregressive_rounds, check_horizon, forecast
from .model import ModelConfig, ModelWeights, check_int
from .training import TrainConfig, train


class MetricError(ValueError):
    pass


class EvalConfigError(ValueError):
    pass


class SeasonFallbackWarning(UserWarning):
    """Season longer than the available context; fell back to repeat-last."""


# Report columns: one scored window, and the pooled score of a set of windows.
WINDOW_COLUMNS = ("origin", "nrmse", "wape")
POOLED_COLUMNS = ("n_windows", "excluded", "nrmse", "wape")


# -- metrics ---------------------------------------------------------------------


def _one_window(actual, predicted) -> tuple[float, float]:
    """(NRMSE, WAPE) of one window [horizon]: the one-row case of
    ``_window_scores``, and MetricError where that leaves the window out."""
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.shape != p.shape or a.ndim != 1 or a.size == 0:
        raise MetricError(f"need equal non-empty 1-d arrays, got {a.shape} and {p.shape}")
    kept, nrmses, wapes = _window_scores(a[None], p[None])
    if not kept:
        raise MetricError("the mean absolute actual value is zero; normalized error is undefined")
    return nrmses[0], wapes[0]


def nrmse(actual, predicted) -> float:
    """Root-mean-squared error over the mean absolute actual value."""
    return _one_window(actual, predicted)[0]


def wape(actual, predicted) -> float:
    """Sum of absolute errors over the sum of absolute actual values."""
    return _one_window(actual, predicted)[1]


# -- reference predictors -----------------------------------------------------------


def repeat_last(values, horizon: int, features=None) -> np.ndarray:
    """Persistence: every future step equals the final observed value, for a
    context [.., L] -> [.., horizon]."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim < 1 or values.shape[-1] == 0:
        raise MetricError("repeat-last needs at least one context point")
    return np.repeat(values[..., -1:], int(horizon), axis=-1)


def make_seasonal_naive(season: int):
    """Predictor repeating the final season of a context [.., L] -> [.., horizon].

    When the context is shorter than one season there is nothing to repeat:
    the predictor warns and degrades to repeat-last.
    """
    check_int(season, "season", EvalConfigError)

    def predictor(values, horizon: int, features=None) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if values.shape[-1] < season:
            warnings.warn(
                f"context of {values.shape[-1]} points is shorter than season {season}; "
                f"using repeat-last instead", SeasonFallbackWarning, stacklevel=2)
            return repeat_last(values, horizon)
        reps = -(-int(horizon) // season)
        return np.tile(values[..., -season:], reps)[..., :int(horizon)]

    return predictor


def make_model_predictor(weights: ModelWeights, cfg: ModelConfig,
                         normalization: str = "per-window"):
    """Adapt a trained model to the (contexts, horizon, features) protocol:
    the stack goes to `forecast` whole."""

    def predictor(values, horizon: int, features=None) -> np.ndarray:
        feats = features if cfg.feature_dim else None
        return forecast(weights, cfg, values, int(horizon),
                        features=feats, normalization=normalization).values

    return predictor


# -- rolling-window protocol -----------------------------------------------------------


@dataclass(frozen=True)
class WindowScore:
    origin: int  # first forecast step, as an index into the series
    nrmse: float
    wape: float


@dataclass
class EvalReport:
    series_id: str
    context_len: int
    horizon: int
    stride: int
    windows: list[WindowScore] = field(default_factory=list)
    excluded: int = 0  # windows of zero mean absolute actual, left out of the pool

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(format_csv([vars(w) for w in self.windows], WINDOW_COLUMNS))


def rolling_eval(predictor, series: TimeSeries, context_len: int, horizon: int,
                 stride: int = 1) -> EvalReport:
    """Score a predictor over every forecast window inside the test split.

    Forecast origins start at the first test point and advance by `stride`
    while a full horizon still fits. The context is the `context_len` points
    before the origin (clipped at the series start, so it may reach back into
    the train and validation spans). The predictor gets one stack per context
    length: every origin with a full `context_len` context in one call, and
    each clipped context in a call of its own. Windows whose mean absolute
    actual is zero (all-zero actuals, or a subnormal sum whose mean rounds to
    zero) have no defined normalized error; they are predicted with their
    stack, then excluded and counted. A kept window whose score is not
    finite (errors whose squares overflow float64) raises MetricError naming
    the window's origin (``score_series`` adds the series and context length).
    """
    for name, value in (("context_len", context_len), ("horizon", horizon), ("stride", stride)):
        check_int(value, name, EvalConfigError)
    bounds = series.split()
    total = len(series)
    origins = range(bounds.val_end, total - horizon + 1, stride)
    if not origins:
        raise EvalConfigError(
            f"test split of {total - bounds.val_end} points fits no "
            f"{horizon}-step forecast window for series {series.series_id}")
    feats_all = series.date_features()
    report = EvalReport(series_id=series.series_id, context_len=context_len,
                        horizon=horizon, stride=stride)
    full = bisect.bisect_left(origins, context_len)  # origins from here on see context_len points
    groups = [(o, origins[i:i + 1]) for i, o in enumerate(origins[:full])]
    if full < len(origins):
        groups.append((context_len, origins[full:]))
    for length, group in groups:
        contexts = _windows(series.values, length, group, length)
        actuals = _windows(series.values, horizon, group, 0)
        feats = _windows(feats_all, length + horizon, group, length)
        predicted = np.asarray(predictor(contexts, horizon, feats), dtype=np.float64)
        if predicted.shape != actuals.shape:
            raise EvalConfigError(
                f"predictor returned shape {predicted.shape}, wanted {actuals.shape}")
        scored = _window_scores(actuals, predicted)
        for i, e, w in zip(*scored):
            if not (math.isfinite(e) and math.isfinite(w)):
                raise MetricError(f"the window at origin {group[i]} scores nrmse {e}, "
                                  f"wape {w}; its errors overflow float64")
        report.excluded += len(group) - len(scored[0])
        report.windows.extend(WindowScore(origin=group[i], nrmse=e, wape=w)
                              for i, e, w in zip(*scored))
    return report


def _window_scores(actuals: np.ndarray, predicted: np.ndarray) -> tuple[list, list, list]:
    """(row indices, NRMSE, WAPE) of every window [B, horizon] whose mean
    absolute actual is not zero. Every reduction runs along a contiguous row,
    so a row scores the same bits in any stack; ``nrmse`` and ``wape`` are the
    one-row case. A zero mean comes from all-zero actuals, or from a subnormal
    sum that rounds to zero when divided by the horizon; the normalized
    errors are undefined for both, so both are left out."""
    absolute = np.abs(actuals)  # a contiguous copy of the strided windows
    total = absolute.sum(axis=-1)
    mean_abs = absolute.mean(axis=-1)
    kept = np.flatnonzero(mean_abs != 0.0)  # a zero sum has a zero mean
    with np.errstate(over="ignore", invalid="ignore"):  # rolling_eval names an overflow
        err = actuals[kept] - predicted[kept]
        rmse = np.sqrt((err ** 2).mean(axis=-1))
        wapes = np.abs(err).sum(axis=-1) / total[kept]
    return kept.tolist(), (rmse / mean_abs[kept]).tolist(), wapes.tolist()


def _windows(array: np.ndarray, width: int, origins: range, back: int) -> np.ndarray:
    """``array[o - back:o - back + width]`` for every origin o, as one strided
    view [len(origins), width, ..] of `array` (no copy)."""
    view = np.lib.stride_tricks.sliding_window_view(array, width, axis=0)
    view = view[origins.start - back:origins.stop - back:origins.step]
    return np.moveaxis(view, -1, 1)  # the window axis follows the stack axis


def pool_reports(reports) -> dict:
    """Uniform mean over every scored window of a list of reports."""
    scores = [w for rep in reports for w in rep.windows]
    return {
        "n_windows": len(scores),
        "excluded": sum(rep.excluded for rep in reports),
        "nrmse": math.fsum(w.nrmse for w in scores) / len(scores) if scores else math.nan,
        "wape": math.fsum(w.wape for w in scores) / len(scores) if scores else math.nan,
    }


def score_series(predictor, series_list, context_len: int, horizon: int,
                 stride: int = 1) -> tuple[list[EvalReport], dict]:
    """The report of every series and their pooled row (``pool_reports``).
    A ForecastError from the predictor or a MetricError from the scores is
    raised again, of its own type, naming the series and the context length."""
    reports = []
    for s in series_list:
        try:
            reports.append(rolling_eval(predictor, s, context_len, horizon, stride))
        except (ForecastError, MetricError) as exc:
            raise type(exc)(f"series {s.series_id} at context length {context_len}: "
                            f"{exc}") from exc
    return reports, pool_reports(reports)


# -- ablation suites -------------------------------------------------------------------


def context_sweep(weights: ModelWeights, cfg: ModelConfig, series_list,
                  context_lengths, horizon: int, stride: int = 1,
                  normalization: str = "per-window") -> list[dict]:
    """Same trained model scored at several context lengths."""
    predictor = make_model_predictor(weights, cfg, normalization)
    rows = []
    for c in context_lengths:
        _, pooled = score_series(predictor, series_list, c, horizon, stride)
        rows.append({"context_len": int(c), **pooled})
    return rows


def patch_size_comparison(corpus: Corpus, eval_series, base_model: ModelConfig,
                          train_cfg: TrainConfig, which: str, sizes,
                          context_len: int, horizon: int, stride: int = 1) -> list[dict]:
    """Retrain the model per patch-size variant and score each on the same
    evaluation series. `which` picks the varied side: "input" or "output".
    HorizonError before any training if `horizon` is past a variant's bound."""
    if which not in ("input", "output"):
        raise EvalConfigError(f'which must be "input" or "output", got {which!r}')
    fname = "input_patch_len" if which == "input" else "output_patch_len"
    model_cfgs = [replace(base_model, **{fname: int(size)}) for size in sizes]
    for model_cfg in model_cfgs:
        check_horizon(horizon, model_cfg)
    rows = []
    for size, model_cfg in zip(sizes, model_cfgs):
        result = train(corpus, model_cfg, train_cfg)
        predictor = make_model_predictor(result.weights, model_cfg,
                                         train_cfg.normalization)
        _, pooled = score_series(predictor, eval_series, context_len, horizon, stride)
        row = {fname: int(size), **pooled}
        if which == "output":
            row["rounds"] = autoregressive_rounds(horizon, int(size))
        rows.append(row)
    return rows


def format_table(rows, headers) -> str:
    """Fixed-width text table of `rows` (mappings keyed by `headers`): a
    header line, a dash rule, then one line per row, columns two spaces
    apart. Floats print with six decimals."""
    cells = [[_table_cell(row[h]) for h in headers] for row in rows]
    widths = [max([len(h)] + [len(r[i]) for r in cells]) for i, h in enumerate(headers)]

    def line(parts):
        return "  ".join(p.ljust(w) for p, w in zip(parts, widths)).rstrip()

    lines = [line(headers), line(["-" * w for w in widths])] + [line(r) for r in cells]
    return "\n".join(lines) + "\n"


def format_csv(rows, headers) -> str:
    """CSV text of `rows` (mappings keyed by `headers`) under one header
    line. Floats are written as their repr, so they parse back exactly."""
    lines = [",".join(headers)]
    lines.extend(",".join(_csv_cell(row[h]) for h in headers) for row in rows)
    return "\n".join(lines) + "\n"


def _table_cell(v) -> str:
    if isinstance(v, float):
        return "nan" if math.isnan(v) else f"{v:.6f}"
    return str(v)


def _csv_cell(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)
