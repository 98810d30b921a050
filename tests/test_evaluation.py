"""Metrics, rolling-window protocol, baselines, and ablation tables.

Metric oracles are worked by hand or recomputed with pure-Python fsum
arithmetic; window counts come from closed-form counting.
"""

import math
from datetime import datetime
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchcast.data import TimeSeries
from patchcast.evaluation import (
    _window_scores,
    EvalConfigError,
    EvalReport,
    MetricError,
    SeasonFallbackWarning,
    WindowScore,
    context_sweep,
    format_csv,
    format_table,
    make_model_predictor,
    make_seasonal_naive,
    nrmse,
    patch_size_comparison,
    pool_reports,
    repeat_last,
    rolling_eval,
    score_series,
    wape,
)
from patchcast.model import ModelConfig, ModelWeights


def tiny_cfg(**over):
    base = dict(input_patch_len=4, output_patch_len=8, model_dim=8, num_layers=1,
                num_heads=2, feature_dim=5, residual_hidden=8, max_positions=64)
    base.update(over)
    return ModelConfig(**base)


def series_of(values, granularity="daily", sid="s"):
    return TimeSeries(sid, granularity, datetime(2020, 1, 6),
                      np.asarray(values, dtype=np.float64))


# -- metric values -----------------------------------------------------------------


def test_metrics_hand_example():
    # y=[2,2], yhat=[1,3]: mse=1, rms=1, mean|y|=2 -> nrmse=0.5;
    # sum|err|=2, sum|y|=4 -> wape=0.5
    assert nrmse([2.0, 2.0], [1.0, 3.0]) == 0.5
    assert wape([2.0, 2.0], [1.0, 3.0]) == 0.5


def test_perfect_forecast_scores_zero():
    y = [1.0, -2.0, 3.5]
    assert nrmse(y, y) == 0.0 and wape(y, y) == 0.0


def test_wape_of_zero_forecast_is_one():
    y = np.array([3.0, -4.0, 5.0])
    assert wape(y, np.zeros(3)) == 1.0


def test_metrics_scale_free():
    rng = np.random.default_rng(0)
    y = rng.normal(5.0, 2.0, size=40)
    p = y + rng.normal(0.0, 1.0, size=40)
    for c in (7.3, 0.011):
        assert abs(nrmse(c * y, c * p) - nrmse(y, p)) < 1e-12
        assert abs(wape(c * y, c * p) - wape(y, p)) < 1e-12


def test_metrics_match_pure_python_fsum():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 120))
        y = rng.normal(3.0, 4.0, size=n)
        p = rng.normal(3.0, 4.0, size=n)
        mse_py = math.fsum((a - b) ** 2 for a, b in zip(y, p)) / n
        denom_mean = math.fsum(abs(a) for a in y) / n
        denom_sum = math.fsum(abs(a) for a in y)
        assert abs(nrmse(y, p) - math.sqrt(mse_py) / denom_mean) < 1e-9
        assert abs(wape(y, p) - math.fsum(abs(a - b) for a, b in zip(y, p)) / denom_sum) < 1e-9


# values big enough that squaring the error cannot underflow to zero
_metric_floats = st.floats(-1e6, 1e6).map(lambda v: 0.0 if abs(v) < 1e-6 else v)


@settings(max_examples=150, deadline=None)
@given(st.lists(_metric_floats, min_size=1, max_size=50), st.data())
def test_wape_never_exceeds_nrmse(ys, data):
    # mean|e| <= rms(e), so wape <= nrmse whenever both are defined
    y = np.asarray(ys)
    if float(np.sum(np.abs(y))) == 0.0:
        return
    p = np.asarray(data.draw(st.lists(_metric_floats,
                                      min_size=len(ys), max_size=len(ys))))
    assert wape(y, p) <= nrmse(y, p) * (1 + 1e-12) + 1e-15


def test_metric_errors():
    with pytest.raises(MetricError):
        nrmse([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(MetricError):
        wape([0.0], [1.0])
    for metric in (nrmse, wape):
        with pytest.raises(MetricError):
            metric([1.0, 2.0], [1.0])
        with pytest.raises(MetricError):
            metric([], [])
        with pytest.raises(MetricError):
            metric([[1.0]], [[1.0]])


def test_metrics_raise_where_the_window_scorer_leaves_a_window_out():
    # a subnormal sum whose mean rounds to zero: rolling_eval excludes the
    # window, and both scalar metrics, its one-row case, refuse it
    for metric in (nrmse, wape):
        with pytest.raises(MetricError, match="mean absolute actual value is zero"):
            metric([5e-324, 0.0], [0.0, 0.0])


# -- baselines ----------------------------------------------------------------------


def test_repeat_last_values():
    assert repeat_last([1.0, 2.0, 3.0], 4).tolist() == [3.0, 3.0, 3.0, 3.0]
    with pytest.raises(MetricError):
        repeat_last([], 2)


def test_seasonal_naive_tiles_last_season():
    pred = make_seasonal_naive(3)
    got = pred([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 5)
    assert got.tolist() == [4.0, 5.0, 6.0, 4.0, 5.0]


def test_seasonal_naive_season_one_is_repeat_last():
    pred = make_seasonal_naive(1)
    assert pred([1.0, 9.0], 3).tolist() == [9.0, 9.0, 9.0]


def test_seasonal_naive_falls_back_when_context_short():
    pred = make_seasonal_naive(4)
    with pytest.warns(SeasonFallbackWarning):
        got = pred([1.0, 2.0, 7.0], 2)
    assert got.tolist() == [7.0, 7.0]


def test_seasonal_naive_rejects_bad_season():
    with pytest.raises(EvalConfigError):
        make_seasonal_naive(0)


# -- rolling protocol ------------------------------------------------------------------


def test_window_count_closed_form():
    # T=500: test starts at floor(0.8*500)=400. H=24, stride 1:
    # origins 400..476 -> 500-24-400+1 = 77 windows; stride 5 -> 16
    rng = np.random.default_rng(1)
    s = series_of(rng.normal(10.0, 1.0, size=500))
    rep = rolling_eval(repeat_last, s, context_len=48, horizon=24, stride=1)
    assert len(rep.windows) + rep.excluded == 77
    rep5 = rolling_eval(repeat_last, s, context_len=48, horizon=24, stride=5)
    assert len(rep5.windows) + rep5.excluded == 16
    assert [w.origin for w in rep5.windows][:2] == [400, 405]


def test_perfect_predictor_scores_zero_everywhere():
    rng = np.random.default_rng(2)
    s = series_of(rng.normal(5.0, 1.0, size=100))
    origins = iter(range(80, 100 - 6 + 1))

    def oracle(ctx, horizon, feats=None):
        return np.stack([s.values[o:o + horizon] for o in islice(origins, len(ctx))])

    rep = rolling_eval(oracle, s, context_len=16, horizon=6)
    assert len(rep.windows) == 15
    assert all(w.nrmse == 0.0 and w.wape == 0.0 for w in rep.windows)
    pooled = pool_reports([rep])
    assert pooled["nrmse"] == 0.0 and pooled["wape"] == 0.0


def test_rolling_repeat_last_hand_computed():
    # values 1..20: test split [16,20), H=2 -> origins 16,17,18;
    # prediction is the value just before each origin
    s = series_of(np.arange(1.0, 21.0))
    rep = rolling_eval(repeat_last, s, context_len=8, horizon=2)
    want = []
    for o in (16, 17, 18):
        y = [o + 1.0, o + 2.0]
        pred = float(o)  # series value at index o-1
        rms = math.sqrt(((y[0] - pred) ** 2 + (y[1] - pred) ** 2) / 2)
        mean_abs = (abs(y[0]) + abs(y[1])) / 2
        want.append((rms / mean_abs, (abs(y[0] - pred) + abs(y[1] - pred)) / (2 * mean_abs)))
    got = [(w.nrmse, w.wape) for w in rep.windows]
    for (gn, gw), (wn, ww) in zip(got, want):
        assert abs(gn - wn) < 1e-15 and abs(gw - ww) < 1e-15
    assert abs(pool_reports([rep])["nrmse"] - math.fsum(w[0] for w in want) / 3) < 1e-15


def test_zero_actual_windows_excluded_and_counted():
    vals = np.ones(20)
    vals[16:20] = [0.0, 0.0, 0.0, 5.0]
    s = series_of(vals)
    rep = rolling_eval(repeat_last, s, context_len=4, horizon=2)
    # origins 16,17,18: actuals [0,0] excluded, [0,0] excluded, [0,5] scored
    assert rep.excluded == 2
    assert len(rep.windows) == 1
    assert rep.windows[0].origin == 18


def test_window_whose_errors_overflow_is_named_not_scored():
    # values near 1e200: repeat-last's errors are finite, their squares are not
    vals = np.arange(1.0, 21.0) * 1e200
    with pytest.raises(MetricError, match="series big: the window at origin 16 scores nrmse inf"):
        rolling_eval(repeat_last, series_of(vals, sid="big"), context_len=8, horizon=2)


def test_context_clipped_at_series_start():
    s = series_of(np.arange(1.0, 21.0))
    seen = []

    def probe(ctx, horizon, feats=None):
        seen.append(ctx.shape)
        assert feats.shape == (len(ctx), ctx.shape[-1] + horizon, 5)
        return repeat_last(ctx, horizon)

    rolling_eval(probe, s, context_len=100, horizon=2)
    assert seen == [(1, 16), (1, 17), (1, 18)]  # a clipped context is a stack of its own
    seen.clear()
    rolling_eval(probe, s, context_len=8, horizon=2)
    assert seen == [(3, 8)]


def test_predictor_shape_checked():
    s = series_of(np.arange(1.0, 21.0))
    with pytest.raises(EvalConfigError, match="shape"):
        rolling_eval(lambda c, h, f=None: np.zeros(h + 1), s, 8, 2)


def test_too_short_test_split_rejected():
    s = series_of(np.arange(1.0, 11.0))  # test split = 2 points
    with pytest.raises(EvalConfigError, match="fits no"):
        rolling_eval(repeat_last, s, context_len=4, horizon=5)
    with pytest.raises(EvalConfigError):
        rolling_eval(repeat_last, s, 0, 1)
    with pytest.raises(EvalConfigError):
        rolling_eval(repeat_last, s, 4, 1, stride=0)


def per_window_eval(predictor, series, context_len, horizon, stride=1):
    """The per-window loop the stacked protocol replaced: one 1-d predictor
    call per scored window, none for a zero-actual one."""
    report = EvalReport(series_id=series.series_id, context_len=context_len,
                        horizon=horizon, stride=stride)
    feats_all = series.date_features()
    for origin in range(series.split().val_end, len(series) - horizon + 1, stride):
        ctx_start = max(0, origin - context_len)
        actual = series.values[origin:origin + horizon]
        if float(np.sum(np.abs(actual))) == 0.0:
            report.excluded += 1
            continue
        predicted = predictor(series.values[ctx_start:origin], horizon,
                              feats_all[ctx_start:origin + horizon])
        report.windows.append(WindowScore(origin=origin, nrmse=nrmse(actual, predicted),
                                          wape=wape(actual, predicted)))
    return report


@pytest.mark.parametrize("context_len,horizon,stride", [(70, 4, 1), (70, 10, 3), (24, 10, 2)])
def test_stacked_protocol_equals_the_per_window_loop(context_len, horizon, stride):
    # 80 points: origins from 64; context 70 clips those before 70 at the series
    # start. The zeros make the windows at origins 66 and 67 zero-actual for
    # every horizon here.
    cfg = tiny_cfg()
    rng = np.random.default_rng(5)
    vals = np.sin(np.arange(80) / 5.0) + 3.0 + 0.1 * rng.normal(size=80)
    vals[66:77] = 0.0
    s = series_of(vals)
    predictors = [make_model_predictor(ModelWeights.initialize(cfg, seed=2), cfg),
                  repeat_last, make_seasonal_naive(7)]
    for predictor in predictors:
        got = rolling_eval(predictor, s, context_len, horizon, stride)
        assert got == per_window_eval(predictor, s, context_len, horizon, stride)
        assert got.excluded > 0 and got.windows


def test_window_scores_equal_the_per_window_metrics_bitwise():
    # stacks of strided windows, as rolling_eval cuts them, over horizons 1-300;
    # the scores of the rows that are not all zero equal nrmse and wape bitwise
    rng = np.random.default_rng(8)
    for horizon in range(1, 301):
        batch = int(rng.integers(1, 6))
        series = rng.standard_normal(batch + horizon) * 10.0 ** rng.uniform(-3, 3)
        series[rng.random(series.size) < 0.3] = 0.0
        if horizon <= 8:
            series[:horizon] = 0.0  # an all-zero window
        actuals = np.lib.stride_tricks.sliding_window_view(series, horizon)
        predicted = actuals + rng.standard_normal(actuals.shape)
        kept, nrmses, wapes = _window_scores(actuals, predicted)
        want = [i for i, a in enumerate(actuals) if float(np.sum(np.abs(a))) != 0.0]
        assert kept == want
        assert np.array(nrmses).tobytes() == np.array(
            [nrmse(actuals[i], predicted[i]) for i in want]).tobytes()
        assert np.array(wapes).tobytes() == np.array(
            [wape(actuals[i], predicted[i]) for i in want]).tobytes()


def test_window_scores_exclude_where_nrmse_raises():
    # a subnormal sum whose mean rounds to zero: nrmse is undefined, so the
    # window is left out like an all-zero one, and the others are scored
    actual = np.array([[5e-324, 0.0], [0.0, 0.0], [1.0, 5e-324]])
    with pytest.raises(MetricError):
        nrmse(actual[0], np.ones(2))
    kept, nrmses, wapes = _window_scores(actual, np.ones((3, 2)))
    assert kept == [2]
    assert nrmses == [nrmse(actual[2], np.ones(2))] and wapes == [wape(actual[2], np.ones(2))]


def test_baselines_take_stacks():
    stack = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    assert repeat_last(stack, 3).tolist() == [[4.0] * 3, [8.0] * 3]
    assert make_seasonal_naive(3)(stack, 4).tolist() == [[2.0, 3.0, 4.0, 2.0],
                                                         [6.0, 7.0, 8.0, 6.0]]


def test_model_predictor_runs_through_protocol():
    cfg = tiny_cfg()
    weights = ModelWeights.initialize(cfg, seed=1)
    rng = np.random.default_rng(3)
    s = series_of(np.sin(np.arange(120) / 6.0) + 3.0 + 0.01 * rng.normal(size=120))
    rep = rolling_eval(make_model_predictor(weights, cfg), s,
                       context_len=32, horizon=8, stride=4)
    assert len(rep.windows) == 5  # origins 96,100,104,108,112
    assert all(math.isfinite(w.nrmse) for w in rep.windows)


# -- report files ----------------------------------------------------------------------


def test_report_csv_and_json(tmp_path):
    # the window CSV, and the pooled row evaluate writes to summary.json
    rep = EvalReport(series_id="s1", context_len=8, horizon=2, stride=1,
                     windows=[WindowScore(16, 0.5, 0.25), WindowScore(17, 0.75, 0.5)],
                     excluded=1)
    csv_path = tmp_path / "w.csv"
    rep.write_csv(csv_path)
    assert csv_path.read_bytes() == b"origin,nrmse,wape\n16,0.5,0.25\n17,0.75,0.5\n"
    assert pool_reports([rep]) == {"n_windows": 2, "excluded": 1, "nrmse": 0.625, "wape": 0.375}


def test_report_with_no_scored_windows_serializes_null():
    # NaN pooled scores, which evaluate writes to summary.json as null
    rep = EvalReport(series_id="s", context_len=4, horizon=2, stride=1, excluded=3)
    pooled = pool_reports([rep])
    assert pooled["n_windows"] == 0 and pooled["excluded"] == 3
    assert math.isnan(pooled["nrmse"]) and math.isnan(pooled["wape"])


def test_score_series_reports_each_series_and_pools_uniformly_over_windows():
    rng = np.random.default_rng(4)
    s1 = series_of(rng.normal(10, 1, size=60), sid="a")
    s2 = series_of(rng.normal(10, 1, size=40), sid="b")
    reports, pooled = score_series(repeat_last, [s1, s2], 8, 3)
    r1 = rolling_eval(repeat_last, s1, 8, 3)
    r2 = rolling_eval(repeat_last, s2, 8, 3)
    assert reports == [r1, r2] and pooled == pool_reports([r1, r2])
    allw = r1.windows + r2.windows
    assert pooled["n_windows"] == len(allw)
    assert pooled["nrmse"] == math.fsum(w.nrmse for w in allw) / len(allw)


# -- ablation tables --------------------------------------------------------------------


def test_context_sweep_rows():
    cfg = tiny_cfg()
    weights = ModelWeights.initialize(cfg, seed=2)
    rng = np.random.default_rng(5)
    series = [series_of(np.sin(np.arange(120) / 5.0) + 4.0 + 0.01 * rng.normal(size=120),
                        sid=f"s{i}") for i in range(2)]
    rows = context_sweep(weights, cfg, series, [16, 32], horizon=8, stride=8)
    assert [r["context_len"] for r in rows] == [16, 32]
    assert all(math.isfinite(r["nrmse"]) and r["n_windows"] > 0 for r in rows)


def test_patch_size_comparison_retrains_each_variant():
    from patchcast.data import FamilySpec, GeneratorSpec, synth_corpus
    from patchcast.training import TrainConfig

    spec = GeneratorSpec(pretrain=[FamilySpec(
        name="sine", granularity="daily", kind="sinusoid", n_series=3,
        length_range=(110, 120), period_range=(8.0, 16.0), noise_level=0.02)])
    corpus = synth_corpus(spec, seed=1).pretrain
    base = tiny_cfg()
    tc = TrainConfig(total_steps=3, batch_size=2, val_every=0)
    rows = patch_size_comparison(corpus, corpus.series[:2], base, tc,
                                 which="output", sizes=[8, 2],
                                 context_len=32, horizon=16, stride=8)
    assert [r["output_patch_len"] for r in rows] == [8, 2]
    assert [r["rounds"] for r in rows] == [2, 8]
    rows_in = patch_size_comparison(corpus, corpus.series[:2], base, tc,
                                    which="input", sizes=[4, 2],
                                    context_len=32, horizon=8, stride=8)
    assert [r["input_patch_len"] for r in rows_in] == [4, 2]
    assert "rounds" not in rows_in[0]
    with pytest.raises(EvalConfigError):
        patch_size_comparison(corpus, corpus.series[:1], base, tc,
                              which="sideways", sizes=[2],
                              context_len=16, horizon=8)


def test_full_scale_round_counts_for_reference_horizon():
    # at the full-size preset geometry, a 512-step horizon needs 4 rounds
    # with 128-step output patches and 16 rounds with 32-step ones
    from patchcast.inference import autoregressive_rounds

    assert autoregressive_rounds(512, 128) == 4
    assert autoregressive_rounds(512, 32) == 16


def test_tables_are_deterministic_and_aligned():
    headers = ["context_len", "n_windows", "excluded", "nrmse", "wape"]
    rows = [{"context_len": 64, "n_windows": 10, "excluded": 0,
             "nrmse": 0.5, "wape": 0.25},
            {"context_len": 512, "n_windows": 7, "excluded": 2,
             "nrmse": 0.123456789, "wape": float("nan")}]
    text = format_table(rows, headers)
    assert text == format_table(rows, headers)
    lines = text.splitlines()
    assert lines[0].split() == headers
    assert set(lines[1]) == {"-", " "}
    assert lines[2].split() == ["64", "10", "0", "0.500000", "0.250000"]
    assert lines[3].split() == ["512", "7", "2", "0.123457", "nan"]
    assert lines[0].index("wape") == lines[2].index("0.250000") == lines[3].index("nan")


def test_patch_table_headers():
    from patchcast.cli import SUITE_HEADERS

    out_text = format_table([{"output_patch_len": 8, "rounds": 2, "n_windows": 3,
                              "excluded": 0, "nrmse": 1.0, "wape": 0.5}],
                            SUITE_HEADERS["output-patch"])
    assert out_text.splitlines()[0].split()[:2] == ["output_patch_len", "rounds"]
    in_text = format_table([{"input_patch_len": 4, "n_windows": 3,
                             "excluded": 0, "nrmse": 1.0, "wape": 0.5}],
                           SUITE_HEADERS["input-patch"])
    assert in_text.splitlines()[0].split()[0] == "input_patch_len"


def test_writers_with_no_rows_print_only_headers():
    assert format_table([], ["a", "bb"]) == "a  bb\n-  --\n"
    assert format_csv([], ["a", "bb"]) == "a,bb\n"


def test_csv_floats_parse_back_exactly():
    values = [0.1 + 0.2, 1e-300, 2.0 / 3.0, np.float64(1.0 / 7.0), -0.0]
    rows = [{"k": i, "name": f"s{i}", "x": v} for i, v in enumerate(values)]
    rows.append({"k": 99, "name": "gap", "x": float("nan")})
    lines = format_csv(rows, ["k", "name", "x"]).splitlines()
    assert lines[0] == "k,name,x"
    cells = [line.split(",") for line in lines[1:]]
    assert [c[:2] for c in cells] == [[str(r["k"]), r["name"]] for r in rows]
    parsed = [float(c[2]) for c in cells[:-1]]
    assert [p.hex() for p in parsed] == [float(v).hex() for v in values]
    assert cells[-1][2] == "nan"
