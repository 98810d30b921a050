import hashlib
import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchcast import model
from patchcast.data import (
    CONTEXT_CAPS,
    FEATURE_COLUMNS,
    GRANULARITIES,
    Corpus,
    FamilySpec,
    GeneratorSpec,
    GeneratorSpecError,
    IngestError,
    RELEVANT_COLUMNS,
    SplitError,
    StrideError,
    TimeSeries,
    advance,
    chronological_split,
    default_mixture,
    derive_date_features,
    ingest_csv,
    sample_training_windows,
    synth_corpus,
    window_length,
)

COL = {name: i for i, name in enumerate(FEATURE_COLUMNS)}


# -- calendar arithmetic -------------------------------------------------------


def test_advance_fixed_strides():
    t0 = datetime(2020, 3, 1, 10, 30)
    assert advance(t0, "15min") == datetime(2020, 3, 1, 10, 45)
    assert advance(t0, "hourly", 3) == datetime(2020, 3, 1, 13, 30)
    assert advance(t0, "daily", 2) == datetime(2020, 3, 3, 10, 30)
    assert advance(t0, "weekly") == datetime(2020, 3, 8, 10, 30)


def test_advance_monthly_clamps_day():
    assert advance(datetime(2020, 1, 31), "monthly") == datetime(2020, 2, 29)
    assert advance(datetime(2020, 1, 31), "monthly", 2) == datetime(2020, 3, 31)
    assert advance(datetime(2021, 1, 31), "monthly") == datetime(2021, 2, 28)
    assert advance(datetime(2020, 12, 15), "monthly") == datetime(2021, 1, 15)


# -- date features ---------------------------------------------------------------


def test_minute_thirty_is_exactly_zero():
    feats = derive_date_features(datetime(2021, 6, 7, 9, 30), "15min", 1)
    assert feats[0, COL["minute_of_hour"]] == 0.0


def test_minute_normalization_endpoints():
    feats = derive_date_features(datetime(2021, 6, 7, 9, 0), "15min", 1)
    assert feats[0, COL["minute_of_hour"]] == -0.5
    feats = derive_date_features(datetime(2021, 6, 7, 9, 59), "15min", 1)
    assert feats[0, COL["minute_of_hour"]] == pytest.approx(59 / 60 - 0.5)


def test_daily_masks_time_of_day_columns():
    feats = derive_date_features(datetime(2021, 6, 7), "daily", 64)
    for colname in ("hour_of_day", "minute_of_hour", "second_of_minute"):
        assert np.all(feats[:, COL[colname]] == -1.0)
    assert np.all(feats[:, COL["month_of_year"]] >= -0.5)
    assert np.all(feats[:, COL["day_of_week"]] >= -0.5)


def test_monthly_masks_all_but_month():
    feats = derive_date_features(datetime(2020, 1, 1), "monthly", 24)
    assert np.all(feats[:, COL["day_of_week"]] == -1.0)
    assert np.all(feats[:, COL["hour_of_day"]] == -1.0)
    # month cycles once per year: january -0.5, december 11/12 - 0.5
    assert feats[0, COL["month_of_year"]] == -0.5
    assert feats[11, COL["month_of_year"]] == pytest.approx(11 / 12 - 0.5)
    assert feats[12, COL["month_of_year"]] == -0.5


def test_day_of_week_monday_anchor():
    # 2021-06-07 is a monday
    feats = derive_date_features(datetime(2021, 6, 7), "daily", 7)
    assert feats[0, COL["day_of_week"]] == -0.5
    assert feats[6, COL["day_of_week"]] == pytest.approx(6 / 7 - 0.5)


def test_hour_normalization():
    feats = derive_date_features(datetime(2021, 6, 7, 0, 0), "hourly", 24)
    assert feats[0, COL["hour_of_day"]] == -0.5
    assert feats[23, COL["hour_of_day"]] == pytest.approx(23 / 24 - 0.5)
    assert np.all(feats[:, COL["minute_of_hour"]] == -1.0)


def test_weekly_keeps_weekday_of_period_start():
    feats = derive_date_features(datetime(2021, 6, 9), "weekly", 10)  # a wednesday
    assert np.all(feats[:, COL["day_of_week"]] == pytest.approx(2 / 7 - 0.5))
    assert np.all(feats[:, COL["hour_of_day"]] == -1.0)


def test_second_column_always_masked():
    for g in GRANULARITIES:
        feats = derive_date_features(datetime(2021, 3, 1, 0, 0, 45), g, 8)
        assert np.all(feats[:, COL["second_of_minute"]] == -1.0), g


def test_fifteen_minute_cycle():
    feats = derive_date_features(datetime(2021, 6, 7, 8, 0), "15min", 8)
    minutes = feats[:, COL["minute_of_hour"]]
    assert np.allclose(minutes[:4], [-0.5, 0.25 - 0.5, 0.5 - 0.5, 0.75 - 0.5])
    assert np.allclose(minutes[:4], minutes[4:])


@settings(max_examples=60)
@given(st.sampled_from(GRANULARITIES), st.integers(min_value=0, max_value=5000),
       st.integers(min_value=1, max_value=40))
def test_feature_entries_masked_or_in_range(granularity, offset, length):
    start = advance(datetime(2019, 1, 7, 3, 15), granularity, offset)
    feats = derive_date_features(start, granularity, length)
    masked = feats == -1.0
    in_range = (feats >= -0.5) & (feats <= 0.5)
    assert np.all(masked | in_range)
    assert feats.shape == (length, 5)


def features_by_loop(start, granularity, length):
    """Oracle: one datetime per point, its calendar fields written row by row."""
    relevant = RELEVANT_COLUMNS[granularity]
    out = np.full((length, len(FEATURE_COLUMNS)), -1.0)
    for row in range(length):
        ts = advance(start, granularity, row)
        fields = {"month_of_year": (ts.month - 1) / 12.0, "day_of_week": ts.weekday() / 7.0,
                  "hour_of_day": ts.hour / 24.0, "minute_of_hour": ts.minute / 60.0,
                  "second_of_minute": ts.second / 60.0}
        for name in relevant:
            out[row, COL[name]] = fields[name] - 0.5
    return out


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GRANULARITIES),
       st.datetimes(min_value=datetime(1900, 1, 1), max_value=datetime(2100, 12, 31)),
       st.integers(min_value=0, max_value=300))
def test_features_match_per_timestamp_loop(granularity, start, length):
    got = derive_date_features(start, granularity, length)
    assert np.array_equal(got, features_by_loop(start, granularity, length))


@pytest.mark.parametrize("start", [datetime(1969, 12, 31, 23, 45, 0, 999_999),
                                   datetime(1901, 3, 4, 5, 6, 7, 8),
                                   datetime(2020, 1, 29), datetime(2019, 1, 30, 12),
                                   datetime(2021, 8, 31, 23, 59, 59),
                                   datetime(2021, 3, 28, 0, 30, tzinfo=timezone(timedelta(hours=5)))])
@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_features_match_loop_before_1970_with_microseconds_and_late_month_days(
        start, granularity):
    got = derive_date_features(start, granularity, 2000)
    assert np.array_equal(got, features_by_loop(start, granularity, 2000))


# -- splits ------------------------------------------------------------------------


def test_split_ten_points():
    b = chronological_split(10)
    assert (b.train_end, b.val_end) == (7, 8)


def test_split_wiki_length():
    b = chronological_split(803)
    assert b.train_end == 562
    assert b.val_end == 642
    assert (b.train_end, b.val_end - b.train_end, b.length - b.val_end) == (562, 80, 161)


def test_split_hundred():
    b = chronological_split(100)
    assert (b.train_end, b.val_end) == (70, 80)


def test_split_too_short():
    with pytest.raises(SplitError):
        chronological_split(9)


@given(st.integers(min_value=10, max_value=100_000))
def test_split_partitions_every_length(length):
    b = chronological_split(length)
    assert 0 < b.train_end < b.val_end < length
    assert b.train_end == math.floor(0.7 * length)
    assert b.val_end == math.floor(0.8 * length)
    # contiguous, non-overlapping, covering
    assert (b.train_end - 0) + (b.val_end - b.train_end) + (length - b.val_end) == length


# -- ingest ------------------------------------------------------------------------


def write_csv(path, rows):
    path.write_text("id,timestamp,value\n" + "\n".join(rows) + "\n")


def test_ingest_two_clean_series(tmp_path):
    p = tmp_path / "input.csv"
    rows = [f"a,2021-01-01T{h:02d}:00:00,{float(h)}" for h in range(10)]
    rows += [f"b,2021-02-01T00:00:00,{v}" for v in [5.0]]
    rows[-1] = "b,2021-02-01T00:00:00,5.0"
    rows += [f"b,2021-02-01T{h:02d}:00:00,6.5" for h in range(1, 10)]
    write_csv(p, rows)
    report = ingest_csv(p)
    assert [s.series_id for s in report.corpus.series] == ["a", "b"]
    a = report.corpus.get("a")
    assert a.granularity == "hourly"
    assert a.start == datetime(2021, 1, 1, 0)
    assert np.array_equal(a.values, np.arange(10.0))
    assert report.skipped == []


def test_ingest_refuses_a_file_past_a_quarter_of_the_memory_ceiling(tmp_path, monkeypatch):
    p = tmp_path / "input.csv"
    write_csv(p, [f"s1,2021-01-01T{h:02d}:00:00,1.0" for h in range(10)])
    size = p.stat().st_size
    monkeypatch.setattr(model, "MEMORY_CEILING_BYTES", 4 * size)
    assert len(ingest_csv(p).corpus.series) == 1
    monkeypatch.setattr(model, "MEMORY_CEILING_BYTES", 4 * size - 1)
    with pytest.raises(IngestError, match=f"^reading a CSV file of {size:,} bytes needs "
                                          f".* ceiling; lower the number of rows$"):
        ingest_csv(p)


def test_ingest_gap_skips_and_reports(tmp_path):
    p = tmp_path / "input.csv"
    hours = [0, 1, 2, 4, 5]  # hour 3 missing
    rows = [f"gappy,2021-01-01T{h:02d}:00:00,1.0" for h in hours]
    rows += [f"clean,2021-01-01T{h:02d}:00:00,2.0" for h in range(10)]
    write_csv(p, rows)
    report = ingest_csv(p)
    assert [s.series_id for s in report.corpus.series] == ["clean"]
    assert len(report.skipped) == 1
    assert report.skipped[0][0] == "gappy"
    assert "gap" in report.skipped[0][1]


def test_ingest_skips_a_series_too_short_to_split_after_its_checks(tmp_path):
    p = tmp_path / "input.csv"
    rows = [f"short,2021-01-01T{h:02d}:00:00,1.0" for h in range(9)]
    rows += ["one,2021-01-01T00:00:00,1.0"]  # no stride to check
    rows += [f"ok,2021-01-01T{h:02d}:00:00,2.0" for h in range(10)]
    write_csv(p, rows)
    report = ingest_csv(p)
    assert [s.series_id for s in report.corpus.series] == ["ok"]
    assert report.skipped == [("short", "fewer than 10 points"), ("one", "fewer than 10 points")]
    manifest = report.corpus.manifest()["series"]
    assert [(e["id"], e["train_end"], e["val_end"]) for e in manifest] == [("ok", 7, 8)]
    # a short series whose timestamps are malformed still raises
    write_csv(p, rows + ["bad,2021-01-01T05:00:00,1.0", "bad,2021-01-01T04:00:00,2.0"])
    with pytest.raises(IngestError, match="series bad: timestamps are not strictly increasing"):
        ingest_csv(p)


def test_ingest_declared_granularity_mismatch(tmp_path):
    p = tmp_path / "input.csv"
    write_csv(p, [f"s1,2021-01-01T{h:02d}:00:00,1.0" for h in range(6)])
    with pytest.raises(StrideError, match="s1"):
        ingest_csv(p, granularity="daily")


def test_ingest_bad_value_line_number(tmp_path):
    p = tmp_path / "input.csv"
    write_csv(p, ["s1,2021-01-01T00:00:00,1.0",
                  "s1,2021-01-01T01:00:00,not_a_number"])
    with pytest.raises(IngestError, match="line 3"):
        ingest_csv(p)


def test_ingest_line_numbers_count_the_lines_of_a_quoted_field(tmp_path):
    p = tmp_path / "input.csv"
    write_csv(p, ['"two\nlines",2021-01-01T00:00:00,1.0', "s1,2021-01-01T00:00:00,x"])
    with pytest.raises(IngestError, match="^line 4: bad value 'x'$"):
        ingest_csv(p)


def test_ingest_bad_timestamp_line_number(tmp_path):
    p = tmp_path / "input.csv"
    write_csv(p, ["s1,yesterday,1.0"])
    with pytest.raises(IngestError, match="line 2"):
        ingest_csv(p)


def test_ingest_nan_skips(tmp_path):
    p = tmp_path / "input.csv"
    rows = ["s1,2021-01-01T00:00:00,1.0", "s1,2021-01-01T01:00:00,NaN",
            "s1,2021-01-01T02:00:00,3.0"]
    rows += [f"ok,2021-01-01T{h:02d}:00:00,2.0" for h in range(10)]
    write_csv(p, rows)
    report = ingest_csv(p)
    assert [s.series_id for s in report.corpus.series] == ["ok"]
    assert report.skipped[0][0] == "s1"
    assert "NaN" in report.skipped[0][1]


def test_ingest_infinite_values_skip(tmp_path):
    p = tmp_path / "input.csv"
    rows = ["up,2021-01-01T00:00:00,1.0", "up,2021-01-01T01:00:00,inf"]
    rows += ["down,2021-01-01T00:00:00,-inf", "down,2021-01-01T01:00:00,1.0"]
    rows += [f"ok,2021-01-01T{h:02d}:00:00,2.0" for h in range(10)]
    write_csv(p, rows)
    report = ingest_csv(p)
    assert [s.series_id for s in report.corpus.series] == ["ok"]
    assert report.skipped == [("up", "non-finite values"), ("down", "non-finite values")]


def test_ingest_non_monotonic_raises(tmp_path):
    p = tmp_path / "input.csv"
    write_csv(p, ["s1,2021-01-01T05:00:00,1.0", "s1,2021-01-01T04:00:00,2.0"])
    with pytest.raises(IngestError, match="s1"):
        ingest_csv(p)


def test_ingest_log_transform(tmp_path):
    p = tmp_path / "input.csv"
    write_csv(p, [f"s1,2021-01-01T{h:02d}:00:00,{v}"
                  for h, v in enumerate([0.0, 1.0, 9.0] * 3 + [0.0])])
    report = ingest_csv(p, log_transform=True)
    got = report.corpus.get("s1").values
    assert np.allclose(got, [0.0, math.log(2.0), math.log(10.0)] * 3 + [0.0])


def test_ingest_monthly_calendar_stride(tmp_path):
    p = tmp_path / "input.csv"
    stamps = ["2020-01-31", "2020-02-29", "2020-03-31", "2020-04-30", "2020-05-31",
              "2020-06-30", "2020-07-31", "2020-08-31", "2020-09-30", "2020-10-31"]
    write_csv(p, [f"m,{ts}T00:00:00,1.0" for ts in stamps])
    report = ingest_csv(p)
    assert report.corpus.get("m").granularity == "monthly"


@pytest.mark.parametrize("granularity, stamps", [
    ("hourly", ["2021-01-01T00:00:00", "2021-01-01T01:00:00", "2021-01-01T02:30:00"]),
    ("monthly", ["2020-01-15T00:00:00", "2020-02-14T00:00:00", "2020-03-15T00:00:00"]),
])
def test_ingest_stamps_off_the_grid_raise_stride_error(tmp_path, granularity, stamps):
    p = tmp_path / "input.csv"
    write_csv(p, [f"h,{ts},1.0" for ts in stamps])
    with pytest.raises(StrideError, match=f"^series h: timestamps do not sit on a {granularity} "
                                          f"grid$"):
        ingest_csv(p)


def test_ingest_monthly_stamps_that_skip_a_month_are_a_gap(tmp_path):
    # month ends: February's is the 29th, and March is missing
    p = tmp_path / "input.csv"
    rows = [f"m,{ts}T00:00:00,1.0" for ts in ["2020-01-31", "2020-02-29", "2020-04-30"]]
    write_csv(p, rows + [f"ok,2021-01-01T{h:02d}:00:00,2.0" for h in range(10)])
    report = ingest_csv(p)
    assert [s.series_id for s in report.corpus.series] == ["ok"]
    assert report.skipped == [("m", "missing timestamps (gaps)")]


def test_ingest_z_suffix_timestamps(tmp_path):
    p = tmp_path / "input.csv"
    write_csv(p, [f"s1,2021-01-01T{h:02d}:00:00Z,1.0" for h in range(10)])
    assert ingest_csv(p).corpus.get("s1").start == datetime(2021, 1, 1, 0)


def test_ingest_header_required(tmp_path):
    p = tmp_path / "input.csv"
    p.write_text("time,val\n1,2\n")
    with pytest.raises(IngestError, match="line 1"):
        ingest_csv(p)


def test_ingest_timestamp_outside_utc_years_names_its_line(tmp_path):
    p = tmp_path / "input.csv"
    write_csv(p, ["s1,2021-01-01T00:00:00,1.0", "s1,0001-01-01T00:00:00+01:00,1.0"])
    with pytest.raises(IngestError, match="line 3: bad timestamp .* date value out of range"):
        ingest_csv(p)


def test_ingest_field_past_the_csv_limit_names_its_line(tmp_path):
    p = tmp_path / "input.csv"
    write_csv(p, ["s1,2021-01-01T00:00:00,1.0", "s1,2021-01-01T01:00:00," + "1" * 131_073])
    with pytest.raises(IngestError, match=r"^line 3: field larger than field limit \(131072\)$"):
        ingest_csv(p)


def test_ingest_bytes_that_are_not_utf8_raise_ingest_error(tmp_path):
    p = tmp_path / "input.csv"
    p.write_bytes(b"id,timestamp,value\ns\xe9,2021-03-01T00:00:00,1.0\n")
    with pytest.raises(IngestError) as err:
        ingest_csv(p)
    assert str(err.value) == "not UTF-8 (byte 0xe9: invalid continuation byte)"


# -- synthetic corpus ----------------------------------------------------------------


def small_spec(**kw):
    base = dict(
        pretrain=[FamilySpec(name="short", granularity="hourly", n_series=4,
                             length_range=(120, 160), period_range=(12.0, 24.0)),
                  FamilySpec(name="long", granularity="hourly", n_series=4,
                             length_range=(120, 160), period_range=(48.0, 96.0))],
        holdout=[FamilySpec(name="mid", granularity="hourly", n_series=3,
                            length_range=(120, 160), period_range=(28.0, 44.0))],
    )
    base.update(kw)
    return GeneratorSpec(**base)


def test_synth_counts_and_lengths():
    pair = synth_corpus(small_spec(), seed=0)
    assert len(pair.pretrain) == 8
    assert len(pair.holdout) == 3
    for s in pair.pretrain.series + pair.holdout.series:
        assert 120 <= len(s) <= 160
        assert s.granularity == "hourly"


def test_synth_deterministic_by_seed():
    a = synth_corpus(small_spec(), seed=7)
    b = synth_corpus(small_spec(), seed=7)
    c = synth_corpus(small_spec(), seed=8)
    for s, t in zip(a.pretrain.series, b.pretrain.series):
        assert s.series_id == t.series_id
        assert np.array_equal(s.values, t.values)
        assert s.start == t.start
    assert any(not np.array_equal(s.values, t.values)
               for s, t in zip(a.pretrain.series, c.pretrain.series))


def test_synth_band_overlap_rejected():
    with pytest.raises(GeneratorSpecError, match="overlap"):
        small_spec(holdout=[FamilySpec(name="bad", granularity="hourly",
                                       period_range=(20.0, 30.0))])
    # same band on a different granularity is fine
    small_spec(holdout=[FamilySpec(name="ok", granularity="daily",
                                   period_range=(20.0, 30.0))])


def test_synth_empty_spec_rejected():
    with pytest.raises(GeneratorSpecError):
        GeneratorSpec(pretrain=[], holdout=[])


@pytest.mark.parametrize("field,value", [("length_range", (10, 10**12)), ("n_series", 10**9)])
def test_synth_corpus_past_the_memory_ceiling_names_the_field(field, value):
    big = FamilySpec(name="big", granularity="daily", **{field: value})
    spec = GeneratorSpec(pretrain=[FamilySpec(name="small", granularity="hourly"), big])
    with pytest.raises(GeneratorSpecError, match=f"ceiling; lower n_series .* of family 'big'"):
        synth_corpus(spec, seed=0)


@pytest.mark.parametrize("fields,cause", [
    ({"noise_level": 1e308}, "non-finite values"),
    ({"amplitude_range": (1e308, 1e308), "n_components": 2}, "non-finite values"),
    ({"period_range": (5e-324, 5e-324)}, "non-finite values"),
    ({"kind": "seasonal_dummy", "amplitude_range": (-2.0, -1.0)}, "scale < 0"),
], ids=["noise", "amplitude", "period", "negative_scale"])
def test_synth_family_that_cannot_give_finite_series_names_it(fields, cause, recwarn):
    spec = GeneratorSpec(pretrain=[FamilySpec(name="wild", n_series=1, length_range=(40, 40),
                                              **fields)])
    with pytest.raises(GeneratorSpecError, match=f"^family 'wild': .*{cause}"):
        synth_corpus(spec, seed=0)
    assert not recwarn.list  # numpy's overflow warnings stay off stderr


def test_seasonal_dummy_is_periodic_without_noise():
    spec = GeneratorSpec(pretrain=[FamilySpec(
        name="sd", kind="seasonal_dummy", granularity="daily", n_series=2,
        length_range=(100, 100), period_range=(7, 7), noise_level=0.0)])
    pair = synth_corpus(spec, seed=3)
    v = pair.pretrain.series[0].values
    assert np.array_equal(v[:7], v[7:14])
    assert len(set(np.round(v[:7], 12))) > 1


def test_seasonal_dummy_period_past_the_length_draws_a_profile_of_the_length():
    # a 1e14-entry profile is past any memory; a 40-point series uses 40 entries
    spec = GeneratorSpec(pretrain=[FamilySpec(
        name="wide", kind="seasonal_dummy", n_series=3, length_range=(40, 40),
        period_range=(1e14, 1e14), noise_level=0.0)])
    series = synth_corpus(spec, seed=0).pretrain.series
    assert [len(s) for s in series] == [40, 40, 40]
    assert all(np.isfinite(s.values).all() for s in series)


def test_seasonal_dummy_series_whose_period_fits_keep_their_values():
    # periods 2-60 against lengths 60-400: every profile fits its series, so the
    # values are those the generator gave before profiles were cut to the length
    spec = GeneratorSpec(pretrain=[FamilySpec(
        name="sd", kind="seasonal_dummy", granularity="daily", n_series=20,
        length_range=(60, 400), period_range=(2.0, 60.0), trend="piecewise")])
    digest = hashlib.sha256()
    for s in synth_corpus(spec, seed=4).pretrain.series:
        digest.update(s.values.tobytes())
    assert digest.hexdigest() == (
        "fc16b00bb20596ad3e1bc34620e8fc5247eb068492b86aa1a96d6631103be7f3")


def test_piecewise_trend_is_a_continuous_ramp_with_slopes_in_drift_range():
    # no amplitude, level or noise: each series is its ramp alone
    family = FamilySpec(name="kinked", n_series=6, length_range=(200, 260),
                        amplitude_range=(0.0, 0.0), trend="piecewise",
                        drift_range=(-3.0, 5.0), noise_level=0.0)
    spec = GeneratorSpec(pretrain=[family])
    pair = synth_corpus(spec, seed=11)
    for s in pair.pretrain.series:
        n = len(s)
        slopes = np.diff(s.values) * (n - 1)  # each step as a drift over the whole series
        before, after = slopes[0], slopes[-1]
        assert -3.0 <= before <= 5.0 and -3.0 <= after <= 5.0
        knee = int(np.argmax(~np.isclose(slopes, before, rtol=0.0, atol=1e-9)))
        assert n // 4 <= knee <= 3 * n // 4 and abs(after - before) > 1e-6
        # one slope up to the knee and the other after it: a jump would break the second
        assert np.allclose(slopes[:knee], before, rtol=0.0, atol=1e-9)
        assert np.allclose(slopes[knee:], after, rtol=0.0, atol=1e-9)
        assert s.values[0] == 0.0
    again = synth_corpus(spec, seed=11)
    assert all(np.array_equal(a.values, b.values)
               for a, b in zip(pair.pretrain.series, again.pretrain.series))
    other = synth_corpus(spec, seed=12)
    assert not np.array_equal(pair.pretrain.series[0].values, other.pretrain.series[0].values)


def test_generator_spec_round_trip():
    spec = small_spec()
    again = GeneratorSpec.from_dict(spec.to_dict())
    assert again.to_dict() == spec.to_dict()
    with pytest.raises(GeneratorSpecError, match="unknown"):
        GeneratorSpec.from_dict({"pretrain": [], "bogus": 1})


def test_manifest_structure():
    pair = synth_corpus(small_spec(), seed=1)
    manifest = pair.pretrain.manifest()
    assert manifest["num_series"] == 8
    entry = manifest["series"][0]
    assert set(entry) == {"id", "granularity", "start", "length", "train_end", "val_end"}
    assert entry["train_end"] == math.floor(0.7 * entry["length"])


def test_corpus_rejects_duplicate_ids():
    s = TimeSeries("x", "daily", datetime(2020, 1, 1), np.arange(20.0))
    t = TimeSeries("x", "daily", datetime(2020, 1, 1), np.arange(20.0))
    with pytest.raises(ValueError, match="duplicate"):
        Corpus([s, t])


# -- window sampling ------------------------------------------------------------------


def make_corpus(granularity="hourly", n=6, length=200):
    series = [TimeSeries(f"s{i}", granularity, datetime(2020, 1, 6),
                         np.random.default_rng(i).standard_normal(length))
              for i in range(n)]
    return Corpus(series)


def test_window_length_rule():
    # cap 64, h 8: a 70-point span cannot give the full 72
    assert window_length(70, 64, 8) == 70
    assert window_length(200, 64, 8) == 72
    assert window_length(2000, 512, 8) == 520


def test_sampling_single_granularity_mixture():
    corpus = make_corpus()
    rng = np.random.default_rng(0)
    windows = sample_training_windows(corpus, {"hourly": 1.0}, 8, rng,
                                      input_patch_len=4, output_patch_len=8)
    assert len(windows) == 8
    for w in windows:
        assert w.granularity == "hourly"
        assert w.values.shape == w.features[:, 0].shape
        assert w.features.shape[1] == 5


def test_sampling_stays_in_train_split():
    corpus = make_corpus(length=200)  # train_end = 140
    rng = np.random.default_rng(1)
    for _ in range(50):
        for w in sample_training_windows(corpus, {"hourly": 1.0}, 4, rng,
                                         input_patch_len=4, output_patch_len=8):
            assert w.start >= 0
            assert w.start + len(w.values) <= 140


def test_sampling_window_length_capped():
    corpus = make_corpus(granularity="monthly", length=103)  # train_end = 72, cap 64
    rng = np.random.default_rng(2)
    windows = sample_training_windows(corpus, {"monthly": 1.0}, 4, rng,
                                      input_patch_len=4, output_patch_len=8)
    assert all(len(w.values) == 72 for w in windows)
    long_corpus = make_corpus(granularity="monthly", length=400)  # train 280 > 72
    windows = sample_training_windows(long_corpus, {"monthly": 1.0}, 4, rng,
                                      input_patch_len=4, output_patch_len=8)
    assert all(len(w.values) == 72 for w in windows)


def test_sampling_deterministic_for_fixed_rng_state():
    corpus = make_corpus()
    seed_key = lambda step: np.random.default_rng(
        np.random.SeedSequence(entropy=123, spawn_key=(1, step)))
    a = sample_training_windows(corpus, {"hourly": 1.0}, 6, seed_key(5),
                                input_patch_len=4, output_patch_len=8)
    b = sample_training_windows(corpus, {"hourly": 1.0}, 6, seed_key(5),
                                input_patch_len=4, output_patch_len=8)
    c = sample_training_windows(corpus, {"hourly": 1.0}, 6, seed_key(6),
                                input_patch_len=4, output_patch_len=8)
    for wa, wb in zip(a, b):
        assert wa.series_id == wb.series_id and wa.start == wb.start
    assert any(wa.series_id != wc.series_id or wa.start != wc.start
               for wa, wc in zip(a, c))


def test_mixture_frequencies_converge():
    series = (make_corpus("hourly", n=3).series
              + make_corpus("daily", n=3).series
              + make_corpus("weekly", n=3).series)
    for i, s in enumerate(series):
        s.series_id = f"u{i}"
    corpus = Corpus(series)
    mixture = {"hourly": 0.5, "daily": 0.3, "weekly": 0.2}
    rng = np.random.default_rng(42)
    draws = 10_000
    counts = {g: 0 for g in mixture}
    for _ in range(draws):
        w = sample_training_windows(corpus, mixture, 1, rng,
                                    input_patch_len=4, output_patch_len=8)[0]
        counts[w.granularity] += 1
    for g, p in mixture.items():
        se = math.sqrt(p * (1 - p) / draws)
        assert abs(counts[g] / draws - p) <= 3 * se, (g, counts[g] / draws)


def test_default_mixture_equal_weights():
    series = make_corpus("hourly", n=2).series + make_corpus("monthly", n=2, length=120).series
    for i, s in enumerate(series):
        s.series_id = f"v{i}"
    corpus = Corpus(series)
    mix = default_mixture(corpus, 4, 8)
    assert mix == {"hourly": 0.5, "monthly": 0.5}


def test_eligible_series_threshold():
    short = TimeSeries("tiny", "hourly", datetime(2020, 1, 6), np.arange(14.0))
    # train_end = floor(0.7*14) = 9 < 4 + 8
    assert Corpus([short]).training_pools(4, 8) == {}
    fits = TimeSeries("fits", "hourly", datetime(2020, 1, 6), np.arange(18.0))
    # train_end = floor(0.7*18) = 12 = 4 + 8
    assert Corpus([short, fits]).training_pools(4, 8) == {"hourly": [(fits, 12)]}


def reference_sample(corpus, mixture, batch_size, rng, *, input_patch_len, output_patch_len):
    """``sample_training_windows`` as it was before the pools were kept per
    corpus: every call splits every series again."""
    pools = {}
    for s in corpus.series:
        if len(s) >= 10 and s.split().train_end >= input_patch_len + output_patch_len:
            pools.setdefault(s.granularity, []).append(s)
    names = [g for g, w in sorted(mixture.items()) if w > 0]
    weights = [w for g, w in sorted(mixture.items()) if w > 0]
    gran = names[int(rng.choice(len(names), p=np.array(weights) / sum(weights)))]
    pool = pools[gran]
    picks = [pool[int(i)] for i in rng.integers(0, len(pool), size=batch_size)]
    w_len = min(window_length(s.split().train_end, CONTEXT_CAPS[gran], output_patch_len)
                for s in picks)
    out = []
    for s in picks:
        start = int(rng.integers(0, s.split().train_end - w_len + 1))
        out.append((s.series_id, gran, start, s.values[start:start + w_len],
                    s.date_features()[start:start + w_len]))
    return out


def test_sampling_from_kept_pools_draws_the_reference_windows():
    # lengths 14 (no window at p=4, h=8), 30 and 90 (shorter than every cap) and 900
    series = [TimeSeries(f"{g}-{i}", g, datetime(2020, 1, 6),
                         np.random.default_rng(i).standard_normal(length))
              for g in GRANULARITIES for i, length in enumerate((14, 30, 90, 900))]
    corpus = Corpus(series)
    mixtures = [default_mixture(corpus, 4, 8), {"hourly": 1.0},
                {"daily": 0.2, "monthly": 0.8, "weekly": 0.0}]
    for mixture in mixtures:
        for seed in range(5):
            for batch_size, p, h in ((1, 4, 8), (7, 4, 8), (32, 8, 16)):
                kw = dict(input_patch_len=p, output_patch_len=h)
                rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
                got = sample_training_windows(corpus, mixture, batch_size, rng_a, **kw)
                want = reference_sample(corpus, mixture, batch_size, rng_b, **kw)
                assert len(got) == len(want)
                for w, (sid, gran, start, values, features) in zip(got, want):
                    assert (w.series_id, w.granularity, w.start) == (sid, gran, start)
                    assert np.array_equal(w.values, values)
                    assert np.array_equal(w.features, features)
                # the same number of draws: both generators stand at one state
                assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_series_validation():
    with pytest.raises(ValueError):
        TimeSeries("bad", "hourly", datetime(2020, 1, 1), np.array([1.0]))
    with pytest.raises(ValueError, match=">= 10 values"):  # too short to split
        TimeSeries("bad", "hourly", datetime(2020, 1, 1), np.arange(9.0))
    with pytest.raises(ValueError, match="non-finite"):
        TimeSeries("bad", "hourly", datetime(2020, 1, 1), np.r_[np.arange(9.0), np.nan])
    with pytest.raises(ValueError):
        TimeSeries("bad", "secondly", datetime(2020, 1, 1), np.arange(10.0))


def test_date_features_cached():
    s = TimeSeries("c", "daily", datetime(2020, 1, 6), np.arange(30.0))
    assert s.date_features() is s.date_features()
