"""Corpus handling: series containers, calendar features, CSV ingest,
synthetic corpus generation, chronological splits, and training-window
sampling.

A series is univariate, regularly sampled at one of five granularities
(15min, hourly, daily, weekly, monthly), and carries its start timestamp so
calendar features can be derived on demand. Splits are chronological
70/10/20 by position. Window sampling draws one granularity per batch from
a mixture, then rectangular windows from the train split only.
"""

from __future__ import annotations

import calendar
import csv
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

import numpy as np

from .model import FEATURE_COLUMNS, MASKED, check_fields, check_memory, config_fields

GRANULARITIES = ("15min", "hourly", "daily", "weekly", "monthly")

STRIDE_SECONDS = {"15min": 900, "hourly": 3600, "daily": 86400, "weekly": 604800}

# longest context the model is fed, per granularity
CONTEXT_CAPS = {"15min": 512, "hourly": 512, "daily": 512, "weekly": 256, "monthly": 64}

# columns finer than the sampling granularity stay masked at -1
RELEVANT_COLUMNS = {
    "15min": ("month_of_year", "day_of_week", "hour_of_day", "minute_of_hour"),
    "hourly": ("month_of_year", "day_of_week", "hour_of_day"),
    "daily": ("month_of_year", "day_of_week"),
    "weekly": ("month_of_year", "day_of_week"),
    "monthly": ("month_of_year",),
}


class IngestError(ValueError):
    """Malformed CSV content; message carries the offending line number."""


class StrideError(IngestError):
    """Observed timestamp stride contradicts the declared granularity."""


class SplitError(ValueError):
    """Series too short for a 70/10/20 chronological split."""


class GeneratorSpecError(ValueError):
    """Synthetic corpus specification is empty or self-contradictory."""


class SamplingError(ValueError):
    """Window sampling cannot honor the mixture over this corpus."""


def advance(ts: datetime, granularity: str, steps: int = 1) -> datetime:
    """Move a timestamp forward by whole sampling periods.

    Monthly advances by calendar months with the day clamped to the target
    month's length; every other granularity is a fixed number of seconds.
    """
    if granularity == "monthly":
        total = ts.month - 1 + steps
        year, month = ts.year + total // 12, total % 12 + 1
        day = min(ts.day, calendar.monthrange(year, month)[1])
        return ts.replace(year=year, month=month, day=day)
    return ts + timedelta(seconds=STRIDE_SECONDS[granularity] * steps)


# column -> (datetime64 unit counted from the epoch, that count's offset, period);
# 1970-01-01 was a Thursday, weekday 3
CALENDAR_UNITS = {"month_of_year": ("M", 0, 12), "day_of_week": ("D", 3, 7),
                  "hour_of_day": ("h", 0, 24), "minute_of_hour": ("m", 0, 60)}


def derive_date_features(start: datetime, granularity: str, length: int) -> np.ndarray:
    """Per-point calendar features, shape [length, 5].

    Each relevant column is the raw calendar value divided by its period
    minus 0.5 (month uses month-1 over 12); columns finer than the
    granularity are -1 everywhere, and ``second_of_minute`` is masked at
    every supported granularity. Every entry is therefore exactly -1 or
    inside [-0.5, 0.5].
    """
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")
    out = np.full((length, len(FEATURE_COLUMNS)), MASKED)
    steps = np.arange(length)
    if granularity == "monthly":  # month is its only column, so advance's day clamp never shows
        out[:, 0] = (start.month - 1 + steps) % 12 / 12.0 - 0.5
        return out
    # wall-clock fields, as datetime + timedelta gives them for an aware start
    stamps = (np.datetime64(start.replace(tzinfo=None), "us")
              + steps * np.timedelta64(STRIDE_SECONDS[granularity], "s"))
    for name in RELEVANT_COLUMNS[granularity]:
        unit, offset, period = CALENDAR_UNITS[name]
        count = stamps.astype(f"datetime64[{unit}]").astype(np.int64) + offset
        out[:, FEATURE_COLUMNS.index(name)] = count % period / period - 0.5
    return out


@dataclass
class TimeSeries:
    series_id: str
    granularity: str
    start: datetime
    values: np.ndarray

    def __post_init__(self):
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {self.granularity!r} for {self.series_id}")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValueError(f"series {self.series_id} needs >= 2 values in one dimension")
        if not np.isfinite(self.values).all():
            raise ValueError(f"series {self.series_id} contains non-finite values")
        self._features: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.values.size)

    def date_features(self) -> np.ndarray:
        if self._features is None:
            self._features = derive_date_features(self.start, self.granularity, len(self))
        return self._features

    def split(self) -> "SplitBounds":
        return chronological_split(len(self))


# -- chronological splits ------------------------------------------------------


@dataclass(frozen=True)
class SplitBounds:
    """Half-open index ranges: train [0, train_end), val [train_end, val_end),
    test [val_end, length)."""

    train_end: int
    val_end: int
    length: int


MIN_SPLIT_LENGTH = 10  # fewest points chronological_split accepts


def chronological_split(length: int) -> SplitBounds:
    """70/10/20 in time order; boundaries floor(0.7 L) and floor(0.8 L)."""
    if length < MIN_SPLIT_LENGTH:
        raise SplitError(f"need at least {MIN_SPLIT_LENGTH} points to split, got {length}")
    return SplitBounds(math.floor(0.7 * length), math.floor(0.8 * length), length)


# -- corpus ----------------------------------------------------------------------


# granularity -> [(series, its train_end)] of the series that can give a training window
TrainingPools = dict[str, list[tuple[TimeSeries, int]]]


@dataclass
class Corpus:
    series: list[TimeSeries]

    def __post_init__(self):
        seen = set()
        for s in self.series:
            if s.series_id in seen:
                raise ValueError(f"duplicate series id {s.series_id!r}")
            seen.add(s.series_id)
        self._pools: dict[tuple[int, int], TrainingPools] = {}

    def __len__(self) -> int:
        return len(self.series)

    def training_pools(self, patch_len: int, horizon: int) -> TrainingPools:
        """Per granularity, the series whose train split fits at least one
        patch and its target, each with its ``train_end``.

        Computed once per (patch_len, horizon) and kept, so the series list
        must not change after the first call.
        """
        key = (patch_len, horizon)
        if key not in self._pools:
            pools: TrainingPools = {}
            for s in self.series:
                if len(s) >= MIN_SPLIT_LENGTH and (end := s.split().train_end) >= patch_len + horizon:
                    pools.setdefault(s.granularity, []).append((s, end))
            self._pools[key] = pools
        return self._pools[key]

    def get(self, series_id: str) -> TimeSeries:
        for s in self.series:
            if s.series_id == series_id:
                return s
        raise KeyError(series_id)

    def manifest(self) -> dict:
        entries = []
        for s in self.series:
            bounds = s.split() if len(s) >= MIN_SPLIT_LENGTH else None
            entries.append({
                "id": s.series_id,
                "granularity": s.granularity,
                "start": s.start.isoformat(),
                "length": len(s),
                "train_end": bounds.train_end if bounds else None,
                "val_end": bounds.val_end if bounds else None,
            })
        return {"num_series": len(self.series), "series": entries}


# -- CSV ingest --------------------------------------------------------------------


@dataclass
class IngestReport:
    corpus: Corpus
    skipped: list[tuple[str, str]]  # (series_id, reason)


def parse_timestamp(text: str) -> datetime:
    """ISO-8601 `text` as naive UTC, blanks and a trailing Z or z allowed; else
    ValueError, or OverflowError for a stamp outside the years 1-9999 in UTC."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    return ts


def _detect_granularity(ts: list[datetime], series_id: str) -> str:
    deltas = [(b - a).total_seconds() for a, b in zip(ts, ts[1:])]
    base = min(deltas)
    for name, seconds in STRIDE_SECONDS.items():
        if base == seconds:
            return name
    if 28 * 86400 <= base <= 31 * 86400:
        return "monthly"
    raise StrideError(f"series {series_id}: observed stride {base}s matches no supported granularity")


def _grid_index(ts: list[datetime], granularity: str) -> list[int] | None:
    """Map timestamps to positions on the exact sampling grid anchored at ts[0].

    Returns None when some timestamp falls off the grid (stride violation);
    positions with holes mean missing rows (a gap, reported by the caller).
    """
    if granularity == "monthly":
        positions = []
        for t in ts:
            months = (t.year - ts[0].year) * 12 + (t.month - ts[0].month)
            if advance(ts[0], "monthly", months) != t:  # months >= 0: ts strictly increase
                return None
            positions.append(months)
        return positions
    stride = STRIDE_SECONDS[granularity]
    positions = []
    for t in ts:
        pos, rem = divmod((t - ts[0]).total_seconds(), stride)
        if rem != 0:
            return None
        positions.append(int(pos))
    return positions


def ingest_csv(path, granularity: str | None = None, log_transform: bool = False) -> IngestReport:
    """Read an ``id,timestamp,value`` CSV into a corpus.

    Timestamps are ISO-8601 and must advance by exactly one granularity
    stride; series with missing rows, NaN or infinite values are skipped
    and reported, and any other fault in the file's content raises IngestError.
    So does a file of more than a quarter of MEMORY_CEILING_BYTES, before it
    is read. ``granularity``, when given, is enforced against the observed stride.
    ``log_transform`` stores log1p(value) for heavy-tailed sources.
    """
    rows: dict[str, list[tuple[datetime, float]]] = {}  # series in first-seen order
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            # the rows read as Python objects peak at about 4x the file (traced, 200k rows)
            size = os.fstat(fh.fileno()).st_size
            check_memory(4 * size, f"reading a CSV file of {size:,} bytes",
                         "the number of rows", IngestError)
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip().lower() for c in header] != ["id", "timestamp", "value"]:
                raise IngestError(f"line 1: expected header id,timestamp,value, got {header}")
            for row in reader:
                line_no = reader.line_num  # a quoted field may span lines
                if not row:
                    continue
                if len(row) != 3:
                    raise IngestError(f"line {line_no}: expected 3 columns, got {len(row)}")
                sid = row[0].strip()
                if not sid:
                    raise IngestError(f"line {line_no}: empty series id")
                try:
                    ts = parse_timestamp(row[1])
                except (ValueError, OverflowError) as err:
                    raise IngestError(f"line {line_no}: bad timestamp {row[1]!r}: {err}") from err
                try:
                    value = float(row[2])
                except ValueError as err:
                    raise IngestError(f"line {line_no}: bad value {row[2]!r}") from err
                rows.setdefault(sid, []).append((ts, value))
    except UnicodeDecodeError as err:
        raise IngestError(f"not UTF-8 (byte 0x{err.object[err.start]:02x}: {err.reason})") from err
    except csv.Error as err:  # say a field past csv.field_size_limit()
        raise IngestError(f"line {reader.line_num}: {err}") from err

    series: list[TimeSeries] = []
    skipped: list[tuple[str, str]] = []
    for sid, points in rows.items():
        stamps = [p[0] for p in points]
        values = np.array([p[1] for p in points])
        if len(points) < 2:
            skipped.append((sid, "fewer than 2 rows"))
            continue
        if any(b <= a for a, b in zip(stamps, stamps[1:])):
            raise IngestError(f"series {sid}: timestamps are not strictly increasing")
        observed = _detect_granularity(stamps, sid)
        if granularity is not None and granularity != observed:
            raise StrideError(
                f"series {sid}: declared granularity {granularity!r} but observed stride is {observed!r}")
        positions = _grid_index(stamps, observed)
        if positions is None:
            raise StrideError(f"series {sid}: timestamps do not sit on a {observed} grid")
        if positions != list(range(len(stamps))):
            skipped.append((sid, "missing timestamps (gaps)"))
            continue
        if not np.isfinite(values).all():
            skipped.append((sid, "NaN values" if np.isnan(values).any() else "non-finite values"))
            continue
        if log_transform:
            if (values <= -1.0).any():
                raise IngestError(f"series {sid}: log transform needs values > -1")
            values = np.log1p(values)
        series.append(TimeSeries(sid, observed, stamps[0], values))
    return IngestReport(corpus=Corpus(series), skipped=skipped)


# -- synthetic corpus ----------------------------------------------------------------


BASE_START = {
    "15min": datetime(2019, 1, 7, 0, 0, 0),
    "hourly": datetime(2019, 1, 7, 0, 0, 0),
    "daily": datetime(2017, 1, 2, 0, 0, 0),
    "weekly": datetime(2015, 1, 5, 0, 0, 0),
    "monthly": datetime(2005, 1, 1, 0, 0, 0),
}


@dataclass
class FamilySpec:
    """One parameter family of synthetic series."""

    name: str
    granularity: str = "hourly"
    kind: str = "sinusoid"  # or "seasonal_dummy"
    n_series: int = 10
    length_range: tuple[int, int] = (400, 600)
    period_range: tuple[float, float] = (16.0, 48.0)
    n_components: int = 1
    amplitude_range: tuple[float, float] = (0.5, 1.5)
    trend: str = "none"  # "none" | "linear" | "piecewise"
    drift_range: tuple[float, float] = (0.0, 0.0)  # total drift over the series
    level_range: tuple[float, float] = (0.0, 0.0)
    noise_level: float = 0.05

    def __post_init__(self):
        where = f"family {self.name!r}: "
        check_fields(self, GeneratorSpecError, {"n_series": 1, "length_range": MIN_SPLIT_LENGTH,
                                                "n_components": 1, "noise_level": 0}, where)
        for name, allowed in (("granularity", GRANULARITIES), ("kind", ("sinusoid", "seasonal_dummy")),
                              ("trend", ("none", "linear", "piecewise"))):
            if getattr(self, name) not in allowed:
                raise GeneratorSpecError(f"{where}unknown {name} {getattr(self, name)!r}")
        if self.length_range[0] > self.length_range[1]:
            raise GeneratorSpecError(f"{where}bad length_range {self.length_range}")
        if not (0 < self.period_range[0] <= self.period_range[1]):
            raise GeneratorSpecError(f"{where}bad period_range {self.period_range}")

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}

    @classmethod
    def from_dict(cls, d: dict) -> "FamilySpec":
        # a left-out name reaches check_fields as None, which it names
        kw = {"name": None, **config_fields(cls, d, GeneratorSpecError, "family spec")}
        return cls(**{k: tuple(v) if k.endswith("_range") and isinstance(v, list) else v
                      for k, v in kw.items()})


@dataclass
class GeneratorSpec:
    """Pretrain and zero-shot holdout families; their period bands must not
    overlap within a (kind, granularity) pair, so holdout dynamics are
    genuinely unseen."""

    pretrain: list[FamilySpec] = field(default_factory=list)
    holdout: list[FamilySpec] = field(default_factory=list)

    def __post_init__(self):
        if not self.pretrain:
            raise GeneratorSpecError("generator spec has no pretrain families")
        for a in self.pretrain:
            for b in self.holdout:
                if a.kind != b.kind or a.granularity != b.granularity:
                    continue
                lo_a, hi_a = a.period_range
                lo_b, hi_b = b.period_range
                if lo_b <= hi_a and lo_a <= hi_b:
                    raise GeneratorSpecError(
                        f"holdout family {b.name} period band {b.period_range} overlaps "
                        f"pretrain family {a.name} band {a.period_range}")

    def to_dict(self) -> dict:
        return {"pretrain": [f.to_dict() for f in self.pretrain],
                "holdout": [f.to_dict() for f in self.holdout]}

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorSpec":
        d = config_fields(cls, d, GeneratorSpecError, "generator spec")
        for role, families in d.items():
            if not isinstance(families, list):
                raise GeneratorSpecError(f"generator spec {role} must be a list, got {families!r}")
        return cls(**{role: [FamilySpec.from_dict(x) for x in families]
                      for role, families in d.items()})


@dataclass
class CorpusPair:
    pretrain: Corpus
    holdout: Corpus


def _generate_series(spec: FamilySpec, role: str, index: int, rng: np.random.Generator) -> TimeSeries:
    length = int(rng.integers(spec.length_range[0], spec.length_range[1] + 1))
    t = np.arange(length, dtype=np.float64)
    values = np.zeros(length)
    if spec.kind == "sinusoid":
        for _ in range(spec.n_components):
            period = rng.uniform(*spec.period_range)
            amp = rng.uniform(*spec.amplitude_range)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            values += amp * np.sin(2.0 * math.pi * t / period + phase)
    else:  # seasonal_dummy: a fixed random profile repeated every period
        # a period past the length draws only the profile entries the series uses
        period = min(max(int(round(rng.uniform(*spec.period_range))), 2), length)
        amp = rng.uniform(*spec.amplitude_range)
        profile = rng.normal(0.0, amp, size=period)
        values += profile[(np.arange(length) % period)]
    if spec.trend == "linear":
        drift = rng.uniform(*spec.drift_range)
        values += drift * t / max(length - 1, 1)
    elif spec.trend == "piecewise":
        knee = int(rng.integers(length // 4, 3 * length // 4 + 1))
        d1 = rng.uniform(*spec.drift_range)
        d2 = rng.uniform(*spec.drift_range)
        ramp = np.where(t <= knee, d1 * t / max(length - 1, 1),
                        d1 * knee / max(length - 1, 1) + d2 * (t - knee) / max(length - 1, 1))
        values += ramp
    values += rng.uniform(*spec.level_range)
    if spec.noise_level > 0:
        values += rng.normal(0.0, spec.noise_level, size=length)
    start = advance(BASE_START[spec.granularity], spec.granularity, int(rng.integers(0, 64)))
    return TimeSeries(f"{role}-{spec.name}-{index:04d}", spec.granularity, start, values)


def synth_corpus(spec: GeneratorSpec, seed: int) -> CorpusPair:
    """Deterministically generate the pretrain and holdout corpora.

    GeneratorSpecError if their points and calendar features could pass
    MEMORY_CEILING_BYTES, or if a family gives a series non-finite values.
    """
    families = spec.pretrain + spec.holdout
    point_bytes = 8 * (1 + len(FEATURE_COLUMNS))
    largest = max(families, key=lambda f: f.n_series * f.length_range[1])
    check_memory(point_bytes * sum(f.n_series * f.length_range[1] for f in families),
                 "the corpus (series points and calendar features)",
                 f"n_series ({largest.n_series}) or length_range ({largest.length_range[1]} "
                 f"points at most) of family {largest.name!r}", GeneratorSpecError)
    out: dict[str, list[TimeSeries]] = {"pretrain": [], "holdout": []}
    roles = enumerate((("pretrain", spec.pretrain), ("holdout", spec.holdout)))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing family is refused below
        for role_idx, (role, families) in roles:
            for fam_idx, fam in enumerate(families):
                for i in range(fam.n_series):
                    rng = np.random.default_rng(
                        np.random.SeedSequence(entropy=seed, spawn_key=(role_idx, fam_idx, i)))
                    try:
                        out[role].append(_generate_series(fam, role, i, rng))
                    except ValueError as err:  # non-finite values; a negative dummy scale
                        raise GeneratorSpecError(f"family {fam.name!r}: {err}") from err
    return CorpusPair(pretrain=Corpus(out["pretrain"]), holdout=Corpus(out["holdout"]))


# -- training-window sampling -----------------------------------------------------------


@dataclass
class TrainingWindow:
    series_id: str
    granularity: str
    start: int  # offset into the series' train split
    values: np.ndarray  # length W
    features: np.ndarray  # [W, 5]


def window_length(available: int, cap: int, horizon: int) -> int:
    """Longest usable window: context cap plus one full target, clamped to
    what the series actually offers."""
    return min(cap + horizon, available)


def default_mixture(corpus: Corpus, patch_len: int, horizon: int) -> dict[str, float]:
    """Equal weight for every granularity with at least one eligible series."""
    grans = sorted(corpus.training_pools(patch_len, horizon))
    if not grans:
        raise SamplingError("corpus has no series eligible for training windows")
    return {g: 1.0 / len(grans) for g in grans}


def sample_training_windows(corpus: Corpus, mixture: dict[str, float], batch_size: int,
                            rng: np.random.Generator, *, input_patch_len: int,
                            output_patch_len: int) -> list[TrainingWindow]:
    """Draw one batch of training windows.

    One granularity is drawn from the mixture per batch; all windows in the
    batch share a length (cap + horizon, clamped to the shortest drawn
    train split) so they stack into a rectangular tensor. Window starts are
    uniform within each series' train split.
    ``mixture`` is ``default_mixture``'s: positive weights on granularities
    with eligible series (a zero weight drops its granularity).
    """
    pools = corpus.training_pools(input_patch_len, output_patch_len)
    names = [g for g, w in sorted(mixture.items()) if w > 0]
    weights = [mixture[g] for g in names]
    probs = np.array(weights) / sum(weights)
    gran = names[int(rng.choice(len(names), p=probs))]
    pool = pools[gran]
    cap = CONTEXT_CAPS[gran]
    picks = [pool[int(i)] for i in rng.integers(0, len(pool), size=batch_size)]
    w_len = min(window_length(end, cap, output_patch_len) for _, end in picks)
    windows = []
    for s, end in picks:
        start = int(rng.integers(0, end - w_len + 1))
        windows.append(TrainingWindow(
            series_id=s.series_id,
            granularity=gran,
            start=start,
            values=s.values[start:start + w_len],
            features=s.date_features()[start:start + w_len],
        ))
    return windows
