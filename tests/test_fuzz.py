"""Hypothesis over every outside input, through `patchcast.cli.main` where a
command reads it: CSV text and bytes, forecast JSONL lines, config JSON and
checkpoint metas.

Whatever the input, a command returns 0, 1 or 2 and raises nothing, and
each line `forecast` writes and each `summary.json` `evaluate` writes is
strict JSON (RFC 8259, which has no NaN or Infinity). Example counts are
bounded and derandomized, so the suite costs a few seconds and fails the
same way on every run.
"""

import json
import math
import os
import shutil
from datetime import datetime, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patchcast.cli import OUTPUT_DIR_ENV, main
from patchcast.data import GRANULARITIES, IngestError, ingest_csv

DESK_CHECKPOINT = str(Path(__file__).resolve().parents[1] / "perfbench" / "desk.npz")


def fuzz(max_examples):
    return settings(derandomize=True, max_examples=max_examples, deadline=None)


def strict_json(text: str):
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


# -- JSON text -------------------------------------------------------------------

# Numbers of every magnitude, integer literals past Python's 4,300 digits,
# the NaN and Infinity that Python's json reads, and arrays nested up to and
# past the parser's recursion limit.
NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.integers(1, 6_000).map(lambda digits: "7" * digits),
    st.sampled_from(["1e308", "-1e308", "1e309", "-1e400", "5e-324", "NaN", "Infinity",
                     "-Infinity"]))
NESTED_TEXT = st.tuples(st.integers(0, 1_500) | st.just(10_000), NUMBER_TEXT).map(
    lambda t: "[" * t[0] + t[1] + "]" * t[0])
PLAIN_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
ANY_TEXT = st.one_of(NUMBER_TEXT, NESTED_TEXT, PLAIN_TEXT.map(json.dumps),
                     st.sampled_from(["null", "true", "{}", '{"a": [1]}', '""']))


class Raw(str):
    """JSON text to splice into a document as it is."""


def dumps_with_raw(node) -> str:
    """json.dumps of `node`, each Raw inside it written as its own text."""
    raws = []

    def mark(value):
        if isinstance(value, Raw):
            raws.append(value)
            return f"\x00raw{len(raws) - 1}\x00"
        if isinstance(value, dict):
            return {k: mark(v) for k, v in value.items()}
        if isinstance(value, list):
            return [mark(v) for v in value]
        return value

    text = json.dumps(mark(node))
    for i, raw in enumerate(raws):
        text = text.replace(json.dumps(f"\x00raw{i}\x00"), raw)
    return text


# -- config and checkpoint meta mutations -----------------------------------------

# Values a config field may be set to. Integers stay small, so a mutation that
# keeps a config valid keeps its run short; text holds no "/" or ".", so an
# output directory stays under the test's own.
SMALL_JSON = st.recursive(
    st.one_of(st.integers(-2, 6), st.floats(), st.booleans(), st.none(),
              st.text("abz _-:é", max_size=3),
              st.sampled_from(["desk", "full", "csv", "synthetic", "hourly", "monthly",
                               "piecewise", "context", "input-patch", "per-window", "none"])),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("ab", max_size=2),
                                                                inner, max_size=2),
    max_leaves=6)
# Text that Python's json refuses or reads as a non-finite float.
UNPARSED_TEXT = st.one_of(
    st.integers(4_301, 6_000).map(lambda digits: "7" * digits), st.just("[" * 10_000 + "]" * 10_000),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e309", "-1e400"]))
DELETE = object()
# a small JSON value most of the time; unparsed text or a deletion one time in ten each
REPLACEMENT = st.integers(0, 9).flatmap(
    lambda k: UNPARSED_TEXT.map(Raw) if k == 5 else st.just(DELETE) if k == 6 else SMALL_JSON)


def json_paths(node, prefix=()):
    """Every path of keys and indices into `node`, the empty path first."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


def mutated(base, picks) -> str:
    """`base` with each (path number, replacement) in `picks` applied, as JSON text."""
    doc = json.loads(json.dumps(base))
    for number, replacement in picks:
        paths = list(json_paths(doc))
        path = paths[number % len(paths)]
        if not path:
            doc = None if replacement is DELETE else replacement
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if replacement is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = replacement
    return dumps_with_raw(doc) if doc is not None else "{}"


PICKS = st.lists(st.tuples(st.integers(0, 10**6), REPLACEMENT), max_size=3)


# -- CSV --------------------------------------------------------------------------

# Hourly rows of up to two series with a few fields spoilt, those rows with a
# few bytes put in, or any bytes.
ODD_FIELDS = st.sampled_from([
    "", '"a,b"', "é", "s\x00", "2021-01-31", "2021-02-28T00:00:00Z", "9999-12-31",
    "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00", "yesterday", "nan", "-inf",
    "1e309", "-1", "x", "1" * 131_073]) | st.floats().map(repr)


def csv_text(ids, values, spoilt) -> str:
    rows = [[sid, (datetime(2021, 1, 1) + timedelta(hours=ids[:i].count(sid))).isoformat(),
             repr(value)] for i, (sid, value) in enumerate(zip(ids, values))]
    for row, column, text in spoilt:
        rows[row % len(rows)][column] = text
    return "id,timestamp,value\n" + "".join(",".join(row) + "\n" for row in rows)


CSV_TEXT = st.builds(csv_text, st.lists(st.sampled_from(["s", "t"]), min_size=2, max_size=40),
                     st.lists(st.floats(-1e3, 1e3), min_size=40, max_size=40),
                     st.lists(st.tuples(st.integers(0, 39), st.integers(0, 2), ODD_FIELDS),
                              max_size=3))
CSV_BYTES = st.one_of(
    CSV_TEXT.map(str.encode), st.binary(max_size=200),
    st.tuples(CSV_TEXT.map(str.encode), st.integers(0, 10**6), st.binary(min_size=1, max_size=2))
    .map(lambda t: t[0][:t[1] % (len(t[0]) + 1)] + t[2] + t[0][t[1] % (len(t[0]) + 1):]))


@fuzz(200)
@given(raw=CSV_BYTES, log_transform=st.booleans(),
       granularity=st.sampled_from([None, "hourly", "monthly"]))
def test_ingest_raises_only_ingest_error_for_any_bytes(tmp_path_factory, raw, log_transform,
                                                        granularity):
    path = tmp_path_factory.getbasetemp() / "fuzzed.csv"
    path.write_bytes(raw)
    try:
        ingest_csv(path, granularity=granularity, log_transform=log_transform)
    except IngestError:
        pass


@fuzz(40)
@given(raw=CSV_BYTES, context=st.sampled_from([1, 3, 16]))
# a context shorter than the desk model's 4-point patch
@example(raw=csv_text(["s"] * 40, [float(i % 7) for i in range(40)], []).encode(), context=3)
def test_evaluate_exits_0_or_2_on_any_csv(tmp_path_factory, raw, context):
    root = tmp_path_factory.getbasetemp()
    data, out_dir = root / "evaluate.csv", root / "evaluate_out"
    data.write_bytes(raw)
    shutil.rmtree(out_dir, ignore_errors=True)
    code = main(["evaluate", "--checkpoint", DESK_CHECKPOINT, "--data", str(data),
                 "--context", str(context), "--horizon", "8", "--stride", "4",
                 "--out-dir", str(out_dir)])
    assert code in (0, 2)
    assert (out_dir / "summary.json").exists() == (code == 0)
    if code == 0:
        strict_json((out_dir / "summary.json").read_text())


# -- forecast JSONL ---------------------------------------------------------------

FINITE_VALUES = st.lists(st.floats(-1e3, 1e3).map(repr), max_size=40)
RECORD = st.fixed_dictionaries(
    {"values": st.one_of(FINITE_VALUES, FINITE_VALUES, st.lists(NUMBER_TEXT, max_size=40))
     .map(lambda xs: "[" + ", ".join(xs) + "]") | ANY_TEXT},
    optional={
        "id": ANY_TEXT,
        "start": st.sampled_from(['"2020-01-06T00:00:00"', '" 2020-01-06T00:00:00Z "',
                                  '"0001-01-01T00:00:00+01:00"', '"9999-12-31T23:00:00"',
                                  '"9999-12-31T23:59:59-01:00"', '"2020-13-01"', "20200106"])
        | ANY_TEXT,
        "granularity": st.sampled_from(GRANULARITIES).map(json.dumps) | ANY_TEXT,
        "note": ANY_TEXT}).map(
    lambda fields: "{" + ", ".join(f'"{key}": {text}' for key, text in fields.items()) + "}")


@fuzz(60)
@given(lines=st.lists(RECORD | ANY_TEXT | PLAIN_TEXT, min_size=1, max_size=4),
       horizon=st.sampled_from([1, 8, 30]), granularity=st.sampled_from([None, "daily", "monthly"]))
def test_forecast_answers_every_record_in_strict_json(tmp_path_factory, lines, horizon,
                                                      granularity):
    root = tmp_path_factory.getbasetemp()
    inp, out = root / "forecast_in.jsonl", root / "forecast_out.jsonl"
    text = "\n".join(lines) + "\n"
    inp.write_text(text, encoding="utf-8")
    argv = ["forecast", "--checkpoint", DESK_CHECKPOINT, "--input", str(inp),
            "--horizon", str(horizon), "--output", str(out)]
    code = main(argv + (["--granularity", granularity] if granularity else []))
    entries = [strict_json(line) for line in out.read_text().splitlines()]
    assert len(entries) == sum(1 for line in text.splitlines() if line.strip())
    assert code == (1 if any("error" in e for e in entries) else 0)
    for entry in entries:
        assert set(entry) in ({"id", "forecast", "rounds"}, {"id", "error"}, {"line", "error"})
        if "forecast" in entry:
            assert len(entry["forecast"]) == horizon
            assert all(math.isfinite(v) for v in entry["forecast"])


# -- configs ----------------------------------------------------------------------

TINY_MODEL = {"preset": "desk", "overrides": {"model_dim": 8, "num_layers": 1, "num_heads": 2,
                                              "residual_hidden": 8}}
FAMILY = {"name": "sine", "granularity": "hourly", "n_series": 2, "length_range": [40, 48],
          "period_range": [6.0, 10.0], "noise_level": 0.02}


def run_config(output_dir, **changes):
    return {"seed": 1, "output_dir": str(output_dir),
            "corpus": {"kind": "synthetic", "seed": 0,
                       "spec": {"pretrain": [FAMILY], "holdout": []}},
            "model": TINY_MODEL,
            "train": {"total_steps": 2, "batch_size": 2, "val_every": 0}, **changes}


ABLATE_EVAL = {"horizon": 8, "stride": 8, "context_len": 16, "context_lengths": [16],
               "sizes": [4, 8]}


@fuzz(60)
@given(suite=st.sampled_from([None, "context", "input-patch", "output-patch"]), picks=PICKS,
       csv=st.none() | CSV_TEXT)
# a CSV corpus of a 60-point series and a 5-point one, too short to split
@example(suite="context", picks=[],
         csv=csv_text(["s"] * 60 + ["t"] * 5, [float(i % 7) for i in range(65)], []))
def test_pretrain_and_ablate_exit_0_or_2_on_any_config(tmp_path_factory, suite, picks, csv):
    root = tmp_path_factory.getbasetemp() / "configs"
    root.mkdir(exist_ok=True)
    changes = {} if suite is None else {"suite": suite, "eval": ABLATE_EVAL}
    if csv is not None:  # a path relative to the config's directory
        (root / "corpus.csv").write_text(csv, encoding="utf-8")
        changes["corpus"] = {"kind": "csv", "path": "corpus.csv"}
    base = run_config("run", **changes)
    config = root / "config.json"
    config.write_text(mutated(base, picks), encoding="utf-8")
    with mock.patch.dict(os.environ, {OUTPUT_DIR_ENV: str(root)}):
        code = main(["pretrain" if suite is None else "ablate", "--config", str(config)])
    assert code in (0, 2)


# -- checkpoint metas -------------------------------------------------------------


@pytest.fixture(scope="module")
def resumable(tmp_path_factory):
    """A tiny run's step-2 checkpoint of three steps, with its weights, meta and config."""
    root = tmp_path_factory.mktemp("resumable")
    config = root / "config.json"
    config.write_text(json.dumps(run_config(
        root / "run", train={"total_steps": 3, "batch_size": 2, "val_every": 0,
                             "checkpoint_every": 2})))
    assert main(["pretrain", "--config", str(config)]) == 0
    ckpt = root / "run" / "ckpt_step000002.npz"
    with np.load(ckpt) as archive:
        arrays = {name: archive[name] for name in archive.files if name != "meta"}
        meta = json.loads(archive["meta"].tobytes().decode("utf-8"))
    fuzzed = root / "fuzzed"
    fuzzed.mkdir()
    shutil.copy(root / "run" / "state_step000002.npz", fuzzed / "state_step000002.npz")
    return {"config": config, "arrays": arrays, "meta": meta,
            "ckpt": fuzzed / "ckpt_step000002.npz"}


@fuzz(50)
@given(picks=PICKS)
def test_commands_exit_0_1_or_2_on_any_checkpoint_meta(resumable, picks):
    ckpt = resumable["ckpt"]
    meta = mutated(resumable["meta"], picks).encode("utf-8")
    np.savez(ckpt, meta=np.frombuffer(meta, dtype=np.uint8), **resumable["arrays"])
    records, out = ckpt.with_name("in.jsonl"), ckpt.with_name("out.jsonl")
    records.write_text(json.dumps({"id": "a", "values": list(np.sin(np.arange(24.0)))}) + "\n")
    out.unlink(missing_ok=True)
    code = main(["forecast", "--checkpoint", str(ckpt), "--input", str(records),
                 "--horizon", "8", "--output", str(out)])
    assert code in (0, 1, 2)
    assert out.exists() == (code != 2)
    if out.exists():
        assert len([strict_json(line) for line in out.read_text().splitlines()]) == 1
    code = main(["pretrain", "--config", str(resumable["config"]), "--resume-from", str(ckpt)])
    assert code in (0, 2)
