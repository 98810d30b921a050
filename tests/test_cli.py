"""Command-line interface: config handling, the four subcommands, exit
codes, and deterministic output files."""

import contextlib
import dataclasses
import json
import math
import re
import time
from dataclasses import replace
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchcast.cli import CLIError, _build_model_config, _build_train_config, main
from patchcast.data import FamilySpec, GeneratorSpec, GeneratorSpecError
from patchcast.model import ConfigError, ModelConfig
from patchcast.training import FIXED_TRAIN_KEYS, TrainConfig


TINY_MODEL = {"preset": "desk",
              "overrides": {"model_dim": 8, "num_layers": 1, "num_heads": 2,
                            "residual_hidden": 8}}

CORPUS_SPEC = {
    "pretrain": [{"name": "sine", "granularity": "daily", "kind": "sinusoid",
                  "n_series": 4, "length_range": [110, 130],
                  "period_range": [8.0, 16.0], "noise_level": 0.02}],
    "holdout": [{"name": "slow", "granularity": "daily", "kind": "sinusoid",
                 "n_series": 2, "length_range": [110, 130],
                 "period_range": [20.0, 30.0], "noise_level": 0.02}],
}


def pretrain_config(out_dir, steps=3):
    return {
        "seed": 1,
        "output_dir": str(out_dir),
        "corpus": {"kind": "synthetic", "seed": 5, "spec": CORPUS_SPEC},
        "model": TINY_MODEL,
        "train": {"total_steps": steps, "batch_size": 2, "base_lr": 1e-3,
                  "val_every": 0},
    }


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_run")
    cfg_path = root / "pretrain.json"
    out_dir = root / "run"
    cfg_path.write_text(json.dumps(pretrain_config(out_dir)))
    code = main(["pretrain", "--config", str(cfg_path)])
    assert code == 0
    return out_dir


# -- pretrain -------------------------------------------------------------------


def test_show_defaults_prints_complete_config(capsys):
    assert main(["pretrain", "--show-defaults"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert set(printed) == {"seed", "output_dir", "corpus", "model", "train"}
    assert printed["train"]["total_steps"] >= 1


def test_pretrain_writes_run_directory(trained):
    assert (trained / "ckpt_final.npz").exists()
    assert (trained / "state_final.npz").exists()
    assert (trained / "loss_curve.csv").exists()
    manifest = json.loads((trained / "manifest.json").read_text())
    assert manifest["kind"] == "synthetic"
    assert manifest["pretrain"]["num_series"] == 4
    assert manifest["holdout"]["num_series"] == 2
    resolved = json.loads((trained / "resolved_config.json").read_text())
    assert resolved["model"]["model_dim"] == 8
    assert resolved["train"]["total_steps"] == 3
    assert resolved["seed"] == 1


def test_pretrain_rerun_is_byte_identical(tmp_path):
    cfg1 = tmp_path / "a.json"
    cfg2 = tmp_path / "b.json"
    cfg1.write_text(json.dumps(pretrain_config(tmp_path / "r1", steps=2)))
    cfg2.write_text(json.dumps(pretrain_config(tmp_path / "r2", steps=2)))
    assert main(["pretrain", "--config", str(cfg1)]) == 0
    assert main(["pretrain", "--config", str(cfg2)]) == 0
    assert (tmp_path / "r1" / "loss_curve.csv").read_bytes() == \
        (tmp_path / "r2" / "loss_curve.csv").read_bytes()
    assert (tmp_path / "r1" / "ckpt_final.npz").read_bytes() == \
        (tmp_path / "r2" / "ckpt_final.npz").read_bytes()


def test_pretrain_rejects_unknown_config_key(tmp_path, capsys):
    cfg = pretrain_config(tmp_path / "out")
    cfg["optimizer"] = "sgd"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["pretrain", "--config", str(path)]) == 2
    assert "unknown pretrain config keys" in capsys.readouterr().err


def test_pretrain_rejects_unknown_train_key(tmp_path, capsys):
    cfg = pretrain_config(tmp_path / "out")
    cfg["train"]["momentum"] = 0.9
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["pretrain", "--config", str(path)]) == 2
    assert "momentum" in capsys.readouterr().err


def test_pretrain_rejects_unknown_preset(tmp_path, capsys):
    cfg = pretrain_config(tmp_path / "out")
    cfg["model"] = {"preset": "galactic"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["pretrain", "--config", str(path)]) == 2
    assert "preset" in capsys.readouterr().err


def test_pretrain_rejects_non_string_csv_path(tmp_path, capsys):
    cfg = pretrain_config(tmp_path / "out")
    cfg["corpus"] = {"kind": "csv", "path": 5}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["pretrain", "--config", str(path)]) == 2
    assert "corpus path must be a string" in capsys.readouterr().err


def test_pretrain_rejects_non_bool_log_transform(tmp_path, capsys):
    write_eval_csv(tmp_path / "series.csv")
    cfg = pretrain_config(tmp_path / "out")
    cfg["corpus"] = {"kind": "csv", "path": "series.csv", "log_transform": "no"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["pretrain", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "log_transform" in err
    assert not (tmp_path / "out").exists()


DESK_CHECKPOINT = str(Path(__file__).resolve().parents[1] / "perfbench" / "desk.npz")
NOT_UTF8 = {  # each file holds the Latin-1 byte 0xe9, followed by an ASCII byte
    "bad.csv": b"id,timestamp,value\ns\xe9,2021-03-01T00:00:00,1.0\n",
    "bad.jsonl": b'{"id": "caf\xe9", "values": [1, 2, 3]}\n',
    "bad.json": b'{"seed": 1, "note": "caf\xe9"}\n',
}


@pytest.mark.parametrize("bad,argv", [
    ("bad.csv", ["evaluate", "--checkpoint", DESK_CHECKPOINT, "--data", "{bad}", "--context", "64",
                 "--horizon", "2", "--out-dir", "{out}"]),
    ("bad.jsonl", ["forecast", "--checkpoint", DESK_CHECKPOINT, "--input", "{bad}",
                   "--horizon", "8", "--output", "{out}"]),
    ("bad.json", ["pretrain", "--config", "{bad}"]),
    ("bad.json", ["ablate", "--config", "{bad}"]),
    ("bad.csv", ["pretrain", "--config", "{config}"]),
], ids=["evaluate", "forecast", "pretrain", "ablate", "pretrain_csv_corpus"])
def test_input_file_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys, bad, argv):
    path, out = tmp_path / bad, tmp_path / "out"
    path.write_bytes(NOT_UTF8[bad])
    config = tmp_path / "pretrain.json"  # a csv corpus read relative to the config
    config.write_text(json.dumps({**pretrain_config(out), "corpus": {"kind": "csv", "path": bad}}))
    assert main([a.format(bad=path, out=out, config=config) for a in argv]) == 2
    verb = "ingest" if bad.endswith(".csv") else "read"  # as for any other CSV failure
    assert capsys.readouterr().err == (
        f"error: cannot {verb} {path}: not UTF-8 (byte 0xe9: invalid continuation byte)\n")
    assert not out.exists()


DEEP_JSON = "[" * 10_000 + "]" * 10_000  # past the JSON parser's recursion limit
LONG_INT = "9" * 5_000  # past Python's 4,300-digit limit on integer text


@pytest.mark.parametrize("command", ["evaluate", "pretrain_csv_corpus"])
def test_csv_with_a_field_past_the_csv_limit_exits_2_naming_it(tmp_path, capsys, command):
    data, out = tmp_path / "long.csv", tmp_path / "out"
    write_eval_csv(data, n_series=1)  # a header and 120 rows
    with open(data, "a") as fh:
        fh.write("s0,2021-01-01T00:00:00," + "1" * 131_073 + "\n")
    config = tmp_path / "pretrain.json"
    config.write_text(json.dumps({**pretrain_config(out), "corpus": {"kind": "csv", "path": data.name}}))
    argv = {"evaluate": ["evaluate", "--checkpoint", DESK_CHECKPOINT, "--data", str(data),
                         "--context", "64", "--horizon", "2", "--out-dir", str(out)],
            "pretrain_csv_corpus": ["pretrain", "--config", str(config)]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: cannot ingest {data}: line 122: field larger than field limit (131072)\n")
    assert not out.exists()


def test_forecast_writes_error_lines_for_json_past_the_parser_limits(tmp_path, capsys):
    good = json.dumps({"id": "good", "values": list(np.arange(24.0))})
    inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    inp.write_text("\n".join([good, '{"id": "long", "values": [' + LONG_INT + "]}",
                              '{"id": "deep", "values": ' + DEEP_JSON + "}", good]) + "\n")
    assert main(["forecast", "--checkpoint", DESK_CHECKPOINT, "--input", str(inp),
                 "--horizon", "8", "--output", str(out)]) == 1
    entries = [_strict_json(line) for line in out.read_text().splitlines()]
    assert [e.get("id", e.get("line")) for e in entries] == ["good", 2, 3, "good"]
    assert entries[1]["error"].startswith("invalid JSON: Exceeds the limit (4300 digits)")
    assert entries[2]["error"].startswith("invalid JSON: maximum recursion depth exceeded")
    assert entries[0] == entries[3] and len(entries[0]["forecast"]) == 8
    assert capsys.readouterr().err == f"2 record(s) failed; see {out}\n"


def test_forecast_refuses_an_id_that_json_cannot_hold(tmp_path, capsys):
    values = json.dumps(list(np.arange(24.0)))
    inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    ids = ["NaN", "[1, Infinity]", "-1e400", '"fine"']
    inp.write_text("".join(f'{{"id": {rid}, "values": {values}}}\n' for rid in ids))
    assert main(["forecast", "--checkpoint", DESK_CHECKPOINT, "--input", str(inp),
                 "--horizon", "8", "--output", str(out)]) == 1
    entries = [_strict_json(line) for line in out.read_text().splitlines()]
    for line_no, entry in enumerate(entries[:3], start=1):
        assert entry["line"] == line_no
        assert entry["error"].startswith("invalid JSON: Out of range float values")
    assert entries[3]["id"] == "fine" and len(entries[3]["forecast"]) == 8
    assert capsys.readouterr().err == f"3 record(s) failed; see {out}\n"


@pytest.mark.parametrize("text", [LONG_INT, DEEP_JSON], ids=["long_int", "deep"])
@pytest.mark.parametrize("command", ["pretrain", "ablate"])
def test_config_past_the_json_parser_limits_exits_2_naming_it(tmp_path, capsys, command, text):
    path = tmp_path / "config.json"
    path.write_text('{"seed": ' + text + "}")
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {path} is not valid JSON: ")
    assert ("(4300 digits)" if text == LONG_INT else "maximum recursion depth") in err


@pytest.mark.parametrize("command", ["forecast", "evaluate", "pretrain", "ablate"])
def test_checkpoint_whose_meta_is_nested_deep_exits_2_naming_it(tmp_path, capsys, command):
    ckpt = tmp_path / "deep.npz"
    meta = '{"format_version": 1, "extra": ' + DEEP_JSON + "}"
    np.savez(ckpt, meta=np.frombuffer(meta.encode(), dtype=np.uint8))
    records, data = tmp_path / "in.jsonl", tmp_path / "eval.csv"
    records.write_text(json.dumps({"id": "a", "values": [1.0, 2.0, 3.0, 4.0]}) + "\n")
    write_eval_csv(data)
    config, out = tmp_path / f"{command}.json", tmp_path / "out"
    config.write_text(json.dumps({**pretrain_config(out), "suite": "context",
                                  "checkpoint": str(ckpt), "eval": {"horizon": 8}}
                                 if command == "ablate" else pretrain_config(out)))
    argv = {"forecast": ["forecast", "--checkpoint", str(ckpt), "--input", str(records),
                         "--horizon", "8", "--output", str(out)],
            "evaluate": ["evaluate", "--checkpoint", str(ckpt), "--data", str(data),
                         "--context", "32", "--horizon", "8"],
            "pretrain": ["pretrain", "--config", str(config), "--resume-from", str(ckpt)],
            "ablate": ["ablate", "--config", str(config)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read checkpoint {ckpt}: maximum recursion depth")
    assert err.count("\n") == 1


def test_ablate_context_suite_on_series_whose_errors_overflow_exits_2(tmp_path, capsys):
    family = {"name": "huge", "granularity": "hourly", "n_series": 2, "length_range": [300, 300],
              "amplitude_range": [1e300, 1e300]}
    config, out = tmp_path / "ablate.json", tmp_path / "out"
    config.write_text(json.dumps({
        "suite": "context", "output_dir": str(out), "checkpoint": DESK_CHECKPOINT,
        "corpus": {"kind": "synthetic", "spec": {"pretrain": [family]}},
        "eval": {"horizon": 8, "stride": 50, "context_lengths": [64]}}))
    assert main(["ablate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    # the forecasts are finite (scale_record's scaled statistics); their errors' squares are not
    assert err.startswith("error: series pretrain-huge-0000 at context length 64: the window "
                          "at origin 240 scores nrmse inf, wape ")
    assert err.endswith("; its errors overflow float64\n") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("suite", ["pretrain", "context", "input-patch"])
def test_corpus_with_no_trainable_series_exits_2_writing_nothing(tmp_path, capsys, suite):
    # under the desk preset's 4 + 8 points, a 10-12 point series has no training window
    spec = {"pretrain": [{"name": "short", "granularity": "hourly", "n_series": 2,
                          "length_range": [10, 12]}]}
    out = tmp_path / "out"
    raw = {**pretrain_config(out), "corpus": {"kind": "synthetic", "spec": spec},
           "model": {"preset": "desk"}}
    if suite != "pretrain":
        raw.update(suite=suite, eval={"horizon": 8, "sizes": [4], "context_len": 8})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["pretrain" if suite == "pretrain" else "ablate", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: corpus has no series eligible for training windows\n"
    assert not out.exists()


def test_pretrain_past_the_memory_ceiling_exits_2(tmp_path, capsys):
    cfg = json.loads(json.dumps(pretrain_config(tmp_path / "out")))  # a deep copy
    cfg["corpus"]["spec"]["pretrain"][0]["length_range"] = [10, 10**12]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["pretrain", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad corpus spec") and "length_range" in err
    assert not (tmp_path / "out").exists()


def test_pretrain_with_a_model_past_the_memory_ceiling_exits_2(tmp_path, capsys):
    cfg = json.loads(json.dumps(pretrain_config(tmp_path / "out")))  # a deep copy
    cfg["model"]["overrides"]["num_layers"] = 10**7
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["pretrain", "--config", str(path)]) == 2
    assert "num_layers (10000000)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["a_file", "under_a_file"])
def test_pretrain_output_dir_that_cannot_be_written_exits_2(tmp_path, capsys, where):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out_dir = blocker if where == "a_file" else blocker / "run"
    cfg = tmp_path / "pretrain.json"
    cfg.write_text(json.dumps(pretrain_config(out_dir)))
    assert main(["pretrain", "--config", str(cfg)]) == 2
    reason = "File exists" if where == "a_file" else "Not a directory"
    assert capsys.readouterr().err == f"error: cannot write {out_dir}: {reason}\n"


def test_pretrain_needs_config_or_show_defaults(capsys):
    assert main(["pretrain"]) == 2
    assert "--config" in capsys.readouterr().err


def resume(tmp_path, ckpt, model=TINY_MODEL):
    cfg = pretrain_config(tmp_path / "resumed")
    cfg["model"] = model
    path = tmp_path / "resume.json"
    path.write_text(json.dumps(cfg))
    return main(["pretrain", "--config", str(path), "--resume-from", str(ckpt)])


def test_pretrain_resume_from_missing_checkpoint(tmp_path, capsys):
    assert resume(tmp_path, tmp_path / "ckpt_gone.npz") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "ckpt_gone.npz" in err


@pytest.mark.parametrize("state", ["missing", "garbage", "checkpoint"])
def test_pretrain_resume_with_unusable_state_file(trained, tmp_path, capsys, state):
    ckpt = tmp_path / "ckpt_final.npz"
    ckpt.write_bytes((trained / "ckpt_final.npz").read_bytes())
    if state == "garbage":
        (tmp_path / "state_final.npz").write_bytes(b"not a zip")
    elif state == "checkpoint":  # an archive without the Adam state
        (tmp_path / "state_final.npz").write_bytes(ckpt.read_bytes())
    assert resume(tmp_path, ckpt) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(tmp_path / "state_final.npz") in err


def test_pretrain_resume_from_checkpoint_without_ckpt_prefix(trained, tmp_path, capsys):
    ckpt = tmp_path / "final.npz"
    ckpt.write_bytes((trained / "ckpt_final.npz").read_bytes())
    assert resume(tmp_path, ckpt) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(ckpt) in err and "ckpt_" in err


@pytest.mark.parametrize("step", ["two", True, -1, 2.5, None])
def test_pretrain_resume_with_malformed_step(trained, tmp_path, capsys, step):
    from patchcast.checkpoint import load_checkpoint, save_checkpoint

    bundle = load_checkpoint(trained / "ckpt_final.npz")
    ckpt = tmp_path / "ckpt_final.npz"
    save_checkpoint(ckpt, bundle.config, bundle.weights, extra={**bundle.extra, "step": step})
    (tmp_path / "state_final.npz").write_bytes((trained / "state_final.npz").read_bytes())
    assert resume(tmp_path, ckpt) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(ckpt) in err and "step" in err


def test_pretrain_resume_with_different_model_config(trained, tmp_path, capsys):
    wider = {"preset": "desk", "overrides": {**TINY_MODEL["overrides"], "model_dim": 16}}
    assert resume(tmp_path, trained / "ckpt_final.npz", model=wider) == 2
    assert "different model config" in capsys.readouterr().err


@pytest.fixture(scope="module")
def midway(tmp_path_factory):
    """A 4-step run checkpointed at step 2, and a copy of that checkpoint
    without the recorded train config, as checkpoints were written before."""
    from patchcast.checkpoint import load_checkpoint, save_checkpoint

    root = tmp_path_factory.mktemp("midway")
    cfg = pretrain_config(root / "run", steps=4)
    cfg["train"]["checkpoint_every"] = 2
    (root / "pretrain.json").write_text(json.dumps(cfg))
    assert main(["pretrain", "--config", str(root / "pretrain.json")]) == 0
    ckpt = root / "run" / "ckpt_step000002.npz"
    legacy = root / "legacy" / ckpt.name
    legacy.parent.mkdir()
    bundle = load_checkpoint(ckpt)
    assert bundle.extra["train_config"]["base_lr"] == 1e-3
    extra = {k: v for k, v in bundle.extra.items() if k != "train_config"}
    save_checkpoint(legacy, bundle.config, bundle.weights, extra=extra)
    state = ckpt.with_name("state_step000002.npz")
    (legacy.parent / state.name).write_bytes(state.read_bytes())
    return ckpt, legacy


def resume_with_train(tmp_path, ckpt, **train):
    cfg = pretrain_config(tmp_path / "resumed", steps=4)
    cfg["train"].update(train)
    path = tmp_path / "resume.json"
    path.write_text(json.dumps(cfg))
    return main(["pretrain", "--config", str(path), "--resume-from", str(ckpt)])


def test_pretrain_resume_with_different_schedule_names_the_field(midway, tmp_path, capsys):
    ckpt, _ = midway
    assert resume_with_train(tmp_path, ckpt, base_lr=2e-3) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(ckpt) in err
    assert "base_lr 0.001 -> 0.002" in err and "total_steps" not in err


def test_pretrain_resume_may_change_cadence_fields(midway, tmp_path, capsys):
    ckpt, _ = midway
    assert resume_with_train(tmp_path, ckpt, checkpoint_every=1, val_every=2) == 0
    assert "trained 4 steps" in capsys.readouterr().out


def spoil_first(arrays, prefix, spoil):
    key = next(k for k in arrays if k.startswith(prefix))
    arrays[key] = spoil(arrays[key])
    return key


# a spoiled field of the step-2 Adam state -> the field the error must name
BAD_STATES = {
    "integer m": lambda a: spoil_first(a, "m/", lambda m: m.astype(np.int64)),
    "negative step": lambda a: a.update(step=np.asarray(-7)) or "step",
    "other step": lambda a: a.update(step=np.asarray(3)) or "step",
    "step not 0-d": lambda a: a.update(step=np.asarray([2])) or "step",
    "float step": lambda a: a.update(step=np.asarray(2.0)) or "step",
    "NaN in v": lambda a: spoil_first(a, "v/", lambda v: np.where(v == v.max(), np.nan, v)),
    "negative v": lambda a: spoil_first(a, "v/", lambda v: v - 2 * v.max()),
}


@pytest.mark.parametrize("case", BAD_STATES)
def test_pretrain_resume_with_malformed_state_names_the_file_and_field(
        midway, tmp_path, capsys, case):
    ckpt, _ = midway
    state = ckpt.with_name("state_step000002.npz")
    with np.load(state) as archive:
        arrays = dict(archive)
    field = BAD_STATES[case](arrays)
    (tmp_path / ckpt.name).write_bytes(ckpt.read_bytes())
    np.savez(tmp_path / state.name, **arrays)
    assert resume_with_train(tmp_path, tmp_path / ckpt.name) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(tmp_path / state.name) in err and field in err
    assert not (tmp_path / "resumed" / "loss_curve.csv").exists()


def checkpoint_with_train_config(ckpt, out_path, **fields):
    """A copy of a run's checkpoint and Adam state whose recorded train config
    gains `fields`, as a checkpoint written by an older version would."""
    from patchcast.checkpoint import load_checkpoint, save_checkpoint

    bundle = load_checkpoint(ckpt)
    recorded = {**bundle.extra["train_config"], **fields}
    out_path.parent.mkdir()
    save_checkpoint(out_path, bundle.config, bundle.weights,
                    extra={**bundle.extra, "train_config": recorded})
    state = ckpt.with_name(ckpt.name.replace("ckpt_", "state_", 1))
    out_path.with_name(state.name).write_bytes(state.read_bytes())
    return out_path


# the eight train config fields older versions had, at the only value each may hold
OLD_FIXED = {"warmup_frac": 0.05, "cosine": True, "clip_norm": 1.0, "beta1": 0.9,
             "beta2": 0.999, "eps": 1e-8, "mixture": None, "val_windows": 32}


def test_pretrain_resume_from_checkpoint_recording_all_old_fields(midway, tmp_path, capsys):
    from patchcast.checkpoint import load_checkpoint

    ckpt, _ = midway
    # a recorded val_windows never touched the weights, so any value passes
    old = checkpoint_with_train_config(ckpt, tmp_path / "old" / ckpt.name,
                                       **{**OLD_FIXED, "val_windows": 3})
    assert len(load_checkpoint(old).extra["train_config"]) == 15
    assert resume_with_train(tmp_path, old) == 0
    assert "trained 4 steps" in capsys.readouterr().out


def test_pretrain_resume_from_checkpoint_trained_with_other_beta1_exits_2(
        midway, tmp_path, capsys):
    ckpt, _ = midway
    old = checkpoint_with_train_config(ckpt, tmp_path / "old" / ckpt.name,
                                       **{**OLD_FIXED, "beta1": 0.8})
    assert resume_with_train(tmp_path, old) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(old) in err and "beta1" in err
    assert not (tmp_path / "resumed" / "loss_curve.csv").exists()


def test_pretrain_accepts_old_train_keys_at_their_fixed_values(trained, tmp_path):
    cfg = pretrain_config(tmp_path / "old")
    cfg["train"].update(OLD_FIXED)
    path = tmp_path / "old.json"
    path.write_text(json.dumps(cfg))
    assert main(["pretrain", "--config", str(path)]) == 0
    assert (tmp_path / "old" / "loss_curve.csv").read_bytes() == \
        (trained / "loss_curve.csv").read_bytes()
    assert (tmp_path / "old" / "ckpt_final.npz").read_bytes() == \
        (trained / "ckpt_final.npz").read_bytes()


@pytest.mark.parametrize("key,value", [
    ("warmup_frac", 0.1), ("cosine", False), ("clip_norm", None), ("beta1", 0.8),
    ("beta2", 0.99), ("eps", 1e-6), ("mixture", {"weekly": 1.0}), ("val_windows", 4)])
def test_pretrain_rejects_old_train_key_at_another_value(tmp_path, capsys, key, value):
    cfg = pretrain_config(tmp_path / "out")
    cfg["train"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["pretrain", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad train config") and key in err
    assert not (tmp_path / "out").exists()


def test_pretrain_resume_from_legacy_checkpoint_skips_schedule_check(midway, tmp_path, capsys):
    _, legacy = midway
    assert resume_with_train(tmp_path, legacy, base_lr=2e-3) == 0
    curve = (tmp_path / "resumed" / "loss_curve.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in curve[1:]] == ["3", "4"]


def test_pretrain_resume_from_finished_run_exits_2(trained, tmp_path, capsys):
    assert resume(tmp_path, trained / "ckpt_final.npz") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "leaves no step to train" in err


def test_output_dir_env_anchors_relative_paths(tmp_path, monkeypatch):
    monkeypatch.setenv("PATCHCAST_OUTPUT_DIR", str(tmp_path / "anchor"))
    cfg = pretrain_config("rel_run", steps=2)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["pretrain", "--config", str(path)]) == 0
    assert (tmp_path / "anchor" / "rel_run" / "ckpt_final.npz").exists()


# -- forecast -------------------------------------------------------------------


def jsonl_inputs(tmp_path):
    rows = [
        {"id": "good", "values": list(np.sin(np.arange(40) / 4.0) + 2.0),
         "start": "2020-01-06T00:00:00", "granularity": "daily"},
        {"id": "bare", "values": list(np.cos(np.arange(30) / 3.0) + 5.0)},
        {"id": "short", "values": [1.0, 2.0]},
        # the start stamps an evaluate CSV takes, then two it does not
        *({"id": start, "values": list(np.sin(np.arange(40) / 4.0) + 2.0), "start": start,
           "granularity": "daily"} for start in ("2020-01-06T00:00:00Z", "2020-01-06T00:00:00z",
                                                 " 2020-01-06T00:00:00Z", 20200106, 5,
                                                 "garbage")),
    ]
    path = tmp_path / "in.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\nnot json\n")
    return path


def test_forecast_jsonl_with_per_record_errors(trained, tmp_path, capsys):
    inp = jsonl_inputs(tmp_path)
    out = tmp_path / "out.jsonl"
    code = main(["forecast", "--checkpoint", str(trained / "ckpt_final.npz"),
                 "--input", str(inp), "--horizon", "12", "--output", str(out)])
    assert code == 1  # five bad records
    lines = out.read_text().splitlines()
    by_id = {e.get("id", e.get("line")): e for e in map(json.loads, lines)}
    assert len(by_id["good"]["forecast"]) == 12
    for start in ("2020-01-06T00:00:00Z", "2020-01-06T00:00:00z", " 2020-01-06T00:00:00Z"):
        assert by_id[start]["forecast"] == by_id["good"]["forecast"]
    assert lines[-4:-1] == ['{"error": "bad start timestamp 20200106", "id": 20200106}',
                            '{"error": "bad start timestamp 5", "id": 5}',
                            '{"error": "bad start timestamp \'garbage\'", "id": "garbage"}']
    assert by_id["good"]["rounds"] == 2  # h=8, H=12
    assert len(by_id["bare"]["forecast"]) == 12
    assert "shorter than one" in by_id["short"]["error"]
    assert "invalid JSON" in by_id[10]["error"]
    assert "failed" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing_dir", "a_directory"])
def test_forecast_output_that_cannot_be_written_exits_2(trained, tmp_path, capsys, where):
    out = tmp_path / "missing" / "out.jsonl" if where == "missing_dir" else tmp_path
    code = main(["forecast", "--checkpoint", str(trained / "ckpt_final.npz"),
                 "--input", str(jsonl_inputs(tmp_path)), "--horizon", "12", "--output", str(out)])
    assert code == 2
    reason = "No such file or directory" if where == "missing_dir" else "Is a directory"
    assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"


def test_forecast_names_values_that_are_not_an_array_of_numbers(trained, tmp_path, capsys):
    calendar = {"start": "2020-01-06T00:00:00", "granularity": "daily"}
    rows = [{"id": "object", "values": {"x": 1}},
            {"id": "scalar", "values": 3.0, **calendar},
            {"id": "strings", "values": ["1.0"] * 24, **calendar},
            {"id": "huge", "values": [10 ** 400] + [1.0] * 23},
            {"id": "good", "values": list(np.arange(24.0)), **calendar}]
    inp = tmp_path / "in.jsonl"
    inp.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    out = tmp_path / "out.jsonl"
    assert main(["forecast", "--checkpoint", str(trained / "ckpt_final.npz"),
                 "--input", str(inp), "--horizon", "8", "--output", str(out)]) == 1
    by_id = {e["id"]: e for e in map(json.loads, out.read_text().splitlines())}
    for rid in ("object", "scalar", "strings"):
        assert "values" in by_id[rid]["error"] and "array of numbers" in by_id[rid]["error"]
    assert "error" in by_id["huge"]
    assert len(by_id["good"]["forecast"]) == 8
    assert "4 record(s) failed" in capsys.readouterr().err


def _strict_json(line: str):
    """json.loads that rejects NaN and Infinity, which RFC 8259 JSON cannot hold."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(line, parse_constant=reject)


def test_forecast_writes_an_error_line_for_a_context_whose_scale_overflows(trained, tmp_path,
                                                                          capsys):
    good = [{"id": "a", "values": list(np.arange(24.0))},
            {"id": "b", "values": list(np.sin(np.arange(40.0) / 3.0))}]
    huge = [{"id": "spike", "values": [0, 0, 0, 0, 0, 0, 0, 1e300]},  # its statistics are finite
            {"id": "mixed", "values": [1.7e308] * 7 + [-1.7e308]},
            {"id": "alternating", "values": [1e308, -1e308] * 6}]
    ckpt = str(trained / "ckpt_final.npz")
    outs = []
    for name, rows in (("good", good), ("mixed", [good[0], *huge, good[1]])):
        inp, out = tmp_path / f"{name}.jsonl", tmp_path / f"{name}_out.jsonl"
        inp.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        outs.append((main(["forecast", "--checkpoint", ckpt, "--input", str(inp),
                           "--horizon", "12", "--output", str(out)]), out.read_text().splitlines()))
    (good_code, good_lines), (code, lines) = outs
    assert good_code == 0 and code == 1
    entries = [_strict_json(line) for line in lines]  # every line is strict JSON
    assert [e["id"] for e in entries] == ["a", "spike", "mixed", "alternating", "b"]
    assert set(entries[1]) == {"id", "forecast", "rounds"}
    assert entries[2]["error"].endswith("the normalized context overflows float64")
    assert entries[3]["error"].endswith("the forecast overflows float64 on the context's scale")
    assert {len(e) for e in entries[2:4]} == {2}
    assert [lines[0], lines[4]] == good_lines  # the other records' lines are unchanged
    assert "2 record(s) failed" in capsys.readouterr().err


def test_forecast_all_good_exits_zero(trained, tmp_path):
    inp = tmp_path / "in.jsonl"
    inp.write_text(json.dumps({"id": "a", "values": list(np.arange(24.0))}) + "\n")
    out = tmp_path / "out.jsonl"
    assert main(["forecast", "--checkpoint", str(trained / "ckpt_final.npz"),
                 "--input", str(inp), "--horizon", "8", "--output", str(out)]) == 0
    entry = json.loads(out.read_text())
    assert entry["rounds"] == 1
    assert all(math.isfinite(v) for v in entry["forecast"])


def test_forecast_granularity_flag_supplies_calendar(trained, tmp_path):
    rec = {"id": "a", "values": list(np.arange(24.0)), "start": "2020-01-06T00:00:00"}
    inp = tmp_path / "in.jsonl"
    inp.write_text(json.dumps(rec) + "\n")
    out_with = tmp_path / "with.jsonl"
    out_without = tmp_path / "without.jsonl"
    ckpt = str(trained / "ckpt_final.npz")
    assert main(["forecast", "--checkpoint", ckpt, "--input", str(inp),
                 "--horizon", "8", "--output", str(out_with),
                 "--granularity", "daily"]) == 0
    assert main(["forecast", "--checkpoint", ckpt, "--input", str(inp),
                 "--horizon", "8", "--output", str(out_without)]) == 0
    with_feats = json.loads(out_with.read_text())["forecast"]
    without = json.loads(out_without.read_text())["forecast"]
    assert with_feats != without  # calendar features actually reached the model


def test_forecast_zero_horizon_rejected(trained, tmp_path, capsys):
    inp = tmp_path / "in.jsonl"
    inp.write_text("{}\n")
    assert main(["forecast", "--checkpoint", str(trained / "ckpt_final.npz"),
                 "--input", str(inp), "--horizon", "0",
                 "--output", str(tmp_path / "o.jsonl")]) == 2
    assert "horizon" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["forecast", "evaluate"])
def test_horizon_past_max_rounds_exits_2_naming_the_bound(trained, tmp_path, capsys, command):
    from patchcast.inference import MAX_ROUNDS

    limit = MAX_ROUNDS * 8  # the tiny model keeps the desk output_patch_len
    ckpt = str(trained / "ckpt_final.npz")
    if command == "forecast":
        inp = tmp_path / "in.jsonl"
        inp.write_text(json.dumps({"id": "a", "values": list(np.arange(24.0))}) + "\n")
        argv = ["forecast", "--checkpoint", ckpt, "--input", str(inp),
                "--output", str(tmp_path / "o.jsonl")]
    else:
        data = tmp_path / "eval.csv"
        write_eval_csv(data, n_series=1)
        argv = ["evaluate", "--checkpoint", ckpt, "--data", str(data), "--context", "32"]
    t0 = time.perf_counter()
    assert main(argv + ["--horizon", str(limit + 1)]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{limit} points" in err and "MAX_ROUNDS" in err


def test_forecast_bad_checkpoint_path(tmp_path, capsys):
    assert main(["forecast", "--checkpoint", str(tmp_path / "nope.npz"),
                 "--input", str(tmp_path / "in.jsonl"), "--horizon", "8",
                 "--output", str(tmp_path / "o.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def corrupt_checkpoint(good, path, kind):
    """Write a damaged copy of the checkpoint `good` to `path`."""
    if kind == "truncated":
        raw = good.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        return path
    with np.load(good) as archive:
        meta = json.loads(archive["meta"].tobytes().decode())
        arrays = {n: archive[n] for n in archive.files if n != "meta"}
    if kind == "meta-not-json":
        meta_bytes = b"{not json"
    else:
        if kind == "bad-config":
            meta["config"]["num_heads"] = 3
        elif kind == "no-config":
            del meta["config"]
        elif kind == "float-patch-len":
            meta["config"]["input_patch_len"] = 4.0
        elif kind == "extra-not-object":
            meta["extra"] = ["x"]
        elif kind == "unknown-normalization":
            meta["extra"]["normalization"] = "bogus"
        elif kind == "feature-dim-3":  # weights consistent with 3 features per point
            meta["config"]["feature_dim"] = 3
            rows = meta["config"]["input_patch_len"] * (1 + 3)
            for name in ("param/input.w1", "param/input.wskip"):
                arrays[name] = arrays[name][:rows]
        else:  # legacy keys, as "<ffn_hidden>,<dropout>"
            ffn, dropout = kind.split(",")
            meta["config"].update(ffn_hidden=int(ffn), dropout=float(dropout))
        meta_bytes = json.dumps(meta).encode()
    np.savez(path, meta=np.frombuffer(meta_bytes, dtype=np.uint8), **arrays)
    return path


def run_with_checkpoint(command, ckpt, tmp_path) -> int:
    """`command` (forecast, evaluate, or a context ablation) on small inputs."""
    if command == "forecast":
        inp = tmp_path / "in.jsonl"
        inp.write_text(json.dumps({"id": "a", "values": list(np.arange(24.0))}) + "\n")
        argv = ["forecast", "--checkpoint", str(ckpt), "--input", str(inp),
                "--horizon", "8", "--output", str(tmp_path / "o.jsonl")]
    elif command == "evaluate":
        data = tmp_path / "eval.csv"
        write_eval_csv(data)
        argv = ["evaluate", "--checkpoint", str(ckpt), "--data", str(data),
                "--context", "32", "--horizon", "8"]
    else:
        conf = ablate_config(tmp_path / "ab", "context", context_lengths=[16])
        conf["checkpoint"] = str(ckpt)
        cfg = tmp_path / "ablate.json"
        cfg.write_text(json.dumps(conf))
        argv = ["ablate", "--config", str(cfg)]
    return main(argv)


@pytest.mark.parametrize("command", ["forecast", "evaluate"])
@pytest.mark.parametrize("kind", ["truncated", "meta-not-json", "bad-config", "no-config",
                                  "float-patch-len", "extra-not-object"])
def test_corrupt_checkpoint_exits_2_with_named_error(trained, tmp_path, capsys, command, kind):
    ckpt = corrupt_checkpoint(trained / "ckpt_final.npz", tmp_path / f"{kind}.npz", kind)
    assert run_with_checkpoint(command, ckpt, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(ckpt) in err


@pytest.mark.parametrize("command", ["forecast", "evaluate", "ablate"])
def test_unknown_normalization_exits_2_naming_the_mode(trained, tmp_path, capsys, command):
    ckpt = corrupt_checkpoint(trained / "ckpt_final.npz", tmp_path / "norm.npz",
                              "unknown-normalization")
    assert run_with_checkpoint(command, ckpt, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'bogus'" in err and str(ckpt) in err
    assert not (tmp_path / "o.jsonl").exists()


@pytest.mark.parametrize("command", ["forecast", "evaluate"])
def test_checkpoint_with_unsupported_feature_dim_exits_2_naming_it(trained, tmp_path, capsys,
                                                                  command):
    ckpt = corrupt_checkpoint(trained / "ckpt_final.npz", tmp_path / "fd3.npz", "feature-dim-3")
    assert run_with_checkpoint(command, ckpt, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "feature_dim" in err and str(ckpt) in err


def forecast_with(ckpt, tmp_path):
    inp = tmp_path / "in.jsonl"
    inp.write_text(json.dumps({"id": "a", "values": list(np.sin(np.arange(40.0)))}) + "\n")
    out = tmp_path / "out.jsonl"
    code = main(["forecast", "--checkpoint", str(ckpt), "--input", str(inp),
                 "--horizon", "12", "--output", str(out)])
    return code, out.read_bytes() if code == 0 else None


def test_checkpoint_with_legacy_model_keys(trained, tmp_path, capsys):
    good = trained / "ckpt_final.npz"
    width = TINY_MODEL["overrides"]["model_dim"]
    legacy = corrupt_checkpoint(good, tmp_path / "legacy.npz", f"{width},0.0")
    assert forecast_with(legacy, tmp_path) == forecast_with(good, tmp_path)
    for kind, key in ((f"{2 * width},0.0", "ffn_hidden"), (f"{width},0.1", "dropout")):
        bad = corrupt_checkpoint(good, tmp_path / "bad.npz", kind)
        assert forecast_with(bad, tmp_path)[0] == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err


def test_forecast_unknown_granularity_flag(trained, tmp_path, capsys):
    assert main(["forecast", "--checkpoint", str(trained / "ckpt_final.npz"),
                 "--input", str(tmp_path / "in.jsonl"), "--horizon", "8",
                 "--output", str(tmp_path / "o.jsonl"),
                 "--granularity", "fortnightly"]) == 2
    assert "granularity" in capsys.readouterr().err


# -- evaluate -------------------------------------------------------------------


def write_eval_csv(path, n_series=2, length=120):
    rows = ["id,timestamp,value"]
    for i in range(n_series):
        stamps = [datetime(2020, 1, 6) + timedelta(days=k) for k in range(length)]
        vals = np.sin(np.arange(length) / 5.0 + i) + 3.0
        rows.extend(f"s{i},{ts.isoformat()},{float(v)!r}" for ts, v in zip(stamps, vals))
    path.write_text("\n".join(rows) + "\n")


def test_evaluate_prints_model_and_baselines(trained, tmp_path, capsys):
    data = tmp_path / "eval.csv"
    write_eval_csv(data)
    out_dir = tmp_path / "evalout"
    code = main(["evaluate", "--checkpoint", str(trained / "ckpt_final.npz"),
                 "--data", str(data), "--context", "32", "--horizon", "8",
                 "--stride", "4", "--season", "12", "--out-dir", str(out_dir)])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split() == ["predictor", "n_windows", "excluded", "nrmse", "wape"]
    names = [l.split()[0] for l in lines[2:]]
    assert names == ["model", "repeat_last", "seasonal_naive(12)"]
    summary = json.loads((out_dir / "summary.json").read_text())
    assert set(summary["predictors"]) == set(names)
    assert (out_dir / "windows_s0.csv").exists()
    assert (out_dir / "windows_s1.csv").exists()


def evaluate_with_out_dir(trained, tmp_path):
    data = tmp_path / "eval.csv"
    write_eval_csv(data)
    out_dir = tmp_path / "evalout"
    code = main(["evaluate", "--checkpoint", str(trained / "ckpt_final.npz"),
                 "--data", str(data), "--context", "32", "--horizon", "8",
                 "--stride", "3", "--out-dir", str(out_dir)])
    assert code == 0
    return out_dir


@pytest.mark.parametrize("where", ["a_file", "under_a_file", "summary_is_a_directory"])
def test_evaluate_out_dir_that_cannot_be_written_exits_2(trained, tmp_path, capsys, where):
    data = tmp_path / "eval.csv"
    write_eval_csv(data)
    out_dir = {"a_file": data, "under_a_file": data / "sub", "summary_is_a_directory": tmp_path}[where]
    (tmp_path / "summary.json").mkdir()
    code = main(["evaluate", "--checkpoint", str(trained / "ckpt_final.npz"),
                 "--data", str(data), "--context", "32", "--horizon", "8",
                 "--stride", "4", "--out-dir", str(out_dir)])
    assert code == 2
    err = capsys.readouterr().err
    if where == "summary_is_a_directory":  # found only when the summary is written
        assert "windows scored" in err
        assert err.endswith(f"error: cannot write {tmp_path / 'summary.json'}: Is a directory\n")
    else:  # found before any scoring
        assert err == f"error: cannot write {out_dir}: {data} is not a directory\n"


def test_evaluate_forecasts_each_model_window_once(trained, tmp_path, monkeypatch, capsys):
    import patchcast.evaluation as evaluation

    calls = []
    real = evaluation.forecast

    def counting(*args, **kwargs):
        calls.append(len(args[2]))  # the rows of the stack
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluation, "forecast", counting)
    out_dir = evaluate_with_out_dir(trained, tmp_path)
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["predictors"]["model"]["n_windows"] > 0
    assert sum(calls) == summary["predictors"]["model"]["n_windows"]
    assert len(calls) == 2  # one stack per series: no context is clipped


def test_evaluate_reports_each_predictor_on_stderr(trained, tmp_path, capsys):
    evaluate_with_out_dir(trained, tmp_path)
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in lines] == ["model", "repeat_last"]
    for line in lines:
        assert re.fullmatch(r"[a-z_]+: 12 windows scored, 0 excluded, "
                            r"\d+\.\d{3} s in rolling_eval, \d+\.\d{3} s CPU", line), line


def test_evaluate_summary_pools_the_window_files(trained, tmp_path, capsys):
    out_dir = evaluate_with_out_dir(trained, tmp_path)
    summary = json.loads((out_dir / "summary.json").read_text())
    scores = []
    for path in sorted(out_dir.glob("windows_*.csv")):
        lines = path.read_text().splitlines()
        assert lines[0] == "origin,nrmse,wape"
        scores.extend(float(line.split(",")[1]) for line in lines[1:])
    model = summary["predictors"]["model"]
    assert model["n_windows"] == len(scores)
    assert model["nrmse"] == math.fsum(scores) / len(scores)


def test_evaluate_skips_and_reports_infinite_series(trained, tmp_path, capsys):
    data = tmp_path / "eval.csv"
    write_eval_csv(data, n_series=3)
    lines = data.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("s1,"))
    lines[row + 5] = lines[row + 5].rsplit(",", 1)[0] + ",inf"
    data.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "evalout"
    assert main(["evaluate", "--checkpoint", str(trained / "ckpt_final.npz"),
                 "--data", str(data), "--context", "32", "--horizon", "8",
                 "--stride", "4", "--out-dir", str(out_dir)]) == 0
    err = capsys.readouterr().err
    assert "s1" in err and "non-finite values" in err
    assert sorted(p.name for p in out_dir.glob("windows_*.csv")) == \
        ["windows_s0.csv", "windows_s2.csv"]


def test_evaluate_names_series_too_short_to_score(trained, tmp_path, capsys):
    rows = ["id,timestamp,value"]
    for sid, length in (("long", 200), ("short", 6)):
        stamps = [datetime(2021, 3, 1) + timedelta(hours=k) for k in range(length)]
        rows.extend(f"{sid},{ts.isoformat()},{3.0 + math.sin(i / 4.0)!r}"
                    for i, ts in enumerate(stamps))
    data = tmp_path / "eval.csv"
    data.write_text("\n".join(rows) + "\n")
    out_dir = tmp_path / "evalout"
    assert main(["evaluate", "--checkpoint", str(trained / "ckpt_final.npz"),
                 "--data", str(data), "--context", "32", "--horizon", "8",
                 "--stride", "8", "--out-dir", str(out_dir)]) == 0
    assert "skipped series short: fewer than 10 points" in capsys.readouterr().err
    assert [p.name for p in out_dir.glob("windows_*.csv")] == ["windows_long.csv"]


def test_evaluate_excludes_a_window_whose_mean_absolute_actual_rounds_to_zero(tmp_path, capsys):
    # the last window's actuals sum to a subnormal whose mean is 0: nrmse is
    # undefined there, so the window is excluded instead of a traceback
    values = [3.0 + math.sin(i / 4.0) for i in range(198)] + [5e-324, 0.0]
    stamps = [datetime(2021, 3, 1) + timedelta(hours=k) for k in range(len(values))]
    data = tmp_path / "eval.csv"
    data.write_text("\n".join(["id,timestamp,value"] + [
        f"s,{ts.isoformat()},{v!r}" for ts, v in zip(stamps, values)]) + "\n")
    checkpoint = Path(__file__).resolve().parents[1] / "perfbench" / "desk.npz"
    out_dir = tmp_path / "evalout"
    assert main(["evaluate", "--checkpoint", str(checkpoint), "--data", str(data),
                 "--context", "64", "--horizon", "2", "--out-dir", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())["predictors"]
    for name in ("model", "repeat_last"):
        assert summary[name]["excluded"] == 1, name
        assert summary[name]["n_windows"] > 0
    origins = [int(line.split(",")[0]) for line in
               (out_dir / "windows_s.csv").read_text().splitlines()[1:]]
    assert len(values) - 2 not in origins and len(values) - 3 in origins


def test_evaluate_names_an_unscorable_predictor(trained, tmp_path, capsys, monkeypatch):
    # a MetricError other than an excluded window exits 2 with the predictor named
    import patchcast.evaluation as evaluation
    from patchcast.evaluation import MetricError

    def unscorable(*args, **kwargs):
        raise MetricError("need equal non-empty 1-d arrays")

    monkeypatch.setattr(evaluation, "rolling_eval", unscorable)
    data = tmp_path / "eval.csv"
    write_eval_csv(data, n_series=1)
    assert main(["evaluate", "--checkpoint", str(trained / "ckpt_final.npz"),
                 "--data", str(data), "--context", "32", "--horizon", "8"]) == 2
    assert ("error: predictor model: series s0 at context length 32: need equal"
            in capsys.readouterr().err)


def test_evaluate_and_ablate_name_a_series_whose_forecast_overflows_alike(
        trained, tmp_path, capsys):
    data = tmp_path / "eval.csv"
    write_eval_csv(data, n_series=3)
    lines = data.read_text().splitlines()
    # s1 at +-1.7e308, a quarter of its points negative: every 32-point context's
    # statistics are finite, but x - mu overflows once normalized
    s1 = [line for line in lines[1:] if line.startswith("s1,")]
    data.write_text("\n".join(lines[:1] + [
        line if not line.startswith("s1,") else
        line.rsplit(",", 1)[0] + "," + ("-1.7e308" if s1.index(line) % 8 == 7 else "1.7e308")
        for line in lines[1:]]) + "\n")
    checkpoint = str(trained / "ckpt_final.npz")
    out_dir = tmp_path / "evalout"
    assert main(["evaluate", "--checkpoint", checkpoint,
                 "--data", str(data), "--context", "32", "--horizon", "8",
                 "--stride", "4", "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: predictor model: series s1 at context length 32: ")
    assert "overflows float64" in err and "Infinity" not in err
    assert not (out_dir / "summary.json").exists()
    config = tmp_path / "ablate.json"
    config.write_text(json.dumps({
        "suite": "context", "output_dir": str(tmp_path / "ablateout"),
        "checkpoint": checkpoint, "corpus": {"kind": "csv", "path": str(data)},
        "eval": {"horizon": 8, "stride": 4, "context_lengths": [32]}}))
    assert main(["ablate", "--config", str(config)]) == 2
    assert capsys.readouterr().err == err.replace("predictor model: ", "", 1)


def test_pretrain_on_a_csv_past_the_memory_ceiling_exits_2_before_reading_it(
        tmp_path, capsys, monkeypatch):
    from patchcast import model

    data, config = tmp_path / "corpus.csv", tmp_path / "pretrain.json"
    write_eval_csv(data)
    config.write_text(json.dumps({"output_dir": str(tmp_path / "out"),
                                  "corpus": {"kind": "csv", "path": str(data)}}))
    monkeypatch.setattr(model, "MEMORY_CEILING_BYTES", 4 * data.stat().st_size - 1)
    assert main(["pretrain", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot ingest {data}: reading a CSV file of "
                          f"{data.stat().st_size:,} bytes needs ")
    assert err.endswith("; lower the number of rows\n") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_evaluate_too_long_horizon_fails_cleanly(trained, tmp_path, capsys):
    data = tmp_path / "eval.csv"
    write_eval_csv(data, n_series=1)
    assert main(["evaluate", "--checkpoint", str(trained / "ckpt_final.npz"),
                 "--data", str(data), "--context", "32", "--horizon", "99"]) == 2
    assert "fits no" in capsys.readouterr().err


@pytest.mark.parametrize("season", ["0", "-3"])
def test_evaluate_rejects_season_below_one(tmp_path, capsys, season):
    # before any file is read: neither of these exists
    assert main(["evaluate", "--checkpoint", str(tmp_path / "ghost.npz"),
                 "--data", str(tmp_path / "ghost.csv"), "--context", "32", "--horizon", "8",
                 "--season", season]) == 2
    assert capsys.readouterr().err == f"error: season must be an integer >= 1, got {season}\n"


def test_evaluate_missing_data_file(trained, tmp_path, capsys):
    assert main(["evaluate", "--checkpoint", str(trained / "ckpt_final.npz"),
                 "--data", str(tmp_path / "ghost.csv"), "--context", "8",
                 "--horizon", "4"]) == 2
    assert "ingest" in capsys.readouterr().err


# -- ablate ---------------------------------------------------------------------


def ablate_config(out_dir, suite, **eval_over):
    ev = {"horizon": 8, "stride": 8}
    ev.update(eval_over)
    return {
        "suite": suite,
        "seed": 1,
        "output_dir": str(out_dir),
        "corpus": {"kind": "synthetic", "seed": 5, "spec": CORPUS_SPEC},
        "model": TINY_MODEL,
        "train": {"total_steps": 2, "batch_size": 2, "val_every": 0},
        "eval": ev,
    }


def test_ablate_context_suite(tmp_path, capsys):
    out_dir = tmp_path / "ab"
    cfg = tmp_path / "ablate.json"
    cfg.write_text(json.dumps(ablate_config(out_dir, "context",
                                            context_lengths=[16, 32])))
    assert main(["ablate", "--config", str(cfg)]) == 0
    table = capsys.readouterr().out
    assert table.splitlines()[0].split()[0] == "context_len"
    assert (out_dir / "context_table.txt").read_text() == table
    rows = (out_dir / "context_rows.csv").read_text().splitlines()
    assert rows[0] == "context_len,n_windows,excluded,nrmse,wape"
    assert len(rows) == 3


def test_ablate_output_dir_that_cannot_be_written_exits_2_before_training(tmp_path, capsys,
                                                                          monkeypatch):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out_dir = blocker / "ab"

    def no_training(*args, **kwargs):
        raise AssertionError("ablate trained before checking its output directory")

    monkeypatch.setattr("patchcast.cli.train", no_training)
    cfg = tmp_path / "ablate.json"
    cfg.write_text(json.dumps(ablate_config(out_dir, "context", context_lengths=[16])))
    assert main(["ablate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out_dir}: {blocker} is not a directory\n"


@pytest.mark.parametrize("suite", ["context", "input-patch"])
def test_ablate_model_past_the_memory_ceiling_exits_2(tmp_path, capsys, suite):
    conf = ablate_config(tmp_path / "ab", suite, **({"sizes": [4]} if suite != "context" else {}))
    conf["model"] = {"preset": "desk", "overrides": {"model_dim": 2**16}}
    cfg = tmp_path / "ablate.json"
    cfg.write_text(json.dumps(conf))
    assert main(["ablate", "--config", str(cfg)]) == 2
    assert "model_dim (65536)" in capsys.readouterr().err
    assert not (tmp_path / "ab").exists()


def test_ablate_reruns_identical(tmp_path, capsys):
    cfg = tmp_path / "ablate.json"
    cfg.write_text(json.dumps(ablate_config(tmp_path / "ab", "context",
                                            context_lengths=[16])))
    assert main(["ablate", "--config", str(cfg)]) == 0
    first = (tmp_path / "ab" / "context_rows.csv").read_bytes()
    assert main(["ablate", "--config", str(cfg)]) == 0
    assert (tmp_path / "ab" / "context_rows.csv").read_bytes() == first


def test_ablate_context_reuses_checkpoint(trained, tmp_path, capsys):
    conf = ablate_config(tmp_path / "ab", "context", context_lengths=[16])
    conf["checkpoint"] = str(trained / "ckpt_final.npz")
    del conf["model"], conf["train"]
    cfg = tmp_path / "ablate.json"
    cfg.write_text(json.dumps(conf))
    assert main(["ablate", "--config", str(cfg)]) == 0
    assert (tmp_path / "ab" / "context_table.txt").exists()


def test_ablate_output_patch_suite_reports_rounds(tmp_path, capsys):
    out_dir = tmp_path / "ab"
    cfg = tmp_path / "ablate.json"
    cfg.write_text(json.dumps(ablate_config(out_dir, "output-patch",
                                            sizes=[8, 4], context_len=32,
                                            horizon=16)))
    assert main(["ablate", "--config", str(cfg)]) == 0
    rows = (out_dir / "output-patch_rows.csv").read_text().splitlines()
    assert rows[0] == "output_patch_len,rounds,n_windows,excluded,nrmse,wape"
    assert rows[1].startswith("8,2,")   # ceil(16/8) = 2 rounds
    assert rows[2].startswith("4,4,")   # ceil(16/4) = 4 rounds


def test_ablate_input_patch_suite(tmp_path, capsys):
    out_dir = tmp_path / "ab"
    cfg = tmp_path / "ablate.json"
    cfg.write_text(json.dumps(ablate_config(out_dir, "input-patch",
                                            sizes=[4, 2], context_len=32)))
    assert main(["ablate", "--config", str(cfg)]) == 0
    rows = (out_dir / "input-patch_rows.csv").read_text().splitlines()
    assert rows[0] == "input_patch_len,n_windows,excluded,nrmse,wape"
    assert rows[1].startswith("4,") and rows[2].startswith("2,")


def test_ablate_unknown_suite_lists_options(tmp_path, capsys):
    cfg = tmp_path / "ablate.json"
    cfg.write_text(json.dumps(ablate_config(tmp_path / "ab", "sideways")))
    assert main(["ablate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "context" in err and "input-patch" in err and "output-patch" in err


def test_ablate_patch_suite_requires_sizes(tmp_path, capsys):
    cfg = tmp_path / "ablate.json"
    cfg.write_text(json.dumps(ablate_config(tmp_path / "ab", "input-patch")))
    assert main(["ablate", "--config", str(cfg)]) == 2
    assert "sizes" in capsys.readouterr().err


# two series whose 2080-point test splits fit one 2049-step window
LONG_SPEC = {"pretrain": [{"name": "long", "granularity": "daily", "kind": "sinusoid",
                           "n_series": 2, "length_range": [10400, 10400],
                           "period_range": [8.0, 16.0], "noise_level": 0.02}]}


@pytest.mark.parametrize("suite,ev", [
    ("context", {"context_lengths": [16]}),
    ("input-patch", {"sizes": [4, 2], "context_len": 32}),
    ("output-patch", {"sizes": [16, 8], "context_len": 32}),  # only size 8 is past it
])
def test_ablate_horizon_past_a_models_bound_exits_2_before_training(tmp_path, capsys, suite, ev):
    # output_patch_len 8 bounds the horizon at MAX_ROUNDS * 8 = 2048 points
    conf = ablate_config(tmp_path / "ab", suite, horizon=2049, stride=4096, **ev)
    conf["corpus"]["spec"] = LONG_SPEC
    cfg = tmp_path / "ablate.json"
    cfg.write_text(json.dumps(conf))
    assert main(["ablate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "MAX_ROUNDS" in err and "output_patch_len 8" in err
    assert not (tmp_path / "ab").exists()


FAMILY = "corpus.spec.pretrain.0"


@pytest.mark.parametrize("command,path,value", [
    ("ablate", "train.total_steps", "two"),
    ("ablate", "eval.horizon", "eight"),
    ("pretrain", "seed", "x"),
    ("pretrain", "train.total_steps", 2.5),
    ("pretrain", "train.base_lr", "fast"),
    ("ablate", "eval.stride", 0),
    ("ablate", "eval.context_lengths", [16, "32"]),
    ("ablate", "corpus.seed", -1),
    # an int field given a float or a bool
    ("pretrain", "model.overrides.input_patch_len", 2.5),
    ("pretrain", "model.overrides.num_heads", 2.0),
    ("pretrain", "model.overrides.feature_dim", True),
    # calendar features are 5 wide: any feature_dim but 0 and 5 cannot be fed
    ("pretrain", "model.overrides.feature_dim", 3),
    ("pretrain", "model.overrides.max_positions", 1e9),
    ("pretrain", f"{FAMILY}.n_series", 2.5),
    ("pretrain", f"{FAMILY}.n_components", 1.5),
    ("pretrain", f"{FAMILY}.length_range", [100.5, 120]),
    # a float field that is not finite or is below its bound, a str field given a list
    ("pretrain", "train.base_lr", math.nan),
    ("pretrain", "train.base_lr", -1.0),
    ("pretrain", f"{FAMILY}.name", [1]),
    # unknown keys, and sections or values of the wrong JSON type
    ("pretrain", "model.overrides.bogus", 1),
    ("pretrain", "model.overrides", 5),
    ("pretrain", "model.preset", [1]),
    ("pretrain", f"{FAMILY}.length_range", 5),
    ("pretrain", "corpus.spec.pretrain", 5),
    ("pretrain", "output_dir", 5),
    ("ablate", "suite", [1]),
    ("ablate", "checkpoint", 5),
])
def test_malformed_config_value_exits_2_naming_the_key(tmp_path, capsys, command, path, value):
    conf = json.loads(json.dumps(  # a deep copy: the templates share nested dicts
        ablate_config(tmp_path / "out", "context", context_lengths=[16])
        if command == "ablate" else pretrain_config(tmp_path / "out")))
    *parents, key = path.split(".")
    section = conf
    for name in parents:
        section = section[int(name) if name.isdigit() else name]
    section[key] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(conf))
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path", sorted((Path(__file__).parent.parent / "configs").glob("*.json")),
                         ids=lambda p: p.name)
def test_committed_config_builds_its_settings(path):
    from patchcast.cli import (_build_ablate_eval, _build_model_config,
                               _build_train_config, _load_json)
    from patchcast.inference import check_horizon

    raw = _load_json(path)
    model_cfg = _build_model_config(raw["model"])
    train_cfg = _build_train_config(raw)
    assert train_cfg.to_dict() == {**TrainConfig().to_dict(), "seed": raw["seed"], **raw["train"]}
    if "suite" in raw:
        ev = _build_ablate_eval(raw["eval"], raw["suite"])
        sizes = ev["sizes"] if raw["suite"] == "output-patch" else [model_cfg.output_patch_len]
        for h in sizes:
            check_horizon(ev["horizon"], replace(model_cfg, output_patch_len=h))


# Any JSON value a config may hold: some well-formed, most not.
JSON_VALUES = st.one_of(
    st.integers(-2, 600), st.floats(), st.booleans(), st.none(), st.text(max_size=2),
    st.sampled_from(["desk", "full", "hourly", "sinusoid", "linear", "per-window"]),
    st.lists(st.integers(-2, 600) | st.floats(-1.0, 100.0), max_size=3))


def json_sections(names):
    """Objects over `names` plus one unknown key, or any other JSON value."""
    keys = st.sampled_from(sorted(names) + ["bogus"])
    return st.dictionaries(keys, JSON_VALUES, max_size=len(names)) | JSON_VALUES


def field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


FUZZ = settings(derandomize=True, max_examples=200, deadline=None)


@FUZZ
@given(st.fixed_dictionaries({}, optional={
    "preset": JSON_VALUES, "overrides": json_sections(field_names(ModelConfig)),
    "bogus": JSON_VALUES}) | JSON_VALUES)
def test_fuzzed_model_section_raises_only_cli_error(section):
    with contextlib.suppress(CLIError):
        _build_model_config(section)


@FUZZ
@given(st.fixed_dictionaries({}, optional={
    "seed": JSON_VALUES, "train": json_sections(field_names(TrainConfig) | set(FIXED_TRAIN_KEYS))}))
def test_fuzzed_train_section_raises_only_cli_error(raw):
    with contextlib.suppress(CLIError):
        _build_train_config(raw)


@FUZZ
@given(st.fixed_dictionaries({}, optional={
    role: st.lists(json_sections(field_names(FamilySpec)), max_size=2) | JSON_VALUES
    for role in ("pretrain", "holdout", "bogus")}) | JSON_VALUES)
def test_fuzzed_generator_spec_raises_only_its_error(spec):
    with contextlib.suppress(GeneratorSpecError):
        GeneratorSpec.from_dict(spec)


@FUZZ
@given(st.dictionaries(st.sampled_from(sorted(field_names(ModelConfig)) + ["ffn_hidden", "dropout",
                                                                           "bogus"]),
                       JSON_VALUES) | JSON_VALUES)
def test_fuzzed_checkpoint_model_config_raises_only_config_error(config):
    with contextlib.suppress(ConfigError):
        ModelConfig.from_dict(config)


# -- parser ---------------------------------------------------------------------


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["transcend"])
    assert exc.value.code == 2
