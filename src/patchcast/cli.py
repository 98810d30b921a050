"""Command-line entry points: pretrain, forecast, evaluate, ablate.

Every command is driven by explicit arguments plus JSON config files with
strict unknown-key rejection, and all outputs are deterministic for a fixed
config, so reruns overwrite byte-identical files. The only environment
variable honored is PATCHCAST_OUTPUT_DIR, which anchors relative output
directories.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint
from .data import (
    GRANULARITIES,
    GeneratorSpec,
    GeneratorSpecError,
    IngestError,
    MIN_SPLIT_LENGTH,
    SamplingError,
    default_mixture,
    derive_date_features,
    ingest_csv,
    parse_timestamp,
    synth_corpus,
)
from .evaluation import (
    POOLED_COLUMNS,
    EvalConfigError,
    MetricError,
    context_sweep,
    format_csv,
    format_table,
    make_model_predictor,
    make_seasonal_naive,
    patch_size_comparison,
    repeat_last,
    score_series,
)
from .inference import ForecastError, check_horizon, forecast
from .model import ConfigError, ModelConfig, check_int, check_weights_memory, config_fields
from .training import (
    NORMALIZATION_MODES,
    TrainConfig,
    TrainConfigError,
    TrainingDivergedError,
    train,
)

SUITE_HEADERS = {
    "context": ["context_len", *POOLED_COLUMNS],
    "input-patch": ["input_patch_len", *POOLED_COLUMNS],
    "output-patch": ["output_patch_len", "rounds", *POOLED_COLUMNS],
}
OUTPUT_DIR_ENV = "PATCHCAST_OUTPUT_DIR"


class CLIError(Exception):
    """Config/usage problem surfaced to the user; exits with code 2."""


# the named errors that `main` reports as `error: ...` with exit code 2
USER_ERRORS = (CLIError, CheckpointError, ConfigError, TrainConfigError, EvalConfigError,
               ForecastError, MetricError, SamplingError)


def _read_text(path, what: str) -> str:
    """The text of UTF-8 file `path`; CLIError naming the `what` file if it cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CLIError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # a UnicodeDecodeError: a path from argv holds no NUL byte
        raise CLIError(f"cannot read {path}: not UTF-8 "
                       f"(byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from exc


def _load_json(path) -> dict:
    try:
        loaded = json.loads(_read_text(path, "config"))
    except (ValueError, RecursionError) as exc:  # integers past 4,300 digits, deep nesting
        raise CLIError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise CLIError(f"config {path} must hold a JSON object")
    return loaded


def _config_str(section: dict, key: str, where: str, default=None) -> str:
    value = section.get(key, default)
    if not isinstance(value, str):
        raise CLIError(f"{where} {key} must be a string, got {value!r}")
    return value


def _resolve_out_dir(raw: str) -> Path:
    path = Path(raw)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _check_out_dir(path: Path) -> None:
    """CLIError unless `path` is a writable directory or could be made one;
    for a command that writes only after scoring or training. Creates
    nothing."""
    for known in (path, *path.parents):
        if known.exists():
            if not known.is_dir():
                raise CLIError(f"cannot write {path}: {known} is not a directory")
            if not os.access(known, os.W_OK | os.X_OK):
                raise CLIError(f"cannot write {path}: {known} is not writable")
            return


@contextlib.contextmanager
def _writing(path: Path):
    """Raise an OSError of the block's writes under `path` as CLIError."""
    try:
        yield
    except OSError as exc:
        raise CLIError(f"cannot write {exc.filename or path}: {exc.strerror or exc}") from exc


def _build_model_config(section: dict) -> ModelConfig:
    try:
        section = config_fields({"preset", "overrides"}, section, ConfigError, "model")
        overrides = config_fields(ModelConfig, section.get("overrides", {}), ConfigError,
                                  "model overrides")
        return ModelConfig.preset(section.get("preset", "desk"), **overrides)
    except ConfigError as exc:
        raise CLIError(f"bad model config: {exc}") from exc


def _build_train_config(raw: dict) -> TrainConfig:
    """The config's train section with its top-level seed merged in."""
    section = raw.get("train", {})
    if "seed" in raw and isinstance(section, dict):
        section = {"seed": raw["seed"], **section}
    try:
        return TrainConfig.from_dict(section)
    except TrainConfigError as exc:
        raise CLIError(f"bad train config: {exc}") from exc


def _build_ablate_eval(ev: dict, suite: str) -> dict:
    """An ablate config's eval section, defaults filled in and every integer checked."""
    defaults = {"horizon": 24, "stride": 1, "context_len": 256,
                "context_lengths": [64, 128, 256, 512], "sizes": None}
    config_fields(set(defaults), ev, CLIError, "ablate eval")
    out = {key: ev.get(key, default) for key, default in defaults.items()}
    listed = "context_lengths" if suite == "context" else "sizes"
    if not isinstance(out[listed], list) or not out[listed]:
        raise CLIError(f"{suite} suite eval.{listed} must be a non-empty list, got {out[listed]!r}")
    for key in ("horizon", "stride", "context_len"):
        check_int(out[key], f"eval.{key}", CLIError)
    for value in out[listed]:
        check_int(value, f"eval.{listed} entry", CLIError)
    return out


def _build_corpus(section: dict, config_dir: Path):
    """Returns (train_corpus, holdout_corpus_or_None, manifest_dict)."""
    kind = section.get("kind") if isinstance(section, dict) else None
    if kind == "synthetic":
        config_fields({"kind", "spec", "seed"}, section, CLIError, "corpus")
        try:
            spec = GeneratorSpec.from_dict(section.get("spec", {}))
            seed = check_int(section.get("seed", 0), "corpus seed", CLIError, low=0)
            pair = synth_corpus(spec, seed=seed)
        except GeneratorSpecError as exc:
            raise CLIError(f"bad corpus spec: {exc}") from exc
        manifest = {"kind": "synthetic", "seed": seed,
                    "pretrain": pair.pretrain.manifest(),
                    "holdout": pair.holdout.manifest()}
        holdout = pair.holdout if len(pair.holdout) else None
        return pair.pretrain, holdout, manifest
    if kind == "csv":
        config_fields({"kind", "path", "granularity", "log_transform"}, section, CLIError, "corpus")
        # an absolute path replaces config_dir
        path = config_dir / _config_str(section, "path", "corpus", "")
        log_transform = section.get("log_transform", False)
        if not isinstance(log_transform, bool):
            raise CLIError(f"corpus log_transform must be true or false, got {log_transform!r}")
        report = _ingest(path, granularity=section.get("granularity"),
                         log_transform=log_transform)
        manifest = {"kind": "csv", "path": str(path),
                    "series": report.corpus.manifest(),
                    "skipped": [{"id": sid, "reason": why} for sid, why in report.skipped]}
        return report.corpus, None, manifest
    raise CLIError(f'corpus kind must be "synthetic" or "csv", got {kind!r}')


def _ingest(path, **options):
    """ingest_csv(path, **options); CLIError naming the file if it fails."""
    try:
        return ingest_csv(path, **options)
    except (OSError, IngestError) as exc:
        raise CLIError(f"cannot ingest {path}: {exc}") from exc


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _default_pretrain_config() -> dict:
    return {
        "seed": 0,
        "output_dir": "runs/pretrain",
        "corpus": {"kind": "synthetic", "seed": 0,
                   "spec": {"pretrain": [], "holdout": []}},
        "model": {"preset": "desk", "overrides": {}},
        "train": TrainConfig().to_dict(),
    }


# -- pretrain ---------------------------------------------------------------------


def cmd_pretrain(args) -> int:
    if args.show_defaults:
        print(json.dumps(_default_pretrain_config(), indent=2, sort_keys=True))
        return 0
    if not args.config:
        raise CLIError("pretrain needs --config (or --show-defaults)")
    cfg_path = Path(args.config)
    raw = _load_json(cfg_path)
    config_fields({"seed", "output_dir", "corpus", "model", "train"}, raw, CLIError, "pretrain config")
    out_dir = _resolve_out_dir(_config_str(raw, "output_dir", "pretrain config"))
    corpus, _, manifest = _build_corpus(raw.get("corpus", {}), cfg_path.parent)
    model_cfg = _build_model_config(raw.get("model", {}))
    train_cfg = _build_train_config(raw)

    # before anything is written: a corpus with no training window, a model too large
    default_mixture(corpus, model_cfg.input_patch_len, model_cfg.output_patch_len)
    if args.resume_from is None:  # a resumed run loads its weights
        check_weights_memory(model_cfg)
    try:
        with _writing(out_dir):
            out_dir.mkdir(parents=True, exist_ok=True)
            _write_json(out_dir / "manifest.json", manifest)
            _write_json(out_dir / "resolved_config.json", {
                "seed": train_cfg.seed,
                "output_dir": str(out_dir),
                "corpus": raw.get("corpus", {}),
                "model": model_cfg.to_dict(),
                "train": train_cfg.to_dict(),
            })
        result = train(corpus, model_cfg, train_cfg, out_dir=out_dir,
                       resume_from=args.resume_from)
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    last = result.loss_curve[-1]
    print(f"trained {train_cfg.total_steps} steps; "
          f"final train loss {last[1]:.6f}; "
          f"checkpoint {result.final_checkpoint}")
    return 0


# -- forecast ----------------------------------------------------------------------


def _record_features(record: dict, cfg: ModelConfig, horizon: int,
                     default_granularity: str | None):
    if cfg.feature_dim == 0:
        return None
    gran = record.get("granularity", default_granularity)
    start_text = record.get("start")
    if gran is None or start_text is None:
        return None  # calendar unknown: model sees its masked sentinel
    if gran not in GRANULARITIES:
        raise ForecastError(f"unknown granularity {gran!r}")
    try:
        if not isinstance(start_text, str):  # str(20200106) would parse as 2020-01-06
            raise ValueError("start is not a string")
        start = parse_timestamp(start_text)
    except (ValueError, OverflowError) as exc:
        raise ForecastError(f"bad start timestamp {start_text!r}") from exc
    return derive_date_features(start, gran, len(record["values"]) + horizon)


def _load_for_horizon(path, horizon: int):
    """The checkpoint at `path` and its normalization mode; CLIError if it is
    unusable, records an unknown mode, or `horizon` is < 1 or needs more than
    MAX_ROUNDS rounds of its model."""
    bundle = load_checkpoint(path)
    check_horizon(horizon, bundle.config)
    normalization = bundle.extra.get("normalization", "per-window")
    if normalization not in NORMALIZATION_MODES:
        raise CLIError(f"checkpoint {path} records unknown normalization mode {normalization!r}")
    return bundle, normalization


def cmd_forecast(args) -> int:
    if args.granularity is not None and args.granularity not in GRANULARITIES:
        raise CLIError(f"unknown --granularity {args.granularity!r}")
    bundle, normalization = _load_for_horizon(args.checkpoint, args.horizon)
    failures = 0
    in_lines = _read_text(args.input, "input").splitlines()
    out_path = Path(args.output)
    with _writing(out_path), open(out_path, "w") as out:
        for line_no, line in enumerate(in_lines, start=1):
            if not line.strip():
                continue
            entry = _forecast_record(line, line_no, bundle, args.horizon,
                                     normalization, args.granularity)
            if "error" in entry:
                failures += 1
            out.write(json.dumps(entry, sort_keys=True) + "\n")
    if failures:
        print(f"{failures} record(s) failed; see {out_path}", file=sys.stderr)
    return 1 if failures else 0


def _forecast_record(line: str, line_no: int, bundle, horizon: int,
                     normalization: str, default_granularity: str | None) -> dict:
    try:
        record = json.loads(line)
        if isinstance(record, dict):  # the id is echoed, so NaN or Infinity there is refused
            json.dumps(record.get("id"), allow_nan=False)
    except (ValueError, RecursionError) as exc:  # also integers past 4,300 digits, deep nesting
        return {"line": line_no, "error": f"invalid JSON: {exc}"}
    if not isinstance(record, dict) or "values" not in record:
        return {"line": line_no, "error": 'record must be an object with "values"'}
    rid = record.get("id", f"line-{line_no}")
    values = record["values"]
    if not isinstance(values, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        return {"id": rid, "error": '"values" must be an array of numbers'}
    try:
        values = np.asarray(values, dtype=np.float64)
        feats = _record_features(record, bundle.config, horizon, default_granularity)
        res = forecast(bundle.weights, bundle.config, values, horizon,
                       features=feats, normalization=normalization)
    except (ForecastError, ValueError, OverflowError) as exc:
        return {"id": rid, "error": str(exc)}
    return {"id": rid, "forecast": [float(v) for v in res.values],
            "rounds": res.rounds}


# -- evaluate ----------------------------------------------------------------------


def cmd_evaluate(args) -> int:
    # a bad season exits 2 before any file is read
    seasonal = [] if args.season is None else [
        (f"seasonal_naive({args.season})", make_seasonal_naive(args.season))]
    bundle, normalization = _load_for_horizon(args.checkpoint, args.horizon)
    report = _ingest(args.data)
    skipped = report.skipped + [(s.series_id, f"fewer than {MIN_SPLIT_LENGTH} points")
                                for s in report.corpus.series if len(s) < MIN_SPLIT_LENGTH]
    for sid, reason in skipped:
        print(f"skipped series {sid}: {reason}", file=sys.stderr)
    series = [s for s in report.corpus.series if len(s) >= MIN_SPLIT_LENGTH]
    if not series:
        raise CLIError(f"no usable series (need at least {MIN_SPLIT_LENGTH} points each)")
    predictors = [("model", make_model_predictor(bundle.weights, bundle.config,
                                                 normalization)),
                  ("repeat_last", repeat_last), *seasonal]
    out_dir = _resolve_out_dir(args.out_dir) if args.out_dir else None
    if out_dir is not None:
        _check_out_dir(out_dir)
    reports, rows = {}, []
    for name, predictor in predictors:
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            reports[name], pooled = score_series(predictor, series, args.context,
                                                 args.horizon, args.stride)
        except (ForecastError, MetricError) as exc:
            raise CLIError(f"predictor {name}: {exc}") from exc
        seconds, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        rows.append({"predictor": name, **pooled})
        # CPU time beside wall time: a stack's chunks run on both cores
        print(f"{name}: {pooled['n_windows']} windows scored, {pooled['excluded']} "
              f"excluded, {seconds:.3f} s in rolling_eval, {cpu:.3f} s CPU", file=sys.stderr)
    print(format_table(rows, ["predictor", *POOLED_COLUMNS]), end="")

    if out_dir is not None:
        summary = {
            "context_len": args.context, "horizon": args.horizon,
            "stride": args.stride,
            "predictors": {r["predictor"]: {k: (None if isinstance(v, float) and math.isnan(v) else v)
                                            for k, v in r.items() if k != "predictor"}
                           for r in rows}}
        with _writing(out_dir):
            out_dir.mkdir(parents=True, exist_ok=True)
            for rep in reports["model"]:
                rep.write_csv(out_dir / f"windows_{rep.series_id}.csv")
            _write_json(out_dir / "summary.json", summary)
    return 0


# -- ablate ------------------------------------------------------------------------


def cmd_ablate(args) -> int:
    cfg_path = Path(args.config)
    raw = _load_json(cfg_path)
    config_fields({"suite", "seed", "output_dir", "corpus", "model", "train", "checkpoint",
                   "eval"}, raw, CLIError, "ablate config")
    suite = raw.get("suite")
    if not isinstance(suite, str) or suite not in SUITE_HEADERS:
        raise CLIError(f"unknown suite {suite!r}; available: {', '.join(SUITE_HEADERS)}")
    out_dir = _resolve_out_dir(_config_str(raw, "output_dir", "ablate config"))
    ev = _build_ablate_eval(raw.get("eval", {}), suite)
    horizon, stride = ev["horizon"], ev["stride"]
    corpus, holdout, _ = _build_corpus(raw.get("corpus", {}), cfg_path.parent)
    eval_series = holdout.series if holdout is not None else corpus.series
    _check_out_dir(out_dir)

    if suite == "context":
        if "checkpoint" in raw:
            bundle, normalization = _load_for_horizon(
                _config_str(raw, "checkpoint", "ablate config"), horizon)
            weights, model_cfg = bundle.weights, bundle.config
        else:
            model_cfg = _build_model_config(raw.get("model", {}))
            train_cfg = _build_train_config(raw)
            check_horizon(horizon, model_cfg)
            weights = train(corpus, model_cfg, train_cfg).weights
            normalization = train_cfg.normalization
        rows = context_sweep(weights, model_cfg, eval_series, ev["context_lengths"],
                             horizon, stride, normalization)
    else:
        which = "input" if suite == "input-patch" else "output"
        model_cfg = _build_model_config(raw.get("model", {}))
        train_cfg = _build_train_config(raw)
        rows = patch_size_comparison(corpus, eval_series, model_cfg, train_cfg, which,
                                     ev["sizes"], ev["context_len"], horizon, stride)

    table = format_table(rows, SUITE_HEADERS[suite])
    print(table, end="")
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{suite}_table.txt").write_text(table)
        (out_dir / f"{suite}_rows.csv").write_text(format_csv(rows, SUITE_HEADERS[suite]))
    return 0


# -- entry point -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchcast",
        description="Patched-attention time-series foundation model: "
                    "pretrain, forecast, evaluate, ablate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser("pretrain", help="pretrain on a corpus from a JSON config")
    p_tr.add_argument("--config", help="JSON config path")
    p_tr.add_argument("--resume-from", help="checkpoint to continue from")
    p_tr.add_argument("--show-defaults", action="store_true",
                      help="print a complete default config and exit")
    p_tr.set_defaults(func=cmd_pretrain)

    p_fc = sub.add_parser("forecast", help="zero-shot forecasts for JSONL records")
    p_fc.add_argument("--checkpoint", required=True)
    p_fc.add_argument("--input", required=True, help="JSONL with id/values per line")
    p_fc.add_argument("--horizon", required=True, type=int)
    p_fc.add_argument("--output", required=True, help="JSONL results path")
    p_fc.add_argument("--granularity", help="default calendar granularity for records")
    p_fc.set_defaults(func=cmd_forecast)

    p_ev = sub.add_parser("evaluate", help="rolling-window scores against baselines")
    p_ev.add_argument("--checkpoint", required=True)
    p_ev.add_argument("--data", required=True, help="id,timestamp,value CSV")
    p_ev.add_argument("--context", required=True, type=int)
    p_ev.add_argument("--horizon", required=True, type=int)
    p_ev.add_argument("--stride", type=int, default=1)
    p_ev.add_argument("--season", type=int,
                      help="season length for the seasonal-naive baseline")
    p_ev.add_argument("--out-dir", help="write per-window CSVs and summary.json here")
    p_ev.set_defaults(func=cmd_evaluate)

    p_ab = sub.add_parser("ablate", help="run an ablation suite from a JSON config")
    p_ab.add_argument("--config", required=True)
    p_ab.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
