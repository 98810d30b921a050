"""One benchmark workload in one process.

``run.py`` starts this file with BLAS pinned to one thread. The process
builds its inputs from the seed and times the operations. It checks every
output and prints one JSON result as its last stdout line. With ``--trace 0``
the result holds the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.

The program is called only through module attributes such as
``training.train`` and ``inference.forecast``. A tracer can replace those
attributes, so it sees every call the benchmark makes.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from datetime import timedelta
from pathlib import Path

import numpy as np

from patchcast import checkpoint, cli, data, inference, training
from patchcast.model import ModelConfig

from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
CHECKPOINT = BENCH_DIR / "desk.npz"
EXPECTED = BENCH_DIR / "expected.json"
SETUP_REPS = 2  # extra set-ups after each pass
MIN_PASSES = 3


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _family(name, granularity, n, lengths, periods, **kw) -> data.FamilySpec:
    return data.FamilySpec(name=name, granularity=granularity, kind="sinusoid",
                           n_series=n, length_range=lengths, period_range=periods, **kw)


def _nrmse(actual: np.ndarray, predicted: np.ndarray) -> float:
    return math.sqrt(float(np.mean((actual - predicted) ** 2))) / float(np.mean(np.abs(actual)))


# -- workloads --------------------------------------------------------------------


class Workload:
    """A fixed list of `ops_per_pass` distinct operations, one "pass".

    `setup()` makes the inputs and is timed as setup_s; `prepare()` is
    untimed bookkeeping after set-up; `op(j)` runs operation j, checks its
    outputs and returns the items it produced; `quality()` is a
    deterministic output value, defined after one pass and checked against
    expected.json; `close()` removes files the workload wrote.
    """

    def prepare(self) -> None:
        pass

    def close(self) -> None:
        pass


class Pretrain(Workload):
    """`train()` runs of `steps` steps, one per train seed, on one corpus."""

    unit = "step"
    item = "training token"

    def __init__(self, seed: int, families, batch_size: int, steps: int, runs: int):
        self.seed = seed
        self.spec = data.GeneratorSpec(pretrain=families)
        self.cfg = ModelConfig.preset("desk")
        self.train_cfgs = [training.TrainConfig(total_steps=steps, batch_size=batch_size,
                                                base_lr=3e-3, seed=runs * seed + j,
                                                val_every=0)
                           for j in range(runs)]
        self.ops_per_pass = runs
        self.units_per_op = steps
        self.tail = max(1, steps // 5)
        self.curves: dict[int, list[float]] = {}

    def setup(self) -> None:
        self.corpus = data.synth_corpus(self.spec, seed=self.seed).pretrain

    def prepare(self) -> None:
        # Replay train()'s batch streams to count the tokens each run encodes.
        p, h = self.cfg.input_patch_len, self.cfg.output_patch_len
        mixture = data.default_mixture(self.corpus, p, h)
        self.tokens = []
        for tc in self.train_cfgs:
            tokens = 0
            for step in range(1, tc.total_steps + 1):
                windows = data.sample_training_windows(
                    self.corpus, mixture, tc.batch_size, training.rng_for(tc.seed, 1, step),
                    input_patch_len=p, output_patch_len=h)
                tokens += len(windows) * ((len(windows[0].values) - h) // p)
            self.tokens.append(tokens)

    def op(self, j: int) -> int:
        tc = self.train_cfgs[j]
        result = training.train(self.corpus, self.cfg, tc)
        curve = [loss for _, loss, _ in result.loss_curve]
        if len(curve) != tc.total_steps or not all(map(math.isfinite, curve)):
            raise CheckFailed(f"run {j}: loss curve has {len(curve)} steps or non-finite values")
        first = self.curves.setdefault(j, curve)
        if curve != first:
            raise CheckFailed(f"run {j}: loss curve differs from the same run earlier")
        if not statistics.fmean(curve[-self.tail:]) < statistics.fmean(curve[:self.tail]):
            raise CheckFailed(f"run {j}: training did not lower the loss")
        return self.tokens[j]

    def quality(self) -> float:
        """final_loss: mean loss over the last fifth of the steps, over the runs."""
        return statistics.fmean(statistics.fmean(self.curves[j][-self.tail:])
                                for j in range(self.ops_per_pass))


def pretrain_short(seed: int) -> Pretrain:
    """The criterion-5 corpus: 160 daily sinusoid+trend series of 120-160 points."""
    bands = (("fast", (8.0, 20.0)), ("slow", (36.0, 64.0)))
    families = [_family(name, "daily", 80, (120, 160), band, amplitude_range=(0.8, 1.5),
                        trend="linear", drift_range=(-1.5, 1.5), noise_level=0.05)
                for name, band in bands]
    return Pretrain(seed, families, batch_size=32, steps=30, runs=3)


def pretrain_long(seed: int) -> Pretrain:
    """The criterion-6 geometry: 760-900 points, so windows fill 128 tokens."""
    families = [_family("long", "daily", 60, (760, 900), (100.0, 250.0),
                        amplitude_range=(0.8, 1.5), noise_level=0.05)]
    return Pretrain(seed, families, batch_size=16, steps=8, runs=3)


class ForecastStream(Workload):
    """Closed loop, one client: one `forecast()` per request, features derived
    per request as the CLI's forecast command does."""

    unit = "request"
    item = "forecast point"
    units_per_op = 1
    # (context, horizon, requests per pass): H split 40/40/20, context 50/50
    CELLS = ((64, 8, 20), (64, 64, 20), (64, 256, 10),
             (512, 8, 20), (512, 64, 20), (512, 256, 10))
    ops_per_pass = sum(n for _, _, n in CELLS)

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = data.GeneratorSpec(pretrain=[_family(
            "stream", "hourly", self.ops_per_pass, (800, 900), (10.0, 60.0), n_components=2,
            amplitude_range=(0.5, 1.5), trend="linear", drift_range=(-1.0, 1.0),
            level_range=(2.0, 6.0), noise_level=0.05)])
        self.outputs: dict[int, np.ndarray] = {}

    def setup(self) -> None:
        series = data.synth_corpus(self.spec, seed=self.seed).pretrain.series
        self.bundle = checkpoint.load_checkpoint(CHECKPOINT)
        self.normalization = self.bundle.extra.get("normalization", "per-window")
        rng = np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=(7,)))
        cells = [(ctx, h) for ctx, h, n in self.CELLS for _ in range(n)]
        self.pool = []
        for i in rng.permutation(len(cells)):
            ctx, h = cells[i]
            s = series[len(self.pool)]
            off = int(rng.integers(0, len(s) - ctx - h + 1))
            self.pool.append({"context": s.values[off:off + ctx],
                              "actual": s.values[off + ctx:off + ctx + h],
                              "start": s.start + timedelta(hours=off), "horizon": h})

    def op(self, j: int) -> int:
        req = self.pool[j]
        h = req["horizon"]
        feats = data.derive_date_features(req["start"], "hourly", len(req["context"]) + h)
        res = inference.forecast(self.bundle.weights, self.bundle.config, req["context"], h,
                                 features=feats, normalization=self.normalization)
        values = np.asarray(res.values)
        if values.shape != (h,) or not np.isfinite(values).all():
            raise CheckFailed(f"request {j}: forecast shape {values.shape} or non-finite values")
        if res.rounds != math.ceil(h / self.bundle.config.output_patch_len):
            raise CheckFailed(f"request {j}: {res.rounds} rounds for horizon {h}")
        first = self.outputs.setdefault(j, values)
        if not np.array_equal(first, values):
            raise CheckFailed(f"request {j}: forecast differs from the same request earlier")
        return h

    def rounds(self) -> int:
        """Autoregressive rounds one pass of requests needs."""
        h = self.bundle.config.output_patch_len
        return sum(math.ceil(req["horizon"] / h) for req in self.pool)

    def quality(self) -> float:
        return statistics.fmean(_nrmse(req["actual"], self.outputs[i])
                                for i, req in enumerate(self.pool))


class EvaluateCli(Workload):
    """In-process `patchcast evaluate` over a CSV of hourly holdout series."""

    unit = "command"
    item = "scored window"
    units_per_op = 1
    ops_per_pass = 1
    CONTEXT, HORIZON, STRIDE, SEASON = 512, 8, 1, 24

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = data.GeneratorSpec(pretrain=[_family(
            "holdout", "hourly", 3, (660, 700), (10.0, 60.0), n_components=2,
            amplitude_range=(0.5, 1.5), trend="linear", drift_range=(-1.0, 1.0),
            level_range=(2.0, 6.0), noise_level=0.05)])
        self.work = OUT_DIR / f"evaluate_cli-{os.getpid()}"
        self.summary: bytes | None = None

    def setup(self) -> None:
        series = data.synth_corpus(self.spec, seed=self.seed).pretrain.series
        self.work.mkdir(parents=True, exist_ok=True)
        self.csv = self.work / "holdout.csv"
        with open(self.csv, "w") as fh:
            fh.write("id,timestamp,value\n")
            for s in series:
                for i, v in enumerate(s.values):
                    fh.write(f"{s.series_id},{(s.start + timedelta(hours=i)).isoformat()},"
                             f"{float(v)!r}\n")
        # origins run from the end of the 80% train+val span while a horizon fits
        self.windows = sum(len(range(math.floor(0.8 * len(s)), len(s) - self.HORIZON + 1,
                                     self.STRIDE)) for s in series)

    def op(self, j: int) -> int:
        out_dir = self.work / "eval"
        argv = ["evaluate", "--checkpoint", str(CHECKPOINT), "--data", str(self.csv),
                "--context", str(self.CONTEXT), "--horizon", str(self.HORIZON),
                "--stride", str(self.STRIDE), "--season", str(self.SEASON),
                "--out-dir", str(out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise CheckFailed(f"evaluate exited {code}")
        raw = (out_dir / "summary.json").read_bytes()
        model = json.loads(raw)["predictors"]["model"]
        if model["n_windows"] != self.windows or model["excluded"] != 0:
            raise CheckFailed(f"evaluate scored {model['n_windows']} windows "
                              f"({model['excluded']} excluded), expected {self.windows}")
        if model["nrmse"] is None or not math.isfinite(model["nrmse"]):
            raise CheckFailed("evaluate reported no finite model NRMSE")
        if self.summary is None:
            self.summary = raw
        elif raw != self.summary:
            raise CheckFailed("summary.json differs from the first evaluate command")
        return model["n_windows"]

    def quality(self) -> float:
        return json.loads(self.summary)["predictors"]["model"]["nrmse"]

    def close(self) -> None:
        for path in sorted(self.work.rglob("*"), reverse=True):
            path.rmdir() if path.is_dir() else path.unlink()
        self.work.rmdir()


WORKLOADS = {
    "pretrain_short": pretrain_short,
    "pretrain_long": pretrain_long,
    "forecast_stream": ForecastStream,
    "evaluate_cli": EvaluateCli,
}

QUALITY = {  # what quality() means, per workload
    "pretrain_short": "final_loss",
    "pretrain_long": "final_loss",
    "forecast_stream": "forecast_nrmse",
    "evaluate_cli": "eval_nrmse",
}


# -- measurement ---------------------------------------------------------------------


class Run:
    """Runs passes of a workload's operations, counting attempts and failures."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, j: int) -> tuple[int, float]:
        """(items, seconds) of operation j; a failed check yields no items."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            items = self.w.op(j)
        except Exception as exc:  # a crash in the program is a failed operation
            self.failures.append(f"op {j}: {type(exc).__name__}: {exc}")
            return 0, time.perf_counter() - t0
        return items, time.perf_counter() - t0

    def passes(self, seconds: float, min_passes: int, between=lambda: None):
        """Whole passes until `seconds` pass and `min_passes` ran; `between()`
        runs after each pass, outside the timed operations.

        Returns the items of each operation, its fastest time over the
        passes, and the number of passes. Slow phases of a shared machine
        then drop out: each operation needs only one pass at full speed.
        """
        n = self.w.ops_per_pass
        items, best = [0] * n, [math.inf] * n
        t_end = time.perf_counter() + seconds
        done = 0
        while done < min_passes or time.perf_counter() < t_end:
            for j in range(n):
                items[j], t = self.op(j)
                best[j] = min(best[j], t)
            done += 1
            between()
        return items, best, done


def check_quality(workload: str, seed: int, value: float) -> str | None:
    """Compare a quality value with expected.json; an error message or None."""
    if not math.isfinite(value):
        return f"{QUALITY[workload]} is not finite"
    expected = json.loads(EXPECTED.read_text())
    ref = expected["workloads"][workload].get(str(seed))
    if ref is None:
        print(f"note: no recorded {QUALITY[workload]} for seed {seed}; "
              f"checked determinism and plausibility only", file=sys.stderr)
        return None
    tol = expected["tolerance"]["relative"]
    if abs(value - ref) > tol * abs(ref):
        return f"{QUALITY[workload]} {value!r} differs from recorded {ref!r} (relative tolerance {tol})"
    return None


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(name: str, seed: int, seconds: float) -> tuple[Run, dict, dict]:
    """Untraced run: end-to-end metrics and the quality value."""
    setup_times = []

    def timed_setup():
        workload = WORKLOADS[name](seed)
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
        return workload

    def more_setups():  # spread over the run, like the passes
        for _ in range(SETUP_REPS):
            timed_setup()

    w = timed_setup()
    w.prepare()
    run = Run(w)
    try:
        items, best, passes = run.passes(seconds, MIN_PASSES, more_setups)
    finally:
        w.close()
    info = {"passes": passes, "ops_per_pass": w.ops_per_pass, "unit": w.unit, "item": w.item}
    if not run.failures:
        info[QUALITY[name]] = q = w.quality()
        err = check_quality(name, seed, q)
        if err:
            run.failures.append(f"op 0: {err}")
    metrics = {
        "setup_s": (min(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": ((run.attempted - len(run.failures)) / run.attempted, "ratio"),
        "throughput": (sum(items) / sum(best), "items/s"),
        "latency_ms_p50": (1e3 * statistics.median(best), "ms"),
        "latency_ms_p95": (1e3 * percentile(best, 0.95), "ms"),
    }
    return run, metrics, info


def traced(name: str, seed: int, seconds: float) -> tuple[Run, dict, dict]:
    """Traced run: per-layer metrics and the tracing overhead.

    After one warm-up pass, untraced and traced passes alternate for
    `seconds`, so both see the same phases of the machine. The overhead
    compares the fastest times of the operations, traced and untraced.
    """
    w = WORKLOADS[name](seed)
    tracer = Tracer()
    with tracer:
        w.setup()
    w.prepare()
    run = Run(w)
    plain = slow = [math.inf] * w.ops_per_pass
    passes = 0
    try:
        run.passes(0, 1)
        t_end = time.perf_counter() + seconds
        while passes < 1 or time.perf_counter() < t_end:
            plain = list(map(min, plain, run.passes(0, 1)[1]))
            with tracer:
                slow = list(map(min, slow, run.passes(0, 1)[1]))
            passes += 1
    finally:
        w.close()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans_{name}.csv")
    units = passes * w.ops_per_pass * w.units_per_op
    agg = tracer.aggregate()
    metrics = per_layer_metrics(tracer, agg, units, sum(slow) / sum(plain))
    info = {"span_calls": {k: v["calls"] for k, v in agg.items()},
            "counts": dict(tracer.counts), "sites": tracer.sites,
            "passes_traced": passes, "ops_per_pass": w.ops_per_pass, "unit": w.unit}
    if name == "forecast_stream" and tracer.counts["rounds"] != passes * w.rounds():
        run.failures.append(f"traced rounds {tracer.counts['rounds']} != sum of "
                            f"ceil(H/h) over the traced requests {passes * w.rounds()}")
    return run, metrics, info


def per_layer_metrics(tracer: Tracer, agg: dict, units: int, overhead: float) -> dict:
    """Per-layer metrics. `_ms` values are per unit of work (step, request or
    evaluate command); counts are totals over the traced passes. `agg` is
    `tracer.aggregate()`."""
    counts = tracer.counts

    def total(span: str, key: str = "total_ms") -> float:
        return agg.get(span, {}).get(key, 0.0)

    def calls(span: str) -> int:
        return agg.get(span, {}).get("calls", 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    per_unit_ms = {
        "data.sample_ms": "data.sample", "training.assemble_ms": "training.assemble",
        "training.adam_ms": "training.adam", "training.loss_ms": "training.loss",
        "tensor.backward_ms": "tensor.backward", "tensor.softmax_ms": "tensor.softmax",
        "tensor.matmul_ms": "tensor.matmul", "tensor.layer_norm_ms": "tensor.layer_norm",
        "model.forward_ms": "model.forward", "model.input_ms": "model.input",
        "model.stack_ms": "model.stack", "model.output_ms": "model.output",
        "inference.forecast_ms": "inference.forecast", "data.ingest_ms": "data.ingest",
        "data.features_ms": "data.features",
    }
    m = {name: (ratio(total(span), units), "ms") for name, span in per_unit_ms.items()}
    backward_calls = calls("tensor.backward")
    m.update({
        "training.clip_rate": (ratio(counts["clipped_steps"], calls("training.adam")), "ratio"),
        "tensor.tape_records": (ratio(counts["tape_records"], backward_calls), "count"),
        "tensor.tape_bytes": (ratio(counts["tape_bytes"], backward_calls), "bytes"),
        "tensor.matmul_flops": (counts["matmul_flops"], "flop"),
        "tensor.softmax_bytes": (counts["softmax_bytes"], "bytes"),
        "model.forward_calls": (calls("model.forward"), "count"),
        "model.tokens_encoded": (counts["tokens_encoded"], "count"),
        "inference.rounds": (counts["rounds"], "count"),
        "inference.tokens_per_round": (ratio(counts["forecast_tokens"], counts["rounds"]), "count"),
        "evaluation.forecasts_per_window": (
            ratio(calls("inference.forecast"), len(tracer.model_windows)), "ratio"),
        "evaluation.self_ms": (ratio(total("evaluation.rolling_eval", "self_ms"), units), "ms"),
        "data.synth_ms": (ratio(total("data.synth"), calls("data.synth")), "ms"),
        "checkpoint.load_ms": (ratio(total("checkpoint.load"), calls("checkpoint.load")), "ms"),
        "cli.self_ms": (ratio(total("cli.main", "self_ms"), units), "ms"),
        "trace.overhead": (overhead, "ratio"),
        "trace.units": (units, "count"),
    })
    return m


# -- environment and entry point ---------------------------------------------------------


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS uses, asked through its own getter."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    env = environment(args.workload, args.seed, args.seconds, args.trace)
    run, metrics, info = (traced if args.trace else measure)(args.workload, args.seed, args.seconds)
    for msg in run.failures[:5]:
        print(f"FAILED {msg}", file=sys.stderr)
    if len(run.failures) > 5:
        print(f"FAILED ... {len(run.failures) - 5} more", file=sys.stderr)
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    record = {"environment": env, "info": info, **result}
    out = OUT_DIR / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("environment " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps({k: v for k, v in info.items() if k != "sites"}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
