"""Self-test of the benchmark.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

A short traced run of each workload must give a nonzero reading for every
per-layer metric that perfbench/README.md assigns to that workload. A zero
reading means a wrapper sits on a module attribute the program never calls
through. The untraced run must install no wrapper at all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

EVERY = ["model.forward_ms", "model.input_ms", "model.stack_ms", "model.output_ms",
         "model.forward_calls", "model.tokens_encoded", "tensor.softmax_ms",
         "tensor.matmul_ms", "tensor.layer_norm_ms", "tensor.matmul_flops",
         "tensor.softmax_bytes", "data.synth_ms", "trace.overhead", "trace.units"]
TRAINING = ["data.sample_ms", "training.assemble_ms", "training.adam_ms", "training.loss_ms",
            "training.clip_rate", "tensor.backward_ms", "tensor.tape_records",
            "tensor.tape_bytes"]
INFERENCE = ["inference.forecast_ms", "inference.rounds", "inference.tokens_per_round",
             "checkpoint.load_ms"]
ASSIGNED = {
    "pretrain_short": EVERY + TRAINING,
    "pretrain_long": EVERY + TRAINING,
    "forecast_stream": EVERY + INFERENCE + ["data.features_ms"],
    "evaluate_cli": EVERY + INFERENCE + ["evaluation.forecasts_per_window",
                                         "evaluation.self_ms", "data.ingest_ms",
                                         "data.features_ms", "cli.self_ms"],
}
# A ratio that may read 0 on a correct run; its span count must be nonzero.
SPAN_OF = {"training.clip_rate": "training.adam"}
# Functions imported by name into another module; each must be wrapped there.
BY_NAME_SITES = ["patchcast.inference.forward", "patchcast.training.forward",
                 "patchcast.evaluation.forecast", "patchcast.cli.ingest_csv",
                 "patchcast.cli.load_checkpoint", "patchcast.training.sample_training_windows"]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(ASSIGNED))
def test_traced_run_reads_every_assigned_layer(workload):
    proc = run_bench(ROOT, workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    record = json.loads((BENCH / "out" / f"result_{workload}_seed3_trace1.json").read_text())
    spans = record["info"]["span_calls"]
    zero = [m for m in ASSIGNED[workload]
            if not (spans.get(SPAN_OF[m], 0) if m in SPAN_OF else metrics[m]["value"]) > 0]
    assert not zero, f"{workload}: per-layer metrics read zero: {zero}"
    assert set(BY_NAME_SITES) <= set(record["info"]["sites"])


def test_untraced_run_installs_no_wrapper(monkeypatch):
    originals = tracing.target_sites()
    assert originals, "no tracer targets found"

    def refuse(self):
        raise AssertionError("the untraced run installed wrappers")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    run, metrics, _ = workloads.measure("pretrain_long", 3, 0.1)
    assert not run.failures, run.failures
    assert metrics["throughput"][0] > 0
    moved = [f"{owner.__name__}.{attr}" for owner, attr, fn in originals
             if getattr(owner, attr) is not fn]
    assert not moved, f"attributes left wrapped: {moved}"


def test_tracer_restores_every_attribute():
    originals = tracing.target_sites()
    with tracing.Tracer() as tracer:
        assert len(tracer.sites) == len(originals)
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in originals)
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "pretrain_short", trace=0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
