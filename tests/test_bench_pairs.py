"""scripts/bench_pairs.py: the paired benchmark runner, with its runs stubbed."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import bench_pairs  # noqa: E402


def test_main_creates_a_missing_nested_out_dir_before_the_first_pair(tmp_path, monkeypatch):
    out_dir = tmp_path / "bench" / "new"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []

    def run_once(checkout, workload, seed, seconds):
        assert out_dir.is_dir()
        runs.append((checkout, workload, seed, seconds))
        values = {m["name"]: 1.0 + len(runs) for m in spec["end_to_end"]}
        values.update(run_wall_s=1.0, run_cpu_s=1.0, run_sys_s=0.0, run_minflt=0, correct=True)
        return values, {"workload": workload}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main([str(ROOT), str(ROOT), "--workload", "pretrain_short",
                             "--pairs", "2", "--seconds", "1", "--seed", "5",
                             "--label", "smoke", "--out-dir", str(out_dir)]) == 0
    assert [seed for _, _, seed, _ in runs] == [5, 5, 6, 6]
    report = json.loads((out_dir / "BENCH_smoke.json").read_text())
    assert report["workload"] == "pretrain_short" and len(report["pairs"]) == 2
    assert report["summary"]["throughput"]["pairs"] == 2
