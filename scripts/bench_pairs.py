#!/usr/bin/env python3
"""Run one benchmark workload in alternating pairs on two checkouts.

Compares a parent checkout with a changed one the way a claimed gain must be
shown: pair i runs ``perfbench/run.py`` once in each checkout with seed
``--seed + i``, the parent first on even pairs and the change first on odd
ones, so drift on a noisy box falls on both sides alike. Each run records
the end-to-end metrics of its result line, its wall time, and the CPU time,
system time and minor page faults of the run and its workload process
(``getrusage(RUSAGE_CHILDREN)`` deltas).
The output ``BENCH_<label>.json`` holds every pair's values and, per metric,
each side's median and quartiles, the ratio of the medians and the pairs the
change won (ties count for neither side).

    git clone -q . ../parent && git -C ../parent checkout -q <parent commit>
    python3 scripts/bench_pairs.py ../parent . --workload evaluate_cli \\
        --pairs 10 --seconds 10 --seed 101 --label evaluate_cli_batched

The metric names and directions come from ``BENCHMARK.json`` of the change.
The command exits 1 if a run prints no result line or fails its output
checks.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
PER_RUN = ("workload", "seed", "seconds", "trace")  # environment-line fields a pair sets


def git_describe(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def child_usage() -> dict[str, float]:
    """Waited-for children's CPU time, system time and minor page faults so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {"run_cpu_s": usage.ru_utime + usage.ru_stime, "run_sys_s": usage.ru_stime,
            "run_minflt": usage.ru_minflt}


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One untraced benchmark run: (values by metric name, environment)."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    usage0, t0 = child_usage(), time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall, usage = time.perf_counter() - t0, child_usage()
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
    except (IndexError, KeyError, TypeError, json.JSONDecodeError):
        raise SystemExit(f"{checkout}: run exited {proc.returncode} without a result line\n"
                         f"{proc.stderr[-2000:]}")
    env = next((json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("environment ")), {})
    values = {name: m["value"] for name, m in metrics.items()}
    values.update({name: usage[name] - usage0[name] for name in usage},
                  run_wall_s=wall, correct=result.get("correct"))
    return values, env


def spread(xs: list[float]) -> dict:
    """Median, quartiles (inclusive method) and interquartile range."""
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for name, direction in better.items():
        sides = {side: [p[side][name] for p in pairs] for side in SIDES}
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        stats = {side: spread(xs) for side, xs in sides.items()}
        base = stats["parent"]["median"]
        out[name] = {"better": direction, **stats, "wins": wins, "pairs": len(pairs),
                     "ratio": stats["change"]["median"] / base if base else None}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10, help="run length of every run")
    ap.add_argument("--seed", type=int, default=0, help="seed of pair 0; pair i uses seed + i")
    ap.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    ap.add_argument("--out-dir", type=Path, default=Path.cwd())
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        ap.error("--pairs and --seconds must be >= 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better.update(run_wall_s="lower", run_cpu_s="lower", run_sys_s="lower", run_minflt="lower")
    args.out_dir.mkdir(parents=True, exist_ok=True)  # before the pairs, not after them

    pairs, env = [], {}
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"pair": i, "seed": seed, "order": list(order)}
        for side in order:
            pair[side], env = run_once(checkouts[side], args.workload, seed, args.seconds)
        pairs.append(pair)
        print(f"pair {i} seed {seed}: " + ", ".join(
            f"{side} {pair[side].get('throughput', float('nan')):.1f}" for side in SIDES)
            + " items/s", file=sys.stderr)

    report = {
        "label": args.label, "workload": args.workload, "seconds": args.seconds,
        "checkouts": {side: git_describe(path) for side, path in checkouts.items()},
        "environment": {**{k: v for k, v in env.items() if k not in PER_RUN},
                        "machine": platform.machine(), "system": platform.system()},
        "summary": summarize(pairs, better),
        "pairs": pairs,
    }
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0 if all(p[side]["correct"] for p in pairs for side in SIDES) else 1


if __name__ == "__main__":
    sys.exit(main())
