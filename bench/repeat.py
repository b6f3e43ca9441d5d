#!/usr/bin/env python3
"""Repeat bench/run.py over several seeds and summarize each metric.

    python3 bench/repeat.py --workload distinguish --seeds 1-10 [--seconds 15] [--trace 0]

Runs are made one after another. For every workload and metric it prints
the median, the first and third quartiles (``statistics.quantiles(n=4)``)
and the spread (q3 - q1) / median; with ``--trace 0`` it sets each spread
against the metric's bound from BENCHMARK.json. It also prints the share of
failed operations of every run, which must be the same in all of them. Each
run's result line is saved to ``.bench_out/repeat-<workload>-trace<t>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("distinguish", "generic-solve", "family-build", "qkd")


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(workload: str, results: list[dict], bounds: dict[str, float]) -> None:
    print(f"\n== {workload}: {len(results)} runs")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"correct in all runs: {all(r['correct'] for r in results)}; "
          f"failed shares: {shares}")
    print(f"{'metric':44s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:44s} {first['unit']:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.2%} {'' if bound is None else f'{bound:.2f}':>6s}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seeds", default="1-10", help='seed list, e.g. "1-10" or "3,5,7"')
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if args.trace == 0 else {}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    for workload in args.workload or WORKLOADS:
        results = []
        log = out_dir / f"repeat-{workload}-trace{args.trace}.jsonl"
        with open(log, "w", encoding="utf-8") as fh:
            for seed in parse_seeds(args.seeds):
                start = time.perf_counter()
                result = run_once(workload, seed, seconds, args.trace)
                wall = time.perf_counter() - start
                fh.write(json.dumps({"seed": seed, **result}) + "\n")
                fh.flush()
                results.append(result)
                print(f"{workload} seed {seed} ({wall:.1f} s): " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                    if args.trace == 0), flush=True)
        summarize(workload, results, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
