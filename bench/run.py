#!/usr/bin/env python3
"""ctcsim benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload distinguish --seed 1 --seconds 15 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory, never from an installed copy. The workload repeats whole
rounds over its seeded inputs until the timed operations add up to
``--seconds`` (and at least two rounds have run); every output is checked
outside the timed region. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs half the
time untraced and half with every layer wrapped in spans, and reports the
per-layer metrics, each per round of the workload, with the tracing overhead
between the two halves. Spans go to ``.bench_out/trace-<workload>-seed<n>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("distinguish", "generic-solve", "family-build", "qkd")
SETUP_PROBES = 5     # fresh processes timed for setup_s; the median is reported
MIN_ROUNDS = 2       # so that every output is produced, and checked, at least twice

# One BLAS thread: on a 2-vCPU host whose second vCPU is intermittently taken
# by other guests, two threads made family-build's throughput bimodal (0.28 or
# 0.40 families/s from run to run). Set before numpy loads, so that the setup
# probes inherit it too.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
sys.path.insert(0, str(SRC))

END_TO_END_UNITS = {"throughput": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER_UNITS = {
    "deutsch.induced_map.calls": "count/round",
    "deutsch.induced_map.s": "s/round",
    "deutsch.fixed_points.calls": "count/round",
    "deutsch.induced_map.per_solve": "ratio",
    "qlinalg.partial_trace.calls": "count/round",
    "deutsch.fixed_points.self_s": "s/round",
    "deutsch.output_state.self_s": "s/round",
    "deutsch.interaction.s": "s/round",
    "qlinalg.is_unitary.calls": "count/round",
    "qlinalg.is_unitary.s": "s/round",
    "deutsch.V_bytes_max": "bytes",
    "deutsch.superop_bytes_max": "bytes",
    "distinguisher.construct_family.calls": "count/round",
    "distinguisher.construct_family.self_s": "s/round",
    "distinguisher.verify_family.s": "s/round",
    "distinguisher.build_distinguisher.self_s": "s/round",
    "distinguisher.classify.calls": "count/round",
    "distinguisher.classify.s": "s/round",
    "infotheory.ctc_accessible_info.self_s": "s/round",
    "infotheory.holevo_chi.s": "s/round",
    "protocols.run_qkd.self_s": "s/round",
    "protocols.signals": "count/round",
    "cli.main.self_s": "s/round",
    "serialize.dump_json.s": "s/round",
    "serialize.bytes_written": "bytes/round",
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "trace.overhead_pct": "%",
}


def setup(workload: str, seed: int):
    """Import ctcsim (through the workloads module) and generate the inputs.

    Returns the module, the inputs and the two durations in seconds.
    """
    t0 = time.perf_counter()
    import workloads

    t1 = time.perf_counter()
    inputs = workloads.WORKLOADS[workload].make_inputs(seed)
    t2 = time.perf_counter()
    package_dir = Path(sys.modules["ctcsim"].__file__).resolve().parent
    if package_dir != SRC / "ctcsim":
        raise SystemExit(f"error: imported ctcsim from {package_dir}, not from {SRC}")
    return workloads, inputs, t1 - t0, t2 - t1


def probe_setup(workload: str, seed: int) -> list[dict]:
    """Time setup in SETUP_PROBES fresh processes, one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


class Runner:
    """Runs whole rounds of a workload's operations and keeps the tallies."""

    def __init__(self, ops, tracer) -> None:
        self.ops = ops
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []
        self.rounds = 0

    def _round(self, traced: bool) -> list[float | None]:
        """One pass over the operations; returns each one's duration (None if it failed)."""
        times: list[float | None] = []
        for op in self.ops:
            if traced:
                self.tracer.op += 1
                self.tracer.round = self.rounds
            self.attempted += op.count
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception:
                self.failed += op.count
                times.append(None)
                print(f"operation {op.name} failed:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            times.append(time.perf_counter() - start)
            try:
                op.check(result)
            except Exception as exc:
                self.check_failures.append(f"{op.name}: {exc}")
                print(f"check failed for {op.name}: {exc}", file=sys.stderr)
            del result
        self.rounds += 1
        return times

    def measure(self, seconds: float, min_rounds: int, traced: bool = False) -> float:
        """Whole rounds until the timed operations add up to ``seconds``.

        Returns the throughput of a median round: the work of the operations
        that completed, over the sum of each one's median duration across
        rounds. Taking the median per operation keeps a slow spell of the
        machine from weighing on more than the operations it overlapped.
        """
        timed, rounds = 0.0, []
        while len(rounds) < min_rounds or timed < seconds:
            times = self._round(traced)
            timed += sum(t for t in times if t is not None)
            rounds.append(times)
        work = busy = 0.0
        for i, op in enumerate(self.ops):
            samples = [r[i] for r in rounds if r[i] is not None]
            if samples:
                work += op.work
                busy += statistics.median(samples)
        return work / busy if busy > 0 else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ctcsim" / "__init__.py").is_file():
        print(f"error: {SRC / 'ctcsim'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        _mod, _inputs, import_s, inputs_s = setup(args.workload, args.seed)
        print(json.dumps({"import_s": import_s, "inputs_s": inputs_s}))
        return 0

    probes = probe_setup(args.workload, args.seed)
    workloads, inputs, _import_s, _inputs_s = setup(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"{args.workload}-{os.getpid()}"
    scratch.mkdir()
    tracer = tracing.Tracer()
    runner = Runner(workload.make_round(inputs, scratch), tracer)
    try:
        if args.trace:
            plain = runner.measure(args.seconds / 2, 1)
            first_traced = runner.rounds
            tracer.install(sys.modules["ctcsim"])
            try:
                traced = runner.measure(args.seconds / 2, 1, traced=True)
            finally:
                tracer.uninstall()
            layer = tracer.layer_metrics(list(range(first_traced, runner.rounds)))
            layer["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
            layer["setup.inputs_s"] = statistics.median(p["inputs_s"] for p in probes)
            layer["trace.overhead_pct"] = 100.0 * (plain / traced - 1.0)
            metrics = {name: {"value": float(layer.get(name, 0.0)), "unit": unit}
                       for name, unit in PER_LAYER_UNITS.items()}
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
            throughput = plain
        else:
            throughput = runner.measure(args.seconds, MIN_ROUNDS)
            values = {
                "throughput": throughput,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": statistics.median(p["import_s"] + p["inputs_s"] for p in probes),
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {runner.rounds} rounds, "
          f"BLAS threads {BLAS_THREADS}, trace {args.trace}")
    print(f"{workload.throughput}: {throughput:.6g} 1/s")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    for failure in runner.check_failures:
        print(f"CHECK FAILED {failure}")
    print(json.dumps({
        "correct": not runner.check_failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
