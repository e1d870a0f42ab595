#!/usr/bin/env python3
"""Benchmark of the qbialg checker.

    python3 perfbench/run.py --workload {coherence,compare,algebra,cli}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; qbialg is imported from its ``src``.
The workload runs whole rounds of checked operations (see
``workloads.py``), at least ``MIN_OPS`` operations and until ``S``
seconds have passed.  Each operation is timed between two runs of a
fixed reference computation and its time normalised (see
``reference.py``).  The last line of stdout is one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}, ...}}

With ``--trace 0`` the metrics are the end-to-end ones: setup_s,
ops_per_s, op_ms_p50, op_ms_p90 and peak_rss_mb.  With ``--trace 1``
the per-layer metrics of ``tracing.METRICS``; a traced run ignores
``--seconds`` and runs the smallest whole number of rounds holding
``MIN_OPS`` operations, so its counts repeat exactly, and it writes its
spans to ``perfbench/out/trace-<workload>-<seed>.jsonl``.

``failed`` counts operations whose result did not pass its check;
``correct`` is false when one of them is not a known fault.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_OPS = 100
SETUP_PROBES = 11


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("coherence", "compare", "algebra", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def prepare(name: str, seed: int, workdir: str):
    """Import qbialg, build the workload and generate its first round.

    This is everything a run does before its first timed operation."""
    import workloads

    workload = workloads.WORKLOADS[name](seed, workdir)
    return workload, workload.round(0)


def measure_setup(name: str, seed: int) -> float:
    """Median normalised time from starting a fresh interpreter to the
    point where it is ready for its first timed operation."""
    clock = reference.Normaliser()

    def probe():
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE, cwd=ROOT,
        )
        try:
            return proc.stdout.readline()
        finally:
            proc.stdout.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")

    for _ in range(SETUP_PROBES):
        clock.reference()
        if clock.timed(probe).strip() != b"ready":
            raise RuntimeError("set-up probe did not get ready")
        clock.reference()
    return statistics.median(clock.normalised())


class Tally:
    """Outcome and timing of the operations of one run."""

    def __init__(self):
        self.clock = reference.Normaliser()
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0

    def record(self, op, run=None):
        """Time ``run`` (by default op.run), check its result, return it."""
        self.attempted += 1
        try:
            out = self.clock.timed(run or op.run)
            passed = op.check(out)
        except Exception:
            traceback.print_exc()
            out, passed = None, False
        if not passed:
            self.failed += 1
            if op.known_fault is None:
                self.unexpected += 1
                print(f"unexpected failure: {op.kind}", file=sys.stderr)
        return out

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.unexpected == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def timed_run(workload, first_round, seconds: float, setup_s: float) -> dict:
    tally = Tally()
    start = time.perf_counter()
    ops, k = first_round, 0
    while True:
        for op in ops:
            tally.record(op)
        k += 1
        if tally.attempted >= MIN_OPS and time.perf_counter() - start >= seconds:
            break
        ops = workload.round(k)
    times = tally.clock.normalised()
    wall = tally.clock.wall()
    print(f"wall clock: ops_per_s {len(wall) / sum(wall):.4f} op_ms_p50 {statistics.median(wall) * 1e3:.4f} "
          f"op_ms_p90 {statistics.quantiles(wall, n=10)[8] * 1e3:.4f} "
          f"reference_ms {tally.clock.reference_median() * 1e3:.4f}", file=sys.stderr)
    return tally.result({
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms_p90": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    })


def traced_run(workload, first_round, trace_path: str) -> dict:
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    tally = Tally()
    try:
        ops = first_round
        for k in range(math.ceil(MIN_OPS / len(first_round))):
            ops = ops if k == 0 else workload.round(k)
            for op in ops:
                def run(op=op):
                    tracer.begin_op()
                    try:
                        return op.run()
                    finally:
                        tracer.enabled = False

                out = tally.record(op, run)
                tracer.end_op()
                if op.counts is not None and out is not None:
                    for metric, n in op.counts(out).items():
                        tracer.add(metric, n)
    finally:
        tracer.uninstall()
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    tracer.write(trace_path)
    factors = tally.clock.factors()
    total_ms = sum(tally.clock.normalised()) * 1e3
    ms = tracer.normalised_ms(factors)
    shares = {key: round(ms[key] / total_ms, 4) for key in sorted(ms) if "." not in key}
    print(f"traced ops_per_s {tally.attempted * 1e3 / total_ms:.4f}; "
          f"share of normalised time: {json.dumps(shares)}", file=sys.stderr)
    return tally.result({k: (m["value"], m["unit"]) for k, m in tracer.metrics(factors).items()})


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "qbialg", "__init__.py")):
        print(f"error: no qbialg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.setup_probe:
            prepare(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        setup_s = None if args.trace else measure_setup(args.workload, args.seed)
        workload, first_round = prepare(args.workload, args.seed, workdir)
        if args.trace:
            trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl")
            result = traced_run(workload, first_round, trace_path)
        else:
            result = timed_run(workload, first_round, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
