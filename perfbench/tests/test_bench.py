"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They run short lists of every workload, check that a wrong result is
counted as a failure, and that traced counts repeat exactly.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# The two --trials 0 calls of each cli round exercise a known fault.
KNOWN_FAULTS = {"coherence": 0, "compare": 0, "algebra": 0, "cli": 2}


def _first_round(name, tmp_path):
    return workloads.WORKLOADS[name](7, str(tmp_path)).round(0)


def _tally(ops):
    tally = run.Tally()
    for op in ops:
        tally.record(op, op.run)
    return tally


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_short_list_runs_to_its_end(name, tmp_path):
    ops = _first_round(name, tmp_path)
    tally = _tally(ops)
    assert tally.attempted == len(ops)
    assert tally.failed == KNOWN_FAULTS[name]
    assert tally.unexpected == 0
    times = tally.clock.normalised()
    assert len(times) == len(ops)
    assert all(t > 0 for t in times)


def _flip_first_instance(report):
    (name, group), *rest = report.axioms
    flipped = (dataclasses.replace(group[0], passed=not group[0].passed),) + group[1:]
    return dataclasses.replace(report, axioms=((name, flipped), *rest))


def _flip_first_entry(report):
    first, *rest = report.entries
    return dataclasses.replace(report, entries=(dataclasses.replace(first, equal=not first.equal), *rest))


def _swap_r_matrix(out):
    p, report, trivializer, flat, solutions, *rest = out
    return (p, report, trivializer, flat, [s * 2 for s in solutions], *rest)


def _drop_cohomology_degree(out):
    groups, *rest = out
    return (groups[1:] + groups[:1], *rest)


def _cli_exit_zero(out):
    code, stdout, stderr = out
    return 0, stdout, stderr


def _cli_edit_stdout(out):
    code, stdout, stderr = out
    doc = json.loads(stdout)
    doc["r_matrix"]["terms"][0]["c"] = "2"
    return code, json.dumps(doc, indent=2) + "\n", stderr


# (workload, operation kind, corruption of its result)
CORRUPTIONS = [
    ("coherence", "family_dim2", _flip_first_instance),
    ("coherence", "outside_family", _flip_first_instance),
    ("compare", "modified", _flip_first_entry),
    ("compare", "distinct", _flip_first_entry),
    ("algebra", "round_trip", _swap_r_matrix),
    ("algebra", "table", _drop_cohomology_degree),
    ("cli", "verify_garbled", _cli_exit_zero),
    ("cli", "classify", _cli_edit_stdout),
]


@pytest.mark.parametrize("name,kind,corrupt", CORRUPTIONS, ids=[f"{w}-{k}" for w, k, _ in CORRUPTIONS])
def test_wrong_result_is_counted_as_failed(name, kind, corrupt, tmp_path):
    ops = _first_round(name, tmp_path)
    target = next(op for op in ops if op.kind == kind)
    honest = target.run
    target.run = lambda: corrupt(honest())
    tally = _tally(ops)
    assert tally.attempted == len(ops)
    assert tally.failed == KNOWN_FAULTS[name] + 1
    assert tally.unexpected == 1


def _bench(*args):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


def test_traced_counts_repeat_exactly():
    results = []
    for _ in range(2):
        proc = _bench("--workload", "cli", "--seed", "5", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    first, second = results
    assert set(first["metrics"]) == set(tracing.METRICS)
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] != "ms"} for r in results
    ]
    assert counts[0] == counts[1]
    assert counts[0]["cli.calls"] == first["attempted"] > 0
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def test_untimed_result_line():
    proc = _bench("--workload", "cli", "--seed", "3", "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= run.MIN_OPS
    assert result["failed"] * 8 == result["attempted"]
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
