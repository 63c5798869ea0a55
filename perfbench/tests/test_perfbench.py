"""Tests of the benchmark itself: smoke runs, output checks with teeth, exact counts.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT, script: Path = BENCH / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )


_RUNS: dict = {}


def tiny_run(workload: str, trace: int, attempt: int = 0) -> tuple[str, dict]:
    """A tiny-size run of one op per loop, cached so tests can share it."""
    key = (workload, trace, attempt)
    if key not in _RUNS:
        proc = bench("--workload", workload, "--size", "tiny", "--seconds", "0", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        _RUNS[key] = (proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1]))
    return _RUNS[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    stdout, result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = tracing.per_layer_metrics() if trace else run.END_TO_END
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == expected
    for name, unit in expected + run.RAW + [("failed_op_ratio", "ratio")]:
        assert re.search(rf"^  {re.escape(name)} +\S+ {re.escape(unit)}$", stdout, re.M), name
    assert re.search(r"^  op_tail_ms +\S", stdout, re.M)
    provenance = json.loads(next(l for l in stdout.splitlines() if l.startswith("provenance: "))[12:])
    assert {"package", "python", "numpy", "blas", "nproc", "git_commit", "seed", "inputs", "computed_per_op"} <= set(provenance)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_self_times_and_remainder_add_up_to_traced_op_time(workload):
    _, result = tiny_run(workload, 1)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    attributed = sum(v for name, v in values.items() if name.endswith(".self_s"))
    total = attributed + values["trace.unattributed_s"]
    assert math.isclose(total, values["trace.op_s"], rel_tol=1e-9)
    assert values["trace.unattributed_s"] >= 0


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_call_counts_repeat_exactly_across_runs(workload):
    first = tiny_run(workload, 1, attempt=0)[1]["metrics"]
    second = tiny_run(workload, 1, attempt=1)[1]["metrics"]
    calls = [name for name in first if name.endswith(".calls")]
    assert calls and any(first[name]["value"] for name in calls)
    assert {n: first[n]["value"] for n in calls} == {n: second[n]["value"] for n in calls}


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOAD_NAMES
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_metrics()


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "listwise-train", "--seconds", "1", cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------- checks have teeth


def built(cls, tmp_path):
    workload = cls(0, "tiny", tmp_path)
    workload.setup()
    return workload


def test_paper_prune_check_fails_on_a_shifted_kept_index(tmp_path):
    w = built(workloads.PaperPrune, tmp_path)
    request, results = w.op(0)
    assert w.check((request, results)).ok
    kept = list(results[1].kept_indices)
    p = next(p for p in range(len(kept)) if kept[p] + 1 not in kept and kept[p] + 1 < w.tokens.shape[1])
    kept[p] += 1
    results[1] = dataclasses.replace(results[1], kept_indices=tuple(kept))
    assert not w.check((request, results)).ok


def test_prune_near_tie_at_the_boundary_is_counted_not_failed():
    expected = workloads._Expected(kept=(0, 2), keep_count=2, sure=frozenset({0}), band=frozenset({2, 3}))
    result = workloads.pruning.PruneResult(kept_indices=(0, 3), keep_count=2, keep_ratio=0.5, margin=0.0)
    assert workloads.check_prune(result, expected) == (True, True)
    outside = dataclasses.replace(result, kept_indices=(0, 1))
    assert workloads.check_prune(outside, expected) == (False, False)


def tamper(path: Path, edit) -> None:
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))


def test_bounds_cli_check_fails_on_changed_bytes_and_on_a_tally_off_by_one(tmp_path):
    w = built(workloads.BoundsCli, tmp_path)
    assert w.check(w.op(0)).ok
    report = w.out / "report.json"
    tamper(report, lambda r: r["bounds"]["checks"]["tail_gap_bound"].update(failures=1))
    assert not w.check(0).ok
    w.reference.clear()  # without the byte comparison the pinned tally still catches it
    assert not w.check(0).ok
    w.reference.clear()
    assert w.check(w.op(1)).ok
    tamper(report, lambda r: r["bounds"]["checks"]["score_sandwich"].update(trials=w.cfg["trials"] - 1))
    assert not w.check(0).ok
    assert not w.check(1).ok  # a nonzero exit code fails on its own


def test_small_cli_check_fails_on_a_wrong_metric(tmp_path):
    w = built(workloads.SmallCli, tmp_path)
    assert w.check(w.op(0)).ok
    w.reference.clear()

    def nudge_recall(report):
        report["evaluation"]["overall"]["recall@3"]["micro"] += 1e-3

    tamper(w.outs["metrics"] / "report.json", nudge_recall)
    assert not w.check({name: 0 for name in w.argvs}).ok


def test_listwise_check_fails_on_a_wrong_gradient(tmp_path):
    w = built(workloads.ListwiseTrain, tmp_path)
    output = w.op(0)
    assert w.check(output).ok
    output[0][1].gradient[3] += 1e-6
    output[0][1].gradient[4] -= 1e-6  # still sums to zero, but differs from the oracle
    assert not w.check(output).ok
    output = w.op(1)
    output[-1][2].gradient[0] += 1e-3  # unchecked list, but the sum is no longer zero
    assert not w.check(output).ok


def test_oracle_keep_count_matches_the_library_on_the_benchmark_grid():
    for n in (16, 1024):
        for rho in workloads.RHOS:
            assert workloads.oracle_keep_count(rho, n) == workloads.pruning.keep_count(rho, n)


# ------------------------------------------------------- reference normalization


class _StubReference:
    """Reference times 10, 30, 50, ... ms wall and half that in CPU."""

    def __init__(self):
        self.calls = 0

    def time(self):
        self.calls += 1
        wall = 10.0 + 20.0 * (self.calls - 1)
        return wall, wall / 2


class _SleepWorkload:
    def op(self, i):
        time.sleep(0.002)
        return i

    def check(self, output):
        return workloads.Check(True)


def test_each_op_is_divided_by_the_reference_times_around_it():
    loop = run.measure(_SleepWorkload(), 0.0, first_op=1, reference=_StubReference())
    assert loop.attempted == 1 and loop.reference_ms == [30.0]
    assert loop.wall_ref == [pytest.approx(loop.latency_ms[0] / 20.0)]  # mean of 10 and 30
    assert loop.cpu_ref == [pytest.approx(loop.cpu_ms[0] / 10.0)]


def test_a_warm_up_op_gets_no_reference_ratio():
    loop = run.Loop()
    run.run_op(_SleepWorkload(), 0, loop)
    assert loop.latency_ms and not loop.wall_ref and not loop.reference_ms


def test_reference_time_is_per_kernel_run():
    runs = []
    kernel = reference.Reference(lambda: runs.append(time.sleep(0.001)), op_ms=0.0)
    assert kernel.reps == 1 and len(runs) == 2  # warm-up, then one timed run to size reps
    kernel.reps = 4
    wall, _ = kernel.time()
    assert len(runs) == 6 and 1.0 <= wall < 50.0
    assert reference.Reference(lambda: None, op_ms=1e3).reps > 1
