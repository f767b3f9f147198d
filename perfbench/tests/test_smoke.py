"""Smoke tests of the benchmark harness on N~21 grids.  No timing gates.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostclock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import DETERMINISTIC_COUNTS, layer_metrics  # noqa: E402

# Every step kind on small grids: exam1 table row N=20, exam2 ladder, the
# exam4 CLI solve and probe (k=10: k=100 needs finer grids), and exam3 on
# the direct-solve branch.
SMALL = workloads.Workload("smoke", table_ns=(20,), ladder_ns=(21, 41), cli_ns=(21,),
                           probe_n=11, krylov_n=21, aniso_k="10")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _traced(tmp_path, seed):
    m = workloads.measure(SMALL, seed=seed, seconds=0.0, trace=True, work=tmp_path)
    metrics, rows = layer_metrics(m.tracer, {}, m.time_to_solution_s, m.traced_pass_s,
                                  m.traced_tally.bytes_written)
    return m, metrics, rows


def test_traced_runs_repeat_counts_and_report_every_layer(tmp_path):
    first, metrics, rows = _traced(tmp_path, seed=0)
    second, _, rows_again = _traced(tmp_path, seed=1)
    for m in (first, second):
        assert m.tally.failed == 0 and m.traced_tally.failed == 0, m.tally.failures + m.traced_tally.failures
    assert {entry["name"] for entry in SPEC["per_layer"]} <= set(metrics)
    by_case = {r["case"]: r for r in rows_again}
    assert sorted(by_case) == sorted(r["case"] for r in rows)
    for row in rows:
        again = by_case[row["case"]]
        assert row.get("stencil.plan_digest") == again.get("stencil.plan_digest"), row["case"]
        for key in DETERMINISTIC_COUNTS:
            assert row.get(key) == again.get(key), (row["case"], key)
    assert metrics["verification.cases"] == 6  # 1 table + 2 ladder + cli + probe + exam3
    assert metrics["stencil.select_calls"] >= metrics["grid.unknowns"] > 0
    assert metrics["cli.bytes_written"] > 0


def test_end_to_end_metrics_and_reference_digits(tmp_path):
    m = workloads.measure(workloads.Workload("smoke-krylov", krylov_n=21), seed=0,
                          seconds=0.0, trace=False, work=tmp_path)
    values = run.end_to_end(m)
    assert {entry["name"] for entry in SPEC["end_to_end"]} <= set(values)
    assert values["success_rate"] == 1.0, m.tally.failures
    # The acceptance suite's rule is three significant digits.
    assert math.isfinite(values["reference_digits"]) and values["reference_digits"] >= 3.0
    assert 0.0 < values["max_error"] < 0.1  # exam3 at N=21 is pre-asymptotic


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "krylov-511", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_clock_advances_then_stops_its_thread_and_restores_affinity():
    before = os.sched_getaffinity(0)
    with hostclock.HostClock() as clock:
        first = clock.now()
        time.sleep(0.05)
        assert clock.now() > first and clock.probes >= 2
        assert 0.0 < clock.wall() <= 1.0
    assert os.sched_getaffinity(0) == before
    assert not any(thread.name == "hostclock" for thread in threading.enumerate())
