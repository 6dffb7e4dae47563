"""Self-tests of the benchmark, on tiny inputs.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import oracles
import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_every_workload(workload):
    result = run.run(workload, seed=3, seconds=0.2, trace=False, small=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(harness.END_TO_END_UNITS)
    assert result["metrics"]["ok_frac"]["value"] == 1.0

    traced = run.run(workload, seed=3, seconds=0.2, trace=True, small=True)
    assert traced["correct"]
    assert list(traced["metrics"]) == list(tracing.PER_LAYER)


def test_wrong_expected_answer_lowers_ok_frac(monkeypatch):
    real = oracles.f_iterate
    monkeypatch.setattr(oracles, "f_iterate",
                        lambda expr, times, start=0: real(expr, times, start) + 1)
    result = run.run("rate-windows", seed=3, seconds=0.2, trace=False,
                     small=True)
    assert result["failed"] > 0 and not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_counts_repeat_for_a_seed():
    def counts():
        metrics = run.run("rate-families", seed=5, seconds=0.2, trace=True,
                          small=True)["metrics"]
        return {k: v["value"] for k, v in metrics.items()
                if v["unit"] == tracing.COUNT}

    first = counts()
    assert first == counts()
    assert first["netcore.windows"] > 0 and first["dct.families"] > 0


def _inputs(workload: str, seed: int) -> tuple:
    plan, _ = workloads.build_plan(harness.load_program(), workload, seed,
                                   True)
    try:
        files = sorted(p.read_text() for p in plan.workdir.iterdir())
        return plan.mix(), files
    finally:
        shutil.rmtree(plan.workdir)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_second_seed_same_mix_other_inputs(workload):
    mix_a, files_a = _inputs(workload, 1)
    mix_b, files_b = _inputs(workload, 2)
    assert mix_a == mix_b
    assert files_a != files_b


def test_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rate-windows",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, pct, beyond = harness.tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert harness.tail([1.0, 2.0]) == (2.0, 100.0, 0)


def test_result_line_is_last_and_parses(capsys):
    assert run.main(["--workload", "logic-windows", "--seed", "4",
                     "--seconds", "0.2", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
