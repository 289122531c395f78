"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(harness.WORKLOADS)


def tiny(workload: str, trace: bool = False, tap=harness.default_tap) -> dict:
    return run.measure(ROOT, workload, seed=3, seconds=0.01, trace=trace,
                       spec=harness.TINY[workload], tap=tap)


def test_spec_lists_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace, capsys):
    result = tiny(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    run.report(result)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())


def drop_first_clique(check: harness.StreamCheck):
    """A sabotaged sink: loses the first clique of every listing."""
    dropped = []

    def sink(bits: int) -> None:
        if not dropped:
            dropped.append(bits)
            return
        check.add(bits)

    return sink


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_trips_when_the_sink_drops_a_clique(workload):
    result = tiny(workload, tap=drop_first_clique)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
