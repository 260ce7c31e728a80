"""Smoke test of the legalization benchmark.

Runs every workload at a tiny scale through the real command line, in
both modes, and checks that every metric ``BENCHMARK.json`` names is
reported with its unit; then checks that the correctness gate fires on
a deliberately illegal placement.  Run from the repository root::

    python3 -m pytest -q legalbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--tiny",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    assert json.loads(lines[-2])["provenance"]["workload"] == workload
    return json.loads(lines[-1])


def test_benchmark_lists_every_workload() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(workload: str, trace: int) -> None:
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert isinstance(reported["value"], (int, float)), metric["name"]


def test_gate_fires_on_an_illegal_placement() -> None:
    workload = WORKLOADS["fenced_mixed"]
    setup = harness.build_designs(workload, seed=7, tiny=True)
    design = setup.designs[0]
    result = harness.legalize(design, workload.legalizer_params())
    placement = result.placement
    placed = result.mgl_stats["cells_placed"]
    assert harness.gate(placement, placed) == []

    ledger = harness.Ledger(setup.seeds)
    assert ledger.record(0, "legalize", placement, placed)
    # Stack the two first movable cells on the same site.
    first, second = design.movable_cells()[:2]
    placement.move(second, placement.x[first], placement.y[first])
    assert any("check_legal" in reason for reason in harness.gate(placement, placed))
    assert harness.gate(placement, placed - 1)[0].startswith(f"{placed - 1} of ")
    assert not ledger.record(0, "legalize", placement, placed)
    assert ledger.failed == 1 and ledger.attempted == 2
    assert "placement hash" in ledger.failures[0]
    assert "check_legal" in ledger.failures[0]
