"""Smoke tests of the benchmark itself: every workload in both modes, on tiny inputs.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_prints_every_metric_and_passes_its_checks(name, trace):
    done = _bench("--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert [m for m in result["metrics"]] == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_for_a_seed():
    counts = []
    for _ in range(2):
        done = _bench("--workload", "fit_short", "--seed", "4", "--seconds", "0.3", "--trace", "1", "--smoke")
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        counts.append(metrics["identify.convolutions"]["value"])
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_inputs(name, tmp_path):
    digests = []
    for seed, sub in ((5, "a"), (5, "b"), (6, "c")):
        workloads.generate(name, seed, tmp_path / sub, smoke=True)
        digests.append(workloads.digest(tmp_path / sub))
    assert digests[0] == digests[1] != digests[2]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "fit_short", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_tail_leaves_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3.0, 2)
