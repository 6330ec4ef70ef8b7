"""Toy-size runs of every workload, traced and untraced, at the benchmark
seed and at a held-out one. Each result line must carry exactly the metrics
BENCHMARK.json names, with their units, and report correct outputs. Also
checks the host-speed correction's arithmetic on made-up samples.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hostspeed import REFERENCE_S, HostSpeed, Mark

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV_KEYS = {"nproc", "python", "numpy", "blas", "threads", "seed", "commit"}
# Workload-specific names printed beside the result line, with the error rate.
ALIASES = {
    "train-acceptance": {"pipeline_s"},
    "cold-serve": {"serve_cascades", "serve_cascades_per_s", "serve_p50_ms", "serve_p99_ms"},
    "cli-artifacts": {"cli_s"},
}


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=root, capture_output=True,
        text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("seed", [0, 7])  # 7 is held out: nothing was tuned on it
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, seed, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1

    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())

    env = json.loads(lines[0].removeprefix("env "))
    assert ENV_KEYS <= set(env) and env["seed"] == seed
    printed = {line.split(" = ")[0] for line in lines[1:-1] if " = " in line}
    assert set(want) | ALIASES[workload] | {"error_rate"} <= printed


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = _run(tmp_path, "--workload", "cold-serve", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_speed_turns_wall_time_into_reference_seconds():
    speed = HostSpeed()
    start, end = Mark(wall=1.0, spent=0.0), Mark(wall=2.0, spent=0.1)
    assert speed.seconds(start, end) == pytest.approx(0.9)  # no samples: wall time
    speed.times = [0.5, 1.0, 1.5, 2.0, 2.5, 9.0]
    speed.durations = [2 * REFERENCE_S] * 5 + [8 * REFERENCE_S]
    # 0.25 s past each end holds 3 samples; 0.5 s holds 5, and the outlier stays out.
    assert speed.slowdown(start, end) == pytest.approx(2.0)
    assert speed.wall(start, end) == pytest.approx(0.9)
    assert speed.seconds(start, end) == pytest.approx(0.45)
