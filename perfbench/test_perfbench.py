"""Self-tests of the benchmark, at a tiny horizon.

Run from the repository root: ``python3 -m pytest -q perfbench/test_perfbench.py``.
Each test drives ``perfbench/run.py`` as a subprocess, exactly as the
benchmark is run, with ``--tiny`` (40-round horizons, one set-up sample).
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("fig1-paper", "replicate-serial", "replicate-pool", "quickstart-telemetry")


def bench(workload: str, seed: int = 5, trace: int = 0, *extra: str):
    """Run the benchmark; return (exit code, stdout lines, parsed result)."""
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    assert lines, done.stderr
    return done.returncode, lines, json.loads(lines[-1])


def digest(lines) -> str:
    return next(line.split("digest=")[1].split()[0] for line in lines if "digest=" in line)


def declared(kind: str):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {entry["name"]: entry["unit"] for entry in json.load(handle)[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    code, lines, result = bench(workload, trace=trace)
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == declared(kind)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == 0:
        summary = next(line for line in lines if " setup_s=" in line)
        for name in ("setup_s", "policy_rounds_per_s", "peak_rss_mb", "artifact_mb",
                     "failed_frac"):
            assert f" {name}=" in summary


@pytest.mark.parametrize(
    "workload, draws", [("fig1-paper", 1), ("replicate-serial", 6),
                        ("replicate-pool", 1), ("quickstart-telemetry", 6)]
)
def test_context_draws_per_round(workload, draws):
    _, _, result = bench(workload, trace=1)
    assert result["metrics"]["datasets.context_draw.per_round"]["value"] == draws


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_reward_fails_the_check(workload):
    code, lines, result = bench(workload, 5, 0, "--perturb")
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
    assert any("check failed" in line for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_digest_and_second_seed_clean(workload):
    _, first, _ = bench(workload, 7)
    _, again, _ = bench(workload, 7)
    code, other, result = bench(workload, 8)
    assert digest(first) == digest(again)
    assert code == 0 and result["correct"]
    assert digest(other) != digest(first)


def test_refuses_to_run_without_the_program(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for path in pathlib.Path(ROOT, "perfbench").iterdir():
        if path.is_file():
            (bench_dir / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", "fig1-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
