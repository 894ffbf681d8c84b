"""Kill-and-resume byte-identity (the crash-safety acceptance bar).

A checkpointed multi-policy run is SIGKILL'd mid-flight in a real
subprocess, then resumed with ``--resume`` semantics; the resumed run's
``decisions.jsonl`` and ``decisions.f64``, per-policy rewards and
scrubbed ``metrics.json`` must be **byte-identical** to an
uninterrupted run's — serially and under ``jobs=4``.

The kill is injected by monkeypatching ``RunCheckpointer.save`` in the
driver subprocess *before* any pool exists: forked workers inherit the
patch, so the kill fires inside whichever process performs the
checkpoint save (the main process when serial, a pool worker when
parallel).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: argv: out_dir ckpt_dir jobs mode(fresh|resume).  Env KILL_AFTER_SAVES=k
#: SIGKILLs the executing process on its k-th checkpoint save.
DRIVER = r"""
import json
import os
import signal
import sys

out_dir, ckpt_dir, jobs, mode = sys.argv[1:5]

kill_after = int(os.environ.get("KILL_AFTER_SAVES", "0"))
if kill_after:
    from repro.io import checkpoint as ckpt_mod

    real_save = ckpt_mod.RunCheckpointer.save
    saves = {"n": 0}

    def killing_save(self, arrays):
        path = real_save(self, arrays)
        saves["n"] += 1
        if saves["n"] >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)
        return path

    ckpt_mod.RunCheckpointer.save = killing_save

from repro.datasets.synthetic import SyntheticConfig
from repro.io.checkpoint import CellCheckpointSpec, ExecutorCheckpoint
from repro.io.runstore import persist_run_telemetry
from repro.obs.core import Instrumentation, use
from repro.obs.flight import FlightRecorder, make_run_header
from repro.parallel import OPT_KEY, PolicyRunCell, run_policy_run_cell, run_work_units

HORIZON = 300
EVERY = 40
POLICY_SEED = 7
config = SyntheticConfig(
    num_events=12,
    horizon=HORIZON,
    dim=4,
    capacity_mean=8.0,
    capacity_std=3.0,
    conflict_ratio=0.25,
    seed=0,
)
names = (OPT_KEY, "UCB", "TS", "eGreedy")
resume = mode == "resume"

obs = Instrumentation()
specs = [{"name": OPT_KEY}] + [
    {"name": name, "seed": POLICY_SEED} for name in names[1:]
]
flight = FlightRecorder(
    out_dir, run=make_run_header(config, HORIZON, 0, specs)
)
obs.flight_recorder = flight
cells = [
    PolicyRunCell(
        config=config,
        policy_name=name,
        horizon=HORIZON,
        run_seed=0,
        policy_seed=POLICY_SEED,
        checkpoint=CellCheckpointSpec(
            directory=ckpt_dir, key=name, every=EVERY, resume=resume
        ),
    )
    for name in names
]
try:
    with use(obs):
        histories = run_work_units(
            run_policy_run_cell,
            cells,
            jobs=int(jobs),
            checkpoint=ExecutorCheckpoint(ckpt_dir, resume=resume),
        )
finally:
    flight.close()
persist_run_telemetry(out_dir, obs)
rewards = {
    name: list(map(float, history.rewards))
    for name, history in zip(names, histories)
}
with open(os.path.join(out_dir, "rewards.json"), "w") as handle:
    json.dump(rewards, handle, indent=2, sort_keys=True)
print("completed")
"""


def _run_driver(out_dir, ckpt_dir, jobs, mode, kill_after=None):
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    env.pop("KILL_AFTER_SAVES", None)
    if kill_after is not None:
        env["KILL_AFTER_SAVES"] = str(kill_after)
    return subprocess.run(
        [sys.executable, "-c", DRIVER, str(out_dir), str(ckpt_dir), str(jobs), mode],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _scrubbed_metrics(out_dir) -> dict:
    """metrics.json minus wall-clock metrics (names containing 'seconds')."""
    document = json.loads((Path(out_dir) / "metrics.json").read_text())
    return {
        section: (
            {
                name: value
                for name, value in content.items()
                if "seconds" not in name
            }
            if isinstance(content, dict)
            else content
        )
        for section, content in document.items()
    }


@pytest.mark.slow
@pytest.mark.parametrize("jobs", [1, 4])
def test_killed_run_resumes_byte_identically(tmp_path, jobs):
    golden_out = tmp_path / "golden"
    golden = _run_driver(golden_out, tmp_path / "golden-ckpt", jobs, "fresh")
    assert golden.returncode == 0, golden.stderr

    victim_out = tmp_path / "victim"
    victim_ckpt = tmp_path / "victim-ckpt"
    # Serial: the whole driver dies on the 9th save (OPT finishes its 7,
    # the kill lands mid-UCB).  Parallel: each worker dies on its own
    # 3rd save, so the first death lands mid-cell for every policy.
    crashed = _run_driver(
        victim_out, victim_ckpt, jobs, "fresh", kill_after=9 if jobs == 1 else 3
    )
    assert crashed.returncode != 0, "the kill did not happen"
    if jobs == 1:
        assert crashed.returncode == -signal.SIGKILL
    assert list(victim_ckpt.glob("*.ckpt.npz")), "no checkpoint was saved"
    assert not (victim_out / "rewards.json").exists()

    resumed = _run_driver(victim_out, victim_ckpt, jobs, "resume")
    assert resumed.returncode == 0, resumed.stderr
    assert "completed" in resumed.stdout

    golden_decisions = (golden_out / "decisions.jsonl").read_bytes()
    assert (victim_out / "decisions.jsonl").read_bytes() == golden_decisions
    assert golden_decisions.count(b"\n") > 4 * 300  # one record per round
    golden_vectors = (golden_out / "decisions.f64").read_bytes()
    assert golden_vectors  # the score vectors live here, bit-exact
    assert (victim_out / "decisions.f64").read_bytes() == golden_vectors
    golden_rewards = (golden_out / "rewards.json").read_bytes()
    assert (victim_out / "rewards.json").read_bytes() == golden_rewards
    assert _scrubbed_metrics(victim_out) == _scrubbed_metrics(golden_out)
    # The deterministic metrics survived the scrub (it removed only
    # wall-clock noise, not the run's substance).
    counters = _scrubbed_metrics(victim_out)["counters"]
    assert counters["checkpoint.saves"] > 0
    assert counters["env.rounds"] == 4 * 300


@pytest.mark.slow
def test_completed_cells_replay_from_cache(tmp_path):
    """Resuming a *finished* run replays everything from the unit cache
    (round checkpoints are cleared on completion) byte-identically."""
    out_dir = tmp_path / "out"
    ckpt_dir = tmp_path / "ckpt"
    first = _run_driver(out_dir, ckpt_dir, 1, "fresh")
    assert first.returncode == 0, first.stderr
    assert not list(ckpt_dir.glob("*.ckpt.npz"))  # slots cleared
    baseline_rewards = (out_dir / "rewards.json").read_bytes()
    baseline_decisions = (out_dir / "decisions.jsonl").read_bytes()
    baseline_vectors = (out_dir / "decisions.f64").read_bytes()
    baseline_metrics = _scrubbed_metrics(out_dir)

    replay_out = tmp_path / "replay"
    replay = _run_driver(replay_out, ckpt_dir, 1, "resume")
    assert replay.returncode == 0, replay.stderr
    assert (replay_out / "rewards.json").read_bytes() == baseline_rewards
    assert (replay_out / "decisions.jsonl").read_bytes() == baseline_decisions
    assert (replay_out / "decisions.f64").read_bytes() == baseline_vectors
    assert _scrubbed_metrics(replay_out) == baseline_metrics
