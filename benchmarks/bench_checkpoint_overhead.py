"""Cost and transparency guard for round-granular run checkpoints.

Checkpointing promises two things: a run with ``--checkpoint`` pays
only the atomic-save cost on the cadence grid (nothing per round
beyond a ``checkpointer is None`` guard), and saving **never perturbs
a decision** — the checkpointed run is bit-identical to the plain one.
This module measures both with the paired best-of-N harness used by
``bench_flight_overhead``: the baseline times ``run_policy`` with
checkpointing off (the shipping default), the candidate times the
identical run saving every ``EVERY`` rounds into a scratch directory,
and the gate bounds the *price of one save* (``per_save_ms``): the
paired delta divided by the number of saves.  A ratio gate would
punish short bench runs for a fixed fsync cost that real runs
amortise over 8-25x longer cadences, so the slowdown ratio is
reported informationally instead.

A second gate bounds how a save's cost grows with the rounds already
played (``save_growth``): a flight-recorded cell of ``GROWTH_HORIZON``
rounds runs through ``run_work_units`` (so every decision lands in the
cell's ``FlightBuffer``) and the last of its saves may cost at most
``MAX_SAVE_GROWTH`` times the first.  A save's cost is its
``RunCheckpointer.save`` call plus every ``pack_json`` call since the
previous save, best of the repeats at each save position.  A save
that re-packed the whole flight buffer would cost ~9x more at the last
of its 9 saves than at the first; an append-only log costs the same.

Run as a script for the CI gates (exit 1 on regression)::

    python -m benchmarks.bench_checkpoint_overhead --max-save-ms 25
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
import timeit
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional, Sequence
from unittest import mock

import numpy as np

from benchmarks.conftest import bench_config
from repro.bandits.ucb import UcbPolicy
from repro.datasets.synthetic import build_world
from repro.io import checkpoint as checkpoint_module
from repro.io.checkpoint import CellCheckpointSpec, ExecutorCheckpoint, RunCheckpointer
from repro.obs.core import Instrumentation, use
from repro.obs.flight import FlightBuffer
from repro.parallel import PolicyRunCell, run_policy_run_cell, run_work_units
from repro.simulation.runner import run_policy

HORIZON = 200
#: Deliberately aggressive cadence (8 saves over the bench horizon);
#: the shipping default (200) saves 25x less often.
EVERY = 25
#: The growth gate's flight-recorded cell: 9 saves over 5000 rounds.
GROWTH_HORIZON = 5000
GROWTH_EVERY = 500
#: The growth gate: the last of those saves costs at most this many
#: times the first.
MAX_SAVE_GROWTH = 2.0


def _timed_runs(directory: str, repeats: int):
    """Paired samples of a plain run vs a checkpointed one."""
    config = bench_config(horizon=HORIZON)
    world = build_world(config)
    spec = CellCheckpointSpec(directory=directory, key="bench", every=EVERY)

    def run_plain() -> None:
        run_policy(UcbPolicy(dim=config.dim), world, horizon=HORIZON, run_seed=0)

    def run_checkpointed() -> None:
        run_policy(
            UcbPolicy(dim=config.dim),
            world,
            horizon=HORIZON,
            run_seed=0,
            checkpoint=spec,
        )

    timer_plain = timeit.Timer(run_plain)
    timer_on = timeit.Timer(run_checkpointed)
    plain_times: List[float] = []
    on_times: List[float] = []
    for index in range(repeats):
        # Alternate the sampling order so slow machine phases land
        # inside a pair; gate on the minimum paired ratio (see
        # bench_obs_overhead for the rationale).
        if index % 2 == 0:
            plain_times.append(timer_plain.timeit(number=1))
            on_times.append(timer_on.timeit(number=1))
        else:
            on_times.append(timer_on.timeit(number=1))
            plain_times.append(timer_plain.timeit(number=1))
    return plain_times, on_times


def measure_checkpoint_cost(repeats: int = 5) -> dict:
    """Minimum paired slowdown ratio plus the price of one save."""
    with tempfile.TemporaryDirectory() as scratch:
        plain_times, on_times = _timed_runs(scratch, repeats)
    saves = HORIZON // EVERY
    best_plain = min(plain_times)
    best_on = min(on_times)
    return {
        "plain_run_seconds": best_plain,
        "checkpointed_run_seconds": best_on,
        "checkpoint_ratio": min(o / p for p, o in zip(plain_times, on_times)),
        "saves_per_run": saves,
        "per_save_ms": max(0.0, best_on - best_plain) / saves * 1e3,
        "cadence": EVERY,
        "repeats": repeats,
    }


def check_checkpoint_transparency(horizon: int = HORIZON) -> dict:
    """Saving must not change one reward bit (slot left behind on disk)."""
    config = bench_config(horizon=horizon)
    world = build_world(config)
    plain = run_policy(
        UcbPolicy(dim=config.dim), world, horizon=horizon, run_seed=0
    )
    with tempfile.TemporaryDirectory() as scratch:
        spec = CellCheckpointSpec(directory=scratch, key="bench", every=EVERY)
        checkpointed = run_policy(
            UcbPolicy(dim=config.dim),
            world,
            horizon=horizon,
            run_seed=0,
            checkpoint=spec,
        )
        slots = list(Path(scratch).glob("*.ckpt.npz"))
    if not np.array_equal(plain.rewards, checkpointed.rewards):
        raise AssertionError("checkpointing perturbed the run")  # pragma: no cover
    if plain.total_reward != checkpointed.total_reward:  # pragma: no cover
        raise AssertionError("checkpointing changed the total reward")
    return {
        "transparency_horizon": horizon,
        "total_reward": plain.total_reward,
        "slots_on_disk_after_run": len(slots),
    }


@contextmanager
def _timed_saves(costs: List[float]) -> Iterator[None]:
    """Append each save's cost (seconds) to ``costs`` while active."""
    real_save = RunCheckpointer.save
    real_pack = checkpoint_module.pack_json
    packing = [0.0]

    def timed_pack(value):
        start = time.perf_counter()
        packed = real_pack(value)
        packing[0] += time.perf_counter() - start
        return packed

    def timed_save(self, arrays):
        start = time.perf_counter()
        path = real_save(self, arrays)
        costs.append(packing[0] + time.perf_counter() - start)
        packing[0] = 0.0
        return path

    with mock.patch.object(RunCheckpointer, "save", timed_save), mock.patch.object(
        checkpoint_module, "pack_json", timed_pack
    ):
        yield


def measure_save_growth(repeats: int = 3) -> dict:
    """Last-save over first-save cost of a flight-recorded long cell."""
    config = bench_config(horizon=GROWTH_HORIZON)
    runs: List[List[float]] = []
    for _ in range(max(repeats, 1)):
        with tempfile.TemporaryDirectory() as scratch:
            cell = PolicyRunCell(
                config=config,
                policy_name="UCB",
                horizon=GROWTH_HORIZON,
                run_seed=0,
                policy_seed=1,
                checkpoint=CellCheckpointSpec(directory=scratch, key="UCB", every=GROWTH_EVERY),
            )
            obs = Instrumentation()
            obs.flight_recorder = FlightBuffer()
            costs: List[float] = []
            with use(obs), _timed_saves(costs):
                run_work_units(
                    run_policy_run_cell, [cell], jobs=1, checkpoint=ExecutorCheckpoint(scratch)
                )
            if len(obs.flight_recorder.records) != GROWTH_HORIZON:  # pragma: no cover
                raise AssertionError("the flight buffer missed decisions")
        runs.append(costs)
    best = [min(costs) for costs in zip(*runs)]
    return {
        "growth_horizon": GROWTH_HORIZON,
        "growth_cadence": GROWTH_EVERY,
        "growth_saves": len(best),
        "first_save_ms": best[0] * 1e3,
        "last_save_ms": best[-1] * 1e3,
        "save_growth": best[-1] / best[0],
    }


def measure_overhead(repeats: int = 5) -> dict:
    """The full report: slowdown and growth gates + bit-transparency cross-check."""
    result = measure_checkpoint_cost(repeats=repeats)
    result.update(measure_save_growth())
    result.update(check_checkpoint_transparency())
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--max-save-ms",
        type=float,
        default=25.0,
        help=(
            "maximum tolerated wall-clock price of one atomic "
            "checkpoint save (temp file + fsync + rename)"
        ),
    )
    parser.add_argument("--repeats", type=int, default=5, help="best-of-N repeats")
    args = parser.parse_args(argv)
    result = measure_overhead(repeats=args.repeats)
    result["max_save_ms"] = args.max_save_ms
    result["max_save_growth"] = MAX_SAVE_GROWTH
    result["ok"] = (
        result["per_save_ms"] <= args.max_save_ms
        and result["save_growth"] <= MAX_SAVE_GROWTH
    )
    json.dump(result, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0 if result["ok"] else 1


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_run_checkpoint_off(benchmark):
    config = bench_config(horizon=HORIZON)
    world = build_world(config)
    benchmark.pedantic(
        lambda: run_policy(
            UcbPolicy(dim=config.dim), world, horizon=HORIZON, run_seed=0
        ),
        rounds=3,
        iterations=1,
    )


def test_run_checkpoint_on(benchmark, tmp_path):
    """Saving every ``EVERY`` rounds: the price of crash safety."""
    config = bench_config(horizon=HORIZON)
    world = build_world(config)
    spec = CellCheckpointSpec(directory=tmp_path, key="bench", every=EVERY)
    benchmark.pedantic(
        lambda: run_policy(
            UcbPolicy(dim=config.dim),
            world,
            horizon=HORIZON,
            run_seed=0,
            checkpoint=spec,
        ),
        rounds=3,
        iterations=1,
    )


def test_save_cost_does_not_grow_with_the_rounds_played():
    report = measure_save_growth()
    assert report["growth_saves"] == GROWTH_HORIZON // GROWTH_EVERY - 1
    assert report["save_growth"] <= MAX_SAVE_GROWTH


def test_checkpointing_is_bit_transparent():
    report = check_checkpoint_transparency(horizon=75)
    assert report["total_reward"] > 0


if __name__ == "__main__":
    sys.exit(main())
