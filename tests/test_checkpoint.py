"""repro.io.checkpoint: state capture primitives, caches, manifests.

Unit tests of the crash-safe checkpoint layer: exact RNG/ridge/
environment round trips, the atomic-write contract, the head + log
layout (in-process crashes at each point of a save), the executor's
unit-result cache and the checkpoint-directory manifest.  The
end-to-end SIGKILL-and-resume proofs live in
``tests/test_checkpoint_resume.py``.
"""

from __future__ import annotations

import dataclasses
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.bandits import make_policy
from repro.bandits.disjoint import DisjointUcbPolicy
from repro.datasets.synthetic import SyntheticConfig, build_world
from repro.exceptions import ConfigurationError, LedgerError
from repro.io import checkpoint as checkpoint_module
from repro.io.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CellCheckpointSpec,
    ExecutorCheckpoint,
    RunCheckpointer,
    atomic_save_npz,
    atomic_write_bytes,
    capture_policy_state,
    check_manifest,
    executor_checkpoint_scope,
    load_manifest,
    load_unit_result,
    pack_state,
    restore_policy_state,
    save_unit_result,
    unit_digest,
    unpack_state,
    write_manifest,
)
from repro.io.runstore import persist_run_telemetry
from repro.linalg.ridge import RidgeState
from repro.linalg.sampling import capture_rng_state, restore_rng_state
from repro.obs.core import Instrumentation, use
from repro.obs.flight import FlightRecorder, make_run_header
from repro.parallel import PolicyRunCell, run_policy_run_cell, run_work_units
from repro.simulation.environment import FaseaEnvironment
from repro.simulation.runner import run_policy


def tiny_config(**overrides) -> SyntheticConfig:
    base = dict(
        num_events=12,
        horizon=100,
        dim=4,
        capacity_mean=8.0,
        capacity_std=3.0,
        conflict_ratio=0.25,
        seed=0,
    )
    base.update(overrides)
    return SyntheticConfig(**base)


# ----------------------------------------------------------------------
# RNG state capture
# ----------------------------------------------------------------------
def test_rng_state_round_trip_is_bit_exact():
    rng = np.random.default_rng(7)
    rng.standard_normal(13)  # advance off the seed boundary
    state = capture_rng_state(rng)
    ahead = rng.standard_normal(50)
    restore_rng_state(rng, state)
    np.testing.assert_array_equal(rng.standard_normal(50), ahead)


def test_rng_restore_rejects_wrong_bit_generator():
    rng = np.random.default_rng(0)
    state = capture_rng_state(rng)
    state["bit_generator"] = "MT19937"
    with pytest.raises(ConfigurationError, match="MT19937"):
        restore_rng_state(np.random.default_rng(0), state)


def test_rng_restore_rejects_malformed_state():
    rng = np.random.default_rng(0)
    state = capture_rng_state(rng)
    state["state"] = {"nonsense": True}
    with pytest.raises(ConfigurationError, match="invalid RNG state"):
        restore_rng_state(np.random.default_rng(0), state)


# ----------------------------------------------------------------------
# Ridge state: exact (inverse-preserving) checkpoints
# ----------------------------------------------------------------------
def _trained_ridge(dim: int = 4, rounds: int = 40) -> RidgeState:
    rng = np.random.default_rng(3)
    state = RidgeState(dim=dim)
    for _ in range(rounds):
        state.update(rng.standard_normal(dim), float(rng.uniform()))
    state.theta_hat()  # materialise the cached estimate + inverse
    return state


def test_ridge_checkpoint_round_trip_preserves_future_bits():
    """Resume must replay later updates bit-identically — including the
    maintained Sherman-Morrison inverse, which plain (Y, b) restore
    recomputes with different low-order bits."""
    state = _trained_ridge()
    snapshot = state.checkpoint_state()
    rng = np.random.default_rng(9)
    updates = [(rng.standard_normal(4), float(rng.uniform())) for _ in range(25)]
    for x, r in updates:
        state.update(x, r)
    expected = state.theta_hat().copy()

    resumed = RidgeState(dim=4)
    resumed.restore_checkpoint(snapshot)
    for x, r in updates:
        resumed.update(x, r)
    np.testing.assert_array_equal(resumed.theta_hat(), expected)
    np.testing.assert_array_equal(resumed.y_inv, state.y_inv)


def test_ridge_checkpoint_survives_npz(tmp_path):
    state = _trained_ridge()
    path = atomic_save_npz(tmp_path / "ridge.npz", state.checkpoint_state())
    with np.load(path) as archive:
        stored = {name: archive[name].copy() for name in archive.files}
    resumed = RidgeState(dim=4)
    resumed.restore_checkpoint(stored)
    np.testing.assert_array_equal(resumed.theta_hat(), state.theta_hat())


def test_ridge_restore_names_both_shapes_on_mismatch():
    snapshot = _trained_ridge(dim=5).checkpoint_state()
    with pytest.raises(ConfigurationError, match=r"\(5, 5\)") as excinfo:
        RidgeState(dim=3).restore_checkpoint(snapshot)
    assert "(3, 3)" in str(excinfo.value)


# ----------------------------------------------------------------------
# Environment state round trip
# ----------------------------------------------------------------------
def _play_rounds(env: FaseaEnvironment, rounds: int):
    """Arrange the first available event each round; return observables."""
    trail = []
    for _ in range(rounds):
        view = env.begin_round()
        arranged = []
        for event_id in range(env.num_events):
            if view.remaining_capacities[event_id] > 0:
                arranged = [event_id]
                break
        rewards, entry = env.commit(arranged)
        trail.append(
            (view.user.user_id, view.contexts.tobytes(), tuple(rewards), entry.reward)
        )
    return trail


def test_environment_state_round_trip_is_bit_exact():
    world = build_world(tiny_config())
    env = FaseaEnvironment(world, run_seed=5)
    _play_rounds(env, 10)
    state = env.state_dict()
    expected = _play_rounds(env, 8)

    resumed = FaseaEnvironment(world, run_seed=5)
    resumed.restore_state(state)
    assert _play_rounds(resumed, 8) == expected
    assert resumed.time_step == env.time_step
    assert list(resumed.platform.ledger) == list(env.platform.ledger)


def test_environment_state_survives_npz(tmp_path):
    world = build_world(tiny_config())
    env = FaseaEnvironment(world, run_seed=5)
    _play_rounds(env, 6)
    path = atomic_save_npz(tmp_path / "env.npz", pack_state("env.", env.state_dict()))
    expected = _play_rounds(env, 5)
    with np.load(path) as archive:
        stored = {name: archive[name].copy() for name in archive.files}
    resumed = FaseaEnvironment(world, run_seed=5)
    resumed.restore_state(unpack_state("env.", stored))
    assert _play_rounds(resumed, 5) == expected


def test_environment_refuses_mid_round_checkpoint():
    env = FaseaEnvironment(build_world(tiny_config()), run_seed=0)
    env.begin_round()
    with pytest.raises(ConfigurationError, match="mid-round"):
        env.state_dict()


def test_ledger_restore_rejects_corrupt_offsets():
    world = build_world(tiny_config())
    env = FaseaEnvironment(world, run_seed=1)
    _play_rounds(env, 4)
    bad = env.state_dict()
    offsets = np.asarray(bad["ledger_arranged_offsets"]).copy()
    offsets[-1] += 3  # points past the flat array
    bad["ledger_arranged_offsets"] = offsets
    resumed = FaseaEnvironment(world, run_seed=1)
    with pytest.raises(LedgerError):
        resumed.restore_state(bad)


def test_event_store_restore_rejects_out_of_range_capacity():
    world = build_world(tiny_config())
    env = FaseaEnvironment(world, run_seed=1)
    state = env.state_dict()
    remaining = np.asarray(state["platform_remaining"]).copy()
    remaining[0] = remaining[0] + 1e9  # above initial capacity
    state["platform_remaining"] = remaining
    resumed = FaseaEnvironment(world, run_seed=1)
    with pytest.raises(ConfigurationError):
        resumed.restore_state(state)


# ----------------------------------------------------------------------
# Policy state capture (exact layout, incl. RNG)
# ----------------------------------------------------------------------
def test_policy_capture_round_trip_ts():
    policy = make_policy("TS", dim=4, seed=11)
    rng = np.random.default_rng(2)
    for _ in range(30):
        policy.model.state.update(rng.standard_normal(4), float(rng.uniform()))
    arrays = capture_policy_state(policy)
    ahead = policy._rng.standard_normal(20)

    clone = make_policy("TS", dim=4, seed=11)
    restore_policy_state(clone, arrays)
    np.testing.assert_array_equal(clone._rng.standard_normal(20), ahead)
    np.testing.assert_array_equal(
        clone.model.state.theta_hat(), policy.model.state.theta_hat()
    )


def test_policy_capture_round_trip_disjoint():
    policy = DisjointUcbPolicy(num_events=3, dim=3)
    rng = np.random.default_rng(4)
    for index in range(3):
        for _ in range(10):
            policy.model_for(index).state.update(
                rng.standard_normal(3), float(rng.uniform())
            )
    arrays = capture_policy_state(policy)
    clone = DisjointUcbPolicy(num_events=3, dim=3)
    restore_policy_state(clone, arrays)
    for index in range(3):
        np.testing.assert_array_equal(
            clone.model_for(index).state.y, policy.model_for(index).state.y
        )


def test_policy_restore_rejects_structural_mismatches():
    trained = make_policy("UCB", dim=4)
    arrays = capture_policy_state(trained)
    with pytest.raises(ConfigurationError, match="no state for disjoint model"):
        restore_policy_state(DisjointUcbPolicy(num_events=2, dim=4), arrays)
    with pytest.raises(ConfigurationError, match="has no model"):
        restore_policy_state(make_policy("Random", seed=0, dim=4), arrays)
    with pytest.raises(ConfigurationError, match="no model state"):
        restore_policy_state(make_policy("UCB", dim=4), {})
    with pytest.raises(ConfigurationError, match="no RNG state"):
        restore_policy_state(
            make_policy("TS", dim=4, seed=1),
            capture_policy_state(make_policy("Exploit", dim=4)),
        )


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------
def test_atomic_write_bytes_leaves_no_temp_file(tmp_path):
    path = atomic_write_bytes(tmp_path / "blob.bin", b"payload")
    assert path.read_bytes() == b"payload"
    assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]


def test_atomic_save_npz_replaces_previous_slot(tmp_path):
    target = tmp_path / "slot.npz"
    atomic_save_npz(target, {"x": np.arange(3)})
    atomic_save_npz(target, {"x": np.arange(5)})
    with np.load(target) as archive:
        assert archive["x"].shape == (5,)
    assert [p.name for p in tmp_path.iterdir()] == ["slot.npz"]


# ----------------------------------------------------------------------
# Cell checkpoint slots
# ----------------------------------------------------------------------
def test_cell_spec_validates_cadence_and_key(tmp_path):
    with pytest.raises(ConfigurationError, match="cadence"):
        CellCheckpointSpec(directory=str(tmp_path), key="a", every=0)
    with pytest.raises(ConfigurationError, match="flat name"):
        CellCheckpointSpec(directory=str(tmp_path), key="a/b")
    with pytest.raises(ConfigurationError, match="flat name"):
        CellCheckpointSpec(directory=str(tmp_path), key="")


def test_run_checkpointer_save_load_clear(tmp_path):
    spec = CellCheckpointSpec(directory=str(tmp_path), key="cell", every=10)
    saver = RunCheckpointer(spec)
    assert saver.due(10) and saver.due(20) and not saver.due(15)
    saver.save({"t": np.array([10])})
    # Not resuming: load() is None even though the slot exists.
    assert saver.load() is None
    resume = RunCheckpointer(
        CellCheckpointSpec(directory=str(tmp_path), key="cell", every=10, resume=True)
    )
    stored = resume.load()
    assert int(stored["t"][0]) == 10
    assert int(stored["checkpoint_version"][0]) == CHECKPOINT_SCHEMA_VERSION
    resume.clear()
    assert resume.load() is None
    resume.clear()  # idempotent


def test_run_checkpointer_rejects_foreign_slots(tmp_path):
    RunCheckpointer(
        CellCheckpointSpec(directory=str(tmp_path), key="mine", every=5)
    ).save({"t": np.array([5])})
    stolen = tmp_path / "theirs.ckpt.npz"
    (tmp_path / "mine.ckpt.npz").rename(stolen)
    with pytest.raises(ConfigurationError, match="belongs to cell 'mine'"):
        RunCheckpointer(
            CellCheckpointSpec(
                directory=str(tmp_path), key="theirs", every=5, resume=True
            )
        ).load()


def test_run_checkpointer_rejects_non_checkpoint_archives(tmp_path):
    np.savez(tmp_path / "cell.ckpt.npz", junk=np.ones(2))
    with pytest.raises(ConfigurationError, match="not a run checkpoint"):
        RunCheckpointer(
            CellCheckpointSpec(directory=str(tmp_path), key="cell", resume=True)
        ).load()


def _assert_old_slot_refused(tmp_path, arrays, version):
    """A ``PolicyRunCell`` resuming from ``arrays`` saved as ``version``
    is refused with the version message before any state is read."""
    arrays = dict(arrays)
    arrays["checkpoint_version"] = np.array([version], dtype=np.int64)
    arrays["checkpoint_key"] = np.frombuffer(b"UCB", dtype=np.uint8)
    atomic_save_npz(tmp_path / "UCB.ckpt.npz", arrays)
    cell = PolicyRunCell(
        config=tiny_config(),
        policy_name="UCB",
        horizon=40,
        run_seed=0,
        policy_seed=1,
        checkpoint=CellCheckpointSpec(
            directory=str(tmp_path), key="UCB", every=10, resume=True
        ),
    )
    expected = f"checkpoint version {version}, expected {CHECKPOINT_SCHEMA_VERSION}"
    with pytest.raises(ConfigurationError, match=expected):
        run_policy_run_cell(cell)


def test_a_version_1_slot_is_refused_with_the_version_message(tmp_path):
    """A slot in the old per-runner layout (``policy.*``/``env.*``) left
    by an older build is refused by version, never read as a current slot."""
    assert CHECKPOINT_SCHEMA_VERSION == 4
    world = build_world(tiny_config())
    env = FaseaEnvironment(world, run_seed=0)
    arrays = {
        "t": np.array([10], dtype=np.int64),
        "rewards": np.zeros(10),
        "arranged": np.zeros(10),
        "elapsed": np.zeros(1),
        "k_steps": np.zeros(0, dtype=np.int64),
        "k_taus": np.zeros(0),
    }
    arrays.update(pack_state("env.", env.state_dict()))
    _assert_old_slot_refused(tmp_path, arrays, version=1)


def test_a_version_2_slot_is_refused_with_the_version_message(tmp_path):
    """A v2 slot keeps rewards, ledger, trace and flight in one archive
    with no log behind it; it is refused by version, not misread."""
    world = build_world(tiny_config())
    env = FaseaEnvironment(world, run_seed=0)
    _play_rounds(env, 10)
    arrays = {
        "t": np.array([10], dtype=np.int64),
        "k_steps": np.zeros(0, dtype=np.int64),
        "rewards.UCB": np.zeros(10),
        "arranged.UCB": np.zeros(10),
        "elapsed.UCB": np.zeros(1),
        "k_taus.UCB": np.zeros(0),
    }
    arrays.update(pack_state("stream.", env.stream.state_dict()))
    platform_state = env.platform.state_dict()
    for key, value in env.platform.ledger.state_arrays().items():
        platform_state[f"ledger_{key}"] = value
    arrays.update(pack_state("plat.UCB.", platform_state))
    _assert_old_slot_refused(tmp_path, arrays, version=2)


def test_a_version_3_slot_is_refused_with_the_version_message(tmp_path):
    """A v3 head covers log frames whose flight records hold their
    vectors as JSON text; it is refused by version, not misread."""
    world = build_world(tiny_config())
    env = FaseaEnvironment(world, run_seed=0)
    _play_rounds(env, 10)
    arrays = {
        "t": np.array([10], dtype=np.int64),
        "k_steps": np.zeros(0, dtype=np.int64),
        "elapsed.UCB": np.zeros(1),
        "k_taus.UCB": np.zeros(0),
        "log_offset": np.array([0], dtype=np.int64),
    }
    arrays.update(pack_state("stream.", env.stream.state_dict()))
    arrays.update(pack_state("plat.UCB.", env.platform.state_dict()))
    _assert_old_slot_refused(tmp_path, arrays, version=3)


# ----------------------------------------------------------------------
# The head + log layout: crashes at every point of a save
# ----------------------------------------------------------------------
_CRASH_HORIZON = 120
_CRASH_EVERY = 20
_CRASH_NAMES = ("OPT", "UCB", "TS")


class _Killed(Exception):
    """Stands in for a SIGKILL: nothing after the raise reaches disk."""


def _checkpointed_run(out_dir, ckpt_dir, resume):
    """A flight-recorded, checkpointed three-policy run, as the CLI wires it.

    Writes ``decisions.jsonl``, ``decisions.f64`` and ``metrics.json``
    into ``out_dir``.
    """
    config = tiny_config(horizon=_CRASH_HORIZON)
    obs = Instrumentation()
    specs = [{"name": "OPT"}] + [{"name": name, "seed": 7} for name in _CRASH_NAMES[1:]]
    obs.flight_recorder = FlightRecorder(
        out_dir, run=make_run_header(config, _CRASH_HORIZON, 0, specs)
    )
    cells = [
        PolicyRunCell(
            config=config,
            policy_name=name,
            horizon=_CRASH_HORIZON,
            run_seed=0,
            policy_seed=7,
            checkpoint=CellCheckpointSpec(
                directory=str(ckpt_dir), key=name, every=_CRASH_EVERY, resume=resume
            ),
        )
        for name in _CRASH_NAMES
    ]
    try:
        with use(obs):
            run_work_units(
                run_policy_run_cell,
                cells,
                jobs=1,
                checkpoint=ExecutorCheckpoint(ckpt_dir, resume=resume),
            )
    finally:
        obs.flight_recorder.close()
    persist_run_telemetry(out_dir, obs)


def _scrubbed_metrics(out_dir) -> dict:
    """metrics.json minus wall-clock metrics (names containing 'seconds')."""
    document = json.loads((out_dir / "metrics.json").read_text())
    return {
        section: (
            {name: value for name, value in content.items() if "seconds" not in name}
            if isinstance(content, dict)
            else content
        )
        for section, content in document.items()
    }


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("golden")
    _checkpointed_run(out_dir, out_dir / "ckpt", resume=False)
    return out_dir


def _assert_resumes_to_golden(golden_run, out_dir, ckpt_dir):
    _checkpointed_run(out_dir, ckpt_dir, resume=True)
    for filename in ("decisions.jsonl", "decisions.f64"):
        golden = (golden_run / filename).read_bytes()
        assert golden and (out_dir / filename).read_bytes() == golden, filename
    assert _scrubbed_metrics(out_dir) == _scrubbed_metrics(golden_run)
    assert _scrubbed_metrics(out_dir)["counters"]["checkpoint.saves"] > 0
    assert not list(ckpt_dir.glob("*.ckpt.*"))  # every cell cleared its slot


def test_a_kill_between_log_append_and_head_replace_resumes_byte_identically(
    tmp_path, monkeypatch, golden_run
):
    """The frame is durable but its head never lands: resume truncates
    the frame and replays those rounds from the previous head."""
    real_save_npz = checkpoint_module.atomic_save_npz
    heads = {"n": 0}

    def dying_head_write(path, arrays):
        heads["n"] += 1
        if heads["n"] == 9:  # mid-UCB: OPT finished its 5 saves
            raise _Killed
        return real_save_npz(path, arrays)

    monkeypatch.setattr(checkpoint_module, "atomic_save_npz", dying_head_write)
    out_dir, ckpt_dir = tmp_path / "victim", tmp_path / "ckpt"
    with pytest.raises(_Killed):
        _checkpointed_run(out_dir, ckpt_dir, resume=False)
    monkeypatch.undo()
    with np.load(ckpt_dir / "UCB.ckpt.npz") as head:
        covered = int(head["log_offset"][0])
        assert int(head["t"][0]) == 3 * _CRASH_EVERY
    assert (ckpt_dir / "UCB.ckpt.log").stat().st_size > covered  # the orphan frame
    _assert_resumes_to_golden(golden_run, out_dir, ckpt_dir)


def test_a_torn_trailing_frame_resumes_byte_identically(tmp_path, golden_run):
    """A crash mid-append leaves half a frame past the head's offset."""
    out_dir, ckpt_dir = tmp_path / "victim", tmp_path / "ckpt"
    with pytest.raises(_Killed):
        with _kill_after_saves(7):
            _checkpointed_run(out_dir, ckpt_dir, resume=False)
    log_path = ckpt_dir / "UCB.ckpt.log"
    with np.load(ckpt_dir / "UCB.ckpt.npz") as head:
        covered = int(head["log_offset"][0])
    assert log_path.stat().st_size == covered
    with log_path.open("ab") as log:
        log.write((4096).to_bytes(8, "little") + b"PK\x03\x04 torn")
    _assert_resumes_to_golden(golden_run, out_dir, ckpt_dir)


@contextmanager
def _kill_after_saves(count):
    """The CI kill harness: wrap ``RunCheckpointer.save(self, arrays)``,
    die after the ``count``-th save, then list the ``*.ckpt.npz`` slots."""
    real_save = RunCheckpointer.save
    saves = {"n": 0}

    def killing_save(self, arrays):
        path = real_save(self, arrays)
        saves["n"] += 1
        if saves["n"] >= count:
            assert list(Path(self.spec.directory).glob("*.ckpt.npz"))
            raise _Killed
        return path

    RunCheckpointer.save = killing_save
    try:
        yield
    finally:
        RunCheckpointer.save = real_save


def test_the_ci_kill_harness_still_drives_save(tmp_path, golden_run):
    """``save`` keeps its one-argument signature and its ``.ckpt.npz``
    head, so the CI job's monkeypatched kill works unchanged."""
    out_dir, ckpt_dir = tmp_path / "victim", tmp_path / "ckpt"
    with pytest.raises(_Killed):
        with _kill_after_saves(12):
            _checkpointed_run(out_dir, ckpt_dir, resume=False)
    assert [path.name for path in ckpt_dir.glob("*.ckpt.npz")] == ["TS.ckpt.npz"]
    _assert_resumes_to_golden(golden_run, out_dir, ckpt_dir)


def test_clear_leaves_no_log_behind(tmp_path):
    saver = RunCheckpointer(CellCheckpointSpec(directory=str(tmp_path), key="cell", every=5))
    saver.save({"t": np.array([5]), "log.rewards": np.ones(5)})
    saver.save({"t": np.array([10]), "log.rewards": np.ones(5)})
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cell.ckpt.log", "cell.ckpt.npz"]
    saver.clear()
    assert list(tmp_path.iterdir()) == []


def test_log_frames_come_back_in_save_order(tmp_path):
    spec = CellCheckpointSpec(directory=str(tmp_path), key="cell", every=5)
    saver = RunCheckpointer(spec)
    for round_index in (5, 10, 15):
        rounds = np.arange(round_index - 5, round_index)
        saver.save({"t": np.array([round_index]), "log.rounds": rounds})
    resume = RunCheckpointer(dataclasses.replace(spec, resume=True))
    assert int(resume.load()["t"][0]) == 15
    frames = resume.log_frames()
    assert [sorted(frame) for frame in frames] == [["rounds"]] * 3
    assert np.concatenate([frame["rounds"] for frame in frames]).tolist() == list(range(15))


def test_a_log_shorter_than_its_head_is_refused(tmp_path):
    spec = CellCheckpointSpec(directory=str(tmp_path), key="cell", every=5)
    RunCheckpointer(spec).save({"t": np.array([5]), "log.rounds": np.arange(5)})
    (tmp_path / "cell.ckpt.log").write_bytes(b"")
    with pytest.raises(ConfigurationError, match="truncated or lost"):
        RunCheckpointer(dataclasses.replace(spec, resume=True)).load()


def test_a_head_ahead_of_its_logged_rounds_is_refused(tmp_path):
    """Rewards are rebuilt from the logged ledger entries, one per
    round, so a head claiming more rounds than the log holds is refused."""
    world = build_world(tiny_config())
    spec = CellCheckpointSpec(directory=str(tmp_path), key="UCB", every=20)
    with pytest.raises(_Killed):
        with _kill_after_saves(2):
            run_policy(
                make_policy("UCB", dim=4), world, horizon=100, run_seed=0, checkpoint=spec
            )
    head = tmp_path / "UCB.ckpt.npz"
    with np.load(head) as archive:
        arrays = {name: archive[name] for name in archive.files}
    arrays["t"] = np.array([60], dtype=np.int64)
    atomic_save_npz(head, arrays)
    with pytest.raises(ConfigurationError, match="holds 40 rounds for 'UCB'"):
        run_policy(
            make_policy("UCB", dim=4),
            world,
            horizon=100,
            run_seed=0,
            checkpoint=dataclasses.replace(spec, resume=True),
        )


def test_a_fresh_run_starts_the_log_over(tmp_path):
    """Without ``resume`` the first save truncates an old run's log and
    drops its head, so the two runs' frames never mix."""
    spec = CellCheckpointSpec(directory=str(tmp_path), key="cell", every=5)
    old = RunCheckpointer(spec)
    for round_index in (5, 10):
        old.save({"t": np.array([round_index]), "log.rounds": np.arange(5)})
    RunCheckpointer(spec).save({"t": np.array([5]), "log.rounds": np.arange(5)})
    resume = RunCheckpointer(dataclasses.replace(spec, resume=True))
    assert int(resume.load()["t"][0]) == 5
    assert len(resume.log_frames()) == 1


# ----------------------------------------------------------------------
# Unit-result cache
# ----------------------------------------------------------------------
def test_unit_cache_round_trip(tmp_path):
    digest = unit_digest(run_policy_run_cell, "unit")
    assert load_unit_result(str(tmp_path), 0, digest) is None  # miss
    save_unit_result(str(tmp_path), 0, digest, {"value": None})
    hit = load_unit_result(str(tmp_path), 0, digest)
    assert hit == ({"value": None},)  # 1-tuple keeps None distinguishable


def test_unit_cache_rejects_digest_mismatch(tmp_path):
    save_unit_result(str(tmp_path), 0, unit_digest(len, "a"), 1)
    with pytest.raises(ConfigurationError, match="digest mismatch"):
        load_unit_result(str(tmp_path), 0, unit_digest(len, "b"))


def test_unit_digest_ignores_checkpoint_wiring(tmp_path):
    base = PolicyRunCell(
        config=tiny_config(),
        policy_name="UCB",
        horizon=50,
        run_seed=0,
        policy_seed=7,
    )
    wired = PolicyRunCell(
        config=tiny_config(),
        policy_name="UCB",
        horizon=50,
        run_seed=0,
        policy_seed=7,
        checkpoint=CellCheckpointSpec(
            directory=str(tmp_path), key="UCB", every=10, resume=True
        ),
    )
    other = PolicyRunCell(
        config=tiny_config(),
        policy_name="TS",
        horizon=50,
        run_seed=0,
        policy_seed=7,
    )
    fn = run_policy_run_cell
    assert unit_digest(fn, base) == unit_digest(fn, wired)
    assert unit_digest(fn, base) != unit_digest(fn, other)


def test_executor_checkpoint_allocates_distinct_call_scopes(tmp_path):
    checkpoint = ExecutorCheckpoint(tmp_path)
    first = checkpoint.call_scope()
    second = checkpoint.call_scope()
    assert first.directory != second.directory
    assert first.directory.is_dir() and second.directory.is_dir()


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------
def test_manifest_round_trip_and_validation(tmp_path):
    payload = {"command": "quickstart", "horizon": 2000, "every": 200}
    write_manifest(tmp_path, payload)
    stored = load_manifest(tmp_path)
    assert stored["horizon"] == 2000
    assert check_manifest(tmp_path, {"command": "quickstart"})["every"] == 200


def test_manifest_mismatches_are_reported_together(tmp_path):
    write_manifest(tmp_path, {"command": "quickstart", "horizon": 2000})
    with pytest.raises(ConfigurationError) as excinfo:
        check_manifest(tmp_path, {"command": "replicate", "horizon": 100})
    message = str(excinfo.value)
    assert "command" in message and "horizon" in message


def test_manifest_missing_and_corrupt(tmp_path):
    with pytest.raises(ConfigurationError, match="no checkpoint manifest"):
        load_manifest(tmp_path)
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(ConfigurationError, match="unreadable"):
        load_manifest(tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps({"version": 99}))
    with pytest.raises(ConfigurationError, match="manifest version"):
        load_manifest(tmp_path)


def test_serial_sweep_caches_cells_under_ambient_checkpoint(tmp_path):
    """An ambient executor checkpoint routes even a serial grid sweep
    through the unit cache: same results as the inline loop, and a
    resumed sweep replays every cell from disk."""
    from repro.experiments.grid import sweep

    base = tiny_config()
    axes = {"dim": [2, 3]}
    plain = sweep(base, axes, horizon=40)

    with executor_checkpoint_scope(ExecutorCheckpoint(tmp_path)):
        cached = sweep(base, axes, horizon=40)
    assert cached == plain
    assert list(tmp_path.glob("call-*/unit-*.pkl"))

    with executor_checkpoint_scope(ExecutorCheckpoint(tmp_path, resume=True)):
        replayed = sweep(base, axes, horizon=40)
    assert replayed == plain
