"""Decision flight recorder guarantees.

The tentpole promises, tested directly: recording changes no result
bit, vectors round-trip through the float64 sidecar bit for bit,
``--jobs N`` produces byte-identical logs, a SIGKILL'd run (or a torn
index line or sidecar) leaves a longest-valid-prefix log, replay
reproduces rewards bit-for-bit (and pinpoints tampering, down to one
flipped bit of one score), and ``fasea obs diff`` flags choice drift.
"""

import json
import os
import signal
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.datasets.synthetic import build_world
from repro.exceptions import ConfigurationError, SchemaError
from repro.obs.core import Instrumentation, use
from repro.obs.flight import (
    DECISIONS_FILENAME,
    FLIGHT_SCHEMA_VERSION,
    VECTORS_FILENAME,
    FlightBuffer,
    FlightRecorder,
    cell_record,
    decision_record,
    flight_digest,
    load_flight,
    make_run_header,
    pack_vectors,
    policy_digests,
    record_bytes,
    record_line,
    rng_fingerprint,
    unpack_vectors,
)
from repro.obs.replay import build_policy_from_spec, replay_flight, render_replay_report
from repro.obs.trace import write_trace_jsonl
from repro.parallel import PolicyRunCell, run_policy_run_cell, run_work_units
from repro.simulation.runner import run_policy

REPO_ROOT = Path(__file__).resolve().parents[1]

HORIZON = 40
RUN_SEED = 0
POLICY_SEED = 3


def _specs(*names):
    return [{"name": name, "seed": POLICY_SEED} for name in names]


def _record_log(directory, config, specs, horizon=HORIZON, run_seed=RUN_SEED):
    """Record one mode='policies' log the way quickstart --flight does."""
    world = build_world(config)
    recorder = FlightRecorder(
        directory, run=make_run_header(config, horizon, run_seed, specs)
    )
    histories = {}
    for spec in specs:
        policy = build_policy_from_spec(spec, world)
        histories[spec["name"]] = run_policy(
            policy, world, horizon=horizon, run_seed=run_seed, flight=recorder
        )
    recorder.close()
    return histories


# ----------------------------------------------------------------------
# Recorder basics
# ----------------------------------------------------------------------
def test_recorder_writes_header_then_one_record_per_round(tmp_path, small_config):
    _record_log(tmp_path, small_config, _specs("UCB"))
    log = load_flight(tmp_path)
    assert log.records[0]["kind"] == "header"
    assert log.records[0]["schema_version"] == FLIGHT_SCHEMA_VERSION
    header = log.header
    assert header["mode"] == "policies"
    assert header["horizon"] == HORIZON
    decisions = log.decisions
    assert [r["t"] for r in decisions] == list(range(1, HORIZON + 1))
    first = decisions[0]
    # UCB logs its candidate scores, bound widths and a sure propensity.
    assert len(first["scores"]) == small_config.num_events
    assert len(first["widths"]) == small_config.num_events
    assert first["propensity"] == 1.0
    assert set(first["oracle"]) == {
        "candidates", "visited", "conflict_rejections",
        "capacity_rejections", "arranged",
    }
    assert first["reward"] == pytest.approx(sum(first["rewards"]))


def test_egreedy_records_coin_propensity_and_rng(tmp_path, small_config):
    _record_log(tmp_path, small_config, _specs("eGreedy"))
    decisions = load_flight(tmp_path).decisions
    assert all(isinstance(r["explore"], bool) for r in decisions)
    assert {r["propensity"] for r in decisions} <= {0.1, 0.9}
    assert all(len(r["rng"]) == 16 for r in decisions)
    explores = {r["explore"] for r in decisions}
    assert explores == {True, False}  # the coin fired both ways in 40 rounds


def test_ts_records_theta_sample_but_no_propensity(tmp_path, small_config):
    _record_log(tmp_path, small_config, _specs("TS"))
    first = load_flight(tmp_path).decisions[0]
    assert len(first["theta_sample"]) == small_config.dim
    assert first["propensity"] is None  # continuous density is not logged
    assert "rng" in first


def test_recording_does_not_change_results(small_config):
    world = build_world(small_config)
    plain = run_policy(
        build_policy_from_spec({"name": "eGreedy", "seed": POLICY_SEED}, world),
        world, horizon=HORIZON, run_seed=RUN_SEED,
    )
    recorded = run_policy(
        build_policy_from_spec({"name": "eGreedy", "seed": POLICY_SEED}, world),
        world, horizon=HORIZON, run_seed=RUN_SEED, flight=FlightBuffer(),
    )
    assert np.array_equal(plain.rewards, recorded.rewards)
    assert np.array_equal(plain.arranged, recorded.arranged)


def test_rng_fingerprint_reads_without_advancing():
    rng = np.random.default_rng(5)
    before = rng_fingerprint(rng)
    assert rng_fingerprint(rng) == before  # fingerprinting is passive
    rng.random()
    assert rng_fingerprint(rng) != before


def test_rng_fingerprint_is_a_function_of_the_state_alone():
    """Equal states fingerprint equally (in this process and in a fresh
    one with another hash seed); one draw changes the fingerprint."""
    for bit_generator in (np.random.PCG64, np.random.MT19937):
        rng = np.random.Generator(bit_generator(5))
        rng.random(3)
        twin = np.random.Generator(bit_generator(99))
        twin.bit_generator.state = rng.bit_generator.state
        assert rng_fingerprint(twin) == rng_fingerprint(rng)
        assert len(rng_fingerprint(rng)) == 16
        twin.standard_normal()
        assert rng_fingerprint(twin) != rng_fingerprint(rng)
    rng = np.random.default_rng(5)
    rng.random(3)
    script = (
        "import numpy as np\n"
        "from repro.obs.flight import rng_fingerprint\n"
        "rng = np.random.default_rng(5)\n"
        "rng.random(3)\n"
        "print(rng_fingerprint(rng))\n"
    )
    for hash_seed in ("0", "12345"):
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={
                **os.environ,
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "PYTHONHASHSEED": hash_seed,
            },
        )
        assert result.stdout.strip() == rng_fingerprint(rng)


# ----------------------------------------------------------------------
# The float64 sidecar
# ----------------------------------------------------------------------
def _bits(*patterns):
    """float64 values with exact bit patterns (little-endian uint64s)."""
    return np.frombuffer(struct.pack(f"<{len(patterns)}Q", *patterns), dtype="<f8")


#: -0.0, the smallest and largest subnormals, a NaN with a payload,
#: -inf, and 1/3 — values (or bits) that a text round trip can lose.
EDGE_VALUES = np.concatenate([
    _bits(0x8000000000000000, 0x0000000000000001, 0x000FFFFFFFFFFFFF,
          0x7FF8000000000123, 0xFFF0000000000000),
    np.array([1.0 / 3.0]),
])


def _edge_record(t):
    return {
        "kind": "decision",
        "t": t,
        "policy": "TS",
        "chosen": [1],
        "scores": EDGE_VALUES * t,
        "theta_sample": EDGE_VALUES[::-1].copy(),
    }


def test_vectors_round_trip_bit_for_bit(tmp_path):
    records = [_edge_record(t) for t in (1, 2)]
    with FlightRecorder(tmp_path) as recorder:
        recorder.extend(records)
    loaded = load_flight(tmp_path).records
    assert len(loaded) == 2
    for original, back in zip(records, loaded):
        for name in ("scores", "theta_sample"):
            assert back[name].dtype == np.float64
            assert back[name].tobytes() == original[name].tobytes()
        assert record_bytes(back) == record_bytes(original)
    assert np.signbit(loaded[0]["scores"][0]) and loaded[0]["scores"][0] == 0.0
    # The JSON line holds no float vector, only its sidecar coordinates.
    line = json.loads((tmp_path / DECISIONS_FILENAME).read_text().splitlines()[0])
    assert "scores" not in line
    assert line["vectors"] == {
        "scores": [0, EDGE_VALUES.size],
        "theta_sample": [8 * EDGE_VALUES.size, EDGE_VALUES.size],
    }
    assert (tmp_path / VECTORS_FILENAME).stat().st_size == 4 * 8 * EDGE_VALUES.size


def test_checkpoint_frame_packing_round_trips_bit_for_bit():
    records = [_edge_record(1), cell_record(3), _edge_record(2)]
    thin, values, lengths = pack_vectors(records)
    assert all("scores" not in record for record in thin)
    assert values.dtype == np.float64 and lengths.shape == (3, 3)
    rebuilt = unpack_vectors(json.loads(json.dumps(thin)), values, lengths)
    assert [record_bytes(r) for r in rebuilt] == [record_bytes(r) for r in records]


def _write_edge_log(directory, rounds=3):
    with FlightRecorder(directory, run={"mode": "policies"}) as recorder:
        recorder.extend(_edge_record(t) for t in range(1, rounds + 1))


def test_torn_sidecar_recovers_longest_valid_prefix(tmp_path):
    _write_edge_log(tmp_path)
    sidecar = tmp_path / VECTORS_FILENAME
    sidecar.write_bytes(sidecar.read_bytes()[:-3])  # the last vector is torn
    with pytest.raises(ConfigurationError, match="holds only"):
        load_flight(tmp_path)
    recovered = load_flight(tmp_path, strict=False)
    assert [r["t"] for r in recovered.decisions] == [1, 2]
    assert recovered.decisions[1]["scores"].tobytes() == (EDGE_VALUES * 2).tobytes()


def test_torn_index_line_recovers_longest_valid_prefix(tmp_path):
    _write_edge_log(tmp_path)
    index = tmp_path / DECISIONS_FILENAME
    index.write_text(index.read_text()[:-20])  # the last line is torn
    with pytest.raises(ConfigurationError):
        load_flight(tmp_path)
    recovered = load_flight(tmp_path, strict=False)
    assert [r["t"] for r in recovered.decisions] == [1, 2]


def test_version_1_log_is_refused(tmp_path, small_config):
    v1_header = {"kind": "header", "schema_version": 1, "run": {"mode": "policies"}}
    v1_decision = {"kind": "decision", "t": 1, "policy": "UCB", "scores": [0.5]}
    write_trace_jsonl([v1_header, v1_decision], tmp_path / DECISIONS_FILENAME)
    for strict in (True, False):
        with pytest.raises(SchemaError, match="schema version 1.*re-record"):
            load_flight(tmp_path, strict=strict)


def test_recorder_refuses_use_after_close(tmp_path):
    recorder = FlightRecorder(tmp_path)
    recorder.record(cell_record(0))
    recorder.close()
    recorder.close()  # idempotent
    with pytest.raises(ConfigurationError):
        recorder.record(cell_record(1))
    with pytest.raises(ConfigurationError):
        FlightRecorder(tmp_path, fsync_every_records=0)


def test_recorder_truncates_stale_logs(tmp_path):
    (tmp_path / DECISIONS_FILENAME).write_text('{"kind": "stale"}\n')
    (tmp_path / VECTORS_FILENAME).write_bytes(b"stale vectors")
    with FlightRecorder(tmp_path) as recorder:
        recorder.record(cell_record(7))
    records = load_flight(tmp_path).records
    assert records == [{"kind": "cell", "seed": 7}]
    assert (tmp_path / VECTORS_FILENAME).read_bytes() == b""


# ----------------------------------------------------------------------
# Parallel byte-identity
# ----------------------------------------------------------------------
def _record_via_cells(directory, config, jobs):
    specs = _specs("UCB", "eGreedy")
    obs = Instrumentation()
    recorder = FlightRecorder(
        directory, run=make_run_header(config, HORIZON, RUN_SEED, specs)
    )
    obs.flight_recorder = recorder
    cells = [
        PolicyRunCell(
            config=config,
            policy_name=spec["name"],
            horizon=HORIZON,
            run_seed=RUN_SEED,
            policy_seed=POLICY_SEED,
        )
        for spec in specs
    ]
    try:
        with use(obs):
            run_work_units(run_policy_run_cell, cells, jobs=jobs)
    finally:
        recorder.close()


def test_parallel_log_is_byte_identical_to_serial(tmp_path, small_config):
    _record_via_cells(tmp_path / "serial", small_config, jobs=1)
    _record_via_cells(tmp_path / "pool", small_config, jobs=2)
    for filename in (DECISIONS_FILENAME, VECTORS_FILENAME):
        serial = (tmp_path / "serial" / filename).read_bytes()
        pooled = (tmp_path / "pool" / filename).read_bytes()
        assert serial and serial == pooled, filename


# ----------------------------------------------------------------------
# Crash safety
# ----------------------------------------------------------------------
def test_sigkill_leaves_longest_valid_prefix(tmp_path):
    """A real SIGKILL mid-record: strict load refuses, recovery parses."""
    script = """
import os, signal, sys
from repro.obs.flight import FlightRecorder, cell_record

recorder = FlightRecorder(sys.argv[1])
for seed in range(9):
    recorder.record(cell_record(seed))
# Leave a half-written line in flight, then die without cleanup.
recorder._handle.write('{"kind": "decision", "t": 10, "chosen": [1')
recorder._handle.flush()
os.kill(os.getpid(), signal.SIGKILL)
"""
    run_dir = tmp_path / "victim"
    result = subprocess.run(
        [sys.executable, "-c", script, str(run_dir)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert result.returncode == -signal.SIGKILL
    with pytest.raises(ConfigurationError):
        load_flight(run_dir)  # strict readers refuse the torn tail
    recovered = load_flight(run_dir, strict=False)
    assert [r["seed"] for r in recovered.records] == list(range(9))


# ----------------------------------------------------------------------
# Log model: header validation, grouping
# ----------------------------------------------------------------------
def test_header_schema_version_mismatch_raises(tmp_path, small_config):
    _record_log(tmp_path, small_config, _specs("UCB"), horizon=2)
    log = load_flight(tmp_path)
    log.records[0]["schema_version"] = FLIGHT_SCHEMA_VERSION + 1
    with pytest.raises(SchemaError, match="schema version"):
        log.header
    headless = tmp_path / "headless.jsonl"
    write_trace_jsonl([cell_record(0)], headless)
    with pytest.raises(SchemaError, match="no header"):
        load_flight(headless).header


def test_cells_group_by_marker_and_reject_orphans():
    buffer = FlightBuffer()
    buffer.record(cell_record(0))
    buffer.record({"kind": "decision", "t": 1, "policy": "UCB"})
    buffer.record(cell_record(1))
    buffer.record({"kind": "decision", "t": 1, "policy": "UCB"})
    from repro.obs.flight import FlightLog

    log = FlightLog(path=None, records=buffer.records)
    assert [seed for seed, _ in log.cells()] == [0, 1]
    assert all(len(group) == 1 for _, group in log.cells())
    orphan = FlightLog(
        path=None, records=[{"kind": "decision", "t": 1, "policy": "UCB"}]
    )
    with pytest.raises(SchemaError, match="before first cell"):
        orphan.cells()


def test_digest_is_order_and_content_sensitive():
    a = {"kind": "decision", "t": 1, "policy": "UCB", "chosen": [1]}
    b = {"kind": "decision", "t": 2, "policy": "UCB", "chosen": [2]}
    assert flight_digest([a, b]) != flight_digest([b, a])
    assert policy_digests([a, b])["UCB"][0] == 2


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def test_replay_reproduces_rewards_bit_for_bit(tmp_path, small_config):
    _record_log(tmp_path, small_config, _specs("UCB", "TS", "eGreedy"))
    report = replay_flight(load_flight(tmp_path))
    assert report.ok
    assert {g.label for g in report.groups} == {"UCB", "TS", "eGreedy"}
    assert all(g.logged_reward == g.replayed_reward for g in report.groups)
    assert "replay OK" in render_replay_report(report)[-1]


def test_replay_until_truncates_both_sides(tmp_path, small_config):
    _record_log(tmp_path, small_config, _specs("eGreedy"))
    report = replay_flight(load_flight(tmp_path), until=10)
    assert report.ok and report.groups[0].rounds == 10
    with pytest.raises(ConfigurationError, match="--until"):
        replay_flight(load_flight(tmp_path), until=0)


def test_replay_pinpoints_a_tampered_round(tmp_path, small_config):
    _record_log(tmp_path, small_config, _specs("UCB"))
    path = tmp_path / DECISIONS_FILENAME
    lines = path.read_text().splitlines()
    tampered = json.loads(lines[20])
    assert tampered["t"] == 20
    tampered["chosen"] = list(reversed(tampered["chosen"])) or [0]
    tampered["reward"] += 1.0
    lines[20] = record_line(tampered)
    path.write_text("\n".join(lines) + "\n")
    report = replay_flight(load_flight(tmp_path))
    assert not report.ok
    assert report.groups[0].first_divergence == 20
    rendered = render_replay_report(report, diff=True)
    assert any("DIVERGED" in line for line in rendered)
    assert any(line.startswith("  *") for line in rendered)  # field diff


def test_replay_detects_truncated_logs(tmp_path, small_config):
    _record_log(tmp_path, small_config, _specs("UCB"))
    path = tmp_path / DECISIONS_FILENAME
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-5]) + "\n")
    report = replay_flight(load_flight(tmp_path))
    assert not report.ok
    assert report.groups[0].first_divergence == HORIZON - 4


def test_replay_rejects_unknown_modes():
    from repro.obs.flight import FlightLog, header_record

    log = FlightLog(path=None, records=[header_record({"mode": "mystery"})])
    with pytest.raises(SchemaError, match="mode"):
        replay_flight(log)


# ----------------------------------------------------------------------
# CLI: replay exit codes, summary section, diff drift detection
# ----------------------------------------------------------------------
def test_cli_replay_exit_codes(tmp_path, small_config, capsys):
    _record_log(tmp_path, small_config, _specs("UCB"))
    assert cli_main(["obs", "replay", str(tmp_path)]) == 0
    assert "replay OK" in capsys.readouterr().out
    path = tmp_path / DECISIONS_FILENAME
    lines = path.read_text().splitlines()
    record = json.loads(lines[5])
    record["reward"] += 1.0
    lines[5] = record_line(record)
    path.write_text("\n".join(lines) + "\n")
    assert cli_main(["obs", "replay", str(tmp_path), "--diff"]) == 1
    assert "first divergence" in capsys.readouterr().out


def test_cli_replay_fails_on_one_flipped_sidecar_bit(tmp_path, small_config, capsys):
    _record_log(tmp_path, small_config, _specs("UCB"))
    line = json.loads((tmp_path / DECISIONS_FILENAME).read_text().splitlines()[7])
    assert line["t"] == 7
    offset, _ = line["vectors"]["scores"]
    sidecar = tmp_path / VECTORS_FILENAME
    data = bytearray(sidecar.read_bytes())
    data[offset] ^= 0x01  # the lowest mantissa bit of round 7's first score
    sidecar.write_bytes(bytes(data))
    assert cli_main(["obs", "replay", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "first divergence at round t=7" in out


def test_cli_summary_renders_flight_section(tmp_path, small_config, capsys):
    from repro.io.runstore import persist_run_telemetry

    _record_log(tmp_path, small_config, _specs("UCB", "eGreedy"))
    persist_run_telemetry(tmp_path, Instrumentation())
    assert cli_main(["obs", "summary", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "decision flight log" in out
    assert "eGreedy" in out and "propensity" in out


def test_cli_diff_flags_choice_drift(tmp_path, small_config, capsys):
    from repro.io.runstore import persist_run_telemetry

    base, cand = tmp_path / "base", tmp_path / "cand"
    _record_log(base, small_config, _specs("UCB"))
    _record_log(cand, small_config, _specs("UCB"))
    for directory in (base, cand):
        persist_run_telemetry(directory, Instrumentation())
    assert cli_main(["obs", "diff", str(base), str(cand)]) == 0
    capsys.readouterr()
    # Flip one choice in the candidate: same metrics, drifted decisions.
    path = cand / DECISIONS_FILENAME
    lines = path.read_text().splitlines()
    record = json.loads(lines[3])
    record["chosen"] = list(reversed(record["chosen"])) or [0]
    lines[3] = record_line(record)
    path.write_text("\n".join(lines) + "\n")
    assert cli_main(["obs", "diff", str(base), str(cand)]) == 1
    assert "choices drifted" in capsys.readouterr().out


def test_cli_diff_flags_one_sided_logs(tmp_path, small_config, capsys):
    from repro.io.runstore import persist_run_telemetry

    base, cand = tmp_path / "base", tmp_path / "cand"
    _record_log(base, small_config, _specs("UCB"), horizon=3)
    for directory in (base, cand):
        directory.mkdir(exist_ok=True)
        persist_run_telemetry(directory, Instrumentation())
    assert cli_main(["obs", "diff", str(base), str(cand)]) == 1
    assert "only in baseline" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The trace, real-data and dynamic-event runs go through the round engine
# ----------------------------------------------------------------------
FOLDED_HORIZON = 40


def _folded_run(kind, world, damai):
    from repro.bandits import UcbPolicy
    from repro.extensions import DynamicEventSchedule, run_dynamic_policy
    from repro.simulation.realdata import run_real_policy
    from repro.simulation.trace import record_trace, replay_trace

    if kind == "trace":
        trace = record_trace(world, horizon=FOLDED_HORIZON, run_seed=1)
        return replay_trace(UcbPolicy(dim=world.config.dim), trace)
    if kind == "real":
        return run_real_policy(
            UcbPolicy(dim=damai.dim), damai, damai.users[0], 5, FOLDED_HORIZON
        )
    schedule = DynamicEventSchedule.round_robin(
        num_events=world.config.num_events, num_phases=2, phase_length=5
    )
    return run_dynamic_policy(
        UcbPolicy(dim=world.config.dim), world, schedule, horizon=FOLDED_HORIZON
    )


@pytest.mark.parametrize("kind", ["trace", "real", "dynamic"])
def test_folded_runs_record_one_decision_per_round(kind, small_world, damai):
    obs = Instrumentation()
    obs.flight_recorder = FlightBuffer()
    with use(obs):
        history = _folded_run(kind, small_world, damai)
    decisions = [r for r in obs.flight_recorder.records if r["kind"] == "decision"]
    assert [r["t"] for r in decisions] == list(range(1, FOLDED_HORIZON + 1))
    assert {r["policy"] for r in decisions} == {history.policy_name}
    assert [r["reward"] for r in decisions] == history.rewards.tolist()
    assert all("scores" in r for r in decisions)
