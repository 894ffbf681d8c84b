"""The round engine: a dict of policies stepped over one shared source.

Every FASEA run — synthetic, a recorded trace, a real-data user, a
roster — goes through :func:`_run_rounds`, the standard loop of
Algorithms 1/3/4 (reveal, select, commit, observe).  Each round's user,
context matrix and acceptance mask are drawn **once** from a
:class:`~repro.simulation.environment.RoundSource` and every policy
steps against them in lockstep, each with its own platform (capacities
evolve per policy, as they must).  The synthetic source,
:class:`~repro.simulation.environment.RoundStream`, makes the draws
:class:`~repro.simulation.environment.FaseaEnvironment` makes, so a
fleet run is bit-for-bit identical to running each policy alone.

The engine owns everything that rides along the loop: select/observe
timing (``History.avg_round_time``), Kendall tracking, the sampled-
round profiler spans, per-round telemetry, flight recording, alert
evaluation, streaming flushes and one round-granular checkpoint.  None
of them touches an RNG stream, so results are bit-identical with any of
them on or off.

The synthetic entry points are :func:`run_policy_fleet` here and
:func:`~repro.simulation.runner.run_policy`, a fleet of one.  Each
caller names its own outer span.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.bandits import OptPolicy, make_policy
from repro.bandits.base import Policy, RoundView
from repro.datasets.synthetic import SyntheticWorld
from repro.ebsn.events import EventStore
from repro.ebsn.ledger import LedgerEntry
from repro.ebsn.platform import Platform
from repro.exceptions import ConfigurationError
from repro.metrics.kendall import kendall_tau
from repro.obs.core import NULL_OBS, InstrumentationLike, MetricsSnapshot, current
from repro.obs.flight import decision_record, pack_vectors, unpack_vectors
from repro.obs.health import (
    CAPACITY_EXHAUSTED_METRIC,
    FILL_RATE_SERIES_METRIC,
    REWARD_METRIC,
    THETA_DRIFT_METRIC,
)
from repro.simulation.environment import (
    ENV_ACCEPTED_EVENTS_METRIC,
    ENV_ARRANGED_EVENTS_METRIC,
    ENV_COMMITS_METRIC,
    ENV_ROUNDS_METRIC,
    RoundSource,
    RoundStream,
)
from repro.simulation.history import History, default_checkpoints

if TYPE_CHECKING:  # import cycle: repro.io.__init__ reaches back here
    from repro.io.checkpoint import CellCheckpointSpec

#: Per-policy emit-site metric names (FAS016: names are constants so
#: alert selectors cannot silently miss a typo'd emit site).
SELECT_SECONDS_METRIC = "select_seconds"
OBSERVE_SECONDS_METRIC = "observe_seconds"
ROUNDS_METRIC = "rounds"

#: Reserved fleet key for the full-knowledge reference policy.
OPT_KEY = "OPT"

#: Checkpoint log-frame entries holding the flight records' vectors
#: (see :func:`repro.obs.flight.pack_vectors`).
FLIGHT_VECTORS_ENTRY = "flight_f64"
FLIGHT_LENGTHS_ENTRY = "flight_lengths"

#: The Kendall diagnostic's rounds, evaluation contexts and true scores.
KendallInputs = Tuple[FrozenSet[int], np.ndarray, np.ndarray]


def policy_suite(
    world: SyntheticWorld, policy_names: Sequence[str], policy_seed: int
) -> Dict[str, Policy]:
    """OPT plus one fresh ``make_policy`` instance per name, keyed for a fleet."""
    suite: Dict[str, Policy] = {OPT_KEY: OptPolicy(world.theta)}
    for name in policy_names:
        suite[name] = make_policy(name, dim=world.config.dim, seed=policy_seed)
    return suite


def kendall_inputs(
    world: SyntheticWorld,
    horizon: int,
    track_kendall: bool,
    kendall_checkpoints: Optional[Sequence[int]],
    eval_contexts: Optional[np.ndarray],
) -> Optional[KendallInputs]:
    """The Kendall inputs from ``world`` (paper grid, evaluation set); ``None`` when off."""
    if not track_kendall:
        return None
    if kendall_checkpoints is None:
        kendall_checkpoints = default_checkpoints(horizon)
    if eval_contexts is None:
        eval_contexts = world.evaluation_contexts()
    return frozenset(kendall_checkpoints), eval_contexts, world.expected_rewards(eval_contexts)


def _record_policy_round(
    obs: InstrumentationLike,
    policy: Policy,
    theta_true: Optional[np.ndarray],
    store: EventStore,
    entry: LedgerEntry,
    time_step: int,
    select_seconds: float,
    observe_seconds: float,
) -> None:
    """Fold one policy's instrumented round into ``obs``.

    Records per-policy select/observe timings, the per-round reward
    series, the estimate drift ``||theta^ - theta||`` (policies without
    a model, and sources without a single true ``theta``, skip it),
    and — the paper's Section 6.2 diagnostic — a capacity-exhaustion
    event whenever an accepted registration drains an event's last
    seat.  Never touches any RNG stream.
    """
    obs.timer(policy.obs_name(SELECT_SECONDS_METRIC)).observe(select_seconds)
    obs.timer(policy.obs_name(OBSERVE_SECONDS_METRIC)).observe(observe_seconds)
    reward = float(entry.reward)
    obs.series(policy.obs_name(REWARD_METRIC)).append(time_step, reward)
    drift: Optional[float] = None
    estimate = policy.theta_estimate()
    if estimate is not None and theta_true is not None:
        drift = float(np.linalg.norm(estimate - theta_true))
        obs.series(policy.obs_name(THETA_DRIFT_METRIC)).append(time_step, drift)
    label = policy._obs_label or policy.name
    monitor = getattr(obs, "health_monitor", None)
    num_events = len(store)
    for event_id in entry.accepted:
        if store.remaining(event_id) <= 0.0:
            obs.series(policy.obs_name(CAPACITY_EXHAUSTED_METRIC)).append(
                time_step, float(event_id)
            )
            obs.event(
                CAPACITY_EXHAUSTED_METRIC,
                policy=label,
                event_id=int(event_id),
                time_step=time_step,
            )
            if monitor is not None:
                monitor.observe_exhaustion(
                    obs, label, time_step, int(event_id), num_events
                )
    if monitor is not None:
        fill_rate: Optional[float] = None
        fill_series = getattr(obs, "get_metric", None)
        if fill_series is not None:
            metric = obs.get_metric(policy.obs_name(FILL_RATE_SERIES_METRIC))
            points = getattr(metric, "points", None)
            if points and points[-1][0] == time_step:
                fill_rate = float(points[-1][1])
        monitor.observe_round(obs, label, time_step, reward, drift, fill_rate)


def _open_checkpointer(
    spec: "CellCheckpointSpec",
    obs: InstrumentationLike,
    recording: bool,
    flight: Optional[object],
) -> Any:
    """Build a run's :class:`~repro.io.checkpoint.RunCheckpointer`.

    Rejects the two attachments whose internal state a round checkpoint
    cannot capture:

    * an alert engine / health monitor (windowed detector state would
      silently reset on resume, changing firings);
    * a disk-backed flight recorder (the resumed process would append
      to a log that already holds the pre-crash records; checkpointing
      requires an in-memory buffer whose contents travel inside the
      checkpoint and are replayed exactly — which is what the executor's
      isolated-cell mode provides).
    """
    from repro.io.checkpoint import RunCheckpointer

    if getattr(obs, "alert_engine", None) is not None:
        raise ConfigurationError(
            "round checkpointing cannot capture alert-engine window state; "
            "run without --alerts/--health or without --checkpoint"
        )
    if getattr(obs, "health_monitor", None) is not None:
        raise ConfigurationError(
            "round checkpointing cannot capture health-monitor detector "
            "state; run without --health or without --checkpoint"
        )
    if recording and not hasattr(flight, "records"):
        raise ConfigurationError(
            "round checkpointing requires an in-memory flight buffer "
            f"(got {type(flight).__name__}); route the run through "
            "run_work_units, which records each cell into a FlightBuffer"
        )
    return RunCheckpointer(spec)


def _run_rounds(
    policies: Dict[str, Policy],
    source: RoundSource,
    horizon: int,
    span_name: str,
    span_attrs: Dict[str, Any],
    step_spans: bool,
    kendall: Optional[KendallInputs] = None,
    obs: Optional[InstrumentationLike] = None,
    flight: Optional[object] = None,
    checkpoint: Optional["CellCheckpointSpec"] = None,
) -> Dict[str, History]:
    """Step every policy over one shared source; histories keyed like ``policies``.

    The dict keys label each policy's telemetry (``policy.<key>.*``),
    its decision records and its history.  ``span_name``/``span_attrs``
    name the run's outer span.  On profiled rounds each policy's
    ``select``/``commit``/``observe`` phases get spans under the
    ``round`` span — inside a ``step:<key>`` span when ``step_spans``.
    Profiler, streaming sink and (by default) flight recorder are the
    ones attached to ``obs``.  ``checkpoint`` needs a :class:`RoundStream`.
    """
    obs = obs if obs is not None else current()
    instrumented = obs.enabled
    profile = getattr(obs, "profile_config", None)
    stream = getattr(obs, "stream_sink", None)
    if flight is None:
        flight = getattr(obs, "flight_recorder", None)
    recording = flight is not None
    profiling = instrumented and profile is not None
    engine = getattr(obs, "alert_engine", None) if instrumented else None
    if instrumented or recording:
        # Recording needs the label too: the "policy" field of each
        # decision record is the key, not the algorithm name.
        for key, policy in policies.items():
            policy.bind_obs(obs, label=key)
            if recording:
                policy.enable_decision_capture(True)

    platforms = {key: Platform(source.make_store(), source.conflicts) for key in policies}
    rewards = {key: np.zeros(horizon) for key in policies}
    arranged_counts = {key: np.zeros(horizon) for key in policies}
    elapsed = {key: 0.0 for key in policies}

    track_kendall = kendall is not None
    checkpoint_set: FrozenSet[int] = frozenset()
    steps: List[int] = []
    taus: Dict[str, List[float]] = {key: [] for key in policies}
    if kendall is not None:
        checkpoint_set, eval_contexts, true_scores = kendall

    start_round = 0
    checkpointer = None
    if checkpoint is not None:
        from repro.io.checkpoint import (
            CHECKPOINT_RESUMED_EVENT,
            CHECKPOINT_SAVED_EVENT,
            CHECKPOINT_SAVES_METRIC,
            LOG_PREFIX,
            capture_policy_state,
            pack_json,
            pack_state,
            restore_policy_state,
            unpack_json,
            unpack_state,
        )

        if not isinstance(source, RoundStream):
            raise ConfigurationError(
                "round checkpointing needs a synthetic RoundStream source "
                f"(got {type(source).__name__})"
            )
        checkpointer = _open_checkpointer(checkpoint, obs, recording, flight)
        # What the log already holds: the next frame carries only the
        # ledger entries (one per round; rewards and arranged counts
        # are rebuilt from them on resume), trace records, series
        # points and flight records past these marks.
        logged_rounds = 0
        trace_mark = 0
        series_marks: Dict[str, int] = {}
        flight_mark = 0
        stored = checkpointer.load()
        if stored is not None:
            start_round = int(stored["t"][0])
            if start_round > horizon:
                raise ConfigurationError(
                    f"checkpoint is at round {start_round} but the run's "
                    f"horizon is only {horizon}"
                )
            source.restore_state(unpack_state("stream.", stored))
            steps = [int(step) for step in stored["k_steps"]]
            frames = checkpointer.log_frames()
            logs = [unpack_json(frame["json"]) for frame in frames]
            for key, policy in policies.items():
                restore_policy_state(policy, unpack_state(f"p.{key}.", stored))
                platforms[key].restore_state(unpack_state(f"plat.{key}.", stored))
                ledger = platforms[key].ledger
                for log in logs:
                    ledger.extend_rows(log["ledger"][key])
                if len(ledger) != start_round:
                    raise ConfigurationError(
                        f"checkpoint log holds {len(ledger)} rounds for {key!r}; "
                        f"its head is at round {start_round}"
                    )
                for index, entry in enumerate(ledger):
                    rewards[key][index] = entry.reward
                    arranged_counts[key][index] = entry.num_arranged
                elapsed[key] = float(stored[f"elapsed.{key}"][0])
                taus[key] = [float(tau) for tau in stored[f"k_taus.{key}"]]
            logged_rounds = start_round
            if instrumented:
                # Merging into the fresh registry reproduces the saved
                # snapshot exactly (counters add from zero, series
                # concatenate onto nothing) — the resume marker is a
                # trace event only, so metrics.json stays byte-
                # comparable to an uninterrupted run's.
                snapshot = unpack_json(stored["obs"])
                for log in logs:
                    for name, points in log["series"].items():
                        snapshot["series"].setdefault(name, []).extend(points)
                obs.merge_snapshot(MetricsSnapshot.from_dict(snapshot))
                obs.merge_trace([record for log in logs for record in log["trace"]])
                trace_mark = obs.trace_length()
                obs.series_since(series_marks)  # marks only: all of it is logged
                obs.event(CHECKPOINT_RESUMED_EVENT, round=start_round)
            if recording:
                flight.records[:] = [
                    record
                    for frame, log in zip(frames, logs)
                    for record in unpack_vectors(
                        log["flight"],
                        frame[FLIGHT_VECTORS_ENTRY],
                        frame[FLIGHT_LENGTHS_ENTRY],
                    )
                ]
                flight_mark = len(flight.records)

    def _save_checkpoint(round_index: int) -> None:
        """Log what the rounds since the last save added, then write the head.

        The head holds the O(state) part: the shared stream, every
        policy's learned/RNG/platform state, Kendall taus and the
        counters/gauges/histograms.  The saves counter is incremented
        *before* the snapshot is captured, so the count rides inside
        its own checkpoint and a resumed run reports exactly what an
        uninterrupted one does.
        """
        nonlocal logged_rounds, trace_mark, flight_mark
        if instrumented:
            obs.counter(CHECKPOINT_SAVES_METRIC).inc()
        arrays = {
            "t": np.array([round_index], dtype=np.int64),
            "k_steps": np.asarray(steps, dtype=np.int64),
        }
        arrays.update(pack_state("stream.", source.state_dict()))
        log: Dict[str, Any] = {"ledger": {}, "series": {}, "trace": [], "flight": []}
        for key, policy in policies.items():
            platform = platforms[key]
            arrays.update(pack_state(f"p.{key}.", capture_policy_state(policy)))
            arrays.update(pack_state(f"plat.{key}.", platform.state_dict()))
            arrays[f"elapsed.{key}"] = np.array([elapsed[key]], dtype=np.float64)
            arrays[f"k_taus.{key}"] = np.asarray(taus[key], dtype=np.float64)
            log["ledger"][key] = platform.ledger.rows(logged_rounds)
        logged_rounds = round_index
        if instrumented:
            arrays["obs"] = pack_json(obs.snapshot(include_series=False).to_dict())
            log["series"] = obs.series_since(series_marks)
            log["trace"] = obs.trace_records_since(trace_mark)
            trace_mark += len(log["trace"])
        if recording:
            # Only the thin fields are JSON-packed; the frame carries
            # the records' float vectors as one float64 array.
            thin, vectors, lengths = pack_vectors(flight.records[flight_mark:])
            log["flight"] = thin
            arrays[f"{LOG_PREFIX}{FLIGHT_VECTORS_ENTRY}"] = vectors
            arrays[f"{LOG_PREFIX}{FLIGHT_LENGTHS_ENTRY}"] = lengths
            flight_mark = len(flight.records)
        arrays[f"{LOG_PREFIX}json"] = pack_json(log)
        checkpointer.save(arrays)
        if instrumented:
            obs.event(CHECKPOINT_SAVED_EVENT, round=round_index)

    if instrumented:
        env_rounds = obs.counter(ENV_ROUNDS_METRIC)
        env_commits = obs.counter(ENV_COMMITS_METRIC)
        env_arranged = obs.counter(ENV_ARRANGED_EVENTS_METRIC)
        env_accepted = obs.counter(ENV_ACCEPTED_EVENTS_METRIC)

    def _step(
        key: str, policy: Policy, t: int, user, contexts, accepted, profiler
    ) -> None:
        """One policy's select-commit-observe against round ``t``.

        ``profiler`` opens the phase spans: ``obs`` on profiled rounds,
        :data:`~repro.obs.core.NULL_OBS` otherwise.
        """
        platform = platforms[key]
        view = RoundView(
            time_step=t,
            user=user,
            contexts=contexts,
            remaining_capacities=platform.store.remaining_capacities,
            conflicts=platform.conflicts,
        )
        with profiler.span("select"):
            select_start = time.perf_counter()
            arrangement = policy.select(view)
            select_end = time.perf_counter()
        with profiler.span("commit"):
            # Arrangements hold <= c_u events: scalar lookups beat
            # fancy-indexing round trips at that size.
            accepted_flags = [bool(accepted[event_id]) for event_id in arrangement]
            decisions = dict(zip(arrangement, accepted_flags))
            entry = platform.commit(user, arrangement, feedback=decisions.__getitem__)
        with profiler.span("observe"):
            reward_values = [1.0 if flag else 0.0 for flag in accepted_flags]
            observe_start = time.perf_counter()
            policy.observe(view, arrangement, reward_values)
            observe_end = time.perf_counter()
        elapsed[key] += (select_end - select_start) + (observe_end - observe_start)
        rewards[key][t - 1] = entry.reward
        arranged_counts[key][t - 1] = len(arrangement)
        if recording:
            flight.record(decision_record(policy, view, arrangement, reward_values))
        if instrumented:
            env_commits.inc()
            env_arranged.inc(len(arrangement))
            env_accepted.inc(len(entry.accepted))
            _record_policy_round(
                obs,
                policy,
                source.theta,
                platform.store,
                entry,
                t,
                select_end - select_start,
                observe_end - observe_start,
            )

    with obs.span(span_name, **span_attrs):
        for t in range(start_round + 1, horizon + 1):
            # The sampling grid is round-indexed (t % sample_every == 0),
            # so two runs of one seed sample identical stacks.
            profiler = obs if profiling and profile.samples(t) else NULL_OBS
            with profiler.span("round", t=t):
                if instrumented:
                    env_rounds.inc()
                user, contexts, accepted = source.draw()
                step_profiler = profiler if step_spans else NULL_OBS
                for key, policy in policies.items():
                    with step_profiler.span(f"step:{key}"):
                        _step(key, policy, t, user, contexts, accepted, profiler)
            if engine is not None:
                # After every policy's step: one alert evaluation per
                # round keeps firings flush-cadence-independent.
                engine.evaluate_round(obs, t)
            if instrumented and stream is not None:
                stream.maybe_flush(1)
            if t in checkpoint_set:
                steps.append(t)
                for key, policy in policies.items():
                    estimated = policy.ranking_scores(eval_contexts, t)
                    taus[key].append(kendall_tau(estimated, true_scores))
            # Save strictly after the Kendall diagnostic: for policies
            # whose ranking scores draw from the policy RNG (TS), the
            # captured bit-generator position must be the post-round
            # one the next round actually starts from.
            if checkpointer is not None and t < horizon and checkpointer.due(t):
                _save_checkpoint(t)

    if checkpointer is not None:
        # The run completed; the executor's unit cache takes over, so
        # the round slot would only invite a stale mid-run resume.
        checkpointer.clear()

    histories: Dict[str, History] = {}
    for key, policy in policies.items():
        if recording:
            policy.enable_decision_capture(False)
        if instrumented:
            obs.counter(policy.obs_name(ROUNDS_METRIC)).inc(horizon)
        histories[key] = History(
            policy_name=key,
            rewards=rewards[key],
            arranged=arranged_counts[key],
            avg_round_time=elapsed[key] / horizon if horizon else 0.0,
            kendall_steps=np.asarray(steps, dtype=int) if track_kendall else None,
            kendall_taus=np.asarray(taus[key], dtype=float) if track_kendall else None,
        )
    return histories


def run_policy_fleet(
    policies: Dict[str, Policy],
    world: SyntheticWorld,
    horizon: Optional[int] = None,
    run_seed: int = 0,
    track_kendall: bool = False,
    kendall_checkpoints: Optional[Sequence[int]] = None,
    eval_contexts: Optional[np.ndarray] = None,
    obs: Optional[InstrumentationLike] = None,
    flight: Optional[object] = None,
    checkpoint: Optional["CellCheckpointSpec"] = None,
) -> Dict[str, History]:
    """Play every policy on one shared stream; return histories by name.

    The dict keys become the ``policy_name`` of each returned history
    (useful when running several differently-parametrised instances of
    the same algorithm).  They also label the telemetry (``obs``
    defaults to :func:`repro.obs.core.current`): metrics appear as
    ``policy.<key>.*`` so two TS instances with different widths stay
    distinguishable.

    The remaining parameters are those of
    :func:`~repro.simulation.runner.run_policy`.  On sampled rounds of
    the profiler every policy's phases run inside a ``step:<key>`` span,
    so folded stacks attribute self time per policy.  ``checkpoint``
    captures the shared stream once plus every policy's learned/RNG/
    platform state under per-key prefixes; a resumed fleet is
    bit-identical to an uninterrupted one.
    """
    if not policies:
        raise ConfigurationError("need at least one policy")
    horizon = horizon if horizon is not None else world.config.horizon
    return _run_rounds(
        policies,
        RoundStream(world, run_seed=run_seed),
        horizon,
        span_name="run_policy_fleet",
        span_attrs={"policies": list(policies), "horizon": horizon, "run_seed": run_seed},
        step_spans=True,
        kendall=kendall_inputs(
            world, horizon, track_kendall, kendall_checkpoints, eval_contexts
        ),
        obs=obs,
        flight=flight,
        checkpoint=checkpoint,
    )
