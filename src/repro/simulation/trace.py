"""Arrival-trace recording and replay.

Common random numbers couple policies *within* a process; a recorded
trace extends that guarantee across processes, machines and library
versions: capture one run's full input stream — per round, the user's
capacity, the context matrix, and the acceptance thresholds — to a
single ``.npz`` file, then replay any policy against it bit-for-bit.

Traces are also the honest way to archive an experiment's inputs next
to its outputs (the CSVs only record what policies *did*).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.bandits.base import Policy
from repro.datasets.synthetic import SyntheticWorld, accept_probabilities
from repro.ebsn.conflicts import BaseConflictGraph, ConflictGraph
from repro.ebsn.events import EventStore
from repro.ebsn.users import User
from repro.exceptions import ConfigurationError
from repro.simulation.environment import RoundStream
from repro.simulation.fleet import _run_rounds
from repro.simulation.history import History

#: Bumped when the on-disk layout changes incompatibly.
TRACE_FORMAT_VERSION = 1


class Trace:
    """One recorded input stream: capacities, contexts, thresholds."""

    def __init__(
        self,
        user_capacities: np.ndarray,
        contexts: np.ndarray,
        thresholds: np.ndarray,
        theta: np.ndarray,
        event_capacities: np.ndarray,
        conflict_pairs: Sequence[Tuple[int, int]],
    ) -> None:
        horizon, num_events, dim = contexts.shape
        if user_capacities.shape != (horizon,):
            raise ConfigurationError("user capacities do not match the horizon")
        if thresholds.shape != (horizon, num_events):
            raise ConfigurationError("thresholds do not match contexts")
        if theta.shape != (dim,):
            raise ConfigurationError("theta dimension mismatch")
        if event_capacities.shape != (num_events,):
            raise ConfigurationError("event capacity vector mismatch")
        self.user_capacities = user_capacities
        self.contexts = contexts
        self.thresholds = thresholds
        self.theta = theta
        self.event_capacities = event_capacities
        self.conflict_pairs = [(int(i), int(j)) for i, j in conflict_pairs]

    @property
    def horizon(self) -> int:
        return self.contexts.shape[0]

    @property
    def num_events(self) -> int:
        return self.contexts.shape[1]

    @property
    def dim(self) -> int:
        return self.contexts.shape[2]

    def conflicts(self) -> BaseConflictGraph:
        return ConflictGraph(self.num_events, self.conflict_pairs)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        if path.suffix != ".npz":
            # On the name: with_suffix() would keep a trailing dot ("run..npz").
            path = path.with_name(path.name.rstrip(".") + ".npz")
        path.parent.mkdir(parents=True, exist_ok=True)
        pairs = np.asarray(self.conflict_pairs, dtype=np.int64).reshape(-1, 2)
        np.savez_compressed(
            path,
            version=np.array([TRACE_FORMAT_VERSION]),
            user_capacities=self.user_capacities,
            contexts=self.contexts,
            thresholds=self.thresholds,
            theta=self.theta,
            event_capacities=self.event_capacities,
            conflict_pairs=pairs,
        )
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        path = Path(path)
        if not path.exists():
            raise ConfigurationError(f"no trace file at {path}")
        with np.load(path) as archive:
            if "version" not in archive:
                raise ConfigurationError(f"{path} is not a trace archive")
            version = int(archive["version"][0])
            if version != TRACE_FORMAT_VERSION:
                raise ConfigurationError(
                    f"{path} has trace version {version}, expected "
                    f"{TRACE_FORMAT_VERSION}"
                )
            return cls(
                user_capacities=archive["user_capacities"],
                contexts=archive["contexts"],
                thresholds=archive["thresholds"],
                theta=archive["theta"],
                event_capacities=archive["event_capacities"],
                conflict_pairs=[tuple(row) for row in archive["conflict_pairs"]],
            )


def record_trace(
    world: SyntheticWorld, horizon: Optional[int] = None, run_seed: int = 0
) -> Trace:
    """Capture the input stream a run with this (world, seed) would see."""
    horizon = horizon if horizon is not None else world.config.horizon
    stream = RoundStream(world, run_seed=run_seed)
    capacities = np.zeros(horizon, dtype=int)
    contexts = np.zeros((horizon, stream.num_events, world.config.dim))
    thresholds = np.zeros((horizon, stream.num_events))
    for t in range(horizon):
        user, contexts[t], thresholds[t] = stream.draw_inputs()
        capacities[t] = user.capacity
    return Trace(
        user_capacities=capacities,
        contexts=contexts,
        thresholds=thresholds,
        theta=world.theta.copy(),
        event_capacities=world.capacities.copy(),
        conflict_pairs=list(world.conflicts.pairs()),
    )


class _TraceCursor:
    """A trace as a round source: row ``t`` is round ``t + 1`` of the live run.

    Acceptance uses the live run's formula, so replay equals it by construction.
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.conflicts = trace.conflicts()
        self.theta = trace.theta
        self._row = 0

    def make_store(self) -> EventStore:
        return EventStore.from_capacities(self.trace.event_capacities.tolist())

    def draw(self) -> Tuple[User, np.ndarray, np.ndarray]:
        row = self._row
        self._row += 1
        contexts = self.trace.contexts[row]
        user = User(user_id=row, capacity=int(self.trace.user_capacities[row]))
        accepted = self.trace.thresholds[row] < accept_probabilities(contexts, self.theta)
        return user, contexts, accepted


def replay_trace(policy: Policy, trace: Trace) -> History:
    """Run ``policy`` against a recorded trace (platform-validated)."""
    return _run_rounds(
        {policy.name: policy},
        _TraceCursor(trace),
        trace.horizon,
        span_name="replay_trace",
        span_attrs={"policy": policy.name, "horizon": trace.horizon},
        step_spans=False,
    )[policy.name]
