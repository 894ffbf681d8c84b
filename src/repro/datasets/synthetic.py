"""Synthetic FASEA worlds (Table 4 of the paper).

A :class:`SyntheticWorld` holds the *static* parts of an instance — the
true ``theta``, event capacities, and the conflict set — generated
deterministically from a seed, plus factories for the per-run dynamic
parts (event store, arrival stream, context sampler).  Runs that share
a world and a run-seed see identical users, contexts and feedback coin
flips, so policies can be compared with common random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.datasets.distributions import (
    DistributionSpec,
    distribution_from_name,
    sample_capacities,
    sample_matrix,
    sample_unit_theta,
    unit_normalize_rows,
)
from repro.ebsn.conflicts import (
    BaseConflictGraph,
    ConflictGraph,
    random_conflict_array,
)
from repro.ebsn.events import EventStore
from repro.ebsn.users import UserArrivalStream
from repro.exceptions import ConfigurationError
from repro.linalg.sampling import make_rng


@dataclass(frozen=True)
class SyntheticConfig:
    """One row of Table 4 (defaults are the paper's bold values).

    ``paper_default`` gives the exact published scale; ``scaled_default``
    shrinks |V|, T and capacities proportionally so the full experiment
    suite runs on a laptop while keeping the capacity-exhaustion point
    at the same *fraction* of the horizon (the regret-drop shape).
    """

    num_events: int = 500
    horizon: int = 100_000
    dim: int = 20
    theta_distribution: str = "uniform"
    context_distribution: str = "uniform"
    capacity_mean: float = 200.0
    capacity_std: float = 100.0
    user_capacity_min: int = 1
    user_capacity_max: int = 5
    conflict_ratio: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_events < 1:
            raise ConfigurationError(f"num_events must be >= 1, got {self.num_events}")
        if self.horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {self.horizon}")
        if self.dim < 1:
            raise ConfigurationError(f"dim must be >= 1, got {self.dim}")
        if not 0.0 <= self.conflict_ratio <= 1.0:
            raise ConfigurationError(
                f"conflict_ratio must be in [0, 1], got {self.conflict_ratio}"
            )
        # Validate the distribution names eagerly so bad configs fail fast.
        distribution_from_name(self.theta_distribution, self.dim)
        distribution_from_name(self.context_distribution, self.dim)

    @classmethod
    def paper_default(cls, **overrides) -> "SyntheticConfig":
        """The bold defaults of Table 4 (|V|=500, T=100000, d=20, ...)."""
        return cls(**overrides)

    @classmethod
    def scaled_default(cls, **overrides) -> "SyntheticConfig":
        """A scaled-down instance preserving the regret-drop shape.

        |V| 500 -> 100, T 100000 -> 10000, c_v N(200,100) -> N(90,45):
        OPT accepts ~1.3 events/round, so ~9000 total slots over 100
        events are exhausted at ~65% of the horizon — the same relative
        time step at which the paper's regret curves drop (t ~ 65664 of
        100000).
        """
        base = dict(
            num_events=100,
            horizon=10_000,
            capacity_mean=90.0,
            capacity_std=45.0,
        )
        base.update(overrides)
        return cls(**base)

    def with_overrides(self, **overrides) -> "SyntheticConfig":
        """A copy of this config with fields replaced."""
        return replace(self, **overrides)


class ContextSampler:
    """Draws the per-round context matrix ``(|V|, d)``, rows unit-normalised."""

    def __init__(self, spec: DistributionSpec, num_events: int, dim: int) -> None:
        self.spec = spec
        self.num_events = num_events
        self.dim = dim

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        raw = sample_matrix(self.spec, rng, (self.num_events, self.dim))
        return unit_normalize_rows(raw)


class SyntheticWorld:
    """Static instance data plus factories for per-run components."""

    def __init__(
        self,
        config: SyntheticConfig,
        theta: np.ndarray,
        capacities: np.ndarray,
        conflict_pairs: "List[Tuple[int, int]] | np.ndarray",
    ) -> None:
        self.config = config
        self.theta = theta
        self.capacities = capacities
        # ``conflict_pairs`` may arrive as an ``(n, 2)`` id array (the
        # fast path :func:`build_world` uses) or a list of tuples; the
        # tuple form is materialised lazily because only diagnostics and
        # tests read it, while every build feeds the graph below.
        self._conflict_pair_input = conflict_pairs
        self._conflict_pair_list: Optional[List[Tuple[int, int]]] = None
        # The conflict graph is immutable; one shared instance serves all runs.
        self.conflicts: BaseConflictGraph = ConflictGraph(
            config.num_events, conflict_pairs
        )

    @property
    def conflict_pairs(self) -> List[Tuple[int, int]]:
        """Conflicting ``(i, j)`` pairs as a list of int tuples."""
        if self._conflict_pair_list is None:
            pairs = self._conflict_pair_input
            if isinstance(pairs, np.ndarray):
                pairs = pairs.reshape(-1, 2)
                self._conflict_pair_list = list(
                    zip(pairs[:, 0].tolist(), pairs[:, 1].tolist())
                )
            else:
                self._conflict_pair_list = [(int(i), int(j)) for i, j in pairs]
        return self._conflict_pair_list

    # ------------------------------------------------------------------
    # Per-run factories
    # ------------------------------------------------------------------
    def make_store(self) -> EventStore:
        """A fresh event store with full capacities."""
        return EventStore.from_capacities(self.capacities)

    def make_arrivals(self, run_seed: int) -> UserArrivalStream:
        """A fresh user arrival stream for one run."""
        return UserArrivalStream(
            min_capacity=self.config.user_capacity_min,
            max_capacity=self.config.user_capacity_max,
            seed=run_seed,
        )

    def make_context_sampler(self) -> ContextSampler:
        """The per-round context sampler (caller supplies the RNG)."""
        spec = distribution_from_name(
            self.config.context_distribution, self.config.dim
        )
        return ContextSampler(spec, self.config.num_events, self.config.dim)

    def evaluation_contexts(self, seed_offset: int = 7919) -> np.ndarray:
        """A fixed context matrix for ranking diagnostics (Figure 2).

        Deterministic in the world seed, independent of the run streams.
        """
        rng = make_rng(self.config.seed * 1_000_003 + seed_offset)
        return self.make_context_sampler().sample(rng)

    def expected_rewards(self, contexts: np.ndarray) -> np.ndarray:
        """True expected rewards ``x^T theta`` for each context row."""
        return np.atleast_2d(contexts) @ self.theta

    def accept_probabilities(self, contexts: np.ndarray) -> np.ndarray:
        """Acceptance probabilities ``clip(x^T theta, 0, 1)``."""
        return accept_probabilities(contexts, self.theta)


def accept_probabilities(contexts: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The FASEA feedback model: event ``v`` is accepted w.p. ``clip(x_v^T theta, 0, 1)``."""
    return np.clip(np.atleast_2d(contexts) @ theta, 0.0, 1.0)


def build_world(config: SyntheticConfig) -> SyntheticWorld:
    """Materialise the static parts of a synthetic instance from its seed."""
    root = np.random.SeedSequence(config.seed)
    theta_seed, capacity_seed, conflict_seed = root.spawn(3)
    theta_spec = distribution_from_name(config.theta_distribution, config.dim)
    theta = sample_unit_theta(theta_spec, config.dim, np.random.default_rng(theta_seed))
    capacities = sample_capacities(
        config.num_events,
        config.capacity_mean,
        config.capacity_std,
        np.random.default_rng(capacity_seed),
    )
    pairs = random_conflict_array(
        config.num_events,
        config.conflict_ratio,
        np.random.default_rng(conflict_seed),
    )
    return SyntheticWorld(config, theta, capacities, pairs)
