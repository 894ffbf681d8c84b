"""Policy interface and the per-round view handed to policies.

A policy sees exactly what the FASEA problem statement reveals at time
step ``t`` (Definition 3): the arriving user's capacity, a context
vector per event, which events still have capacity, and the (static)
conflict graph.  After committing an arrangement it observes one reward
per arranged event.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.ebsn.conflicts import BaseConflictGraph
from repro.ebsn.users import User
from repro.obs.core import NULL_OBS, InstrumentationLike
from repro.obs.health import FILL_RATE_SERIES_METRIC
from repro.oracle.greedy import OracleStats, oracle_greedy

#: Oracle emit-site metric names (FAS016: one constant per name — alert
#: rules select metrics by name, so typos must be unrepresentable).
ORACLE_PREFIX = "oracle"
ORACLE_CALLS_SUFFIX = ".calls"
ORACLE_CANDIDATES_SUFFIX = ".candidates"
ORACLE_VISITED_SUFFIX = ".visited"
ORACLE_CONFLICT_REJECTIONS_SUFFIX = ".conflict_rejections"
ORACLE_CAPACITY_REJECTIONS_SUFFIX = ".capacity_rejections"
ORACLE_ARRANGED_SUFFIX = ".arranged"
ORACLE_FILL_RATE_SUFFIX = ".fill_rate"


@dataclass(frozen=True)
class RoundView:
    """Everything revealed to a policy at one time step.

    Attributes
    ----------
    time_step:
        1-based step index ``t`` (TS's exploration width depends on it).
    user:
        The arriving user (capacity ``c_u`` and metadata).
    contexts:
        Array of shape ``(|V|, d)``; row ``v`` is ``x_{t,v}``.
    remaining_capacities:
        Remaining ``c_v`` per event id at the start of the step.
    conflicts:
        The conflict graph (shared across steps).
    """

    time_step: int
    user: User
    contexts: np.ndarray
    remaining_capacities: np.ndarray
    conflicts: BaseConflictGraph

    @property
    def num_events(self) -> int:
        return self.contexts.shape[0]

    @property
    def dim(self) -> int:
        return self.contexts.shape[1]


class Policy(abc.ABC):
    """An online arrangement policy.

    The runner calls :meth:`select` once per round, commits the returned
    arrangement to the platform, then calls :meth:`observe` with the
    per-event rewards (1 accepted / 0 rejected).
    """

    #: Human-readable name used in reports; subclasses override.
    name: str = "policy"

    #: Bound instrumentation (class-level disabled default — one
    #: attribute read on the hot path; see ``repro.obs``).
    _obs: InstrumentationLike = NULL_OBS
    #: Metric-name label; defaults to ``name`` (fleet keys override it).
    _obs_label: Optional[str] = None

    #: Decision capture switch (flight recorder); class-level disabled
    #: default keeps the hot path to a single attribute read.
    _capture_decisions: bool = False
    #: The last round's captured decision info (replaced wholesale on
    #: every select when capture is on).
    _decision: Optional[Dict[str, Any]] = None

    @abc.abstractmethod
    def select(self, view: RoundView) -> List[int]:
        """Return the arrangement ``A_t`` (event ids) for this round."""

    # ------------------------------------------------------------------
    # Instrumentation plumbing (no-ops unless a runner binds a registry)
    # ------------------------------------------------------------------
    def bind_obs(
        self, obs: InstrumentationLike, label: Optional[str] = None
    ) -> None:
        """Attach an instrumentation registry (runners call this).

        ``label`` names this policy in metric names
        (``policy.<label>.*``); it defaults to :attr:`name` but fleet
        runners pass their dict key so differently-parametrised
        instances stay distinguishable.
        """
        self._obs = obs
        self._obs_label = label if label is not None else self.name

    def obs_name(self, metric: str) -> str:
        """Fully qualified metric name: ``policy.<label>.<metric>``."""
        return f"policy.{self._obs_label or self.name}.{metric}"

    # ------------------------------------------------------------------
    # Decision capture (flight recorder; see repro.obs.flight)
    # ------------------------------------------------------------------
    def enable_decision_capture(self, enabled: bool = True) -> None:
        """Turn per-round decision capture on/off (runners call this)."""
        self._capture_decisions = bool(enabled)
        self._decision = None

    def decision_info(self) -> Optional[Dict[str, Any]]:
        """The last :meth:`select`'s captured decision surface, if any.

        Populated only while decision capture is enabled: candidate
        scores, UCB widths / TS samples where applicable, the
        exploration coin and its propensity, oracle rejection counts
        and an RNG-state fingerprint.  The vectors are the float64
        arrays the policy computed, stashed without conversion (the
        flight log stores them as raw float64).  Policies that do not
        capture (e.g. :class:`DisjointUcbPolicy`) return ``None`` and
        the flight record carries just the runner-visible fields.
        """
        return self._decision

    def _stash_decision(self, **info: Any) -> None:
        """Replace the captured decision info for the current round."""
        self._decision = info

    def _stash_oracle_stats(self, stats: OracleStats) -> None:
        """Fold one oracle scan's diagnostics into the captured info."""
        if self._decision is None:
            self._decision = {}
        self._decision["oracle"] = {
            "candidates": int(stats.candidates),
            "visited": int(stats.visited),
            "conflict_rejections": int(stats.conflict_rejections),
            "capacity_rejections": int(stats.capacity_rejections),
            "arranged": int(stats.arranged),
        }

    def theta_estimate(self) -> Optional[np.ndarray]:
        """The policy's current ``theta^`` estimate, if it keeps one.

        Runners use this to record per-round estimate drift
        ``||theta^ - theta||`` without reaching into policy internals;
        model-free policies (Random, OPT) return ``None``.
        """
        return None

    def _run_oracle(
        self,
        view: RoundView,
        scores: np.ndarray,
        order: Optional[Sequence[int]] = None,
    ) -> List[int]:
        """Oracle-Greedy with per-policy telemetry when bound & enabled.

        The disabled path forwards straight to
        :func:`~repro.oracle.greedy.oracle_greedy` — identical
        arrangement either way (``stats`` never alters the scan).
        """
        obs = self._obs
        capture = self._capture_decisions
        if not obs.enabled and not capture:
            return oracle_greedy(
                scores=scores,
                conflicts=view.conflicts,
                remaining_capacities=view.remaining_capacities,
                user_capacity=view.user.capacity,
                order=order,
            )
        stats = OracleStats()
        arrangement = oracle_greedy(
            scores=scores,
            conflicts=view.conflicts,
            remaining_capacities=view.remaining_capacities,
            user_capacity=view.user.capacity,
            order=order,
            stats=stats,
        )
        if obs.enabled:
            self._record_oracle_stats(view, stats)
        if capture:
            self._stash_oracle_stats(stats)
        return arrangement

    def _record_oracle_stats(self, view: RoundView, stats: OracleStats) -> None:
        """Fold one oracle call's diagnostics into the bound registry."""
        obs = self._obs
        prefix = self.obs_name(ORACLE_PREFIX)
        obs.counter(prefix + ORACLE_CALLS_SUFFIX).inc()
        obs.counter(prefix + ORACLE_CANDIDATES_SUFFIX).inc(stats.candidates)
        obs.counter(prefix + ORACLE_VISITED_SUFFIX).inc(stats.visited)
        obs.counter(prefix + ORACLE_CONFLICT_REJECTIONS_SUFFIX).inc(
            stats.conflict_rejections
        )
        obs.counter(prefix + ORACLE_CAPACITY_REJECTIONS_SUFFIX).inc(
            stats.capacity_rejections
        )
        obs.counter(prefix + ORACLE_ARRANGED_SUFFIX).inc(stats.arranged)
        obs.histogram(prefix + ORACLE_FILL_RATE_SUFFIX).observe(stats.fill_rate)
        obs.series(self.obs_name(FILL_RATE_SERIES_METRIC)).append(
            view.time_step, stats.fill_rate
        )

    def observe(
        self,
        view: RoundView,
        arranged: Sequence[int],
        rewards: Sequence[float],
    ) -> None:
        """Consume per-event feedback for the arranged events.

        Default is a no-op (Random and OPT do not learn).
        """

    def reset(self) -> None:
        """Forget all learned state (used when replaying a policy)."""

    def predicted_scores(self, contexts: np.ndarray) -> np.ndarray:
        """Point estimates ``x^T theta^`` used for ranking diagnostics.

        Policies without a model (Random) return zeros; the Kendall-tau
        experiment (Figure 2) compares these rankings to the truth.
        """
        return np.zeros(np.atleast_2d(contexts).shape[0])

    def ranking_scores(self, contexts: np.ndarray, time_step: int) -> np.ndarray:
        """Scores the policy would rank events by at ``time_step``.

        Defaults to the point estimate; TS overrides this with a fresh
        posterior sample, which is what makes its rank correlation with
        the truth fluctuate in the paper's Figure 2.
        """
        return self.predicted_scores(contexts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
