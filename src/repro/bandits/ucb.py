"""UCB for FASEA (Algorithm 3 of the paper).

Adapts the C²UCB contextual-combinatorial framework of Qin, Chen &
Zhu [36] (itself built on LinUCB [26][13]): score each event by its
upper confidence bound::

    r^_{t,v} = x^T theta^  +  alpha * sqrt(x^T Y^-1 x)

and hand the scores to Oracle-Greedy.  The bonus term shrinks along
well-explored directions of context space, so under-explored events win
ties — exploration and exploitation in one expression.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.bandits.base import Policy, RoundView
from repro.bandits.linear import LinearModel
from repro.exceptions import ConfigurationError

#: Emit-site metric name (FAS016).
UCB_WIDTH_METRIC = "ucb_width"


class UcbPolicy(Policy):
    """The paper's UCB algorithm.

    Parameters
    ----------
    dim:
        Feature dimension ``d``.
    lam:
        Ridge regulariser (Table 4 default 1).
    alpha:
        Exploration coefficient (Table 4 default 2).
    """

    name = "UCB"

    def __init__(self, dim: int, lam: float = 1.0, alpha: float = 2.0) -> None:
        if alpha < 0:
            raise ConfigurationError(f"alpha must be >= 0, got {alpha}")
        self.model = LinearModel(dim=dim, lam=lam)
        self.alpha = float(alpha)

    def upper_confidence_bounds(self, contexts: np.ndarray) -> np.ndarray:
        """Per-event UCB scores (lines 7-8 of Algorithm 3)."""
        return self.model.predict(contexts) + self.alpha * self.model.confidence_widths(
            contexts
        )

    def select(self, view: RoundView) -> List[int]:
        obs = self._obs
        capture = self._capture_decisions
        if obs.enabled or capture:
            # Compute the two score terms separately so the confidence
            # width — the paper's exploration-shrinkage diagnostic — can
            # be recorded without a second |V| x d pass.
            widths = self.model.confidence_widths(view.contexts)
            scores = self.model.predict(view.contexts) + self.alpha * widths
            if obs.enabled:
                obs.series(self.obs_name(UCB_WIDTH_METRIC)).append(
                    view.time_step, float(widths.mean())
                )
            if capture:
                # UCB is deterministic given its ridge state, so the
                # logged action has propensity 1 under the behavior
                # policy (the OPE contract for greedy policies).
                self._stash_decision(
                    scores=scores,
                    widths=widths,
                    propensity=1.0,
                )
        else:
            scores = self.upper_confidence_bounds(view.contexts)
        return self._run_oracle(view, scores)

    def observe(
        self, view: RoundView, arranged: Sequence[int], rewards: Sequence[float]
    ) -> None:
        self.model.observe(view.contexts, arranged, rewards)

    def predicted_scores(self, contexts: np.ndarray) -> np.ndarray:
        return self.model.predict(contexts)

    def theta_estimate(self) -> np.ndarray:
        return self.model.theta_hat()

    def reset(self) -> None:
        self.model.reset()
