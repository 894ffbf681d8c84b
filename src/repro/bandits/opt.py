"""OPT: the clairvoyant reference strategy.

OPT knows the true weight vector ``theta`` and runs Oracle-Greedy on
the true expected rewards ``x^T theta`` each round (Section 5.1 of the
paper).  Regret (Equation 2) is measured against OPT's cumulative
reward on the *same* environment seed.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.bandits.base import Policy, RoundView
from repro.exceptions import ConfigurationError


class OptPolicy(Policy):
    """Oracle-Greedy on the true expected rewards."""

    name = "OPT"

    def __init__(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.size == 0:
            raise ConfigurationError("theta must be a non-empty vector")
        self.theta = theta

    def select(self, view: RoundView) -> List[int]:
        if view.dim != self.theta.size:
            raise ConfigurationError(
                f"contexts have dim {view.dim} but theta has {self.theta.size}"
            )
        scores = view.contexts @ self.theta
        if self._capture_decisions:
            # Clairvoyant and deterministic: propensity 1.
            self._stash_decision(scores=scores, propensity=1.0)
        return self._run_oracle(view, scores)

    def predicted_scores(self, contexts: np.ndarray) -> np.ndarray:
        return np.atleast_2d(contexts) @ self.theta
