"""Thompson Sampling for FASEA (Algorithm 1 of the paper).

Extends the linear-payoff Thompson Sampling of Agrawal & Goyal
[1][2] to the contextual *combinatorial* setting: sample
``theta~ ~ N(theta^, q^2 Y^-1)`` with
``q = R * sqrt(9 d ln(t / delta))``, score every event by
``x^T theta~``, and hand the scores to Oracle-Greedy.

Under FASEA rewards are {0, 1} and ``x^T theta`` is the acceptance
probability, so the sub-Gaussian scale ``R`` is simply 1 (see the
discussion after Algorithm 1).
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.bandits.base import Policy, RoundView
from repro.bandits.linear import LinearModel
from repro.exceptions import ConfigurationError
from repro.linalg.sampling import RngLike, cholesky_sample, make_rng
from repro.obs.flight import rng_fingerprint

#: Emit-site metric names (FAS016).
TS_SAMPLE_NORM_METRIC = "ts_sample_norm"
TS_SAMPLE_DEVIATION_METRIC = "ts_sample_deviation"
TS_SAMPLING_WIDTH_METRIC = "ts_sampling_width"


class ThompsonSamplingPolicy(Policy):
    """The paper's TS algorithm.

    Parameters
    ----------
    dim:
        Feature dimension ``d``.
    lam:
        Ridge regulariser (Table 4 default 1).
    delta:
        Confidence parameter of the sampling width ``q``
        (Table 4 default 0.1).
    sub_gaussian_scale:
        ``R`` in ``q = R sqrt(9 d ln(t/delta))``; 1 under FASEA.
    width_scale:
        Extra multiplier on ``q`` (default 1 = the published algorithm).
        The paper *conjectures* TS fails under FASEA because its
        sampling noise corrupts every event's estimate at once; shrinking
        this towards 0 interpolates TS into Exploit and lets the
        ``bench_ablation_ts_width`` benchmark test that conjecture
        directly.
    seed:
        RNG seed for the posterior sampling.
    """

    name = "TS"

    def __init__(
        self,
        dim: int,
        lam: float = 1.0,
        delta: float = 0.1,
        sub_gaussian_scale: float = 1.0,
        width_scale: float = 1.0,
        seed: RngLike = None,
    ) -> None:
        if not 0.0 < delta < 1.0:
            raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
        if sub_gaussian_scale <= 0:
            raise ConfigurationError(
                f"sub_gaussian_scale must be > 0, got {sub_gaussian_scale}"
            )
        if width_scale < 0:
            raise ConfigurationError(f"width_scale must be >= 0, got {width_scale}")
        self.model = LinearModel(dim=dim, lam=lam)
        self.delta = float(delta)
        self.sub_gaussian_scale = float(sub_gaussian_scale)
        self.width_scale = float(width_scale)
        self._rng = make_rng(seed)

    def sampling_width(self, time_step: int) -> float:
        """``q = R sqrt(9 d ln(t / delta))`` (line 5 of Algorithm 1),
        times the ablation multiplier ``width_scale``."""
        if time_step < 1:
            raise ConfigurationError(f"time_step must be >= 1, got {time_step}")
        return (
            self.width_scale
            * self.sub_gaussian_scale
            * math.sqrt(9.0 * self.model.dim * math.log(time_step / self.delta))
        )

    def sample_theta(self, time_step: int) -> np.ndarray:
        """Draw ``theta~ ~ N(theta^, q^2 Y^-1)`` (line 7 of Algorithm 1)."""
        mean, y_inv = self.model.posterior()
        q = self.sampling_width(time_step)
        return cholesky_sample(mean, (q * q) * y_inv, self._rng)

    def select(self, view: RoundView) -> List[int]:
        capture = self._capture_decisions
        # Fingerprint before the posterior draw: replaying from the
        # same seed must land on the same pre-draw state (reading the
        # state does not advance the stream).
        rng_state = rng_fingerprint(self._rng) if capture else None
        theta_sample = self.sample_theta(view.time_step)
        obs = self._obs
        if obs.enabled:
            # The paper conjectures TS fails under FASEA because its
            # posterior noise corrupts every event at once; the sample
            # norm and the deviation from theta^ make that visible.
            obs.series(self.obs_name(TS_SAMPLE_NORM_METRIC)).append(
                view.time_step, float(np.linalg.norm(theta_sample))
            )
            obs.series(self.obs_name(TS_SAMPLE_DEVIATION_METRIC)).append(
                view.time_step,
                float(np.linalg.norm(theta_sample - self.model.theta_hat())),
            )
            obs.series(self.obs_name(TS_SAMPLING_WIDTH_METRIC)).append(
                view.time_step, self.sampling_width(view.time_step)
            )
        scores = view.contexts @ theta_sample
        if capture:
            # The TS action is a draw from a continuous posterior over
            # a combinatorial action space; no per-action density is
            # logged, so the propensity is None (IPS/SNIPS/DR skip it).
            self._stash_decision(
                scores=scores,
                theta_sample=theta_sample,
                sampling_width=self.sampling_width(view.time_step),
                propensity=None,
                rng=rng_state,
            )
        return self._run_oracle(view, scores)

    def observe(
        self, view: RoundView, arranged: Sequence[int], rewards: Sequence[float]
    ) -> None:
        self.model.observe(view.contexts, arranged, rewards)

    def predicted_scores(self, contexts: np.ndarray) -> np.ndarray:
        return self.model.predict(contexts)

    def theta_estimate(self) -> np.ndarray:
        return self.model.theta_hat()

    def ranking_scores(self, contexts: np.ndarray, time_step: int) -> np.ndarray:
        """Rank by a fresh posterior sample — the scores TS actually uses."""
        return np.atleast_2d(contexts) @ self.sample_theta(max(time_step, 1))

    def reset(self) -> None:
        self.model.reset()
