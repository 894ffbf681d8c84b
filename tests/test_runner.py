"""The round runner."""

import numpy as np
import pytest

from repro.bandits import OptPolicy, RandomPolicy, UcbPolicy
from repro.simulation.runner import run_policy


def test_runner_produces_a_full_history(small_world):
    history = run_policy(RandomPolicy(seed=0), small_world, horizon=50)
    assert history.horizon == 50
    assert history.policy_name == "Random"
    assert np.all(history.rewards <= history.arranged)
    assert history.avg_round_time > 0


def test_runner_defaults_to_the_config_horizon(small_world):
    history = run_policy(RandomPolicy(seed=0), small_world)
    assert history.horizon == small_world.config.horizon


def test_runner_is_deterministic_given_all_seeds(small_world):
    a = run_policy(UcbPolicy(dim=4), small_world, horizon=40, run_seed=2)
    b = run_policy(UcbPolicy(dim=4), small_world, horizon=40, run_seed=2)
    assert np.allclose(a.rewards, b.rewards)
    assert np.allclose(a.arranged, b.arranged)


def test_kendall_tracking_records_taus(small_world):
    # Checkpoints past the horizon are never reached, so never reported.
    for horizon, checkpoints, reached in [
        (60, [10, 30, 60], [10, 30, 60]),
        (50, [10, 40, 80], [10, 40]),
    ]:
        history = run_policy(
            UcbPolicy(dim=4),
            small_world,
            horizon=horizon,
            track_kendall=True,
            kendall_checkpoints=checkpoints,
        )
        assert history.kendall_steps.tolist() == reached
        assert history.kendall_taus.shape == (len(reached),)
        assert np.all(np.abs(history.kendall_taus) <= 1.0)


def test_opt_kendall_is_perfect(small_world):
    history = run_policy(
        OptPolicy(small_world.theta),
        small_world,
        horizon=20,
        track_kendall=True,
        kendall_checkpoints=[10, 20],
    )
    assert np.allclose(history.kendall_taus, 1.0)


def test_no_kendall_by_default(small_world):
    history = run_policy(RandomPolicy(seed=0), small_world, horizon=10)
    assert history.kendall_steps is None
    assert history.kendall_taus is None


def test_arrangement_sizes_respect_user_capacity(small_world):
    history = run_policy(OptPolicy(small_world.theta), small_world, horizon=100)
    assert history.arranged.max() <= small_world.config.user_capacity_max
