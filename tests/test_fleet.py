"""Fleet runner: equivalence with individual runs, and pairing."""

import numpy as np
import pytest

from repro.bandits import POLICY_NAMES, OptPolicy, RandomPolicy, UcbPolicy, make_policy
from repro.exceptions import ConfigurationError
from repro.obs.core import Instrumentation
from repro.simulation.environment import FaseaEnvironment
from repro.simulation.fleet import run_policy_fleet
from repro.simulation.runner import run_policy


def test_fleet_matches_individual_runs_exactly(small_world):
    """Bit-for-bit equivalence with run_policy on the same seed."""
    fleet = run_policy_fleet(
        {
            "UCB": UcbPolicy(dim=4),
            "Random": RandomPolicy(seed=9),
            "OPT": OptPolicy(small_world.theta),
        },
        small_world,
        horizon=80,
        run_seed=5,
    )
    for name, policy in [
        ("UCB", UcbPolicy(dim=4)),
        ("Random", RandomPolicy(seed=9)),
        ("OPT", OptPolicy(small_world.theta)),
    ]:
        individual = run_policy(policy, small_world, horizon=80, run_seed=5)
        assert np.array_equal(fleet[name].rewards, individual.rewards), name
        assert np.array_equal(fleet[name].arranged, individual.arranged), name


def test_fleet_histories_carry_the_dict_names(small_world):
    fleet = run_policy_fleet(
        {"ucb-a1": UcbPolicy(dim=4, alpha=1.0), "ucb-a2": UcbPolicy(dim=4, alpha=2.0)},
        small_world,
        horizon=30,
    )
    assert fleet["ucb-a1"].policy_name == "ucb-a1"
    assert fleet["ucb-a2"].policy_name == "ucb-a2"


def test_fleet_kendall_tracking(small_world):
    # Checkpoints past the horizon are never reached, so never reported.
    for horizon, checkpoints, reached in [
        (60, [20, 60], [20, 60]),
        (50, [10, 40, 80], [10, 40]),
    ]:
        fleet = run_policy_fleet(
            {"UCB": UcbPolicy(dim=4)},
            small_world,
            horizon=horizon,
            track_kendall=True,
            kendall_checkpoints=checkpoints,
        )
        history = fleet["UCB"]
        assert history.kendall_steps.tolist() == reached
        assert history.kendall_taus.shape == (len(reached),)


def test_fleet_requires_policies(small_world):
    with pytest.raises(ConfigurationError):
        run_policy_fleet({}, small_world, horizon=10)


def test_fleet_capacities_evolve_independently(small_world):
    """OPT may exhaust an event that Random never touches."""
    fleet = run_policy_fleet(
        {"OPT": OptPolicy(small_world.theta), "Random": RandomPolicy(seed=0)},
        small_world,
        horizon=150,
    )
    # Both respected their own capacity accounting.
    assert fleet["OPT"].total_reward <= small_world.capacities.sum()
    assert fleet["Random"].total_reward <= small_world.capacities.sum()
    assert fleet["OPT"].total_reward != fleet["Random"].total_reward


def _six_policies(world):
    policies = {"OPT": OptPolicy(world.theta)}
    for name in POLICY_NAMES:
        policies[name] = make_policy(name, dim=world.config.dim, seed=3)
    return policies


def _reference_loop(policy, world, horizon, run_seed):
    """The FASEA loop written out by hand over FaseaEnvironment."""
    env = FaseaEnvironment(world, run_seed=run_seed)
    rewards, arranged = np.zeros(horizon), np.zeros(horizon)
    for t in range(horizon):
        view = env.begin_round()
        arrangement = policy.select(view)
        round_rewards, _ = env.commit(arrangement)
        policy.observe(view, arrangement, round_rewards)
        rewards[t], arranged[t] = sum(round_rewards), len(arrangement)
    return rewards, arranged


def test_engine_matches_a_hand_written_environment_loop(small_world):
    """run_policy and a six-policy fleet both equal an independent loop."""
    horizon, run_seed = 120, 4
    fleet = run_policy_fleet(
        _six_policies(small_world), small_world, horizon=horizon, run_seed=run_seed
    )
    references, singles = _six_policies(small_world), _six_policies(small_world)
    for name in fleet:
        rewards, arranged = _reference_loop(
            references[name], small_world, horizon, run_seed
        )
        alone = run_policy(singles[name], small_world, horizon=horizon, run_seed=run_seed)
        for history in (alone, fleet[name]):
            assert np.array_equal(history.rewards, rewards), name
            assert np.array_equal(history.arranged, arranged), name


def test_fleet_histories_carry_a_measured_round_time(small_world):
    fleet = run_policy_fleet(_six_policies(small_world), small_world, horizon=30)
    assert all(history.avg_round_time > 0 for history in fleet.values())


def test_fleet_emits_the_environment_and_round_counters(small_world):
    obs = Instrumentation()
    horizon = 40
    fleet = run_policy_fleet(
        {"UCB": UcbPolicy(dim=4), "Random": RandomPolicy(seed=2)},
        small_world,
        horizon=horizon,
        obs=obs,
    )
    counters = obs.snapshot().counters
    # env.rounds counts shared-stream rounds; the rest count commits.
    assert counters["env.rounds"] == horizon
    assert counters["env.commits"] == 2 * horizon
    assert counters["env.arranged_events"] == sum(
        history.arranged.sum() for history in fleet.values()
    )
    assert counters["env.accepted_events"] == sum(
        history.total_reward for history in fleet.values()
    )
    assert counters["policy.UCB.rounds"] == horizon
    assert counters["policy.Random.rounds"] == horizon
