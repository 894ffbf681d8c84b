"""Bootstrap CIs, convergence detectors, multi-seed replication."""

import numpy as np
import pytest

from repro.analysis import (
    bootstrap_mean_ci,
    detect_plateau,
    find_crossover,
    relative_improvement,
    replicate_policies,
)
from repro.datasets.synthetic import SyntheticConfig
from repro.exceptions import ConfigurationError
from repro.io.runstore import RunStore


# ----------------------------------------------------------------------
# bootstrap
# ----------------------------------------------------------------------
def test_ci_brackets_the_mean():
    mean, low, high = bootstrap_mean_ci([1.0, 2.0, 3.0, 4.0], seed=0)
    assert low <= mean <= high
    assert mean == pytest.approx(2.5)


def test_ci_single_value_degenerates():
    assert bootstrap_mean_ci([7.0]) == (7.0, 7.0, 7.0)


def test_ci_narrows_with_confidence():
    values = list(np.random.default_rng(0).normal(size=30))
    _, low90, high90 = bootstrap_mean_ci(values, confidence=0.90, seed=1)
    _, low99, high99 = bootstrap_mean_ci(values, confidence=0.99, seed=1)
    assert (high99 - low99) > (high90 - low90)


def test_ci_validation():
    with pytest.raises(ConfigurationError):
        bootstrap_mean_ci([])
    with pytest.raises(ConfigurationError):
        bootstrap_mean_ci([1.0], confidence=1.5)
    with pytest.raises(ConfigurationError):
        bootstrap_mean_ci([1.0], num_resamples=0)


# ----------------------------------------------------------------------
# convergence
# ----------------------------------------------------------------------
def test_plateau_found_where_growth_stops():
    curve = [1, 2, 3, 4, 5, 5, 5, 5, 5, 5]
    assert detect_plateau(curve, window=3) == 5


def test_plateau_none_for_steady_growth():
    assert detect_plateau(list(range(100)), window=5, tolerance=0.001) is None


def test_plateau_flat_zero_curve():
    assert detect_plateau([0, 0, 0], window=1) == 1


def test_plateau_validation():
    with pytest.raises(ConfigurationError):
        detect_plateau([1])
    with pytest.raises(ConfigurationError):
        detect_plateau([3, 2, 1])  # decreasing
    with pytest.raises(ConfigurationError):
        detect_plateau([1, 2], window=0)


def test_crossover_first_sustained_overtake():
    lead = [0, 0, 3, 1, 5, 6]
    trail = [2, 2, 2, 2, 2, 2]
    assert find_crossover(lead, trail, sustain=1) == 3
    assert find_crossover(lead, trail, sustain=2) == 5


def test_crossover_none_when_never_ahead():
    assert find_crossover([0, 0], [1, 1]) is None


def test_crossover_validation():
    with pytest.raises(ConfigurationError):
        find_crossover([1, 2], [1, 2, 3])
    with pytest.raises(ConfigurationError):
        find_crossover([1, 2], [1, 2], sustain=0)


def test_relative_improvement():
    assert relative_improvement(12.0, 10.0) == pytest.approx(0.2)
    assert relative_improvement(8.0, 10.0) == pytest.approx(-0.2)
    assert relative_improvement(1.0, 0.0) == float("inf")
    assert relative_improvement(0.0, 0.0) == 0.0


# ----------------------------------------------------------------------
# replication
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def replication():
    config = SyntheticConfig(
        num_events=20,
        horizon=500,
        dim=4,
        capacity_mean=10.0,
        capacity_std=4.0,
        seed=0,
    )
    return replicate_policies(config, seeds=[0, 1, 2], horizon=500)


def test_replication_covers_all_policies_and_seeds(replication):
    assert set(replication.accept_ratios) == {
        "OPT",
        "UCB",
        "TS",
        "eGreedy",
        "Exploit",
        "Random",
    }
    for values in replication.accept_ratios.values():
        assert len(values) == 3


def test_replication_cis_are_ordered(replication):
    for policy in replication.accept_ratios:
        mean, low, high = replication.accept_ratio_ci(policy)
        assert low <= mean <= high


def test_replication_ucb_dominates_random(replication):
    assert replication.dominates("UCB", "Random")


def test_replication_summary_rows_shape(replication):
    rows = replication.summary_rows()
    assert len(rows) == 6
    assert all(len(row) == 5 for row in rows)


def test_replication_validates_seeds():
    with pytest.raises(ConfigurationError):
        replicate_policies(SyntheticConfig.scaled_default(), seeds=[])


def test_replication_logs_into_a_store():
    config = SyntheticConfig(
        num_events=10, horizon=100, dim=3, capacity_mean=5.0, capacity_std=2.0
    )
    with RunStore() as store:
        replicate_policies(
            config,
            seeds=[0, 1],
            horizon=100,
            policy_names=("UCB",),
            store=store,
            experiment="test-exp",
        )
        # 2 seeds x (OPT + UCB) = 4 runs.
        assert store.count_runs() == 4
        stats = store.policy_statistics("test-exp")
        assert stats["UCB"]["count"] == 2
