"""Oracle-Greedy (Algorithm 2): feasibility, ordering, edge cases."""

import numpy as np
import pytest

from repro.ebsn.conflicts import ConflictGraph
from repro.exceptions import ConfigurationError
from repro.oracle.greedy import oracle_greedy


def graph(num_events, pairs=()):
    return ConflictGraph(num_events, pairs)


def test_picks_highest_scores_first():
    scores = np.array([0.1, 0.9, 0.5, 0.3])
    result = oracle_greedy(scores, graph(4), np.ones(4), user_capacity=2)
    assert result == [1, 2]


def test_respects_user_capacity():
    scores = np.array([3.0, 2.0, 1.0])
    result = oracle_greedy(scores, graph(3), np.ones(3), user_capacity=1)
    assert result == [0]


def test_skips_full_events():
    scores = np.array([3.0, 2.0, 1.0])
    capacities = np.array([0.0, 1.0, 1.0])
    result = oracle_greedy(scores, graph(3), capacities, user_capacity=2)
    assert result == [1, 2]


def test_skips_conflicting_events():
    scores = np.array([3.0, 2.0, 1.0])
    result = oracle_greedy(scores, graph(3, [(0, 1)]), np.ones(3), user_capacity=3)
    assert result == [0, 2]


def test_includes_non_positive_scores_when_room_remains():
    """The paper keeps hat-r <= 0 events: their true reward may be positive."""
    scores = np.array([-0.5, -1.0])
    result = oracle_greedy(scores, graph(2), np.ones(2), user_capacity=2)
    assert result == [0, 1]


def test_deterministic_tie_break_by_event_id():
    scores = np.array([0.5, 0.5, 0.5])
    result = oracle_greedy(scores, graph(3), np.ones(3), user_capacity=2)
    assert result == [0, 1]


def test_explicit_order_overrides_scores():
    scores = np.array([9.0, 1.0, 5.0])
    result = oracle_greedy(
        scores, graph(3), np.ones(3), user_capacity=2, order=[2, 1, 0]
    )
    assert result == [2, 1]


def test_explicit_order_must_be_a_permutation():
    with pytest.raises(ConfigurationError):
        oracle_greedy(np.ones(3), graph(3), np.ones(3), 1, order=[0, 0, 1])


def test_input_validation():
    with pytest.raises(ConfigurationError):
        oracle_greedy(np.ones(3), graph(3), np.ones(2), 1)
    with pytest.raises(ConfigurationError):
        oracle_greedy(np.ones((2, 2)), graph(4), np.ones((2, 2)), 1)
    with pytest.raises(ConfigurationError):
        oracle_greedy(np.ones(2), graph(3), np.ones(2), 1)
    with pytest.raises(ConfigurationError):
        oracle_greedy(np.ones(3), graph(3), np.ones(3), 0)


def test_all_conflicting_yields_single_event():
    """cr = 1: only one event can ever be arranged per round."""
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    scores = np.array([1.0, 5.0, 3.0, 2.0, 4.0])
    result = oracle_greedy(scores, graph(5, pairs), np.ones(5), user_capacity=5)
    assert result == [1]


def test_no_available_events_yields_empty():
    result = oracle_greedy(np.ones(3), graph(3), np.zeros(3), user_capacity=2)
    assert result == []


# ----------------------------------------------------------------------
# Top-k prefix scan ≡ full stable sort
# ----------------------------------------------------------------------
def reference_oracle_greedy(scores, conflicts, remaining, user_capacity):
    """The pre-optimisation implementation: full stable sort + scan."""
    visit_order = np.argsort(-np.asarray(scores, dtype=float), kind="stable")
    arrangement = []
    blocked = np.zeros(len(scores), dtype=bool)
    for event_id in visit_order.tolist():
        if len(arrangement) >= user_capacity:
            break
        if remaining[event_id] <= 0 or blocked[event_id]:
            continue
        arrangement.append(int(event_id))
        blocked |= conflicts.neighbor_mask(event_id)
    return arrangement


def patch_gate(monkeypatch):
    """Force the prefix path on small instances (the production gate
    only engages it at >= _PREFIX_MIN_EVENTS events)."""
    import repro.oracle.greedy as greedy_module

    monkeypatch.setattr(greedy_module, "_PREFIX_MIN_EVENTS", 0)


def test_topk_matches_full_sort_with_ties_at_the_cutoff(monkeypatch):
    """Many events tied exactly at the argpartition cutoff value."""
    patch_gate(monkeypatch)
    n = 100
    scores = np.zeros(n)
    scores[:5] = 2.0       # clear winners
    scores[5:60] = 1.0     # a huge tied band straddling any prefix cutoff
    result = oracle_greedy(scores, graph(n), np.ones(n), user_capacity=3)
    assert result == reference_oracle_greedy(scores, graph(n), np.ones(n), 3)
    assert result == [0, 1, 2]


def test_topk_falls_back_when_conflicts_exhaust_the_prefix(monkeypatch):
    """A clique over the whole prefix forces the full-sort continuation."""
    patch_gate(monkeypatch)
    n = 80
    user_capacity = 2
    prefix = max(4 * user_capacity, 16)
    scores = np.linspace(1.0, 2.0, n)  # descending order = ids n-1, n-2, ...
    top_ids = list(range(n - prefix, n))
    pairs = [(i, j) for i in top_ids for j in top_ids if i < j]
    g = graph(n, pairs)
    result = oracle_greedy(scores, g, np.ones(n), user_capacity=user_capacity)
    expected = reference_oracle_greedy(scores, g, np.ones(n), user_capacity)
    assert result == expected
    # One event from the clique, then the best event outside it.
    assert result == [n - 1, n - prefix - 1]


def test_topk_falls_back_when_capacities_exhaust_the_prefix(monkeypatch):
    patch_gate(monkeypatch)
    n = 60
    scores = np.arange(n, dtype=float)
    remaining = np.ones(n)
    remaining[-30:] = 0.0  # the whole top half is full
    result = oracle_greedy(scores, graph(n), remaining, user_capacity=4)
    expected = reference_oracle_greedy(scores, graph(n), remaining, 4)
    assert result == expected == [29, 28, 27, 26]


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_prefix_and_full_paths_agree_at_the_crossover(offset, monkeypatch):
    """Fresh score draws at |V| around _PREFIX_MIN_EVENTS: the path the
    gate picks returns what the other path (and a full sort) returns."""
    import repro.oracle.greedy as greedy_module
    from repro.datasets.synthetic import SyntheticConfig, build_world

    n = greedy_module._PREFIX_MIN_EVENTS + offset
    conflicts = build_world(
        SyntheticConfig(num_events=n, horizon=10, dim=4, conflict_ratio=0.25, seed=offset + 1)
    ).conflicts
    rng = np.random.default_rng(n)
    remaining = rng.integers(0, 3, size=n).astype(float)
    for _ in range(40):
        scores = rng.normal(size=n)
        user_capacity = int(rng.integers(1, 6))
        gated = oracle_greedy(scores, conflicts, remaining, user_capacity)
        monkeypatch.setattr(greedy_module, "_PREFIX_MIN_EVENTS", 0)
        prefix = oracle_greedy(scores, conflicts, remaining, user_capacity)
        monkeypatch.setattr(greedy_module, "_PREFIX_MIN_EVENTS", n + 1)
        full = oracle_greedy(scores, conflicts, remaining, user_capacity)
        monkeypatch.undo()
        assert gated == prefix == full
        assert full == reference_oracle_greedy(scores, conflicts, remaining, user_capacity)


@pytest.mark.parametrize("trial", range(25))
def test_topk_matches_full_sort_on_adversarial_random_instances(trial, monkeypatch):
    """Randomised duels: discretised scores (heavy ties), dense conflicts,
    random zero capacities, capacities occasionally exceeding |V|."""
    patch_gate(monkeypatch)
    rng = np.random.default_rng(trial)
    n = int(rng.integers(2, 120))
    # Coarse discretisation forces ties everywhere, including at the cutoff.
    scores = rng.integers(0, 4, size=n).astype(float) / 2.0
    remaining = rng.integers(0, 2, size=n).astype(float) * rng.integers(
        1, 4, size=n
    )
    density = float(rng.uniform(0.0, 0.6))
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.uniform() < density
    ]
    g = graph(n, pairs)
    user_capacity = int(rng.integers(1, n + 2))
    result = oracle_greedy(scores, g, remaining, user_capacity)
    assert result == reference_oracle_greedy(scores, g, remaining, user_capacity)
