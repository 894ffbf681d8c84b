#!/usr/bin/env python
"""Multi-seed replication with confidence intervals and a run store.

The paper reports single runs; this example re-runs the default-setting
comparison across several seeds, attaches bootstrap confidence
intervals to each policy's accept ratio, logs everything into a SQLite
run store, and checks the headline claims *dominance-style*: does UCB
beat TS on every single seed?

Run with::

    python examples/replication_study.py [num_seeds]
"""

import sys

from repro.analysis import replicate_policies
from repro.analysis.convergence import detect_plateau
from repro.bandits import OptPolicy
from repro.datasets.synthetic import SyntheticConfig, build_world
from repro.experiments.reporting import format_table
from repro.io.runstore import RunStore
from repro.simulation.runner import run_policy

HORIZON = 3000


def main(num_seeds: int = 5) -> None:
    config = SyntheticConfig.scaled_default().with_overrides(horizon=HORIZON)
    print(f"Replicating the default setting across {num_seeds} seeds "
          f"(T={HORIZON}, |V|={config.num_events}, d={config.dim}) ...")

    with RunStore() as store:
        result = replicate_policies(
            config,
            seeds=range(num_seeds),
            horizon=HORIZON,
            store=store,
            experiment="default-replication",
        )
        rows = []
        for policy, mean, low, high, regret in result.summary_rows():
            rows.append(
                [
                    policy,
                    f"{mean:.3f}",
                    f"[{low:.3f}, {high:.3f}]",
                    "-" if regret is None else f"{regret:.0f}",
                ]
            )
        print()
        print(format_table(["policy", "accept_ratio", "95% CI", "mean_regret"], rows))

        print("\nDominance across seeds (the paper's claims, seed by seed):")
        for better, worse in [("UCB", "TS"), ("Exploit", "TS"), ("TS", "Random")]:
            verdict = result.dominates(better, worse)
            print(f"  {better} > {worse} on every seed: {verdict}")

        print("\nStored runs:", store.count_runs())
        stats = store.policy_statistics("default-replication")
        ucb = stats["UCB"]
        print(
            f"SQL aggregate for UCB: n={ucb['count']:.0f}, accept ratio in "
            f"[{ucb['min_accept_ratio']:.3f}, {ucb['max_accept_ratio']:.3f}]"
        )

    # Bonus: locate the capacity-exhaustion plateau on one seed.
    world = build_world(config)
    opt_history = run_policy(OptPolicy(world.theta), world, horizon=HORIZON)
    plateau = detect_plateau(
        opt_history.cumulative_rewards(), window=200, tolerance=0.01
    )
    if plateau is None:
        print("\nOPT never plateaus at this horizon (capacities outlast users).")
    else:
        print(
            f"\nOPT's cumulative reward plateaus at t={plateau} "
            f"({plateau / HORIZON:.0%} of the horizon) - the step where the "
            "paper's regret curves drop."
        )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
