"""Runners for the paper's Tables 5, 6 and 7.

Tables 5-6 report per-round running time and memory as |V| and d grow;
we reproduce the *orderings and growth trends* (the paper's absolute
numbers come from C++ on different hardware).  Table 7 reports accept
ratios on the real dataset after 1000 rounds for all 19 users under
both capacity settings, including the Full-Knowledge and OnlineGreedy
[39] reference rows.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.baselines import OnlineGreedyPolicy
from repro.bandits import POLICY_NAMES, Policy, make_policy
from repro.datasets.damai import load_damai
from repro.datasets.synthetic import build_world
from repro.experiments.config import base_config
from repro.experiments.reporting import ExperimentResult, TableBlock
from repro.metrics.resources import measure_policy_memory
from repro.simulation.realdata import (
    full_knowledge_accept_ratio,
    resolve_capacity,
    run_real_fleet,
    run_real_policy,
)


def _resource_table(
    experiment_id: str,
    title: str,
    column_label: str,
    configs: Sequence,
    column_values: Sequence,
    dim_for: Callable[[object], int],
    rounds: int,
    policy_seed: int,
) -> ExperimentResult:
    """Shared machinery for Tables 5 and 6."""
    times: Dict[str, List[float]] = {name: [] for name in POLICY_NAMES}
    memories: Dict[str, List[float]] = {name: [] for name in POLICY_NAMES}
    for config in configs:
        world = build_world(config)
        for name in POLICY_NAMES:
            avg_time, peak = measure_policy_memory(
                lambda n=name, c=config: make_policy(
                    n, dim=dim_for(c), seed=policy_seed
                ),
                world,
                rounds=rounds,
            )
            times[name].append(avg_time)
            memories[name].append(peak / (1024.0 * 1024.0))
    headers = ["Algorithm"] + [f"{column_label}={v}" for v in column_values]
    time_rows = [[name] + times[name] for name in POLICY_NAMES]
    memory_rows = [[name] + memories[name] for name in POLICY_NAMES]
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        params={
            "rounds": rounds,
            column_label: ",".join(str(v) for v in column_values),
        },
        tables=[
            TableBlock("avg time (sec/round)", headers, time_rows),
            TableBlock("peak traced memory (MB)", headers, memory_rows),
        ],
        notes=(
            "Expected orderings: Random fastest, then eGreedy/Exploit, then "
            "TS, then UCB (whose per-event bound dominates as |V| grows); "
            "time and memory grow with the swept parameter."
        ),
    )


def table5(
    scale: str = "paper",
    seed: int = 0,
    policy_seed: int = 1,
    rounds: int = 200,
    num_events_values: Sequence[int] = (100, 500, 1000),
) -> ExperimentResult:
    """Table 5: time/memory with varying |V| (timing runs are short, so
    the paper-scale |V| values are the default here)."""
    configs = [
        base_config(scale, seed, num_events=v) if scale == "paper"
        else base_config(scale, seed).with_overrides(num_events=v)
        for v in num_events_values
    ]
    return _resource_table(
        experiment_id="tab5",
        title="Avg running time and memory, varying |V|",
        column_label="|V|",
        configs=configs,
        column_values=num_events_values,
        dim_for=lambda c: c.dim,
        rounds=rounds,
        policy_seed=policy_seed,
    )


def table6(
    scale: str = "paper",
    seed: int = 0,
    policy_seed: int = 1,
    rounds: int = 200,
    dims: Sequence[int] = (1, 5, 10, 15),
) -> ExperimentResult:
    """Table 6: time/memory with varying d."""
    configs = [
        base_config(scale, seed, dim=d) if scale == "paper"
        else base_config(scale, seed).with_overrides(dim=d)
        for d in dims
    ]
    return _resource_table(
        experiment_id="tab6",
        title="Avg running time and memory, varying d",
        column_label="d",
        configs=configs,
        column_values=dims,
        dim_for=lambda c: c.dim,
        rounds=rounds,
        policy_seed=policy_seed,
    )


def table7(
    seed: int = 2016,
    policy_seed: int = 1,
    horizon: int = 1000,
    scale: str = "scaled",
) -> ExperimentResult:
    """Table 7: real-dataset accept ratios after ``horizon`` rounds.

    One block per capacity setting (c_u = 5 and c_u = full), one column
    per user, rows for the five policies plus Full Knowledge, the
    OnlineGreedy [39] baseline (single-round, as in the paper) and the
    users' full capacities.
    """
    dataset = load_damai(seed)
    users = dataset.users
    headers = ["Algorithm"] + [f"u{u.user_id + 1}" for u in users]
    tables: List[TableBlock] = []
    for mode in (5, "full"):
        ratios: Dict[str, List[float]] = {name: [] for name in POLICY_NAMES}
        for user in users:
            fleet = {
                name: make_policy(name, dim=dataset.dim, seed=policy_seed)
                for name in POLICY_NAMES
            }
            histories = run_real_fleet(fleet, dataset, user, mode, horizon)
            for name, history in histories.items():
                ratios[name].append(round(history.overall_accept_ratio, 2))
        rows: List[List[object]] = [[name] + ratios[name] for name in POLICY_NAMES]
        rows.append(
            ["Full Kn."]
            + [
                round(full_knowledge_accept_ratio(dataset, user, mode), 2)
                for user in users
            ]
        )
        online_ratios = []
        for user in users:
            baseline = OnlineGreedyPolicy(
                dataset.platform_events(), user.preferred_tags
            )
            # OnlineGreedy never adapts, so one round suffices (the paper
            # reports its single-round accept ratio for the same reason).
            history = run_real_policy(baseline, dataset, user, mode, 1)
            online_ratios.append(round(history.overall_accept_ratio, 2))
        rows.append(["Online[39]"] + online_ratios)
        if mode == "full":
            rows.append(["c_u"] + [resolve_capacity(u, "full") for u in users])
        title = "accept ratios, c_u = 5" if mode == 5 else "accept ratios, c_u = full"
        tables.append(TableBlock(title, headers, rows))
    return ExperimentResult(
        experiment_id="tab7",
        title=f"Real dataset accept ratios after {horizon} rounds",
        params={"dataset_seed": seed, "horizon": horizon},
        tables=tables,
        notes=(
            "Expected: UCB best for most users; Exploit can lock onto "
            "all-reject arrangements (accept ratio 0) for some users; TS "
            "barely above Random; Online[39] fixed, beaten by UCB at c_u=5."
        ),
    )
