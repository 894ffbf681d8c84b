"""Parameter-grid sweeps over synthetic configurations.

Figures 3-9 are all one-factor sweeps; this module offers the general
tool: declare a grid of config overrides, run the policy suite on every
cell, and collect scalar outcomes into a tidy list of records (ready
for a :class:`~repro.io.runstore.RunStore`, CSV, or ad-hoc analysis).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bandits import POLICY_NAMES
from repro.datasets.synthetic import SyntheticConfig
from repro.exceptions import ConfigurationError
from repro.parallel import GridCell, GridCellResult, run_grid_cell, run_work_units


#: One grid cell's overrides and per-policy outcomes (the cell result).
SweepCell = GridCellResult


def expand_grid(axes: Dict[str, Sequence[object]]) -> List[Dict[str, object]]:
    """Cartesian product of named value axes, in insertion order.

    ``expand_grid({"dim": [1, 5], "conflict_ratio": [0, 1]})`` yields
    four override dicts.
    """
    if not axes:
        raise ConfigurationError("need at least one axis")
    for name, values in axes.items():
        if not values:
            raise ConfigurationError(f"axis {name!r} has no values")
    names = list(axes)
    return [
        dict(zip(names, combination))
        for combination in itertools.product(*axes.values())
    ]


def sweep(
    base: SyntheticConfig,
    axes: Dict[str, Sequence[object]],
    horizon: Optional[int] = None,
    policy_names: Sequence[str] = POLICY_NAMES,
    run_seed: int = 0,
    policy_seed: int = 1,
    jobs: Optional[int] = 1,
) -> List[SweepCell]:
    """Run the policy suite on every cell of the grid.

    Each cell shares the run seed, so differences between cells reflect
    the swept parameters plus world regeneration, not stream luck.

    Every combination is one :class:`~repro.parallel.GridCell`;
    ``jobs`` fans the cells out over a process pool (``0`` = all CPUs,
    ``1`` runs them inline).  Cells are independent, results come back
    in grid order, and the metrics are identical for every ``jobs``
    value.  An ambient executor checkpoint caches finished cells, so a
    resumed ``fasea run --checkpoint`` replays them.
    """
    horizon_default = horizon if horizon is not None else base.horizon
    work = []
    for overrides in expand_grid(axes):
        config = base.with_overrides(**overrides)
        work.append(
            GridCell(
                config=config,
                overrides=tuple(sorted(overrides.items())),
                horizon=min(horizon_default, config.horizon),
                policy_names=tuple(policy_names),
                run_seed=run_seed,
                policy_seed=policy_seed,
            )
        )
    return run_work_units(run_grid_cell, work, jobs=jobs)


def best_policy_per_cell(cells: Sequence[SweepCell]) -> Dict[Tuple, str]:
    """The learner with the lowest regret in each cell (OPT excluded)."""
    return {
        cell.overrides: min(cell.total_regrets, key=cell.total_regrets.get)
        for cell in cells
    }
