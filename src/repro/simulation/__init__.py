"""Simulation engine: environments, the round engine, and histories.

* :class:`~repro.simulation.environment.FaseaEnvironment` — the full
  FASEA setting (capacities, conflicts, multi-event arrangements),
  drawing its inputs from a
  :class:`~repro.simulation.environment.RoundStream`.
* :mod:`~repro.simulation.basic` — the basic contextual bandit setting
  of Section 5.2's final experiments (no capacities/conflicts, one
  event per round).
* :mod:`~repro.simulation.fleet` — the one round engine: steps a dict
  of policies over one shared round source
  (:func:`~repro.simulation.fleet.run_policy_fleet`).
  :func:`~repro.simulation.runner.run_policy` is its fleet of one and
  returns a single :class:`~repro.simulation.history.History`.
* :mod:`~repro.simulation.realdata` — the Damai source (same user and
  contexts every round, deterministic feedback) and its runs.
"""

from repro.simulation.basic import build_basic_world
from repro.simulation.environment import FaseaEnvironment
from repro.simulation.history import History, default_checkpoints
from repro.simulation.runner import run_policy

__all__ = [
    "FaseaEnvironment",
    "History",
    "build_basic_world",
    "default_checkpoints",
    "run_policy",
]
