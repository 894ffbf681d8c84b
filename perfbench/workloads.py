"""The four benchmark workloads.

Each workload turns the benchmark seed into plain inputs (ints only,
derived with :mod:`random` so no ``repro`` import happens before the
set-up clock starts), then:

* :meth:`Workload.prepare` — everything a user process does before its
  first call into the round runner or executor: ``import repro``, the
  config, the world, the policies, recorders and the output directory;
* :meth:`Workload.execute` — that call (the timed region);
* :meth:`Workload.outputs` — one digestible record per work unit;
* :meth:`Workload.check` — the reference check of one repetition's
  outputs, run outside the timed region.

``repro`` only ever sees configs and seeds derived from the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import tempfile
import time
from typing import Any, Dict, List, Tuple

from perfbench import tracing

#: The five learners of the paper; OPT is added by every entry point.
POLICIES = ("UCB", "TS", "eGreedy", "Exploit", "Random")
OPT = "OPT"


def sha256_hex(*parts: bytes) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part)
    return hasher.hexdigest()


def _history_digest(history: Any) -> str:
    return sha256_hex(history.rewards.tobytes(), history.arranged.tobytes())


class Workload:
    """One set of inputs and the entry point that runs them."""

    name = ""
    why = ""

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        rng = random.Random(f"{self.name}:{seed}")
        self.world_seed = rng.randrange(2**31)
        self.run_seed = rng.randrange(2**31)
        self.policy_seed = rng.randrange(2**31)
        self.seeds = (rng.randrange(2**31), rng.randrange(2**31))

    # Sizes -------------------------------------------------------------
    def policy_rounds(self) -> int:
        """(policies incl. OPT) x rounds in one repetition."""
        raise NotImplementedError

    def env_rounds(self) -> int:
        """Environment rounds (user arrivals on one stream) per repetition."""
        raise NotImplementedError

    # Phases ------------------------------------------------------------
    def prepare(self) -> Dict[str, Any]:
        raise NotImplementedError

    def execute(self, ctx: Dict[str, Any]) -> Any:
        raise NotImplementedError

    def execute_traced(self, ctx: Dict[str, Any], tracer: tracing.Tracer,
                       executor: List[Dict[str, Any]]) -> Any:
        return self.execute(ctx)

    def outputs(self, ctx: Dict[str, Any], result: Any) -> Dict[str, Any]:
        """Work unit -> comparable record (two equal runs give equal records)."""
        raise NotImplementedError

    def perturb(self, outputs: Dict[str, Any]) -> None:
        """Corrupt one reward of the outputs (self-test of the checks)."""
        raise NotImplementedError

    def check(self, ctx: Dict[str, Any], outputs: Dict[str, Any]) -> Dict[str, str]:
        """Unit -> reason, for every unit that fails the reference check."""
        raise NotImplementedError

    def artifacts(self, ctx: Dict[str, Any]) -> Dict[str, int]:
        """Bytes the repetition left on disk, by file kind plus ``total``."""
        return {"total": 0}

    def cleanup(self, ctx: Dict[str, Any]) -> None:
        pass


# ----------------------------------------------------------------------
class Fig1Paper(Workload):
    name = "fig1-paper"
    why = (
        "paper-scale fleet run (|V|=500): oracle, context draw and policy "
        "scoring dominate; parallel, obs and io do nothing"
    )

    def horizon(self) -> int:
        return 40 if self.tiny else 500

    def prefix(self) -> int:
        return 20 if self.tiny else 300

    def policy_rounds(self) -> int:
        return (1 + len(POLICIES)) * self.horizon()

    def env_rounds(self) -> int:
        return self.horizon()

    def prepare(self) -> Dict[str, Any]:
        from repro.bandits import OptPolicy, make_policy
        from repro.datasets.synthetic import SyntheticConfig, build_world
        from repro.experiments.config import (
            DEFAULT_ALPHA,
            DEFAULT_DELTA,
            DEFAULT_EPSILON,
            DEFAULT_LAM,
        )

        config = SyntheticConfig.paper_default(seed=self.world_seed)
        world = build_world(config)

        def make(name: str) -> Any:
            if name == OPT:
                return OptPolicy(world.theta)
            return make_policy(name, dim=config.dim, lam=DEFAULT_LAM, alpha=DEFAULT_ALPHA,
                               delta=DEFAULT_DELTA, epsilon=DEFAULT_EPSILON,
                               seed=self.policy_seed)

        # compare_policies builds its own copies; these serve the check.
        policies = {name: make(name) for name in (OPT, *POLICIES)}
        return {"config": config, "world": world, "policies": policies}

    def execute(self, ctx: Dict[str, Any]) -> Any:
        from repro.experiments.config import compare_policies

        return compare_policies(ctx["config"], horizon=self.horizon(),
                                run_seed=self.run_seed, policy_seed=self.policy_seed)

    def outputs(self, ctx: Dict[str, Any], result: Any) -> Dict[str, Any]:
        histories = {OPT: result.opt, **result.policies}
        return {name: history for name, history in histories.items()}

    def perturb(self, outputs: Dict[str, Any]) -> None:
        outputs["UCB"].rewards[0] += 1.0

    def check(self, ctx: Dict[str, Any], outputs: Dict[str, Any]) -> Dict[str, str]:
        """A prefix of each fleet history equals a plain ``run_policy``."""
        from repro.obs.core import NULL_OBS
        from repro.simulation.runner import run_policy

        failures = {}
        prefix = self.prefix()
        for name, policy in ctx["policies"].items():
            alone = run_policy(policy, ctx["world"], horizon=prefix,
                               run_seed=self.run_seed, obs=NULL_OBS)
            fleet = outputs[name]
            if (fleet.rewards[:prefix].tobytes() != alone.rewards.tobytes()
                    or fleet.arranged[:prefix].tobytes() != alone.arranged.tobytes()):
                failures[name] = f"first {prefix} rounds differ from run_policy"
        return failures


# ----------------------------------------------------------------------
class ReplicateSerial(Workload):
    name = "replicate-serial"
    why = (
        "plain fasea replicate at jobs=1: the per-policy run_policy loop, "
        "6 context draws a round, past capacity exhaustion"
    )
    jobs = 1

    def horizon(self) -> int:
        return 40 if self.tiny else 500

    def config(self) -> Any:
        from repro.datasets.synthetic import SyntheticConfig

        # scaled_default with T and capacities shrunk by the same factor
        # (10^4 -> horizon), so OPT still runs out of event capacity at
        # about 70% of the horizon, as in the paper.
        scale = self.horizon() / 10_000
        return SyntheticConfig.scaled_default(
            seed=self.world_seed, capacity_mean=90.0 * scale, capacity_std=45.0 * scale
        )

    def policy_rounds(self) -> int:
        return len(self.seeds) * (1 + len(POLICIES)) * self.horizon()

    def env_rounds(self) -> int:
        return len(self.seeds) * self.horizon()

    def picked_seed(self) -> int:
        return self.seeds[self.seed % len(self.seeds)]

    def prepare(self) -> Dict[str, Any]:
        # replicate_policies builds each seed's world and policies itself,
        # so set-up here is the import and the config.
        from repro.analysis import replicate_policies  # noqa: F401

        return {"config": self.config()}

    def execute(self, ctx: Dict[str, Any]) -> Any:
        from repro.analysis import replicate_policies

        return replicate_policies(ctx["config"], seeds=self.seeds, horizon=self.horizon(),
                                  policy_seed=self.policy_seed, jobs=self.jobs)

    def cell(self, ctx: Dict[str, Any], seed: int) -> Any:
        from repro.parallel import ReplicationCell

        return ReplicationCell(config=ctx["config"], seed=seed, horizon=self.horizon(),
                               policy_names=POLICIES, policy_seed=self.policy_seed)

    @staticmethod
    def _seed_record(histories: Dict[str, Any]) -> Dict[str, Tuple[float, float]]:
        opt = histories[OPT].total_reward
        return {
            name: (history.overall_accept_ratio,
                   0.0 if name == OPT else opt - history.total_reward)
            for name, history in histories.items()
        }

    def outputs(self, ctx: Dict[str, Any], result: Any) -> Dict[str, Any]:
        if isinstance(result, list):  # traced pool: one probe outcome per seed
            return {seed: self._seed_record(out["histories"])
                    for seed, out in zip(self.seeds, result)}
        records = {}
        for index, seed in enumerate(self.seeds):
            records[seed] = {
                name: (result.accept_ratios[name][index],
                       0.0 if name == OPT else result.total_regrets[name][index])
                for name in (OPT, *POLICIES)
            }
        return records

    def perturb(self, outputs: Dict[str, Any]) -> None:
        record = outputs[self.picked_seed()]
        ratio, regret = record["UCB"]
        record["UCB"] = (ratio, regret + 1.0)

    def check(self, ctx: Dict[str, Any], outputs: Dict[str, Any]) -> Dict[str, str]:
        """The picked seed equals an inline ``run_replication_cell`` exactly."""
        from repro.parallel import run_replication_cell

        seed = self.picked_seed()
        expected = self._seed_record(run_replication_cell(self.cell(ctx, seed)))
        if outputs[seed] != expected:
            return {seed: "accept ratio or regret differs from run_replication_cell"}
        return {}


class ReplicatePool(ReplicateSerial):
    name = "replicate-pool"
    why = (
        "the same inputs as replicate-serial at jobs=2: pool spawn, pickling "
        "and unit imbalance, against identical serial work"
    )
    jobs = 2

    def execute_traced(self, ctx: Dict[str, Any], tracer: tracing.Tracer,
                       executor: List[Dict[str, Any]]) -> Any:
        """``run_work_units`` over the probe instead of the plain cell runner."""
        from repro.parallel import UnitFailure, resolve_jobs, run_work_units

        units = [(tracer.run_id, self.cell(ctx, seed)) for seed in self.seeds]
        started = time.time()
        begin = time.perf_counter()
        outcomes = run_work_units(tracing.probe_replication_cell, units, jobs=self.jobs)
        seconds = time.perf_counter() - begin
        executor.append({
            "started": started,
            "seconds": seconds,
            "workers": min(resolve_jobs(self.jobs), len(units), os.cpu_count() or 1),
            "units": outcomes,
            "failures": sum(isinstance(out, UnitFailure) for out in outcomes),
        })
        return outcomes


# ----------------------------------------------------------------------
class QuickstartTelemetry(Workload):
    name = "quickstart-telemetry"
    why = (
        "the quickstart path with obs, flight log, streaming sink and round "
        "checkpoints: the only workload that writes"
    )

    def horizon(self) -> int:
        return 40 if self.tiny else 400

    def every(self) -> int:
        return 10 if self.tiny else 100

    def prefix(self) -> int:
        return 20 if self.tiny else 300

    def policy_rounds(self) -> int:
        return (1 + len(POLICIES)) * self.horizon()

    def env_rounds(self) -> int:
        return self.horizon()

    def prepare(self) -> Dict[str, Any]:
        """Recorders and checkpoint wiring as ``fasea quickstart`` builds them."""
        from repro.datasets.synthetic import SyntheticConfig
        from repro.io.checkpoint import (
            CellCheckpointSpec,
            ExecutorCheckpoint,
            write_manifest,
        )
        from repro.obs.core import Instrumentation
        from repro.obs.flight import FlightRecorder, make_run_header
        from repro.obs.stream import StreamingSink
        from repro.parallel import PolicyRunCell

        config = SyntheticConfig.scaled_default(seed=self.world_seed)
        out = tempfile.mkdtemp(prefix="quickstart-", dir=self.workdir)
        ckpt_dir = os.path.join(out, "checkpoints")
        names = (OPT, *POLICIES)
        write_manifest(ckpt_dir, {
            "command": "quickstart", "horizon": self.horizon(), "run_seed": self.run_seed,
            "policy_seed": self.policy_seed, "policies": list(POLICIES), "flight": True,
            "obs": True, "every": self.every(),
        })
        obs = Instrumentation()
        sink = StreamingSink(out, obs)
        obs.stream_sink = sink
        specs = [{"name": OPT}] + [{"name": n, "seed": self.policy_seed} for n in POLICIES]
        recorder = FlightRecorder(
            out, run=make_run_header(config, self.horizon(), self.run_seed, specs)
        )
        obs.flight_recorder = recorder
        cells = [
            PolicyRunCell(
                config=config, policy_name=name, horizon=self.horizon(),
                run_seed=self.run_seed, policy_seed=self.policy_seed,
                checkpoint=CellCheckpointSpec(directory=ckpt_dir, key=name,
                                              every=self.every()),
            )
            for name in names
        ]
        return {"config": config, "out": out, "obs": obs, "sink": sink,
                "recorder": recorder, "checkpoint": ExecutorCheckpoint(ckpt_dir),
                "cells": cells, "names": names}

    def execute(self, ctx: Dict[str, Any]) -> Any:
        """The run plus what the user waits for after it: close and persist."""
        from repro.io.runstore import persist_run_telemetry
        from repro.obs.core import use
        from repro.parallel import run_policy_run_cell, run_work_units

        try:
            with use(ctx["obs"]):
                histories = run_work_units(run_policy_run_cell, ctx["cells"], jobs=1,
                                           checkpoint=ctx["checkpoint"])
        finally:
            ctx["sink"].close()
            ctx["recorder"].close()
        persist_run_telemetry(ctx["out"], ctx["obs"])
        return dict(zip(ctx["names"], histories))

    def outputs(self, ctx: Dict[str, Any], result: Any) -> Dict[str, Any]:
        """Histories, plus the decision log folded into every unit's record."""
        decisions = self._decisions(ctx["out"])
        return {name: (history, decisions.get(name)) for name, history in result.items()}

    @staticmethod
    def _decisions(out: str) -> Dict[str, Any]:
        """Policy -> {round: reward} from decisions.jsonl; '' key for bad lines."""
        per_policy: Dict[str, Any] = {}
        with open(os.path.join(out, "decisions.jsonl"), encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if record.get("kind") == "header":
                    continue
                if record.get("kind") != "decision":
                    per_policy.setdefault("", []).append(record.get("kind"))
                    continue
                rounds = per_policy.setdefault(record["policy"], {})
                rounds.setdefault(record["t"], []).append(record["reward"])
        return per_policy

    def perturb(self, outputs: Dict[str, Any]) -> None:
        outputs["UCB"][0].rewards[0] += 1.0

    def check(self, ctx: Dict[str, Any], outputs: Dict[str, Any]) -> Dict[str, str]:
        """Rewards equal a telemetry-off run over a prefix, and the decision
        log holds exactly one record per (round, policy) matching them."""
        from repro.obs.core import NULL_OBS, use
        from repro.parallel import PolicyRunCell, run_policy_run_cell

        failures: Dict[str, str] = {}
        prefix = self.prefix()
        horizon = self.horizon()
        for name, (history, rounds) in outputs.items():
            cell = PolicyRunCell(config=ctx["config"], policy_name=name, horizon=prefix,
                                 run_seed=self.run_seed, policy_seed=self.policy_seed)
            with use(NULL_OBS):
                plain = run_policy_run_cell(cell)
            if history.rewards[:prefix].tobytes() != plain.rewards.tobytes():
                failures[name] = f"first {prefix} rewards differ from a telemetry-off run"
            elif rounds is None or sorted(rounds) != list(range(1, horizon + 1)):
                failures[name] = "decisions.jsonl lacks a record for some round"
            elif any(len(values) != 1 for values in rounds.values()):
                failures[name] = "decisions.jsonl repeats a (round, policy) record"
            elif [rounds[t][0] for t in range(1, horizon + 1)] != history.rewards.tolist():
                failures[name] = "decisions.jsonl rewards differ from the history"
        extra = set(outputs) ^ {name for name in self._decisions(ctx["out"])}
        for name in sorted(extra - set(failures)):
            failures[name or "decisions.jsonl"] = "unexpected records in decisions.jsonl"
        return failures

    def artifacts(self, ctx: Dict[str, Any]) -> Dict[str, int]:
        sizes: Dict[str, int] = {"total": 0}
        for root, _, files in os.walk(ctx["out"]):
            for filename in files:
                size = os.path.getsize(os.path.join(root, filename))
                sizes["total"] += size
                if root == ctx["out"]:
                    sizes[filename] = size
        return sizes

    def cleanup(self, ctx: Dict[str, Any]) -> None:
        shutil.rmtree(ctx["out"], ignore_errors=True)


WORKLOADS = {
    cls.name: cls for cls in (Fig1Paper, ReplicateSerial, ReplicatePool, QuickstartTelemetry)
}


def unit_digest(record: Any) -> str:
    """Stable digest of one unit's output record."""
    if hasattr(record, "rewards"):
        return _history_digest(record)
    if isinstance(record, tuple) and record and hasattr(record[0], "rewards"):
        history, rounds = record
        return sha256_hex(_history_digest(history).encode(),
                          json.dumps(rounds, sort_keys=True).encode())
    return sha256_hex(repr(record).encode())


def make(name: str, seed: int, tiny: bool, workdir: str) -> Workload:
    return WORKLOADS[name](seed, tiny, workdir)

