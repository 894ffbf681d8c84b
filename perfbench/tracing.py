"""Span tracing around the public calls of each ``repro`` layer.

The traced run wraps, from the outside, the functions and methods each
layer exposes (``ContextSampler.sample``, ``Platform.commit``,
``oracle_greedy``, each policy's ``select``/``observe`` ...).  Nothing
under ``src/`` knows it is traced: :meth:`Tracer.install` rebinds the
names on their classes and in every loaded ``repro`` module that
imported them, and :meth:`Tracer.uninstall` puts the originals back.

A span is the tuple ``(name_id, start_ns, end_ns, parent, run_id)``;
``parent`` is the index of the enclosing span in the same list (``-1``
at top level).  Spans stay in memory; the benchmark writes them out
once the run has ended.  One synthetic span kind exists: a
``simulation.round`` span opens at every ``UserArrivalStream.next_user``
call (each runner draws exactly one user per round) and closes at the
next one or when the runner returns, so the calls of one round nest
under it and the runner's own per-round work shows as the round's self
time.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

_clock = time.perf_counter_ns

ROUND = "simulation.round"
RUN = "simulation.run"

#: Policy class name -> the label the paper (and ``make_policy``) uses.
POLICY_LABELS = {
    "OptPolicy": "OPT",
    "UcbPolicy": "UCB",
    "ThompsonSamplingPolicy": "TS",
    "EpsilonGreedyPolicy": "eGreedy",
    "ExploitPolicy": "Exploit",
    "RandomPolicy": "Random",
}

Span = Tuple[int, int, int, int, int]
After = Callable[[Sequence[Any], Dict[str, Any], Any, int, int], None]


class Tracer:
    """In-memory span recorder plus the few exact counts spans cannot give."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []
        self._open_rounds: Dict[int, Tuple[int, int]] = {}
        self.run_id = 0
        #: Exact tallies: oracle capacity offered vs events arranged.
        self.counts: Dict[str, int] = {"oracle.capacity": 0, "oracle.arranged": 0}
        #: One ``(cell key, run id, duration_ns, bytes)`` per checkpoint save.
        self.saves: List[Tuple[str, int, int, int]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._round_id = self.intern(ROUND)

    # ------------------------------------------------------------------
    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def reset(self) -> None:
        """Drop every recorded span and count (in place: wrappers hold the lists)."""
        self.spans.clear()
        self.stack.clear()
        self._open_rounds.clear()
        for key in self.counts:
            self.counts[key] = 0
        self.saves.clear()

    def export(self) -> Dict[str, Any]:
        """This process's spans and counts, picklable (a pool worker returns it)."""
        return {
            "names": list(self.names),
            "spans": list(self.spans),
            "counts": dict(self.counts),
            "saves": list(self.saves),
        }

    # ------------------------------------------------------------------
    def _close_round(self, index: int, end: int) -> None:
        start, parent = self._open_rounds.pop(index)
        self.spans[index] = (self._round_id, start, end, parent, self.run_id)

    def _round_boundary(self) -> None:
        """Close the open round (if any) and open the next one."""
        now = _clock()
        stack = self.stack
        if stack and stack[-1] in self._open_rounds:
            self._close_round(stack.pop(), now)
        index = len(self.spans)
        self.spans.append(None)
        self._open_rounds[index] = (now, stack[-1] if stack else -1)
        stack.append(index)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        before: Optional[Callable[[], None]] = None,
        after: Optional[After] = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one span named ``name`` per call."""
        name_id = self.intern(name)
        spans, stack, tracer = self.spans, self.stack, self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before()
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                # A runner returning leaves its last round open: close it.
                while stack[-1] != index:
                    tracer._close_round(stack.pop(), end)
                stack.pop()
                spans[index] = (
                    name_id, start, end, stack[-1] if stack else -1, tracer.run_id
                )
            if after is not None:
                after(args, kwargs, result, start, end)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------------
    def _patch_method(self, cls: type, attr: str, name: str, **hooks: Any) -> None:
        original = getattr(cls, attr)
        self._patches.append((cls, attr, cls.__dict__.get(attr)))
        setattr(cls, attr, self.wrap(name, original, **hooks))

    def _patch_function(self, fn: Callable[..., Any], name: str, **hooks: Any) -> None:
        """Rebind ``fn`` in every loaded ``repro`` module that holds it."""
        import sys

        wrapped = self.wrap(name, fn, **hooks)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def _count_oracle(self, args: Sequence[Any], kwargs: Dict[str, Any], result: Any,
                      start: int, end: int) -> None:
        capacity = kwargs["user_capacity"] if "user_capacity" in kwargs else args[3]
        self.counts["oracle.capacity"] += int(capacity)
        self.counts["oracle.arranged"] += len(result)

    def _record_save(self, args: Sequence[Any], kwargs: Dict[str, Any], result: Any,
                     start: int, end: int) -> None:
        self.saves.append(
            (args[0].spec.key, self.run_id, end - start, os.path.getsize(result))
        )

    def install(self) -> "Tracer":
        """Wrap every traced call site; returns ``self``."""
        global _active
        import repro.bandits as bandits
        from repro.datasets.synthetic import ContextSampler, SyntheticWorld, build_world
        from repro.ebsn.platform import Platform
        from repro.ebsn.users import UserArrivalStream
        from repro.io.checkpoint import RunCheckpointer, pack_json
        from repro.io.runstore import persist_run_telemetry
        from repro.linalg.ridge import RidgeState
        from repro.linalg.sampling import cholesky_sample
        from repro.obs.flight import FlightBuffer, FlightRecorder
        from repro.obs.stream import StreamingSink
        from repro.oracle.greedy import oracle_greedy
        from repro.oracle.random_order import random_arrangement
        from repro.simulation.fleet import run_policy_fleet
        from repro.simulation.runner import run_policy

        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patch_method(ContextSampler, "sample", "datasets.context_draw")
        self._patch_method(SyntheticWorld, "accept_probabilities", "datasets.accept_prob")
        self._patch_function(build_world, "datasets.build_world")
        self._patch_method(
            UserArrivalStream, "next_user", "ebsn.next_user", before=self._round_boundary
        )
        self._patch_method(Platform, "commit", "ebsn.commit")
        self._patch_function(oracle_greedy, "oracle.greedy", after=self._count_oracle)
        self._patch_function(random_arrangement, "oracle.random_order")
        for class_name, label in POLICY_LABELS.items():
            cls = getattr(bandits, class_name)
            self._patch_method(cls, "select", f"bandits.{label}.select")
            self._patch_method(cls, "observe", f"bandits.{label}.observe")
        self._patch_method(RidgeState, "update_batch", "linalg.update_batch")
        self._patch_method(RidgeState, "confidence_widths", "linalg.confidence_widths")
        self._patch_function(cholesky_sample, "linalg.cholesky_sample")
        self._patch_function(run_policy, RUN)
        self._patch_function(run_policy_fleet, RUN)
        self._patch_method(FlightRecorder, "record", "obs.flight_record")
        self._patch_method(FlightBuffer, "record", "obs.flight_buffer_record")
        self._patch_method(StreamingSink, "maybe_flush", "obs.stream_maybe_flush")
        self._patch_method(StreamingSink, "flush", "obs.stream_flush")
        self._patch_function(persist_run_telemetry, "obs.persist")
        self._patch_method(RunCheckpointer, "save", "io.checkpoint_save",
                           after=self._record_save)
        self._patch_function(pack_json, "io.pack_json")
        _active = self
        return self

    def uninstall(self) -> None:
        """Restore every original binding (reverse order)."""
        global _active
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        if _active is self:
            _active = None


#: The tracer installed in this process, if any.  A forked pool worker
#: inherits the parent's; a spawned one installs its own on first use.
_active: Optional[Tracer] = None


def probe_replication_cell(unit: Tuple[int, Any]) -> Dict[str, Any]:
    """Executor probe: run one ``(run_id, ReplicationCell)`` unit, traced.

    Module-level so the process pool pickles it by reference.  Returns
    the cell's histories with the worker's spans, the unit's wall-clock
    start, its duration and pid, and the pickled sizes of the unit and
    of the result the plain executor path would ship back.
    """
    from repro.parallel import run_replication_cell

    run_id, cell = unit
    tracer = _active if _active is not None else Tracer().install()
    tracer.reset()
    tracer.run_id = run_id
    started = time.time()
    begin = time.perf_counter()
    histories = run_replication_cell(cell)
    seconds = time.perf_counter() - begin
    return {
        "histories": histories,
        "trace": tracer.export(),
        "pid": os.getpid(),
        "started": started,
        "seconds": seconds,
        "unit_bytes": len(pickle.dumps(cell)),
        "result_bytes": len(pickle.dumps(histories)),
    }


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in (0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))])


class SpanTable:
    """Durations and self times (ns) per span name, over trace batches."""

    def __init__(self, batches: Sequence[Dict[str, Any]]) -> None:
        self.durations: Dict[str, List[int]] = {}
        self.self_times: Dict[str, List[int]] = {}
        #: Self time (ns) summed per name over spans inside a round.
        self.in_round_self: Dict[str, int] = {}
        for batch in batches:
            names, spans = batch["names"], batch["spans"]
            children = [0] * len(spans)
            for span in spans:
                if span is not None and span[3] >= 0:
                    children[span[3]] += span[2] - span[1]
            round_id = names.index(ROUND)
            for position, span in enumerate(spans):
                if span is None:  # never closed: its call raised mid-round
                    continue
                name = names[span[0]]
                duration = span[2] - span[1]
                self_time = duration - children[position]
                self.durations.setdefault(name, []).append(duration)
                self.self_times.setdefault(name, []).append(self_time)
                if self._inside_round(spans, position, round_id):
                    self.in_round_self[name] = self.in_round_self.get(name, 0) + self_time

    @staticmethod
    def _inside_round(spans: Sequence[Span], position: int, round_id: int) -> bool:
        parent = position
        while parent >= 0 and spans[parent] is not None:
            if spans[parent][0] == round_id:
                return True
            parent = spans[parent][3]
        return False

    def count(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def us(self, name: str, q: float, self_time: bool = False) -> float:
        table = self.self_times if self_time else self.durations
        return quantile(table.get(name, ()), q) / 1e3


def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in BENCHMARK.json order."""
    names = [
        ("datasets.context_draw_us.p50", "us"),
        ("datasets.context_draw_us.p99", "us"),
        ("datasets.context_draw.per_round", "calls/round"),
        ("datasets.accept_prob_us.p50", "us"),
        ("datasets.build_world_ms", "ms"),
        ("ebsn.commit_us.p50", "us"),
        ("ebsn.commit_us.p99", "us"),
        ("ebsn.commit.calls", "count"),
        ("ebsn.next_user_us.p50", "us"),
        ("oracle.greedy_us.p50", "us"),
        ("oracle.greedy_us.p99", "us"),
        ("oracle.greedy.calls", "count"),
        ("oracle.random_order_us.p50", "us"),
        ("oracle.fill_ratio", "ratio"),
    ]
    for label in POLICY_LABELS.values():
        names += [
            (f"bandits.{label}.select_us.p50", "us"),
            (f"bandits.{label}.select_us.p99", "us"),
            (f"bandits.{label}.select_self_us.p50", "us"),
            (f"bandits.{label}.observe_us.p50", "us"),
        ]
    names += [
        ("linalg.update_batch_us.p50", "us"),
        ("linalg.update_batch.calls", "count"),
        ("linalg.confidence_widths_us.p50", "us"),
        ("linalg.cholesky_sample_us.p50", "us"),
        ("simulation.round_us.p50", "us"),
        ("simulation.round_self_us.p50", "us"),
        ("simulation.rounds", "count"),
        ("parallel.spawn_s", "s"),
        ("parallel.unit_s.p50", "s"),
        ("parallel.unit_s.max", "s"),
        ("parallel.queue_wait_s.p50", "s"),
        ("parallel.busy_frac", "ratio"),
        ("parallel.unit_bytes", "bytes"),
        ("parallel.result_bytes", "bytes"),
        ("parallel.retries", "count"),
        ("parallel.failures", "count"),
        ("obs.flight_record_us.p50", "us"),
        ("obs.flight.records", "count"),
        ("obs.flight_bytes", "bytes"),
        ("obs.stream_flush_ms.p50", "ms"),
        ("obs.stream.flushes", "count"),
        ("obs.persist_s", "s"),
        ("obs.metrics_json_bytes", "bytes"),
        ("io.checkpoint.saves", "count"),
        ("io.checkpoint_save_ms.p50", "ms"),
        ("io.pack_json_ms.per_save", "ms"),
        ("io.checkpoint_save_growth", "ratio"),
        ("io.checkpoint_bytes.max", "bytes"),
        ("artifact_mb", "MB"),
        ("tracing_overhead_frac", "ratio"),
    ]
    return names


def layer_metrics(
    batches: Sequence[Dict[str, Any]],
    traced_reps: int,
    rounds_per_rep: int,
    executor: Sequence[Dict[str, Any]],
    artifacts: Dict[str, int],
    overhead_frac: float,
) -> Tuple[Dict[str, float], Dict[str, str], SpanTable]:
    """Every per-layer metric, plus the absent ones with their reason.

    ``executor`` holds one entry per traced executor call: its wall
    start/seconds, worker count and the probe stamps of its units.
    Counts are per traced repetition, so runs of different length
    compare.  An absent metric reads 0 and is listed with the reason.
    """
    table = SpanTable(batches)
    reps = max(1, traced_reps)
    values: Dict[str, float] = {}
    absent: Dict[str, str] = {}

    def timing(metric: str, span: str, q: float, scale: float = 1.0,
               self_time: bool = False) -> None:
        if table.count(span):
            values[metric] = table.us(span, q, self_time) * scale
        else:
            values[metric] = 0.0
            absent[metric] = f"no {span} call on this workload"

    def per_rep(metric: str, span: str) -> None:
        values[metric] = table.count(span) / reps
        if not table.count(span):
            absent[metric] = f"no {span} call on this workload"

    timing("datasets.context_draw_us.p50", "datasets.context_draw", 0.5)
    timing("datasets.context_draw_us.p99", "datasets.context_draw", 0.99)
    values["datasets.context_draw.per_round"] = (
        table.count("datasets.context_draw") / (reps * rounds_per_rep)
    )
    timing("datasets.accept_prob_us.p50", "datasets.accept_prob", 0.5)
    timing("datasets.build_world_ms", "datasets.build_world", 0.5, 1e-3)
    timing("ebsn.commit_us.p50", "ebsn.commit", 0.5)
    timing("ebsn.commit_us.p99", "ebsn.commit", 0.99)
    per_rep("ebsn.commit.calls", "ebsn.commit")
    timing("ebsn.next_user_us.p50", "ebsn.next_user", 0.5)
    timing("oracle.greedy_us.p50", "oracle.greedy", 0.5)
    timing("oracle.greedy_us.p99", "oracle.greedy", 0.99)
    per_rep("oracle.greedy.calls", "oracle.greedy")
    timing("oracle.random_order_us.p50", "oracle.random_order", 0.5)
    capacity = sum(batch["counts"]["oracle.capacity"] for batch in batches)
    arranged = sum(batch["counts"]["oracle.arranged"] for batch in batches)
    values["oracle.fill_ratio"] = arranged / capacity if capacity else 0.0
    for label in POLICY_LABELS.values():
        select, observe = f"bandits.{label}.select", f"bandits.{label}.observe"
        timing(f"bandits.{label}.select_us.p50", select, 0.5)
        timing(f"bandits.{label}.select_us.p99", select, 0.99)
        timing(f"bandits.{label}.select_self_us.p50", select, 0.5, self_time=True)
        timing(f"bandits.{label}.observe_us.p50", observe, 0.5)
    timing("linalg.update_batch_us.p50", "linalg.update_batch", 0.5)
    per_rep("linalg.update_batch.calls", "linalg.update_batch")
    timing("linalg.confidence_widths_us.p50", "linalg.confidence_widths", 0.5)
    timing("linalg.cholesky_sample_us.p50", "linalg.cholesky_sample", 0.5)
    timing("simulation.round_us.p50", ROUND, 0.5)
    timing("simulation.round_self_us.p50", ROUND, 0.5, self_time=True)
    values["simulation.rounds"] = float(rounds_per_rep)

    _executor_metrics(executor, values, absent)

    timing("obs.flight_record_us.p50", "obs.flight_record", 0.5)
    per_rep("obs.flight.records", "obs.flight_record")
    timing("obs.stream_flush_ms.p50", "obs.stream_flush", 0.5, 1e-3)
    per_rep("obs.stream.flushes", "obs.stream_flush")
    timing("obs.persist_s", "obs.persist", 0.5, 1e-6)
    for metric, key in (("obs.flight_bytes", "decisions.jsonl"),
                        ("obs.metrics_json_bytes", "metrics.json")):
        values[metric] = float(artifacts.get(key, 0))
        if key not in artifacts:
            absent[metric] = f"no {key} is written on this workload"
    values["artifact_mb"] = artifacts.get("total", 0) / 1e6

    per_rep("io.checkpoint.saves", "io.checkpoint_save")
    timing("io.checkpoint_save_ms.p50", "io.checkpoint_save", 0.5, 1e-3)
    saves_count = table.count("io.checkpoint_save")
    values["io.pack_json_ms.per_save"] = (
        sum(table.durations.get("io.pack_json", ())) / 1e6 / saves_count if saves_count else 0.0
    )
    if not saves_count:
        absent["io.pack_json_ms.per_save"] = "no checkpoint is saved on this workload"
    saves = [save for batch in batches for save in batch["saves"]]
    by_cell: Dict[Tuple[str, int], List[int]] = {}
    for key, run_id, duration, _ in saves:
        by_cell.setdefault((key, run_id), []).append(duration)
    growth = [cell[-1] / cell[0] for cell in by_cell.values() if cell[0] > 0]
    values["io.checkpoint_save_growth"] = quantile(growth, 0.5)
    values["io.checkpoint_bytes.max"] = float(max((s[3] for s in saves), default=0))
    if not saves:
        for metric in ("io.checkpoint_save_growth", "io.checkpoint_bytes.max"):
            absent[metric] = "no checkpoint is saved on this workload"
    values["tracing_overhead_frac"] = overhead_frac
    return values, absent, table


def _executor_metrics(
    executor: Sequence[Dict[str, Any]],
    values: Dict[str, float],
    absent: Dict[str, str],
) -> None:
    names = ("parallel.spawn_s", "parallel.unit_s.p50", "parallel.unit_s.max",
             "parallel.queue_wait_s.p50", "parallel.busy_frac", "parallel.unit_bytes",
             "parallel.result_bytes", "parallel.retries", "parallel.failures")
    if not executor:
        for name in names:
            values[name] = 0.0
            absent[name] = "the process pool is not used on this workload"
        return
    spawn, units, waits, busy, unit_bytes, result_bytes = [], [], [], [], [], []
    failures = 0
    for call in executor:
        stamps = call["units"]
        waits_here = [stamp["started"] - call["started"] for stamp in stamps]
        spawn.append(min(waits_here))
        waits += waits_here
        units += [stamp["seconds"] for stamp in stamps]
        busy.append(
            sum(stamp["seconds"] for stamp in stamps) / (call["workers"] * call["seconds"])
        )
        unit_bytes += [stamp["unit_bytes"] for stamp in stamps]
        result_bytes += [stamp["result_bytes"] for stamp in stamps]
        failures += call["failures"]
    values["parallel.spawn_s"] = quantile(spawn, 0.5)
    values["parallel.unit_s.p50"] = quantile(units, 0.5)
    values["parallel.unit_s.max"] = max(units)
    values["parallel.queue_wait_s.p50"] = quantile(waits, 0.5)
    values["parallel.busy_frac"] = quantile(busy, 0.5)
    values["parallel.unit_bytes"] = quantile(unit_bytes, 0.5)
    values["parallel.result_bytes"] = quantile(result_bytes, 0.5)
    # The probe calls the executor with retries=0 and keep_going=False:
    # a crashed or raising unit aborts the repetition (and is counted in
    # the run's ``failed``), so both read 0 on every run that completes.
    values["parallel.retries"] = 0.0
    values["parallel.failures"] = float(failures)


def round_breakdown(table: SpanTable, rounds: int) -> List[Tuple[str, float]]:
    """Self time per round (µs) of every span name inside rounds."""
    rounds = max(1, rounds)
    rows = [(name, total / 1e3 / rounds) for name, total in table.in_round_self.items()]
    return sorted(rows, key=lambda row: -row[1])


def write_spans(path: str, batches: Sequence[Dict[str, Any]]) -> None:
    """Write every batch's spans as JSON lines: one header per batch."""
    import json

    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for number, batch in enumerate(batches):
            handle.write(json.dumps({"batch": number, "pid": batch.get("pid"),
                                     "names": batch["names"]}) + "\n")
            for span in batch["spans"]:
                handle.write(json.dumps(span) + "\n")
