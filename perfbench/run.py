"""FASEA benchmark: end-to-end metrics of one workload, or its traced layers.

Run from the repository root::

    python3 perfbench/run.py --workload fig1-paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload fig1-paper --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` reports the end-to-end metrics, measured with tracing
off: ``setup_s`` is the median over fresh set-up processes, and
``policy_rounds_per_s`` the best of the repetitions of one fixed unit
of work, repeated for ``--seconds``.  ``--trace 1`` alternates plain
and traced repetitions in one process and reports the per-layer
metrics.  Every repetition's outputs are checked outside the timed
region; the last stdout line is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:  # run as a script: make the perfbench package importable
    sys.path.insert(0, ROOT)
WORKLOAD_NAMES = ("fig1-paper", "replicate-serial", "replicate-pool", "quickstart-telemetry")
#: Timed fresh set-up processes per run (after one untimed warm-up that
#: compiles the bytecode caches, which users do not pay on every run).
SETUP_SAMPLES = 8
END_TO_END = (
    ("setup_s", "s"),
    ("policy_rounds_per_s", "policy-rounds/s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """A child process failed; the run prints no result."""


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    return env


def _run_child(args: argparse.Namespace, mode: str, workdir: str, timeout: float) -> Dict[str, Any]:
    command = [
        sys.executable, os.path.abspath(__file__), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--workdir", workdir,
    ]
    if args.tiny:
        command.append("--tiny")
    if args.perturb:
        command.append("--perturb")
    try:
        done = subprocess.run(command, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{mode} child exceeded {timeout:.0f}s") from error
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{mode} child failed (exit {done.returncode}):\n{done.stderr[-3000:]}")
    return json.loads(lines[-1])


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any finished child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


class Repetitions:
    """Runs repetitions of one workload and checks every unit they produce.

    The first repetition is the reference: its units go through the
    workload's check (outside the timed region); every later unit must
    equal the reference unit exactly.
    """

    def __init__(self, workload: Any, perturb: bool) -> None:
        self.workload = workload
        self.perturb = perturb
        self.reference: Optional[Dict[Any, str]] = None
        self.reference_ctx: Optional[Dict[str, Any]] = None
        self.reference_outputs: Optional[Dict[Any, Any]] = None
        self.mismatched = 0
        self.attempted = 0
        self.problems: List[str] = []
        self.artifacts: List[Dict[str, int]] = []

    def run(self, ctx: Dict[str, Any], call: Any) -> float:
        """One repetition: time ``call(ctx)``, then digest its units."""
        from perfbench.workloads import unit_digest

        start = time.perf_counter()
        result = call(ctx)
        seconds = time.perf_counter() - start
        outputs = self.workload.outputs(ctx, result)
        self.artifacts.append(self.workload.artifacts(ctx))
        digests = {unit: unit_digest(record) for unit, record in outputs.items()}
        self.attempted += len(digests)
        if self.reference is None:
            self.reference, self.reference_ctx, self.reference_outputs = digests, ctx, outputs
        else:
            self.workload.cleanup(ctx)
            if digests != self.reference:
                differing = [unit for unit in digests if digests[unit] != self.reference.get(unit)]
                self.mismatched += len(differing)
                self.problems.append(f"units {differing} differ from the first repetition")
        return seconds

    def fail(self) -> None:
        """Count the repetition that raised as all-failed; keep its traceback."""
        units = len(self.reference) if self.reference else 1
        self.attempted += units
        self.mismatched += units
        self.problems.append(traceback.format_exc().strip())

    def finish(self) -> Dict[str, Any]:
        """Check the reference repetition; count failed units over all."""
        failed = self.mismatched
        if self.reference_outputs is not None:
            if self.perturb:
                self.workload.perturb(self.reference_outputs)
            failures = self.workload.check(self.reference_ctx, self.reference_outputs)
            self.workload.cleanup(self.reference_ctx)
            repetitions = self.attempted // max(1, len(self.reference))
            failed += len(failures) * repetitions
            self.problems += [f"{unit}: {reason}" for unit, reason in failures.items()]
        from perfbench.workloads import sha256_hex

        digest = sha256_hex(json.dumps(self.reference, sort_keys=True, default=str).encode())
        return {"attempted": self.attempted, "failed": min(failed, self.attempted),
                "problems": self.problems, "digest": digest}


def _child_setup(args: argparse.Namespace, started: float) -> Dict[str, Any]:
    from perfbench import workloads

    workload = workloads.make(args.workload, args.seed, args.tiny, args.workdir)
    ctx = workload.prepare()
    setup = time.perf_counter() - started
    workload.cleanup(ctx)
    return {"setup_s": setup}


def _child_measure(args: argparse.Namespace, started: float) -> Dict[str, Any]:
    from perfbench import workloads

    workload = workloads.make(args.workload, args.seed, args.tiny, args.workdir)
    ctx: Optional[Dict[str, Any]] = workload.prepare()
    setup = time.perf_counter() - started
    reps = Repetitions(workload, args.perturb)
    deadline = time.perf_counter() + args.seconds
    rates = []
    while True:
        ctx = ctx if ctx is not None else workload.prepare()
        try:
            seconds = reps.run(ctx, workload.execute)
        except Exception:  # fasealint: disable=FAS005 -- reported as failed units
            reps.fail()
            break
        rates.append(workload.policy_rounds() / seconds)
        ctx = None
        if time.perf_counter() >= deadline:
            break
    peak = _peak_rss_mb()
    artifact = statistics.median(a["total"] for a in reps.artifacts) if reps.artifacts else 0
    return {"setup_s": setup, "rates": rates, "peak_rss_mb": peak,
            "artifact_mb": artifact / 1e6, **reps.finish()}


def _child_traced(args: argparse.Namespace, started: float) -> Dict[str, Any]:
    from perfbench import tracing, workloads

    workload = workloads.make(args.workload, args.seed, args.tiny, args.workdir)
    ctx: Optional[Dict[str, Any]] = workload.prepare()
    reps = Repetitions(workload, args.perturb)
    tracer = tracing.Tracer()
    batches: List[Dict[str, Any]] = []
    executor: List[Dict[str, Any]] = []
    plain: List[float] = []
    traced: List[float] = []
    deadline = time.perf_counter() + args.seconds

    def run_traced(ctx: Dict[str, Any]) -> Any:
        tracer.reset()
        tracer.install()
        try:
            return workload.execute_traced(ctx, tracer, executor)
        finally:
            tracer.uninstall()

    try:
        while True:
            for timings, call in ((plain, workload.execute), (traced, run_traced)):
                ctx = ctx if ctx is not None else workload.prepare()
                tracer.run_id = len(traced)
                timings.append(reps.run(ctx, call))
                ctx = None
                if call is run_traced:
                    batches.append({**tracer.export(), "pid": os.getpid()})
            if time.perf_counter() >= deadline:
                break
    except Exception:  # fasealint: disable=FAS005 -- reported as failed units
        reps.fail()
    for call in executor:
        for unit in call["units"]:
            batches.append({**unit.pop("trace"), "pid": unit["pid"]})
            unit.pop("histories")
    overhead = min(traced) / min(plain) - 1.0 if plain and traced else 0.0
    artifacts = reps.artifacts[-1] if reps.artifacts else {"total": 0}
    values, absent, table = tracing.layer_metrics(
        batches, len(traced), workload.env_rounds(), executor, artifacts, overhead
    )
    rounds = len(traced) * workload.env_rounds()
    breakdown = tracing.round_breakdown(table, rounds)
    # Means, like the per-round self times the breakdown lists.
    round_us = {name: statistics.mean(times) / workload.env_rounds() * 1e6 if times else 0.0
                for name, times in (("plain", plain), ("traced", traced))}
    spans_path = os.path.join(ROOT, ".perfbench_out",
                              f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracing.write_spans(spans_path, batches)
    return {"values": values, "absent": absent, "breakdown": breakdown,
            "round_us": round_us, "traced_reps": len(traced),
            "spans": os.path.relpath(spans_path, ROOT), **reps.finish()}


# ----------------------------------------------------------------------
# The benchmark process
# ----------------------------------------------------------------------
def _result_line(correct: bool, attempted: int, failed: int,
                 metrics: Dict[str, Any]) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def _end_to_end(args: argparse.Namespace, workdir: str) -> int:
    _run_child(args, "setup", workdir, 60)  # warm-up: compiles bytecode caches
    samples = 1 if args.tiny else SETUP_SAMPLES
    # Half the set-up samples run before the measurement and half after,
    # so a slow phase of the machine does not fall on all of them.
    setups = [_run_child(args, "setup", workdir, 60)["setup_s"]
              for _ in range(samples // 2)]
    measured = _run_child(args, "measure", workdir, args.seconds + 120)
    setups += [_run_child(args, "setup", workdir, 60)["setup_s"]
               for _ in range(samples - samples // 2)]
    setups.append(measured["setup_s"])
    values = {
        "setup_s": statistics.median(setups),
        # The best repetition (the timeit convention): other tenants of a
        # shared host slow some repetitions by up to a third, never speed
        # one up.  No completed repetition: 0, and the run is incorrect.
        "policy_rounds_per_s": max(measured["rates"] or [0.0]),
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    attempted, failed = measured["attempted"], measured["failed"]
    for problem in measured["problems"]:
        print(f"perfbench: check failed: {problem}")
    print(f"perfbench: {args.workload} seed={args.seed} digest={measured['digest']} "
          f"repetitions={len(measured['rates'])}")
    print(f"perfbench: {args.workload} setup_s={values['setup_s']:.4f} s "
          f"policy_rounds_per_s={values['policy_rounds_per_s']:.1f} policy-rounds/s "
          f"peak_rss_mb={values['peak_rss_mb']:.1f} MB "
          f"artifact_mb={measured['artifact_mb']:.3f} MB "
          f"failed_frac={failed / attempted:.4f} ratio")
    correct = failed == 0 and not measured["problems"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(_result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def _per_layer(args: argparse.Namespace, workdir: str) -> int:
    from perfbench.tracing import per_layer_names

    traced = _run_child(args, "traced", workdir, args.seconds + 150)
    for problem in traced["problems"]:
        print(f"perfbench: check failed: {problem}")
    print(f"perfbench: {args.workload} seed={args.seed} digest={traced['digest']} "
          f"traced repetitions={traced['traced_reps']} spans in {traced['spans']}")
    inside = sum(us for _, us in traced["breakdown"])
    print(f"perfbench: mean wall time per environment round: {traced['round_us']['plain']:.1f} us "
          f"untraced, {traced['round_us']['traced']:.1f} us traced; self times inside round "
          f"spans, summed over processes, give {inside:.1f} us:")
    for name, us in traced["breakdown"]:
        print(f"perfbench:   {name:<34} {us:9.2f} us/round")
    for name, reason in sorted(traced["absent"].items()):
        print(f"perfbench: absent {name}: {reason}")
    correct = traced["failed"] == 0 and not traced["problems"]
    metrics = {name: {"value": traced["values"][name], "unit": unit}
               for name, unit in per_layer_names()}
    print(_result_line(correct, traced["attempted"], traced["failed"], metrics))
    return 0 if correct else 1


def _all(args: argparse.Namespace) -> int:
    """Every workload in turn (tracing off), then one table."""
    rows = []
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.tiny:
            command.append("--tiny")
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        lines = done.stdout.strip().splitlines()
        summary = [line for line in lines if " setup_s=" in line]
        rows.append(summary[-1].replace("perfbench: ", "") if summary
                    else f"{name} FAILED (exit {done.returncode})")
    print("perfbench: all workloads")
    for row in rows:
        print(f"perfbench:   {row}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny horizons and a single set-up sample (self-tests)")
    parser.add_argument("--perturb", action="store_true",
                        help="corrupt one reward before the checks (self-tests)")
    parser.add_argument("--child", choices=("setup", "measure", "traced"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child is not None:
        child = {"setup": _child_setup, "measure": _child_measure, "traced": _child_traced}
        print(json.dumps(child[args.child](args, started)))
        return 0
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro package under {os.path.join(ROOT, 'src')}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _all(args)
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        return (_per_layer if args.trace else _end_to_end)(args, workdir)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
