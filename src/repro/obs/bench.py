"""Perf-regression observatory: stamped bench history + CI comparison.

Benchmark numbers are only useful relative to *something*: the same
machine yesterday, the committed baseline, the previous git revision.
This module gives every benchmark result a durable, comparable home:

* :func:`stamp_record` wraps a ``{metric: value}`` dict with the schema
  version, wall-clock timestamp, a machine fingerprint and the current
  git revision — enough provenance to explain any outlier later.
* :func:`append_history` / :func:`load_history` persist records to a
  ``BENCH_history.jsonl`` (one record per line, append-only, same
  crash-safety rules as the trace sink); loading validates the schema
  version and raises :class:`repro.exceptions.SchemaError` on unknown
  majors.
* :func:`compare_histories` is the regression gate: per metric it
  bootstraps a confidence interval over the baseline samples
  (:func:`repro.analysis.bootstrap.bootstrap_mean_ci`, fixed seed) and
  flags a regression when the candidate mean moves in the *worse*
  direction by more than ``max(threshold·|baseline mean|, CI
  halfwidth)``.  Directions are per-metric: ``lower`` (timings,
  regret), ``higher`` (rewards, ratios) or ``exact`` (deterministic
  invariants — any drift at all is a regression).
* :func:`run_smoke_benchmark` is a deterministic small-world suite
  (UCB/TS/Random vs OPT) cheap enough for CI; its reward metrics are
  ``exact`` by the repo's determinism contract, so the compare gate
  doubles as a bit-reproducibility check.
* :func:`render_html_report` renders the history as a static HTML page
  with inline-SVG trend lines — no plotting dependency, openable as a
  CI artifact.

CLI: ``fasea obs bench run|compare|report`` (:mod:`repro.obs.cli`).
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
from dataclasses import dataclass
from html import escape
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.exceptions import ConfigurationError, SchemaError
from repro.obs.clock import monotonic, wall_time

#: Major schema version of one ``BENCH_history.jsonl`` record.
BENCH_SCHEMA_VERSION = 1

#: Default history filename (appended next to the repo's benchmarks).
HISTORY_FILENAME = "BENCH_history.jsonl"

#: Default relative-regression threshold for noisy (non-exact) metrics.
DEFAULT_THRESHOLD = 0.05

#: Valid per-metric comparison directions.
DIRECTIONS = ("lower", "higher", "exact")

#: Environment variable benchmarks honour to auto-append their results.
HISTORY_ENV_VAR = "FASEA_BENCH_HISTORY"

BenchRecord = Dict[str, Any]


# ----------------------------------------------------------------------
# Provenance stamps
# ----------------------------------------------------------------------
def machine_fingerprint() -> Dict[str, Any]:
    """A small, stable description of the machine that produced a record.

    Enough to separate apples from oranges when histories from several
    machines end up in one file; deliberately free of hostnames or
    usernames so the file is shareable.
    """
    return {
        "platform": platform.system().lower() or "unknown",
        "machine": platform.machine() or "unknown",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 0,
    }


def git_revision(root: Optional[Union[str, Path]] = None) -> str:
    """The short git revision of ``root`` (or CWD); ``"unknown"`` offline."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(root) if root is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    revision = completed.stdout.strip()
    return revision if completed.returncode == 0 and revision else "unknown"


def direction_for(metric: str, directions: Optional[Mapping[str, str]] = None) -> str:
    """Resolve a metric's comparison direction.

    Explicit ``directions`` entries win; otherwise names ending in
    ``_seconds``/``_ns`` or ``_regret`` are lower-is-better and
    everything else (rewards, ratios, counts) is higher-is-better.
    """
    if directions and metric in directions:
        direction = directions[metric]
        if direction not in DIRECTIONS:
            raise ConfigurationError(
                f"metric {metric!r} has unknown direction {direction!r} "
                f"(expected one of {DIRECTIONS})"
            )
        return direction
    if metric.endswith(("_seconds", "_ns", "_regret")):
        return "lower"
    return "higher"


def stamp_record(
    bench: str,
    metrics: Mapping[str, float],
    directions: Optional[Mapping[str, str]] = None,
    root: Optional[Union[str, Path]] = None,
) -> BenchRecord:
    """Wrap raw ``metrics`` into a schema-versioned, provenance-stamped
    history record.  ``directions`` pins per-metric comparison semantics
    into the record itself, so a later ``compare`` does not have to
    guess what "worse" meant when the numbers were taken.
    """
    if not bench:
        raise ConfigurationError("bench name must be non-empty")
    if not metrics:
        raise ConfigurationError(f"bench {bench!r} recorded no metrics")
    resolved = {
        name: direction_for(name, directions) for name in sorted(metrics)
    }
    return {
        "version": BENCH_SCHEMA_VERSION,
        "bench": bench,
        "recorded_at": wall_time(),
        "git_rev": git_revision(root),
        "machine": machine_fingerprint(),
        "metrics": {name: float(metrics[name]) for name in sorted(metrics)},
        "directions": resolved,
    }


# ----------------------------------------------------------------------
# History IO (append-only JSONL, like the trace sink)
# ----------------------------------------------------------------------
def append_history(
    records: Sequence[BenchRecord], path: Union[str, Path]
) -> Path:
    """Append ``records`` to the history file (one JSON line each)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    return path


def validate_record(record: BenchRecord, origin: str = "<record>") -> None:
    """Raise :class:`SchemaError` unless ``record`` is a readable v1 record."""
    version = record.get("version", BENCH_SCHEMA_VERSION)
    try:
        major = int(version)
    except (TypeError, ValueError) as error:
        raise SchemaError(
            f"{origin}: bench record version {version!r} is not an integer"
        ) from error
    if major != BENCH_SCHEMA_VERSION:
        raise SchemaError(
            f"{origin}: bench record schema version {major} is not supported "
            f"(this library reads version {BENCH_SCHEMA_VERSION})"
        )
    if not isinstance(record.get("bench"), str) or not record["bench"]:
        raise SchemaError(f"{origin}: bench record has no 'bench' name")
    if not isinstance(record.get("metrics"), dict):
        raise SchemaError(f"{origin}: bench record has no 'metrics' mapping")


def load_history(
    path: Union[str, Path], bench: Optional[str] = None
) -> List[BenchRecord]:
    """Load (and schema-validate) history records; optionally filter by
    bench name.  Malformed lines raise :class:`ConfigurationError`;
    unknown schema versions raise :class:`SchemaError`."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"no bench history at {path}")
    records: List[BenchRecord] = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"{path}:{lineno}: invalid bench history line: {error}"
            ) from error
        if not isinstance(record, dict):
            raise ConfigurationError(
                f"{path}:{lineno}: bench history line is not an object"
            )
        validate_record(record, origin=f"{path}:{lineno}")
        if bench is None or record["bench"] == bench:
            records.append(record)
    return records


# ----------------------------------------------------------------------
# Comparison (the regression gate)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ComparisonRow:
    """One metric's verdict in a baseline-vs-candidate comparison."""

    bench: str
    metric: str
    direction: str
    baseline_mean: float
    baseline_low: float
    baseline_high: float
    candidate_mean: float
    status: str  # "ok" | "regression" | "improvement" | "new" | "missing"

    @property
    def delta(self) -> float:
        return self.candidate_mean - self.baseline_mean


def _samples_by_metric(
    records: Sequence[BenchRecord],
) -> Dict[str, List[float]]:
    samples: Dict[str, List[float]] = {}
    for record in records:
        for name, value in record.get("metrics", {}).items():
            samples.setdefault(name, []).append(float(value))
    return samples


def _declared_directions(records: Sequence[BenchRecord]) -> Dict[str, str]:
    directions: Dict[str, str] = {}
    for record in records:
        for name, direction in (record.get("directions") or {}).items():
            directions.setdefault(name, direction)
    return directions


def compare_histories(
    baseline: Sequence[BenchRecord],
    candidate: Sequence[BenchRecord],
    threshold: float = DEFAULT_THRESHOLD,
    confidence: float = 0.95,
    seed: int = 0,
) -> List[ComparisonRow]:
    """Compare candidate bench samples against a baseline, per metric.

    The tolerance for noisy metrics is
    ``max(threshold·|baseline mean|, bootstrap-CI halfwidth)`` — wide
    baselines earn wide gates, and a tight deterministic baseline still
    gets the relative floor.  ``exact`` metrics tolerate nothing.
    Metrics present on only one side surface as ``new`` / ``missing``
    (informational, not regressions).
    """
    from repro.analysis.bootstrap import bootstrap_mean_ci

    if threshold < 0:
        raise ConfigurationError(f"threshold must be >= 0, got {threshold}")
    benches = sorted(
        {r["bench"] for r in baseline} | {r["bench"] for r in candidate}
    )
    rows: List[ComparisonRow] = []
    for bench in benches:
        base_records = [r for r in baseline if r["bench"] == bench]
        cand_records = [r for r in candidate if r["bench"] == bench]
        base_samples = _samples_by_metric(base_records)
        cand_samples = _samples_by_metric(cand_records)
        directions = _declared_directions(base_records + cand_records)
        for metric in sorted(set(base_samples) | set(cand_samples)):
            direction = direction_for(metric, directions)
            if metric not in base_samples:
                mean = sum(cand_samples[metric]) / len(cand_samples[metric])
                rows.append(
                    ComparisonRow(
                        bench, metric, direction, float("nan"), float("nan"),
                        float("nan"), mean, "new",
                    )
                )
                continue
            base_mean, base_low, base_high = bootstrap_mean_ci(
                base_samples[metric], confidence=confidence, seed=seed
            )
            if metric not in cand_samples:
                rows.append(
                    ComparisonRow(
                        bench, metric, direction, base_mean, base_low,
                        base_high, float("nan"), "missing",
                    )
                )
                continue
            cand_mean = sum(cand_samples[metric]) / len(cand_samples[metric])
            delta = cand_mean - base_mean
            if direction == "exact":
                # Zero-tolerance isclose == bit equality: "exact" metrics
                # are the determinism contract, any drift is a regression.
                exact_match = math.isclose(
                    cand_mean, base_mean, rel_tol=0.0, abs_tol=0.0
                )
                status = "ok" if exact_match else "regression"
            else:
                halfwidth = max(base_high - base_mean, base_mean - base_low)
                tolerance = max(threshold * abs(base_mean), halfwidth)
                worse = delta if direction == "higher" else -delta
                if -worse > tolerance:
                    status = "regression"
                elif worse > tolerance:
                    status = "improvement"
                else:
                    status = "ok"
            rows.append(
                ComparisonRow(
                    bench, metric, direction, base_mean, base_low,
                    base_high, cand_mean, status,
                )
            )
    return rows


def has_regression(rows: Sequence[ComparisonRow]) -> bool:
    """Whether any comparison row is a regression (the exit-1 signal)."""
    return any(row.status == "regression" for row in rows)


def comparison_table_rows(rows: Sequence[ComparisonRow]) -> List[List[str]]:
    """``[bench, metric, dir, base, cand, delta, status]`` display rows."""

    def _fmt(value: float) -> str:
        return "-" if value != value else f"{value:.6g}"  # NaN-safe

    return [
        [
            row.bench,
            row.metric,
            row.direction,
            _fmt(row.baseline_mean),
            _fmt(row.candidate_mean),
            _fmt(row.delta) if row.status not in ("new", "missing") else "-",
            row.status,
        ]
        for row in rows
    ]


# ----------------------------------------------------------------------
# The built-in smoke suite (deterministic, CI-cheap)
# ----------------------------------------------------------------------
def run_smoke_benchmark(
    repeats: int = 3,
    horizon: int = 200,
    num_events: int = 20,
    dim: int = 8,
    seed: int = 0,
) -> BenchRecord:
    """Run the deterministic smoke suite and return one stamped record.

    Reward/ratio metrics are bit-deterministic (fixed world seed, fixed
    run seed) and therefore stamped ``exact`` — the compare gate then
    enforces the repo's reproducibility contract for free.  Wall time
    is best-of-``repeats`` (min is the standard low-noise estimator for
    benchmarks) and stamped ``lower``.
    """
    from repro.bandits import OptPolicy, make_policy
    from repro.datasets.synthetic import SyntheticConfig, build_world
    from repro.simulation.runner import run_policy

    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    config = SyntheticConfig(
        num_events=num_events,
        horizon=horizon,
        dim=dim,
        capacity_mean=12.0,
        capacity_std=4.0,
        conflict_ratio=0.25,
        seed=seed,
    )
    world = build_world(config)
    opt = run_policy(OptPolicy(world.theta), world, horizon=horizon, run_seed=0)

    metrics: Dict[str, float] = {}
    directions: Dict[str, str] = {}
    best_seconds = float("inf")
    for _ in range(repeats):
        started = monotonic()
        histories = {
            name: run_policy(
                make_policy(name, dim=dim, seed=1),
                world,
                horizon=horizon,
                run_seed=0,
            )
            for name in ("UCB", "TS", "Random")
        }
        best_seconds = min(best_seconds, monotonic() - started)
    for name, history in histories.items():
        key = name.lower()
        metrics[f"{key}_total_reward"] = float(history.total_reward)
        directions[f"{key}_total_reward"] = "exact"
        metrics[f"{key}_accept_ratio"] = float(history.overall_accept_ratio)
        directions[f"{key}_accept_ratio"] = "exact"
    metrics["ucb_regret"] = float(opt.total_reward - histories["UCB"].total_reward)
    directions["ucb_regret"] = "exact"
    metrics["ts_vs_ucb_gap"] = float(
        histories["TS"].total_reward - histories["UCB"].total_reward
    )
    directions["ts_vs_ucb_gap"] = "exact"
    # Decision flight cross-check: recording must not move one reward
    # bit, and recording the same run twice must produce byte-identical
    # records (thin line plus float64 vector bytes, see
    # ``flight.record_bytes``) — both stamped ``exact`` so the compare gate enforces the
    # flight recorder's determinism contract on every CI run.
    from repro.obs.flight import FlightBuffer, flight_digest

    recorded = FlightBuffer()
    flight_history = run_policy(
        make_policy("UCB", dim=dim, seed=1),
        world,
        horizon=horizon,
        run_seed=0,
        flight=recorded,
    )
    rerecorded = FlightBuffer()
    run_policy(
        make_policy("UCB", dim=dim, seed=1),
        world,
        horizon=horizon,
        run_seed=0,
        flight=rerecorded,
    )
    metrics["flight_decisions"] = float(len(recorded.records))
    directions["flight_decisions"] = "exact"
    metrics["flight_reward_delta"] = float(
        flight_history.total_reward - histories["UCB"].total_reward
    )
    directions["flight_reward_delta"] = "exact"
    metrics["flight_replay_drift"] = (
        0.0
        if flight_digest(recorded.records) == flight_digest(rerecorded.records)
        else 1.0
    )
    directions["flight_replay_drift"] = "exact"
    # Learning-health cross-check: the detectors and the alert engine
    # are deterministic functions of the (seeded) run, so the event and
    # firing counts are stamped ``exact`` — any drift in the detector
    # math or rule evaluation order trips the compare gate, and the
    # monitored run's reward must equal the plain run's to the bit.
    from repro.obs.alerts import DEFAULT_ALERT_RULES, AlertBuffer, AlertEngine
    from repro.obs.core import Instrumentation
    from repro.obs.health import HealthMonitor

    health_obs = Instrumentation()
    health_obs.health_monitor = HealthMonitor()
    alert_buffer = AlertBuffer()
    health_obs.alert_engine = AlertEngine(DEFAULT_ALERT_RULES, alert_buffer)
    health_history = run_policy(
        make_policy("UCB", dim=dim, seed=1),
        world,
        horizon=horizon,
        run_seed=0,
        obs=health_obs,
    )
    metrics["health_events"] = float(len(health_obs.health_monitor.events))
    directions["health_events"] = "exact"
    metrics["health_alert_firings"] = float(len(alert_buffer.records))
    directions["health_alert_firings"] = "exact"
    metrics["health_reward_delta"] = float(
        health_history.total_reward - histories["UCB"].total_reward
    )
    directions["health_reward_delta"] = "exact"
    metrics["wall_seconds"] = best_seconds
    directions["wall_seconds"] = "lower"
    return stamp_record("smoke", metrics, directions)


# ----------------------------------------------------------------------
# HTML trend report (inline SVG, no plotting dependency)
# ----------------------------------------------------------------------
def _svg_sparkline(
    values: Sequence[float], width: int = 520, height: int = 96
) -> str:
    """A single-series polyline SVG; degenerate series render flat."""
    pad = 8
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    n = max(len(values) - 1, 1)
    points = " ".join(
        f"{pad + (width - 2 * pad) * i / n:.1f},"
        f"{height - pad - (height - 2 * pad) * (v - lo) / span:.1f}"
        for i, v in enumerate(values)
    )
    circles = "".join(
        f'<circle cx="{pad + (width - 2 * pad) * i / n:.1f}" '
        f'cy="{height - pad - (height - 2 * pad) * (v - lo) / span:.1f}" '
        f'r="2.5" fill="#1f77b4"/>'
        for i, v in enumerate(values)
    )
    return (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img">'
        f'<rect width="{width}" height="{height}" fill="#fafafa"/>'
        f'<polyline points="{points}" fill="none" stroke="#1f77b4" '
        f'stroke-width="1.5"/>{circles}</svg>'
    )


def render_html_report(records: Sequence[BenchRecord]) -> str:
    """Render the whole history as one static HTML page.

    One section per bench, one sparkline per metric (points in recording
    order), with first/last values and the per-record git revisions in a
    footer table.  Everything is inline — the artifact is a single file.
    """
    if not records:
        raise ConfigurationError("bench history is empty; nothing to report")
    ordered = sorted(records, key=lambda r: float(r.get("recorded_at", 0.0)))
    benches: Dict[str, List[BenchRecord]] = {}
    for record in ordered:
        benches.setdefault(record["bench"], []).append(record)
    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        "<title>FASEA bench observatory</title>",
        "<style>body{font-family:system-ui,sans-serif;margin:2rem;"
        "max-width:60rem}h2{border-bottom:1px solid #ddd}"
        "table{border-collapse:collapse;font-size:0.85rem}"
        "td,th{border:1px solid #ddd;padding:0.25rem 0.5rem;text-align:left}"
        ".metric{margin:1rem 0}.muted{color:#777}</style></head><body>",
        "<h1>FASEA bench observatory</h1>",
        f'<p class="muted">{len(records)} record(s), '
        f"schema v{BENCH_SCHEMA_VERSION}.</p>",
    ]
    for bench, bench_records in sorted(benches.items()):
        parts.append(f"<h2>{escape(bench)}</h2>")
        samples = _samples_by_metric(bench_records)
        directions = _declared_directions(bench_records)
        for metric in sorted(samples):
            values = samples[metric]
            direction = direction_for(metric, directions)
            parts.append(
                '<div class="metric">'
                f"<h3>{escape(metric)} "
                f'<span class="muted">({escape(direction)})</span></h3>'
                f'<p class="muted">first={values[0]:.6g} '
                f"last={values[-1]:.6g} n={len(values)}</p>"
                f"{_svg_sparkline(values)}</div>"
            )
        parts.append(
            "<table><tr><th>#</th><th>git</th><th>recorded_at</th>"
            "<th>machine</th></tr>"
        )
        for index, record in enumerate(bench_records):
            machine = record.get("machine", {})
            label = (
                f"{machine.get('platform', '?')}/{machine.get('machine', '?')} "
                f"py{machine.get('python', '?')}"
            )
            parts.append(
                f"<tr><td>{index}</td>"
                f"<td>{escape(str(record.get('git_rev', 'unknown')))}</td>"
                f"<td>{float(record.get('recorded_at', 0.0)):.0f}</td>"
                f"<td>{escape(label)}</td></tr>"
            )
        parts.append("</table>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def write_html_report(
    records: Sequence[BenchRecord], path: Union[str, Path]
) -> Path:
    """Render and atomically write the HTML report to ``path``."""
    from repro.io.runstore import atomic_write_text

    return atomic_write_text(path, render_html_report(records))


# ----------------------------------------------------------------------
# Benchmark-suite integration helper
# ----------------------------------------------------------------------
def maybe_record_bench_metrics(
    bench: str,
    metrics: Mapping[str, float],
    directions: Optional[Mapping[str, str]] = None,
) -> Optional[Path]:
    """Append a stamped record iff ``FASEA_BENCH_HISTORY`` is set.

    Benchmarks call this unconditionally; without the environment
    variable it is a no-op, so interactive ``pytest benchmarks/`` runs
    do not silently grow a history file.
    """
    target = os.environ.get(HISTORY_ENV_VAR, "").strip()
    if not target:
        return None
    record = stamp_record(bench, metrics, directions)
    return append_history([record], target)


__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_THRESHOLD",
    "DIRECTIONS",
    "HISTORY_ENV_VAR",
    "HISTORY_FILENAME",
    "BenchRecord",
    "ComparisonRow",
    "append_history",
    "compare_histories",
    "comparison_table_rows",
    "direction_for",
    "git_revision",
    "has_regression",
    "load_history",
    "machine_fingerprint",
    "maybe_record_bench_metrics",
    "render_html_report",
    "run_smoke_benchmark",
    "stamp_record",
    "validate_record",
    "write_html_report",
]
