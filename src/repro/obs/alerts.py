"""Declarative, deterministic alert engine over the metric registry.

Rules live in an ``alerts.toml`` (or the built-in
:data:`DEFAULT_ALERT_RULES`) and come in two shapes:

* **Metric rules** select live metrics by name (``fnmatch`` globs —
  ``policy.*.reward``), aggregate a trailing window of the *current
  work unit's* observations (``last``/``mean``/``min``/``max``/``sum``/
  ``count``) and compare against a threshold.  Firings are
  edge-triggered per ``(rule, metric)``: a rule fires when its
  predicate turns true, not on every round it stays true; ``cooldown``
  additionally spaces re-firings (in rounds) after the predicate has
  reset.
* **Detector rules** fire on matching :mod:`repro.obs.health` events
  (``detector = "capacity_cliff"``), inheriting the event's round and
  value — the capacity-exhaustion alert of the CI health gate.

Determinism contract — the part that makes ``alerts.jsonl`` byte-
identical between serial and ``--jobs N`` runs:

* evaluation happens once per *round* (wall-clock flush cadence never
  decides whether a rule fires);
* the engine evaluates rules in declaration order and matched metrics
  in sorted-name order;
* metric windows are measured against a per-work-unit **baseline**
  (:meth:`AlertEngine.begin_cell`): on the serial path, where every
  cell shares one registry, a cell only sees observations recorded
  since it started — exactly what a parallel worker's fresh registry
  sees;
* parallel workers buffer firings in an :class:`AlertBuffer`; the
  executor drains them into the real :class:`AlertLog` in submission
  order;
* firing records carry no wall-clock fields and serialize with sorted
  keys.

The :class:`AlertLog` writer is the shared crash-safe
:class:`~repro.io.logfile.AppendOnlyLog`: atomic truncate at open, one
complete JSON line per record, flush per record, fsync every N records
and on close.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.io.logfile import DEFAULT_FSYNC_RECORDS, AppendOnlyLog
from repro.obs.core import Counter, Gauge, Histogram, Series, Timer
from repro.obs.health import (
    CAPACITY_CLIFF_DETECTOR,
    CUSUM_DETECTOR,
    EWMA_BAND_DETECTOR,
    EXHAUSTION_SUFFIX,
    PAGE_HINKLEY_DETECTOR,
    POLICY_METRIC_PREFIX,
    REWARD_SUFFIX,
    THETA_DRIFT_SUFFIX,
)

#: Major schema version of ``alerts.jsonl`` firing records.
ALERTS_SCHEMA_VERSION = 1

#: Filename of the alert log inside a run directory.
ALERTS_FILENAME = "alerts.jsonl"

#: Known detector identifiers a rule may subscribe to.
KNOWN_DETECTORS = frozenset({
    PAGE_HINKLEY_DETECTOR,
    CUSUM_DETECTOR,
    EWMA_BAND_DETECTOR,
    CAPACITY_CLIFF_DETECTOR,
})

SEVERITIES = ("info", "warning", "critical")
AGGREGATES = ("last", "mean", "min", "max", "sum", "count")
OPS = ("gt", "ge", "lt", "le", "eq", "ne")

AlertRecord = Dict[str, Any]


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AlertRule:
    """One declarative rule (frozen → hashable, picklable into workers)."""

    name: str
    severity: str = "warning"
    #: Metric-rule fields.
    metric: Optional[str] = None
    op: Optional[str] = None
    value: Optional[float] = None
    aggregate: str = "last"
    window: int = 1
    cooldown: int = 0
    #: Detector-rule fields.
    detector: Optional[str] = None
    policy: str = "*"
    direction: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("alert rule needs a name")
        if self.severity not in SEVERITIES:
            raise ConfigurationError(
                f"alert {self.name!r}: severity must be one of "
                f"{SEVERITIES}, got {self.severity!r}"
            )
        if (self.metric is None) == (self.detector is None):
            raise ConfigurationError(
                f"alert {self.name!r}: set exactly one of 'metric' "
                "(a metric rule) or 'detector' (a health-event rule)"
            )
        if self.metric is not None:
            if self.op not in OPS:
                raise ConfigurationError(
                    f"alert {self.name!r}: op must be one of {OPS}, "
                    f"got {self.op!r}"
                )
            if self.value is None:
                raise ConfigurationError(
                    f"alert {self.name!r}: metric rules need a 'value' threshold"
                )
            if self.aggregate not in AGGREGATES:
                raise ConfigurationError(
                    f"alert {self.name!r}: aggregate must be one of "
                    f"{AGGREGATES}, got {self.aggregate!r}"
                )
            if self.window < 1:
                raise ConfigurationError(
                    f"alert {self.name!r}: window must be >= 1, got {self.window}"
                )
            if self.cooldown < 0:
                raise ConfigurationError(
                    f"alert {self.name!r}: cooldown must be >= 0, "
                    f"got {self.cooldown}"
                )
        elif self.detector not in KNOWN_DETECTORS:
            raise ConfigurationError(
                f"alert {self.name!r}: unknown detector {self.detector!r} "
                f"(known: {sorted(KNOWN_DETECTORS)})"
            )


#: Rules installed by ``--health`` when no alerts.toml is given: the
#: capacity-exhaustion alert (the paper's regret-drop diagnostic) plus
#: two conservative learner-degradation tripwires.
DEFAULT_ALERT_RULES: Tuple[AlertRule, ...] = (
    AlertRule(
        name="capacity-exhaustion",
        detector=CAPACITY_CLIFF_DETECTOR,
        severity="warning",
    ),
    AlertRule(
        name="reward-collapse",
        metric=POLICY_METRIC_PREFIX + "*" + REWARD_SUFFIX,
        aggregate="mean",
        window=200,
        op="lt",
        value=0.05,
        severity="critical",
    ),
    AlertRule(
        name="theta-divergence",
        metric=POLICY_METRIC_PREFIX + "*" + THETA_DRIFT_SUFFIX,
        aggregate="last",
        op="gt",
        value=10.0,
        severity="critical",
    ),
)

_RULE_FIELDS = frozenset({
    "name", "severity", "metric", "op", "value", "aggregate", "window",
    "cooldown", "detector", "policy", "direction",
})


def rules_from_payload(payload: Dict[str, Any]) -> Tuple[AlertRule, ...]:
    """Build rules from a parsed alerts.toml document."""
    tables = payload.get("alert", [])
    if not isinstance(tables, list):
        raise ConfigurationError("alerts.toml: 'alert' must be an array of tables")
    rules: List[AlertRule] = []
    for index, table in enumerate(tables):
        if not isinstance(table, dict):
            raise ConfigurationError(
                f"alerts.toml: [[alert]] #{index + 1} is not a table"
            )
        unknown = sorted(set(table) - _RULE_FIELDS)
        if unknown:
            raise ConfigurationError(
                f"alerts.toml: [[alert]] #{index + 1} has unknown "
                f"key(s) {unknown}"
            )
        kwargs = dict(table)
        if "value" in kwargs and kwargs["value"] is not None:
            kwargs["value"] = float(kwargs["value"])
        for key in ("window", "cooldown"):
            if key in kwargs:
                kwargs[key] = int(kwargs[key])
        rules.append(AlertRule(**kwargs))
    if not rules:
        raise ConfigurationError("alerts.toml defines no [[alert]] tables")
    return tuple(rules)


def load_alert_rules(path: Union[str, Path]) -> Tuple[AlertRule, ...]:
    """Parse an alerts.toml file into rules.

    Uses :mod:`tomllib` where available (Python >= 3.11) and falls back
    to a dependency-free parser for the subset this schema needs
    (``[[alert]]`` tables of scalar ``key = value`` pairs) on older
    interpreters.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"no alert rules file at {path}")
    text = path.read_text(encoding="utf-8")
    try:
        import tomllib
    except ImportError:  # pragma: no cover - py<3.11 fallback
        payload = _parse_toml_subset(text)
    else:
        try:
            payload = tomllib.loads(text)
        except tomllib.TOMLDecodeError as error:
            raise ConfigurationError(f"{path}: invalid TOML: {error}") from error
    return rules_from_payload(payload)


def _strip_comment(line: str) -> str:
    """Drop a ``#`` comment that is not inside a quoted string."""
    quoted = False
    for index, char in enumerate(line):
        if char == '"':
            quoted = not quoted
        elif char == "#" and not quoted:
            return line[:index]
    return line


def _parse_scalar(text: str, line_no: int) -> Any:
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        return text[1:-1]
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ConfigurationError(
            f"alerts.toml line {line_no}: cannot parse value {text!r}"
        ) from None


def _parse_toml_subset(text: str) -> Dict[str, Any]:
    """A tiny TOML-subset reader: ``[[alert]]`` tables of scalars only."""
    tables: List[Dict[str, Any]] = []
    current: Optional[Dict[str, Any]] = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line == "[[alert]]":
            current = {}
            tables.append(current)
            continue
        if line.startswith("["):
            raise ConfigurationError(
                f"alerts.toml line {line_no}: only [[alert]] tables are "
                f"supported, got {line!r}"
            )
        key, sep, value = line.partition("=")
        if not sep or current is None:
            raise ConfigurationError(
                f"alerts.toml line {line_no}: expected 'key = value' "
                "inside an [[alert]] table"
            )
        current[key.strip()] = _parse_scalar(value.strip(), line_no)
    return {"alert": tables}


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
def alert_line(record: AlertRecord) -> str:
    """Canonical serialized form: sorted keys, one line, no trailing \\n."""
    return json.dumps(record, sort_keys=True)


class AlertBuffer:
    """In-memory sink with the same API as :class:`AlertLog` (workers)."""

    def __init__(self) -> None:
        self.records: List[AlertRecord] = []

    @property
    def closed(self) -> bool:
        return False

    def record(self, record: AlertRecord) -> None:
        self.records.append(record)

    def extend(self, records: Iterable[AlertRecord]) -> None:
        self.records.extend(records)

    def close(self) -> None:  # pragma: no cover - symmetry with AlertLog
        pass

    def __enter__(self) -> "AlertBuffer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class AlertLog(AppendOnlyLog):
    """Crash-safe streaming writer for ``alerts.jsonl``.

    The shared :class:`~repro.io.logfile.AppendOnlyLog` discipline: the
    log is truncated atomically at construction, every record is written
    as one complete JSON line and flushed, and the file is fsync'd every
    ``fsync_every_records`` records and unconditionally on close — a
    SIGKILL'd run leaves a longest-valid-prefix log.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        fsync_every_records: int = DEFAULT_FSYNC_RECORDS,
    ) -> None:
        self.directory = Path(directory)
        super().__init__(self.directory / ALERTS_FILENAME, fsync_every_records)

    def record(self, record: AlertRecord) -> None:
        self.write_line(alert_line(record))


def load_alerts(
    target: Union[str, Path], strict: bool = True
) -> List[AlertRecord]:
    """Load an alert log from a file or a run directory.

    ``strict=False`` recovers the longest valid prefix (the read mode
    for logs whose writer was killed mid-line); a missing log reads as
    an empty list — "no alerts" and "no alerting configured" render the
    same way.
    """
    from repro.obs.trace import read_trace_jsonl

    path = Path(target)
    if path.is_dir():
        path = path / ALERTS_FILENAME
    if not path.exists():
        return []
    return read_trace_jsonl(path, strict=strict)


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
@dataclass
class _MetricBaseline:
    """Per-work-unit origin of one metric (serial-path cell isolation)."""

    points: int = 0
    value: float = 0.0
    count: int = 0
    sum: float = 0.0


def _compare(op: str, value: float, threshold: float) -> bool:
    if op == "gt":
        return value > threshold
    if op == "ge":
        return value >= threshold
    if op == "lt":
        return value < threshold
    if op == "le":
        return value <= threshold
    if op == "eq":
        return value == threshold
    return value != threshold


class AlertEngine:
    """Evaluate a rule set against the live registry, once per round.

    Attached as the ambient ``obs.alert_engine``; runners call
    :meth:`evaluate_round` after recording each round's telemetry.  The
    parallel executor calls :meth:`begin_cell` before each serial work
    unit (parallel workers get a fresh engine), which re-baselines
    every metric and resets the edge/cooldown state — making the serial
    and worker evaluations observe identical windows.
    """

    def __init__(
        self,
        rules: Sequence[AlertRule] = DEFAULT_ALERT_RULES,
        sink: Optional[Any] = None,
    ) -> None:
        self.rules: Tuple[AlertRule, ...] = tuple(rules)
        if not self.rules:
            raise ConfigurationError("alert engine needs at least one rule")
        self.sink = sink if sink is not None else AlertBuffer()
        self._baselines: Dict[str, _MetricBaseline] = {}
        self._edge_state: Dict[Tuple[int, str], bool] = {}
        self._last_fire: Dict[Tuple[int, str], int] = {}
        self._health_cursor = 0
        self._match_cache: Dict[int, Tuple[str, ...]] = {}
        self._known_metric_count = -1
        self.num_firings = 0

    # -- lifecycle -----------------------------------------------------
    def begin_cell(self, obs: Any) -> None:
        """Re-baseline at a work-unit boundary (serial executor path)."""
        self._edge_state.clear()
        self._last_fire.clear()
        self._match_cache.clear()
        self._known_metric_count = -1
        self._baselines = {
            name: self._baseline_of(obs.get_metric(name))
            for name in obs.metric_names()
        }
        monitor = getattr(obs, "health_monitor", None)
        if monitor is not None:
            self._health_cursor = len(monitor.events)

    @staticmethod
    def _baseline_of(metric: Any) -> _MetricBaseline:
        if isinstance(metric, Series):
            return _MetricBaseline(points=len(metric.points))
        if isinstance(metric, (Counter, Gauge)):
            return _MetricBaseline(value=float(metric.value))
        if isinstance(metric, Timer):
            histogram = metric.histogram
            return _MetricBaseline(count=histogram.count, sum=histogram.sum)
        if isinstance(metric, Histogram):
            return _MetricBaseline(count=metric.count, sum=metric.sum)
        return _MetricBaseline()

    # -- evaluation ----------------------------------------------------
    def _matches(self, obs: Any, rule_index: int, pattern: str) -> Tuple[str, ...]:
        count = obs.metric_count()
        if count != self._known_metric_count:
            self._match_cache.clear()
            self._known_metric_count = count
        cached = self._match_cache.get(rule_index)
        if cached is None:
            cached = tuple(
                name
                for name in obs.metric_names()
                if fnmatchcase(name, pattern)
            )
            self._match_cache[rule_index] = cached
        return cached

    def _window_value(self, metric: Any, rule: AlertRule) -> Optional[float]:
        """The aggregated cell-local value, or None when not evaluable."""
        baseline = self._baselines.get(metric.name)
        if isinstance(metric, Series):
            base = baseline.points if baseline is not None else 0
            fresh = len(metric.points) - base
            if rule.aggregate == "count":
                return float(fresh)
            if fresh < rule.window:
                return None
            tail = metric.points[len(metric.points) - rule.window:]
            values = [value for _, value in tail]
        elif isinstance(metric, (Counter, Gauge)):
            origin = (
                baseline.value
                if baseline is not None and isinstance(metric, Counter)
                else 0.0
            )
            return float(metric.value) - origin
        elif isinstance(metric, (Timer, Histogram)):
            histogram = metric.histogram if isinstance(metric, Timer) else metric
            base_count = baseline.count if baseline is not None else 0
            base_sum = baseline.sum if baseline is not None else 0.0
            fresh = histogram.count - base_count
            if rule.aggregate == "count":
                return float(fresh)
            if rule.aggregate in ("sum", "mean") and fresh > 0:
                delta = histogram.sum - base_sum
                return delta if rule.aggregate == "sum" else delta / fresh
            return None
        else:
            return None
        if rule.aggregate == "last":
            return values[-1]
        if rule.aggregate == "mean":
            return math.fsum(values) / len(values)
        if rule.aggregate == "min":
            return min(values)
        if rule.aggregate == "max":
            return max(values)
        return math.fsum(values)

    def _fire(self, record: AlertRecord) -> None:
        self.num_firings += 1
        self.sink.record(record)

    def absorb(self, records: Iterable[AlertRecord]) -> None:
        """Drain a worker's buffered firings (call in submission order)."""
        for record in records:
            self._fire(record)

    def _evaluate_metric_rule(
        self, obs: Any, rule_index: int, rule: AlertRule, round_: int
    ) -> None:
        for name in self._matches(obs, rule_index, rule.metric or ""):
            metric = obs.get_metric(name)
            if metric is None:
                continue
            value = self._window_value(metric, rule)
            state = value is not None and _compare(
                rule.op or "gt", value, float(rule.value or 0.0)
            )
            key = (rule_index, name)
            previous = self._edge_state.get(key, False)
            self._edge_state[key] = state
            if not state or previous:
                continue
            last = self._last_fire.get(key)
            if last is not None and round_ - last < rule.cooldown:
                continue
            self._last_fire[key] = round_
            self._fire({
                "kind": "alert",
                "schema_version": ALERTS_SCHEMA_VERSION,
                "rule": rule.name,
                "severity": rule.severity,
                "metric": name,
                "op": rule.op,
                "threshold": float(rule.value or 0.0),
                "aggregate": rule.aggregate,
                "round": int(round_),
                "value": float(value if value is not None else 0.0),
            })

    def _evaluate_detector_rules(
        self, events: Sequence[Dict[str, Any]]
    ) -> None:
        for event in events:
            for rule_index, rule in enumerate(self.rules):
                if rule.detector is None:
                    continue
                if event.get("detector") != rule.detector:
                    continue
                policy = str(event.get("policy", ""))
                if not fnmatchcase(policy, rule.policy):
                    continue
                if (
                    rule.direction is not None
                    and event.get("direction") != rule.direction
                ):
                    continue
                round_ = int(event.get("round", 0))
                key = (rule_index, policy)
                last = self._last_fire.get(key)
                if last is not None and round_ - last < rule.cooldown:
                    continue
                self._last_fire[key] = round_
                self._fire({
                    "kind": "alert",
                    "schema_version": ALERTS_SCHEMA_VERSION,
                    "rule": rule.name,
                    "severity": rule.severity,
                    "detector": rule.detector,
                    "policy": policy,
                    "metric": str(event.get("metric", "")),
                    "direction": event.get("direction"),
                    "round": round_,
                    "value": float(event.get("value", 0.0)),
                })

    def evaluate_round(self, obs: Any, round_: int) -> None:
        """Evaluate every rule against the registry for round ``round_``."""
        monitor = getattr(obs, "health_monitor", None)
        if monitor is not None:
            fresh = monitor.events_since(self._health_cursor)
            if fresh:
                self._health_cursor += len(fresh)
                self._evaluate_detector_rules(fresh)
        for rule_index, rule in enumerate(self.rules):
            if rule.metric is not None:
                self._evaluate_metric_rule(obs, rule_index, rule, round_)
