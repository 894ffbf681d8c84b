"""Decision flight recorder: one structured record per (round, policy).

The observability stack so far records *aggregates* — counters, timers,
histograms.  When a policy underperforms those tell you *that* it lost
reward, not *why*: which arms were scored, how wide the confidence
bounds were, whether the exploration coin fired, what the oracle
rejected.  ``repro.obs.flight`` captures exactly that — a schema-
versioned ``DecisionRecord`` per (round, policy) streamed to an
append-only ``decisions.jsonl`` next to the run's ``metrics.json``.

Design points:

* **Exact vectors, binary sidecar.**  The per-arm float vectors a
  policy computed (:data:`VECTOR_FIELDS`: candidate scores, UCB widths,
  TS's posterior sample) are held in memory as float64 arrays and
  written as raw little-endian float64 to the append-only sidecar
  ``decisions.f64``.  The JSON line keeps every other field plus a
  ``"vectors"`` index of ``name -> [byte offset, length]`` into the
  sidecar, so no float vector is ever turned into text, and a loaded
  vector is bit-identical to the computed one.

* **Crash safety.**  The line file is the shared
  :class:`~repro.io.logfile.AppendOnlyLog`: atomically truncated at
  open, every record flushed, fsync'd every ``fsync_every_records``
  records and on close.  A record's vector bytes are written and
  flushed before the line that points at them, and at every fsync
  point the sidecar is fsync'd before the index.  A SIGKILL'd run
  leaves a longest-valid-prefix log that :func:`load_flight` recovers
  with ``strict=False`` (a torn line, or a line whose vectors run past
  the end of the sidecar, ends the prefix).

* **Byte-identical parallel logs.**  Workers record into in-memory
  :class:`FlightBuffer` instances; the parallel executor returns each
  worker's records alongside its telemetry snapshot and the parent
  extends the real recorder in *submission order* — so ``--jobs 4``
  produces the same bytes in both files as serial.

* **No wall-clock fields.**  Records deliberately contain nothing
  non-deterministic (timings live in the trace/profile sinks), which is
  what makes the log digest-comparable across runs and machines and
  replayable bit-for-bit.  A record's identity (:func:`record_bytes`)
  is its canonical thin JSON line plus its vectors' float64 bytes.

Record kinds (discriminated by ``"kind"``):

* ``header`` — schema version + everything needed to re-execute the
  run: world config, horizon, run seed, policy constructor specs.
* ``cell`` — marks the start of one replication seed's record group
  under ``fasea replicate --flight`` (mode ``"replication"``).
* ``decision`` — the per-round record; see :func:`decision_record`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import (
    IO,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.exceptions import ConfigurationError, SchemaError
from repro.io.logfile import DEFAULT_FSYNC_RECORDS, AppendOnlyLog, atomic_write_bytes
from repro.obs.trace import read_trace_jsonl

# Schema version for decisions.jsonl header records.  Bump when record
# fields change incompatibly; load_flight refuses mismatched logs.
# (2: the float vectors moved from JSON text to the decisions.f64
# sidecar, and rng fingerprints hash the bit-generator state directly.)
FLIGHT_SCHEMA_VERSION = 2

# Filename of the decision log inside a run directory (sibling of
# metrics.json / trace.jsonl), and of its float64 vector sidecar.
DECISIONS_FILENAME = "decisions.jsonl"
VECTORS_SUFFIX = ".f64"
VECTORS_FILENAME = Path(DECISIONS_FILENAME).with_suffix(VECTORS_SUFFIX).name

#: Record fields holding one float per candidate (or per dimension):
#: kept as float64 arrays in memory, stored in the sidecar on disk.
VECTOR_FIELDS = ("scores", "widths", "theta_sample")
#: The JSON-line key indexing a record's vectors in the sidecar.
VECTORS_KEY = "vectors"
#: Sidecar element type: little-endian IEEE-754 double.
_F64 = np.dtype("<f8")
#: The canonical line encoder (sorted keys), built once.
_encode = json.JSONEncoder(sort_keys=True).encode

FlightRecord = Dict[str, Any]


#: Bit generators whose state is two integers (``state``, ``inc``) plus
#: the buffered-uint32 pair — every ``default_rng`` stream.  They take
#: the direct path of :func:`rng_fingerprint`.
_PCG_FAMILIES = frozenset({"PCG64", "PCG64DXSM"})


def rng_fingerprint(rng: np.random.Generator) -> str:
    """Return a short stable fingerprint of a Generator's exact state.

    The fingerprint is a 64-bit BLAKE2b digest of the bit-generator
    state fields, hashed directly (no JSON round trip) — enough to prove
    two streams were bit-identical at the same round without logging
    the full state.  It depends on nothing process-local, so every
    process computes the same value for the same state.  Reading the
    state does not advance it.
    """
    state = rng.bit_generator.state
    family = state["bit_generator"]
    if family in _PCG_FAMILIES:
        inner = state["state"]
        payload = b"%s:%d:%d:%d:%d" % (
            family.encode("ascii"),
            inner["state"],
            inner["inc"],
            state["has_uint32"],
            state["uinteger"],
        )
    else:
        payload = _state_bytes(state)
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


def _state_bytes(value: Any) -> bytes:
    """Canonical bytes of any other bit generator's (nested) state."""
    if isinstance(value, dict):
        return b"{%s}" % b",".join(
            b"%s:%s" % (str(key).encode("utf-8"), _state_bytes(value[key]))
            for key in sorted(value)
        )
    if isinstance(value, np.ndarray):
        return b"%s[%d]%s" % (value.dtype.str.encode("ascii"), value.size, value.tobytes())
    if isinstance(value, (int, np.integer)):
        return b"%d" % int(value)
    return str(value).encode("utf-8")


def make_run_header(
    config: Any,
    horizon: int,
    run_seed: int,
    policies: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """Describe a multi-policy run (``fasea quickstart --flight``).

    ``policies`` is a list of constructor specs — ``{"name": "UCB",
    "seed": 7}`` style — sufficient for :mod:`repro.obs.replay` to
    rebuild each policy.  ``config`` is the synthetic world config
    (a dataclass); it is stored field-by-field.
    """
    return {
        "mode": "policies",
        "world": dataclasses.asdict(config),
        "horizon": int(horizon),
        "run_seed": int(run_seed),
        "policies": [dict(spec) for spec in policies],
    }


def make_replication_header(
    config: Any,
    horizon: int,
    seeds: Sequence[int],
    policy_names: Sequence[str],
    policy_seed: int,
) -> Dict[str, Any]:
    """Describe a replication sweep (``fasea replicate --flight``)."""
    return {
        "mode": "replication",
        "world": dataclasses.asdict(config),
        "horizon": int(horizon),
        "seeds": [int(seed) for seed in seeds],
        "policy_names": [str(name) for name in policy_names],
        "policy_seed": int(policy_seed),
    }


def header_record(run: Dict[str, Any]) -> FlightRecord:
    return {
        "kind": "header",
        "schema_version": FLIGHT_SCHEMA_VERSION,
        "run": run,
    }


def cell_record(seed: int) -> FlightRecord:
    """Marker separating one replication seed's decisions from the next."""
    return {"kind": "cell", "seed": int(seed)}


def decision_record(
    policy: Any,
    view: Any,
    arrangement: Sequence[int],
    rewards: Sequence[float],
) -> FlightRecord:
    """Build the per-round record for one policy's committed decision.

    Combines the runner-visible facts (round index, user capacity,
    chosen arm set, realized per-arm rewards) with whatever the policy
    stashed through :meth:`Policy.decision_info` — candidate scores,
    UCB widths, the TS sample, the exploration coin + propensity,
    oracle rejection counts and the RNG fingerprint.
    """
    reward_values = [float(value) for value in rewards]
    record: FlightRecord = {
        "kind": "decision",
        "t": int(view.time_step),
        "policy": getattr(policy, "_obs_label", None) or policy.name,
        "user_capacity": int(view.user.capacity),
        "chosen": [int(event_id) for event_id in arrangement],
        "rewards": reward_values,
        "reward": float(sum(reward_values)),
    }
    info = policy.decision_info() if hasattr(policy, "decision_info") else None
    # The runner-visible facts win over a same-named stashed field.
    return {**info, **record} if info else record


def split_vectors(
    record: FlightRecord,
) -> Tuple[FlightRecord, List[Tuple[str, np.ndarray]]]:
    """A record's thin fields, and its vectors in :data:`VECTOR_FIELDS` order.

    The vectors come back as float64 arrays (no copy when the record
    already holds them that way, as every capturing policy does).
    """
    thin = dict(record)
    vectors = []
    for name in VECTOR_FIELDS:
        values = thin.pop(name, None)
        if values is not None:
            vectors.append((name, np.asarray(values, dtype=_F64).reshape(-1)))
    return thin, vectors


def record_line(record: FlightRecord) -> str:
    """Canonical thin form: sorted keys, one line, no trailing \\n.

    Vector fields are left out; they live in the sidecar.
    """
    return _encode(split_vectors(record)[0])


def record_bytes(record: FlightRecord) -> bytes:
    """A record's identity: its thin line, then each vector's float64 bytes.

    Digests and replay compare these, so a flipped bit anywhere in a
    score vector is a difference, exactly like a changed chosen arm.
    """
    thin, vectors = split_vectors(record)
    parts = [_encode(thin).encode("utf-8")]
    for name, values in vectors:
        parts.append(b"\n%s:%d:" % (name.encode("ascii"), values.size))
        parts.append(values.tobytes())
    return b"".join(parts)


def pack_vectors(
    records: Sequence[FlightRecord],
) -> Tuple[List[FlightRecord], np.ndarray, np.ndarray]:
    """Split ``records`` for a binary container (a checkpoint log frame).

    Returns the thin records, one float64 array holding every vector
    back to back, and a ``(len(records), len(VECTOR_FIELDS))`` int64
    table of vector lengths (-1 where a record has no such field).
    :func:`unpack_vectors` inverts it bit for bit.
    """
    thin_records: List[FlightRecord] = []
    lengths = np.full((len(records), len(VECTOR_FIELDS)), -1, dtype=np.int64)
    chunks: List[np.ndarray] = []
    for row, record in enumerate(records):
        thin, vectors = split_vectors(record)
        thin_records.append(thin)
        for name, values in vectors:
            lengths[row, VECTOR_FIELDS.index(name)] = values.size
            chunks.append(values)
    values = np.concatenate(chunks) if chunks else np.zeros(0, dtype=_F64)
    return thin_records, values, lengths


def unpack_vectors(
    thin_records: Sequence[FlightRecord], values: np.ndarray, lengths: np.ndarray
) -> List[FlightRecord]:
    """Inverse of :func:`pack_vectors` (the vectors are views of ``values``)."""
    records: List[FlightRecord] = []
    position = 0
    for thin, row in zip(thin_records, lengths.tolist()):
        record = dict(thin)
        for name, length in zip(VECTOR_FIELDS, row):
            if length >= 0:
                record[name] = values[position : position + length]
                position += length
        records.append(record)
    return records


class FlightBuffer:
    """In-memory recorder with the same API as :class:`FlightRecorder`.

    Used by parallel workers (records shipped back with the telemetry
    snapshot), by replay (re-executed decisions land here for
    comparison) and by benchmarks.  Records are kept as given — vectors
    stay float64 arrays.
    """

    def __init__(self, run: Optional[Dict[str, Any]] = None) -> None:
        self.records: List[FlightRecord] = []
        if run is not None:
            self.records.append(header_record(run))

    @property
    def closed(self) -> bool:
        return False

    def record(self, record: FlightRecord) -> None:
        self.records.append(record)

    def extend(self, records: Iterable[FlightRecord]) -> None:
        self.records.extend(records)

    def close(self) -> None:  # pragma: no cover - symmetry with FlightRecorder
        pass

    def __enter__(self) -> "FlightBuffer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def sidecar_path(index_path: Union[str, Path]) -> Path:
    """The float64 sidecar belonging to a decision log file."""
    return Path(index_path).with_suffix(VECTORS_SUFFIX)


class FlightRecorder(AppendOnlyLog):
    """Crash-safe streaming writer for ``decisions.jsonl`` + ``decisions.f64``.

    The index is the shared :class:`~repro.io.logfile.AppendOnlyLog`;
    the sidecar rides on top of it.  Both are truncated atomically at
    construction (the index first, so a crash in between leaves an
    empty log, never stale lines pointing into a fresh sidecar).  Each
    record's vectors are appended to the sidecar and flushed, then its
    thin line — carrying their ``[byte offset, length]`` — is written
    and flushed; every ``fsync_every_records`` records and on
    :meth:`close` the sidecar is fsync'd before the index.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        run: Optional[Dict[str, Any]] = None,
        fsync_every_records: int = DEFAULT_FSYNC_RECORDS,
    ) -> None:
        self.directory = Path(directory)
        super().__init__(self.directory / DECISIONS_FILENAME, fsync_every_records)
        self.sidecar_path = sidecar_path(self.path)
        atomic_write_bytes(self.sidecar_path, b"")
        self._sidecar: IO[bytes] = self.sidecar_path.open("ab")
        self._sidecar_size = 0
        if run is not None:
            self.record(header_record(run))

    def record(self, record: FlightRecord) -> None:
        self._open_handle()
        thin, vectors = split_vectors(record)
        if vectors:
            index = {}
            for name, values in vectors:
                index[name] = [self._sidecar_size, values.size]
                self._sidecar_size += values.nbytes
            self._sidecar.write(b"".join(values.tobytes() for _, values in vectors))
            self._sidecar.flush()
            thin[VECTORS_KEY] = index
        self.write_line(_encode(thin))

    def sync(self) -> None:
        os.fsync(self._sidecar.fileno())
        super().sync()

    def close(self) -> None:
        if self._closed:
            return
        super().close()
        self._sidecar.close()


@dataclasses.dataclass
class FlightLog:
    """A parsed decisions.jsonl: header + records, with grouping helpers."""

    path: Optional[Path]
    records: List[FlightRecord]

    @property
    def header(self) -> Dict[str, Any]:
        for record in self.records:
            if record.get("kind") == "header":
                version = record.get("schema_version")
                if version != FLIGHT_SCHEMA_VERSION:
                    raise SchemaError(
                        f"decisions.jsonl schema version {version!r} != "
                        f"supported {FLIGHT_SCHEMA_VERSION}"
                    )
                run = record.get("run")
                if not isinstance(run, dict):
                    raise SchemaError(
                        "decisions.jsonl header record has no run payload"
                    )
                return run
        raise SchemaError("decisions.jsonl has no header record")

    @property
    def decisions(self) -> List[FlightRecord]:
        return [r for r in self.records if r.get("kind") == "decision"]

    def by_policy(self) -> "Dict[str, List[FlightRecord]]":
        grouped: Dict[str, List[FlightRecord]] = {}
        for record in self.decisions:
            grouped.setdefault(str(record.get("policy")), []).append(record)
        return grouped

    def cells(self) -> List[Tuple[int, List[FlightRecord]]]:
        """Group decisions by the ``cell`` markers (replication mode)."""
        groups: List[Tuple[int, List[FlightRecord]]] = []
        current: Optional[List[FlightRecord]] = None
        for record in self.records:
            kind = record.get("kind")
            if kind == "cell":
                current = []
                groups.append((int(record.get("seed", -1)), current))
            elif kind == "decision":
                if current is None:
                    raise SchemaError(
                        "decision record before first cell marker in a "
                        "replication log"
                    )
                current.append(record)
        return groups


def load_flight(
    target: Union[str, Path], strict: bool = True
) -> FlightLog:
    """Load a decision log from a file or a run directory.

    Each record's vectors are read back from the sidecar as float64
    arrays and its ``"vectors"`` index is dropped, so a loaded record
    equals the record the recorder was given.  A log of another schema
    version is refused with a :class:`SchemaError`.  ``strict=False``
    recovers the longest valid prefix — the read mode for logs whose
    writer was killed mid-write: it stops at a torn line, or at a line
    whose vectors run past the end of the sidecar.
    """
    path = Path(target)
    if path.is_dir():
        path = path / DECISIONS_FILENAME
    if not path.exists():
        raise ConfigurationError(f"no decision log at {path}")
    records = read_trace_jsonl(path, strict=strict)
    for record in records:
        if record.get("kind") == "header":
            version = record.get("schema_version")
            if version != FLIGHT_SCHEMA_VERSION:
                raise SchemaError(
                    f"{path} is a flight log of schema version {version!r}; "
                    f"this reader supports version {FLIGHT_SCHEMA_VERSION} "
                    "only (version 1 kept score vectors as JSON text); "
                    "re-record the run with --flight"
                )
            break
    sidecar = sidecar_path(path)
    data = sidecar.read_bytes() if sidecar.exists() else b""
    for position, record in enumerate(records):
        index = record.pop(VECTORS_KEY, None)
        if index is None:
            continue
        if not isinstance(index, dict) or not all(
            name in VECTOR_FIELDS and _is_extent(extent) for name, extent in index.items()
        ):
            raise SchemaError(f"{path}: record {position} has a malformed vector index")
        for name, (offset, length) in index.items():
            end = offset + _F64.itemsize * length
            if end > len(data):
                if not strict:
                    del records[position:]
                    return FlightLog(path=path, records=records)
                raise ConfigurationError(
                    f"{path}: record {position} points at bytes {offset}..{end} "
                    f"of {sidecar}, which holds only {len(data)}"
                )
            record[name] = np.frombuffer(data, dtype=_F64, count=length, offset=offset)
    return FlightLog(path=path, records=records)


def _is_extent(extent: Any) -> bool:
    """Whether ``extent`` is a ``[byte offset, length]`` pair of naturals."""
    return (
        isinstance(extent, list)
        and len(extent) == 2
        and all(type(value) is int and value >= 0 for value in extent)
    )


def flight_digest(records: Sequence[FlightRecord]) -> str:
    """SHA-256 over the canonical encoding (:func:`record_bytes`) of ``records``."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(record_bytes(record))
        digest.update(b"\n")
    return digest.hexdigest()


def policy_digests(
    records: Sequence[FlightRecord],
) -> "Dict[str, Tuple[int, str]]":
    """Per-policy (decision count, digest) map for drift comparison."""
    grouped: Dict[str, List[FlightRecord]] = {}
    for record in records:
        if record.get("kind") != "decision":
            continue
        grouped.setdefault(str(record.get("policy")), []).append(record)
    return {
        policy: (len(group), flight_digest(group))
        for policy, group in grouped.items()
    }
