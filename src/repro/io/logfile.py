"""The crash-safe append-only writer behind the streaming run logs.

``decisions.jsonl`` (:class:`~repro.obs.flight.FlightRecorder`, which
adds its ``decisions.f64`` sidecar on top) and ``alerts.jsonl``
(:class:`~repro.obs.alerts.AlertLog`) share one discipline, written
once here:

* the file is truncated atomically at open (temp file, ``fsync``,
  ``os.replace``), so a crash during startup never leaves a stale log
  that mixes two runs;
* records are appended one complete JSON line at a time and every line
  is flushed to the OS as it is written;
* the file is fsync'd every ``fsync_every_records`` records and
  unconditionally on :meth:`AppendOnlyLog.close`.

A SIGKILL therefore loses at most the final partially written line,
and the readers' ``strict=False`` mode recovers the longest valid
prefix.

This module imports nothing from the rest of the package but its
exceptions, so every layer (``repro.obs``, ``repro.io.checkpoint``)
can build on it without an import cycle.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Any, Dict, Iterable, Optional, TypeVar, Union

from repro.exceptions import ConfigurationError

PathLike = Union[str, Path]
_LogT = TypeVar("_LogT", bound="AppendOnlyLog")

#: Default fsync cadence (records) of every append-only log.  Flushes
#: happen per record, so at most the final partial line is lost on
#: SIGKILL.
DEFAULT_FSYNC_RECORDS = 64


def atomic_write_bytes(path: PathLike, data: bytes) -> Path:
    """Write ``data`` atomically: temp file + flush + fsync + ``os.replace``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.parent / f".{path.name}.tmp"
    with tmp_path.open("wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    return path


class AppendOnlyLog:
    """Crash-safe streaming writer of one JSON-lines file.

    :meth:`record` writes a dict as one canonical line (sorted keys);
    subclasses that encode records differently override it and call
    :meth:`write_line`.  Subclasses that keep companion files flush
    them before :meth:`write_line` and fsync them in :meth:`sync`, which
    runs at every fsync point before the line file's own ``fsync``.
    """

    def __init__(
        self, path: PathLike, fsync_every_records: int = DEFAULT_FSYNC_RECORDS
    ) -> None:
        if fsync_every_records < 1:
            raise ConfigurationError(
                f"fsync_every_records must be >= 1, got {fsync_every_records}"
            )
        self.path = Path(path)
        self.fsync_every_records = int(fsync_every_records)
        self._records_since_fsync = 0
        self._num_records = 0
        self._closed = False
        atomic_write_bytes(self.path, b"")
        self._handle: Optional[IO[str]] = self.path.open("a", encoding="utf-8")

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def num_records(self) -> int:
        return self._num_records

    def _open_handle(self) -> IO[str]:
        """The line file's handle; raises once the log is closed."""
        if self._closed or self._handle is None:
            raise ConfigurationError(f"{type(self).__name__} is closed")
        return self._handle

    def write_line(self, line: str) -> None:
        """Append one complete line (no trailing newline in ``line``)."""
        handle = self._open_handle()
        handle.write(line)
        handle.write("\n")
        handle.flush()
        self._num_records += 1
        self._records_since_fsync += 1
        if self._records_since_fsync >= self.fsync_every_records:
            self.sync()
            self._records_since_fsync = 0

    def record(self, record: Dict[str, Any]) -> None:
        """Append ``record`` as one canonical JSON line."""
        self.write_line(json.dumps(record, sort_keys=True))

    def extend(self, records: Iterable[Dict[str, Any]]) -> None:
        """Append ``records`` in order, one :meth:`record` call each."""
        for record in records:
            self.record(record)

    def sync(self) -> None:
        """Force the flushed lines to disk."""
        if self._handle is not None:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Flush, fsync and close (idempotent); later writes raise."""
        if self._closed:
            return
        self._closed = True
        if self._handle is not None:
            self._handle.flush()
            self.sync()
            self._handle.close()
            self._handle = None

    def __enter__(self: _LogT) -> _LogT:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
