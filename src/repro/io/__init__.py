"""Persistence: history serialisation, the SQLite run store and durable files.

* :mod:`~repro.io.history_io` — save/load :class:`~repro.simulation.history.History`
  objects (JSON metadata + npz arrays) so long runs can be archived and
  re-analysed without re-simulating.
* :mod:`~repro.io.runstore` — a small SQLite database of run summaries
  and curve samples; the ``fasea`` CLI and the replication harness use
  it to accumulate results across sessions and seeds.
* :mod:`~repro.io.logfile` — the crash-safe append-only writer behind
  ``decisions.jsonl`` and ``alerts.jsonl``.
* :mod:`~repro.io.checkpoint` — round checkpoints and the executor's
  unit-result cache.

The package re-exports only the dependency-free log writer; import
the rest from its submodule.  The observability layer builds on
:mod:`~repro.io.logfile` while the simulation package is still
initialising, and ``history_io`` / ``runstore`` reach back into both,
so importing them here would close an import cycle.
"""

from repro.io.logfile import DEFAULT_FSYNC_RECORDS, AppendOnlyLog, atomic_write_bytes

__all__ = ["DEFAULT_FSYNC_RECORDS", "AppendOnlyLog", "atomic_write_bytes"]
