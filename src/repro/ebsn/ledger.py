"""Append-only registration ledger.

Every committed arrangement is recorded as a :class:`LedgerEntry`:
which user, which events, and which of those events the user accepted.
The ledger is the platform's audit trail — metrics (total rewards,
accept ratios) are *derived* from it rather than accumulated ad hoc, so
a simulation can always be reconciled after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.exceptions import LedgerError


@dataclass(frozen=True)
class LedgerEntry:
    """One committed arrangement and its feedback."""

    time_step: int
    user_id: int
    arranged: Tuple[int, ...]
    accepted: Tuple[int, ...]

    def __post_init__(self) -> None:
        arranged = set(self.arranged)
        if len(arranged) != len(self.arranged):
            raise LedgerError(f"duplicate events arranged at t={self.time_step}")
        if not set(self.accepted) <= arranged:
            raise LedgerError(
                f"accepted events not a subset of arranged at t={self.time_step}"
            )

    @property
    def reward(self) -> int:
        """``r_{t,A_t}`` — the number of accepted events (Equation 1)."""
        return len(self.accepted)

    @property
    def num_arranged(self) -> int:
        return len(self.arranged)


class RegistrationLedger:
    """Append-only log of arrangements, keyed by strictly increasing ``t``."""

    def __init__(self) -> None:
        self._entries: List[LedgerEntry] = []

    def record(
        self,
        time_step: int,
        user_id: int,
        arranged: Sequence[int],
        accepted: Sequence[int],
    ) -> LedgerEntry:
        """Append one entry; time steps must be strictly increasing."""
        if self._entries and time_step <= self._entries[-1].time_step:
            raise LedgerError(
                f"time step {time_step} not after {self._entries[-1].time_step}"
            )
        entry = LedgerEntry(
            time_step=time_step,
            user_id=user_id,
            arranged=tuple(map(int, arranged)),
            accepted=tuple(map(int, accepted)),
        )
        self._entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LedgerEntry]:
        return iter(self._entries)

    def __getitem__(self, index: int) -> LedgerEntry:
        return self._entries[index]

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Flatten the log into dense integer arrays for an npz checkpoint.

        Variable-length ``arranged``/``accepted`` tuples are stored as
        one flat array each plus an offsets array in CSR style
        (``offsets[i]:offsets[i+1]`` delimits entry ``i``).
        """
        entries = self._entries
        arranged_offsets = np.zeros(len(entries) + 1, dtype=np.int64)
        accepted_offsets = np.zeros(len(entries) + 1, dtype=np.int64)
        arranged_flat: List[int] = []
        accepted_flat: List[int] = []
        for i, entry in enumerate(entries):
            arranged_flat.extend(entry.arranged)
            accepted_flat.extend(entry.accepted)
            arranged_offsets[i + 1] = len(arranged_flat)
            accepted_offsets[i + 1] = len(accepted_flat)
        return {
            "time_steps": np.array(
                [e.time_step for e in entries], dtype=np.int64
            ),
            "user_ids": np.array([e.user_id for e in entries], dtype=np.int64),
            "arranged_offsets": arranged_offsets,
            "arranged_flat": np.array(arranged_flat, dtype=np.int64),
            "accepted_offsets": accepted_offsets,
            "accepted_flat": np.array(accepted_flat, dtype=np.int64),
        }

    def rows(self, start: int = 0) -> List[List[Any]]:
        """Entries from index ``start`` on as JSON-ready
        ``[time_step, user_id, arranged, accepted]`` rows."""
        return [
            [entry.time_step, entry.user_id, list(entry.arranged), list(entry.accepted)]
            for entry in self._entries[start:]
        ]

    def extend_rows(self, rows: Sequence[Sequence[Any]]) -> None:
        """Append :meth:`rows` output (re-validated entry by entry)."""
        for time_step, user_id, arranged, accepted in rows:
            self.record(int(time_step), int(user_id), arranged, accepted)

    def restore_arrays(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Rebuild the log from :meth:`state_arrays` output.

        Structural consistency (matching lengths, monotone offsets) is
        validated before the current entries are discarded; entry-level
        invariants are re-enforced by :class:`LedgerEntry` itself.
        """
        time_steps = np.asarray(arrays["time_steps"], dtype=np.int64).reshape(-1)
        user_ids = np.asarray(arrays["user_ids"], dtype=np.int64).reshape(-1)
        arranged_offsets = np.asarray(
            arrays["arranged_offsets"], dtype=np.int64
        ).reshape(-1)
        accepted_offsets = np.asarray(
            arrays["accepted_offsets"], dtype=np.int64
        ).reshape(-1)
        arranged_flat = np.asarray(arrays["arranged_flat"], dtype=np.int64).reshape(-1)
        accepted_flat = np.asarray(arrays["accepted_flat"], dtype=np.int64).reshape(-1)
        count = time_steps.size
        if user_ids.size != count:
            raise LedgerError(
                f"{count} time steps but {user_ids.size} user ids"
            )
        for name, offsets, flat in (
            ("arranged", arranged_offsets, arranged_flat),
            ("accepted", accepted_offsets, accepted_flat),
        ):
            if offsets.size != count + 1 or (count and offsets[0] != 0):
                raise LedgerError(f"malformed {name} offsets in checkpoint")
            if offsets.size and int(offsets[-1]) != flat.size:
                raise LedgerError(
                    f"{name} offsets cover {int(offsets[-1])} entries but "
                    f"the flat array holds {flat.size}"
                )
            if offsets.size > 1 and bool((np.diff(offsets) < 0).any()):
                raise LedgerError(f"non-monotone {name} offsets in checkpoint")
        entries: List[LedgerEntry] = []
        for i in range(count):
            entries.append(
                LedgerEntry(
                    time_step=int(time_steps[i]),
                    user_id=int(user_ids[i]),
                    arranged=tuple(
                        int(v)
                        for v in arranged_flat[
                            arranged_offsets[i] : arranged_offsets[i + 1]
                        ]
                    ),
                    accepted=tuple(
                        int(v)
                        for v in accepted_flat[
                            accepted_offsets[i] : accepted_offsets[i + 1]
                        ]
                    ),
                )
            )
        self._entries = entries

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def total_reward(self) -> int:
        """Total accepted events over all rounds: ``sum_t r_{t,A_t}``."""
        return sum(entry.reward for entry in self._entries)

    def total_arranged(self) -> int:
        """Total events arranged over all rounds."""
        return sum(entry.num_arranged for entry in self._entries)

    def overall_accept_ratio(self) -> float:
        """Accepted / arranged over the whole log (0 when nothing arranged)."""
        arranged = self.total_arranged()
        return self.total_reward() / arranged if arranged else 0.0

    def registrations_per_event(self) -> Dict[int, int]:
        """How many accepted registrations each event received."""
        counts: Dict[int, int] = {}
        for entry in self._entries:
            for event_id in entry.accepted:
                counts[event_id] = counts.get(event_id, 0) + 1
        return counts

    def rewards_by_step(self) -> List[int]:
        """Per-entry rewards in time order."""
        return [entry.reward for entry in self._entries]
