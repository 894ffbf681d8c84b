"""Oracle-Greedy (Algorithm 2 of the paper).

Visit events in non-increasing order of estimated reward; add each
visited event to the arrangement if it still has capacity and does not
conflict with anything already chosen; stop once ``c_u`` events are
arranged.  Events with non-positive estimated reward are deliberately
*kept* (see the discussion after Example 2 in the paper): they only
enter when nothing better fits, and their true reward may be positive.

Complexity: the paper's analysis budgets ``O(|V| log |V|)`` for the
sort plus ``O(c_u |V|)`` conflict checks.  Because an arrangement holds
at most ``c_u`` events and typically ``c_u`` is much smaller than
``|V|``, the implementation first materialises only a top-``m`` score
prefix via ``argpartition`` (``O(|V| + m log m)``) and falls back to
ordering the remaining events only when conflicts or exhausted
capacities burn through the whole prefix.  The visiting order — and
therefore the returned arrangement, ascending-id tie-break included —
is identical to a full stable sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np
import numpy.typing as npt

from repro.ebsn.conflicts import BaseConflictGraph
from repro.exceptions import ConfigurationError

FloatArray = npt.NDArray[np.float64]
BoolArray = npt.NDArray[np.bool_]
IntArray = npt.NDArray[np.int_]

#: The argpartition prefix holds ``max(PREFIX_FACTOR * c_u, PREFIX_MIN)``
#: candidates — slack for entries lost to conflicts and full events.
_PREFIX_FACTOR = 4
_PREFIX_MIN = 16
#: Below this many events a full stable sort is cheaper than the
#: argpartition machinery.  Measured on fresh N(0, 1) score draws per
#: call (c_u ~ U{1..5}, conflict ratio 0.25, 2 vCPU, numpy 2.4): the
#: paths tie at 250-275 events, the prefix path wins ~1.1x at 300,
#: ~1.4x at 400-500 and ~2.6x at 1000.
_PREFIX_MIN_EVENTS = 256
#: Ids converted to Python ints by the first chunk of a scan; each
#: later chunk doubles (see :func:`_in_chunks`).
_FIRST_CHUNK = 16


@dataclass
class OracleStats:
    """Per-call diagnostics of one Oracle-Greedy invocation.

    Filled only when a caller passes ``stats=`` to :func:`oracle_greedy`
    — the default path runs the original scan untouched, so disabled
    instrumentation pays nothing inside the hot loop.

    Attributes
    ----------
    candidates:
        Events with remaining capacity at call time (the feasible pool).
    visited:
        Events the greedy scan actually inspected.
    capacity_rejections:
        Visited events skipped because their capacity was exhausted.
    conflict_rejections:
        Visited events skipped because they conflict with a chosen one.
    arranged:
        Size of the returned arrangement.
    user_capacity:
        ``c_u`` of the request (denominator of the fill rate).
    """

    candidates: int = 0
    visited: int = 0
    capacity_rejections: int = 0
    conflict_rejections: int = 0
    arranged: int = 0
    user_capacity: int = 0

    @property
    def fill_rate(self) -> float:
        """``arranged / c_u`` — 1.0 means the request was fully served."""
        return self.arranged / self.user_capacity if self.user_capacity else 0.0


def _in_chunks(visit_order: IntArray) -> Iterator[List[int]]:
    """``visit_order`` as Python ints, converted in doubling chunks.

    A scan usually stops after a few dozen events, so converting all
    ``|V|`` ids up front (one ``.tolist()``) is mostly wasted work.
    """
    start, size = 0, _FIRST_CHUNK
    while start < visit_order.size:
        yield visit_order[start : start + size].tolist()
        start += size
        size *= 2


def _greedy_scan(
    visit_order: IntArray,
    conflicts: BaseConflictGraph,
    remaining_capacities: FloatArray,
    user_capacity: int,
    arrangement: List[int],
    blocked: BoolArray,
) -> None:
    """Scan ``visit_order`` appending feasible events (mutates in place)."""
    for chunk in _in_chunks(visit_order):
        for event_id in chunk:
            if len(arrangement) >= user_capacity:
                return
            if remaining_capacities[event_id] <= 0 or blocked[event_id]:
                continue
            arrangement.append(event_id)
            blocked |= conflicts.neighbor_mask_view(event_id)


def _greedy_scan_stats(
    visit_order: IntArray,
    conflicts: BaseConflictGraph,
    remaining_capacities: FloatArray,
    user_capacity: int,
    arrangement: List[int],
    blocked: BoolArray,
    stats: OracleStats,
) -> None:
    """:func:`_greedy_scan` with per-skip accounting.

    A separate function (rather than ``if stats`` checks inside the
    loop) keeps the uninstrumented scan byte-identical to PR 1's
    kernel; the appended events are the same either way.
    """
    for chunk in _in_chunks(visit_order):
        for event_id in chunk:
            if len(arrangement) >= user_capacity:
                return
            stats.visited += 1
            if remaining_capacities[event_id] <= 0:
                stats.capacity_rejections += 1
                continue
            if blocked[event_id]:
                stats.conflict_rejections += 1
                continue
            arrangement.append(event_id)
            blocked |= conflicts.neighbor_mask_view(event_id)


def _top_prefix_order(scores: FloatArray, prefix: int) -> Optional[IntArray]:
    """Ids of every event scoring at least the ``prefix``-th best, in
    exactly the order a full stable sort on ``-scores`` would visit them.

    Returns ``None`` when the tied tail around the cutoff makes the
    prefix degenerate (no better than sorting everything).
    """
    part = np.argpartition(-scores, prefix - 1)[:prefix]
    cutoff = scores[part].min()
    if np.isnan(cutoff):  # un-orderable scores: let the full sort decide
        return None
    # Everything scoring strictly above ``cutoff`` lies inside ``part``;
    # events tied *at* the cutoff may straddle the partition boundary,
    # so take all of them to keep the ascending-id tie-break exact.
    candidates = np.flatnonzero(scores >= cutoff)
    if candidates.size >= scores.size:
        return None
    # ``candidates`` is ascending by id; a stable sort on the negated
    # scores therefore reproduces the global tie-break.
    return candidates[np.argsort(-scores[candidates], kind="stable")]


def oracle_greedy(
    scores: npt.ArrayLike,
    conflicts: BaseConflictGraph,
    remaining_capacities: npt.ArrayLike,
    user_capacity: int,
    order: Optional[Sequence[int]] = None,
    stats: Optional[OracleStats] = None,
) -> List[int]:
    """Return a feasible arrangement greedily by score.

    Parameters
    ----------
    scores:
        Estimated reward per event id (``\\hat r_{t,v}``); higher is
        visited earlier.  Ties are broken by ascending event id so the
        result is deterministic.
    conflicts:
        The conflict graph.
    remaining_capacities:
        Remaining capacity per event id; events at 0 are skipped.
    user_capacity:
        ``c_u`` — the maximum arrangement size.
    order:
        Optional explicit visiting order (used by the Random baseline);
        overrides the score sort when given.
    stats:
        Optional :class:`OracleStats` to fill with per-call diagnostics
        (candidate pool size, skip reasons, fill rate).  ``None`` (the
        default) runs the original uninstrumented scan — the returned
        arrangement is identical either way.

    Returns
    -------
    list of int
        Event ids in the order they were arranged.
    """
    score_vec: FloatArray = np.asarray(scores, dtype=float)
    capacity_vec: FloatArray = np.asarray(remaining_capacities, dtype=float)
    if score_vec.shape != capacity_vec.shape:
        raise ConfigurationError(
            f"scores shape {score_vec.shape} != capacities shape "
            f"{capacity_vec.shape}"
        )
    if score_vec.ndim != 1:
        raise ConfigurationError("scores must be one-dimensional")
    if score_vec.size != conflicts.num_events:
        raise ConfigurationError(
            f"{score_vec.size} scores but conflict graph covers "
            f"{conflicts.num_events} events"
        )
    if user_capacity < 1:
        raise ConfigurationError(f"user capacity must be >= 1, got {user_capacity}")

    arrangement: List[int] = []
    blocked: BoolArray = np.zeros(score_vec.size, dtype=bool)
    if stats is not None:
        stats.user_capacity = int(user_capacity)
        stats.candidates = int((capacity_vec > 0).sum())

    if order is not None:
        visit_order: IntArray = np.asarray(order, dtype=int).reshape(-1)
        # Permutation check via bincount: O(|V|) instead of the
        # O(|V| log |V|) sort — the Random baseline pays this per round.
        if (
            visit_order.size != score_vec.size
            or (visit_order.size and visit_order.min() < 0)
            or not (np.bincount(visit_order, minlength=score_vec.size) == 1).all()
        ):
            raise ConfigurationError("order must be a permutation of all event ids")
        _scan(
            visit_order, conflicts, capacity_vec, user_capacity,
            arrangement, blocked, stats,
        )
        return _finish(arrangement, stats)

    prefix = max(_PREFIX_FACTOR * user_capacity, _PREFIX_MIN)
    prefix_order = (
        _top_prefix_order(score_vec, prefix)
        if score_vec.size >= _PREFIX_MIN_EVENTS and prefix < score_vec.size
        else None
    )
    if prefix_order is not None:
        _scan(
            prefix_order, conflicts, capacity_vec, user_capacity,
            arrangement, blocked, stats,
        )
        if len(arrangement) >= user_capacity:
            return _finish(arrangement, stats)
        # Prefix exhausted by conflicts/capacity: order the strictly
        # worse remainder and keep scanning with the same state.  The
        # concatenation [prefix order, remainder order] is exactly the
        # full stable sort, so the result is unchanged.
        cutoff = score_vec[prefix_order[-1]]
        # ``~(>= cutoff)`` rather than ``< cutoff`` so un-orderable
        # (NaN) entries still get visited, last, as a full sort would.
        rest = np.flatnonzero(~(score_vec >= cutoff))
        rest_order = rest[np.argsort(-score_vec[rest], kind="stable")]
        _scan(
            rest_order, conflicts, capacity_vec, user_capacity,
            arrangement, blocked, stats,
        )
        return _finish(arrangement, stats)

    # Stable sort on (-score) gives non-increasing score with
    # ascending-id tie-break.
    full_order: IntArray = np.argsort(-score_vec, kind="stable")
    _scan(
        full_order, conflicts, capacity_vec, user_capacity,
        arrangement, blocked, stats,
    )
    return _finish(arrangement, stats)


def _scan(
    visit_order: IntArray,
    conflicts: BaseConflictGraph,
    remaining_capacities: FloatArray,
    user_capacity: int,
    arrangement: List[int],
    blocked: BoolArray,
    stats: Optional[OracleStats],
) -> None:
    """Dispatch to the plain or stats-collecting scan exactly once."""
    if stats is None:
        _greedy_scan(
            visit_order, conflicts, remaining_capacities, user_capacity,
            arrangement, blocked,
        )
    else:
        _greedy_scan_stats(
            visit_order, conflicts, remaining_capacities, user_capacity,
            arrangement, blocked, stats,
        )


def _finish(arrangement: List[int], stats: Optional[OracleStats]) -> List[int]:
    """Record the arrangement size on ``stats`` and pass it through."""
    if stats is not None:
        stats.arranged = len(arrangement)
    return arrangement
