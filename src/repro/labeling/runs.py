"""Accessibility run-length intervals: the bulk face of a labeling.

The paper's central observation is that accessibility is piecewise
constant in document order (Section 2: transition nodes are rare). The
per-node probe interface hides that structure from the executor; this
module gives it a first-class representation:

- a *run* is a maximal half-open interval ``(start, end, accessible)``
  over which one subject set's accessibility is constant; consecutive
  runs differ in their flag and tile ``[lo, hi)`` with no gaps;
- :class:`RunList` freezes a run sequence into parallel arrays for
  O(log R) point probes (``is_accessible``) and O(R + log B) sorted-batch
  intersection (``filter_positions``) — the primitive the vectorized
  operators are built on;
- :func:`view_runs` derives the Gabillon–Bruno view from a node-level
  (Cho) run list: a node is view-hidden iff it lies in the subtree of
  some inaccessible node, so each inaccessible run widens to the end of
  its last top-level subtree — O(runs) ``subtree_end`` reads, no
  per-node work;
- :class:`RunCache` memoizes decoded run lists per ``(snapshot epoch,
  access class, semantics)`` — class-equivalent subject sets share one
  entry — so a serving workload decodes each labeling epoch once per
  *behavior*, not once per user. Invalidation is by construction: a
  commit bumps the store epoch (or the labeling's ``runs_epoch``), which
  changes every key derived from it; stale entries age out of the LRU.

Run *production* lives with the labeling
(:meth:`~repro.dol.labeling.DOL.access_runs` decodes them straight from
the transition list); this module only represents, derives and caches
them, so it must not import the DOL.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_right
from collections import OrderedDict
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import AccessControlError

#: One maximal accessibility run: ``(start, end, accessible)``, half-open.
Run = Tuple[int, int, bool]


def runs_from_predicate(
    accessible: Callable[[int], bool], lo: int, hi: int
) -> Iterator[Run]:
    """Maximal runs of a per-node predicate over ``[lo, hi)``.

    One predicate call per node, merged into maximal intervals — the
    per-node reference the DOL's native decoding is tested against.
    """
    if lo >= hi:
        return
    run_start = lo
    run_flag = bool(accessible(lo))
    for pos in range(lo + 1, hi):
        flag = bool(accessible(pos))
        if flag != run_flag:
            yield (run_start, pos, run_flag)
            run_start, run_flag = pos, flag
    yield (run_start, hi, run_flag)


def runs_from_flags(flags: Sequence[bool], lo: int = 0) -> Iterator[Run]:
    """Maximal runs of a precomputed flag array starting at ``lo``."""
    n = len(flags)
    if n == 0:
        return
    run_start = lo
    run_flag = bool(flags[0])
    for i in range(1, n):
        flag = bool(flags[i])
        if flag != run_flag:
            yield (run_start, lo + i, run_flag)
            run_start, run_flag = lo + i, flag
    yield (run_start, lo + n, run_flag)


class RunList:
    """A frozen run sequence over ``[lo, hi)`` behind array-backed probes.

    ``_starts`` is strictly increasing with ``_starts[0] == lo``;
    ``_flags[i]`` is the accessibility of ``[_starts[i], _starts[i+1])``
    (the last run ends at ``hi``). Instances are immutable once built and
    safe to share across threads — the cache hands one object to many
    concurrent queries of the same epoch.
    """

    __slots__ = ("lo", "hi", "_starts", "_flags", "_flags_u8", "_n_accessible")

    def __init__(self, lo: int, hi: int, starts: array, flags: List[bool]):
        self.lo = lo
        self.hi = hi
        self._starts = starts
        self._flags = flags
        #: the flags as a byte string — the buffer form the array kernels
        #: consume (zero-copy under numpy, int indexing under stdlib)
        self._flags_u8 = bytes(flags)
        self._n_accessible: Optional[int] = None

    @classmethod
    def from_runs(cls, runs: Iterable[Run], lo: int, hi: int) -> "RunList":
        """Freeze a run iterator, checking the tiling contract as it goes.

        Adjacent equal-flag runs are coalesced (tolerated on input, never
        produced by a conforming ``access_runs``), so the stored runs are
        always maximal.
        """
        starts = array("q")
        flags: List[bool] = []
        expected = lo
        for start, end, flag in runs:
            if start != expected or end <= start or end > hi:
                raise AccessControlError(
                    f"runs must tile [{lo}, {hi}) contiguously; "
                    f"got ({start}, {end}) after {expected}"
                )
            flag = bool(flag)
            if not flags or flags[-1] != flag:
                starts.append(start)
                flags.append(flag)
            expected = end
        if expected != hi and not (lo == hi and not flags):
            raise AccessControlError(
                f"runs cover [{lo}, {expected}) of [{lo}, {hi})"
            )
        return cls(lo, hi, starts, flags)

    @classmethod
    def from_flags(cls, accessible: Sequence[bool], lo: int = 0) -> "RunList":
        """Freeze a per-node flag array (positions ``lo .. lo+len``)."""
        return cls.from_runs(
            runs_from_flags(accessible, lo), lo, lo + len(accessible)
        )

    def __len__(self) -> int:
        """Number of maximal runs."""
        return len(self._starts)

    def runs(self) -> Iterator[Run]:
        """Re-expand to ``(start, end, accessible)`` triples."""
        starts, flags = self._starts, self._flags
        for i, start in enumerate(starts):
            end = starts[i + 1] if i + 1 < len(starts) else self.hi
            yield (start, end, flags[i])

    def is_accessible(self, pos: int) -> bool:
        """Point probe: the flag of the run containing ``pos`` (O(log R))."""
        if not self.lo <= pos < self.hi:
            raise AccessControlError(f"position {pos} outside [{self.lo}, {self.hi})")
        return self._flags[bisect_right(self._starts, pos) - 1]

    def run_at(self, pos: int) -> Run:
        """The run containing ``pos`` (O(log R))."""
        if not self.lo <= pos < self.hi:
            raise AccessControlError(f"position {pos} outside [{self.lo}, {self.hi})")
        starts = self._starts
        i = bisect_right(starts, pos) - 1
        end = starts[i + 1] if i + 1 < len(starts) else self.hi
        return (starts[i], end, self._flags[i])

    def accessible_intervals(self) -> List[Tuple[int, int]]:
        """The accessible runs only, as ``(start, end)`` pairs."""
        return [(start, end) for start, end, flag in self.runs() if flag]

    def count_accessible(self) -> int:
        """Total accessible positions (memoized — the list is immutable).

        The planner's static pre-pass asks this on every secure compile,
        so a cached run list answers allow/deny verdicts in O(1).
        """
        if self._n_accessible is None:
            self._n_accessible = sum(
                end - start for start, end, flag in self.runs() if flag
            )
        return self._n_accessible

    def filter_positions(self, positions: Sequence[int]) -> array:
        """Intersect a *sorted* position batch with the accessible runs.

        Returns the accessible subset as a fresh ``array('q')``. The work
        is delegated to the active array kernel backend
        (:mod:`repro.exec.kernels`): a linear galloping merge over the
        run boundaries and the batch under stdlib, one vectorized
        ``searchsorted`` + boolean mask under numpy — byte-identical
        answers either way. No per-position probing.
        """
        if not isinstance(positions, array):
            positions = array("q", positions)
        if len(positions) == 0 or not self._starts:
            return array("q")
        # Imported lazily: the execution package imports this module at
        # load time, so a top-level import would be circular.
        from repro.exec.kernels import active_kernels

        return active_kernels().filter_runs(
            positions, self._starts, self._flags_u8, self.hi
        )


def view_runs(cho: RunList, subtree_end: Callable[[int], int]) -> RunList:
    """The view run list of a whole-document Cho run list.

    Under view semantics a node is visible iff every node on its root
    path is accessible, i.e. hidden iff it lies in ``[p, subtree_end(p))``
    for some inaccessible ``p``. Within an inaccessible Cho run
    ``[a, b)`` those intervals union to ``[a, e)``: hop
    ``p -> subtree_end(p)`` from ``a`` while ``p < b`` — one hop per
    top-level subtree of the run, each hop root itself inaccessible.
    ``e`` may pass ``b``; the accessible runs it overlaps are cut, and a
    later inaccessible run starts hopping where the hidden interval
    ended. ``cho`` must cover ``[0, n)`` of the document ``subtree_end``
    navigates.
    """
    runs: List[Run] = []
    hidden_end = cho.lo
    for start, end, accessible in cho.runs():
        if end <= hidden_end:
            continue
        start = max(start, hidden_end)
        if accessible:
            runs.append((start, end, True))
            continue
        hidden_end = start
        while hidden_end < end:
            hidden_end = subtree_end(hidden_end)
        runs.append((start, hidden_end, False))
    return RunList.from_runs(runs, cho.lo, cho.hi)


#: Cache key: (source tag + epoch, access class id or subject tuple,
#: semantics). The class id comes from the engine's
#: :class:`~repro.labeling.classes.ClassDirectory`; standalone contexts
#: without one fall back to the normalized subject tuple.
RunKey = Tuple


class RunCache:
    """Thread-safe LRU of decoded :class:`RunList` objects.

    Keys embed the snapshot epoch (store-backed) or the labeling's
    ``runs_epoch`` (in-memory), so a commit *is* the invalidation: the
    next query computes a new key, misses, and decodes the new state,
    while entries for dead epochs age out of the LRU. One cache must only
    ever serve one store / labeling lineage (the engine owns one).

    A view list is built from the Cho list of the same (epoch, access
    class), read through this cache under the Cho key (see
    :meth:`repro.exec.context.ExecutionContext._decode_run_list`), so one
    transition decode serves both semantics.
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise AccessControlError("run cache needs capacity >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[RunKey, RunList]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get_or_build(
        self, key: RunKey, build: Callable[[], RunList]
    ) -> Tuple[RunList, bool]:
        """Return ``(run_list, was_hit)``, building and inserting on miss.

        ``build`` runs outside the lock — decoding can be O(document) and
        must not block concurrent queries hitting other keys. Two threads
        missing the same fresh key may both build; both results are
        identical (same epoch) and the second insert wins harmlessly.
        """
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return cached, True
            self._misses += 1
        built = build()
        with self._lock:
            self._entries[key] = built
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
        return built, False

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "size": len(self._entries),
                "capacity": self.capacity,
            }
