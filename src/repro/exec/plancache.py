"""A thread-safe cache of compiled query plans (the data-independent part).

Compiling a twig query has two halves. Parsing the query string into a
:class:`~repro.nok.pattern.PatternTree` and decomposing it into NoK
subtrees (:func:`~repro.nok.decompose.decompose`) depend only on the
query text — they are immutable once built and safely shared by any
number of concurrent executions. Building the *operator tree* is cheap
but stateful (operators carry per-run counters and iterators), so it is
re-done per execution from the cached halves.

The cache therefore stores ``(pattern, decomposition)`` pairs under a
:class:`PlanKey` of (query text, semantics, **access class id**, ordered
flag) — the full identity of a compiled plan shape, keyed the way a
serving workload actually repeats: class-equivalent subject sets (two
users whose rights collapse to the same accessibility behavior, see
:mod:`repro.labeling.classes`) share one entry, so cache population is
bounded by the number of *classes*, not the number of users. Engines
without a labeling (storeless/in-memory non-secure evaluation)
have no class directory to consult; for them the compatibility path keys
on the normalized subject tuple instead — same shape, same sharing
semantics, just without the cross-subject collapse. Entries are
immutable, eviction is LRU, and hit/miss/eviction counters feed the
service metrics. Because cached artifacts are data-independent, an
accessibility update does **not** invalidate them: a plan compiled
before the update, executed against a post-update snapshot, reads the
new labeling through its :class:`~repro.exec.context.ExecutionContext`.
(Class ids are per-epoch, but a cross-epoch id collision is harmless
here — the cached halves depend only on the query text.) Only
:meth:`clear` (e.g. on structural document replacement) empties the
cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple, Union

from repro.labeling.classes import normalize_subjects

#: (query text, semantics, access key, ordered) where the access key is
#: an int class id (labeling-backed engines), a normalized subject tuple
#: (the no-labeling compatibility path), or None (non-secure).
AccessKey = Union[None, int, Tuple[int, ...]]
PlanKey = Tuple[str, str, AccessKey, bool]


def plan_key(
    query: str,
    semantics: str,
    subject,
    ordered: bool,
    class_id: Optional[int] = None,
) -> PlanKey:
    """Normalize a compile request into a hashable cache key.

    With a ``class_id`` (resolved by the engine's
    :class:`~repro.labeling.classes.ClassDirectory`) the key carries the
    access class — the canonical scheme. Without one, ``subject`` is
    normalized via :func:`~repro.labeling.classes.normalize_subjects`
    (``None`` / single id / iterable; duplicates and order collapse), so
    equal subject sets still hit the same entry. An int class id and a
    subject tuple can never collide — the types differ.
    """
    if class_id is not None:
        return (query, semantics, class_id, ordered)
    return (query, semantics, normalize_subjects(subject), ordered)


class PlanCache:
    """Bounded LRU map from :data:`PlanKey` to (pattern, decomposition).

    All methods are safe to call from any number of threads; the single
    internal lock is held only for dictionary operations (never across a
    parse or decompose, so concurrent misses may both compile — the
    second insert wins harmlessly, both artifacts being equivalent).
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("plan cache needs capacity >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[PlanKey, tuple]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: PlanKey):
        """The cached (pattern, decomposition) for ``key``, or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: PlanKey, pattern, decomposition) -> None:
        with self._lock:
            self._entries[key] = (pattern, decomposition)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters survive; see :meth:`reset_stats`)."""
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, float]:
        """Hit/miss counters and the derived hit ratio (0.0 when unused)."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_ratio": (self.hits / total) if total else 0.0,
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PlanCache(entries={len(self)}, capacity={self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )
