"""Access classes: canonicalizing subject sets into equivalence classes.

The paper's core size observation (Section 2.2) is that distinct access
control lists number in the hundreds even when subjects number in the
millions — accessibility is *shared*. The same collapse applies to whole
subject sets: two user sessions whose subject sets light up the same set
of distinct ACLs have identical accessibility at every node, hence
identical run lists, identical secure answers, and identical plans. An
**access class** is that equivalence class, and it — not the raw subject
tuple — is what every subject-keyed cache in the hot path should key on.

Two pieces live here:

- :func:`normalize_subjects` — the one shared normalization of the
  ``subject`` argument every entry point accepts (engine, service, CLI):
  ``None`` passes through, a single id becomes a 1-tuple, any iterable is
  deduplicated and sorted. Duplicate or unsorted inputs therefore hit the
  same cache entries everywhere.
- :class:`ClassDirectory` — maps a (labeling epoch, subject set) to a
  dense class id via the DOL's
  :meth:`~repro.dol.labeling.DOL.access_class` signature.
  Ids are globally unique across the directory's lifetime (the counter
  never resets), so a cache entry keyed on ``(epoch, class_id)`` can
  never alias a different accessibility behavior even across
  re-partitions; an update that changes any mask bumps ``runs_epoch``
  (or the store epoch), the epoch key changes, and the directory
  re-partitions from scratch.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, Optional, Sequence, Tuple, Union

from repro.errors import AccessControlError

Subject = Union[int, Sequence[int]]

#: Per-epoch partition state: signature -> class id, subject set -> class id.
_Partition = Tuple[Dict[int, int], Dict[Tuple[int, ...], int]]


def normalize_subjects(subject: Optional[Subject]) -> Optional[Tuple[int, ...]]:
    """Canonicalize a ``subject`` argument to a sorted, deduplicated tuple.

    Accepts ``None`` (non-secure evaluation), a single subject id, or any
    iterable of ids (the user-level union of Section 4's footnote).
    ``[2, 1, 2]`` and ``(1, 2)`` normalize identically, so every cache
    keyed downstream of this helper treats them as the same principal.
    """
    if subject is None:
        return None
    if isinstance(subject, int):
        return (subject,)
    subjects = tuple(sorted(set(subject)))
    if not subjects:
        raise AccessControlError("user-level evaluation needs >= 1 subject")
    if not all(isinstance(s, int) for s in subjects):
        raise AccessControlError(f"subject ids must be integers: {subjects!r}")
    return subjects


class ClassDirectory:
    """Canonicalizes subject sets to dense accessibility-class ids.

    One directory serves one labeling lineage (the engine owns one, like
    its caches). Partitions are kept per *epoch key* — ``("store",
    epoch)`` for store-backed evaluation, ``("mem", id(labeling),
    runs_epoch)`` in memory — in a small LRU, so a few concurrently
    pinned snapshots each keep their own stable id assignment. Class ids
    are drawn from one monotone counter shared by all partitions: the
    same behavior in the same epoch always resolves to the same id, and
    an id is never reused for a different signature, so downstream cache
    keys built from ``(epoch key, class id)`` cannot alias.
    """

    def __init__(self, max_partitions: int = 8, max_tracked_sets: int = 65536):
        if max_partitions < 1:
            raise AccessControlError("class directory needs >= 1 partition")
        self._lock = threading.Lock()
        self._partitions: "OrderedDict[Hashable, _Partition]" = OrderedDict()
        self._next_class = 0
        self.max_partitions = max_partitions
        #: per-partition bound on memoized subject sets (the signature
        #: map is bounded by distinct behaviors and needs no cap)
        self.max_tracked_sets = max_tracked_sets
        self._lookups = 0
        self._memo_hits = 0
        self._repartitions = 0

    def _partition(self, epoch_key: Hashable) -> _Partition:
        part = self._partitions.get(epoch_key)
        if part is None:
            part = ({}, {})
            self._partitions[epoch_key] = part
            self._repartitions += 1
            while len(self._partitions) > self.max_partitions:
                self._partitions.popitem(last=False)
        else:
            self._partitions.move_to_end(epoch_key)
        return part

    def class_of(
        self, labeling, epoch_key: Hashable, subject: Optional[Subject]
    ) -> int:
        """The access-class id of ``subject`` under ``labeling`` at ``epoch_key``.

        The subject set is normalized first, so duplicate/unsorted inputs
        share a memo entry. The signature computation
        (:meth:`~repro.dol.labeling.DOL.access_class`) runs outside the
        lock — it is O(distinct ACLs) after the DOL's per-epoch atom list
        is built.
        """
        subjects = normalize_subjects(subject)
        if subjects is None:
            raise AccessControlError("class_of needs a subject set")
        with self._lock:
            self._lookups += 1
            classes, sets = self._partition(epoch_key)
            known = sets.get(subjects)
            if known is not None:
                self._memo_hits += 1
                return known
        signature = labeling.access_class(subjects)
        with self._lock:
            classes, sets = self._partition(epoch_key)
            class_id = classes.get(signature)
            if class_id is None:
                class_id = self._next_class
                self._next_class += 1
                classes[signature] = class_id
            if len(sets) < self.max_tracked_sets:
                sets[subjects] = class_id
            return class_id

    def n_classes(self, epoch_key: Hashable) -> int:
        """Distinct classes seen so far in one epoch's partition."""
        with self._lock:
            part = self._partitions.get(epoch_key)
            return len(part[0]) if part is not None else 0

    def clear(self) -> None:
        with self._lock:
            self._partitions.clear()

    def stats(self) -> Dict[str, int]:
        """Counters for the service metrics: collapse visible at a glance."""
        with self._lock:
            current = next(reversed(self._partitions.values()), ({}, {}))
            return {
                "classes": len(current[0]),
                "subject_sets": len(current[1]),
                "classes_total": self._next_class,
                "lookups": self._lookups,
                "memo_hits": self._memo_hits,
                "repartitions": self._repartitions,
                "partitions": len(self._partitions),
            }
