"""DOL update operations (Section 3.4).

Two families of updates are supported:

- **accessibility updates** — change the accessibility function itself:
  one node, or a whole subtree (contiguous document-order range), for one
  subject or to an explicit access control list;
- **structural updates** — insert, delete, or move a subtree (the inserted
  nodes arrive with their own access controls, per the paper).

All operations have the *update locality* property: only the transitions
between the pair surrounding the affected range are touched. Proposition 1
(each operation adds at most 2 transition nodes beyond those present in the
original data and in any inserted data) is enforced by
:meth:`DOLUpdater.check_proposition1` and verified by property tests.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dol.labeling import DOL, transitions_from_masks
from repro.errors import CodebookError, UpdateError

MaskFn = Callable[[int], int]
JournalFn = Callable[[Dict[str, object]], None]


class DOLUpdater:
    """In-place update engine for a :class:`~repro.dol.labeling.DOL`.

    ``journal``, when given, receives one small dict per logical
    operation (kind, range, transition delta). The block store uses it to
    embed the logical update description in the write-ahead log's commit
    record, so a recovered store can report *what* the batch it replayed
    or rolled back was doing.
    """

    def __init__(self, dol: DOL, journal: Optional[JournalFn] = None):
        self.dol = dol
        self.journal = journal

    def _record(self, op: str, **fields) -> None:
        if self.journal is not None:
            entry: Dict[str, object] = {"op": op}
            entry.update(fields)
            self.journal(entry)

    # -- accessibility updates -------------------------------------------------

    def set_node_mask(self, pos: int, mask: int) -> int:
        """Replace the access control list of a single node.

        Returns the change in transition count (Proposition 1: <= 2).
        """
        return self.transform_range(pos, pos + 1, lambda _old: mask)

    def set_range_mask(self, start: int, end: int, mask: int) -> int:
        """Replace the ACL of every node in [start, end) — a subtree update."""
        return self.transform_range(start, end, lambda _old: mask)

    def set_subject_accessibility(
        self, start: int, end: int, subject: int, value: bool
    ) -> int:
        """Grant/revoke one subject over [start, end), preserving other bits.

        This is the paper's "change the accessibility of all of the nodes
        in a document subtree [for a given subject]" operation.
        """
        bit = 1 << subject
        if value:
            return self.transform_range(start, end, lambda old: old | bit)
        return self.transform_range(start, end, lambda old: old & ~bit)

    def set_node_accessibility(self, pos: int, subject: int, value: bool) -> int:
        """Grant/revoke one subject on one node."""
        return self.set_subject_accessibility(pos, pos + 1, subject, value)

    def transform_range(self, start: int, end: int, fn: MaskFn) -> int:
        """Apply ``fn`` to the ACL of every node in [start, end).

        The rewrite is a splice costing O(log T + range) for T
        transitions: only the transitions at positions in [start, end]
        are decoded and replaced, by the transformed segment list with
        boundary transitions materialized at ``start`` and ``end`` when
        needed. Every other transition keeps its code.

        Returns the transition-count delta.
        """
        dol = self.dol
        if not 0 <= start < end <= dol.n_nodes:
            raise UpdateError(f"invalid range [{start}, {end})")
        before = dol.n_transitions
        positions, codes = dol.positions, dol.codes
        pairs = [(start, fn(dol.mask_at(start)))]
        for index in range(bisect_right(positions, start), bisect_left(positions, end)):
            pairs.append((positions[index], fn(dol.codebook.decode(codes[index]))))
        if end < dol.n_nodes:
            pairs.append((end, dol.mask_at(end)))
        self._splice(start, end, pairs, 0)
        delta = dol.n_transitions - before
        self._record("transform_range", start=start, end=end, delta=delta)
        return delta

    # -- structural updates ------------------------------------------------------

    def insert_range(self, at: int, masks: Sequence[int]) -> int:
        """Insert ``len(masks)`` new nodes (a labeled subtree) at position ``at``.

        Existing positions >= ``at`` shift right. Returns the transition
        delta *beyond* the inserted data's own transitions, i.e. the
        Proposition 1 quantity (<= 2).
        """
        dol = self.dol
        if not 0 <= at <= dol.n_nodes:
            raise UpdateError(f"invalid insert position {at}")
        if not masks:
            raise UpdateError("cannot insert an empty subtree")
        before = dol.n_transitions
        own = transitions_from_masks(masks)
        k = len(masks)
        pairs = [(at + offset, mask) for offset, mask in own]
        if at < dol.n_nodes:
            pairs.append((at + k, dol.mask_at(at)))
        self._splice(at, at, pairs, k)
        delta = dol.n_transitions - before - len(own)
        self._record("insert_range", at=at, n_nodes=k, delta=delta)
        return delta

    def delete_range(self, start: int, end: int) -> int:
        """Delete the nodes in [start, end) (a subtree). Returns the delta."""
        dol = self.dol
        if not 0 <= start < end <= dol.n_nodes:
            raise UpdateError(f"invalid range [{start}, {end})")
        if end - start == dol.n_nodes:
            raise UpdateError("cannot delete the entire document")
        before = dol.n_transitions
        pairs = [(start, dol.mask_at(end))] if end < dol.n_nodes else []
        self._splice(start, end, pairs, start - end)
        delta = dol.n_transitions - before
        self._record("delete_range", start=start, end=end, delta=delta)
        return delta

    def move_range(self, start: int, end: int, to: int) -> int:
        """Move the subtree [start, end) so it begins at position ``to``.

        ``to`` is interpreted in the coordinates of the document *after*
        the subtree is excised. Every argument is checked before the
        delete, so a rejected move leaves the DOL as it was. Returns the
        total transition delta.
        """
        dol = self.dol
        if not 0 <= start < end <= dol.n_nodes:
            raise UpdateError(f"invalid range [{start}, {end})")
        if not 0 <= to <= dol.n_nodes - (end - start):
            raise UpdateError(f"invalid destination {to}")
        masks = self._range_masks(start, end)
        before = dol.n_transitions
        self.delete_range(start, end)
        self.insert_range(to, masks)
        return dol.n_transitions - before

    # -- Proposition 1 ------------------------------------------------------------

    @staticmethod
    def check_proposition1(delta: int, operation: str = "update") -> None:
        """Raise if an operation violated Proposition 1 (delta > 2)."""
        if delta > 2:
            raise UpdateError(
                f"Proposition 1 violated: {operation} added {delta} transitions"
            )

    # -- internals ------------------------------------------------------------------

    def _range_masks(self, start: int, end: int) -> List[int]:
        """Per-node masks of [start, end), read from the window's transitions."""
        dol = self.dol
        lo = dol.transition_index_for(start)
        hi = bisect_left(dol.positions, end)
        bounds = [start] + dol.positions[lo + 1 : hi] + [end]
        masks: List[int] = []
        for index, (a, b) in enumerate(zip(bounds, bounds[1:]), lo):
            masks.extend([dol.codebook.decode(dol.codes[index])] * (b - a))
        return masks

    def _splice(
        self, start: int, end: int, pairs: List[Tuple[int, int]], shift: int
    ) -> None:
        """Replace the transitions at positions in [start, end] with ``pairs``.

        ``pairs`` is the window's (position, mask) segment list in
        post-update coordinates; transitions after ``end`` move by
        ``shift`` (the inserted or deleted node count). Every window mask
        is encoded before anything is assigned, so a rejected mask leaves
        the DOL and its codebook as they were. A pair is dropped where
        its mask repeats the one before it, which only happens where the
        window meets the prefix or inside the window. New lists are
        installed and the old ones are never edited: the store's
        overflow rollback and snapshot clones hold on to them.
        """
        dol = self.dol
        codebook = dol.codebook
        n_entries = len(codebook)
        try:
            codes = [codebook.encode(mask) for _pos, mask in pairs]
        except CodebookError:
            codebook.truncate(n_entries)
            raise
        lo = bisect_left(dol.positions, start)
        hi = bisect_right(dol.positions, end)
        previous = codebook.decode(dol.codes[lo - 1]) if lo else None
        new_positions: List[int] = []
        new_codes: List[int] = []
        for (pos, mask), code in zip(pairs, codes):
            if mask != previous:
                new_positions.append(pos)
                new_codes.append(code)
                previous = mask
        tail = dol.positions[hi:]
        if shift:
            tail = [pos + shift for pos in tail]
        dol.positions = dol.positions[:lo] + new_positions + tail
        dol.codes = dol.codes[:lo] + new_codes + dol.codes[hi:]
        dol.n_nodes += shift
        # Every updater mutation funnels through here; bumping the run
        # epoch invalidates cached run lists keyed on the old content.
        dol._bump_runs_epoch()
