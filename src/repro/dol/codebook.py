"""The DOL codebook: dictionary compression of access control lists.

Each *distinct* access control list (a bitmask over subjects) that appears
in the secured tree is stored once; transition nodes reference it by a
small integer code (Section 2.1). The codebook is designed to stay resident
in memory — the paper estimates ~4 MB for 8,639 subjects and ~4,000 entries.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from repro.errors import CodebookError


class Codebook:
    """Bidirectional mapping between subject bitmasks and integer codes."""

    def __init__(self, n_subjects: int):
        if n_subjects <= 0:
            raise CodebookError("codebook needs at least one subject column")
        self.n_subjects = n_subjects
        self._mask_to_code: Dict[int, int] = {}
        self._code_to_mask: List[int] = []

    @classmethod
    def from_entries(cls, n_subjects: int, masks: Sequence[int]) -> "Codebook":
        """Rebuild a saved codebook: entry ``i`` decodes to ``masks[i]``.

        Positional, so duplicate entries (left by :meth:`remove_subject`
        until the lazy correction) keep their codes; :meth:`encode` then
        returns the lowest code of each mask, as before the save.
        """
        book = cls(n_subjects)
        for mask in masks:
            book.encode(mask)  # validates the mask
        book._replace_entries(list(masks))
        return book

    def encode(self, mask: int) -> int:
        """Return the code for ``mask``, registering it if new."""
        if mask < 0 or mask >> self.n_subjects:
            raise CodebookError(
                f"mask {mask:#x} has bits outside {self.n_subjects} subjects"
            )
        code = self._mask_to_code.get(mask)
        if code is None:
            code = len(self._code_to_mask)
            self._mask_to_code[mask] = code
            self._code_to_mask.append(mask)
        return code

    def decode(self, code: int) -> int:
        """Return the bitmask stored for ``code``."""
        if not 0 <= code < len(self._code_to_mask):
            raise CodebookError(f"unknown access control code {code}")
        return self._code_to_mask[code]

    def accessible(self, code: int, subject: int) -> bool:
        """The s-th bit of codebook entry ``code`` (Section 3.3 lookup)."""
        if not 0 <= subject < self.n_subjects:
            raise CodebookError(f"subject {subject} out of range")
        return bool(self.decode(code) >> subject & 1)

    def __len__(self) -> int:
        return len(self._code_to_mask)

    def __contains__(self, mask: int) -> bool:
        return mask in self._mask_to_code

    def entries(self) -> Iterator[Tuple[int, int]]:
        """Yield (code, mask) pairs in code order."""
        return enumerate(self._code_to_mask)

    def clone(self) -> "Codebook":
        """An independent copy (snapshot isolation for concurrent readers).

        Codes are not append-only — :meth:`compact`, :meth:`add_subject`
        and :meth:`remove_subject` all remap or rewrite entries — so a
        frozen read view must carry its own copy rather than share.
        """
        copy = Codebook(self.n_subjects)
        copy._mask_to_code = dict(self._mask_to_code)
        copy._code_to_mask = list(self._code_to_mask)
        return copy

    # -- subject-set maintenance (Section 3.4) ------------------------------

    def add_subject(self, initially_like: int = -1) -> int:
        """Add a new subject column; returns the new subject id.

        Per Section 3.4 this touches only the in-memory codebook: the new
        subject either starts with no rights (``initially_like == -1``) or
        copies the column of an existing subject. Embedded transition nodes
        are untouched.
        """
        new_subject = self.n_subjects
        self.n_subjects += 1
        if initially_like >= 0:
            if initially_like >= new_subject:
                raise CodebookError(f"subject {initially_like} out of range")
            rebuilt: List[int] = []
            for mask in self._code_to_mask:
                if mask >> initially_like & 1:
                    mask |= 1 << new_subject
                rebuilt.append(mask)
            self._replace_entries(rebuilt)
        return new_subject

    def remove_subject(self, subject: int) -> None:
        """Clear a subject's column in every entry.

        Distinct entries may now hold identical masks; the paper corrects
        such redundancy lazily, so codes remain valid and the mask→code map
        points at the lowest code for each surviving mask.
        """
        if not 0 <= subject < self.n_subjects:
            raise CodebookError(f"subject {subject} out of range")
        bit = 1 << subject
        self._replace_entries([mask & ~bit for mask in self._code_to_mask])

    def truncate(self, n_entries: int) -> None:
        """Forget every entry with code >= ``n_entries``.

        Undoes the :meth:`encode` registrations made since the codebook
        had ``n_entries`` entries (a failed update's rollback); costs
        O(entries dropped).
        """
        for mask in self._code_to_mask[n_entries:]:
            if self._mask_to_code.get(mask, -1) >= n_entries:
                del self._mask_to_code[mask]
        del self._code_to_mask[n_entries:]

    def duplicate_entry_count(self) -> int:
        """Number of redundant entries awaiting lazy compaction."""
        return len(self._code_to_mask) - len(set(self._code_to_mask))

    def compact(self) -> Dict[int, int]:
        """Eagerly merge duplicate entries; returns old-code → new-code.

        Callers must rewrite embedded codes with the returned mapping —
        this is the eager counterpart of the paper's lazy correction.
        """
        remap: Dict[int, int] = {}
        new_masks: List[int] = []
        new_index: Dict[int, int] = {}
        for old_code, mask in enumerate(self._code_to_mask):
            if mask in new_index:
                remap[old_code] = new_index[mask]
            else:
                new_code = len(new_masks)
                new_index[mask] = new_code
                new_masks.append(mask)
                remap[old_code] = new_code
        self._code_to_mask = new_masks
        self._mask_to_code = new_index
        return remap

    # -- storage model -------------------------------------------------------

    def entry_bytes(self) -> int:
        """Bytes per codebook entry: one bit per subject, byte-aligned."""
        return (self.n_subjects + 7) // 8

    def code_bytes(self) -> int:
        """Bytes needed for a code reference (what transition nodes store)."""
        n = max(len(self._code_to_mask), 2)
        bits = (n - 1).bit_length()
        return (bits + 7) // 8

    def size_bytes(self) -> int:
        """Total in-memory codebook size under the paper's cost model."""
        return len(self._code_to_mask) * self.entry_bytes()

    def _replace_entries(self, masks: List[int]) -> None:
        self._code_to_mask = masks
        self._mask_to_code = {}
        for code, mask in enumerate(masks):
            self._mask_to_code.setdefault(mask, code)
