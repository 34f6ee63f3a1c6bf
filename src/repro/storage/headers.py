"""In-memory page header table (Section 3.2).

For each disk block the DOL scheme keeps a small access control header: the
access control code of the block's first node, and a *change bit* that is
set iff the block contains any other transition node. The paper keeps all
headers in memory (estimating 3 MB–100 MB per terabyte of XML) so the query
processor can skip pages that are entirely inaccessible to the querying
subject without reading them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List

from repro.dol.codebook import Codebook
from repro.errors import StorageError

#: On-page serialized header: first node code (u16), change bit (u8),
#: entry count (u16), 3 pad bytes. 8 bytes total.
HEADER_STRUCT = struct.Struct("<HBHxxx")
HEADER_SIZE = HEADER_STRUCT.size


@dataclass
class PageHeader:
    """Access control header of one page."""

    first_code: int
    change_bit: bool
    n_entries: int

    def pack(self) -> bytes:
        return HEADER_STRUCT.pack(self.first_code, int(self.change_bit), self.n_entries)

    @classmethod
    def unpack(cls, data: bytes) -> "PageHeader":
        first_code, change, n_entries = HEADER_STRUCT.unpack_from(data, 0)
        return cls(first_code, bool(change), n_entries)


class PageHeaderTable:
    """The in-memory mirror of every page's access control header."""

    def __init__(self) -> None:
        self._headers: List[PageHeader] = []

    def append(self, header: PageHeader) -> None:
        self._headers.append(header)

    def set(self, page_index: int, header: PageHeader) -> None:
        self._check(page_index)
        self._headers[page_index] = header

    def get(self, page_index: int) -> PageHeader:
        self._check(page_index)
        return self._headers[page_index]

    def clone(self) -> "PageHeaderTable":
        """An independent copy for a store snapshot.

        :class:`PageHeader` entries are replaced (never mutated in
        place), so a shallow list copy freezes the table's state.
        """
        table = PageHeaderTable()
        table._headers = list(self._headers)
        return table

    def truncate(self, n_pages: int) -> None:
        """Drop headers beyond ``n_pages`` (after a shrinking update)."""
        if n_pages < 0:
            raise StorageError("cannot truncate to a negative page count")
        del self._headers[n_pages:]

    def __len__(self) -> int:
        return len(self._headers)

    def page_fully_inaccessible(self, page_index: int, subject: int, codebook: Codebook) -> bool:
        """The page-skip test of Section 3.3.

        If the first node's code denies the subject and the change bit is
        clear (no other transition in the page), every node in the page is
        inaccessible — the page need not be read at all.
        """
        header = self.get(page_index)
        if header.change_bit:
            return False
        return not codebook.accessible(header.first_code, subject)

    def size_bytes(self) -> int:
        """Memory footprint under the paper's accounting (Section 3.2)."""
        return len(self._headers) * HEADER_SIZE

    def _check(self, page_index: int) -> None:
        if not 0 <= page_index < len(self._headers):
            raise StorageError(f"page index {page_index} out of range")
