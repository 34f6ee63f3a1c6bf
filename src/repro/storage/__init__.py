"""Block-oriented secondary storage substrate.

Implements the NoK physical storage scheme (Section 3) that DOL piggybacks
on:

- :mod:`~repro.storage.pager` — a file- or memory-backed array of fixed-size
  pages with physical I/O counters.
- :mod:`~repro.storage.buffer` — an LRU buffer pool with hit/miss/eviction
  accounting, so "no additional I/O" claims are measurable.
- :mod:`~repro.storage.encoding` — the succinct document-order structure
  string (close-parenthesis form) and its binary per-node entry layout.
- :mod:`~repro.storage.headers` — the in-memory page header table (first
  node's access code + change bit) that enables page skipping.
- :mod:`~repro.storage.nokstore` — the integrated store: document structure
  with embedded DOL transition codes, access checks that never cost extra
  I/O, and page-local updates.
- :mod:`~repro.storage.cursor` — next-of-kin navigation (first child,
  following sibling) as a cursor pinned to one decoded columnar page.
"""

from repro.storage.buffer import BufferPool
from repro.storage.encoding import (
    NodeEntry,
    parse_structure_string,
    to_structure_string,
)
from repro.storage.headers import PageHeader, PageHeaderTable
from repro.storage.nokstore import NoKStore
from repro.storage.pager import Pager

__all__ = [
    "BufferPool",
    "NoKStore",
    "NodeEntry",
    "PageHeader",
    "PageHeaderTable",
    "Pager",
    "parse_structure_string",
    "to_structure_string",
]
