"""Per-page container compression: the codec layer of the pager stack.

Leighton & Barbosa (*Optimizing XML Compression*, arXiv:0905.4761) make
the case the NoK page layout is already shaped for: structure and
content compress best *separately*, each with a codec suited to its
statistics. A v2 page body is a fixed-width :class:`NodeEntry` array —
12 bytes per node of which the structural columns (tag, depth, subtree)
are small, slowly-varying integers and the access-control columns
(transition flag, code) are almost entirely zero. This module splits the
body into two **containers** and compresses each independently:

``structure``
    The columnar structural record: ``n`` tags (u16), ``n`` depths
    (u16), ``n`` subtree sizes (u32), concatenated column-wise.
``codes``
    The access-control record: a transition bitmap (one bit per entry)
    followed by one u16 code per *transition* entry only.

Container codecs are total byte→byte functions (``decode(encode(x)) ==
x`` for arbitrary ``x`` — property-tested):

- ``none`` — identity;
- ``zlib`` — DEFLATE;
- ``structure-delta`` — zigzag delta of the little-endian u16 word
  stream, varint-coded: depth deltas are ±1, tag ids draw from a small
  alphabet, and subtree high words are almost always zero, so most
  words cost one byte.

How a page decodes
------------------
A cache miss pays one decode, and it runs as a handful of bulk passes
in C, not Python work per word or per bit. ``structure-delta`` maps each
run of one-byte varints to signed deltas with one ``bytes.translate``
(read as ``array('b')``); a regex finds the rare multi-byte varint, which
:func:`_read_varint` decodes; the words are the running sums of the
deltas (``itertools.accumulate``), packed by one ``struct`` call. The
encoder mirrors it. :func:`columns_from_containers` then slices the
structural columns out with ``frombytes``, expands the transition bitmap
to one flag byte per entry through a 256-entry table, and derives the
transition offsets (``itertools.compress``) and the running code column
(the flags' running sum indexing ``first_code`` and the transition
codes) from those flags. On the benchmark document (73 pages of ~600
entries, a 2-vCPU Xeon @ 2.10 GHz, CPython 3.11) that is ~0.26 ms a
page, against ~1.3-2 ms for the per-varint decoder it replaced; the
pages and their bytes did not change.

A compressed page (format v3) keeps the v2 :class:`PageHeader` and CRC
trailer exactly where they were::

    PageHeader (8) | codec header (10) | structure blob | codes blob
    | zero padding | CRC32 trailer (4)

The codec header records, per page, the codec id actually used for each
container and both blob lengths — a container whose encoding expands
falls back to ``none`` on that page, so compression can never lose. The
CRC therefore covers the *compressed* bytes, WAL before/after images
carry the compressed page verbatim, and injected bit flips land on
compressed bytes and still fail verification: the PR 2 recovery matrix
and fsck work unchanged.

Fit invariant
-------------
Every compressed page must leave room for its **worst-case** codes
container (bitmap + one u16 per entry), not just the current one.
Accessibility updates rewrite codes in place while the structure bytes
of the page are fixed, so with the invariant an update re-render can
never overflow a page that the build accepted. Structural updates may
still overflow (new structure bytes); :class:`PageFormatError` is the
signal and the store falls back to a full re-pack at a lower density.
"""

from __future__ import annotations

import operator
import re
import struct
import sys
import zlib
from array import array
from bisect import bisect_left
from itertools import accumulate, chain, compress, repeat
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import PageFormatError, StorageError
from repro.storage.encoding import ENTRY_SIZE, FLAG_TRANSITION, NodeEntry
from repro.storage.headers import HEADER_SIZE, PageHeader
from repro.storage.pager import CHECKSUM_SIZE

_BIG_ENDIAN = sys.byteorder == "big"

#: codec ids as recorded in the per-page codec header
CODEC_NONE = 0
CODEC_ZLIB = 1
CODEC_DELTA = 2

CODEC_IDS = {"none": CODEC_NONE, "zlib": CODEC_ZLIB, "structure-delta": CODEC_DELTA}
CODEC_NAMES = {v: k for k, v in CODEC_IDS.items()}

#: per-page codec header: structure codec id (u8), codes codec id (u8),
#: structure blob length (u32), codes blob length (u32)
_CODEC_HEADER = struct.Struct("<BBII")
CODEC_HEADER_SIZE = _CODEC_HEADER.size


# -- varint / zigzag primitives ------------------------------------------------


def _write_varint(out: bytearray, value: int) -> None:
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_varint(data, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        try:
            byte = data[offset]
        except IndexError:
            raise PageFormatError("truncated varint in structure-delta blob")
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise PageFormatError("varint overflow in structure-delta blob")


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63)


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


# -- container codecs ----------------------------------------------------------


#: one-byte varint (zigzag 0x00-0x7F) -> its signed delta as a byte;
#: the upper half is never looked up (those bytes start multi-byte varints)
_UNZIGZAG_BYTE = bytes(_unzigzag(v) & 0xFF for v in range(0x80)) + bytes(0x80)
#: signed delta in [-64, 63] -> its one-byte zigzag varint
_ZIGZAG_BYTE = {d: _zigzag(d) for d in range(-64, 64)}
#: a byte with the continuation bit: the start of a multi-byte varint
_MULTI_BYTE = re.compile(rb"[\x80-\xff]")


def _delta_encode(raw: bytes) -> bytes:
    """Zigzag-delta varint coding of the u16 word stream of ``raw``.

    Total on arbitrary bytes: the leading varint records the raw length,
    and an odd trailing byte rides along verbatim. Deltas in [-64, 63]
    map to their one-byte varint in one pass; the rare larger delta
    (marked 0x80 by that pass) is written by :func:`_write_varint`.
    """
    raw = bytes(raw)
    out = bytearray()
    _write_varint(out, len(raw))
    words = array("H", raw[: len(raw) & ~1])
    if _BIG_ENDIAN:
        words.byteswap()
    deltas = map(operator.sub, words, chain((0,), words))
    small = bytes(map(_ZIGZAG_BYTE.get, deltas, repeat(0x80)))
    if small.isascii():
        out += small
    else:
        start = 0
        for match in _MULTI_BYTE.finditer(small):
            i = match.start()
            out += small[start:i]
            _write_varint(out, _zigzag(words[i] - (words[i - 1] if i else 0)))
            start = i + 1
        out += small[start:]
    if len(raw) & 1:
        out.append(raw[-1])
    return bytes(out)


def _delta_decode(blob: bytes) -> bytes:
    """Invert :func:`_delta_encode`.

    Each run of one-byte varints becomes signed deltas in one
    ``translate``; a regex finds the next multi-byte varint, which
    :func:`_read_varint` decodes (and rejects when unterminated). The
    words are the running sums of the deltas, packed in one pass.
    """
    blob = bytes(blob)
    raw_len, offset = _read_varint(blob, 0)
    n_words = raw_len // 2
    end = len(blob)
    if n_words > end - offset:  # every word takes at least one byte
        raise PageFormatError("truncated varint in structure-delta blob")
    runs: List[Iterable[int]] = []
    left = n_words
    while left:
        stop = min(offset + left, end)
        if not blob[offset:stop].isascii():
            stop = _MULTI_BYTE.search(blob, offset, stop).start()
        if stop > offset:
            runs.append(array("b", blob[offset:stop].translate(_UNZIGZAG_BYTE)))
            left -= stop - offset
            offset = stop
        if left:
            delta, offset = _read_varint(blob, offset)
            runs.append((_unzigzag(delta),))
            left -= 1
    try:
        out = struct.pack(f"<{n_words}H", *accumulate(chain.from_iterable(runs)))
    except struct.error:
        raise PageFormatError("structure-delta word out of u16 range") from None
    if raw_len & 1:
        if offset >= end:
            raise PageFormatError("structure-delta blob missing trailing byte")
        out += blob[offset : offset + 1]
    return out


def encode_container(codec_id: int, raw: bytes) -> bytes:
    """Encode raw container bytes with one codec (no fallback applied)."""
    if codec_id == CODEC_NONE:
        return bytes(raw)
    if codec_id == CODEC_ZLIB:
        return zlib.compress(bytes(raw), 6)
    if codec_id == CODEC_DELTA:
        return _delta_encode(raw)
    raise PageFormatError(f"unknown container codec id {codec_id}")


def decode_container(codec_id: int, blob: bytes) -> bytes:
    """Invert :func:`encode_container`."""
    if codec_id == CODEC_NONE:
        return bytes(blob)
    if codec_id == CODEC_ZLIB:
        try:
            return zlib.decompress(bytes(blob))
        except zlib.error as exc:
            raise PageFormatError(f"corrupt zlib container: {exc}") from exc
    if codec_id == CODEC_DELTA:
        return _delta_decode(blob)
    raise PageFormatError(f"unknown container codec id {codec_id}")


def _encode_best(codec_id: int, raw: bytes) -> Tuple[int, bytes]:
    """Encode with per-page fallback: never store more than the raw form."""
    if codec_id == CODEC_NONE:
        return CODEC_NONE, bytes(raw)
    blob = encode_container(codec_id, raw)
    if len(blob) >= len(raw):
        return CODEC_NONE, bytes(raw)
    return codec_id, blob


# -- container (de)serialization -----------------------------------------------


def structure_container(entries: List[NodeEntry]) -> bytes:
    """Columnar structural record of a page's entries."""
    n = len(entries)
    return struct.pack(
        f"<{n}H{n}H{n}I",
        *(e.tag_id for e in entries),
        *(e.depth for e in entries),
        *(e.subtree for e in entries),
    )


def codes_container(entries: List[NodeEntry]) -> bytes:
    """Transition bitmap + u16 code per transition entry."""
    n = len(entries)
    bitmap = bytearray((n + 7) // 8)
    codes: List[int] = []
    for i, entry in enumerate(entries):
        if entry.is_transition:
            bitmap[i // 8] |= 1 << (i % 8)
            codes.append(entry.code)
    return bytes(bitmap) + struct.pack(f"<{len(codes)}H", *codes)


def worst_case_codes_bytes(n_entries: int) -> int:
    """Upper bound on the codes container: every entry a transition."""
    return (n_entries + 7) // 8 + 2 * n_entries


def entries_from_containers(
    n_entries: int, structure: bytes, codes: bytes
) -> List[NodeEntry]:
    """Rebuild the entry list from decoded container bytes."""
    n = n_entries
    if len(structure) != 8 * n:
        raise PageFormatError(
            f"structure container holds {len(structure)} bytes "
            f"for {n} entries (need {8 * n})"
        )
    fields = struct.unpack(f"<{n}H{n}H{n}I", structure)
    tags, depths, subtrees = fields[:n], fields[n : 2 * n], fields[2 * n :]
    bitmap_len = (n + 7) // 8
    if len(codes) < bitmap_len:
        raise PageFormatError("codes container shorter than its bitmap")
    bitmap = codes[:bitmap_len]
    n_transitions = sum(bin(b).count("1") for b in bitmap)
    expected = bitmap_len + 2 * n_transitions
    if len(codes) != expected:
        raise PageFormatError(
            f"codes container holds {len(codes)} bytes, bitmap implies {expected}"
        )
    code_values = struct.unpack_from(f"<{n_transitions}H", codes, bitmap_len)
    entries: List[NodeEntry] = []
    next_code = 0
    for i in range(n):
        is_transition = bool(bitmap[i // 8] >> (i % 8) & 1)
        code = 0
        if is_transition:
            code = code_values[next_code]
            next_code += 1
        entries.append(
            NodeEntry(
                tag_id=tags[i],
                depth=depths[i],
                subtree=subtrees[i],
                code=code,
                is_transition=is_transition,
            )
        )
    return entries


# -- columnar decoded pages ----------------------------------------------------


#: bitmap byte -> its eight transition flags as 0/1 bytes, low bit first
_BITS = tuple(bytes(byte >> bit & 1 for bit in range(8)) for byte in range(256))
#: bitmap byte -> its number of set bits
_POPCOUNT = bytes(bin(byte).count("1") for byte in range(256))


def _running_codes(first_code: int, trans_codes: array, flags: bytes) -> array:
    """Code in effect at each offset: ``flags`` (one 0/1 byte per entry)
    counted up to an offset indexes ``first_code`` then the transition
    codes in order. Packed through ``struct``: building an ``array``
    from an iterator converts item by item at about twice the cost."""
    in_effect = [first_code]
    in_effect += trans_codes
    codes = map(in_effect.__getitem__, accumulate(flags))
    return array("H", struct.pack(f"{len(flags)}H", *codes))


class PageColumns:
    """Struct-of-arrays decode of one page — the cached form.

    Columns mirror the on-page containers: ``tags``/``depths`` as
    ``array('H')``, ``subtrees`` as ``array('I')``, plus the transition
    record (``trans_offsets`` as ``array('q')``, ``trans_codes`` as
    ``array('H')``) and the precomputed *running* access code per offset
    (``codes``, ``array('H')`` — what :meth:`access_code_at` reads).

    Every column is built by bulk passes over the decoded containers:
    the structural columns are ``frombytes`` slices, the transition
    bitmap expands to one 0/1 flag byte per entry through a 256-entry
    table, ``trans_offsets`` is ``compress(range(n), flags)`` and
    ``codes`` indexes ``(first_code, *trans_codes)`` by the running sum
    of the flags. A set padding bit past ``n`` still owns a code slot in
    ``trans_codes`` but no offset.

    Operators and page cursors read the columns directly. The
    row-shaped :class:`NodeEntry` form is built on request
    (:meth:`entry_at` for one offset, :attr:`entries` for the page) and
    never kept: the instance holds its header and columns only, which is
    what ``nbytes`` — the decoded-page cache's accounting unit — counts.
    """

    __slots__ = (
        "header",
        "n",
        "tags",
        "depths",
        "subtrees",
        "trans_offsets",
        "trans_codes",
        "codes",
    )

    def __init__(
        self,
        header: PageHeader,
        tags: array,
        depths: array,
        subtrees: array,
        trans_codes: array,
        flags: bytes,
    ):
        n = len(tags)
        self.header = header
        self.n = n
        self.tags = tags
        self.depths = depths
        self.subtrees = subtrees
        self.trans_offsets = array("q", compress(range(n), flags))
        self.trans_codes = trans_codes
        self.codes = _running_codes(header.first_code, trans_codes, flags)

    @property
    def nbytes(self) -> int:
        """Bytes held by the columnar buffers (cache accounting unit)."""
        total = 0
        for name in ("tags", "depths", "subtrees", "trans_offsets",
                     "trans_codes", "codes"):
            col = getattr(self, name)
            total += len(col) * col.itemsize
        return total

    def implied_header(self) -> PageHeader:
        """The header the page body implies.

        The first entry of every page is a pseudo-transition carrying the
        running code, so it defines ``first_code``; the change bit must be
        set iff any *other* entry is a transition. The integrity checks
        (``NoKStore.verify``, ``fsck_store``, reopen) compare it with the
        stored header to detect one that went stale against its body.
        """
        toffs = self.trans_offsets
        if not self.n:
            return PageHeader(0, False, 0)
        first_is_transition = bool(toffs) and toffs[0] == 0
        return PageHeader(
            self.trans_codes[0] if first_is_transition else 0,
            len(toffs) > first_is_transition,
            self.n,
        )

    def is_transition(self, offset: int) -> bool:
        toffs = self.trans_offsets
        i = bisect_left(toffs, offset)
        return i < len(toffs) and toffs[i] == offset

    @property
    def entries(self) -> List[NodeEntry]:
        """The page as a fresh :class:`NodeEntry` list (not retained)."""
        tags, depths, subtrees = self.tags, self.depths, self.subtrees
        entries = [
            NodeEntry(tags[i], depths[i], subtrees[i], 0, False)
            for i in range(self.n)
        ]
        for off, code in zip(self.trans_offsets, self.trans_codes):
            entries[off] = NodeEntry(tags[off], depths[off], subtrees[off], code, True)
        return entries

    def entry_at(self, offset: int) -> NodeEntry:
        """One offset as a :class:`NodeEntry`."""
        toffs = self.trans_offsets
        i = bisect_left(toffs, offset)
        if i < len(toffs) and toffs[i] == offset:
            return NodeEntry(
                self.tags[offset], self.depths[offset], self.subtrees[offset],
                self.trans_codes[i], True,
            )
        return NodeEntry(
            self.tags[offset], self.depths[offset], self.subtrees[offset],
            0, False,
        )


def columns_from_containers(
    header: PageHeader, structure: bytes, codes: bytes
) -> PageColumns:
    """Bulk-decode container bytes into :class:`PageColumns`.

    The structure container is already column order, so the three
    structural columns are straight ``frombytes`` slices — no per-entry
    reconstruction. Validation matches :func:`entries_from_containers`
    (same error messages on the same malformed inputs).
    """
    n = header.n_entries
    if len(structure) != 8 * n:
        raise PageFormatError(
            f"structure container holds {len(structure)} bytes "
            f"for {n} entries (need {8 * n})"
        )
    tags = array("H")
    tags.frombytes(structure[: 2 * n])
    depths = array("H")
    depths.frombytes(structure[2 * n : 4 * n])
    subtrees = array("I")
    subtrees.frombytes(structure[4 * n : 8 * n])
    bitmap_len = (n + 7) // 8
    if len(codes) < bitmap_len:
        raise PageFormatError("codes container shorter than its bitmap")
    bitmap = codes[:bitmap_len]
    # The expected length counts every set bit (padding bits included),
    # exactly as the entry-at-a-time decoder does.
    expected = bitmap_len + 2 * sum(bitmap.translate(_POPCOUNT))
    if len(codes) != expected:
        raise PageFormatError(
            f"codes container holds {len(codes)} bytes, bitmap implies {expected}"
        )
    trans_codes = array("H")
    trans_codes.frombytes(codes[bitmap_len:])
    if _BIG_ENDIAN:  # containers are little-endian on disk
        tags.byteswap()
        depths.byteswap()
        subtrees.byteswap()
        trans_codes.byteswap()
    flags = b"".join(map(_BITS.__getitem__, bitmap))[:n]
    return PageColumns(header, tags, depths, subtrees, trans_codes, flags)


# -- page formats --------------------------------------------------------------


class PlainPageFormat:
    """The v2 page body: a raw fixed-width :class:`NodeEntry` array.

    This is byte-identical to the pre-refactor layout — stores built
    before the codec layer (no catalog tag) decode through it unchanged.
    """

    #: catalog tag; ``None`` marks the untagged, pre-refactor layout
    catalog_tag: Optional[Dict[str, str]] = None
    compressed = False
    structure_codec = "none"
    codes_codec = "none"

    def max_entries(self, page_size: int) -> int:
        return (page_size - HEADER_SIZE - CHECKSUM_SIZE) // ENTRY_SIZE

    def encode_page(
        self, header: PageHeader, entries: List[NodeEntry], page_size: int
    ) -> bytes:
        body = b"".join(entry.pack() for entry in entries)
        total = HEADER_SIZE + len(body)
        budget = page_size - CHECKSUM_SIZE
        if total > budget:
            raise PageFormatError(
                f"{len(entries)} entries need {total} bytes, page holds {budget}"
            )
        return header.pack() + body + bytes(page_size - HEADER_SIZE - len(body))

    def decode_page(self, data) -> Tuple[PageHeader, List[NodeEntry]]:
        header = PageHeader.unpack(data)
        entries: List[NodeEntry] = []
        offset = HEADER_SIZE
        for _ in range(header.n_entries):
            entries.append(NodeEntry.unpack(data, offset))
            offset += ENTRY_SIZE
        return header, entries

    def decode_page_columns(self, data) -> PageColumns:
        """Bulk columnar decode of the fixed-width body.

        The interleaved 12-byte records are read as one u16 word stream;
        each column is then a stride-6 slice (subtree sizes recombine
        from their two words) — no per-entry :class:`NodeEntry` hop.
        """
        header = PageHeader.unpack(data)
        n = header.n_entries
        end = HEADER_SIZE + n * ENTRY_SIZE
        body = bytes(data[HEADER_SIZE:end])
        if len(body) != n * ENTRY_SIZE:
            raise PageFormatError(
                f"page body holds {len(body)} bytes for {n} entries "
                f"(need {n * ENTRY_SIZE})"
            )
        words = array("H")
        words.frombytes(body)
        if _BIG_ENDIAN:
            words.byteswap()
        tags = words[0::6]
        depths = words[1::6]
        sub_lo = words[2::6]
        sub_hi = words[3::6]
        # the flags byte is the low half of the sixth word; bit 0 marks
        # a transition, so masking it leaves one 0/1 flag per entry
        flags = bytes(map(FLAG_TRANSITION.__and__, words[5::6]))
        subtrees = array("I", (lo | (hi << 16) for lo, hi in zip(sub_lo, sub_hi)))
        trans_codes = array("H", compress(words[4::6], flags))
        return PageColumns(header, tags, depths, subtrees, trans_codes, flags)

    def container_report(
        self, data, columns: PageColumns
    ) -> Dict[str, Dict[str, int]]:
        """Physical vs logical container bytes of one stored page.

        ``columns`` is the page's decode; the fixed-width layout needs
        only its entry count.
        """
        n = columns.n
        # The fixed-width entry interleaves both containers; attribute
        # the structural 8 bytes and code-ish 4 bytes of each record.
        return {
            "structure": {"physical": 8 * n, "logical": 8 * n, "codec": "none"},
            "codes": {
                "physical": ENTRY_SIZE * n - 8 * n,
                "logical": ENTRY_SIZE * n - 8 * n,
                "codec": "none",
            },
        }


class CompressedPageFormat:
    """The v3 page body: separately-compressed structure/codes containers."""

    compressed = True

    def __init__(self, structure: str = "structure-delta", codes: str = "zlib"):
        if structure not in CODEC_IDS:
            raise StorageError(f"unknown structure codec {structure!r}")
        if codes not in CODEC_IDS:
            raise StorageError(f"unknown codes codec {codes!r}")
        self.structure_codec = structure
        self.codes_codec = codes
        self._structure_id = CODEC_IDS[structure]
        self._codes_id = CODEC_IDS[codes]

    @property
    def catalog_tag(self) -> Dict[str, str]:
        return {"structure": self.structure_codec, "codes": self.codes_codec}

    def max_entries(self, page_size: int) -> int:
        """Upper bound on density: even an empty structure container must
        leave worst-case codes room (the fit invariant)."""
        budget = page_size - HEADER_SIZE - CODEC_HEADER_SIZE - CHECKSUM_SIZE
        # worst_case_codes_bytes(n) <= budget  =>  n/8 + 2n + 1 <= budget
        n = max((budget - 1) * 8 // 17, 1)
        while worst_case_codes_bytes(n) > budget:
            n -= 1
        return max(n, 1)

    def encode_page(
        self, header: PageHeader, entries: List[NodeEntry], page_size: int
    ) -> bytes:
        s_id, s_blob = _encode_best(self._structure_id, structure_container(entries))
        c_id, c_blob = _encode_best(self._codes_id, codes_container(entries))
        budget = page_size - CHECKSUM_SIZE
        overhead = HEADER_SIZE + CODEC_HEADER_SIZE
        # Fit invariant: reserve worst-case codes space so accessibility
        # updates (which change only the codes container) always fit.
        if overhead + len(s_blob) + worst_case_codes_bytes(len(entries)) > budget:
            raise PageFormatError(
                f"{len(entries)} entries: structure blob of {len(s_blob)} bytes "
                f"leaves no worst-case codes room in a {page_size}-byte page"
            )
        body = (
            _CODEC_HEADER.pack(s_id, c_id, len(s_blob), len(c_blob))
            + s_blob
            + c_blob
        )
        if HEADER_SIZE + len(body) > budget:
            raise PageFormatError(
                f"{len(entries)} entries overflow a {page_size}-byte page"
            )
        return header.pack() + body + bytes(page_size - HEADER_SIZE - len(body))

    def _containers(self, data) -> Tuple[PageHeader, int, bytes, int, bytes]:
        header = PageHeader.unpack(data)
        try:
            s_id, c_id, s_len, c_len = _CODEC_HEADER.unpack_from(data, HEADER_SIZE)
        except struct.error as exc:
            raise PageFormatError(f"truncated codec header: {exc}") from exc
        start = HEADER_SIZE + CODEC_HEADER_SIZE
        end = start + s_len + c_len
        if end > len(data) - CHECKSUM_SIZE:
            raise PageFormatError(
                f"codec header claims {s_len}+{c_len} container bytes, "
                f"page holds {len(data) - CHECKSUM_SIZE - start}"
            )
        s_blob = bytes(data[start : start + s_len])
        c_blob = bytes(data[start + s_len : end])
        return header, s_id, s_blob, c_id, c_blob

    def decode_page(self, data) -> Tuple[PageHeader, List[NodeEntry]]:
        header, s_id, s_blob, c_id, c_blob = self._containers(data)
        entries = entries_from_containers(
            header.n_entries,
            decode_container(s_id, s_blob),
            decode_container(c_id, c_blob),
        )
        return header, entries

    def decode_page_columns(self, data) -> PageColumns:
        """Columnar decode straight from the compressed containers.

        The structure container is stored column-wise, so after codec
        decompression each column is one ``frombytes`` slice — entry
        reconstruction is skipped entirely.
        """
        header, s_id, s_blob, c_id, c_blob = self._containers(data)
        return columns_from_containers(
            header,
            decode_container(s_id, s_blob),
            decode_container(c_id, c_blob),
        )

    def container_report(
        self, data, columns: PageColumns
    ) -> Dict[str, Dict[str, int]]:
        """Physical vs logical container bytes of one stored page.

        ``columns`` is the page's decode (:meth:`decode_page_columns`),
        which already proved each container's logical length — ``8 n``
        structure bytes, and a codes container of the transition bitmap
        plus two bytes per code slot — so nothing is decompressed again.
        """
        s_id, c_id, s_len, c_len = _CODEC_HEADER.unpack_from(data, HEADER_SIZE)
        n = columns.n
        return {
            "structure": {
                "physical": s_len,
                "logical": 8 * n,
                "codec": CODEC_NAMES[s_id],
            },
            "codes": {
                "physical": c_len,
                "logical": (n + 7) // 8 + 2 * len(columns.trans_codes),
                "codec": CODEC_NAMES[c_id],
            },
        }


#: The ``--codec`` vocabulary: one name selects both container codecs.
PAGE_CODEC_CONFIGS: Dict[str, Optional[Dict[str, str]]] = {
    "none": None,
    "zlib": {"structure": "zlib", "codes": "zlib"},
    "structure-delta": {"structure": "structure-delta", "codes": "zlib"},
}


def resolve_page_format(
    codec: Union[None, str, Dict[str, str]],
) -> "PlainPageFormat | CompressedPageFormat":
    """Build the page format for a codec spec.

    ``None`` or ``"none"`` is the plain v2 layout; a name from
    :data:`PAGE_CODEC_CONFIGS` selects a container pairing; a dict names
    each container codec explicitly (the catalog's on-disk form).
    """
    if codec is None:
        return PlainPageFormat()
    if isinstance(codec, str):
        if codec not in PAGE_CODEC_CONFIGS:
            raise StorageError(
                f"unknown page codec {codec!r} "
                f"(choose from {sorted(PAGE_CODEC_CONFIGS)})"
            )
        codec = PAGE_CODEC_CONFIGS[codec]
        if codec is None:
            return PlainPageFormat()
    if not isinstance(codec, dict):
        raise StorageError(f"codec spec must be a name or a dict, got {codec!r}")
    return CompressedPageFormat(
        structure=codec.get("structure", "structure-delta"),
        codes=codec.get("codes", "zlib"),
    )


__all__ = [
    "CODEC_IDS",
    "CODEC_NAMES",
    "CODEC_HEADER_SIZE",
    "PAGE_CODEC_CONFIGS",
    "PageColumns",
    "PlainPageFormat",
    "CompressedPageFormat",
    "columns_from_containers",
    "encode_container",
    "decode_container",
    "structure_container",
    "codes_container",
    "entries_from_containers",
    "worst_case_codes_bytes",
    "resolve_page_format",
]
