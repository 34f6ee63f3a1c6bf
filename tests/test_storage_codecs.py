"""Codec-layer tests: container round-trips, page formats, the fit
invariant, the device layer, and the decoded-page cache.

The load-bearing property is totality: ``decode_container`` must invert
``encode_container`` on *arbitrary* bytes for every codec id, because the
structure-delta coder is not a textbook byte compressor — it treats the
input as a u16 word stream — and a subtle asymmetry there silently
corrupts pages.
"""

import os
import struct
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
from repro.bench.queries import QUERIES
from repro.dol.labeling import DOL
from repro.errors import PageFormatError, StorageError
from repro.nok.engine import QueryEngine
from repro.storage.codecs import (
    CODEC_DELTA,
    CODEC_IDS,
    CODEC_NONE,
    CODEC_ZLIB,
    CompressedPageFormat,
    PageColumns,
    PlainPageFormat,
    _read_varint,
    _unzigzag,
    _write_varint,
    _zigzag,
    codes_container,
    columns_from_containers,
    decode_container,
    encode_container,
    entries_from_containers,
    resolve_page_format,
    structure_container,
    worst_case_codes_bytes,
)
from repro.storage.device import FileDevice, MemoryDevice, MmapDevice, open_device
from repro.storage.encoding import NodeEntry
from repro.storage.headers import PageHeader
from repro.storage.nokstore import NoKStore
from repro.storage.pagecache import DecodedPageCache
from repro.xmark.generator import XMarkConfig, generate_document


# -- container codecs: compress∘decompress = id --------------------------------


@pytest.mark.parametrize("codec_id", sorted(CODEC_IDS.values()))
@given(raw=st.binary(max_size=2048))
@settings(max_examples=120, deadline=None)
def test_container_roundtrip_arbitrary_bytes(codec_id, raw):
    blob = encode_container(codec_id, raw)
    assert decode_container(codec_id, blob) == raw


@pytest.mark.parametrize("codec_id", sorted(CODEC_IDS.values()))
@pytest.mark.parametrize(
    "raw",
    [b"", b"\x00", b"\xff", b"\x00" * 513, b"\xff\xff" * 100 + b"\x7f",
     bytes(range(256))],
)
def test_container_roundtrip_edges(codec_id, raw):
    assert decode_container(codec_id, encode_container(codec_id, raw)) == raw


def test_unknown_codec_id_rejected():
    with pytest.raises(PageFormatError):
        encode_container(99, b"x")
    with pytest.raises(PageFormatError):
        decode_container(99, b"x")


@pytest.mark.parametrize(
    "blob",
    [b"", b"\x80", b"\x04\x81", b"\x03\x00", b"\xff\xff\xff\xff\xff" * 3],
)
def test_corrupt_delta_blob_raises(blob):
    with pytest.raises(PageFormatError):
        decode_container(CODEC_DELTA, blob)


def test_corrupt_zlib_blob_raises():
    with pytest.raises(PageFormatError):
        decode_container(CODEC_ZLIB, b"not deflate data")


def test_delta_compresses_slowly_varying_words():
    """The structural columns the coder is built for: small deltas."""
    words = list(range(100, 400))  # delta 1 per word -> ~1 byte per word
    raw = struct.pack(f"<{len(words)}H", *words)
    blob = encode_container(CODEC_DELTA, raw)
    assert len(blob) <= len(raw) // 2 + 8


# -- structure-delta: bulk passes against the per-varint reference ---------------
#
# The codec's decode and encode run as a few bulk passes (translate, regex,
# accumulate, struct). The per-word coder they replaced is kept here as the
# reference: wherever it returns, the bulk coder returns the same bytes;
# wherever it raises, the bulk decoder raises PageFormatError and nothing
# else.


def _reference_delta_encode(raw):
    raw = bytes(raw)
    out = bytearray()
    _write_varint(out, len(raw))
    prev = 0
    for i in range(len(raw) // 2):
        word = raw[2 * i] | (raw[2 * i + 1] << 8)
        _write_varint(out, _zigzag(word - prev))
        prev = word
    if len(raw) & 1:
        out.append(raw[-1])
    return bytes(out)


def _reference_delta_decode(blob):
    raw_len, offset = _read_varint(blob, 0)
    out = bytearray()
    prev = 0
    for _ in range(raw_len // 2):
        delta, offset = _read_varint(blob, offset)
        prev = prev + _unzigzag(delta)
        if not 0 <= prev <= 0xFFFF:
            raise PageFormatError("structure-delta word out of u16 range")
        out.append(prev & 0xFF)
        out.append(prev >> 8)
    if raw_len & 1:
        if offset >= len(blob):
            raise PageFormatError("structure-delta blob missing trailing byte")
        out.append(blob[offset])
    return bytes(out)


def _assert_decoders_agree(blob):
    try:
        expected = _reference_delta_decode(blob)
    except PageFormatError:
        with pytest.raises(PageFormatError):
            decode_container(CODEC_DELTA, blob)
        return
    assert decode_container(CODEC_DELTA, blob) == expected


@st.composite
def word_streams(draw):
    """Raw container bytes shaped like a structure column: mostly small
    word deltas, some large jumps, sometimes an odd trailing byte."""
    deltas = draw(
        st.lists(
            st.one_of(
                st.integers(-64, 63),
                st.integers(-0xFFFF, 0xFFFF),
            ),
            max_size=300,
        )
    )
    word, words = draw(st.integers(0, 0xFFFF)), []
    for delta in deltas:
        word = (word + delta) & 0xFFFF
        words.append(word)
    raw = struct.pack(f"<{len(words)}H", *words)
    if draw(st.booleans()):
        raw += bytes([draw(st.integers(0, 0xFF))])
    return raw


raw_containers = st.one_of(st.binary(max_size=600), word_streams())


@given(blob=st.binary(max_size=600))
@settings(max_examples=300, deadline=None)
def test_delta_decode_matches_reference_on_arbitrary_bytes(blob):
    _assert_decoders_agree(blob)


@given(raw=raw_containers, data=st.data())
@settings(max_examples=300, deadline=None)
def test_delta_decode_matches_reference_on_damaged_encodings(raw, data):
    blob = bytearray(_reference_delta_encode(raw))
    damage = data.draw(st.sampled_from(["flip", "truncate", "append"]))
    if damage == "flip":
        i = data.draw(st.integers(0, len(blob) - 1))
        blob[i] ^= data.draw(st.integers(1, 0xFF))
    elif damage == "truncate":
        del blob[data.draw(st.integers(0, len(blob) - 1)) :]
    else:
        blob += data.draw(st.binary(min_size=1, max_size=8))
    _assert_decoders_agree(bytes(blob))


@given(raw=raw_containers)
@settings(max_examples=300, deadline=None)
def test_delta_encode_matches_reference(raw):
    blob = encode_container(CODEC_DELTA, raw)
    assert blob == _reference_delta_encode(raw)
    assert decode_container(CODEC_DELTA, blob) == raw


@pytest.mark.parametrize(
    "blob",
    [
        pytest.param(b"\x04\x02\x80", id="unterminated-continuation-at-end"),
        pytest.param(b"\x04\x02\x80\x80", id="unterminated-continuation-run"),
        pytest.param(
            _reference_delta_encode(struct.pack("<H", 1000) + b"\x7f"),
            id="multi-byte-varint-before-trailing-byte",
        ),
        pytest.param(
            _reference_delta_encode(b"\x01\x00\xff"), id="trailing-byte-high-bit"
        ),
        pytest.param(b"\x03\x02", id="missing-trailing-byte"),
        pytest.param(b"\x02\x01", id="word-below-zero"),
        pytest.param(
            _reference_delta_encode(struct.pack("<H", 0xFFFF)) + b"\x02",
            id="trailing-garbage-ignored",
        ),
        pytest.param(b"\x04\xfe\xff\x07\x02", id="word-above-0xffff"),
        pytest.param(b"\x02" + b"\xff" * 10 + b"\x01", id="varint-overflow"),
        pytest.param(b"\xff" * 9 + b"\x7f", id="huge-raw-length"),
    ],
)
def test_delta_decode_edges_match_reference(blob):
    _assert_decoders_agree(blob)


def test_delta_decode_rejects_words_leaving_u16_range():
    with pytest.raises(PageFormatError, match="u16 range"):
        decode_container(CODEC_DELTA, b"\x02\x01")  # 0 - 1
    with pytest.raises(PageFormatError, match="u16 range"):
        decode_container(CODEC_DELTA, b"\x04\xfe\xff\x07\x02")  # 0xFFFF + 1


def test_delta_decode_rejects_unterminated_continuation():
    with pytest.raises(PageFormatError, match="truncated varint"):
        decode_container(CODEC_DELTA, b"\x04\x02\x80")


# -- columnar page build against the per-bit reference --------------------------


def _reference_transition_offsets(bitmap, n):
    offsets = array("q")
    for byte_idx, byte in enumerate(bitmap):
        for bit in range(8):
            offset = byte_idx * 8 + bit
            if byte >> bit & 1 and offset < n:
                offsets.append(offset)
    return offsets


def _reference_running_codes(first_code, trans_offsets, trans_codes, n):
    flat = []
    current = first_code
    prev = 0
    for off, code in zip(trans_offsets, trans_codes):
        flat.extend([current] * (off - prev))
        current = code
        prev = off
    flat.extend([current] * (n - prev))
    return array("H", flat)


def _reference_implied_header(entries):
    if not entries:
        return PageHeader(0, False, 0)
    change = any(entry.is_transition for entry in entries[1:])
    return PageHeader(entries[0].code, change, len(entries))


@st.composite
def column_containers(draw):
    """(header, structure, codes) with padding bits and, sometimes, a codes
    container whose length disagrees with its bitmap."""
    n = draw(st.integers(0, 100))
    bitmap = draw(st.binary(min_size=(n + 7) // 8, max_size=(n + 7) // 8))
    n_codes = sum(bin(b).count("1") for b in bitmap)
    n_codes += draw(st.sampled_from([0, 0, 0, -1, 1]))
    n_codes = max(n_codes, 0)
    codes = draw(st.lists(st.integers(0, 0xFFFF), min_size=n_codes, max_size=n_codes))
    structure = draw(st.binary(min_size=8 * n, max_size=8 * n))
    header = PageHeader(
        first_code=draw(st.integers(0, 0xFFFF)),
        change_bit=draw(st.booleans()),
        n_entries=n,
    )
    return header, structure, bitmap + struct.pack(f"<{len(codes)}H", *codes)


@given(containers=column_containers())
@settings(max_examples=300, deadline=None)
def test_columns_match_per_bit_reference(containers):
    header, structure, codes = containers
    n = header.n_entries
    try:
        ref_entries = entries_from_containers(n, structure, codes)
    except PageFormatError as exc:
        with pytest.raises(PageFormatError) as excinfo:
            columns_from_containers(header, structure, codes)
        assert str(excinfo.value) == str(exc)
        return
    cols = columns_from_containers(header, structure, codes)
    bitmap = codes[: (n + 7) // 8]
    ref_offsets = _reference_transition_offsets(bitmap, n)
    ref_trans_codes = array("H", codes[(n + 7) // 8 :])
    ref_codes = _reference_running_codes(
        header.first_code, ref_offsets, ref_trans_codes, n
    )
    assert cols.trans_offsets == ref_offsets
    assert cols.trans_codes == ref_trans_codes
    assert cols.codes == ref_codes
    assert [col.typecode for col in (cols.tags, cols.depths, cols.subtrees)] == [
        "H", "H", "I",
    ]
    assert (cols.trans_offsets.typecode, cols.trans_codes.typecode,
            cols.codes.typecode) == ("q", "H", "H")
    assert cols.nbytes == (
        2 * n + 2 * n + 4 * n + 8 * len(ref_offsets) + 2 * len(ref_trans_codes)
        + 2 * n
    )
    assert list(cols.entries) == ref_entries
    assert cols.implied_header() == _reference_implied_header(ref_entries)


# -- entry containers ----------------------------------------------------------


def _entries(spec):
    """spec: list of (tag, depth, subtree, code, is_transition)."""
    return [NodeEntry(*row) for row in spec]


@st.composite
def entry_lists(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    rows = []
    for _ in range(n):
        rows.append(
            (
                draw(st.integers(0, 0xFFFF)),
                draw(st.integers(0, 0xFFFF)),
                draw(st.integers(0, 0xFFFFFFFF)),
                draw(st.integers(0, 0xFFFF)),
                draw(st.booleans()),
            )
        )
    # non-transition entries store code 0 on disk; mirror that here so
    # the round-trip comparison is exact
    return [
        NodeEntry(t, d, s, c if f else 0, f) for (t, d, s, c, f) in rows
    ]


@given(entries=entry_lists())
@settings(max_examples=80, deadline=None)
def test_entry_container_roundtrip(entries):
    rebuilt = entries_from_containers(
        len(entries), structure_container(entries), codes_container(entries)
    )
    assert rebuilt == entries


def test_container_length_mismatch_rejected():
    entries = _entries([(1, 1, 1, 0, False)])
    with pytest.raises(PageFormatError):
        entries_from_containers(2, structure_container(entries), b"\x00")
    with pytest.raises(PageFormatError):
        entries_from_containers(1, structure_container(entries), b"")


# -- page formats --------------------------------------------------------------


FORMATS = [
    PlainPageFormat(),
    CompressedPageFormat(structure="zlib", codes="zlib"),
    CompressedPageFormat(structure="structure-delta", codes="zlib"),
    CompressedPageFormat(structure="none", codes="none"),
]


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.structure_codec)
@given(entries=entry_lists(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_page_roundtrip(fmt, entries, data):
    page_size = data.draw(st.sampled_from([1024, 4096]))
    entries = entries[: fmt.max_entries(page_size)]
    header = PageHeader(
        first_code=data.draw(st.integers(0, 0xFFFF)),
        change_bit=data.draw(st.integers(0, 1)),
        n_entries=len(entries),
    )
    page = fmt.encode_page(header, entries, page_size)
    assert len(page) == page_size
    out_header, out_entries = fmt.decode_page(page)
    assert out_header == header
    assert out_entries == entries


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.structure_codec)
@given(entries=entry_lists(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_columnar_decode_equals_entry_decode(fmt, entries, data):
    """The tentpole equivalence: ``decode_page_columns`` is an independent
    code path from ``decode_page``, and the NodeEntry view it exposes must
    match the entry decoder record-for-record on arbitrary pages."""
    page_size = data.draw(st.sampled_from([1024, 4096]))
    entries = entries[: fmt.max_entries(page_size)]
    first_code = data.draw(st.integers(0, 0xFFFF))
    header = PageHeader(
        first_code=first_code,
        change_bit=data.draw(st.integers(0, 1)),
        n_entries=len(entries),
    )
    page = fmt.encode_page(header, entries, page_size)

    ref_header, ref_entries = fmt.decode_page(page)
    cols = fmt.decode_page_columns(page)

    assert cols.header == ref_header
    assert cols.n == len(ref_entries)
    assert list(cols.entries) == ref_entries
    # the satellite columns agree with the reference records elementwise
    assert list(cols.tags) == [e.tag_id for e in ref_entries]
    assert list(cols.depths) == [e.depth for e in ref_entries]
    assert list(cols.subtrees) == [e.subtree for e in ref_entries]
    for offset, entry in enumerate(ref_entries):
        assert cols.entry_at(offset) == entry
        assert cols.is_transition(offset) == entry.is_transition
    # running access codes fold first_code through the transitions
    code = first_code
    for offset, entry in enumerate(ref_entries):
        if entry.is_transition:
            code = entry.code
        assert cols.codes[offset] == code
    assert cols.nbytes > 0 or not entries


@pytest.mark.parametrize("fmt", FORMATS[1:], ids=lambda f: f.structure_codec)
@pytest.mark.parametrize("page_size", [256, 1024, 4096])
def test_fit_invariant_worst_case_codes(fmt, page_size):
    """Any page encode_page ACCEPTS must survive every entry becoming a
    transition — accessibility updates rewrite codes at fixed density, so
    an accepted page may never overflow on a codes-only change."""

    def typical(i):
        # the statistics encode_page is sized for: small tag alphabet,
        # ±1 depth walk, bounded subtree sizes, sparse transitions
        return NodeEntry(i % 23, 1 + i % 12, (i * 3) % 5000, 0, False)

    # find an accepted density the way the store does: back off from the
    # format's upper bound until the page fits
    n = fmt.max_entries(page_size)
    while True:
        entries = [typical(i) for i in range(n)]
        header = PageHeader(first_code=0, change_bit=False, n_entries=n)
        try:
            fmt.encode_page(header, entries, page_size)
            break
        except PageFormatError:
            assert n > 1
            n = max(1, n * 3 // 4)

    # worst case the codes container: every entry a transition, max code
    worst = [
        NodeEntry(e.tag_id, e.depth, e.subtree, 0xFFFF, True) for e in entries
    ]
    header = PageHeader(first_code=0, change_bit=True, n_entries=n)
    page = fmt.encode_page(header, worst, page_size)  # must not raise
    _, out = fmt.decode_page(page)
    assert out == worst
    assert worst_case_codes_bytes(n) >= len(codes_container(worst))


def test_incompressible_structure_falls_back_to_none():
    fmt = CompressedPageFormat(structure="zlib", codes="zlib")
    entries = [
        NodeEntry((i * 31013) & 0xFFFF, (i * 49999) & 0xFFFF,
                  (i * 2654435761) & 0xFFFFFFFF, 0, False)
        for i in range(64)
    ]
    header = PageHeader(first_code=0, change_bit=0, n_entries=len(entries))
    page = fmt.encode_page(header, entries, 4096)
    report = fmt.container_report(page, fmt.decode_page_columns(page))
    # whatever the codec chose per container, decode must still invert
    _, out = fmt.decode_page(page)
    assert out == entries
    assert report["structure"]["codec"] in ("zlib", "none")
    assert report["structure"]["logical"] == 8 * len(entries)


def test_page_overflow_raises():
    fmt = CompressedPageFormat()
    n = fmt.max_entries(256) + 1
    entries = [NodeEntry(i & 0xFFFF, 1, 1, 0, False) for i in range(n)]
    header = PageHeader(first_code=0, change_bit=0, n_entries=n)
    with pytest.raises(PageFormatError):
        fmt.encode_page(header, entries, 256)


def test_codec_header_bounds_checked():
    fmt = CompressedPageFormat()
    header = PageHeader(first_code=0, change_bit=0, n_entries=1)
    page = bytearray(fmt.encode_page(header, _entries([(1, 1, 1, 0, False)]), 256))
    # claim more container bytes than the page holds
    import struct as _s

    _s.pack_into("<I", page, 10, 0xFFFF)
    with pytest.raises(PageFormatError):
        fmt.decode_page(bytes(page))


def test_resolve_page_format_vocabulary():
    assert isinstance(resolve_page_format(None), PlainPageFormat)
    assert isinstance(resolve_page_format("none"), PlainPageFormat)
    fmt = resolve_page_format("structure-delta")
    assert fmt.catalog_tag == {"structure": "structure-delta", "codes": "zlib"}
    fmt = resolve_page_format({"structure": "zlib", "codes": "none"})
    assert (fmt.structure_codec, fmt.codes_codec) == ("zlib", "none")
    with pytest.raises(StorageError):
        resolve_page_format("lz4")
    with pytest.raises(StorageError):
        resolve_page_format({"structure": "lz4"})


# -- device layer --------------------------------------------------------------


def _device_roundtrip(device):
    device.extend(256)
    device.write(0, b"A" * 128)
    device.write(128, b"B" * 128)
    assert bytes(device.read(0, 128)) == b"A" * 128
    assert bytes(device.read(128, 128)) == b"B" * 128
    device.extend(128)
    device.write(256, b"C" * 128)
    assert bytes(device.read(256, 128)) == b"C" * 128
    assert device.size == 384


def test_memory_device_roundtrip():
    device = MemoryDevice()
    _device_roundtrip(device)
    device.close()
    assert device.closed


def test_file_device_roundtrip(tmp_path):
    path = str(tmp_path / "pages.bin")
    device = open_device(path, create=True, use_mmap=False)
    assert isinstance(device, FileDevice) and not isinstance(device, MmapDevice)
    _device_roundtrip(device)
    device.sync()
    device.close()
    assert os.path.getsize(path) == 384


def test_mmap_device_roundtrip_and_remap(tmp_path):
    device = open_device(str(tmp_path / "pages.bin"), create=True)
    assert isinstance(device, MmapDevice)
    _device_roundtrip(device)  # the second extend crosses the mapped extent
    view = device.read(0, 4)
    assert isinstance(view, memoryview)
    assert bytes(view) == b"AAAA"
    del view
    device.close()
    assert device.closed


def test_open_device_reopens_file(tmp_path):
    path = str(tmp_path / "pages.bin")
    device = open_device(path, create=True)
    device.extend(64)
    device.write(0, b"x" * 64)
    device.sync()
    device.close()
    reopened = open_device(path, create=False)
    assert bytes(reopened.read(0, 64)) == b"x" * 64
    reopened.close()


def test_open_device_memory_when_no_path():
    device = open_device(None, create=True)
    assert isinstance(device, MemoryDevice)
    device.close()


# -- decoded-page cache --------------------------------------------------------


class _Sized:
    """A stand-in decoded page with an explicit byte cost."""

    def __init__(self, label, nbytes):
        self.label = label
        self.nbytes = nbytes


def test_decoded_cache_lru_and_stats():
    cache = DecodedPageCache(capacity_bytes=200)
    assert cache.get(0) is None
    cache.put(0, _Sized("zero", 100))
    cache.put(1, _Sized("one", 100))
    assert cache.get(0).label == "zero"  # 0 now most-recent
    cache.put(2, _Sized("two", 100))  # over budget: evicts 1 (LRU)
    assert cache.get(1) is None
    assert cache.get(0).label == "zero"
    stats = cache.stats.snapshot()
    assert stats["evictions"] == 1
    assert stats["hits"] == 2
    assert stats["misses"] == 2
    assert stats["bytes_cached"] == cache.nbytes == 200


def test_decoded_cache_bytes_bound_holds_under_churn():
    budget = 1000
    cache = DecodedPageCache(capacity_bytes=budget)
    costs = [17, 250, 99, 403, 64, 128, 1, 333, 90, 210, 177]
    for page_id, cost in enumerate(costs * 3):
        cache.put(page_id % len(costs), _Sized(page_id, cost))
        assert cache.nbytes <= budget
        # the accounting gauge tracks the true total at every step
        held = sum(c for (_, c) in cache._pages.values())
        assert cache.nbytes == held == cache.stats.bytes_cached


def test_decoded_cache_admits_oversized_entry_alone():
    cache = DecodedPageCache(capacity_bytes=100)
    cache.put(0, _Sized("small", 60))
    cache.put(1, _Sized("huge", 500))  # larger than the whole budget
    assert cache.get(1).label == "huge"  # admitted, alone
    assert cache.get(0) is None
    assert len(cache) == 1


def test_decoded_cache_replacement_reaccounts_bytes():
    cache = DecodedPageCache(capacity_bytes=1000)
    cache.put(3, _Sized("v1", 400))
    cache.put(3, _Sized("v2", 100))  # same page re-decoded smaller
    assert cache.nbytes == 100
    assert cache.get(3).label == "v2"


def test_decoded_cache_invalidation():
    cache = DecodedPageCache(capacity_bytes=1000)
    cache.put(7, _Sized("seven", 300))
    cache.invalidate(7)
    assert cache.get(7) is None
    assert cache.stats.invalidations == 1
    assert cache.nbytes == 0
    cache.put(8, _Sized("eight", 300))
    cache.clear()
    assert len(cache) == 0
    assert cache.nbytes == 0


def test_decoded_cache_zero_capacity_disables():
    cache = DecodedPageCache(capacity_bytes=0)
    cache.put(1, _Sized("one", 10))
    assert cache.get(1) is None
    assert len(cache) == 0


def test_decoded_cache_sizeof_fallback_for_plain_objects():
    cache = DecodedPageCache(capacity_bytes=1 << 20)
    cache.put(0, b"x" * 64)  # no nbytes attr: charged via sys.getsizeof
    assert cache.nbytes >= 64


def test_decoded_cache_budget_counts_everything_a_cached_page_holds():
    """After real matcher traffic the budget is honest: a cached page is
    its header plus its columns — no row-shaped view rides along uncounted
    — so the cache's byte total is the sum of the pages' column bytes."""
    doc = generate_document(XMarkConfig(n_items=60, seed=3))
    matrix = generate_synthetic_acl(
        doc, SyntheticACLConfig(accessibility_ratio=0.7, seed=3), n_subjects=2
    )
    budget = 8 << 10
    store = NoKStore(
        doc, DOL.from_matrix(matrix), page_size=1024, decoded_cache_bytes=budget
    )
    engine = QueryEngine(doc, labeling=store.labeling, store=store)
    assert engine.evaluate(QUERIES["Q1"], subject=0).stats.logical_page_reads > 0
    store.entry(0)  # the row-shaped point API builds its record and drops it

    cache = store.decoded_cache
    pages = [decoded for decoded, _cost in cache._pages.values()]
    assert len(pages) > 1
    assert cache.stats.evictions > 0  # the budget did bind
    for page in pages:
        held = [getattr(page, slot) for slot in PageColumns.__slots__]
        assert all(isinstance(value, (array, int, PageHeader)) for value in held)
    assert cache.nbytes == sum(page.nbytes for page in pages) <= budget
