"""``stream_answer_fragments`` as the serving stack's transport source.

The wire protocol's ``fragment`` frames carry this iterator's output
verbatim, so its contract is load-bearing for the whole streaming
stack: document-order fragments under ``ordered=True``, early
termination that actually stops store reads, identical output across
executor modes, snapshot pinning for the stream's lifetime, and
degraded (subset) results around quarantined pages.
"""

import pytest

from repro.errors import PageCorruptionError
from repro.nok.engine import QueryEngine
from repro.secure.dissemination import stream_answer_fragments

QUERY = "//item/name"


@pytest.fixture(scope="module")
def store_engine(xmark_doc, xmark_acl):
    engine = QueryEngine.build(
        xmark_doc, xmark_acl, use_store=True, page_size=512
    )
    yield engine
    engine.store.close()


def drain(stream):
    try:
        return list(stream)
    finally:
        stream.close()


class TestOrderingAndContent:
    def test_ordered_fragments_arrive_in_document_order(self, store_engine):
        fragments = drain(
            stream_answer_fragments(store_engine, QUERY, 0, ordered=True)
        )
        positions = [pos for pos, _ in fragments]
        assert positions == sorted(positions)
        assert len(positions) == len(set(positions))

    def test_fragments_cover_exactly_the_engine_answers(self, store_engine):
        fragments = drain(stream_answer_fragments(store_engine, QUERY, 0))
        result = store_engine.evaluate(QUERY, subject=0)
        assert sorted(pos for pos, _ in fragments) == sorted(result.positions)
        assert all(xml.startswith("<name") for _, xml in fragments)

    def test_private_run_cache_produces_identical_fragments(self, store_engine):
        shared, private = (
            sorted(
                drain(
                    stream_answer_fragments(
                        store_engine, QUERY, 1, use_run_cache=use_run_cache
                    )
                )
            )
            for use_run_cache in (True, False)
        )
        assert shared == private
        assert shared  # the comparison is not vacuous


class TestEarlyTermination:
    #: its matcher reads each candidate's page (a bare ``//item`` reads none)
    PAGE_READING_QUERY = "//item[name]"

    def test_limit_stops_store_reads_early(self, store_engine):
        full = stream_answer_fragments(
            store_engine, self.PAGE_READING_QUERY, 0, use_run_cache=False
        )
        n_full = len(drain(full))
        assert n_full > 2
        limited = stream_answer_fragments(
            store_engine, self.PAGE_READING_QUERY, 0, limit=1, use_run_cache=False
        )
        got = drain(limited)
        assert len(got) == 1
        # the pipeline stopped pulling: far fewer pages were ever read
        assert (
            limited.stats.logical_page_reads < full.stats.logical_page_reads
        )

    def test_close_abandons_the_plan_mid_stream(self, store_engine):
        full = stream_answer_fragments(
            store_engine, self.PAGE_READING_QUERY, 0, use_run_cache=False
        )
        drain(full)
        abandoned = stream_answer_fragments(
            store_engine, self.PAGE_READING_QUERY, 0, use_run_cache=False
        )
        next(abandoned)  # one fragment, then the subscriber walks away
        abandoned.close()
        assert (
            abandoned.stats.logical_page_reads
            < full.stats.logical_page_reads
        )
        # closing is idempotent and iteration is over
        abandoned.close()
        with pytest.raises(StopIteration):
            next(abandoned)


class TestSnapshotPinning:
    def test_stream_holds_its_epoch_across_an_update(self, store_engine):
        store = store_engine.store
        stream = stream_answer_fragments(store_engine, QUERY, 0, ordered=True)
        pinned = stream.epoch
        first = next(stream)
        store.update_subject_range(0, 1, subject=2, value=True)
        try:
            rest = list(stream)
        finally:
            stream.close()
        assert stream.epoch == pinned
        assert store.snapshot().epoch == pinned + 1
        # the whole answer reads the pinned epoch: identical to a fresh
        # stream taken against the old snapshot's answers
        again = drain(
            stream_answer_fragments(store_engine, QUERY, 0, ordered=True)
        )
        assert [first] + rest == again


class TestDegradedResults:
    def test_strict_stream_raises_on_quarantine(self, store_engine):
        store = store_engine.store
        store.quarantined.update(range(4096))
        try:
            stream = stream_answer_fragments(
                store_engine, QUERY, 0, strict=True, use_run_cache=False
            )
            with pytest.raises(PageCorruptionError):
                drain(stream)
        finally:
            store.clear_quarantine()

    def test_degraded_stream_yields_a_subset(self, store_engine):
        store = store_engine.store
        full = drain(
            stream_answer_fragments(
                store_engine, QUERY, 0, use_run_cache=False
            )
        )
        # quarantine a slice of the page space: strict=False skips it
        store.quarantined.update(range(0, 4096, 3))
        try:
            degraded = stream_answer_fragments(
                store_engine, QUERY, 0, strict=False, use_run_cache=False
            )
            got = drain(degraded)
            assert set(got) <= set(full)
            assert len(got) < len(full)
            assert degraded.stats.corrupted_pages
        finally:
            store.clear_quarantine()
