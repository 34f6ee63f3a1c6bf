"""Access-class canonicalization: the equivalence relation and its caches.

The contract (DESIGN.md §12): two subject sets resolve to the same
access class iff their union accessibility is node-for-node identical —
in which case every downstream artifact (run list, plan, answer) is
shared, under both secure semantics. An
accessibility update bumps ``runs_epoch``, which re-partitions the
directory; duplicate or unsorted subject inputs normalize to one
canonical form and therefore one cache entry.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acl.model import AccessMatrix
from repro.dol.labeling import DOL
from repro.errors import AccessControlError
from repro.labeling import ClassDirectory, normalize_subjects
from repro.nok.engine import QueryEngine
from repro.secure.semantics import CHO, VIEW
from tests.conftest import random_document

N_SUBJECTS = 3


@st.composite
def labeled_document(draw):
    """A random document plus a random per-node / per-subject ACL grid."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=1, max_value=60))
    doc = random_document(random.Random(seed), n)
    masks = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << N_SUBJECTS) - 1),
            min_size=n,
            max_size=n,
        )
    )
    matrix = AccessMatrix(n, N_SUBJECTS)
    for pos, mask in enumerate(masks):
        for subject in range(N_SUBJECTS):
            if mask >> subject & 1:
                matrix.set_accessible(subject, pos, True)
    return doc, matrix


def _all_subject_sets():
    singles = [(s,) for s in range(N_SUBJECTS)]
    pairs = [
        (a, b) for a in range(N_SUBJECTS) for b in range(a + 1, N_SUBJECTS)
    ]
    return singles + pairs + [tuple(range(N_SUBJECTS))]


class TestNormalizeSubjects:
    def test_none_passes_through(self):
        assert normalize_subjects(None) is None

    def test_single_id_becomes_tuple(self):
        assert normalize_subjects(7) == (7,)

    def test_duplicates_and_order_collapse(self):
        assert normalize_subjects([2, 1, 2]) == (1, 2)
        assert normalize_subjects((1, 2)) == (1, 2)
        assert normalize_subjects({3, 0}) == (0, 3)

    def test_empty_set_rejected(self):
        with pytest.raises(AccessControlError):
            normalize_subjects([])

    def test_non_int_rejected(self):
        with pytest.raises(AccessControlError):
            normalize_subjects(["a"])


@settings(max_examples=40)
@given(labeled_document())
def test_equal_class_iff_equal_accessibility(case):
    """Signature equality is exactly union-accessibility equality."""
    doc, matrix = case
    n = len(doc)
    labeling = DOL.from_matrix(matrix)
    sets = _all_subject_sets()
    vectors = {
        subjects: tuple(labeling.accessible_any(subjects, pos) for pos in range(n))
        for subjects in sets
    }
    signatures = {subjects: labeling.access_class(subjects) for subjects in sets}
    for a in sets:
        for b in sets:
            assert (signatures[a] == signatures[b]) == (
                vectors[a] == vectors[b]
            ), (a, b)


@settings(max_examples=15, deadline=None)
@given(labeled_document())
def test_same_class_same_answers_both_semantics(case):
    """Class-equal subject sets get identical secure answers everywhere."""
    doc, matrix = case
    query = "//n0"
    engine = QueryEngine.build(doc, matrix)
    by_class = {}
    for subjects in _all_subject_sets():
        class_id = engine.access_class_of(subjects)
        for semantics in (CHO, VIEW):
            answer = tuple(
                engine.evaluate(query, subject=subjects, semantics=semantics).positions
            )
            key = (class_id, semantics)
            assert by_class.setdefault(key, answer) == answer, (subjects, semantics)


class TestDirectory:
    def _labeling(self, n=20):
        doc = random_document(random.Random(3), n)
        matrix = AccessMatrix(len(doc), N_SUBJECTS)
        matrix.grant_range(0, 0, len(doc))
        matrix.grant_range(1, 0, len(doc))
        matrix.grant_range(2, 0, len(doc) // 2)
        return doc, matrix, DOL.from_matrix(matrix)

    def test_duplicate_and_unsorted_inputs_share_memo_entry(self):
        _doc, _matrix, labeling = self._labeling()
        directory = ClassDirectory()
        key = ("mem", id(labeling), labeling.runs_epoch)
        first = directory.class_of(labeling, key, [2, 0, 2])
        second = directory.class_of(labeling, key, (0, 2))
        third = directory.class_of(labeling, key, [0, 0, 2])
        assert first == second == third
        stats = directory.stats()
        assert stats["subject_sets"] == 1
        assert stats["memo_hits"] == 2

    def test_identical_accessibility_collapses_subjects(self):
        _doc, _matrix, labeling = self._labeling()
        directory = ClassDirectory()
        key = ("mem", id(labeling), labeling.runs_epoch)
        assert directory.class_of(labeling, key, 0) == directory.class_of(
            labeling, key, 1
        )
        assert directory.class_of(labeling, key, 2) != directory.class_of(
            labeling, key, 0
        )
        assert directory.n_classes(key) == 2

    def test_update_splitting_a_class_bumps_epoch_and_repartitions(self):
        _doc, _matrix, labeling = self._labeling()
        directory = ClassDirectory()
        key = ("mem", id(labeling), labeling.runs_epoch)
        before = directory.class_of(labeling, key, 0)
        assert before == directory.class_of(labeling, key, 1)
        epoch_before = labeling.runs_epoch

        labeling.set_node_accessibility(5, 1, False)  # 0 and 1 now differ
        assert labeling.runs_epoch > epoch_before

        key_after = ("mem", id(labeling), labeling.runs_epoch)
        a, b = (
            directory.class_of(labeling, key_after, 0),
            directory.class_of(labeling, key_after, 1),
        )
        assert a != b
        # ids are globally unique: the new partition never reuses the old
        # partition's id for a different behavior
        assert directory.stats()["repartitions"] == 2
        assert len({before, a, b}) == 3 or a == before

    def test_class_ids_never_reused_across_partitions(self):
        _doc, _matrix, labeling = self._labeling()
        directory = ClassDirectory(max_partitions=1)
        id_by_epoch = []
        for epoch in range(4):
            key = ("mem", epoch)
            id_by_epoch.append(directory.class_of(labeling, key, 2))
        # each epoch flip evicted and rebuilt the partition; the counter
        # is monotone so no id ever collides with an earlier epoch's
        assert len(set(id_by_epoch)) == len(id_by_epoch)

    def test_rejects_empty_subject(self):
        _doc, _matrix, labeling = self._labeling()
        directory = ClassDirectory()
        with pytest.raises(AccessControlError):
            directory.class_of(labeling, ("mem", 0), None)


class TestEngineIntegration:
    @pytest.fixture
    def engine(self):
        doc = random_document(random.Random(11), 40)
        matrix = AccessMatrix(len(doc), 3)
        matrix.grant_range(0, 0, len(doc))        # fully allowed
        matrix.grant_range(2, 0, len(doc) // 2)   # partial
        # subject 1: nothing — fully denied
        return QueryEngine.build(doc, matrix, use_store=True, page_size=256)

    def test_fully_denied_class_reads_no_pages(self, engine):
        result = engine.evaluate("//n0", subject=1)
        assert result.positions == []
        assert result.stats.static_deny == 1
        assert result.stats.logical_page_reads == 0
        assert result.stats.physical_page_reads == 0

    def test_fully_allowed_class_drops_access_filters(self, engine):
        from repro.exec.operators import AccessFilter

        plan = engine.compile("//n0", subject=0)
        assert plan.prepass == "allow"
        assert not [
            op for op in plan.operators() if isinstance(op, AccessFilter)
        ]
        assert "fully accessible" in plan.explain()
        result = engine.evaluate("//n0", subject=0)
        assert result.stats.static_allow == 1
        assert result.stats.access_checks == 0

    def test_partial_class_keeps_filters(self, engine):
        from repro.exec.operators import AccessFilter

        plan = engine.compile("//n0", subject=2)
        assert plan.prepass is None
        assert [op for op in plan.operators() if isinstance(op, AccessFilter)]

    def test_equivalent_subject_sets_share_plan_cache_entry(self, engine):
        engine.evaluate("//n0", subject=[2, 0, 2])
        hits_before = engine.plan_cache.stats()["hits"]
        engine.evaluate("//n0", subject=(0, 2))
        assert engine.plan_cache.stats()["hits"] == hits_before + 1

    def test_result_cache_shared_across_equivalent_users(self, engine):
        first = engine.evaluate("//n0", subject=(0, 2), use_result_cache=True)
        assert first.stats.result_cache_hits == 0
        second = engine.evaluate(
            "//n0", subject=[2, 0], use_result_cache=True
        )
        assert second.stats.result_cache_hits == 1
        assert second.positions == first.positions

    def test_commit_invalidates_result_cache(self, engine):
        engine.evaluate("//n0", subject=(0, 2), use_result_cache=True)
        engine.store.update_subject_range(0, len(engine.doc), 0, False)
        after = engine.evaluate(
            "//n0", subject=(0, 2), use_result_cache=True
        )
        # new epoch, new key: the stale answer cannot be served
        assert after.stats.result_cache_hits == 0

    def test_access_class_in_stats(self, engine):
        result = engine.evaluate("//n0", subject=2)
        assert result.stats.access_class is not None
        assert result.stats.access_class == engine.access_class_of(2)
