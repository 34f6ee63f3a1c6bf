"""Integration tests exercising the full pipeline across modules.

These follow the paper's own story: specify a policy, materialize the
accessibility map, compress it into a DOL embedded in block storage, and
answer twig queries securely — then update rights and query again.
"""

import pytest

from repro.acl.policy import Policy
from repro.acl.surrogates import generate_livelink
from repro.acl.synthetic import SyntheticACLConfig, generate_correlated_acl
from repro.cam.cam import CAM
from repro.dol.labeling import DOL
from repro.nok.engine import QueryEngine
from repro.nok.pattern import parse_query
from repro.nok.reference import evaluate_reference
from repro.secure.semantics import CHO, VIEW
from repro.xmark.generator import XMarkConfig, generate_document
from repro.xmltree.parser import parse
from repro.xmltree.serializer import serialize
from repro.xmltree.document import Document


class TestPolicyToQueryPipeline:
    """Rules -> matrix -> DOL -> secure evaluation, end to end."""

    @pytest.fixture(scope="class")
    def setting(self):
        doc = generate_document(XMarkConfig(n_items=40, seed=21))
        policy = Policy(doc, n_subjects=2)
        policy.grant(0, "/site")                       # subject 0: everything
        policy.grant(1, "/site/categories")            # subject 1: categories only
        policy.deny(1, "//keyword")                    # ...but no keywords
        matrix = policy.compile()
        return doc, matrix

    def test_policy_compiles_to_expected_rights(self, setting):
        doc, matrix = setting
        categories = doc.positions_with_tag("categories")[0]
        assert matrix.accessible(1, categories)
        assert not matrix.accessible(1, 0)
        for keyword in doc.positions_with_tag("keyword"):
            assert not matrix.accessible(1, keyword)

    def test_secure_results_respect_policy(self, setting):
        doc, matrix = setting
        engine = QueryEngine.build(doc, matrix)
        # subject 1 cannot see the document root: rooted queries die...
        assert engine.evaluate("/site/categories", subject=1).positions == []
        # ...but descendant queries inside categories work (Cho semantics).
        bolds = engine.evaluate("//category//bold", subject=1)
        assert set(bolds.positions) == evaluate_reference(
            doc, parse_query("//category//bold"), matrix.masks(), 1, CHO
        )

    def test_dol_round_trips_policy_output(self, setting):
        _doc, matrix = setting
        assert DOL.from_matrix(matrix).to_matrix() == matrix


class TestStorePipelineWithUpdates:
    """Block store + secure queries + accessibility updates."""

    @pytest.fixture
    def engine(self):
        doc = generate_document(XMarkConfig(n_items=30, seed=33))
        matrix = generate_correlated_acl(doc, n_subjects=4, n_profiles=2)
        return QueryEngine.build(
            doc, matrix, use_store=True, page_size=512, buffer_capacity=16
        )

    def test_update_changes_query_answers(self, engine):
        doc = engine.doc
        items = doc.positions_with_tag("item")
        target = items[0]
        end = doc.subtree_end(target)

        engine.store.update_subject_range(target, end, 0, False)
        blocked = set(engine.evaluate("//item", subject=0).positions)
        assert target not in blocked

        engine.store.update_subject_range(target, end, 0, True)
        unblocked = set(engine.evaluate("//item", subject=0).positions)
        assert target in unblocked

    def test_updates_keep_oracle_agreement(self, engine):
        doc = engine.doc
        # Flip a few subtrees, then check all queries against the oracle.
        for pos in (5, 60, 200):
            if pos < len(doc):
                engine.store.update_subject_range(
                    pos, doc.subtree_end(pos), 1, False
                )
        masks = engine.labeling.to_masks()
        got = set(engine.evaluate("//listitem//keyword", subject=1).positions)
        want = evaluate_reference(
            doc, parse_query("//listitem//keyword"), masks, 1, CHO
        )
        assert got == want

    def test_store_survives_cache_drops_between_queries(self, engine):
        before = set(engine.evaluate("//parlist//parlist", subject=2).positions)
        engine.store.drop_caches()
        after = set(engine.evaluate("//parlist//parlist", subject=2).positions)
        assert before == after


class TestXMLRoundTripPipeline:
    def test_parse_label_query(self):
        """Raw XML text in, secure answers out."""
        doc = generate_document(XMarkConfig(n_items=15, seed=2))
        text = serialize(doc.to_tree())
        doc2 = Document.from_tree(parse(text))
        config = SyntheticACLConfig(accessibility_ratio=0.7, seed=4)
        from repro.acl.synthetic import generate_synthetic_acl

        matrix = generate_synthetic_acl(doc2, config)
        engine = QueryEngine.build(doc2, matrix)
        result = engine.evaluate("//item//emph", subject=0)
        want = evaluate_reference(
            doc2, parse_query("//item//emph"), matrix.masks(), 0, CHO
        )
        assert set(result.positions) == want


class TestMultiUserSurrogatePipeline:
    def test_livelink_dol_and_cam_agree_per_user(self):
        dataset = generate_livelink(n_items=300, n_groups=4, n_users=10, seed=6)
        dol = DOL.from_matrix(dataset.matrix, mode="see")
        for subject in range(0, dataset.n_subjects, 3):
            cam = CAM.from_matrix(dataset.doc, dataset.matrix, subject, mode="see")
            vector = dataset.matrix.subject_vector(subject, "see")
            assert cam.to_vector() == vector
            assert [
                dol.accessible(subject, pos) for pos in range(len(dataset.doc))
            ] == vector

    def test_user_effective_rights_union_groups(self):
        dataset = generate_livelink(n_items=200, n_groups=4, n_users=8, seed=9)
        registry = dataset.registry
        user = registry.id_of("user3")
        effective = registry.effective_subjects(user)
        view = dataset.matrix.user_mask_view(effective, "see")
        own = dataset.matrix.subject_vector(user, "see")
        # the union view can only add rights on top of the user's own
        assert all(v or not o for v, o in zip(view, own))
