"""Unit tests for secure one-pass XML dissemination."""

import pytest

from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
from repro.dol.labeling import DOL
from repro.errors import AccessControlError
from repro.secure.dissemination import (
    HOIST,
    PRUNE,
    filter_xml,
    hoisted_positions,
    visible_positions,
)
from repro.xmltree.builder import tree
from repro.xmltree.document import Document
from repro.xmltree.parser import parse
from repro.xmltree.serializer import serialize

XML = "<a><b><c>secret</c></b><d>open</d></a>"
# positions: a=0 b=1 c=2 d=3


def dol_for(masks):
    return DOL.from_masks(masks, 1)


class TestPrune:
    def test_full_access_is_identity(self):
        out = filter_xml(XML, dol_for([1, 1, 1, 1]), 0)
        assert parse(out).structurally_equal(parse(XML))

    def test_denied_subtree_removed(self):
        out = filter_xml(XML, dol_for([1, 0, 1, 1]), 0, PRUNE)
        assert out == "<a><d>open</d></a>"

    def test_denied_root_yields_nothing(self):
        assert filter_xml(XML, dol_for([0, 1, 1, 1]), 0, PRUNE) == ""

    def test_accessible_node_under_denied_parent_pruned(self):
        # c accessible but b denied: view semantics prunes c anyway.
        out = filter_xml(XML, dol_for([1, 0, 1, 1]), 0, PRUNE)
        assert "secret" not in out

    def test_text_of_kept_nodes_preserved(self):
        out = filter_xml(XML, dol_for([1, 1, 1, 0]), 0, PRUNE)
        assert out == "<a><b><c>secret</c></b></a>"


class TestHoist:
    def test_accessible_descendants_surface(self):
        out = filter_xml(XML, dol_for([1, 0, 1, 1]), 0, HOIST)
        assert out == "<a><c>secret</c><d>open</d></a>"

    def test_denied_root_leaves_forest(self):
        out = filter_xml(XML, dol_for([0, 1, 1, 1]), 0, HOIST)
        assert out == "<b><c>secret</c></b><d>open</d>"
        # well-formed as a fragment
        parse(f"<wrap>{out}</wrap>")

    def test_nothing_accessible(self):
        assert filter_xml(XML, dol_for([0, 0, 0, 0]), 0, HOIST) == ""


class TestMultiSubject:
    def test_per_subject_filtering(self):
        # subject 0 sees everything; subject 1 only a and d
        masks = [0b11, 0b01, 0b01, 0b11]
        dol = DOL.from_masks(masks, 2)
        assert "secret" in filter_xml(XML, dol, 0)
        out1 = filter_xml(XML, dol, 1)
        assert "secret" not in out1
        assert "<d>" in out1


class TestValidation:
    def test_unknown_policy(self):
        with pytest.raises(AccessControlError):
            filter_xml(XML, dol_for([1, 1, 1, 1]), 0, "shred")

    def test_dol_too_small(self):
        with pytest.raises(AccessControlError):
            filter_xml(XML, dol_for([1, 1]), 0)

    def test_surplus_elements_inside_a_pruned_subtree(self):
        # b is pruned, and the DOL ends before its children
        with pytest.raises(AccessControlError, match="more elements"):
            filter_xml("<r><a/><b><x/><y/></b></r>", dol_for([1, 1, 0]), 0, PRUNE)

    @pytest.mark.parametrize("policy", (PRUNE, HOIST))
    def test_dol_too_large(self, policy):
        with pytest.raises(AccessControlError, match="the DOL covers 4"):
            filter_xml("<r><a/></r>", dol_for([1] * 4), 0, policy)

    def test_attributes_preserved(self):
        xml = '<a id="1"><b name="x &amp; y"/></a>'
        out = filter_xml(xml, dol_for([1, 1]), 0)
        again = parse(out)
        assert again.attrs == {"id": "1"}
        assert again.children[0].attrs == {"name": "x & y"}


class TestAgainstReferenceSets:
    def test_prune_matches_visible_positions(self, xmark_doc):
        matrix = generate_synthetic_acl(
            xmark_doc, SyntheticACLConfig(accessibility_ratio=0.8, seed=6)
        )
        dol = DOL.from_matrix(matrix)
        xml = serialize(xmark_doc.to_tree())
        out = filter_xml(xml, dol, 0, PRUNE)
        expected = visible_positions(dol, 0, xmark_doc)
        if not expected:
            assert out == ""
            return
        filtered = Document.from_tree(parse(out))
        expected_tags = [xmark_doc.tag_name(p) for p in expected]
        got_tags = [filtered.tag_name(i) for i in range(len(filtered))]
        assert got_tags == expected_tags

    def test_hoist_matches_accessible_positions(self, xmark_doc):
        matrix = generate_synthetic_acl(
            xmark_doc, SyntheticACLConfig(accessibility_ratio=0.6, seed=7)
        )
        dol = DOL.from_matrix(matrix)
        xml = serialize(xmark_doc.to_tree())
        out = filter_xml(xml, dol, 0, HOIST)
        expected = hoisted_positions(dol, 0)
        wrapped = Document.from_tree(parse(f"<wrap>{out}</wrap>"))
        got_tags = [wrapped.tag_name(i) for i in range(1, len(wrapped))]
        assert got_tags == [xmark_doc.tag_name(p) for p in expected]

    def test_prune_output_reparses_and_revalidates(self, xmark_doc):
        matrix = generate_synthetic_acl(
            xmark_doc, SyntheticACLConfig(accessibility_ratio=0.9, seed=8)
        )
        dol = DOL.from_matrix(matrix)
        xml = serialize(xmark_doc.to_tree())
        out = filter_xml(xml, dol, 0, PRUNE)
        if out:
            Document.from_tree(parse(out)).validate()
