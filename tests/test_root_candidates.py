"""The root node test is the tag index: ``root_candidates`` against brute force.

No operator re-checks a NoK subtree root against the pages, so
:func:`~repro.exec.operators.root_candidates` must be the whole root
test — tag, ``*``, value, attribute and anchored roots, alone and
combined. Over random documents with texts and attributes it must
return exactly the positions a per-node test accepts, and a query
rooted at any such node must answer the same in memory, over a store
and in the brute-force oracle.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acl.model import AccessMatrix
from repro.exec.operators import root_candidates
from repro.nok.engine import QueryEngine
from repro.nok.pattern import CHILD, DESCENDANT, PatternNode, PatternTree
from repro.nok.reference import evaluate_reference
from repro.secure.semantics import CHO, VIEW
from repro.xmltree.document import Document
from repro.xmltree.node import Node

TAGS = ["n0", "n1", "n2", "n3"]
TEXTS = ["", "x", "y"]
ATTR_VALUES = ["1", "2"]


def random_document(rng: random.Random, n: int) -> Document:
    def node(tag):
        attrs = {
            name: rng.choice(ATTR_VALUES)
            for name in ("a", "b")
            if rng.random() < 0.4
        }
        return Node(tag, text=rng.choice(TEXTS), attrs=attrs)

    nodes = [node("n0")]
    for _ in range(1, n):
        child = node(rng.choice(TAGS))
        nodes[rng.randrange(len(nodes))].append(child)
        nodes.append(child)
    return Document.from_tree(nodes[0])


@st.composite
def root_tests(draw):
    """A root pattern node: tag or ``*``, optional value and attribute tests."""
    pnode = PatternNode(
        draw(st.sampled_from(TAGS + ["*"])),
        draw(st.one_of(st.none(), st.sampled_from(TEXTS))),
    )
    for name in ("a", "b"):
        test = draw(st.sampled_from(["absent", "exists"] + ATTR_VALUES))
        if test != "absent":
            pnode.attr_tests[name] = None if test == "exists" else test
    return pnode, draw(st.booleans())


@st.composite
def cases(draw):
    seed = draw(st.integers(min_value=0, max_value=99_999))
    rng = random.Random(seed)
    doc = random_document(rng, draw(st.integers(min_value=1, max_value=40)))
    pnode, anchored = draw(root_tests())
    masks = [rng.randrange(2) for _ in range(len(doc))]
    return doc, pnode, anchored, masks


def brute_force(doc: Document, pnode: PatternNode, anchored: bool):
    """Every position, each tested on its own; an anchored root is position 0."""
    kept = []
    for pos in range(1 if anchored else len(doc)):
        if pnode.tag != "*" and doc.tag_name(pos) != pnode.tag:
            continue
        if pnode.value is not None and doc.text(pos) != pnode.value:
            continue
        attrs = doc.attrs_of(pos)
        if all(
            name in attrs and (required is None or attrs[name] == required)
            for name, required in pnode.attr_tests.items()
        ):
            kept.append(pos)
    return kept


def pattern_at(pnode: PatternNode, anchored: bool, child_tag=None) -> PatternTree:
    """A query returning ``pnode``, optionally with one child-axis child
    (which makes the matcher walk each candidate's children)."""
    pnode.children, pnode.axes = [], []
    if child_tag is not None:
        pnode.add_child(PatternNode(child_tag), CHILD)
    pnode.is_returning = True
    return PatternTree(pnode, CHILD if anchored else DESCENDANT)


@given(cases())
@settings(max_examples=200, deadline=None)
def test_root_candidates_equal_a_per_node_test(case):
    doc, pnode, anchored, _masks = case
    got = list(root_candidates(doc, pnode, anchored))
    assert got == brute_force(doc, pnode, anchored)


@given(cases(), st.sampled_from([None] + TAGS), st.sampled_from([CHO, VIEW]))
@settings(max_examples=100, deadline=None)
def test_store_and_memory_answer_alike(case, child_tag, semantics):
    doc, pnode, anchored, masks = case
    pattern = pattern_at(pnode, anchored, child_tag)
    matrix = AccessMatrix.from_masks(masks, 1)
    in_memory = QueryEngine.build(doc, matrix)
    stored = QueryEngine.build(doc, matrix, use_store=True, page_size=64)
    for engine in (in_memory, stored):
        assert set(engine.evaluate(pattern).positions) == evaluate_reference(
            doc, pattern
        )
        secure = engine.evaluate(pattern, subject=0, semantics=semantics)
        assert set(secure.positions) == evaluate_reference(
            doc, pattern, masks, 0, semantics
        )
