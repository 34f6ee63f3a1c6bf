"""Unit tests for NPM pattern matching (Algorithm 1) and binding enumeration."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nok.decompose import decompose
from repro.nok.matcher import match_nok_subtree, npm
from repro.nok.pattern import parse_query
from repro.xmltree.builder import tree
from repro.xmltree.document import Document
from repro.xmltree.node import Node


@pytest.fixture
def doc():
    #            a0
    #      b1         b4        e7
    #    c2  d3     c5  d6      c8
    return Document.from_tree(
        tree(
            (
                "a",
                ("b", ("c",), ("d",)),
                ("b", ("c",), ("d",)),
                ("e", ("c",)),
            )
        )
    )


def pattern_root(query):
    return parse_query(query).root


class TestNPM:
    def test_simple_match(self, doc):
        result = []
        assert npm(doc, pattern_root("/a/b"), 0, result)
        assert result == [1, 4]

    def test_no_match_leaves_result_empty(self, doc):
        result = []
        assert not npm(doc, pattern_root("/a/zzz"), 0, result)
        assert result == []

    def test_branching_pattern(self, doc):
        result = []
        assert npm(doc, pattern_root("/a/b[c][d]"), 0, result)
        assert result == [1, 4]

    def test_partial_failure_rolls_back_bindings(self, doc):
        # e has a c child but no d; only the two bs qualify.
        result = []
        assert npm(doc, pattern_root("/a/*[c][d]"), 0, result)
        assert result == [1, 4]

    def test_returning_node_deep(self, doc):
        result = []
        assert npm(doc, pattern_root("/a/b/c"), 0, result)
        assert result == [2, 5]

    def test_secure_skips_inaccessible_children(self, doc):
        blocked = {1}  # first b inaccessible
        result = []
        assert npm(doc, pattern_root("/a/b"), 0, result, access=lambda p: p not in blocked)
        assert result == [4]

    def test_secure_failure_when_all_blocked(self, doc):
        result = []
        ok = npm(doc, pattern_root("/a/b"), 0, result, access=lambda p: p not in {1, 4})
        assert not ok
        assert result == []

    def test_value_constraints(self, small_doc):
        result = []
        ok = npm(small_doc, parse_query('/site/item/name = "anvil"').root, 0, result)
        assert ok
        assert result == [2]


class TestBindingEnumeration:
    def _match(self, doc, query, pos=0, access=None):
        dec = decompose(parse_query(query))
        return match_nok_subtree(doc, dec.subtrees[0], pos, access)

    def test_root_binding_always_present(self, doc):
        bindings = self._match(doc, "/a/b")
        dec_root = parse_query("/a/b")
        assert bindings  # a matched
        for binding in bindings:
            assert 0 in binding.values()

    def test_returning_bindings_enumerated(self, doc):
        query = parse_query("/a/b")
        dec = decompose(query)
        bindings = match_nok_subtree(doc, dec.subtrees[0], 0)
        ret = id(query.returning_node)
        assert sorted(b[ret] for b in bindings) == [1, 4]

    def test_existential_branches_not_enumerated(self, doc):
        # c and d are pure predicates -> not output nodes -> single binding
        query = parse_query("/a[b]")
        dec = decompose(query)
        bindings = match_nok_subtree(doc, dec.subtrees[0], 0)
        assert len(bindings) == 1

    def test_no_match_returns_empty(self, doc):
        assert self._match(doc, "/a/zzz") == []

    def test_connection_point_bindings(self, doc):
        # b is an AD-edge source; its bindings must be enumerated.
        query = parse_query("/a/b//x")
        dec = decompose(query)
        bindings = match_nok_subtree(doc, dec.subtrees[0], 0)
        b_node = dec.edges[0].parent_node
        assert sorted(m[id(b_node)] for m in bindings) == [1, 4]

    def test_secure_enumeration(self, doc):
        bindings = self._match(doc, "/a/b", access=lambda p: p != 1)
        query = parse_query("/a/b")
        assert len(bindings) == 1

    def test_duplicate_bindings_deduped(self, doc):
        # Multiple ways to satisfy [c] must not duplicate b bindings.
        bindings = self._match(doc, "/a/b[c][d]")
        keys = [frozenset(b.items()) for b in bindings]
        assert len(keys) == len(set(keys))


# -- Algorithm 1 as the reference for the enumerating matcher -----------------

#: child-axis-only twigs: each is a single NoK subtree holding the
#: returning node, the shape both entry points are defined on
NOK_QUERIES = [
    "/n0/n1",
    "/n0[n1]/n2",
    "/n0/n1[n2]",
    "/n0/*[n1][n2]",
    "/n0[n1/n2]",
    "/*/n1/n0",
    "/n1[n0][n2]",
    "/n1[n0]/n0",
    '/n0/n1 = "x"',
]


@st.composite
def nok_cases(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=99_999)))
    root = Node("n0", text=rng.choice(["", "x"]))
    nodes = [root]
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        child = Node(f"n{rng.randrange(3)}", text=rng.choice(["", "x"]))
        nodes[rng.randrange(len(nodes))].append(child)
        nodes.append(child)
    doc = Document.from_tree(root)
    blocked = {pos for pos in range(len(doc)) if rng.random() < 0.3}
    return doc, draw(st.sampled_from(NOK_QUERIES)), blocked


@given(nok_cases(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_match_nok_subtree_agrees_with_algorithm_1(case, secure):
    doc, query, blocked = case
    access = (lambda pos: pos not in blocked) if secure else None
    pattern = parse_query(query)
    subtree = decompose(pattern).subtrees[0]
    returning = id(pattern.returning_node)
    for pos in range(len(doc)):
        # the shared pre-condition: tag/value test and ACCESS hold at pos
        if not pattern.root.matches(doc.tag_name(pos), doc.text(pos)):
            continue
        if access is not None and not access(pos):
            continue
        result = []
        matched = npm(doc, pattern.root, pos, result, access)
        bindings = match_nok_subtree(doc, subtree, pos, access)
        assert bool(bindings) == matched, (query, pos)
        assert sorted({b[returning] for b in bindings}) == sorted(set(result))
