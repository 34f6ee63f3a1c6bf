"""Property tests with value predicates: the engine must match the oracle.

Random documents with random short texts, queries mixing tag, value, and
wildcard tests — NoK evaluation and the brute-force oracle must return
identical answers, securely and not, in memory and over a small-page
store (where value-rooted candidates also pass ``PageSkipScan``).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acl.model import AccessMatrix
from repro.nok.engine import QueryEngine
from repro.nok.pattern import parse_query
from repro.nok.reference import evaluate_reference
from repro.xmltree.document import Document
from repro.xmltree.node import Node

TEXTS = ["", "x", "y", "zz"]


def random_document_with_texts(rng: random.Random, n: int) -> Document:
    root = Node("n0", text=rng.choice(TEXTS))
    nodes = [root]
    for _ in range(1, n):
        parent = nodes[rng.randrange(len(nodes))]
        child = Node(f"n{rng.randrange(4)}", text=rng.choice(TEXTS))
        parent.append(child)
        nodes.append(child)
    return Document.from_tree(root)


QUERIES = [
    '//n0 = "x"',
    '//n1[n0 = "y"]',
    '//n0/n1 = "zz"',
    '//*[n2]/n0 = "x"',
    '//n2 = "x"//n1',
    '/n0//n3 = "y"',
    '//n1[n0 = "x"][n2]',
    '//n1 = ""',
]


@st.composite
def cases(draw):
    seed = draw(st.integers(min_value=0, max_value=99_999))
    rng = random.Random(seed)
    doc = random_document_with_texts(rng, draw(st.integers(min_value=1, max_value=35)))
    query = draw(st.sampled_from(QUERIES))
    masks = [rng.randrange(2) for _ in range(len(doc))]
    return doc, query, masks


def check_plain(case, use_store):
    doc, query, masks = case
    pattern = parse_query(query)
    matrix = AccessMatrix.from_masks(masks, 1) if use_store else None
    engine = QueryEngine.build(doc, matrix, use_store=use_store, page_size=64)
    got = set(engine.evaluate(pattern).positions)
    assert got == evaluate_reference(doc, pattern), query


def check_secure(case, use_store):
    doc, query, masks = case
    pattern = parse_query(query)
    matrix = AccessMatrix.from_masks(masks, 1)
    engine = QueryEngine.build(doc, matrix, use_store=use_store, page_size=64)
    got = set(engine.evaluate(pattern, subject=0).positions)
    assert got == evaluate_reference(doc, pattern, masks, 0), query


@given(cases())
@settings(max_examples=150, deadline=None)
def test_nok_with_values_matches_oracle(case):
    check_plain(case, use_store=False)


@given(cases())
@settings(max_examples=100, deadline=None)
def test_secure_nok_with_values_matches_oracle(case):
    check_secure(case, use_store=False)


@given(cases())
@settings(max_examples=100, deadline=None)
def test_nok_with_values_matches_oracle_over_store(case):
    check_plain(case, use_store=True)


@given(cases())
@settings(max_examples=100, deadline=None)
def test_secure_nok_with_values_matches_oracle_over_store(case):
    check_secure(case, use_store=True)
