"""Queries Q4–Q6: ancestor–descendant structural joins, secure variants.

Table 1's bottom three queries exercise structural joins with descendants
close to (Q4), medium-distant from (Q5) and distant from (Q6) their
ancestors. The paper evaluates ε-NoK for these via the ε-STD secure join
([18], Section 4.2): under Cho semantics no path checks are needed; under
view semantics every joined path must be fully accessible.
"""

import time

from repro.acl.synthetic import SyntheticACLConfig, single_subject_labels
from repro.bench.queries import JOIN_QUERIES, QUERIES
from repro.bench.reporting import print_table
from repro.dol.labeling import DOL
from repro.nok.engine import QueryEngine
from repro.secure.semantics import CHO, VIEW


def _engine(doc, accessibility=0.7, seed=9):
    config = SyntheticACLConfig(
        propagation_ratio=0.3, accessibility_ratio=accessibility, seed=seed
    )
    vector = single_subject_labels(doc, config)
    dol = DOL.from_masks([int(v) for v in vector], 1)
    return QueryEngine(doc, labeling=dol)


def _median_time(fn, repeats=5):
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    times.sort()
    return times[len(times) // 2]


def test_join_queries_all_semantics(xmark_doc, benchmark):
    engine = _engine(xmark_doc)
    rows = []
    for qid in JOIN_QUERIES:
        query = QUERIES[qid]
        plain = engine.evaluate(query)
        cho = engine.evaluate(query, subject=0, semantics=CHO)
        view = engine.evaluate(query, subject=0, semantics=VIEW)
        t_plain = _median_time(lambda: engine.evaluate(query))
        t_cho = _median_time(lambda: engine.evaluate(query, subject=0))
        rows.append(
            (
                qid,
                plain.n_answers,
                cho.n_answers,
                view.n_answers,
                t_cho / t_plain,
            )
        )
    print_table(
        "Q4-Q6: structural joins under three evaluation modes",
        ["query", "plain answers", "cho answers", "view answers", "time ratio"],
        rows,
    )
    for qid, plain_n, cho_n, view_n, time_ratio in rows:
        assert view_n <= cho_n <= plain_n, qid
        assert plain_n > 0, f"{qid} found nothing: generator too small"
        # Secure joins stay in the same cost regime as non-secure ones.
        assert time_ratio < 2.0, (qid, time_ratio)

    benchmark(engine.evaluate, QUERIES["Q6"], 0)


def test_join_distance_classes(xmark_doc, benchmark):
    """Q4 descendants sit close to their ancestors, Q6 distant — verify the
    workload exhibits the distance classes Table 1 was designed around."""
    engine = _engine(xmark_doc)

    def mean_distance(qid):
        from repro.nok.pattern import parse_query
        from repro.nok.reference import enumerate_bindings

        pattern = parse_query(QUERIES[qid])
        bindings = enumerate_bindings(xmark_doc, pattern)
        distances = []
        for binding in bindings:
            positions = sorted(binding.values())
            top, bottom = positions[0], positions[-1]
            distances.append(xmark_doc.depth[bottom] - xmark_doc.depth[top])
        return sum(distances) / len(distances)

    d4 = mean_distance("Q4")
    d6 = mean_distance("Q6")
    print(f"mean AD depth distance: Q4={d4:.2f} Q6={d6:.2f}")
    assert d4 < d6, "parlist//parlist should be tighter than item//emph"
    benchmark(engine.evaluate, QUERIES["Q4"])


def test_join_loads_each_page_at_most_once(xmark_doc, benchmark):
    """The [18] claim for ε-STD: with a sufficient buffer, secure join
    evaluation loads every data page at most once."""
    from repro.dol.labeling import DOL
    from repro.storage.nokstore import NoKStore
    from repro.acl.synthetic import SyntheticACLConfig, single_subject_labels

    vector = single_subject_labels(
        xmark_doc,
        SyntheticACLConfig(propagation_ratio=0.3, accessibility_ratio=0.7, seed=9),
    )
    dol = DOL.from_masks([int(v) for v in vector], 1)
    store = NoKStore(xmark_doc, dol, page_size=1024, buffer_capacity=4096)
    engine = QueryEngine(xmark_doc, labeling=dol, store=store)
    for qid in JOIN_QUERIES:
        store.drop_caches()
        result = engine.evaluate(QUERIES[qid], subject=0)
        assert result.stats.physical_page_reads <= store.n_pages, (
            qid,
            result.stats.physical_page_reads,
            store.n_pages,
        )
    benchmark(engine.evaluate, QUERIES["Q4"], 0)


def test_secure_join_view_prunes_paths(xmark_doc, benchmark):
    """With a blocked region, view semantics returns strictly fewer (or
    equal) answers than Cho on join queries."""
    engine = _engine(xmark_doc, accessibility=0.5, seed=1)
    benchmark(engine.evaluate, QUERIES["Q5"], 0, VIEW)
    for qid in JOIN_QUERIES:
        cho = set(engine.evaluate(QUERIES[qid], subject=0, semantics=CHO).positions)
        view = set(engine.evaluate(QUERIES[qid], subject=0, semantics=VIEW).positions)
        assert view <= cho
