"""Figure 7(a–c): ε-NoK vs non-secure NoK — processing time ratio and
answers-returned ratio as a function of the percentage of accessible nodes
(50%–80%), for queries Q1–Q3.

Paper findings: secure evaluation costs only ~2% extra (accessibility
checks need no additional I/O) and the overhead does not depend on the
accessibility ratio; the answer ratio tracks the accessible fraction of
the result set.
"""

import time

from repro.acl.synthetic import SyntheticACLConfig, single_subject_labels
from repro.bench.queries import NOK_ONLY, QUERIES
from repro.bench.reporting import print_table
from repro.dol.labeling import DOL
from repro.nok.engine import QueryEngine
from repro.storage.nokstore import NoKStore

ACCESSIBLE_PERCENTAGES = [0.5, 0.6, 0.7, 0.8]
REPEATS = 7


def _engine_for(doc, accessibility, seed=3):
    config = SyntheticACLConfig(
        propagation_ratio=0.3, accessibility_ratio=accessibility, seed=seed
    )
    vector = single_subject_labels(doc, config)
    dol = DOL.from_masks([int(v) for v in vector], 1)
    store = NoKStore(doc, dol, page_size=4096, buffer_capacity=256)
    return QueryEngine(doc, labeling=dol, store=store)


def _median_time(fn, repeats=REPEATS):
    """Minimum over repeats — the standard low-noise timing estimator."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


def _ratio_rows(doc, qid):
    rows = []
    for accessibility in ACCESSIBLE_PERCENTAGES:
        engine = _engine_for(doc, accessibility)
        query = QUERIES[qid]
        plain = engine.evaluate(query)
        secure = engine.evaluate(query, subject=0)
        t_plain = _median_time(lambda: engine.evaluate(query))
        t_secure = _median_time(lambda: engine.evaluate(query, subject=0))
        answer_ratio = (
            secure.n_answers / plain.n_answers if plain.n_answers else 1.0
        )
        rows.append(
            (
                f"{accessibility:.0%}",
                t_secure / t_plain,
                answer_ratio,
                plain.n_answers,
                secure.n_answers,
            )
        )
    return rows


def _check_overhead(rows, qid):
    time_ratios = [row[1] for row in rows]
    # Paper: ~2% overhead, independent of accessibility. Python timing is
    # noisier than the paper's Java testbed; accept up to 60% overhead and
    # require the *shape*: no blow-up, no strong dependence on the ratio.
    for ratio in time_ratios:
        assert ratio < 1.6, (qid, time_ratios)
    spread = max(time_ratios) - min(time_ratios)
    assert spread < 0.6, (qid, time_ratios)
    # Answers returned can only shrink under secure evaluation.
    for row in rows:
        assert row[2] <= 1.0 + 1e-9


def test_fig7a_query1(xmark_doc, benchmark):
    from repro.bench.figures import print_bars

    rows = _ratio_rows(xmark_doc, "Q1")
    print_table(
        "Figure 7(a): Q1 ratios (ε-NoK / NoK)",
        ["accessible", "time ratio", "answers ratio", "plain", "secure"],
        rows,
    )
    print_bars(
        "Q1 answers returned (ε-NoK / NoK)", [(row[0], row[2]) for row in rows]
    )
    _check_overhead(rows, "Q1")
    engine = _engine_for(xmark_doc, 0.7)
    benchmark(engine.evaluate, QUERIES["Q1"], 0)


def test_fig7b_query2(xmark_doc, benchmark):
    rows = _ratio_rows(xmark_doc, "Q2")
    print_table(
        "Figure 7(b): Q2 ratios (ε-NoK / NoK)",
        ["accessible", "time ratio", "answers ratio", "plain", "secure"],
        rows,
    )
    _check_overhead(rows, "Q2")
    engine = _engine_for(xmark_doc, 0.7)
    benchmark(engine.evaluate, QUERIES["Q2"], 0)


def test_fig7c_query3(xmark_doc, benchmark):
    rows = _ratio_rows(xmark_doc, "Q3")
    print_table(
        "Figure 7(c): Q3 ratios (ε-NoK / NoK)",
        ["accessible", "time ratio", "answers ratio", "plain", "secure"],
        rows,
    )
    _check_overhead(rows, "Q3")
    engine = _engine_for(xmark_doc, 0.7)
    benchmark(engine.evaluate, QUERIES["Q3"], 0)


def test_fig7_no_extra_io_for_checks(xmark_doc, benchmark):
    """The mechanism behind the flat overhead: secure evaluation reads no
    more pages than non-secure evaluation of the same query."""
    engine = _engine_for(xmark_doc, 0.7)
    benchmark(engine.evaluate, QUERIES["Q1"], 0)
    for qid in NOK_ONLY:
        engine.store.drop_caches()
        plain = engine.evaluate(QUERIES[qid])
        engine.store.drop_caches()
        secure = engine.evaluate(QUERIES[qid], subject=0)
        assert (
            secure.stats.physical_page_reads <= plain.stats.physical_page_reads
        ), qid
