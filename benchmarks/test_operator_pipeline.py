"""Plan-level benchmarks for the Volcano operator pipeline.

For each Table 1 query, compiles the physical plan, runs it, and prints a
per-operator report (rows, inclusive milliseconds, operator counters) —
the plan-level analogue of Figure 7's query-overhead numbers. A second
bench measures what streaming buys: access checks and page reads for a
``LIMIT k`` plan against the full drain.
"""

from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
from repro.bench.queries import QUERIES
from repro.bench.reporting import format_plan_table, print_table
from repro.nok.engine import QueryEngine
from repro.secure.semantics import CHO, VIEW


def _engine(xmark_doc, use_store=False):
    config = SyntheticACLConfig(accessibility_ratio=0.8, seed=17)
    matrix = generate_synthetic_acl(xmark_doc, config, n_subjects=4)
    return QueryEngine.build(
        xmark_doc, matrix, use_store=use_store, page_size=1024,
        buffer_capacity=16,
    )


def test_per_operator_profile_all_queries(xmark_doc, benchmark):
    engine = _engine(xmark_doc)
    for qid in sorted(QUERIES):
        plan = engine.compile(QUERIES[qid], subject=0, semantics=CHO)
        plan.run()
        print("\n" + format_plan_table(f"{qid}: {QUERIES[qid]}", plan) + "\n")

    benchmark(lambda: engine.compile(QUERIES["Q5"], subject=0).run())


def test_semantics_rewrite_overhead(xmark_doc, benchmark):
    """Cho vs view semantics as plan shapes: operator counts and checks."""
    engine = _engine(xmark_doc)
    rows = []
    for qid in sorted(QUERIES):
        for semantics in (CHO, VIEW):
            plan = engine.compile(QUERIES[qid], subject=0, semantics=semantics)
            result = plan.run()
            rows.append(
                (
                    qid,
                    semantics,
                    len(list(plan.operators())),
                    result.n_answers,
                    result.stats.access_checks,
                )
            )
    print_table(
        "secure rewrites: plan size and access checks per semantics",
        ["query", "semantics", "operators", "answers", "access checks"],
        rows,
    )
    benchmark(
        lambda: engine.compile(QUERIES["Q5"], subject=0, semantics=VIEW).run()
    )


def test_streaming_limit_savings(xmark_doc, benchmark):
    """What Limit(k) saves over a full drain, store-backed.

    ``[name]`` makes the matcher read each candidate's page, so the
    page-read column measures something (a bare ``//item`` reads none).
    """
    engine = _engine(xmark_doc, use_store=True)
    rows = []
    full = engine.evaluate("//item[name]", subject=0)
    for k in (1, 5, 25):
        limited = engine.evaluate("//item[name]", subject=0, limit=k)
        rows.append(
            (
                f"limit {k}",
                limited.n_answers,
                limited.stats.access_checks,
                limited.stats.logical_page_reads,
            )
        )
        assert limited.stats.access_checks <= full.stats.access_checks
    rows.append(
        (
            "full drain",
            full.n_answers,
            full.stats.access_checks,
            full.stats.logical_page_reads,
        )
    )
    print_table(
        "streaming: early termination vs full drain (//item[name], store-backed)",
        ["plan", "answers", "access checks", "logical page reads"],
        rows,
    )
    benchmark(lambda: engine.evaluate("//item[name]", subject=0, limit=5))
