"""Section 3.3's page-skip optimization, measured in physical page reads.

When the querying subject can access little of the document, the
in-memory page headers let the secure evaluator skip entire pages (first
node's code denies + change bit clear) — so secure evaluation can read
*fewer* pages than non-secure evaluation, the effect the paper reports at
very low accessibility ratios. The query's matcher reads each
candidate's page (``[name]`` walks the item's children); a plan reads no
page it does not need, so a ``//``-chain of bare tags reads none at all
and could show no saving.
"""

from repro.acl.synthetic import SyntheticACLConfig, single_subject_labels
from repro.bench.reporting import print_table
from repro.dol.labeling import DOL
from repro.nok.engine import QueryEngine
from repro.storage.nokstore import NoKStore


def _engine(doc, accessibility, seed=2, page_size=1024):
    config = SyntheticACLConfig(
        propagation_ratio=0.1, accessibility_ratio=accessibility, seed=seed
    )
    vector = single_subject_labels(doc, config)
    dol = DOL.from_masks([int(v) for v in vector], 1)
    store = NoKStore(doc, dol, page_size=page_size, buffer_capacity=512)
    return QueryEngine(doc, labeling=dol, store=store)


def test_page_skip_saves_io_at_low_accessibility(xmark_doc, benchmark):
    rows = []
    for accessibility in (0.02, 0.1, 0.3, 0.7):
        engine = _engine(xmark_doc, accessibility)
        query = "//item[name]"

        engine.store.drop_caches()
        plain = engine.evaluate(query)
        engine.store.drop_caches()
        secure = engine.evaluate(query, subject=0)

        rows.append(
            (
                f"{accessibility:.0%}",
                plain.stats.physical_page_reads,
                secure.stats.physical_page_reads,
                secure.stats.candidates_skipped_by_header,
            )
        )
    print_table(
        "Page-skip optimization (//item[name], cold cache)",
        ["accessible", "plain page reads", "secure page reads", "header skips"],
        rows,
    )
    # secure never reads more pages than non-secure (checks are free)...
    for _acc, plain_reads, secure_reads, _skips in rows:
        assert secure_reads <= plain_reads
    # ...and at very low accessibility it reads strictly fewer.
    lowest = rows[0]
    assert lowest[2] < lowest[1], rows
    assert lowest[3] > 0, "expected header-based candidate skips"

    engine = _engine(xmark_doc, 0.02)
    benchmark(engine.evaluate, "//item[name]", 0)


def test_header_table_memory_footprint(xmark_doc, benchmark):
    """The paper estimates 3 MB–100 MB of headers per terabyte of XML;
    verify the per-page overhead that estimate implies."""
    engine = _engine(xmark_doc, 0.5)
    store = engine.store
    header_bytes = store.headers.size_bytes()
    data_bytes = store.n_pages * store.page_size
    overhead = header_bytes / data_bytes
    print(
        f"header table: {header_bytes} B over {data_bytes} B of pages "
        f"({overhead:.4%})"
    )
    assert overhead < 0.01  # well under 1%
    benchmark(store.headers.size_bytes)
