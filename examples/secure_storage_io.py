"""Block storage, I/O accounting, and the page-skip optimization.

Builds the NoK block store (4 KB pages, embedded DOL codes, in-memory
header table) over an XMark document and demonstrates, with real page-read
counters, the three physical claims of Section 3:

1. accessibility checks cost no extra I/O,
2. pages wholly inaccessible to a subject are skipped without reading,
3. a subtree accessibility update rewrites only ~N/B pages.

Run with: python examples/secure_storage_io.py
"""

from repro.acl.synthetic import SyntheticACLConfig, single_subject_labels
from repro.dol.labeling import DOL
from repro.nok.engine import QueryEngine
from repro.storage.nokstore import NoKStore
from repro.xmark.generator import XMarkConfig, generate_document


def main() -> None:
    doc = generate_document(XMarkConfig(n_items=300, seed=99))
    # subject 0 sees only ~5% of the document
    vector = single_subject_labels(
        doc, SyntheticACLConfig(propagation_ratio=0.1, accessibility_ratio=0.05, seed=2)
    )
    dol = DOL.from_masks([int(v) for v in vector], 1)
    store = NoKStore(doc, dol, page_size=1024, buffer_capacity=1024)
    engine = QueryEngine(doc, labeling=dol, store=store)

    print(
        f"store: {store.n_nodes} nodes on {store.n_pages} pages "
        f"({store.entries_per_page} node entries per page); "
        f"header table {store.headers.size_bytes()} bytes in memory"
    )

    query = "//item//emph"

    store.drop_caches()
    plain = engine.evaluate(query)
    plain_reads = plain.stats.physical_page_reads

    store.drop_caches()
    secure = engine.evaluate(query, subject=0)
    print(
        f"\n{query}: non-secure read {plain_reads} pages for "
        f"{plain.n_answers} answers; secure read "
        f"{secure.stats.physical_page_reads} pages for {secure.n_answers} "
        f"answers ({secure.stats.candidates_skipped_by_header} candidates "
        f"skipped via in-memory page headers)"
    )

    # Claim 1: with a warm cache, the access checks themselves are free.
    warm_plain = engine.evaluate(query)
    warm_secure = engine.evaluate(query, subject=0)
    print(
        f"warm cache: plain {warm_plain.stats.physical_page_reads} physical "
        f"reads, secure {warm_secure.stats.physical_page_reads} "
        f"({warm_secure.stats.access_checks} access checks performed)"
    )

    # Claim 3: update locality.
    regions = doc.positions_with_tag("regions")[0]
    end = doc.subtree_end(regions)
    cost = store.update_subject_range(regions, end, 0, True)
    n = end - regions
    print(
        f"\ngranting subject 0 a {n}-node subtree rewrote "
        f"{cost.pages_rewritten} pages (ceil(N/B) = {-(-n // store.entries_per_page)}), "
        f"transition delta {cost.transition_delta:+d}"
    )

    after = engine.evaluate(query, subject=0)
    print(f"after the grant the same query returns {after.n_answers} answers")


if __name__ == "__main__":
    main()
