"""The process that hosts the program under test.

``python perf/worker.py <store path> <kind> <buffer frames> <decoded bytes>``
opens the saved store, builds the engine (and, for ``serve``, the
``QueryService`` + asyncio server), prints one ``ready`` line and then
answers one JSON command per stdin line with one JSON line on stdout.
Keeping the program in its own process makes ``peak_rss_mb`` the
program's memory, not the generator's and checker's.

The helpers the traced run needs in-process (``open_workload_store``,
``twig_repetition``, ``direct_updates``) live here too so both paths run the
same code.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import zlib
from array import array
from time import perf_counter
from typing import Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from repro.nok.engine import QueryEngine  # noqa: E402
from repro.storage.nokstore import NoKStore, wal_path_for  # noqa: E402
from repro.storage.pagecache import DEFAULT_DECODED_CACHE_BYTES  # noqa: E402
from repro.storage.persist import catalog_path_for, open_store, save_store  # noqa: E402

from datagen import query_text  # noqa: E402
from workloads import CODEC, PAGE_SIZE, SERVE_QUEUE_DEPTH, SERVE_WORKERS  # noqa: E402


def open_workload_store(path: str, buffer_capacity: int, decoded_bytes: int) -> NoKStore:
    """Reopen the saved store with the workload's cache sizes.

    ``open_store`` cannot size the decoded-page cache, so a non-default
    budget goes through the only public door there is: reopen for the
    document and labeling, then build a second store file with the
    ``NoKStore`` constructor (same pages, same codec, smaller caches).
    """
    store = open_store(path, buffer_capacity=buffer_capacity)
    if decoded_bytes == DEFAULT_DECODED_CACHE_BYTES:
        return store
    doc, labeling = store.doc, store.labeling
    store.close()
    sized = NoKStore(
        doc, labeling, path=path + ".sized", page_size=PAGE_SIZE, codec=CODEC,
        buffer_capacity=buffer_capacity, decoded_cache_bytes=decoded_bytes,
    )
    save_store(sized)
    return sized


def answer_digest(positions: Sequence[int]) -> int:
    return zlib.crc32(array("q", positions).tobytes())


def twig_repetition(engine: QueryEngine, ops: Sequence[Sequence]) -> Dict[str, object]:
    """Run ``ops`` once, closed loop, one request at a time.

    Each op's latency is the ``engine.evaluate`` call alone; the wall time
    also holds the digest and bookkeeping between calls, which is what a
    caller that consumes its answers pays.
    """
    latencies: List[float] = []
    digests: List[int] = []
    gc.collect()
    started = perf_counter()
    for qid, semantics, subjects in ops:
        text = query_text(qid)
        before = perf_counter()
        result = engine.evaluate(text, subject=subjects, semantics=semantics)
        latencies.append(perf_counter() - before)
        digests.append(answer_digest(result.positions))
    return {
        "wall": perf_counter() - started,
        "latencies": latencies,
        "digests": digests,
    }


def settle() -> None:
    """Collect, then move every surviving object out of the collector's
    reach. Full collections over the resident document otherwise come in
    phases that slow identical requests by up to 1.7x (measured); the
    collector stays on for whatever the requests allocate."""
    gc.collect()
    gc.freeze()


def warm_up(engine: QueryEngine, reads: Sequence[Sequence]) -> List[List[int]]:
    """The untimed pass; its answers go back to the checker."""
    return [
        engine.evaluate(query_text(qid), subject=subjects, semantics=semantics).positions
        for qid, semantics, subjects in reads
    ]


def direct_updates(store: NoKStore, updates: Sequence[Sequence]) -> Dict[str, object]:
    """Time ``store.update_subject_range`` for each update, in order."""
    wal_path = wal_path_for(store.pager.path)
    wal_before = os.path.getsize(wal_path)
    latencies, pages, deltas = [], [], []
    for _op, start, end, subject, value in updates:
        before = perf_counter()
        cost = store.update_subject_range(start, end, subject, value)
        latencies.append(perf_counter() - before)
        pages.append(cost.pages_rewritten)
        deltas.append(cost.transition_delta)
    return {
        "latencies": latencies,
        "pages_rewritten": pages,
        "transition_deltas": deltas,
        "wal_bytes": os.path.getsize(wal_path) - wal_before,
    }


def checkpoint(store: NoKStore) -> Dict[str, int]:
    """``save_store`` (flush, catalog, WAL truncate) and the bytes on disk."""
    save_store(store)
    path = store.pager.path
    return {
        "page_file_bytes": os.path.getsize(path),
        "catalog_bytes": os.path.getsize(catalog_path_for(path)),
        "n_nodes": store.n_nodes,
        "n_pages": store.n_pages,
    }


def make_service(engine: QueryEngine):
    from repro.server.service import QueryService, ServiceConfig

    return QueryService(
        engine, ServiceConfig(workers=SERVE_WORKERS, queue_depth=SERVE_QUEUE_DEPTH)
    )


def main(argv: List[str]) -> int:
    path, kind = argv[0], argv[1]
    buffer_capacity, decoded_bytes = int(argv[2]), int(argv[3])
    store = open_workload_store(path, buffer_capacity, decoded_bytes)
    engine = QueryEngine(store.doc, store=store)
    serving = service = None
    ready: Dict[str, object] = {"ready": True, "pid": os.getpid()}
    if kind == "serve":
        from repro.server.aserver import serve_async

        service = make_service(engine)
        serving = serve_async(service)
        ready["address"] = list(serving.address)

    def reply(payload: Dict[str, object]) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    reply(ready)
    ops: List[Sequence] = []
    try:
        for line in sys.stdin:
            command = json.loads(line)
            verb = command["cmd"]
            if verb == "quit":
                break
            if verb == "load":
                ops = command["ops"]
                reply({"loaded": len(ops)})
            elif verb == "warm":
                reply({"positions": warm_up(engine, command["reads"])})
            elif verb == "settle":
                settle()
                reply({"settled": True})
            elif verb == "repetition":
                reply(twig_repetition(engine, ops))
            elif verb == "updates":
                reply(direct_updates(store, command["updates"]))
            elif verb == "checkpoint":
                reply(checkpoint(store))
            elif verb == "metrics":
                reply(service.metrics())
            else:
                reply({"error": f"unknown command {verb!r}"})
    finally:
        # AsyncServing.close() tears down listener, service and store
        if serving is not None:
            serving.close()
        else:
            store.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
