"""Class-collapse benchmark — the payload behind ``BENCH_classes.json``.

The experiment behind the access-class directory: simulate LiveLink-scale
user populations (every user is a subject set of 1–3 groups, as in the
paper's production dataset where 8,639 subjects derive their rights from
a much smaller set of roles) and measure that the engine's canonicalized
caches grow with the number of *equivalence classes*, never with the
number of *users*.

Per population scale the benchmark:

1. canonicalizes every simulated user through
   :meth:`~repro.nok.engine.QueryEngine.access_class_of` (the class
   directory's memoized path) and records users/sec plus the resulting
   class count;
2. runs the query workload for a sample of users with result caching on,
   recording throughput and how many evaluations resolved statically
   (fully-allowed / fully-denied classes) or straight from a cache;
3. snapshots all three cache layers — plan, run, result — whose entry
   counts the gate bounds by ``#classes x #queries x factor``.

:func:`gate_class_report` is the machine-independent regression gate
(the CI class-collapse job and ``repro-dol bench --suite classes`` both
call it): entry-count ratios and zero-read guarantees transfer across
machines, wall-clock latencies do not.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.acl.surrogates import generate_livelink
from repro.bench.reporting import write_report
from repro.dol.labeling import DOL
from repro.errors import ReproError
from repro.nok.engine import QueryEngine

__all__ = [
    "CLASS_QUERIES",
    "simulated_user_sets",
    "run_class_benchmark",
    "gate_class_report",
    "write_report",
]

#: The workload: the LiveLink surrogate is a homogeneous ``item`` tree,
#: so the queries exercise scan, child-chain, and structural-join shapes
#: over the one tag.
CLASS_QUERIES: Dict[str, str] = {
    "scan": "//item",
    "chain": "//item/item",
    "join": "//item//item",
}

#: LiveLink mode benchmarked: deep enough in the permission hierarchy
#: (geometric grant depth) that group subtrees split into granted,
#: partially granted, and denied — so fully-allowed, partial, *and*
#: fully-denied classes all occur.
DEFAULT_MODE = "add_items"


def simulated_user_sets(
    n_users: int, n_groups: int, seed: int = 0
) -> List[Tuple[int, ...]]:
    """``n_users`` subject sets of 1–3 group ids (duplicates expected).

    This is the paper's population model: users hold no direct grants,
    their rights are the union of a few roles — which is exactly why the
    distinct-class count stays in the hundreds while users go to 10^6.
    """
    if n_groups < 3:
        raise ReproError("need at least 3 groups to draw user role sets")
    rng = random.Random(seed)
    groups = range(n_groups)
    return [
        tuple(sorted(rng.sample(groups, k=rng.randint(1, 3))))
        for _ in range(n_users)
    ]


def _build_engine(
    n_items: int,
    n_groups: int,
    n_real_users: int,
    mode: str,
    seed: int,
    use_store: bool,
    page_size: int,
) -> QueryEngine:
    dataset = generate_livelink(
        n_items=n_items, n_groups=n_groups, n_users=n_real_users, seed=seed
    )
    built = DOL.from_matrix(dataset.matrix, mode)
    store = None
    if use_store:
        from repro.storage.nokstore import NoKStore

        store = NoKStore(dataset.doc, built, page_size=page_size)
    return QueryEngine(
        dataset.doc,
        labeling=built,
        store=store,
        plan_cache_size=4096,
        run_cache_size=4096,
        result_cache_size=8192,
    )


def run_class_benchmark(
    user_counts: Sequence[int] = (1_000, 10_000, 100_000),
    n_items: int = 400,
    n_groups: int = 16,
    n_real_users: int = 64,
    queries: Optional[Dict[str, str]] = None,
    query_sample: int = 512,
    mode: str = DEFAULT_MODE,
    use_store: bool = True,
    page_size: int = 2048,
    seed: int = 0,
) -> Dict[str, object]:
    """Measure cache population vs. simulated-user population.

    A fresh engine is built per scale so each entry's cache counts are
    attributable to that scale alone; the ACL configuration (and hence
    the class structure) is identical across scales.
    """
    if not user_counts:
        raise ReproError("benchmark needs at least one user count")
    queries = queries if queries is not None else dict(CLASS_QUERIES)
    user_counts = sorted(user_counts)
    report: Dict[str, object] = {
        "n_items": n_items,
        "n_groups": n_groups,
        "mode": mode,
        "queries": dict(queries),
        "seed": seed,
        "scales": {},
    }
    for n_users in user_counts:
        engine = _build_engine(
            n_items, n_groups, n_real_users, mode, seed, use_store, page_size,
        )
        users = simulated_user_sets(n_users, n_groups, seed=seed + 1)

        started = time.perf_counter()
        classes = [engine.access_class_of(user) for user in users]
        class_seconds = time.perf_counter() - started
        n_classes = len(set(classes))

        sample = users[: min(n_users, query_sample)]
        counters = {
            "static_allow": 0,
            "static_deny": 0,
            "result_cache_hits": 0,
            "denied_zero_read": 0,
            "denied_with_reads": 0,
        }
        n_queries_run = 0
        started = time.perf_counter()
        for user in sample:
            for query in queries.values():
                result = engine.evaluate(
                    query, subject=user, use_result_cache=True
                )
                n_queries_run += 1
                stats = result.stats
                counters["static_allow"] += stats.static_allow
                counters["static_deny"] += stats.static_deny
                counters["result_cache_hits"] += stats.result_cache_hits
                if stats.static_deny:
                    reads = stats.logical_page_reads + stats.physical_page_reads
                    key = "denied_zero_read" if reads == 0 else "denied_with_reads"
                    counters[key] += 1
        query_seconds = time.perf_counter() - started

        directory = engine.class_directory.stats()
        entry: Dict[str, object] = {
            "n_users": n_users,
            "n_classes": n_classes,
            "class_seconds": class_seconds,
            "users_per_sec": n_users / class_seconds if class_seconds else 0.0,
            "queries_run": n_queries_run,
            "query_seconds": query_seconds,
            "queries_per_sec": (
                n_queries_run / query_seconds if query_seconds else 0.0
            ),
            "plan_cache_entries": engine.plan_cache.stats()["entries"],
            "run_cache_entries": engine.run_cache.stats()["size"],
            "result_cache_entries": engine.result_cache.stats()["entries"],
            "class_memo_hits": directory["memo_hits"],
            "class_lookups": directory["lookups"],
            **counters,
        }
        report["scales"][str(n_users)] = entry
        if engine.store is not None:
            engine.store.close()
    biggest = report["scales"][str(user_counts[-1])]
    report["largest"] = {
        "n_users": user_counts[-1],
        "n_classes": biggest["n_classes"],
        "classes_per_10k_users": (
            biggest["n_classes"] * 10_000 / user_counts[-1]
        ),
    }
    return report


def gate_class_report(
    report: Dict[str, object],
    entries_factor: float = 4.0,
    collapse_ratio: float = 0.1,
    min_users: int = 10_000,
) -> List[str]:
    """Machine-independent violations of the class-collapse contract.

    For every scale of at least ``min_users`` simulated users:

    - the class count must have *collapsed*: ``#classes <= users x
      collapse_ratio`` (the whole point of canonicalization);
    - each cache layer's entry count must be bounded by ``#classes x
      #queries x entries_factor`` — i.e. population is a function of
      the class structure, never of the user population;
    - every statically denied evaluation must have answered with zero
      page reads.

    Returns a list of violation strings; empty means the gate passes.
    """
    if entries_factor <= 0:
        raise ReproError("entries_factor must be positive")
    violations: List[str] = []
    n_queries = max(1, len(report.get("queries", {})))
    for label, entry in sorted(
        report.get("scales", {}).items(), key=lambda kv: int(kv[0])
    ):
        n_users = entry["n_users"]
        if n_users < min_users:
            continue
        n_classes = entry["n_classes"]
        if n_classes > n_users * collapse_ratio:
            violations.append(
                f"{label} users: {n_classes} classes exceeds "
                f"{collapse_ratio:.0%} of the population (no collapse)"
            )
        bound = int(n_classes * n_queries * entries_factor)
        for cache in ("plan_cache", "run_cache", "result_cache"):
            entries = entry[f"{cache}_entries"]
            if entries > bound:
                violations.append(
                    f"{label} users: {cache} holds {entries} entries, "
                    f"bound is {bound} ({n_classes} classes x "
                    f"{n_queries} queries x {entries_factor:g})"
                )
        if entry.get("denied_with_reads", 0):
            violations.append(
                f"{label} users: {entry['denied_with_reads']} statically "
                f"denied evaluations touched the store"
            )
    return violations
