"""The traced run: per-layer metrics of one workload.

The program runs in this process (for serve-* behind a real TCP server on a
background thread) so that :class:`tracer.Tracer` can shadow the callables
at each layer boundary. The run has two halves over the same sequence:
first with no wrapper installed, then — with a fresh engine, so every cache
above the store starts empty again — fully wrapped. Their throughput ratio
is the tracing overhead; every per-layer number comes from the second half.

End-to-end metrics never come from here (``measure.run_untraced``).
"""

from __future__ import annotations

import asyncio
import itertools
import os
import shutil
import statistics
from time import perf_counter, perf_counter_ns
from typing import Any, Dict, List, Optional, Sequence

from repro.nok.engine import QueryEngine
from repro.server.aclient import AsyncResilientClient
from repro.server.aserver import serve_async
from repro.server.protocol import encode_response
from repro.storage.nokstore import NoKStore
from repro.storage.persist import fsck_store

import checks
import datagen
import loadgen
import measure
from tracer import Frame, Tracer
from worker import (
    checkpoint, direct_updates, make_service, open_workload_store, settle,
    twig_repetition, warm_up,
)
from workloads import SERVE_CONNECTIONS, Sizes, Workload

OPERATORS = (
    "TagIndexScan", "PageSkipScan", "RootVerify", "AccessFilter",
    "NPMMatch", "STDJoin", "PathCheck", "Project",
)
JOINS = ("Q4", "Q5", "Q6")


class Observed:
    """Counters the wrappers collect next to the spans."""

    def __init__(self) -> None:
        self.eval_stats: Dict[Any, object] = {}     # rid -> EvalStats
        self.answers: Dict[Any, int] = {}           # rid -> answers returned
        self.state = {"window": False}              # are requests numbered yet
        self.op_self_s: Dict[str, float] = dict.fromkeys(OPERATORS, 0.0)
        self.plans_run = 0
        self.update_costs: List[object] = []


def install(tracer: Tracer, seen: Observed, store: NoKStore, engine: QueryEngine, service=None) -> None:
    """Shadow the public callables at every layer boundary."""
    # -- exec --------------------------------------------------------------
    rids = itertools.count()
    state = seen.state

    def next_rid(*_args, **_kwargs):
        # in-process requests are numbered as they arrive; over the wire
        # the number travels in the request (see ``handle`` below)
        frame = tracer.current()
        if frame is not None or not state["window"]:
            return None
        return next(rids)

    def keep_stats(result, frame: Frame) -> None:
        if frame.rid is not None:
            seen.eval_stats[frame.rid] = result.stats
            seen.answers[frame.rid] = len(result.positions)

    def wrap_plan(plan, _frame: Frame) -> None:
        run = plan.run

        def traced_run():
            frame = tracer.push()
            start = perf_counter_ns()
            try:
                return run()
            finally:
                tracer.pop(frame, "exec.run", start, perf_counter_ns())
                if frame.rid is not None:
                    seen.plans_run += 1
                    for op in plan.operators():
                        if op.name in seen.op_self_s:
                            below = sum(child.stats.time for child in op.children)
                            seen.op_self_s[op.name] += op.stats.time - below

        plan.run = traced_run

    tracer.wrap(engine, "evaluate", "exec.evaluate", rid_of=next_rid, after=keep_stats)
    tracer.wrap(engine, "compile", "exec.plan", after=wrap_plan)

    # -- labeling ----------------------------------------------------------
    directory = engine.class_directory
    class_of = directory.class_of

    def traced_class_of(*args, **kwargs):
        if not tracer.enabled:
            return class_of(*args, **kwargs)
        memo_hits = directory.stats()["memo_hits"]
        frame = tracer.push()
        start = perf_counter_ns()
        try:
            return class_of(*args, **kwargs)
        finally:
            fresh = directory.stats()["memo_hits"] == memo_hits
            tracer.pop(
                frame, "labeling.class_of.fresh" if fresh else "labeling.class_of.memo",
                start, perf_counter_ns(),
            )

    tracer.install(directory, "class_of", traced_class_of)

    run_cache = engine.run_cache
    get_or_build = run_cache.get_or_build

    def traced_get_or_build(key, build):
        if not tracer.enabled:
            return get_or_build(key, build)

        def traced_build():
            frame = tracer.push()
            start = perf_counter_ns()
            try:
                return build()
            finally:
                tracer.pop(frame, "labeling.runs_decode", start, perf_counter_ns())

        return get_or_build(key, traced_build)

    tracer.install(run_cache, "get_or_build", traced_get_or_build)

    # -- storage -----------------------------------------------------------
    # page_columns() and entry() of the store *and* of every snapshot all
    # funnel through NoKStore._page; the public page_columns is never
    # called on a snapshot-bound read, so the funnel is what gets wrapped
    page = store._page

    def traced_page(page_id):
        if not tracer.enabled:
            return page(page_id)
        frame = tracer.push()
        start = perf_counter_ns()
        try:
            return page(page_id)
        finally:
            end = perf_counter_ns()
            # a miss goes on to buffer.view and the decoder, both wrapped
            hit = frame.child_ns == 0
            tracer.pop(
                frame, "storage.nokstore.page.hit" if hit else "storage.nokstore.page.miss",
                start, end, leaf=True,
            )

    tracer.install(store, "_page", traced_page)
    tracer.wrap(store, "snapshot", "storage.snapshot.acquire", leaf=True)
    # decoded_cache.get is deliberately left alone: it runs once per page
    # lookup (~10^4 per Q1), a second wrapper there doubles the overhead,
    # and its outcome is already in PageCacheStats and in hit/miss above
    tracer.wrap(store.buffer, "view", "storage.buffer.view", leaf=True)
    tracer.wrap(store.pager, "read_page_view", "storage.pager.read", leaf=True)
    tracer.wrap(store.pager.device, "read", "storage.device.read", leaf=True)
    tracer.wrap(store.page_format, "decode_page_columns", "storage.codecs.decode", leaf=True)
    tracer.wrap(
        store, "update_subject_range", "storage.update",
        after=lambda cost, _frame: seen.update_costs.append(cost),
    )

    # -- server ------------------------------------------------------------
    if service is None:
        return
    tracer.wrap(
        service, "handle", "server.handle",
        rid_of=lambda request: request.get("trace") if isinstance(request, dict) else None,
    )
    tracer.wrap(service, "evaluate", "server.evaluate")
    tracer.wrap(service, "update", "server.update")
    pool = service.executor
    submit = pool.submit

    def traced_submit(fn, *args, **kwargs):
        # carry the request across the pool hop: the worker thread's spans
        # hang under the span that submitted the work
        parent = tracer.current()
        if not tracer.enabled or parent is None:
            return submit(fn, *args, **kwargs)
        queued = perf_counter_ns()

        def run(*a, **k):
            start = perf_counter_ns()
            tracer.record("server.queue_wait", queued, start, parent.rid, parent)
            frame = tracer.push(parent.rid, parent)
            try:
                return fn(*a, **k)
            finally:
                tracer.pop(frame, "server.pool_run", start, perf_counter_ns())

        return submit(run, *args, **kwargs)

    tracer.install(pool, "submit", traced_submit)


# -- the two halves ------------------------------------------------------------


class _Half:
    """What one half of the run leaves behind."""

    def __init__(self) -> None:
        self.ops = 0
        self.wall = 0.0
        self.failed = 0
        self.attempted = 0
        self.rtt_ns: Dict[int, int] = {}       # serve: client round trip per rid
        self.reply_bytes: List[int] = []
        self.ttff_s: List[float] = []
        self.service_metrics: Dict[str, object] = {}
        self.classes = 0                       # access classes after warm-up
        self.cache_stats: Dict[str, Dict[str, float]] = {}


def _twig_half(engine, store, seen: Optional[Observed], checker, workload, ops, seconds) -> _Half:
    half = _Half()
    warm = datagen.warmup_reads(workload)
    half.failed = checker.saw_warmup(warm, warm_up(engine, warm))
    settle()
    half.classes = engine.class_directory.stats()["classes"]
    before = _cache_counters(engine, store)
    if seen is not None:
        seen.state["window"] = True
    while not half.ops or half.wall < seconds:
        result = twig_repetition(engine, ops)
        half.ops += len(ops)
        half.wall += result["wall"]
        half.failed += checker.wrong_digests(ops, result["digests"])
    if seen is not None:
        seen.state["window"] = False
    half.cache_stats = _cache_deltas(before, _cache_counters(engine, store))
    half.attempted = len(warm) + half.ops
    return half


async def _serve_half(
    service, engine, store, tracer: Optional[Tracer], checker, workload, sizes,
    ops, seconds,
) -> _Half:
    half = _Half()
    serving = serve_async(service)
    try:
        address = serving.address

        def judge(records) -> None:
            half.attempted += len(records)
            half.failed += checks.judge_records(checker, records)

        judge(await loadgen.sequential(address, datagen.warmup_reads(workload)))
        settle()
        half.classes = engine.class_directory.stats()["classes"]
        before = _cache_counters(engine, store)
        base = 0  # request ids number the ops of all repetitions in a row

        def on_reply(record) -> None:
            index, op, sent, latency, reply = record
            start = int(sent * 1e9)
            end = start + int(latency * 1e9)
            tracer.record("client.request", start, end, base + index)
            if op[0] != "update" and reply is not None:
                half.rtt_ns[base + index] = end - start
                half.reply_bytes.append(len(encode_response(reply)))

        while not half.ops or half.wall < seconds:
            wall, records = await loadgen.repetition(
                address, ops, SERVE_CONNECTIONS,
                tag=(lambda index: {"trace": base + index}) if tracer else None,
                on_reply=on_reply if tracer else None,
            )
            judge(records)
            half.ops += len(ops)
            half.wall += wall
            base += len(ops)
        half.cache_stats = _cache_deltas(before, _cache_counters(engine, store))
        if tracer is not None:
            half.ttff_s = await _stream_ttff(address, ops, sizes.ttff_streams)
        half.service_metrics = service.metrics()
    finally:
        serving.shutdown()
        service.close()
    return half


async def _stream_ttff(address, ops, count: int) -> List[float]:
    """Time to the first fragment of a streamed Q6, ``count`` times."""
    host, port = address
    subjects = next(op[2] for op in ops if op[0] != "update")
    times: List[float] = []
    client = AsyncResilientClient(host, port)
    try:
        for _ in range(count):
            sent = perf_counter()
            first = None
            async for frame in client.stream(
                datagen.query_text("Q6"), subject=list(subjects)
            ):
                if first is None and frame.get("frame") == "fragment":
                    first = perf_counter() - sent
            if first is not None:
                times.append(first)
    finally:
        await client.aclose()
    return times


def _cache_counters(engine: QueryEngine, store: NoKStore) -> Dict[str, Dict[str, float]]:
    return {
        "plan": engine.plan_cache.stats(),
        "run": engine.run_cache.stats(),
        "result": engine.result_cache.stats(),
        "pagecache": store.decoded_cache.stats.snapshot(),
        "buffer": store.buffer.stats.snapshot(),
    }


def _cache_deltas(before, after) -> Dict[str, Dict[str, float]]:
    return {
        cache: {
            key: after[cache][key] - before[cache][key]
            for key in ("hits", "misses", "evictions")
            if key in after[cache]
        }
        for cache in after
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _hit_ratio(delta: Dict[str, float]) -> float:
    return _ratio(delta["hits"], delta["hits"] + delta["misses"])


def _median_ms(ns: Sequence[int]) -> float:
    return statistics.median(ns) / 1e6 if ns else 0.0


# -- the run -------------------------------------------------------------------


def run_traced(
    workload: Workload, sizes: Sizes, seed: int, seconds: float, root: str
) -> Dict[str, object]:
    scratch = measure.scratch_dir(root)
    try:
        return _run_traced(workload, sizes, seed, seconds, root, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run_traced(workload, sizes, seed, seconds, root, scratch) -> Dict[str, object]:
    directory = os.path.join(scratch, "setup")
    os.mkdir(directory)
    inputs = measure.set_up(sizes.n_items, directory)
    problems: List[str] = list(fsck_store(inputs.path))
    ranges = datagen.update_ranges(inputs.doc, inputs.matrix, seed, sizes.update_ranges)
    ops = datagen.op_sequence(workload, seed, workload.blocks(sizes), ranges)
    checker = checks.ReplyChecker(
        inputs.matrix, measure.expected_answers(inputs, workload)
    )
    labeling = inputs.store.labeling
    label_facts = {
        "transitions": labeling.n_transitions,
        "codebook_entries": len(labeling.codebook),
        "label_bytes_per_node": labeling.size_bytes() / len(inputs.doc),
    }
    inputs.store.close()

    store = open_workload_store(
        inputs.path, workload.buffer_capacity, workload.decoded_cache_bytes
    )
    tracer = Tracer()
    seen = Observed()
    half_s = seconds / 2
    try:
        if workload.kind == "twig":
            plain = _twig_half(
                QueryEngine(store.doc, store=store), store, None, checker,
                workload, ops, half_s,
            )
            engine = QueryEngine(store.doc, store=store)
            install(tracer, seen, store, engine)
            tracer.enabled = True
            traced = _twig_half(engine, store, seen, checker, workload, ops, half_s)
        else:
            engine = QueryEngine(store.doc, store=store)
            plain = asyncio.run(_serve_half(
                make_service(engine), engine, store, None, checker, workload, sizes,
                ops, half_s,
            ))
            engine = QueryEngine(store.doc, store=store)
            service = make_service(engine)
            install(tracer, seen, store, engine, service)
            tracer.enabled = True
            traced = asyncio.run(_serve_half(
                service, engine, store, tracer, checker, workload, sizes, ops, half_s,
            ))
        probe = direct_updates(store, datagen.update_pairs(ranges, sizes.update_probe))
        checkpoint(store)
    finally:
        tracer.enabled = False
        tracer.uninstall()
        store.close()
    failed = plain.failed + traced.failed + checker.finish()
    problems += checker.problems
    problems += fsck_store(store.pager.path)

    trace_path = os.path.join(root, "perf", "results", f"trace-{workload.name}.jsonl")
    tracer.dump(trace_path)
    metrics = _derive(
        workload, tracer, seen, plain, traced, probe, ops, inputs.phases, label_facts,
    )
    return {
        "workload": workload.name,
        "seed": seed,
        "attempted": plain.attempted + traced.attempted + len(probe["latencies"]),
        "failed": failed,
        "correct": not problems and failed == 0,
        "problems": problems[:20],
        "metrics": metrics,
        "trace_file": os.path.relpath(trace_path, root),
        "traced_ops": traced.ops,
    }


def _derive(
    workload, tracer: Tracer, seen: Observed, plain: _Half, traced: _Half, probe,
    ops, phases, label_facts,
) -> Dict[str, Dict[str, object]]:
    out: Dict[str, Dict[str, object]] = {}

    def put(name: str, value: float, unit: str, samples: int = 1) -> None:
        out[name] = {"value": value, "unit": unit, "samples": samples}

    def window_only(per_request: Dict[Any, int]) -> Dict[Any, int]:
        return {rid: ns for rid, ns in per_request.items() if rid is not None}

    def per_call(name: str, own: bool = False) -> None:
        calls, total, self_ns = tracer.leaf_totals(leaf_of[name])
        put(name, _ratio(self_ns if own else total, calls) / 1e3, "us", calls)

    # -- server --------------------------------------------------------------
    handle = window_only(tracer.by_request("server.handle"))
    service_eval = window_only(tracer.by_request("server.evaluate"))
    engine_eval = window_only(tracer.by_request("exec.evaluate"))
    wire = [rtt - handle[rid] for rid, rtt in traced.rtt_ns.items() if rid in handle]
    overhead = [
        ns - engine_eval[rid] for rid, ns in service_eval.items() if rid in engine_eval
    ]
    put("server.wire_ms_p50", _median_ms(wire), "ms", len(wire))
    put("server.service_overhead_ms_p50", _median_ms(overhead), "ms", len(overhead))
    put(
        "server.reply_bytes_mean",
        statistics.fmean(traced.reply_bytes) if traced.reply_bytes else 0.0,
        "B", len(traced.reply_bytes),
    )
    served = traced.service_metrics
    put("server.queue_wait_ms_mean", 1e3 * served.get("queue_wait_mean", 0.0), "ms",
        served.get("requests", 0))
    put("server.shed", served.get("shed", 0), "count")
    put("server.timeouts", served.get("timeouts", 0), "count")
    put(
        "server.stream_ttff_ms_p50",
        1e3 * statistics.median(traced.ttff_s) if traced.ttff_s else 0.0,
        "ms", len(traced.ttff_s),
    )

    # -- exec ----------------------------------------------------------------
    caches = traced.cache_stats
    for cache in ("result", "plan", "run"):
        delta = caches[cache]
        put(f"exec.{cache}_cache_hit_ratio", _hit_ratio(delta), "ratio",
            int(delta["hits"] + delta["misses"]))
    spans = list(tracer.spans())

    def window_durations(name: str) -> List[int]:
        return [e - s for _i, _p, rid, n, s, e, _o in spans if n == name and rid is not None]

    plan_ns, run_ns = window_durations("exec.plan"), window_durations("exec.run")
    put("exec.plan_ms_p50", _median_ms(plan_ns), "ms", len(plan_ns))
    put("exec.run_ms_p50", _median_ms(run_ns), "ms", len(run_ns))
    for op_name in OPERATORS:
        put(f"exec.op_self_ms.{op_name}",
            1e3 * _ratio(seen.op_self_s[op_name], seen.plans_run), "ms", seen.plans_run)
    # counts come from the first traced repetition alone: a fixed set of
    # requests, so with one client they repeat exactly from run to run
    first_rep = [rid for rid in seen.eval_stats if rid < len(ops)]
    stats = [seen.eval_stats[rid] for rid in first_rep]
    n_queries = len(stats)
    answers = sum(seen.answers[rid] for rid in first_rep)
    total = lambda field: sum(getattr(s, field) for s in stats)  # noqa: E731
    put("exec.candidates_per_answer", _ratio(total("candidates"), answers), "count", n_queries)
    put("exec.access_checks_per_answer", _ratio(total("access_checks"), answers), "count",
        n_queries)

    # -- labeling ------------------------------------------------------------
    decode_ns = tracer.durations("labeling.runs_decode")
    fresh_ns = tracer.durations("labeling.class_of.fresh")
    put("labeling.runs_decode_ms_p50", _median_ms(decode_ns), "ms", len(decode_ns))
    put("labeling.class_of_ms_p50", _median_ms(fresh_ns), "ms", len(fresh_ns))
    put("labeling.classes", traced.classes, "count")
    put("dol.transitions", label_facts["transitions"], "count")
    put("dol.codebook_entries", label_facts["codebook_entries"], "count")
    put("dol.label_bytes_per_node", label_facts["label_bytes_per_node"], "B")
    for phase, took in phases.items():
        put(phase, took, "s")

    # -- storage -------------------------------------------------------------
    leaf_of = {
        "storage.nokstore.page_columns_us_hit": "storage.nokstore.page.hit",
        "storage.nokstore.page_columns_us_miss": "storage.nokstore.page.miss",
        "storage.buffer.view_self_us": "storage.buffer.view",
        "storage.pager.read_self_us": "storage.pager.read",
        "storage.device.read_us": "storage.device.read",
        "storage.codecs.decode_us_per_page": "storage.codecs.decode",
        "storage.snapshot.acquire_us": "storage.snapshot.acquire",
    }
    per_call("storage.nokstore.page_columns_us_hit")
    per_call("storage.nokstore.page_columns_us_miss")
    pagecache, buffer = caches["pagecache"], caches["buffer"]
    put("storage.pagecache.hit_ratio", _hit_ratio(pagecache), "ratio",
        int(pagecache["hits"] + pagecache["misses"]))
    joins = [
        seen.eval_stats[rid] for rid in first_rep
        if ops[rid][0] in JOINS and not seen.eval_stats[rid].result_cache_hits
    ]
    put(
        "storage.pagecache.join_hit_ratio",
        _ratio(sum(s.decoded_cache_hits for s in joins),
               sum(s.logical_page_reads for s in joins)),
        "ratio", len(joins),
    )
    put("storage.buffer.hit_ratio", _hit_ratio(buffer), "ratio",
        int(buffer["hits"] + buffer["misses"]))
    put("storage.buffer.evictions", buffer["evictions"], "count")
    per_call("storage.buffer.view_self_us", own=True)
    per_call("storage.pager.read_self_us", own=True)
    per_call("storage.device.read_us")
    per_call("storage.codecs.decode_us_per_page")
    put("storage.pages_decoded_per_answer",
        _ratio(total("pages_decoded_columnar"), answers), "count", n_queries)
    put("storage.logical_reads_per_answer",
        _ratio(total("logical_page_reads"), answers), "count", n_queries)
    put("storage.physical_reads_per_query",
        _ratio(total("physical_page_reads"), n_queries), "count", n_queries)
    update_ns = tracer.durations("storage.update")
    costs = seen.update_costs
    put("storage.update_ms_p50", _median_ms(update_ns), "ms", len(update_ns))
    put("storage.pages_rewritten_per_update",
        _ratio(sum(c.pages_rewritten for c in costs), len(costs)), "count", len(costs))
    put("dol.update_transition_delta_max",
        max((c.transition_delta for c in costs), default=0), "count", len(costs))
    put("storage.wal.bytes_per_update",
        _ratio(probe["wal_bytes"], len(probe["latencies"])), "B", len(probe["latencies"]))
    per_call("storage.snapshot.acquire_us")

    # -- the attribution itself ----------------------------------------------
    if workload.kind == "twig":
        roots = [(e - s, own) for _i, _p, rid, n, s, e, own in spans
                 if n == "exec.evaluate" and rid is not None]
        unattributed = _ratio(sum(own for _d, own in roots), sum(d for d, _o in roots))
    else:
        unattributed = _ratio(sum(wire), sum(traced.rtt_ns[rid] for rid in traced.rtt_ns
                                             if rid in handle))
    put("trace.unattributed_share", unattributed, "ratio", traced.ops)
    put("trace.overhead_ratio",
        _ratio(_ratio(plain.ops, plain.wall), _ratio(traced.ops, traced.wall)),
        "ratio", plain.ops + traced.ops)
    return out
