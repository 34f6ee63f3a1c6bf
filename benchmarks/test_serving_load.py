"""Serving load benchmark — emits ``BENCH_serving.json``.

Runs the open-loop load generator against *both* servers (threaded
NDJSON v1 and asyncio v2) over one engine, applies the
machine-independent ratio gates, and separately verifies the async
server's headline capacity claim: ≥1000 concurrent connections with
bounded resident memory.

Scale knobs: ``REPRO_BENCH_SCALE`` multiplies the request counts;
``REPRO_BENCH_SERVING_OUT`` overrides the report path.
"""

from __future__ import annotations

import json
import os
import socket

import pytest

from repro.acl.surrogates import generate_livelink
from repro.bench.loadgen import (
    gate_serving_report,
    run_serving_benchmark,
)
from repro.dol.labeling import DOL
from repro.nok.engine import QueryEngine
from repro.server.aserver import serve_async
from repro.server.netserver import serve
from repro.server.protocol import encode_response
from repro.server.service import QueryService, ServiceConfig
from repro.storage.nokstore import NoKStore

N_GROUPS = 12


@pytest.fixture(scope="module")
def serving_engine():
    dataset = generate_livelink(
        n_items=300, n_groups=N_GROUPS, n_users=0, seed=7
    )
    built = DOL.from_matrix(dataset.matrix, "add_items")
    store = NoKStore(dataset.doc, built, page_size=4096)
    engine = QueryEngine(dataset.doc, labeling=built, store=store)
    yield engine
    store.close()


def rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def test_serving_load_both_servers(serving_engine, bench_scale, tmp_path):
    config = ServiceConfig(workers=4, queue_depth=16)
    v1_service = QueryService(serving_engine, config)
    v2_service = QueryService(serving_engine, config)
    v1_server = serve(v1_service, host="127.0.0.1", port=0, background=True)
    v2_server = serve_async(v2_service, host="127.0.0.1", port=0)
    try:
        report = run_serving_benchmark(
            v1_server.address,
            v2_server.address,
            n_users=2000,
            n_groups=N_GROUPS,
            connections=(8, 64),
            requests=60 * bench_scale,
            arrival_rate_hz=400.0,
            seed=0,
        )
    finally:
        v2_server.shutdown()
        v1_server.shutdown()
        v1_server.server_close()
        v2_service.close()
        v1_service.close()

    # every profile is stamped with its measurement identity
    assert len(report["profiles"]) == 6
    for entry in report["profiles"]:
        assert entry["protocol"] in (1, 2)
        assert entry["connections"] in (8, 64)
        assert entry["arrival_rate_hz"] == 400.0
        assert entry["completed"] > 0
        assert entry["latency"]["n"] == entry["completed"]
    streamed = [e for e in report["profiles"] if e["stream"]]
    assert streamed and all("ttff" in e for e in streamed)

    problems = gate_serving_report(report)
    assert problems == [], problems

    out = os.environ.get(
        "REPRO_BENCH_SERVING_OUT", str(tmp_path / "BENCH_serving.json")
    )
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)


def test_thousand_connections_bounded_rss(serving_engine):
    service = QueryService(serving_engine, ServiceConfig(workers=4, queue_depth=16))
    server = serve_async(service, host="127.0.0.1", port=0)
    conns = []
    try:
        before = rss_mb()
        for _ in range(1000):
            sock = socket.create_connection(server.address, timeout=10)
            conns.append(sock)
        # every connection is live: each one answers a request
        for i, sock in enumerate(conns):
            sock.sendall(encode_response(
                {"op": "ping"} if i % 4 else
                {"op": "query", "query": "//item/name", "subject": i % N_GROUPS}
            ))
        # every connection stays live and gets a structured answer; a
        # burst of 1000 simultaneous requests against a 20-slot
        # admission limit MUST shed most of them — in-band, typed, and
        # without dropping anyone
        answered = ok = shed = 0
        for sock in conns:
            reader = sock.makefile("rb")
            response = json.loads(reader.readline())
            answered += 1
            if response["ok"]:
                ok += 1
            else:
                assert response["error"] == "ServiceOverloaded", response
                shed += 1
        assert answered == 1000
        assert ok > 0
        grown = rss_mb() - before
        assert server.server.connections_peak >= 1000
        # bounded memory: ~1k idle-ish connections must not cost more
        # than ~100KB each (buffers allocate on demand, not at the cap)
        assert grown < 128.0, f"RSS grew {grown:.1f} MB for 1000 connections"
    finally:
        for sock in conns:
            try:
                sock.close()
            except OSError:
                pass
        server.shutdown()
        service.close()
