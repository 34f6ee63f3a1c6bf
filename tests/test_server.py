"""The serving layer: QueryService semantics and the NDJSON TCP server.

Service tests run without sockets (``handle`` takes protocol dicts
directly); one test binds a real server on an ephemeral port and runs
the full wire round-trip.
"""

import json
import socket
import threading
import time

import pytest

from repro.acl.model import AccessMatrix
from repro.errors import (
    ServiceError,
    ServiceOverloaded,
    ServiceTimeout,
)
from repro.nok.engine import QueryEngine
from repro.server.chaos import ChaosPlan, ChaosSpec
from repro.server import health
from repro.server.health import HealthConfig
from repro.server.netserver import serve
from repro.server.protocol import (
    MAX_REQUEST_BYTES,
    decode_request,
    encode_response,
)
from repro.server.service import QueryService, ServiceConfig


@pytest.fixture
def engine(small_doc):
    masks = [0b11] * len(small_doc)
    masks[5] = 0b01  # second subject loses the second <name> node
    matrix = AccessMatrix.from_masks(masks, 2)
    engine = QueryEngine.build(small_doc, matrix, use_store=True, page_size=128)
    yield engine
    engine.store.close()


@pytest.fixture
def service(engine):
    with QueryService(engine, ServiceConfig(workers=2, queue_depth=2)) as svc:
        yield svc


class TestService:
    def test_query_round_trip(self, service):
        body = service.evaluate("//item/name", subject=0)
        assert body["n_answers"] == 2
        assert body["epoch"] == 0
        # subject 0 is granted everywhere: the class resolves statically
        assert body["stats"]["static_allow"] == 1
        assert body["stats"]["access_class"] is not None
        # subject 1 lost a node, so its class needs runtime checks
        partial = service.evaluate("//item/name", subject=1)
        assert partial["n_answers"] == 1
        assert partial["stats"]["access_checks"] > 0
        assert partial["stats"]["access_class"] != body["stats"]["access_class"]

    def test_update_bumps_epoch_and_changes_answers(self, service, engine):
        before = service.evaluate("//item/name", subject=0)
        body = service.update(
            "subject_range", 0, len(engine.doc), subject=0, value=False
        )
        assert body["epoch"] == 1
        after = service.evaluate("//item/name", subject=0)
        assert before["n_answers"] == 2
        assert after["n_answers"] == 0
        assert after["epoch"] == 1

    def test_unknown_semantics_rejected(self, service):
        with pytest.raises(ServiceError):
            service.evaluate("//item", semantics="nope")

    def test_unknown_update_kind_rejected(self, service):
        with pytest.raises(ServiceError):
            service.update("rename", 0, 1)

    def test_overload_sheds_fast(self, engine):
        svc = QueryService(engine, ServiceConfig(workers=1, queue_depth=0))
        release = threading.Event()
        started = threading.Event()

        def stall():
            started.set()
            release.wait(timeout=10)
            return {}

        blocker = threading.Thread(
            target=lambda: svc._submit(stall, timeout=10)
        )
        blocker.start()
        try:
            assert started.wait(timeout=5)
            with pytest.raises(ServiceOverloaded) as info:
                svc.evaluate("//item")
            assert info.value.limit == 1
            assert svc.metrics()["shed"] == 1
        finally:
            release.set()
            blocker.join()
            svc.close()

    def test_timeout_raises_and_counts(self, engine):
        svc = QueryService(engine, ServiceConfig(workers=1, timeout=0.05))
        release = threading.Event()
        try:
            with pytest.raises(ServiceTimeout):
                svc._submit(lambda: release.wait(timeout=10), timeout=0.05)
            release.set()
            metrics = svc.metrics()
            assert metrics["timeouts"] == 1
            assert metrics["failed"] == 1
        finally:
            release.set()
            svc.close()

    def test_metrics_cover_the_stack(self, service):
        service.evaluate("//item/name", subject=0)
        service.evaluate("//item/name", subject=0)
        metrics = service.metrics()
        assert metrics["completed"] == 2
        assert metrics["inflight"] == 0
        assert metrics["latency_mean"] > 0
        assert metrics["plan_cache"]["hits"] >= 1
        assert "latch_contention" in metrics["buffer"]
        assert metrics["epoch"] == 0

    def test_closed_service_rejects_work(self, engine):
        svc = QueryService(engine)
        svc.close()
        with pytest.raises(ServiceError):
            svc.evaluate("//item")


class TestHandleDispatch:
    def test_ping(self, service):
        assert service.handle({"op": "ping"}) == {"ok": True, "pong": True}

    def test_query_op(self, service):
        response = service.handle(
            {"op": "query", "query": "//item/name", "subject": 1}
        )
        assert response["ok"]
        assert response["n_answers"] == 1  # subject 1 lost one name

    def test_errors_are_in_band(self, service):
        assert service.handle({"op": "query"})["error"] == "BadRequest"
        assert service.handle({"op": "wat"})["error"] == "BadRequest"
        assert service.handle([])["error"] == "BadRequest"
        response = service.handle(
            {"op": "update", "kind": "range_mask", "start": 0, "end": 1}
        )
        assert response["error"] == "ServiceError"
        # every in-band error advertises its retry class
        assert response["retriable"] is False

    def test_metrics_op(self, service):
        response = service.handle({"op": "metrics"})
        assert response["ok"] and "requests" in response["metrics"]

    def test_health_op(self, service):
        response = service.handle({"op": "health"})
        assert response["ok"]
        assert response["health"]["state"] == "healthy"
        assert response["health"]["breaker"]["state"] == "closed"


class TestQueueWaitDeadline:
    def test_deadline_burned_in_queue_never_runs(self, engine):
        """A request that spends its whole deadline waiting for a worker
        raises ServiceTimeout without executing, and the wait shows up
        in metrics."""
        svc = QueryService(engine, ServiceConfig(workers=1, queue_depth=2))
        release = threading.Event()
        started = threading.Event()
        ran = threading.Event()

        def stall():
            started.set()
            release.wait(timeout=10)
            return {}

        blocker = threading.Thread(target=lambda: svc._submit(stall, timeout=10))
        blocker.start()
        try:
            assert started.wait(timeout=5)
            with pytest.raises(ServiceTimeout):
                svc._submit(lambda: ran.set() or {}, timeout=0.15)
        finally:
            release.set()
            blocker.join()
        # let the pool drain the queued entry: it must decline to run it
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if svc.metrics()["timeouts_in_queue"] == 1:
                break
            time.sleep(0.01)
        metrics = svc.metrics()
        svc.close()
        assert not ran.is_set()
        assert metrics["timeouts_in_queue"] == 1
        assert metrics["timeouts"] == 1
        assert metrics["queue_wait_max"] >= 0.15

    def test_fast_path_records_negligible_queue_wait(self, service):
        service.evaluate("//item/name", subject=0)
        metrics = service.metrics()
        assert metrics["queue_wait_mean"] < 1.0
        assert metrics["timeouts_in_queue"] == 0


class TestResilientServing:
    def _service(self, engine, **health_kwargs):
        config = HealthConfig(**health_kwargs)
        # cache opt-ins shed: every evaluation must actually read pages,
        # so quarantine effects are visible to each request
        chaos = ChaosPlan(ChaosSpec(seed=0, disable_caches=True))
        svc = QueryService(
            engine, ServiceConfig(workers=1), chaos=chaos,
            health_config=config,
        )
        return svc

    def test_degraded_answer_on_quarantined_pages(self, engine):
        svc = self._service(engine, corruption_trip=10, probe_interval_s=60.0)
        # rate-limit the closed-state reverify so the quarantine sticks
        svc._last_quarantine_probe = time.monotonic()
        try:
            full = svc.evaluate("//item/name", subject=0)
            assert full["degraded"] is False
            engine.store.quarantined.update(range(1024))
            body = svc.evaluate("//item/name", subject=0)
            assert body["degraded"] is True
            # degraded answers are subsets of the accessible nodes
            assert set(body["positions"]) <= set(full["positions"])
            assert svc.health_report()["state"] == "degraded"
            assert svc.metrics()["degraded_served"] == 1
        finally:
            engine.store.clear_quarantine()
            svc.close()

    def test_breaker_trips_then_probe_heals(self, engine, monkeypatch):
        # the breaker reads its clock through health.monotonic: drive it
        # by hand, so "inside" and "past" the probe interval are exact
        clock = [1000.0]
        monkeypatch.setattr(health, "monotonic", lambda: clock[0])
        svc = self._service(engine, corruption_trip=1, probe_interval_s=0.05)
        # the closed-state reverify runs on the service's own clock; hold
        # it off for good so only the breaker decides when to probe
        svc._last_quarantine_probe = float("inf")
        try:
            engine.store.quarantined.update(range(1024))
            first = svc.evaluate("//item/name", subject=0)
            assert first["degraded"] is True
            assert svc.health.breaker.state == "open"
            # still inside the probe interval: served degraded, no probe
            second = svc.evaluate("//item/name", subject=0)
            assert second["degraded"] is True
            # past the interval the next request probes: the quarantine
            # was transient (the disk is actually fine), so it heals
            clock[0] += 0.06
            third = svc.evaluate("//item/name", subject=0)
            assert third["degraded"] is False
            assert svc.health.breaker.state == "closed"
            assert svc.health_report()["state"] == "healthy"
            assert len(engine.store.quarantined) == 0
        finally:
            svc.close()


class TestServiceStreaming:
    def test_stream_frames_and_metrics(self, service):
        frames = list(
            service.stream("//item/name", subject=0, ordered=True)
        )
        assert [f["frame"] for f in frames] == \
            ["begin", "fragment", "fragment", "end"]
        assert frames[-1]["n_fragments"] == 2
        streams = service.metrics()["streams"]
        assert streams["started"] == streams["completed"] == 1
        assert streams["fragments"] == 2
        assert 0 < streams["ttff_mean"] <= streams["ttff_max"]

    def test_handle_stream_requires_a_query_op(self, service):
        with pytest.raises(ServiceError):
            service.handle_stream({"op": "metrics"})
        with pytest.raises(ServiceError):
            service.handle_stream([])

    def test_eager_validation_raises_before_iteration(self, service):
        with pytest.raises(ServiceError):
            service.stream("//item", subject=0, semantics="nope")
        with pytest.raises(ServiceError):
            service.stream("//item")  # no subject
        # nothing was admitted
        assert service.metrics()["streams"]["started"] == 0

    def test_abandoned_stream_is_counted_separately(self, service):
        frames = service.stream("//item", subject=0)
        assert next(frames)["frame"] == "begin"
        frames.close()
        streams = service.metrics()["streams"]
        assert streams["abandoned"] == 1
        assert streams["failed"] == 0
        assert service.metrics()["inflight"] == 0
        # abandonment is not a service failure: health stays clean
        assert service.health_report()["state"] == "healthy"

    def test_streams_share_the_admission_limit(self, engine):
        svc = QueryService(engine, ServiceConfig(workers=1, queue_depth=0))
        first = svc.stream("//item/name", subject=0)
        try:
            next(first)  # occupies the only slot
            second = svc.stream("//item/name", subject=0)
            with pytest.raises(ServiceOverloaded):
                next(second)
            assert svc.metrics()["shed"] == 1
        finally:
            first.close()
            svc.close()

    def test_zero_deadline_times_out_in_queue(self, service):
        frames = service.stream("//item/name", subject=0, timeout=0.0)
        with pytest.raises(ServiceTimeout):
            next(frames)
        metrics = service.metrics()
        assert metrics["timeouts_in_queue"] == 1
        assert metrics["streams"]["failed"] == 1


class TestDeterministicShutdown:
    def test_server_context_manager_closes_service_and_store(
        self, engine, monkeypatch
    ):
        closed = []
        store_close = engine.store.close
        monkeypatch.setattr(
            engine.store, "close",
            lambda: (closed.append(True), store_close())[1],
        )
        service = QueryService(engine, ServiceConfig(workers=1))
        with serve(service, host="127.0.0.1", port=0, background=True) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=5) as conn:
                conn.sendall(encode_response({"op": "ping"}))
                assert json.loads(conn.makefile("rb").readline())["pong"]
        # the exit closed the whole chain: service rejects further work,
        # and the store got its clean shutdown
        with pytest.raises(ServiceError):
            service.evaluate("//item", subject=0)
        assert closed

    def test_close_all_is_idempotent(self, engine):
        service = QueryService(engine, ServiceConfig(workers=1))
        server = serve(service, host="127.0.0.1", port=0, background=True)
        server.close_all()
        server.close_all()  # every link tolerates a second call


class TestProtocol:
    def test_decode_rejects_non_objects(self):
        with pytest.raises(ServiceError):
            decode_request("[1, 2]")
        with pytest.raises(ServiceError):
            decode_request("not json")
        with pytest.raises(ServiceError):
            decode_request(b"\xff\xfe")

    def test_encode_round_trip(self):
        line = encode_response({"ok": True, "positions": [1, 2]})
        assert line.endswith(b"\n")
        assert json.loads(line) == {"ok": True, "positions": [1, 2]}


class TestWireServer:
    def test_tcp_round_trip(self, service):
        server = serve(service, host="127.0.0.1", port=0, background=True)
        host, port = server.address
        try:
            with socket.create_connection((host, port), timeout=5) as conn:
                reader = conn.makefile("rb")
                for request, check in [
                    ({"op": "ping"}, lambda r: r["pong"]),
                    (
                        {"op": "query", "query": "//item/name", "subject": 0},
                        lambda r: r["n_answers"] == 2,
                    ),
                    (
                        {
                            "op": "update",
                            "kind": "subject_range",
                            "start": 0,
                            "end": 7,
                            "subject": 0,
                            "value": False,
                        },
                        lambda r: r["epoch"] == 1,
                    ),
                    (
                        {"op": "query", "query": "//item/name", "subject": 0},
                        lambda r: r["n_answers"] == 0,
                    ),
                    ({"op": "metrics"}, lambda r: r["metrics"]["epoch"] == 1),
                ]:
                    conn.sendall(encode_response(request))
                    response = json.loads(reader.readline())
                    assert response["ok"], response
                    assert check(response)
                # malformed line: answered in-band, connection survives
                conn.sendall(b"this is not json\n")
                response = json.loads(reader.readline())
                assert response["ok"] is False
                conn.sendall(encode_response({"op": "ping"}))
                assert json.loads(reader.readline())["pong"]
        finally:
            server.shutdown()
            server.server_close()

    def test_oversized_frame_answered_in_band(self, service):
        server = serve(service, host="127.0.0.1", port=0, background=True)
        host, port = server.address
        try:
            with socket.create_connection((host, port), timeout=10) as conn:
                reader = conn.makefile("rb")
                huge = (
                    b'{"op":"query","query":"'
                    + b"a" * MAX_REQUEST_BYTES
                    + b'"}\n'
                )
                conn.sendall(huge)
                response = json.loads(reader.readline())
                assert response["ok"] is False
                assert response["error"] == "BadRequest"
                assert "exceeds" in response["message"]
                # the connection survives the abuse
                conn.sendall(encode_response({"op": "ping"}))
                assert json.loads(reader.readline())["pong"]
        finally:
            server.shutdown()
            server.server_close()
