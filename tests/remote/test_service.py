"""The multi-tenant asyncio service: parity, coalescing, shedding,
breaker, authenticated shutdown, lifecycle.

The service's replies must be byte-identical to the protocol codecs
applied to a local extraction (HYBRID_FRAME, FRAME_LIST), while the
multi-tenant machinery -- shared coalescing cache, admission control,
bounded queues with BUSY shedding, per-frame circuit breaker, and a
token-authenticated SHUTDOWN -- stays invisible to well-behaved
clients.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro.core.dataset import as_dataset
from repro.core.errors import RemoteError, RetryExhaustedError, ServiceBusyError
from repro.core.faults import FaultPlan
from repro.core.trace import capture
from repro.octree.extraction import extract
from repro.octree.partition import partition
from repro.remote import protocol
from repro.remote.client import VisualizationClient
from repro.remote.protocol import Message, MessageType
from repro.remote.service import CircuitBreaker, ResultCache, VisualizationService

CLIENT_KW = dict(timeout=2.0, retries=20, backoff=0.001, backoff_max=0.02)


@pytest.fixture(scope="module")
def frames():
    rng = np.random.default_rng(12)
    out = []
    for step in (0, 10):
        p = np.vstack(
            [rng.normal(0, 0.3, (3000, 6)), rng.normal(0, 1.5, (300, 6))]
        )
        out.append(
            partition(as_dataset(p), "xyz", max_level=5, capacity=32, step=step)
        )
    return out


def _raw_request(address, message, timeout=5.0):
    """One request/reply on a bare socket (no client-side policy)."""
    sock = socket.create_connection(address, timeout=timeout)
    try:
        protocol.send_message(sock, message)
        return protocol.recv_message(sock)
    finally:
        sock.close()


class TestParity:
    def test_hybrid_payload_byte_identical_to_old_server(self, frames):
        """Same request, same bytes: the served payload is exactly the
        codec applied to a local extraction -- caching, coalescing and
        admission leave no trace on the wire."""
        thr = float(np.percentile(frames[0].nodes["density"], 60))
        request = Message(
            MessageType.GET_HYBRID, protocol.encode_get_hybrid(0, thr, 16)
        )
        with VisualizationService(frames) as service:
            reply = _raw_request(service.address, request)
        assert reply.type == MessageType.HYBRID_FRAME
        assert reply.payload == protocol.encode_hybrid(
            extract(frames[0], thr, volume_resolution=16)
        )

    def test_frame_list_parity(self, frames):
        with VisualizationService(frames) as service:
            reply = _raw_request(service.address, Message(MessageType.LIST_FRAMES))
        assert reply.payload == protocol.encode_frame_list(f.step for f in frames)
        assert protocol.decode_frame_list(reply.payload) == [0, 10]

    def test_extraction_matches_local(self, frames):
        thr = float(np.percentile(frames[0].nodes["density"], 60))
        with VisualizationService(frames) as service:
            with VisualizationClient(service.address) as client:
                got = client.get_hybrid(0, thr, resolution=16)
        local = extract(frames[0], thr, volume_resolution=16)
        assert np.array_equal(got.points, local.points)
        assert np.array_equal(got.volume, local.volume)


class TestCoalescingCache:
    def test_repeat_requests_hit_cache(self, frames):
        thr = float(np.percentile(frames[0].nodes["density"], 60))
        with VisualizationService(frames) as service:
            with VisualizationClient(service.address) as client:
                for _ in range(4):
                    client.get_hybrid(0, thr, resolution=8)
            assert service.stats["extractions"] == 1
            assert service.stats["cache_hits"] == 3

    def test_cache_shared_across_sessions(self, frames):
        thr = float(np.percentile(frames[0].nodes["density"], 60))
        with VisualizationService(frames) as service:
            with VisualizationClient(service.address) as c1:
                c1.get_hybrid(0, thr, resolution=8)
            with VisualizationClient(service.address) as c2:
                c2.get_hybrid(0, thr, resolution=8)
            assert service.stats["extractions"] == 1
            assert service.stats["cache_hits"] == 1

    def test_distinct_keys_extract_separately(self, frames):
        thr = float(np.percentile(frames[0].nodes["density"], 60))
        with VisualizationService(frames) as service:
            with VisualizationClient(service.address) as client:
                client.get_hybrid(0, thr, resolution=8)
                client.get_hybrid(0, thr, resolution=16)  # new key
                client.get_hybrid(1, thr, resolution=8)   # new key
            assert service.stats["extractions"] == 3
            assert service.stats["cache_hits"] == 0

    def test_stampede_coalesces_to_one_extraction(self, frames):
        """N concurrent sessions asking for the same cold key trigger
        exactly one extraction; the rest coalesce onto it."""
        thr = float(np.percentile(frames[0].nodes["density"], 60))
        gate = threading.Event()

        def slow_extract(frame, threshold, resolution):
            gate.wait(timeout=5.0)
            return extract(frame, threshold, volume_resolution=resolution)

        results, errors = [], []

        def fetch(service_address):
            try:
                with VisualizationClient(service_address, timeout=10.0) as c:
                    results.append(c.get_hybrid(0, thr, resolution=8))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        with VisualizationService(
            frames, extract_fn=slow_extract, request_timeout=10.0
        ) as service:
            workers = [
                threading.Thread(target=fetch, args=(service.address,))
                for _ in range(6)
            ]
            for w in workers:
                w.start()
            # let every request arrive and pile onto the in-flight key
            deadline = time.monotonic() + 5.0
            while (
                service.stats["coalesced"] < 5 and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            gate.set()
            for w in workers:
                w.join(timeout=10.0)
            assert not errors
            assert len(results) == 6
            assert service.stats["extractions"] == 1
            assert service.stats["coalesced"] == 5
        ref = results[0]
        for got in results[1:]:
            assert np.array_equal(got.volume, ref.volume)

    def test_cache_lru_is_byte_bounded(self):
        cache = ResultCache(max_bytes=100)
        cache.put("a", bytes(40))
        cache.put("b", bytes(40))
        cache.put("c", bytes(40))  # evicts "a"
        assert cache.get("a") is None
        assert cache.get("b") is not None
        assert cache.nbytes <= 100

    def test_cache_get_refreshes_recency(self):
        cache = ResultCache(max_bytes=100)
        cache.put("a", bytes(40))
        cache.put("b", bytes(40))
        cache.get("a")             # "a" is now most recent
        cache.put("c", bytes(40))  # evicts "b", not "a"
        assert cache.get("a") is not None
        assert cache.get("b") is None


class TestAdmissionAndBackpressure:
    def test_session_limit_sheds_with_busy(self, frames):
        with VisualizationService(frames, max_sessions=1) as service:
            with VisualizationClient(service.address) as holder:
                holder.list_frames()
                shed = socket.create_connection(service.address, timeout=2.0)
                try:
                    reply = protocol.recv_message(shed)
                finally:
                    shed.close()
            assert reply.type == MessageType.BUSY
            retry_after, reason = protocol.decode_busy(reply.payload)
            assert retry_after > 0
            assert "session limit" in reason
            assert service.stats["sessions_shed"] == 1

    def test_client_backoff_honors_busy_and_recovers(self, frames):
        """A shed client retries after the hint and eventually lands
        once the occupying session leaves."""
        with VisualizationService(frames, max_sessions=1) as service:
            holder = VisualizationClient(service.address)
            holder.list_frames()

            def release():
                time.sleep(0.15)
                holder.close()

            t = threading.Thread(target=release)
            t.start()
            # admission shedding closes the connection after BUSY, so the
            # client sees a transport error and reconnects with backoff
            with VisualizationClient(
                service.address, timeout=2.0, retries=40,
                backoff=0.02, backoff_max=0.1,
            ) as client:
                assert client.list_frames() == [0, 10]
            t.join()
            assert service.stats["sessions_shed"] >= 1

    def test_queue_overflow_sheds_with_busy(self, frames):
        """Pipelining past the bounded queue gets BUSY, not unbounded
        buffering; well-formed requests still complete."""
        thr = float(np.percentile(frames[0].nodes["density"], 60))
        gate = threading.Event()

        def slow_extract(frame, threshold, resolution):
            gate.wait(timeout=5.0)
            return extract(frame, threshold, volume_resolution=resolution)

        n_requests = 12
        with VisualizationService(
            frames, queue_depth=2, extract_fn=slow_extract,
            request_timeout=10.0,
        ) as service:
            sock = socket.create_connection(service.address, timeout=10.0)
            try:
                payload = protocol.encode_get_hybrid(0, thr, 8)
                for _ in range(n_requests):
                    protocol.send_message(
                        sock, Message(MessageType.GET_HYBRID, payload)
                    )
                # overflow replies arrive while the queue is still gated
                deadline = time.monotonic() + 5.0
                while (
                    service.stats["shed_requests"] == 0
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                gate.set()
                types = [protocol.recv_message(sock).type for _ in range(n_requests)]
            finally:
                sock.close()
            assert types.count(MessageType.BUSY) >= 1
            assert types.count(MessageType.HYBRID_FRAME) >= 1
            assert types.count(MessageType.BUSY) == service.stats["shed_requests"]
            # accounting invariant: every request was served or shed
            assert (
                service.stats["served"] + service.stats["shed_requests"]
                == service.stats["requests"]
            )

    def test_busy_error_carries_retry_after(self):
        err = ServiceBusyError("queue full", retry_after=0.2)
        assert err.retry_after == 0.2
        assert isinstance(err, RuntimeError)


class TestCircuitBreaker:
    def test_breaker_unit(self):
        breaker = CircuitBreaker(threshold=2, cooldown=10.0)
        assert breaker.allow("k", now=0.0)
        breaker.record_failure("k", now=0.0)
        assert breaker.allow("k", now=0.0)          # below threshold
        breaker.record_failure("k", now=0.0)
        assert not breaker.allow("k", now=1.0)      # open
        assert breaker.allow("k", now=11.0)         # half-open probe
        assert not breaker.allow("k", now=12.0)     # re-armed during probe
        breaker.record_success("k")
        assert breaker.allow("k", now=12.0)         # closed again

    def test_failing_frame_quarantined(self, frames):
        calls = {"n": 0}

        def broken_extract(frame, threshold, resolution):
            calls["n"] += 1
            raise ValueError("synthetic extraction failure")

        with VisualizationService(
            frames, extract_fn=broken_extract,
            breaker_threshold=2, breaker_cooldown=30.0,
        ) as service:
            with VisualizationClient(service.address, retries=0) as client:
                for _ in range(2):
                    with pytest.raises(RuntimeError, match="synthetic"):
                        client.get_hybrid(0, 1.0, resolution=8)
                # circuit now open: answered without attempting work
                with pytest.raises(RuntimeError, match="quarantined"):
                    client.get_hybrid(0, 1.0, resolution=8)
            assert calls["n"] == 2
            assert service.stats["extraction_errors"] == 2
            assert service.stats["quarantined"] == 1

    def test_bad_input_leaves_the_breaker_alone(self, frames):
        """Requests no extraction can serve are protocol errors: they
        cost no extraction, and three of them do not quarantine the
        frame for another client's valid request."""
        with VisualizationService(
            frames, breaker_threshold=3, breaker_cooldown=30.0,
        ) as service:
            with VisualizationClient(service.address, retries=0) as bad:
                for _ in range(3):
                    with pytest.raises(RemoteError) as err:
                        bad.get_hybrid(0, 1.0, resolution=4_000_000)
            with VisualizationClient(service.address, **CLIENT_KW) as good:
                frame = good.get_hybrid(0, 1.0, resolution=16)
            local = extract(frames[0], 1.0, volume_resolution=16)
            assert np.array_equal(frame.volume, local.volume)
            assert "resolution 4000000 outside [2, 256]" in str(err.value)
            with VisualizationClient(service.address, retries=0) as bad:
                for _ in range(2):
                    with pytest.raises(RemoteError, match="NaN"):
                        bad.get_hybrid(0, float("nan"), resolution=16)
            # the client clamps small resolutions; send them raw
            for res in (0, 1):
                reply = _raw_request(service.address, Message(
                    MessageType.GET_HYBRID, protocol.encode_get_hybrid(0, 1.0, res)
                ))
                assert reply.type == MessageType.ERROR
                assert b"resolution" in reply.payload
            assert service.stats["protocol_errors"] == 7
            assert service.stats["extraction_errors"] == 0
            assert service.stats["quarantined"] == 0
            assert service.stats["cache_misses"] == 1

    def test_quarantine_is_per_frame(self, frames):
        def broken_for_zero(frame, threshold, resolution):
            if frame is frames[0]:
                raise ValueError("synthetic extraction failure")
            return extract(frame, threshold, volume_resolution=resolution)

        with VisualizationService(
            frames, extract_fn=broken_for_zero,
            breaker_threshold=1, breaker_cooldown=30.0,
        ) as service:
            with VisualizationClient(service.address, retries=0) as client:
                with pytest.raises(RuntimeError, match="synthetic"):
                    client.get_hybrid(0, 1.0, resolution=8)
                with pytest.raises(RuntimeError, match="quarantined"):
                    client.get_hybrid(0, 1.0, resolution=8)
                # the healthy frame keeps serving
                good = client.get_hybrid(1, 1.0, resolution=8)
                assert good.step == 10


class TestShutdownAuthorization:
    def test_hostile_shutdown_cannot_stop_service(self, frames):
        with VisualizationService(frames) as service:
            reply = _raw_request(
                service.address, Message(MessageType.SHUTDOWN, b"die now")
            )
            assert reply.type == MessageType.ERROR
            assert b"unauthorized" in reply.payload
            # still serving afterwards
            with VisualizationClient(service.address) as client:
                assert client.list_frames() == [0, 10]
            assert service.stats["unauthorized_shutdowns"] == 1

    def test_token_shutdown_stops_service(self, frames):
        service = VisualizationService(frames).start()
        sock = socket.create_connection(service.address, timeout=2.0)
        try:
            protocol.send_message(
                sock, Message(MessageType.SHUTDOWN, service.shutdown_token)
            )
        finally:
            sock.close()
        service._thread.join(timeout=10.0)
        assert not service._thread.is_alive()
        service.stop()  # still idempotent afterwards
        with pytest.raises(OSError):
            socket.create_connection(service.address, timeout=0.5)


class TestStats:
    def test_stats_over_the_wire(self, frames):
        thr = float(np.percentile(frames[0].nodes["density"], 60))
        with VisualizationService(frames) as service:
            with VisualizationClient(service.address) as client:
                client.get_hybrid(0, thr, resolution=8)
                client.get_hybrid(0, thr, resolution=8)
                stats = client.get_stats()
        assert stats["extractions"] == 1
        assert stats["cache_hits"] == 1
        assert stats["cache_hit_rate"] == 0.5
        assert stats["sessions_active"] == 1
        assert stats["p99_ms"] >= stats["p50_ms"] >= 0.0
        for key in ("requests", "served", "shed_requests", "bytes_sent",
                    "timeouts", "quarantined", "uptime_s"):
            assert key in stats

    def test_every_stats_event_reaches_the_trace(self, frames):
        """Each reply kind bumps ``stats["served"]`` and the
        ``service_served`` trace counter together, and every other
        stats counter of the service and the client moves with its
        ``service_<key>`` / ``remote_<key>`` trace counter."""
        thr = float(np.percentile(frames[0].nodes["density"], 60))
        with capture(enabled=True) as tracer:
            with VisualizationService(frames) as service:
                with VisualizationClient(service.address) as client:
                    client.list_frames()
                    client.get_stats()
                    client.get_hybrid(0, thr, resolution=8)
        # read after stop: a reply's bytes_sent lands once its write drains
        stats = service.stats
        assert stats["served"] == 3
        assert tracer.counters["service_served"] == stats["served"]
        for key, value in stats.items():
            assert tracer.counters.get(f"service_{key}", 0) == value, key
        for key, value in client.stats.items():
            if key != "seconds":
                assert tracer.counters.get(f"remote_{key}", 0) == value, key

    def test_concurrent_misses_open_one_extract_span_each(self, frames):
        """Two clients missing at once: every extraction opens its
        ``service_extract`` span in the pool thread that runs it, so no
        session's span nests in another's and the span count is the
        extraction count."""

        def slow_extract(frame, threshold, resolution):
            time.sleep(0.02)  # keep both pool slots busy at once
            return extract(frame, threshold, volume_resolution=resolution)

        def fetch(address, index):
            d = frames[index].nodes["density"]
            with VisualizationClient(address, **CLIENT_KW) as client:
                barrier.wait()
                for q in (30, 40, 50, 60, 70, 80):
                    client.get_hybrid(index, float(np.percentile(d, q)), resolution=8)

        barrier = threading.Barrier(2)
        with capture(enabled=True) as tracer:
            with VisualizationService(frames, extract_fn=slow_extract) as service:
                threads = [
                    threading.Thread(target=fetch, args=(service.address, i))
                    for i in (0, 1)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        assert service.stats["extractions"] == 12
        assert not any("service_extract/service_extract" in p for p in tracer.spans)
        spans = [v["count"] for p, v in tracer.spans.items()
                 if p.rsplit("/", 1)[-1] == "service_extract"]
        assert sum(spans) == service.stats["extractions"]

    def test_snapshot_without_traffic(self, frames):
        with VisualizationService(frames) as service:
            snap = service.stats_snapshot()
        assert snap["cache_hit_rate"] == 0.0
        assert snap["p50_ms"] == 0.0
        assert snap["sessions_total"] == 0

    def test_snapshot_percentiles_are_nearest_rank(self, frames):
        with VisualizationService(frames) as service:
            service._latencies.extend(i / 1e5 for i in range(99, -1, -1))
            snap = service.stats_snapshot()
        assert snap["p50_ms"] == 50 / 1e5 * 1e3
        assert snap["p99_ms"] == 99 / 1e5 * 1e3


class TestLifecycle:
    def test_stop_idempotent(self, frames):
        service = VisualizationService(frames).start()
        service.stop()
        service.stop()

    def test_context_manager_cleans_up(self, frames):
        with VisualizationService(frames) as service:
            address = service.address
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=0.5)

    def test_stop_with_idle_sessions_is_fast(self, frames):
        """Idle connected clients must not hold the drain hostage."""
        with VisualizationClientHolder(frames) as (service, _):
            t0 = time.monotonic()
            service.stop()
            assert time.monotonic() - t0 < service.drain_timeout

    def test_bind_failure_raises(self, frames):
        with VisualizationService(frames) as service:
            _, port = service.address
            clash = VisualizationService(
                frames, host="127.0.0.1", port=port
            )
            # SO_REUSEADDR notwithstanding, an active listener on the
            # same port fails the second bind on Linux
            with pytest.raises(OSError):
                clash.start()
            clash.stop()

    def test_empty_store(self):
        with VisualizationService([]) as service:
            with VisualizationClient(service.address) as client:
                assert client.list_frames() == []
                with pytest.raises(RuntimeError, match="out of range"):
                    client.get_hybrid(0, 1.0)


class VisualizationClientHolder:
    """Context helper: a started service plus one idle connected client."""

    def __init__(self, frames):
        self.service = VisualizationService(frames, drain_timeout=5.0)
        self.client = None

    def __enter__(self):
        self.service.start()
        self.client = VisualizationClient(self.service.address)
        self.client.list_frames()
        return self.service, self.client

    def __exit__(self, *exc):
        if self.client is not None:
            self.client.close()
        self.service.stop()


class TestFaultedLink:
    def test_corrupt_stream_retried_transparently(self, frames):
        """The test_faults_remote acceptance pattern runs unchanged
        against the service (satellite: parity under faults)."""
        thr = float(np.percentile(frames[0].nodes["density"], 60))
        plan = FaultPlan(seed=11, corrupt=0.25)
        with VisualizationService(frames) as service:
            with VisualizationClient(
                service.address, fault_plan=plan, **CLIENT_KW
            ) as client:
                for _ in range(60):
                    client.get_hybrid(0, thr, resolution=8)
                    if client.stats["retries"] >= 1:
                        break
                else:
                    raise AssertionError(
                        f"no retries in 60 fetches (stats={client.stats})"
                    )
                good = client.get_hybrid(0, thr, resolution=16)
        assert plan.injected.get("corrupt", 0) >= 1
        local = extract(frames[0], thr, volume_resolution=16)
        assert np.array_equal(good.points, local.points)
        assert np.array_equal(good.volume, local.volume)

    def test_vandal_does_not_kill_other_sessions(self, frames):
        thr = float(np.percentile(frames[0].nodes["density"], 60))
        with VisualizationService(frames) as service:
            vandal = socket.create_connection(service.address, timeout=2.0)
            vandal.sendall(b"GARBAGE!" + bytes(64))
            with VisualizationClient(service.address) as client:
                h = client.get_hybrid(0, thr, resolution=8)
                assert h.n_points >= 0
            vandal.close()
            deadline = time.monotonic() + 2.0
            while (
                service.stats["protocol_errors"] == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert service.stats["protocol_errors"] >= 1

    def test_exhausted_retries_raise_typed_error(self, frames):
        with VisualizationService(frames, max_sessions=0) as service:
            with pytest.raises((RetryExhaustedError, OSError)):
                with VisualizationClient(
                    service.address, timeout=0.5, retries=2,
                    backoff=0.001, backoff_max=0.01,
                ) as client:
                    client.list_frames()
