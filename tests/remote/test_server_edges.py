"""Service lifecycle and edge cases not covered by ``test_service.py``."""

import socket

import numpy as np
import pytest

from repro.core.dataset import as_dataset
from repro.octree.partition import partition
from repro.remote import protocol
from repro.remote.client import VisualizationClient
from repro.remote.protocol import Message, MessageType
from repro.remote.service import VisualizationService


@pytest.fixture(scope="module")
def one_frame():
    rng = np.random.default_rng(2)
    return [partition(as_dataset(rng.normal(0, 1, (2000, 6))), "xyz", max_level=4, step=0)]


class TestLifecycle:
    def test_stop_idempotent(self, one_frame):
        service = VisualizationService(one_frame).start()
        with VisualizationClient(service.address) as client:
            client.list_frames()
        service.stop()
        service.stop()  # second stop must not raise

    def test_context_manager_cleans_up(self, one_frame):
        with VisualizationService(one_frame) as service:
            with VisualizationClient(service.address) as client:
                client.list_frames()
            address = service.address
        # after exit the port no longer accepts connections
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=0.5)

    def test_port_zero_assigns_free_port(self, one_frame):
        a = VisualizationService(one_frame).start()
        b = VisualizationService(one_frame).start()
        try:
            assert a.address[1] != b.address[1]
        finally:
            a.stop()
            b.stop()

    def test_request_counting(self, one_frame):
        with VisualizationService(one_frame) as service:
            with VisualizationClient(service.address) as client:
                client.list_frames()
                client.list_frames()
            assert service.stats["requests"] == 2
            assert service.stats["bytes_sent"] > 0

    def test_client_reconnect_after_disconnect(self, one_frame):
        with VisualizationService(one_frame) as service:
            with VisualizationClient(service.address) as c1:
                c1.list_frames()
            with VisualizationClient(service.address) as c2:
                assert c2.list_frames() == [0]

    def test_empty_store(self):
        with VisualizationService([]) as service:
            with VisualizationClient(service.address) as client:
                assert client.list_frames() == []
                with pytest.raises(RuntimeError, match="out of range"):
                    client.get_hybrid(0, 1.0)
                # the failed lookup leaves the session usable
                assert client.list_frames() == []


class TestShutdownAuthorization:
    """SHUTDOWN without the service-generated token must be inert."""

    def test_hostile_shutdown_cannot_stop_server(self, one_frame):
        with VisualizationService(one_frame) as service:
            hostile = socket.create_connection(service.address, timeout=2.0)
            try:
                protocol.send_message(
                    hostile, Message(MessageType.SHUTDOWN, b"let me in")
                )
                reply = protocol.recv_message(hostile)
                assert reply.type == MessageType.ERROR
                assert b"unauthorized" in reply.payload
            finally:
                hostile.close()
            # the service still accepts new connections afterwards
            with VisualizationClient(service.address) as client:
                assert client.list_frames() == [0]
            assert service.stats["unauthorized_shutdowns"] == 1

    def test_shutdown_poke_not_counted_as_request(self, one_frame):
        """An authorized SHUTDOWN must not skew the request ledger."""
        service = VisualizationService(one_frame).start()
        with VisualizationClient(service.address) as client:
            client.list_frames()
        poke = socket.create_connection(service.address, timeout=2.0)
        try:
            protocol.send_message(
                poke, Message(MessageType.SHUTDOWN, service.shutdown_token)
            )
        finally:
            poke.close()
        service._thread.join(timeout=10.0)
        service.stop()
        assert service.stats["requests"] == 1
        assert service.stats["unauthorized_shutdowns"] == 0

    def test_get_stats_over_the_wire(self, one_frame):
        with VisualizationService(one_frame) as service:
            with VisualizationClient(service.address) as client:
                client.list_frames()
                stats = client.get_stats()
        assert stats["requests"] >= 2  # LIST_FRAMES + GET_STATS
        assert stats["unauthorized_shutdowns"] == 0


class TestClientJitter:
    """Decorrelated-jitter backoff: bounded and seed-deterministic
    (satellite: retry stampede control)."""

    def test_delays_bounded(self):
        import random

        from repro.remote.client import decorrelated_jitter

        rng = random.Random(7)
        delay = 0.05
        for _ in range(200):
            delay = decorrelated_jitter(rng, 0.05, 2.0, delay)
            assert 0.05 <= delay <= 2.0

    def test_seeded_sequence_deterministic(self):
        import random

        from repro.remote.client import decorrelated_jitter

        def sequence(seed):
            rng = random.Random(seed)
            delay, out = 0.05, []
            for _ in range(20):
                delay = decorrelated_jitter(rng, 0.05, 2.0, delay)
                out.append(delay)
            return out

        assert sequence(3) == sequence(3)
        assert sequence(3) != sequence(4)

    def test_distinct_seeds_decorrelate(self):
        """A fleet with distinct seeds doesn't retry in lockstep."""
        import random

        from repro.remote.client import decorrelated_jitter

        first = [
            decorrelated_jitter(random.Random(s), 0.05, 2.0, 0.5)
            for s in range(16)
        ]
        assert len(set(first)) > 1
