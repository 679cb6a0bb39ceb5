"""Remote link under injected faults: retry, reconnect, degrade.

The client-side :class:`repro.core.faults.FaultPlan` damages the byte
stream (seeded, hence reproducible); the tests assert the resilience
policy turns that damage into retries/reconnects instead of failures,
and that the whole fault load is visible in an exported trace.
"""

import json

import numpy as np
import pytest

from repro.core.dataset import as_dataset
from repro.core.faults import FaultPlan
from repro.core.trace import capture, load_trace
from repro.octree.partition import partition
from repro.remote.client import VisualizationClient
from repro.remote.service import VisualizationService

# generous retry budget: the point is surviving the fault load, and a
# seeded 20-40% per-recv rate can hit several attempts in a row
CLIENT_KW = dict(timeout=2.0, retries=20, backoff=0.001, backoff_max=0.02)


@pytest.fixture(scope="module")
def frames():
    rng = np.random.default_rng(12)
    out = []
    for step in (0, 10):
        p = np.vstack(
            [rng.normal(0, 0.3, (3000, 6)), rng.normal(0, 1.5, (300, 6))]
        )
        out.append(partition(as_dataset(p), "xyz", max_level=5, capacity=32, step=step))
    return out


def _fetch_until(client, threshold, stat, minimum=1, cap=60):
    """Fetch frames until a stat crosses ``minimum`` (bounded)."""
    for _ in range(cap):
        client.get_hybrid(0, threshold, resolution=8)
        if client.stats[stat] >= minimum:
            return
    raise AssertionError(
        f"{stat} never reached {minimum} in {cap} fetches "
        f"(stats={client.stats}, injected={client._fault_plan.injected})"
    )


class TestCorruptedStream:
    def test_crc_damage_is_retried_transparently(self, frames):
        thr = float(np.percentile(frames[0].nodes["density"], 60))
        plan = FaultPlan(seed=11, corrupt=0.25)
        with VisualizationService(frames) as server:
            with VisualizationClient(
                server.address, fault_plan=plan, **CLIENT_KW
            ) as client:
                _fetch_until(client, thr, "retries")
                # every fetch returned a correct frame despite the damage
                good = client.get_hybrid(0, thr, resolution=16)
        assert plan.injected.get("corrupt", 0) >= 1
        assert client.stats["errors"] >= 1
        from repro.octree.extraction import extract

        local = extract(frames[0], thr, volume_resolution=16)
        assert np.array_equal(good.points, local.points)
        assert np.array_equal(good.volume, local.volume)


class TestDroppedLink:
    def test_mid_message_disconnect_reconnects(self, frames):
        thr = float(np.percentile(frames[0].nodes["density"], 60))
        plan = FaultPlan(seed=5, drop=0.15, truncate=0.1)
        with VisualizationService(frames) as server:
            with VisualizationClient(
                server.address, fault_plan=plan, **CLIENT_KW
            ) as client:
                _fetch_until(client, thr, "reconnects")
                assert client.stats["retries"] >= client.stats["reconnects"]

    def test_bytes_accounted_before_decode(self, frames):
        """A reply that fails to decode still counts toward the
        throughput ledger (satellite: stats accounting fix)."""
        thr = float(np.percentile(frames[0].nodes["density"], 60))
        with VisualizationService(frames) as server:
            with VisualizationClient(server.address) as client:
                client.get_hybrid(0, thr, resolution=8)
                bytes_one = client.stats["bytes_received"]
                assert bytes_one > 0
                assert client.stats["seconds"] > 0
                # an application ERROR reply is still bytes on the wire
                with pytest.raises(RuntimeError, match="out of range"):
                    client.get_hybrid(99, thr, resolution=8)
                assert client.stats["bytes_received"] > bytes_one
                assert client.stats["errors"] == 1


class TestDegradation:
    def test_slow_link_downshifts_resolution(self, frames):
        thr = float(np.percentile(frames[0].nodes["density"], 60))
        with VisualizationService(frames) as server:
            with VisualizationClient(
                server.address,
                degrade_below_bps=1e15,  # any real link is "too slow"
                min_resolution=8,
            ) as client:
                first = client.get_hybrid(0, thr, resolution=32)
                second = client.get_hybrid(0, thr, resolution=32)
                third = client.get_hybrid(0, thr, resolution=32)
        assert first.resolution == (32, 32, 32)
        assert second.resolution == (16, 16, 16)
        assert third.resolution == (8, 8, 8)
        assert client.stats["degradations"] >= 2
        # the downshift is floored, never degrades to nothing
        assert client.effective_resolution(32) == 8

    def test_fast_link_never_degrades(self, frames):
        thr = float(np.percentile(frames[0].nodes["density"], 60))
        with VisualizationService(frames) as server:
            with VisualizationClient(
                server.address, degrade_below_bps=1e-9
            ) as client:
                for _ in range(3):
                    h = client.get_hybrid(0, thr, resolution=16)
        assert h.resolution == (16, 16, 16)
        assert client.stats["degradations"] == 0


class TestServerIsolation:
    def test_bad_request_leaves_connection_usable(self, frames):
        """An application error is answered, not fatal: the same
        connection keeps serving."""
        thr = float(np.percentile(frames[0].nodes["density"], 60))
        with VisualizationService(frames) as server:
            with VisualizationClient(server.address) as client:
                with pytest.raises(RuntimeError, match="out of range"):
                    client.get_hybrid(99, thr, resolution=8)
                assert client.list_frames() == [0, 10]
                assert client.stats["reconnects"] == 0

    def test_poisoned_stream_does_not_kill_other_clients(self, frames):
        """One client sending garbage must not affect another."""
        import socket
        import time

        thr = float(np.percentile(frames[0].nodes["density"], 60))
        with VisualizationService(frames) as server:
            vandal = socket.create_connection(server.address, timeout=2.0)
            vandal.sendall(b"GARBAGE!" + bytes(64))
            with VisualizationClient(server.address) as client:
                h = client.get_hybrid(0, thr, resolution=8)
                assert h.n_points >= 0
            vandal.close()
            deadline = time.monotonic() + 2.0
            while (
                server.stats["protocol_errors"] == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
        assert server.stats["protocol_errors"] >= 1


class TestEndToEndFaultRun:
    def test_seeded_fault_run_completes_with_counters(self, tmp_path):
        """20% message corruption end-to-end against the service, with
        nonzero injection and retry counters in the exported trace."""
        rng = np.random.default_rng(20)
        particles = np.vstack(
            [rng.normal(0, 0.3, (3000, 6)), rng.normal(0, 1.5, (300, 6))]
        )
        plan = FaultPlan(seed=20, corrupt=0.2)
        with capture(enabled=True) as tracer:
            pf = partition(as_dataset(particles), "xyz", max_level=5, capacity=32)
            thr = float(np.percentile(pf.nodes["density"], 60))
            with VisualizationService([pf]) as server:
                with VisualizationClient(
                    server.address, fault_plan=plan, **CLIENT_KW
                ) as client:
                    _fetch_until(client, thr, "retries")
            tracer.save(tmp_path / "trace.json")

        doc = load_trace(tmp_path / "trace.json")
        counters = doc["counters"]
        assert counters.get("faults_injected_corrupt", 0) >= 1
        assert counters.get("remote_retries", 0) >= 1
        assert json.dumps(counters)  # the document is exportable
