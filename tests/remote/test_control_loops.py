"""Regression tests for the client/service control-loop repairs.

Three real bugs rode along with the LOD PR:

- the client degradation policy was a one-way ratchet on a lifetime
  -average throughput (never recovered, factor grew without bound),
- ``ResultCache.put`` pinned a payload larger than the whole cache
  forever (the old ``len > 1`` eviction guard),
- ``CircuitBreaker`` state grew without bound across distinct keys.

Each test here fails on the old behavior.
"""

import numpy as np
import pytest

from repro.core.dataset import as_dataset
from repro.octree.partition import partition
from repro.remote.client import VisualizationClient
from repro.remote.service import CircuitBreaker, ResultCache, VisualizationService


@pytest.fixture(scope="module")
def frames():
    rng = np.random.default_rng(12)
    p = np.vstack([rng.normal(0, 0.3, (3000, 6)), rng.normal(0, 1.5, (300, 6))])
    return [partition(as_dataset(p), "xyz", max_level=5, capacity=32)]


class TestDegradationRecovery:
    def test_factor_caps_at_min_resolution_clamp(self, frames):
        """The old ratchet multiplied past the clamp every frame; now
        the factor stops exactly at the largest useful power of two."""
        thr = float(np.percentile(frames[0].nodes["density"], 60))
        with VisualizationService(frames) as server:
            with VisualizationClient(
                server.address, degrade_below_bps=1e15, min_resolution=8
            ) as client:
                for _ in range(10):
                    client.get_hybrid(0, thr, resolution=32)
                assert client._degrade_factor == 4  # 32 -> 8, not beyond
                assert client.stats["degradations"] == 2
                assert client.effective_resolution(32) == 8

    def test_recovers_after_throughput_rises(self, frames):
        """A healed link walks the resolution back up (the lifetime
        average never recovered; the windowed estimate does)."""
        thr = float(np.percentile(frames[0].nodes["density"], 60))
        with VisualizationService(frames) as server:
            with VisualizationClient(
                server.address,
                degrade_below_bps=1e15,
                min_resolution=8,
                throughput_window=4,
                upshift_after=2,
            ) as client:
                for _ in range(4):
                    client.get_hybrid(0, thr, resolution=32)
                assert client.effective_resolution(32) == 8
                # the incident ends: any real throughput is now healthy
                client.degrade_below_bps = 1e-9
                for _ in range(8):
                    client.get_hybrid(0, thr, resolution=32)
                assert client._degrade_factor == 1
                assert client.effective_resolution(32) == 32
                assert client.stats["upshifts"] == 2

    def test_upshift_needs_a_healthy_streak(self, frames):
        """Hysteresis: one good frame does not flap the quality back."""
        thr = float(np.percentile(frames[0].nodes["density"], 60))
        with VisualizationService(frames) as server:
            with VisualizationClient(
                server.address,
                degrade_below_bps=1e15,
                min_resolution=8,
                upshift_after=3,
            ) as client:
                for _ in range(3):
                    client.get_hybrid(0, thr, resolution=32)
                client.degrade_below_bps = 1e-9
                client.get_hybrid(0, thr, resolution=32)
                # one healthy frame: still degraded (streak of 1 < 3)
                assert client._degrade_factor == 4
                assert client.stats["upshifts"] == 0

    def test_degrade_cap_math(self):
        client = VisualizationClient.__new__(VisualizationClient)
        client.min_resolution = 8
        assert client._degrade_cap(64) == 8
        assert client._degrade_cap(32) == 4
        assert client._degrade_cap(16) == 2
        assert client._degrade_cap(8) == 1
        assert client._degrade_cap(4) == 1

    def test_windowed_estimate_forgets_incidents(self, frames):
        thr = float(np.percentile(frames[0].nodes["density"], 60))
        with VisualizationService(frames) as server:
            with VisualizationClient(
                server.address, throughput_window=2
            ) as client:
                for _ in range(5):
                    client.get_hybrid(0, thr, resolution=8)
                assert len(client._samples) == 2  # window, not lifetime
                assert client.windowed_throughput_bps() > 0


class TestCacheBound:
    def test_oversized_payload_is_refused(self):
        cache = ResultCache(max_bytes=100)
        cache.put("a", b"x" * 40)
        assert cache.put("big", b"y" * 101) is False
        assert cache.rejected == 1
        assert cache.get("big") is None
        assert cache.get("a") == b"x" * 40  # not evicted by the refusal
        assert cache.nbytes <= cache.max_bytes

    def test_oversized_replacement_removes_stale_entry(self):
        """Re-putting a key with an oversized payload must not leave
        the stale small value serving hits."""
        cache = ResultCache(max_bytes=100)
        cache.put("k", b"old" * 10)
        assert cache.put("k", b"n" * 200) is False
        assert cache.get("k") is None
        assert cache.nbytes == 0

    def test_byte_bound_invariant_random_workload(self):
        """Seeded property test: after every put, nbytes matches the
        held entries and never exceeds the bound."""
        rng = np.random.default_rng(42)
        cache = ResultCache(max_bytes=1000)
        for i in range(500):
            key = int(rng.integers(0, 20))
            size = int(rng.integers(0, 1500))
            cache.put(key, bytes(size))
            assert cache.nbytes <= cache.max_bytes
            assert cache.nbytes == sum(len(v) for v in cache._entries.values())
        assert cache.rejected > 0  # the workload exercised the refusal path


class TestBreakerBound:
    def test_state_is_bounded_across_many_keys(self):
        """A long-lived service sweeping distinct keys must not keep
        one dict entry per key it has ever seen."""
        br = CircuitBreaker(threshold=3, cooldown=10.0)
        t = 0.0
        for i in range(10_000):
            br.record_failure(("frame", i), now=t)
            t += 1.0
        # only keys failed within the last cooldown may remain
        br.prune(now=t)
        assert len(br) <= 10

    def test_expired_quarantines_are_pruned(self):
        br = CircuitBreaker(threshold=1, cooldown=5.0)
        for i in range(100):
            br.record_failure(i, now=0.0)
        assert len(br) == 100
        # a cooldown past expiry with no probe: the quarantine is stale
        br.prune(now=11.0)
        assert len(br) == 0

    def test_prune_keeps_live_quarantines_and_streaks(self):
        br = CircuitBreaker(threshold=2, cooldown=10.0)
        br.record_failure("open", now=0.0)
        br.record_failure("open", now=1.0)    # opens until t=11
        br.record_failure("fresh", now=9.0)   # mid-streak, recent
        br.record_failure("stale", now=0.0)   # mid-streak, old
        br.prune(now=10.0)
        assert br.is_open("open", now=10.0)
        assert ("fresh" in br._failures) and ("stale" not in br._failures)
        # the surviving streak still escalates correctly
        assert br.record_failure("fresh", now=10.0) == 2
        assert br.is_open("fresh", now=10.5)

    def test_auto_prune_fires_periodically(self):
        br = CircuitBreaker(threshold=3, cooldown=1.0)
        for i in range(br._PRUNE_EVERY * 4):
            br.record_failure(i, now=float(i))
        assert len(br) < br._PRUNE_EVERY * 4

    def test_existing_semantics_survive(self):
        """Threshold / half-open / re-arm behavior is unchanged."""
        br = CircuitBreaker(threshold=2, cooldown=10.0)
        assert br.allow("k", now=0.0)
        assert br.record_failure("k", now=0.0) == 1
        assert br.allow("k", now=0.1)
        assert br.record_failure("k", now=0.2) == 2
        assert not br.allow("k", now=1.0)
        assert br.allow("k", now=10.5)        # half-open probe
        assert not br.allow("k", now=10.6)    # re-armed during flight
        br.record_success("k")
        assert br.allow("k", now=10.7)
