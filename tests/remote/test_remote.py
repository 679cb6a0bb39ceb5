"""Service/client integration over localhost sockets."""

import numpy as np
import pytest

from repro.core.dataset import as_dataset
from repro.octree.extraction import extract
from repro.octree.partition import partition
from repro.remote.client import VisualizationClient
from repro.remote.service import VisualizationService


@pytest.fixture(scope="module")
def frames():
    rng = np.random.default_rng(8)
    out = []
    for step in (0, 10):
        p = np.vstack(
            [rng.normal(0, 0.3, (4000, 6)), rng.normal(0, 1.5, (400, 6))]
        )
        out.append(partition(as_dataset(p), "xyz", max_level=5, capacity=32, step=step))
    return out


class TestRemote:
    def test_list_frames(self, frames):
        with VisualizationService(frames) as server:
            with VisualizationClient(server.address) as client:
                assert client.list_frames() == [0, 10]

    def test_extraction_matches_local(self, frames):
        thr = float(np.percentile(frames[0].nodes["density"], 60))
        local = extract(frames[0], thr, volume_resolution=16)
        with VisualizationService(frames) as server:
            with VisualizationClient(server.address) as client:
                remote = client.get_hybrid(0, thr, resolution=16)
        assert remote.n_points == local.n_points
        assert np.array_equal(remote.points, local.points)
        assert np.array_equal(remote.volume, local.volume)

    def test_stats_accumulate(self, frames):
        thr = float(np.percentile(frames[0].nodes["density"], 50))
        with VisualizationService(frames) as server:
            with VisualizationClient(server.address) as client:
                client.get_hybrid(0, thr, resolution=8)
                client.get_hybrid(1, thr, resolution=8)
                assert client.stats["frames"] == 2
                assert client.stats["bytes_received"] > 0
                assert client.throughput_bps() > 0
            assert server.stats["extractions"] == 2

    def test_smaller_threshold_fewer_bytes(self, frames):
        """The interactivity/size tradeoff the remote setting exists
        for: lower threshold, smaller transfer."""
        lo = float(np.percentile(frames[0].nodes["density"], 20))
        hi = float(np.percentile(frames[0].nodes["density"], 95))
        with VisualizationService(frames) as server:
            with VisualizationClient(server.address) as client:
                small = len_of = client.get_hybrid(0, lo, resolution=8)
                bytes_small = client.stats["bytes_received"]
                client.get_hybrid(0, hi, resolution=8)
                bytes_large = client.stats["bytes_received"] - bytes_small
        assert bytes_large > bytes_small

    def test_bad_index_returns_error(self, frames):
        with VisualizationService(frames) as server:
            with VisualizationClient(server.address) as client:
                with pytest.raises(RuntimeError, match="out of range"):
                    client.get_hybrid(99, 1.0)

    def test_multiple_sequential_clients(self, frames):
        with VisualizationService(frames) as server:
            for _ in range(3):
                with VisualizationClient(server.address) as client:
                    assert client.list_frames() == [0, 10]

    def test_throttled_link_slower(self, frames):
        thr = float(np.percentile(frames[0].nodes["density"], 80))
        with VisualizationService(frames) as fast_server:
            with VisualizationClient(fast_server.address) as c:
                c.get_hybrid(0, thr, resolution=16)
                fast = c.stats["seconds"]
        with VisualizationService(frames, bandwidth_bps=1_000_000) as slow_server:
            with VisualizationClient(slow_server.address) as c:
                c.get_hybrid(0, thr, resolution=16)
                slow = c.stats["seconds"]
        assert slow > fast
