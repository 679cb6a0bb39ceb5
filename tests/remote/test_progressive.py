"""Progressive LOD streaming over the wire.

The contract under test (ISSUE 8's tentpole acceptance):

- every yielded frame -- any prefix of the stream -- is a *valid*
  :class:`HybridFrame` (decodable, in-bounds, monotonically more
  complete),
- a stream run to completion yields a final frame **bit-identical**
  to the flat ``get_hybrid`` for the same request, at the mip-base
  resolution and away from it (either way the exact volume is read
  from the store's ``volume_<res>.bin``),
- refinement order is deterministic for a fixed eye,
- frames without a built hierarchy, and streams past the per-session
  limit, are refused with typed errors.
"""

import numpy as np
import pytest

from repro.core.errors import ProtocolError, RemoteError
from repro.hybrid.representation import HybridFrame
from repro.octree.lod import build_lod
from repro.octree.partition import partition
from repro.core.dataset import as_dataset
from repro.octree.stream_partition import partition_store
from repro.remote import protocol
from repro.remote.client import VisualizationClient
from repro.remote.protocol import LodKind
from repro.remote.service import VisualizationService

CLIENT_KW = dict(timeout=5.0, retries=20, backoff=0.001, backoff_max=0.02)


@pytest.fixture(scope="module")
def pstore(tmp_path_factory):
    rng = np.random.default_rng(21)
    p = np.vstack(
        [rng.normal(0.0, 0.3, (15_000, 6)), rng.normal(0.0, 1.8, (1_500, 6))]
    )
    ps = partition_store(
        p, tmp_path_factory.mktemp("prog") / "store", "xyz",
        max_level=5, capacity=64, step=4,
    )
    build_lod(ps, levels=2, ratio=4, seed=3, mip_base=32, mip_levels=2)
    return ps


@pytest.fixture(scope="module")
def flat_frame():
    rng = np.random.default_rng(22)
    p = rng.normal(0.0, 0.5, (2_000, 6))
    return partition(as_dataset(p), "xyz", max_level=4, capacity=64, step=4)


@pytest.fixture(scope="module")
def service(pstore, flat_frame):
    with VisualizationService([pstore, flat_frame], unit_points=2048) as svc:
        yield svc


@pytest.fixture()
def client(service):
    with VisualizationClient(service.address, **CLIENT_KW) as c:
        yield c


def threshold_of(pstore, pct=60):
    return float(np.percentile(pstore.nodes["density"], pct))


def assert_frames_bitwise(a: HybridFrame, b: HybridFrame):
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.point_densities, b.point_densities)
    assert np.array_equal(a.volume, b.volume)
    assert np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)
    assert a.threshold == b.threshold
    assert a.step == b.step and a.plot_type == b.plot_type


class TestPrefixValidity:
    def test_every_yield_is_a_valid_monotone_frame(self, pstore, client):
        thr = threshold_of(pstore)
        counts = []
        for hf in client.iter_hybrid(0, thr, resolution=32):
            assert isinstance(hf, HybridFrame)
            assert hf.volume.shape == (32, 32, 32)
            assert hf.volume.dtype == np.float32
            assert hf.points.dtype == np.float32
            assert len(hf.points) == len(hf.point_densities)
            # points live inside the frame box
            assert (hf.points >= hf.lo - 1e-5).all()
            assert (hf.points <= hf.hi + 1e-5).all()
            # round-trips through its own wire layout
            rt = HybridFrame.from_bytes(hf.to_bytes())
            assert np.array_equal(rt.points, hf.points)
            counts.append(len(hf.points))
        assert len(counts) >= 3  # base + at least two refinements
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_first_frame_costs_one_round_trip(self, pstore, service, client):
        thr = threshold_of(pstore)
        before = service.stats["refinements"]
        it = client.iter_hybrid(0, thr, resolution=32)
        first = next(it)
        assert service.stats["refinements"] == before + 1
        assert len(first.points) > 0
        it.close()

    def test_early_stop_keeps_a_usable_frame(self, pstore, client):
        thr = threshold_of(pstore)
        frames = list(client.iter_hybrid(0, thr, resolution=32, max_refinements=2))
        assert len(frames) == 3  # base + 2 units
        assert len(frames[-1].points) >= len(frames[0].points)


class TestFinalBitwise:
    def test_at_mip_base_resolution(self, pstore, client):
        """At the mip-base resolution the exact volume is read from the
        store's ``volume_<res>.bin``."""
        thr = threshold_of(pstore)
        last = None
        for last in client.iter_hybrid(0, thr, resolution=32):
            pass
        flat = client.get_hybrid(0, thr, resolution=32)
        assert_frames_bitwise(last, flat)

    def test_away_from_mip_base(self, pstore, client):
        """Away from the mip base the exact volume is read from the
        store's ``volume_<res>.bin`` as well."""
        thr = threshold_of(pstore)
        last = None
        for last in client.iter_hybrid(0, thr, resolution=48):
            pass
        flat = client.get_hybrid(0, thr, resolution=48)
        assert_frames_bitwise(last, flat)

    def test_other_thresholds(self, pstore, client):
        for pct in (30, 85):
            thr = threshold_of(pstore, pct)
            last = None
            for last in client.iter_hybrid(0, thr, resolution=32):
                pass
            assert_frames_bitwise(last, client.get_hybrid(0, thr, resolution=32))


class TestScheduling:
    def test_deterministic_for_fixed_eye(self, pstore, client):
        thr = threshold_of(pstore)
        eye = tuple(float(x) for x in pstore.hi * 2.0)
        a = [len(f.points) for f in client.iter_hybrid(0, thr, 32, eye=eye)]
        b = [len(f.points) for f in client.iter_hybrid(0, thr, 32, eye=eye)]
        assert a == b

    def test_eye_changes_the_order_not_the_result(self, pstore, client):
        thr = threshold_of(pstore)
        eyes = [tuple(float(x) for x in pstore.hi * 2.0),
                tuple(float(x) for x in pstore.lo * 2.0)]
        finals = []
        for eye in eyes:
            last = None
            for last in client.iter_hybrid(0, thr, 32, eye=eye):
                pass
            finals.append(last)
        assert_frames_bitwise(finals[0], finals[1])

    def test_base_is_served_from_shared_cache(self, pstore, service, client):
        thr = threshold_of(pstore, 45)
        before = service.stats["cache_hits"]
        for _ in client.iter_hybrid(0, thr, resolution=32):
            pass
        for _ in client.iter_hybrid(0, thr, resolution=32):
            pass
        assert service.stats["cache_hits"] > before


class TestRefusals:
    def test_frame_without_lod_is_refused(self, flat_frame, client):
        thr = float(np.percentile(flat_frame.nodes["density"], 60))
        with pytest.raises(RemoteError, match="no LOD"):
            next(client.iter_hybrid(1, thr, resolution=32))

    def test_bad_frame_index_is_refused(self, pstore, client):
        with pytest.raises(RemoteError):
            next(client.iter_hybrid(99, 1.0, resolution=32))

    def test_stream_limit_is_enforced(self, pstore, service):
        thr = threshold_of(pstore)
        with VisualizationService([pstore], max_streams=1) as svc:
            with VisualizationClient(svc.address, **CLIENT_KW) as c:
                it1 = c.iter_hybrid(0, thr, resolution=32)
                next(it1)  # stream 1 open and unfinished
                with pytest.raises(RemoteError, match="stream"):
                    next(c.iter_hybrid(0, thr, resolution=32, eye=(9.0, 9.0, 9.0)))
                it1.close()

    def test_streams_die_with_the_session(self, pstore):
        thr = threshold_of(pstore)
        with VisualizationService([pstore], max_streams=1) as svc:
            with VisualizationClient(svc.address, **CLIENT_KW) as c:
                it = c.iter_hybrid(0, thr, resolution=32)
                next(it)
                it.close()
            # new session: the old session's stream holds no slot
            with VisualizationClient(svc.address, **CLIENT_KW) as c2:
                assert len(list(c2.iter_hybrid(0, thr, resolution=32))) >= 3


class TestCodecs:
    def test_refine_roundtrip(self):
        p = protocol.encode_refine(7, 3, 0.125, 64, eye=(1.0, -2.0, 3.5))
        sid, idx, thr, res, eye = protocol.decode_refine(p)
        assert (sid, idx, thr, res) == (7, 3, 0.125, 64)
        assert eye == (1.0, -2.0, 3.5)

    def test_refine_none_eye_sentinel(self):
        sid, idx, thr, res, eye = protocol.decode_refine(
            protocol.encode_refine(1, 0, 2.0, 32, eye=None)
        )
        assert eye is None

    def test_lod_frame_roundtrip(self):
        p = protocol.encode_lod_frame(5, LodKind.POINTS, 2, 9, b"abc")
        assert protocol.decode_lod_frame(p) == (5, LodKind.POINTS, 2, 9, b"abc")

    def test_lod_points_roundtrip(self):
        rows = np.array([4, 9, 11], dtype=np.int64)
        pts = np.arange(9, dtype=np.float32).reshape(3, 3)
        dens = np.array([0.5, 1.5, 2.5], dtype=np.float32)
        r, p2, d = protocol.decode_lod_points(
            protocol.encode_lod_points(rows, pts, dens)
        )
        assert np.array_equal(r, rows)
        assert np.array_equal(p2, pts)
        assert np.array_equal(d, dens)

    def test_lod_volume_roundtrip(self):
        vol = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        assert np.array_equal(
            protocol.decode_lod_volume(protocol.encode_lod_volume(vol)), vol
        )

    def test_lod_base_roundtrip(self, pstore):
        thr = threshold_of(pstore)
        from repro.octree.extraction import extract
        hf = extract(pstore.to_frame(), thr, volume_resolution=16)
        rows = np.arange(len(hf.points), dtype=np.int64)
        frame, rows2, n_total = protocol.decode_lod_base(
            protocol.encode_lod_base(hf, rows, 12345)
        )
        assert n_total == 12345
        assert np.array_equal(rows2, rows)
        assert np.array_equal(frame.points, hf.points)

    @pytest.mark.parametrize(
        "decoder",
        [
            protocol.decode_refine,
            protocol.decode_lod_frame,
            protocol.decode_lod_base,
            protocol.decode_lod_points,
            protocol.decode_lod_volume,
        ],
    )
    def test_malformed_payloads_raise(self, decoder):
        with pytest.raises(ProtocolError):
            decoder(b"\x01\x02\x03")

    def test_truncated_points_payload_raises(self):
        rows = np.array([1, 2], dtype=np.int64)
        pts = np.zeros((2, 3), dtype=np.float32)
        dens = np.zeros(2, dtype=np.float32)
        good = protocol.encode_lod_points(rows, pts, dens)
        with pytest.raises(ProtocolError):
            protocol.decode_lod_points(good[:-1])

    def test_truncated_volume_payload_raises(self):
        good = protocol.encode_lod_volume(np.zeros((2, 2, 2), dtype=np.float32))
        with pytest.raises(ProtocolError):
            protocol.decode_lod_volume(good[:-2])
