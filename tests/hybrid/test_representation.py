"""HybridFrame container and serialization."""

import dataclasses
import hashlib
import pickle

import numpy as np
import pytest

from repro.hybrid.representation import HybridFrame


def _frame(n_points=100, res=8, seed=0):
    rng = np.random.default_rng(seed)
    return HybridFrame(
        volume=rng.random((res, res, res)).astype(np.float32),
        points=rng.random((n_points, 3)).astype(np.float32),
        point_densities=rng.random(n_points).astype(np.float32),
        lo=np.array([-1.0, -1.0, -1.0]),
        hi=np.array([1.0, 1.0, 1.0]),
        threshold=0.5,
        step=7,
        plot_type="xpxy",
    )


class TestContainer:
    def test_basic_properties(self):
        f = _frame()
        assert f.n_points == 100
        assert f.resolution == (8, 8, 8)
        assert f.nbytes() == 8**3 * 4 + 100 * 12 + 100 * 4

    def test_empty_points(self):
        f = HybridFrame(
            volume=np.zeros((4, 4, 4), dtype=np.float32),
            points=np.empty((0, 3)),
            point_densities=np.empty(0),
            lo=np.zeros(3),
            hi=np.ones(3),
        )
        assert f.n_points == 0
        assert f.max_density() == 0.0

    def test_max_density_covers_both(self):
        f = _frame()
        volume = f.volume.copy()
        volume[0, 0, 0] = 99.0
        f = dataclasses.replace(f, volume=volume)
        assert f.max_density() == pytest.approx(99.0)
        densities = f.point_densities.copy()
        densities[0] = 200.0
        f = dataclasses.replace(f, point_densities=densities)
        assert f.max_density() == pytest.approx(200.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            HybridFrame(
                volume=np.zeros((4, 4)),  # not 3-D
                points=np.zeros((1, 3)),
                point_densities=np.zeros(1),
                lo=np.zeros(3),
                hi=np.ones(3),
            )
        with pytest.raises(ValueError):
            HybridFrame(
                volume=np.zeros((4, 4, 4)),
                points=np.zeros((5, 3)),
                point_densities=np.zeros(3),  # length mismatch
                lo=np.zeros(3),
                hi=np.ones(3),
            )


class TestSerialization:
    def test_bytes_roundtrip(self):
        f = _frame()
        back = HybridFrame.from_bytes(f.to_bytes())
        assert np.array_equal(back.volume, f.volume)
        assert np.array_equal(back.points, f.points)
        assert np.array_equal(back.point_densities, f.point_densities)
        assert back.plot_type == "xpxy"
        assert back.step == 7
        assert back.threshold == 0.5
        assert np.allclose(back.lo, f.lo)
        assert np.allclose(back.hi, f.hi)

    def test_file_roundtrip(self, tmp_path):
        f = _frame(n_points=37, res=6, seed=3)
        path = tmp_path / "x.hybrid"
        nbytes = f.save(path)
        assert path.stat().st_size == nbytes
        back = HybridFrame.load(path)
        assert np.array_equal(back.points, f.points)

    def test_zero_point_roundtrip(self, tmp_path):
        f = HybridFrame(
            volume=np.ones((4, 4, 4), dtype=np.float32),
            points=np.empty((0, 3)),
            point_densities=np.empty(0),
            lo=np.zeros(3),
            hi=np.ones(3),
        )
        path = tmp_path / "z.hybrid"
        f.save(path)
        back = HybridFrame.load(path)
        assert back.n_points == 0
        assert np.array_equal(back.volume, f.volume)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.hybrid"
        p.write_bytes(b"XXXXXXXX" + bytes(128))
        with pytest.raises(ValueError, match="not a hybrid frame"):
            HybridFrame.load(p)

    def test_anisotropic_volume(self):
        f = HybridFrame(
            volume=np.zeros((4, 8, 16), dtype=np.float32),
            points=np.zeros((1, 3)),
            point_densities=np.zeros(1),
            lo=np.zeros(3),
            hi=np.ones(3),
        )
        back = HybridFrame.from_bytes(f.to_bytes())
        assert back.resolution == (4, 8, 16)


class TestImmutable:
    def test_frozen_and_lazy(self, tmp_path, monkeypatch):
        """Writing into any frame array, reassigning a field or adding
        an attribute raises; building or decoding a frame computes no
        key and makes no finiteness pass (the work waits for first use)."""
        from repro.octree.amr import build_amr
        from repro.octree.lod import build_lod
        from repro.octree.stream_partition import partition_store
        from repro.remote.client import VisualizationClient
        from repro.remote.service import VisualizationService

        calls = []

        def spy(fn):
            def wrapped(*args, **kwargs):
                calls.append(fn)
                return fn(*args, **kwargs)

            return wrapped

        rng = np.random.default_rng(4)
        p = np.vstack([rng.normal(0.0, 0.3, (6000, 6)), rng.normal(0.0, 1.8, (600, 6))])
        ps = partition_store(p, tmp_path / "store", "xyz", max_level=4, capacity=64)
        amr = build_amr(ps, bricks=2, brick_cells=4)
        with monkeypatch.context() as m:
            m.setattr(np, "isfinite", spy(np.isfinite))
            m.setattr(hashlib, "blake2b", spy(hashlib.blake2b))
            f = HybridFrame(
                volume=rng.random((4, 4, 4)).astype(np.float32),
                points=rng.random((5, 3)),
                point_densities=rng.random(5),
                lo=-np.ones(3),
                hi=np.ones(3),
                attributes={"energy": rng.random(5)},
                meta={"amr": amr},
            )
            back = HybridFrame.from_bytes(f.to_bytes())
        assert calls == []
        for frame in (f, back):
            assert frame._memo == {}
            for a in (
                frame.volume, frame.points, frame.point_densities, frame.lo,
                frame.hi, frame.attributes["energy"], frame.meta["amr"].data,
            ):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 1.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                frame.volume = np.zeros((2, 2, 2), np.float32)
            with pytest.raises(dataclasses.FrozenInstanceError):
                frame.threshold = 1.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                frame.extra = 1
            with pytest.raises(TypeError):
                frame.attributes["energy"] = np.zeros(5, np.float32)
            with pytest.raises(TypeError):
                frame.meta["amr"] = None
        # the lazily computed fields, once used, are kept and equal
        assert back.key == f.key and back.max_density() == f.max_density()
        assert back.non_finite() == f.non_finite() == frozenset()
        assert set(f._memo) == set(back._memo) == {"key", "max_density", "non_finite"}

        build_lod(ps, levels=2, ratio=4, seed=3, mip_base=16, mip_levels=2)
        with VisualizationService([ps], unit_points=512) as svc:
            with VisualizationClient(svc.address, timeout=5.0) as client:
                thr = float(np.percentile(ps.nodes["density"], 60))
                yields = list(client.iter_hybrid(0, thr, resolution=16))
        assert len(yields) > 1
        for frame in yields:
            assert frame._memo == {}
            with pytest.raises(ValueError, match="read-only"):
                frame.points[0, 0] = 1.0

    def test_views_are_copied(self):
        """A frame holds copies of the views it is given (their bases stay
        writeable), so a write through a base leaves the frame, its key,
        maximum and finiteness as they were; arrays that own their memory
        are kept as they are."""
        from repro.octree.amr import AmrVolume

        rng = np.random.default_rng(6)
        bases = {
            "volume": rng.random((2, 4, 4, 4)).astype(np.float32),
            "points": rng.random((2, 6, 3)).astype(np.float32),
            "point_densities": rng.random((2, 6)).astype(np.float32),
            "energy": rng.random((2, 6)).astype(np.float32),
            "amr": rng.random(2 * 64).astype(np.float32),
        }
        amr = AmrVolume(-np.ones(3), np.ones(3), 2, 2, np.zeros((2, 2, 2)), bases["amr"][:64])
        f = HybridFrame(
            volume=bases["volume"][0],
            points=bases["points"][0],
            point_densities=bases["point_densities"][0],
            lo=-np.ones(3),
            hi=np.ones(3),
            attributes={"energy": bases["energy"][0]},
            meta={"amr": amr},
        )
        held = [f.volume, f.points, f.point_densities, f.attributes["energy"], amr.data]
        before = [a.copy() for a in held]
        key, dmax = f.key, f.max_density()
        for base in bases.values():
            base[...] = np.inf
        for a, b in zip(held, before):
            assert a.tobytes() == b.tobytes()
        # the kept key and maximum still describe the frame's contents
        again = HybridFrame.from_bytes(f.to_bytes())
        assert again.key == key and again.max_density() == dmax
        assert again.non_finite() == frozenset()
        own = np.ones((3, 3, 3), np.float32)
        kept = HybridFrame(own, np.zeros((0, 3)), np.zeros(0), np.zeros(3), np.ones(3))
        assert kept.volume is own

    def test_key_follows_contents(self):
        f = _frame()
        same = HybridFrame.from_bytes(f.to_bytes())
        assert same.key == f.key
        moved = f.points.copy()
        moved[3, 1] += 1.0
        g = dataclasses.replace(f, points=moved)
        assert g.key[0] == f.key[0] and g.key[1] != f.key[1]
        volume = f.volume.copy()
        volume[1, 2, 3] = 7.0
        h = dataclasses.replace(f, volume=volume)
        assert h.key[0] != f.key[0] and h.key[1] == f.key[1]
        colored = dataclasses.replace(f, attributes={"energy": np.ones(f.n_points)})
        assert colored.key[1] != f.key[1]
        back = pickle.loads(pickle.dumps(colored))
        assert back.key == colored.key and not back.attributes["energy"].flags.writeable
