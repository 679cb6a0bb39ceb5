"""Property-based round-trip tests of every binary format."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.dataset import open_dataset
from repro.core.store import create_store
from repro.fieldlines.compact import pack_lines, unpack_lines
from repro.fieldlines.integrate import FieldLine
from repro.hybrid.representation import HybridFrame

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=32)
finite64 = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)


class TestFrameFormat:
    @given(
        particles=arrays(
            np.float64, st.tuples(st.integers(0, 200), st.just(6)), elements=finite64
        ),
        step=st.integers(0, 2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, tmp_path_factory, particles, step):
        path = tmp_path_factory.mktemp("frames") / "step"
        create_store(path, particles, shard_rows=64, step=step)
        back = open_dataset(path)
        assert back.step == step
        assert np.array_equal(back.to_array(), particles)


class TestHybridFormat:
    @given(
        res=st.integers(1, 8),
        n_points=st.integers(0, 100),
        step=st.integers(0, 10**6),
        threshold=st.floats(0.0, 1e9, allow_nan=False),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, res, n_points, step, threshold, data):
        vol = data.draw(arrays(np.float32, (res, res, res), elements=finite))
        pts = data.draw(arrays(np.float32, (n_points, 3), elements=finite))
        dens = data.draw(arrays(np.float32, (n_points,), elements=finite))
        f = HybridFrame(
            volume=vol, points=pts, point_densities=dens,
            lo=np.zeros(3), hi=np.ones(3), step=step, threshold=threshold,
        )
        back = HybridFrame.from_bytes(f.to_bytes())
        assert np.array_equal(back.volume, f.volume)
        assert np.array_equal(back.points, f.points)
        assert np.array_equal(back.point_densities, f.point_densities)
        assert back.step == step


class TestLineFormat:
    @given(data=st.data(), n_lines=st.integers(0, 8), quantize=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_counts(self, data, n_lines, quantize):
        lines = []
        for _ in range(n_lines):
            k = data.draw(st.integers(2, 30))
            pts = data.draw(
                arrays(np.float64, (k, 3),
                       elements=st.floats(-100, 100, allow_nan=False))
            )
            t = np.zeros((k, 3))
            t[:, 0] = 1.0
            mags = data.draw(
                arrays(np.float64, (k,), elements=st.floats(0, 1e3, allow_nan=False))
            )
            lines.append(FieldLine(points=pts, tangents=t, magnitudes=mags))
        back = unpack_lines(pack_lines(lines, quantize=quantize))
        assert [b.n_points for b in back] == [l.n_points for l in lines]
        if not quantize:
            for a, b in zip(lines, back):
                np.testing.assert_allclose(a.points, b.points, rtol=1e-6, atol=1e-4)
