"""Packed line storage and compression accounting."""

import numpy as np
import pytest

from repro.core.errors import FormatError
from repro.fieldlines.compact import (
    compression_report, pack_lines, read_lines, unpack_lines, write_lines,
)
from repro.fieldlines.integrate import FieldLine


def _lines(n=5, k=20, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        pts = np.cumsum(rng.uniform(-0.1, 0.1, (k, 3)), axis=0)
        t = np.gradient(pts, axis=0)
        t /= np.linalg.norm(t, axis=1, keepdims=True)
        out.append(
            FieldLine(points=pts, tangents=t, magnitudes=rng.random(k), order=i)
        )
    return out


class TestPackUnpack:
    def test_roundtrip_float32(self):
        lines = _lines()
        back = unpack_lines(pack_lines(lines))
        assert len(back) == len(lines)
        for a, b in zip(lines, back):
            assert np.allclose(a.points, b.points, atol=1e-6)
            assert np.allclose(a.magnitudes, b.magnitudes, atol=1e-6)
            assert b.order == a.order

    def test_roundtrip_quantized(self):
        lines = _lines()
        back = unpack_lines(pack_lines(lines, quantize=True))
        span = np.vstack([l.points for l in lines])
        scale = (span.max(axis=0) - span.min(axis=0)).max()
        for a, b in zip(lines, back):
            assert np.allclose(a.points, b.points, atol=scale / 65000.0 * 2)

    def test_quantized_smaller(self):
        lines = _lines(10, 50)
        assert len(pack_lines(lines, quantize=True)) < len(pack_lines(lines))

    def test_variable_lengths(self):
        rng = np.random.default_rng(1)
        lines = []
        for i, k in enumerate((2, 7, 31)):
            pts = rng.random((k, 3))
            lines.append(
                FieldLine(
                    points=pts,
                    tangents=np.tile([1.0, 0, 0], (k, 1)),
                    magnitudes=np.ones(k),
                )
            )
        back = unpack_lines(pack_lines(lines))
        assert [b.n_points for b in back] == [2, 7, 31]

    def test_empty(self):
        assert unpack_lines(pack_lines([])) == []

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "l.bin"
        path.write_bytes(b"GARBAGE!" + bytes(64))
        with pytest.raises(FormatError, match="not a packed field-line file"):
            read_lines(path)

    def test_file_roundtrip(self, tmp_path):
        lines = _lines()
        path = tmp_path / "l.bin"
        assert write_lines(path, lines, quantize=True) == path.stat().st_size
        back = read_lines(path)
        for a, b in zip(unpack_lines(pack_lines(lines, quantize=True)), back):
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.magnitudes, b.magnitudes)

    def test_tangents_recomputed_unit(self):
        back = unpack_lines(pack_lines(_lines(2, 10)))
        for line in back:
            norms = np.linalg.norm(line.tangents, axis=1)
            assert np.allclose(norms, 1.0, atol=1e-6)


class TestCompressionReport:
    def test_fields_and_arithmetic(self, structure3, mode3, ordered_lines):
        rep = compression_report(structure3.mesh, ordered_lines.lines, n_time_steps=4)
        assert rep["raw_bytes_per_step"] == structure3.mesh.n_vertices * 48
        assert rep["raw_bytes"] == 4 * rep["raw_bytes_per_step"]
        assert rep["line_bytes"] == 4 * rep["line_bytes_per_step"]
        assert rep["compression_factor"] == pytest.approx(
            rep["raw_bytes"] / rep["line_bytes"]
        )

    def test_larger_mesh_better_ratio(self, ordered_lines):
        """The paper's 25x arises at production mesh sizes: the ratio
        grows linearly with vertex count at fixed line budget."""
        from repro.fields.geometry import make_multicell_structure

        small = make_multicell_structure(3, n_xy=4, n_z_per_unit=4)
        big = make_multicell_structure(3, n_xy=10, n_z_per_unit=10)
        r_small = compression_report(small.mesh, ordered_lines.lines)
        r_big = compression_report(big.mesh, ordered_lines.lines)
        assert (
            r_big["compression_factor"]
            > 3 * r_small["compression_factor"]
        )
