"""Packed field-line storage and the 25x compression accounting.

"Storing the precomputed field lines rather than the raw data can
significantly cut down the data storage and transfer requirements ...
The typical saving is about a factor of 25" (paper section 3.4), and
for the 12-cell structure "over 26 terabytes ... would be needed"
versus the pre-integrated lines (section 3.4 / Figure 9 discussion).

Packed layout (little-endian):

    u64    n_lines
    u64    total points
    u8     quantized flag
    f8 x 6 bounds (lo, hi)  -- used by quantization
    u32[n_lines + 1] point offsets
    payload: points as f4 xyz (or u16 xyz quantized over the bounds),
             then |F| per point as f4

A packed-line file (:func:`write_lines`) is that layout inside a
:class:`repro.core.atomic.CheckedFile` (magic b"RPRLINES", version 3),
so :func:`read_lines` raises a typed
:class:`repro.core.errors.FormatError` naming a damaged, truncated or
foreign file.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.core.atomic import CheckedFile
from repro.fieldlines.integrate import FieldLine

__all__ = [
    "pack_lines", "unpack_lines", "write_lines", "read_lines", "compression_report",
]

_LINES = CheckedFile(b"RPRLINES", 3, "packed field-line", "repro fieldlines --out")
_HEADER = struct.Struct("<QQB6d")


def pack_lines(lines, quantize: bool = False) -> bytes:
    """Serialize field lines to the packed byte format."""
    n_lines = len(lines)
    counts = np.array([line.n_points for line in lines], dtype=np.uint32)
    offsets = np.zeros(n_lines + 1, dtype=np.uint32)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    pts = (
        np.vstack([line.points for line in lines])
        if n_lines
        else np.empty((0, 3))
    )
    mags = (
        np.concatenate([line.magnitudes for line in lines])
        if n_lines
        else np.empty(0)
    )
    if total:
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
    else:
        lo = np.zeros(3)
        hi = np.ones(3)
    header = _HEADER.pack(n_lines, total, 1 if quantize else 0, *lo, *hi)
    parts = [header, offsets.astype("<u4").tobytes()]
    if quantize:
        span = np.where(hi - lo <= 0, 1.0, hi - lo)
        q = np.round((pts - lo) / span * 65535.0).astype("<u2")
        parts.append(q.tobytes())
    else:
        parts.append(pts.astype("<f4").tobytes())
    parts.append(mags.astype("<f4").tobytes())
    return b"".join(parts)


def unpack_lines(data: bytes):
    """Deserialize :func:`pack_lines` output; returns a list of
    :class:`FieldLine` (tangents are recomputed from the polyline)."""
    fields = _HEADER.unpack_from(data, 0)
    n_lines, total, quantized = fields[0], fields[1], fields[2]
    lo = np.array(fields[3:6])
    hi = np.array(fields[6:9])
    off = _HEADER.size
    offsets = np.frombuffer(data, dtype="<u4", count=n_lines + 1, offset=off)
    off += offsets.nbytes
    if quantized:
        q = np.frombuffer(data, dtype="<u2", count=total * 3, offset=off).reshape(
            total, 3
        )
        off += q.nbytes
        pts = lo + q.astype(np.float64) / 65535.0 * (hi - lo)
    else:
        pts = (
            np.frombuffer(data, dtype="<f4", count=total * 3, offset=off)
            .reshape(total, 3)
            .astype(np.float64)
        )
        off += total * 12
    mags = np.frombuffer(data, dtype="<f4", count=total, offset=off).astype(np.float64)
    lines = []
    for i in range(n_lines):
        a, b = int(offsets[i]), int(offsets[i + 1])
        p = pts[a:b]
        tangents = np.gradient(p, axis=0) if len(p) > 1 else np.zeros_like(p)
        norms = np.linalg.norm(tangents, axis=1, keepdims=True)
        tangents = tangents / np.where(norms < 1e-12, 1.0, norms)
        lines.append(
            FieldLine(points=p, tangents=tangents, magnitudes=mags[a:b], order=i)
        )
    return lines


def write_lines(path, lines, quantize: bool = False) -> int:
    """Write field lines as a checked packed-line file, atomically;
    returns bytes written."""
    return _LINES.write(path, pack_lines(lines, quantize=quantize))


def read_lines(path):
    """Read a packed-line file; raises
    :class:`repro.core.errors.FormatError` naming ``path`` on damage."""
    return unpack_lines(_LINES.read(path))


def compression_report(mesh, lines, n_time_steps: int = 1, quantize: bool = False) -> dict:
    """Raw-fields vs packed-lines storage accounting.

    ``raw_bytes`` counts E and B per vertex per time step (the "80
    megabytes of storage space to save one time step of the electric
    and magnetic fields together"); ``line_bytes`` is the packed blob.
    """
    per_step_raw = mesh.n_vertices * 6 * 8  # E + B, 3 doubles each
    raw = per_step_raw * n_time_steps
    blob = pack_lines(lines, quantize=quantize)
    packed = len(blob) * n_time_steps
    return {
        "n_vertices": mesh.n_vertices,
        "n_lines": len(lines),
        "n_time_steps": n_time_steps,
        "raw_bytes_per_step": per_step_raw,
        "line_bytes_per_step": len(blob),
        "raw_bytes": raw,
        "line_bytes": packed,
        "compression_factor": raw / max(packed, 1),
    }
