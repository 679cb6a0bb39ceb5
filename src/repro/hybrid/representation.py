"""The hybrid data representation (paper Figure 3).

A frame is stored as

- a low-resolution density *volume* (float32) covering the full plot
  bounds, representing the dense core, and
- the explicit halo *points*: plot-type coordinates (float32 x 3) plus
  the leaf density each point came from (used by the point transfer
  function).

The representation's size does not depend on the input simulation size
-- the property that lets a billion-particle run reduce to the same
hybrid size as a small one (paper section 2.5).

On-disk format (little-endian):

    bytes 0..7    magic b"RPRHYBRD"
    u16           format version (2)
    header        struct: volume resolution (3 x u32), n_points (u64),
                  step (u64), threshold (f8), lo (3 x f8), hi (3 x f8),
                  plot-type name (16 bytes, NUL padded)
    payload       volume float32 C-order, then points float32 (M, 3),
                  then point densities float32 (M,)
    trailer       u32 attribute count, then per attribute:
                  16-byte NUL-padded name + float32 values (M,)
                  (absent in blobs written before attributes existed;
                  readers treat a missing trailer as zero attributes)
    amr (v3)      u64 blob length + one serialized
                  :class:`repro.octree.amr.AmrVolume` (its own magic,
                  header, and CRC)

Version 3 is emitted only when the frame carries an adaptive volume
(``meta['amr']``); frames without one keep writing version-2 bytes
bit-identical to previous releases, so flat extraction output is
stable across this change (gated by ``scripts/check.sh --gate amr``).

Writes are atomic (temp file + ``os.replace``); parsing a damaged
blob raises a typed :class:`repro.core.errors.FormatError` describing
what is wrong instead of numpy decode noise.

The optional *attributes* carry dynamically calculated per-point
properties (momentum magnitude, single-particle emittance, ...; see
:mod:`repro.hybrid.attributes`) so points can be colored "based on
some dynamically calculated property that the scientist is interested
in" (paper section 2.5).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from repro.core.atomic import atomic_write_bytes
from repro.core.errors import FormatError

__all__ = ["HybridFrame"]

MAGIC = b"RPRHYBRD"
FORMAT_VERSION = 2
FORMAT_VERSION_AMR = 3
_HEADER = struct.Struct("<8sH3IQQd3d3d16s")


@dataclass
class HybridFrame:
    """A hybrid volume + points representation of one time step."""

    volume: np.ndarray                    # (rx, ry, rz) float32 density
    points: np.ndarray                    # (M, 3) float32 plot coords
    point_densities: np.ndarray           # (M,) float32 leaf densities
    lo: np.ndarray                        # (3,) plot-coordinate bounds
    hi: np.ndarray
    threshold: float = 0.0                # extraction threshold density
    step: int = 0
    plot_type: str = "xyz"
    attributes: dict = field(default_factory=dict)  # name -> (M,) float32
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.volume = np.ascontiguousarray(self.volume, dtype=np.float32)
        self.points = np.ascontiguousarray(
            np.atleast_2d(self.points), dtype=np.float32
        )
        if self.points.size == 0:
            self.points = self.points.reshape(0, 3)
        self.point_densities = np.ascontiguousarray(
            self.point_densities, dtype=np.float32
        )
        self.lo = np.asarray(self.lo, dtype=np.float64)
        self.hi = np.asarray(self.hi, dtype=np.float64)
        if self.volume.ndim != 3:
            raise ValueError("volume must be 3-D")
        if self.points.shape[1] != 3:
            raise ValueError("points must be (M, 3)")
        if len(self.point_densities) != len(self.points):
            raise ValueError("one density per point required")
        clean_attrs = {}
        for name, values in self.attributes.items():
            values = np.ascontiguousarray(values, dtype=np.float32)
            if len(values) != len(self.points):
                raise ValueError(f"attribute {name!r}: one value per point required")
            clean_attrs[str(name)] = values
        self.attributes = clean_attrs

    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def resolution(self) -> tuple:
        return self.volume.shape

    def nbytes(self) -> int:
        """Size of the payload (the number the paper's storage
        arguments are about)."""
        attr_bytes = sum(a.nbytes for a in self.attributes.values())
        amr = self.meta.get("amr")
        return int(
            self.volume.nbytes
            + self.points.nbytes
            + self.point_densities.nbytes
            + attr_bytes
            + (amr.nbytes if amr is not None else 0)
        )

    def max_density(self) -> float:
        vol_max = float(self.volume.max()) if self.volume.size else 0.0
        pt_max = float(self.point_densities.max()) if self.n_points else 0.0
        return max(vol_max, pt_max)

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to the documented binary layout.

        Flat frames write version 2, byte-for-byte what previous
        releases wrote; frames carrying an adaptive volume write
        version 3 with the AMR blob appended after the trailer.
        """
        amr = self.meta.get("amr")
        name = self.plot_type.encode("ascii")[:16].ljust(16, b"\0")
        header = _HEADER.pack(
            MAGIC,
            FORMAT_VERSION if amr is None else FORMAT_VERSION_AMR,
            *(int(r) for r in self.volume.shape),
            self.n_points,
            int(self.step),
            float(self.threshold),
            *(float(v) for v in self.lo),
            *(float(v) for v in self.hi),
            name,
        )
        parts = [
            header,
            self.volume.tobytes(),
            self.points.tobytes(),
            self.point_densities.tobytes(),
            struct.pack("<I", len(self.attributes)),
        ]
        for attr_name, values in self.attributes.items():
            parts.append(attr_name.encode("ascii")[:16].ljust(16, b"\0"))
            parts.append(values.tobytes())
        if amr is not None:
            blob = amr.to_bytes()
            parts.append(struct.pack("<Q", len(blob)))
            parts.append(blob)
        return b"".join(parts)

    def save(self, path) -> int:
        """Write the frame atomically; returns bytes written."""
        return atomic_write_bytes(path, self.to_bytes())

    @classmethod
    def load(cls, path) -> "HybridFrame":
        with open(path, "rb") as f:
            raw = f.read()
        return cls.from_bytes(raw, source=str(path))

    @classmethod
    def from_bytes(cls, raw: bytes, source: str = "<bytes>") -> "HybridFrame":
        path = source
        if len(raw) < _HEADER.size:
            raise FormatError(f"{path}: truncated hybrid frame header")
        fields = _HEADER.unpack_from(raw, 0)
        magic, version = fields[0], fields[1]
        if magic != MAGIC:
            raise FormatError(f"{path}: not a hybrid frame file")
        if version not in (FORMAT_VERSION, FORMAT_VERSION_AMR):
            raise FormatError(
                f"{path}: unsupported format version {version} "
                f"(expected {FORMAT_VERSION} or {FORMAT_VERSION_AMR})"
            )
        rx, ry, rz = fields[2:5]
        n_points = fields[5]
        step = fields[6]
        threshold = fields[7]
        lo = np.array(fields[8:11])
        hi = np.array(fields[11:14])
        plot_type = fields[14].rstrip(b"\0").decode("ascii")
        off = _HEADER.size
        vol_count = rx * ry * rz
        payload_bytes = vol_count * 4 + n_points * 16
        if len(raw) < off + payload_bytes:
            raise FormatError(
                f"{path}: truncated payload ({len(raw)} bytes, "
                f"{off + payload_bytes} expected for a {rx}x{ry}x{rz} volume "
                f"and {n_points} points)"
            )
        volume = np.frombuffer(raw, dtype="<f4", count=vol_count, offset=off).reshape(
            rx, ry, rz
        )
        off += vol_count * 4
        points = np.frombuffer(raw, dtype="<f4", count=n_points * 3, offset=off).reshape(
            n_points, 3
        )
        off += n_points * 12
        dens = np.frombuffer(raw, dtype="<f4", count=n_points, offset=off)
        off += n_points * 4
        attributes = {}
        if off + 4 <= len(raw):  # blobs without the trailer: no attributes
            (n_attrs,) = struct.unpack_from("<I", raw, off)
            off += 4
            for _ in range(n_attrs):
                if len(raw) < off + 16 + n_points * 4:
                    raise FormatError(
                        f"{path}: truncated attribute trailer "
                        f"({n_attrs} attributes declared)"
                    )
                attr_name = raw[off : off + 16].rstrip(b"\0").decode("ascii")
                off += 16
                values = np.frombuffer(raw, dtype="<f4", count=n_points, offset=off)
                off += n_points * 4
                attributes[attr_name] = values.copy()
        meta = {}
        if version >= FORMAT_VERSION_AMR:
            from repro.octree.amr import AmrVolume

            if len(raw) < off + 8:
                raise FormatError(f"{path}: truncated AMR blob length")
            (blob_len,) = struct.unpack_from("<Q", raw, off)
            off += 8
            if len(raw) < off + blob_len:
                raise FormatError(f"{path}: truncated AMR blob")
            meta["amr"] = AmrVolume.from_bytes(
                raw[off : off + blob_len], source=path
            )
        return cls(
            volume=volume.copy(),
            points=points.copy(),
            point_densities=dens.copy(),
            lo=lo,
            hi=hi,
            threshold=threshold,
            step=step,
            plot_type=plot_type,
            attributes=attributes,
            meta=meta,
        )
