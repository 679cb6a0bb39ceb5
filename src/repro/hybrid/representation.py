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

A ``.hybrid`` file is this layout inside a
:class:`repro.core.atomic.CheckedFile` (magic b"RPRHYBRD", version 4):
written atomically and CRC-checked on load, so a damaged file raises a
typed :class:`repro.core.errors.FormatError` naming it.  Parsing a
damaged blob raises one too, instead of numpy decode noise.

The optional *attributes* carry dynamically calculated per-point
properties (momentum magnitude, single-particle emittance, ...; see
:mod:`repro.hybrid.attributes`) so points can be colored "based on
some dynamically calculated property that the scientist is interested
in" (paper section 2.5).

A frame is immutable: its fields cannot be reassigned, its arrays,
attribute values and AMR cells are read-only, and its ``attributes``
and ``meta`` are read-only mappings.  Per-frame work is therefore done
once per frame: the content :attr:`HybridFrame.key`,
:meth:`HybridFrame.max_density` and the finiteness pass
:meth:`HybridFrame.non_finite` are computed on first use and kept.
Building or decoding a frame computes none of them.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from repro.core.atomic import CheckedFile
from repro.core.errors import FormatError

__all__ = ["HybridFrame"]

MAGIC = b"RPRHYBRD"
FORMAT_VERSION = 2
FORMAT_VERSION_AMR = 3
_HEADER = struct.Struct("<8sH3IQQd3d3d16s")
_HYBRID = CheckedFile(MAGIC, 4, "hybrid frame", "repro extract")


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a`` made read-only, copied first when it is a view: a view's
    base would stay writeable, and a write through it would leave the
    frame's key, maximum and finiteness stale."""
    if a.base is not None:
        a = a.copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class HybridFrame:
    """A hybrid volume + points representation of one time step.

    Immutable: the arrays it is given are made read-only in place (pass
    a copy to keep a writeable one; a view is copied, since its base
    would stay writeable), and a changed frame is a new one
    (``dataclasses.replace``).  The one remaining way to write a
    frame's data is through the ``.base`` of a progressive stream's
    intermediate frame (:meth:`_over_prefix`), whose owner never does.
    """

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
    # key, max densities and finiteness, each computed on first use
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        def put(name, value):
            object.__setattr__(self, name, value)

        volume = np.ascontiguousarray(self.volume, dtype=np.float32)
        points = np.ascontiguousarray(np.atleast_2d(self.points), dtype=np.float32)
        if points.size == 0:
            points = points.reshape(0, 3)
        point_densities = np.ascontiguousarray(self.point_densities, dtype=np.float32)
        if volume.ndim != 3:
            raise ValueError("volume must be 3-D")
        if points.shape[1] != 3:
            raise ValueError("points must be (M, 3)")
        if len(point_densities) != len(points):
            raise ValueError("one density per point required")
        clean_attrs = {}
        for name, values in self.attributes.items():
            values = np.ascontiguousarray(values, dtype=np.float32)
            if len(values) != len(points):
                raise ValueError(f"attribute {name!r}: one value per point required")
            clean_attrs[str(name)] = values
        # frozen only once every check has passed
        clean_attrs = {name: _read_only(values) for name, values in clean_attrs.items()}
        amr = self.meta.get("amr")
        if amr is not None:
            amr.data = _read_only(amr.data)
            amr.levels = _read_only(amr.levels)
        put("volume", _read_only(volume))
        put("points", _read_only(points))
        put("point_densities", _read_only(point_densities))
        put("lo", _read_only(np.array(self.lo, dtype=np.float64)))
        put("hi", _read_only(np.array(self.hi, dtype=np.float64)))
        put("attributes", MappingProxyType(clean_attrs))
        put("meta", MappingProxyType(dict(self.meta)))

    @classmethod
    def _over_prefix(cls, like: "HybridFrame", volume, points, point_densities):
        """``like``'s bounds, threshold, step and plot type over
        ``volume`` and the prefix views ``points`` and
        ``point_densities``, made read-only and kept as views.

        Only for buffers whose owner never writes below the length of
        a view it has handed out: ``VisualizationClient.iter_hybrid``'s
        arrival-order buffers, which only append past the rows they
        have yielded.  Everything else goes through the constructor,
        which copies a view.
        """
        frame = cls(
            volume=volume, points=points[:0], point_densities=point_densities[:0],
            lo=like.lo, hi=like.hi, threshold=like.threshold, step=like.step,
            plot_type=like.plot_type,
        )
        for name, view in (("points", points), ("point_densities", point_densities)):
            view.flags.writeable = False
            object.__setattr__(frame, name, view)
        return frame

    def __reduce__(self):
        # rebuilt through the constructor: mapping proxies do not pickle,
        # and unpickled arrays would come back writeable
        return type(self), (
            self.volume, self.points, self.point_densities, self.lo, self.hi,
            self.threshold, self.step, self.plot_type,
            dict(self.attributes), dict(self.meta),
        )

    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def resolution(self) -> tuple:
        return self.volume.shape

    @property
    def key(self) -> tuple:
        """``(density digest, point digest)``: BLAKE2b digests of the
        frame's contents, computed once per frame.

        The density half covers the volume (and the AMR cells and level
        map), the point half the points, their densities and the
        attributes, so frames at several thresholds that share one
        volume share the density half.
        """
        key = self._memo.get("key")
        if key is None:
            vol = hashlib.blake2b(digest_size=16)
            vol.update(repr(self.volume.shape).encode())
            vol.update(self.volume)
            amr = self.meta.get("amr")
            if amr is not None:
                vol.update(repr((amr.bricks, amr.brick_cells, amr.level_hash)).encode())
                vol.update(amr.data)
            pts = hashlib.blake2b(digest_size=16)
            pts.update(self.points)
            pts.update(self.point_densities)
            for name, values in self.attributes.items():
                pts.update(name.encode() + b"\0")
                pts.update(values)
            key = self._memo["key"] = (vol.digest(), pts.digest())
        return key

    def non_finite(self) -> frozenset:
        """The arrays holding a NaN or an infinity, computed once per frame.

        Members are ``"volume"``, ``"points"``, ``"point_densities"``,
        ``"amr"`` (the adaptive cells) and ``("attributes", name)``.
        """
        bad = self._memo.get("non_finite")
        if bad is None:
            arrays = {
                "volume": self.volume,
                "points": self.points,
                "point_densities": self.point_densities,
            }
            amr = self.meta.get("amr")
            if amr is not None:
                arrays["amr"] = amr.data
            for name, values in self.attributes.items():
                arrays[("attributes", name)] = values
            bad = self._memo["non_finite"] = frozenset(
                name for name, a in arrays.items() if not np.isfinite(a).all()
            )
        return bad

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
        """The larger of the volume's and the points' maximum density
        (computed once per frame)."""
        dmax = self._memo.get("max_density")
        if dmax is None:
            vol_max = float(self.volume.max()) if self.volume.size else 0.0
            pt_max = float(self.point_densities.max()) if self.n_points else 0.0
            dmax = self._memo["max_density"] = max(vol_max, pt_max)
        return dmax

    def amr_max_density(self) -> float:
        """The adaptive cells' maximum density, 0.0 without them
        (computed once per frame)."""
        dmax = self._memo.get("amr_max_density")
        if dmax is None:
            amr = self.meta.get("amr")
            dmax = self._memo["amr_max_density"] = 0.0 if amr is None else amr.max_density()
        return dmax

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
        """Write the frame as a checked ``.hybrid`` file; returns bytes
        written."""
        return _HYBRID.write(path, self.to_bytes())

    @classmethod
    def load(cls, path) -> "HybridFrame":
        return cls.from_bytes(_HYBRID.read(path), source=str(path))

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
                attr_name = bytes(raw[off : off + 16]).rstrip(b"\0").decode("ascii")
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
