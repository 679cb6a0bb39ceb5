"""Cached per-frame slice geometry for the view-aligned volume renderer.

For every slice of every frame, :func:`repro.render.volume.render_mixed`
needs the same purely geometric quantities: which pixels a slice
covers, which eight voxels each covered pixel samples, and the
trilinear weights of those voxels.  None of that depends on the volume
*contents* -- only on the camera, the volume's grid shape, its world
bounds, and the slice count.  Animation orbits and interactive viewers
revisit the same cameras over and over (the paper's viewer redraws the
same viewpoint every time a transfer function is edited), so this
module precomputes that geometry once per distinct viewpoint and
reuses it:

``FrameGeometry``
    The per-slice sample table, stored as one stacked CSR resampling
    matrix (rows = covered samples across all slices, columns =
    voxels, eight weights per row).  Sampling a whole frame is then a
    single sparse matrix--dense matrix product.

``FrameGeometryCache``
    A byte-bounded LRU of geometries keyed on the camera/volume-shape/
    bounds/slice-count tuple, with ``frame_cache_hit`` /
    ``frame_cache_miss`` trace counters so cache effectiveness shows
    up in ``--trace`` output and the BENCH json.

The cached and uncached paths share every line of arithmetic -- a
cache hit returns the same arrays a fresh build would produce -- so
images are bit-identical either way (tested in
``tests/render/test_frame_cache.py``).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import scipy.sparse as sp

from repro.core.trace import count, span

__all__ = [
    "FrameGeometry",
    "FrameGeometryCache",
    "frame_geometry_cache",
    "set_frame_geometry_cache",
    "geometry_key",
]


def geometry_key(camera, vol_shape, lo, hi, n_slices: int):
    """Hashable identity of a (camera, volume grid, slicing) combination.

    Two calls produce equal keys exactly when a fresh
    :meth:`FrameGeometry.build` would produce identical geometry:
    every camera parameter, the volume's grid shape, the world bounds,
    and the slice count all participate.  Volume *contents* and the
    transfer function do not -- they are applied per frame on top of
    the cached geometry.
    """
    return (
        int(camera.width),
        int(camera.height),
        float(camera.fov_y),
        float(camera.near),
        float(camera.far),
        tuple(float(v) for v in np.asarray(camera.eye).ravel()),
        tuple(float(v) for v in np.asarray(camera.target).ravel()),
        tuple(float(v) for v in np.asarray(camera.up).ravel()),
        tuple(int(s) for s in vol_shape),
        tuple(float(v) for v in np.asarray(lo).ravel()),
        tuple(float(v) for v in np.asarray(hi).ravel()),
        int(n_slices),
    )


class FrameGeometry:
    """Precomputed view-aligned slice sampling geometry.

    Attributes
    ----------
    key : the :func:`geometry_key` this geometry was built for
    d0, d1, slab : depth range of the volume and per-slab thickness
    depths : (n_slices,) slice-plane depths, back to front
    pix : (R,) int32 flat pixel index of each covered sample
    row_start : (n_slices + 1,) row offsets; slice ``s`` owns rows
        ``row_start[s]:row_start[s + 1]``
    matrix : (R, n_voxels) CSR trilinear resampling operator
    nbytes : approximate memory footprint (for cache budgeting)

    ``empty`` geometries (volume entirely outside the depth range)
    carry ``matrix=None`` and zero rows.
    """

    __slots__ = (
        "key", "d0", "d1", "slab", "depths", "pix", "row_start",
        "matrix", "nbytes",
    )

    def __init__(self, key, d0, d1, slab, depths, pix, row_start, matrix):
        self.key = key
        self.d0 = d0
        self.d1 = d1
        self.slab = slab
        self.depths = depths
        self.pix = pix
        self.row_start = row_start
        self.matrix = matrix
        self.nbytes = int(
            pix.nbytes
            + row_start.nbytes
            + depths.nbytes
            + (
                matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
                if matrix is not None
                else 0
            )
        )

    @property
    def empty(self) -> bool:
        return self.matrix is None or self.matrix.shape[0] == 0

    @property
    def n_slices(self) -> int:
        return len(self.depths)

    def slice_rows(self, s: int) -> slice:
        """Row range of slice ``s`` into :meth:`sample`'s output."""
        return slice(int(self.row_start[s]), int(self.row_start[s + 1]))

    def sample(self, flat_volume: np.ndarray) -> np.ndarray:
        """Resample the volume at every covered sample of every slice.

        ``flat_volume`` is the (n_voxels, C) row-major flattened
        volume; returns (R, C) trilinearly interpolated values.
        """
        if self.empty:
            return np.zeros((0, flat_volume.shape[1]))
        return self.matrix @ flat_volume

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, camera, vol_shape, lo, hi, n_slices: int) -> "FrameGeometry":
        """Compute the geometry for one viewpoint (the cache-miss path)."""
        from repro.render.volume import volume_depth_range

        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        key = geometry_key(camera, vol_shape, lo, hi, n_slices)
        nx, ny, nz = (int(s) for s in vol_shape[:3])

        d0, d1 = volume_depth_range(camera, lo, hi)
        if d1 <= d0:
            return cls(
                key, d0, d1, 0.0, np.zeros(0),
                np.zeros(0, np.int32), np.zeros(1, np.int64), None,
            )
        slab = (d1 - d0) / n_slices
        depths = d1 - (np.arange(n_slices, dtype=np.float64) + 0.5) * slab

        origins, dirs = camera.pixel_rays()
        cos = np.maximum(dirs @ camera.forward, 1e-9)
        box_span = np.maximum(hi - lo, 1e-300)

        # corner strides of the flattened (nx, ny, nz) grid; clamped
        # axes (grid one voxel wide) collapse their stride to zero
        sx = ny * nz if nx > 1 else 0
        sy = nz if ny > 1 else 0
        sz = 1 if nz > 1 else 0
        corner_offsets = np.array(
            [0, sx, sy, sx + sy, sz, sx + sz, sy + sz, sx + sy + sz],
            dtype=np.int64,
        )

        pix_parts: list[np.ndarray] = []
        idx_parts: list[np.ndarray] = []
        w_parts: list[np.ndarray] = []
        row_start = np.zeros(n_slices + 1, dtype=np.int64)
        # index math one axis column at a time: the values of the
        # (H*W, 3) broadcasts, computed with full-length inner loops
        eye = [origins[:, a] for a in range(3)]
        ray = [np.ascontiguousarray(dirs[:, a]) for a in range(3)]
        for s in range(n_slices):
            t = depths[s] / cos
            cx, cy, cz = (
                (eye[a] + ray[a] * t - lo[a]) / box_span[a] for a in range(3)
            )
            inside = (cx >= 0.0) & (cx <= 1.0)
            inside &= (cy >= 0.0) & (cy <= 1.0)
            inside &= (cz >= 0.0) & (cz <= 1.0)
            act = np.flatnonzero(inside)
            row_start[s + 1] = row_start[s] + len(act)
            if len(act) == 0:
                continue
            # cell-centered texel convention, identical to
            # repro.render.volume.trilinear_sample
            fx = np.clip(cx[act] * nx - 0.5, 0.0, nx - 1.0)
            fy = np.clip(cy[act] * ny - 0.5, 0.0, ny - 1.0)
            fz = np.clip(cz[act] * nz - 0.5, 0.0, nz - 1.0)
            x0 = (
                np.minimum(fx.astype(np.int64), nx - 2)
                if nx > 1 else np.zeros(len(act), np.int64)
            )
            y0 = (
                np.minimum(fy.astype(np.int64), ny - 2)
                if ny > 1 else np.zeros(len(act), np.int64)
            )
            z0 = (
                np.minimum(fz.astype(np.int64), nz - 2)
                if nz > 1 else np.zeros(len(act), np.int64)
            )
            tx = fx - x0
            ty = fy - y0
            tz = fz - z0
            wx0, wx1 = 1.0 - tx, tx
            wy0, wy1 = 1.0 - ty, ty
            wz0, wz1 = 1.0 - tz, tz
            w = np.empty((len(act), 8))
            w[:, 0] = wx0 * wy0 * wz0
            w[:, 1] = wx1 * wy0 * wz0
            w[:, 2] = wx0 * wy1 * wz0
            w[:, 3] = wx1 * wy1 * wz0
            w[:, 4] = wx0 * wy0 * wz1
            w[:, 5] = wx1 * wy0 * wz1
            w[:, 6] = wx0 * wy1 * wz1
            w[:, 7] = wx1 * wy1 * wz1
            base = (x0 * ny + y0) * nz + z0
            idx = base[:, None] + corner_offsets[None, :]
            pix_parts.append(act.astype(np.int32))
            idx_parts.append(idx.astype(np.int32))
            w_parts.append(w)

        n_rows = int(row_start[-1])
        if n_rows == 0:
            return cls(
                key, d0, d1, slab, depths,
                np.zeros(0, np.int32), row_start, None,
            )
        pix = np.concatenate(pix_parts)
        data = np.concatenate(w_parts).ravel()
        indices = np.concatenate(idx_parts).ravel()
        indptr = np.arange(0, n_rows * 8 + 1, 8, dtype=np.int64)
        matrix = sp.csr_matrix(
            (data, indices, indptr), shape=(n_rows, nx * ny * nz), copy=False
        )
        return cls(key, d0, d1, slab, depths, pix, row_start, matrix)


class FrameGeometryCache:
    """Byte-bounded LRU cache of :class:`FrameGeometry` objects.

    Parameters
    ----------
    max_entries : maximum number of distinct viewpoints retained
    max_bytes : total geometry-byte budget; least-recently-used
        entries are evicted once exceeded
    """

    def __init__(self, max_entries: int = 8, max_bytes: int = 512 * 1024 * 1024):
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[tuple, FrameGeometry] = OrderedDict()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def get(self, camera, vol_shape, lo, hi, n_slices: int) -> FrameGeometry:
        """Return the geometry for this viewpoint, building on a miss."""
        key = geometry_key(camera, vol_shape, lo, hi, n_slices)
        return self.get_keyed(
            key,
            lambda: FrameGeometry.build(camera, vol_shape, lo, hi, n_slices),
            n_slices=n_slices,
        )

    def get_keyed(self, key, builder, *, n_slices: int = 0) -> FrameGeometry:
        """Look up an arbitrary geometry key, calling ``builder`` on a miss.

        This is how non-uniform volumes (AMR bricks, whose key extends
        :func:`geometry_key` with the brick-manifest hash) share one
        LRU with flat volumes: key construction stays with the caller,
        hit/miss accounting and byte-budget eviction stay here.
        """
        geo = self._entries.get(key)
        if geo is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            count("frame_cache_hit")
            return geo
        self.misses += 1
        count("frame_cache_miss")
        with span("frame_geometry_build", n_slices=int(n_slices)):
            geo = builder()
        self._entries[key] = geo
        self._evict()
        return geo

    def _evict(self) -> None:
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        while self.total_bytes > self.max_bytes and len(self._entries) > 1:
            self._entries.popitem(last=False)

    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return sum(g.nbytes for g in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        # an *empty* cache is still a cache -- never falsy, so
        # ``cache or default`` style checks cannot bypass it
        return True

    def __contains__(self, key) -> bool:
        return key in self._entries

    def clear(self) -> None:
        """Drop every cached geometry (statistics are kept)."""
        self._entries.clear()

    def stats(self) -> dict:
        """Hit/miss/size statistics for reports and tests."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
            "bytes": self.total_bytes,
        }


# ----------------------------------------------------------------------
# the process-global cache used by render_mixed by default
_cache = FrameGeometryCache()


def frame_geometry_cache() -> FrameGeometryCache:
    """The process-global geometry cache."""
    return _cache


def set_frame_geometry_cache(cache: FrameGeometryCache) -> FrameGeometryCache:
    """Swap the process-global cache; returns the previous one."""
    global _cache
    previous, _cache = _cache, cache
    return previous
