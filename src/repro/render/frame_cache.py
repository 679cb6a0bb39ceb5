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
    bounds/slice-count/box tuple, with ``frame_cache_hit`` /
    ``frame_cache_miss`` trace counters so cache effectiveness shows
    up in ``--trace`` output and the BENCH json.

The cached and uncached paths share every line of arithmetic -- a
cache hit returns the same arrays a fresh build would produce -- so
images are bit-identical either way (tested in
``tests/render/test_frame_cache.py``).

A geometry also memoizes, per volume occupancy, which of its rows can
see a voxel with nonzero alpha (:meth:`FrameGeometry.live_rows`, the
compositor's empty-space skip), and counts those bytes toward the
cache budget.

A build may be restricted to an occupied voxel *box*: it then holds
only the rows whose trilinear stencil reaches the box (every other row
samples alpha-0 voxels only), while its depths, ``empty``,
``full_rows`` and ``covered`` mask stay those of the whole volume.  The
box is part of the key.  A cached geometry of the same view whose box
contains a new box serves it, and a view builds the whole grid once a
second box misses its cached one (:meth:`FrameGeometryCache.get`), so
under transfer-function edits that move the box a view builds at most
one non-empty box and the whole grid.
"""

from __future__ import annotations

import hashlib
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
    "occupied_box",
]


def geometry_key(camera, vol_shape, lo, hi, n_slices: int, box=None):
    """Hashable identity of a (camera, volume grid, slicing, box) combination.

    Two calls produce equal keys exactly when a fresh
    :meth:`FrameGeometry.build` would produce identical geometry:
    every camera parameter, the volume's grid shape, the world bounds,
    the slice count and the occupied box (``None``: the whole grid)
    all participate.  Volume *contents* and the transfer function do
    not -- they are applied per frame on top of the cached geometry.
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
        None if box is None else tuple(int(b) for b in box),
    )


_EMPTY_BOX = (0, 0, 0, 0, 0, 0)


def occupied_box(occupied: np.ndarray):
    """The voxel box holding every ``True`` of a 3-D occupancy grid.

    Returns ``(x0, x1, y0, y1, z0, z1)``, half-open index ranges,
    ``(0, 0, 0, 0, 0, 0)`` when nothing is occupied, or ``None`` when
    the box is the whole grid.
    """
    box = []
    for axis in range(3):
        others = tuple(a for a in range(3) if a != axis)
        hit = np.flatnonzero(occupied.any(axis=others))
        if len(hit) == 0:
            return _EMPTY_BOX
        box += [int(hit[0]), int(hit[-1]) + 1]
    if box == [0, occupied.shape[0], 0, occupied.shape[1], 0, occupied.shape[2]]:
        return None
    return tuple(box)


def _box_contains(outer, inner) -> bool:
    """Whether voxel box ``outer`` (``None``: the whole grid) holds every
    voxel of the box ``inner``; an empty box lies in every box."""
    if outer is None or inner == _EMPTY_BOX:
        return True
    return all(
        outer[2 * a] <= inner[2 * a] and inner[2 * a + 1] <= outer[2 * a + 1]
        for a in range(3)
    )


def _pixel_rect(camera, lo, hi) -> np.ndarray:
    """Flat indices, ascending, of the pixels whose rays can meet the box [lo, hi].

    The projection of a box wholly in front of the camera is the convex
    hull of its projected corners, so a pixel whose center lies outside
    their bounding rectangle sees none of it; the rectangle is widened
    by one pixel on each side against rounding.  Every pixel (counted
    as ``frame_geometry_full_screen``) when a corner is at or behind
    ``near``, where that argument fails.
    """
    w, h = int(camera.width), int(camera.height)
    corners = np.array(
        [[x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])]
    )
    xy, depth, _ = camera.project(corners)
    if not np.all(depth > camera.near):
        count("frame_geometry_full_screen")
        return np.arange(w * h)
    x0 = max(int(np.floor(xy[:, 0].min())) - 1, 0)
    x1 = max(min(int(np.ceil(xy[:, 0].max())) + 1, w), x0)
    y0 = max(int(np.floor(xy[:, 1].min())) - 1, 0)
    y1 = max(min(int(np.ceil(xy[:, 1].max())) + 1, h), y0)
    return (np.arange(y0, y1)[:, None] * w + np.arange(x0, x1)[None, :]).ravel()


class FrameGeometry:
    """Precomputed view-aligned slice sampling geometry.

    Attributes
    ----------
    key : the :func:`geometry_key` this geometry was built for
    d0, d1, slab : depth range of the volume and per-slab thickness
    depths : (n_slices,) slice-plane depths, back to front
    pix : (R,) int32 flat pixel index of each built sample
    row_start : (n_slices + 1,) row offsets; slice ``s`` owns rows
        ``row_start[s]:row_start[s + 1]``
    matrix : (R, n_voxels) CSR trilinear resampling operator
    full_rows : samples inside the whole volume, built or not (``R``
        unless the build was restricted to an occupied box)
    nbytes : approximate memory footprint, memos included (for cache
        budgeting)

    ``empty`` geometries (no sample inside the volume) carry
    ``matrix=None`` and zero rows; a box-restricted build with no row
    reaching its box also has ``matrix=None`` but is not ``empty``.
    """

    __slots__ = (
        "key", "d0", "d1", "slab", "depths", "pix", "row_start",
        "matrix", "full_rows", "_own_bytes", "_covered", "_live",
    )

    def __init__(
        self, key, d0, d1, slab, depths, pix, row_start, matrix,
        covered=None, full_rows=None,
    ):
        self.key = key
        self.d0 = d0
        self.d1 = d1
        self.slab = slab
        self.depths = depths
        self.pix = pix
        self.row_start = row_start
        self.matrix = matrix
        self.full_rows = int(row_start[-1]) if full_rows is None else int(full_rows)
        self._own_bytes = int(
            pix.nbytes
            + row_start.nbytes
            + depths.nbytes
            + (
                matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
                if matrix is not None
                else 0
            )
        )
        # (n_pixels,) bool mask of covered pixels: stored by a box-restricted
        # build, derived from ``pix`` on first use otherwise
        self._covered = covered
        self._live = None  # (occupancy digest, live row indices or None = all)

    @property
    def nbytes(self) -> int:
        n = self._own_bytes
        if self._covered is not None:
            n += self._covered.nbytes
        if self._live is not None and self._live[1] is not None:
            n += self._live[1].nbytes
        return n

    @property
    def empty(self) -> bool:
        return self.full_rows == 0

    @property
    def n_slices(self) -> int:
        return len(self.depths)

    def slice_rows(self, s: int) -> slice:
        """Row range of slice ``s`` into :meth:`sample`'s output."""
        return slice(int(self.row_start[s]), int(self.row_start[s + 1]))

    def sample(self, flat_volume: np.ndarray) -> np.ndarray:
        """Resample the volume at every built sample of every slice.

        ``flat_volume`` is the (n_voxels, C) row-major flattened
        volume; returns (R, C) trilinearly interpolated values.
        """
        if self.matrix is None:
            return np.zeros((0, flat_volume.shape[1]))
        return self.matrix @ flat_volume

    def covered(self, n_pixels: int) -> np.ndarray:
        """(n_pixels,) bool mask of the pixels any slice covers (memoized)."""
        if self._covered is None:
            mask = np.zeros(n_pixels, dtype=bool)
            mask[self.pix] = True
            self._covered = mask
        return self._covered

    def live_rows(self, occupied: np.ndarray) -> "FrameGeometry":
        """This geometry restricted to the rows that can see an occupied voxel.

        ``occupied`` is the (n_voxels,) bool mask of voxels with nonzero
        alpha.  Weights are >= 0, so a row is dropped only when every
        weight x occupancy product is 0.  Selecting CSR rows keeps each
        row's summation order, so sampling the result equals the
        matching rows of :meth:`sample` bit for bit.  The live row
        indices are memoized in one entry, keyed on a digest of the
        packed mask; the restricted table is selected on each call and
        not kept, so a geometry used once holds no copy of its rows.
        Returns ``self`` when every row is live.
        """
        if self.matrix is None:
            return self
        key = hashlib.blake2b(np.packbits(occupied), digest_size=16).digest()
        memo = self._live
        if memo is None or memo[0] != key:
            live = np.flatnonzero(self.matrix @ occupied.astype(np.float64))
            memo = self._live = (key, None if len(live) == len(self.pix) else live)
        live = memo[1]
        if live is None:
            return self
        return FrameGeometry(
            self.key, self.d0, self.d1, self.slab, self.depths,
            self.pix[live], np.searchsorted(live, self.row_start), self.matrix[live],
        )

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, camera, vol_shape, lo, hi, n_slices: int, box=None) -> "FrameGeometry":
        """Compute the geometry for one viewpoint (the cache-miss path).

        ``box`` (see :func:`occupied_box`) restricts the built rows to
        those whose trilinear stencil reaches the occupied voxels; the
        inside test still runs over the whole volume, so ``full_rows``
        and the ``covered`` mask (stored as the slices are walked) are
        the unrestricted geometry's.  Each built row's gather indices
        and weights are the unrestricted build's, bit for bit.
        """
        from repro.render.volume import volume_depth_range

        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        key = geometry_key(camera, vol_shape, lo, hi, n_slices, box)
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
        # the inside test runs over the pixels that can see the volume;
        # rays and cosines are computed for every pixel, then gathered,
        # so each pixel's values are the full-screen ones
        rect = _pixel_rect(camera, lo, hi)
        cos = cos[rect]

        # corner strides of the flattened (nx, ny, nz) grid; clamped
        # axes (grid one voxel wide) collapse their stride to zero
        sx = ny * nz if nx > 1 else 0
        sy = nz if ny > 1 else 0
        sz = 1 if nz > 1 else 0
        corner_offsets = np.array(
            [0, sx, sy, sx + sy, sz, sx + sz, sy + sz, sx + sy + sz],
            dtype=np.int64,
        )
        # a row's stencil spans voxels c0..c0+1 on an axis (c0 alone when
        # the axis is one voxel wide); it reaches the box when that span
        # meets the box's range on all three axes
        reach = None if box is None else [
            (box[2 * a] - (n > 1), box[2 * a + 1]) for a, n in enumerate((nx, ny, nz))
        ]
        cov = None if box is None else np.zeros(len(rect), dtype=bool)

        pix_parts: list[np.ndarray] = []
        idx_parts: list[np.ndarray] = []
        w_parts: list[np.ndarray] = []
        row_start = np.zeros(n_slices + 1, dtype=np.int64)
        full_rows = 0
        # index math one axis column at a time: the values of the
        # (H*W, 3) broadcasts, computed with full-length inner loops
        eye = [origins[rect, a] for a in range(3)]
        ray = [dirs[rect, a] for a in range(3)]
        for s in range(n_slices):
            t = depths[s] / cos
            cx, cy, cz = (
                (eye[a] + ray[a] * t - lo[a]) / box_span[a] for a in range(3)
            )
            inside = (cx >= 0.0) & (cx <= 1.0)
            inside &= (cy >= 0.0) & (cy <= 1.0)
            inside &= (cz >= 0.0) & (cz <= 1.0)
            act = np.flatnonzero(inside)
            full_rows += len(act)
            if cov is not None:
                cov |= inside
            # cell-centered texel convention, identical to
            # repro.render.volume.trilinear_sample; with a box, each
            # axis drops the rows whose stencil misses the box's range
            axes = []
            for a, (c, n) in enumerate(((cx, nx), (cy, ny), (cz, nz))):
                f = np.clip(c[act] * n - 0.5, 0.0, n - 1.0)
                c0 = (
                    np.minimum(f.astype(np.int64), n - 2)
                    if n > 1 else np.zeros(len(act), np.int64)
                )
                if reach is not None:
                    keep = (c0 >= reach[a][0]) & (c0 < reach[a][1])
                    act, f, c0 = act[keep], f[keep], c0[keep]
                    axes = [(g[keep], g0[keep]) for g, g0 in axes]
                axes.append((f, c0))
            row_start[s + 1] = row_start[s] + len(act)
            if len(act) == 0:
                continue
            (fx, x0), (fy, y0), (fz, z0) = axes
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
            pix_parts.append(rect[act].astype(np.int32))
            idx_parts.append(idx.astype(np.int32))
            w_parts.append(w)

        covered = None
        if cov is not None:
            covered = np.zeros(len(dirs), dtype=bool)
            covered[rect] = cov
        n_rows = int(row_start[-1])
        if n_rows == 0:
            return cls(
                key, d0, d1, slab, depths,
                np.zeros(0, np.int32), row_start, None, covered, full_rows,
            )
        pix = np.concatenate(pix_parts)
        data = np.concatenate(w_parts).ravel()
        indices = np.concatenate(idx_parts).ravel()
        indptr = np.arange(0, n_rows * 8 + 1, 8, dtype=np.int64)
        matrix = sp.csr_matrix(
            (data, indices, indptr), shape=(n_rows, nx * ny * nz), copy=False
        )
        return cls(key, d0, d1, slab, depths, pix, row_start, matrix, covered, full_rows)


class FrameGeometryCache:
    """Byte-bounded LRU cache of :class:`FrameGeometry` objects.

    Parameters
    ----------
    max_entries : maximum number of distinct viewpoints retained
    max_bytes : total geometry-byte budget; least-recently-used
        entries are evicted once exceeded, and a geometry larger than
        the whole budget is returned uncached (``frame_cache_rejected``)
    """

    def __init__(self, max_entries: int = 8, max_bytes: int = 512 * 1024 * 1024):
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[tuple, FrameGeometry] = OrderedDict()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def get(self, camera, vol_shape, lo, hi, n_slices: int, box=None) -> FrameGeometry:
        """Return a geometry for this viewpoint holding every row that
        reaches the occupied ``box``, building on a miss.

        A cached geometry of the same view built for a box containing
        ``box`` serves it (the whole grid contains every box): the
        compositor keeps only its rows that see an occupied voxel
        (:meth:`FrameGeometry.live_rows`), which are the rows a build
        over ``box`` holds, bit for bit.  When the view already holds a
        geometry of a non-empty box that misses ``box``, the build
        covers the whole grid, so while its geometries stay cached a
        view builds one non-empty box and the whole grid at most, under
        any sequence of transfer-function edits.
        """
        key = geometry_key(camera, vol_shape, lo, hi, n_slices, box)
        if box is not None and key not in self._entries:
            view = key[:-1]
            boxes = [k[-1] for k in self._entries if len(k) == len(key) and k[:-1] == view]
            holding = [b for b in boxes if _box_contains(b, box)]
            if holding:  # prefer a box geometry to the whole grid's
                box = min(holding, key=lambda b: b is None)
            elif any(b != _EMPTY_BOX for b in boxes):
                box = None
            key = view + (box,)
        return self.get_keyed(
            key,
            lambda: FrameGeometry.build(camera, vol_shape, lo, hi, n_slices, box),
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
        if geo.nbytes > self.max_bytes:
            count("frame_cache_rejected")
            return geo
        self._entries[key] = geo
        self._evict()
        return geo

    def _evict(self) -> None:
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        while self.total_bytes > self.max_bytes:
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
