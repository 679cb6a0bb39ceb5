"""RGBA + depth framebuffer with Porter-Duff compositing.

Two compositing primitives cover everything the paper's renderer does:

``composite_over``
    The *over* operator on (..., 4) RGBA rows: volume slices and image
    passes layer back-to-front with it, over the whole frame
    (:meth:`Framebuffer.layer_over`) or over the pixels a pass covers
    (:meth:`Framebuffer.pixels_over`).

``resolve_fragments``
    Per-pixel *under* compositing of an unordered fragment stream
    (pixel index, depth, premultipliable RGBA), returned at the pixels
    it touches.  This is the software stand-in for the
    order-independent transparency path on the GeForce 3 (paper
    section 3.3.3): fragments are sorted per pixel by depth and folded
    front-to-back with a fully vectorized segmented scan.
    ``composite_fragments`` is its full-frame form.

Its core, ``accumulate_fragments``, also folds the depth ranges of the
hybrid renderer's halo points in one pass, each range exactly as on
its own; ``fragment_order`` is the one fragment order behind it and
behind ``repro.render.raster.resolve_opaque``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Framebuffer",
    "composite_over",
    "composite_fragments",
    "resolve_fragments",
    "accumulate_fragments",
    "fragment_order",
]

_ALPHA_MAX = 0.99999


def composite_over(dst: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Composite ``src`` over ``dst`` in place (both (..., 4) float RGBA,
    non-premultiplied) and return ``dst``."""
    sa = src[..., 3:4]
    da = dst[..., 3:4]
    out_a = sa + da * (1.0 - sa)
    safe = np.where(out_a <= 0.0, 1.0, out_a)
    out_rgb = (src[..., :3] * sa + dst[..., :3] * da * (1.0 - sa)) / safe
    dst[..., :3] = out_rgb
    dst[..., 3:4] = out_a
    return dst


def composite_fragments(
    pixels: np.ndarray,
    depths: np.ndarray,
    rgba: np.ndarray,
    n_pixels: int,
):
    """Composite an unordered fragment stream per pixel, full frame.

    Parameters
    ----------
    pixels : (F,) int flat pixel indices
    depths : (F,) float eye depth (smaller = nearer)
    rgba : (F, 4) float colors with alpha
    n_pixels : total pixel count of the target image

    Returns
    -------
    out_rgba : (n_pixels, 4) composited color per pixel (zero where no
        fragment landed)
    out_depth : (n_pixels,) depth of the nearest contributing fragment
        (+inf where no fragment landed)

    The fold is :func:`resolve_fragments`, scattered into full-size
    arrays.
    """
    out_rgba = np.zeros((n_pixels, 4))
    out_depth = np.full(n_pixels, np.inf)
    pix, col, near = resolve_fragments(pixels, depths, rgba)
    out_rgba[pix] = col
    out_depth[pix] = near
    return out_rgba, out_depth


def resolve_fragments(pixels: np.ndarray, depths: np.ndarray, rgba: np.ndarray):
    """Composite an unordered fragment stream per pixel, at the pixels
    it touches.

    Returns
    -------
    pix : (U,) int64 touched flat pixel indices, ascending
    rgba : (U, 4) composited color per touched pixel, non-premultiplied
    depth : (U,) depth of the nearest contributing fragment

    -- the form :meth:`Framebuffer.pixels_over` takes.

    Notes
    -----
    Front-to-back *under* compositing per pixel:

        C = sum_i c_i a_i prod_{j<i} (1 - a_j)
        A = 1 - prod_i (1 - a_i)

    The per-segment prefix products are computed with a cumprod-ratio
    trick so the whole operation stays vectorized regardless of how
    many fragments pile up in one pixel.
    """
    upix, pm, near, _ = accumulate_fragments(pixels, depths, rgba)
    # un-premultiply
    a = pm[:, 3:4]
    pm[:, :3] /= np.where(a <= 0.0, 1.0, a)
    return upix, pm, near


def fragment_order(pixels: np.ndarray, depths: np.ndarray, thresholds=()):
    """Stable order of a fragment stream by (depth range, pixel, depth,
    stream position).

    ``thresholds`` are descending depths that cut the stream into
    ``len(thresholds) + 1`` depth ranges, farthest first: range 0 holds
    the depths above ``thresholds[0]``, range k those in
    ``(thresholds[k], thresholds[k - 1]]``, and the last range the
    rest, NaN depths included.  Within one range the order is exactly
    the two-key lexsort by pixel, then depth: NaN depths last, -0.0
    equal to +0.0, equal keys in stream order.

    One unstable depth argsort, with each run of equal depths put back
    in stream order, then stable radix passes over <= 16-bit digits of
    the (range, pixel) key.  A lexsort or a stable float sort costs
    several times as much.

    Returns
    -------
    order : (F,) int64 permutation of the stream
    sizes : (len(thresholds) + 1,) fragment count of each range, in
        range order (range k is the k-th block of ``order``)
    """
    pixels = np.asarray(pixels).astype(np.int64, copy=False)
    depths = np.asarray(depths, dtype=np.float64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    n = depths.size
    n_ranges = thresholds.size + 1
    if n == 0:
        return np.empty(0, dtype=np.int64), np.zeros(n_ranges, dtype=np.int64)
    order = np.argsort(depths)  # unstable; NaNs sort last
    d = depths.take(order)
    tie = np.flatnonzero((d[1:] == d[:-1]) | np.isnan(d[:-1]))
    if tie.size:
        # put each run of equal depths back in stream order
        sel = np.union1d(tie, tie + 1)
        run = np.cumsum(~np.isin(sel - 1, tie))
        run_pos = run * n + order[sel]
        run_pos.sort()
        order[sel] = run_pos % n

    # the ascending stream holds the ranges as blocks, nearest first,
    # then the NaN tail, which joins the nearest range
    m = int(np.searchsorted(d, np.nan))
    cuts = np.searchsorted(d[:m], thresholds, side="right")
    asc = np.diff(np.concatenate(([0], cuts[::-1], [m])))
    key = pixels.take(order)
    key -= key.min()
    if n_ranges > 1:
        ids = np.append(np.arange(n_ranges - 1, -1, -1), n_ranges - 1)
        key += np.repeat(ids, np.append(asc, n - m)) * (int(key.max()) + 1)
    top = int(key.max())
    shift = 0
    while top >> shift:
        digit = (key >> shift) & 0xFFFF
        digit = digit.astype(np.uint8 if top >> shift < 256 else np.uint16)
        perm = np.argsort(digit, kind="stable")
        order = order.take(perm)
        shift += 16
        if top >> shift:
            key = key.take(perm)
    sizes = asc[::-1].copy()
    sizes[-1] += n - m
    return order, sizes


def accumulate_fragments(
    pixels: np.ndarray,
    depths: np.ndarray,
    rgba: np.ndarray,
    thresholds=(),
):
    """Sparse core of :func:`composite_fragments`.

    Folds an unordered fragment stream per pixel (front-to-back
    *under*) but returns only the touched pixels, premultiplied -- the
    form the interleaved volume compositor consumes directly without
    allocating full-frame layers per slab.

    ``thresholds`` (descending depths, see :func:`fragment_order`) cut
    the stream into depth ranges, and each range folds as its own
    stream, bit for bit as one call per range would fold it.  The
    log-prefix sum restarts at each range (a global sum minus an offset
    rounds differently) and a pixel's run ends at a range boundary.

    Returns
    -------
    upix : (U,) int64 touched flat pixel indices, ascending per range
    pm_rgba : (U, 4) premultiplied composited color per touched pixel
    near_depth : (U,) depth of the nearest contributing fragment
    bounds : (len(thresholds) + 2,) range k's pixels are
        ``upix[bounds[k]:bounds[k + 1]]``
    """
    pixels = np.asarray(pixels).astype(np.int64, copy=False)
    depths = np.asarray(depths, dtype=np.float64)
    rgba = np.asarray(rgba, dtype=np.float64)
    n_ranges = len(thresholds) + 1
    if pixels.size == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty((0, 4)),
            np.empty(0),
            np.zeros(n_ranges + 1, dtype=np.int64),
        )

    order, sizes = fragment_order(pixels, depths, thresholds)
    n = order.size
    pix = pixels.take(order)
    alpha = np.clip(rgba[:, 3].take(order), 0.0, _ALPHA_MAX)
    offsets = np.zeros(n_ranges + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    range_start = np.zeros(n, dtype=bool)
    range_start[offsets[:-1][sizes > 0]] = True

    trans = 1.0 - alpha                           # per-fragment transmittance
    # log-space segmented prefix product: stable even for long segments
    logt = np.log(np.maximum(trans, 1e-12))
    c_log = np.empty_like(logt)
    for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        np.cumsum(logt[a:b], out=c_log[a:b])
    seg_start = range_start.copy()
    seg_start[1:] |= pix[1:] != pix[:-1]
    start_idx = np.flatnonzero(seg_start)

    # a segment's first fragment has prefix exp(0) = 1 and weight alpha,
    # so a one-fragment segment folds to its own premultiplied color
    pm_rgba = np.take(rgba, order[start_idx], axis=0)
    pm_rgba[:, 3] = alpha[start_idx]
    for c in range(3):
        pm_rgba[:, c] *= pm_rgba[:, 3]
    rest = np.flatnonzero(~seg_start)
    if rest.size:
        # the segments of more than one fragment, compacted in order
        rest_seg = (np.cumsum(seg_start) - 1)[rest]
        multi = rest_seg[np.flatnonzero(np.diff(rest_seg, prepend=-1))]
        member = ~seg_start
        member[start_idx[multi]] = True
        mpos = np.flatnonzero(member)
        inner = ~seg_start[mpos]
        # log prefix product *before* each fragment within its segment:
        # c_log[i-1] - c_log[segment_start(i)-1], from 0 at a range's
        # first segment
        first = start_idx[rest_seg]
        base = np.where(range_start[first], 0.0, c_log[first - 1])
        prefix = np.ones(mpos.size)
        prefix[inner] = np.exp(c_log[rest - 1] - base)
        weight = alpha[mpos] * prefix
        col = np.take(rgba, order[mpos], axis=0)
        seg = np.flatnonzero(~inner)
        for c in range(3):
            pm_rgba[multi, c] = np.add.reduceat(col[:, c] * weight, seg)
        pm_rgba[multi, 3] = np.add.reduceat(weight, seg)
    bounds = np.searchsorted(start_idx, offsets)
    near = depths.take(order[start_idx])
    return pix[start_idx], pm_rgba, near, bounds


class Framebuffer:
    """An RGBA + depth framebuffer.

    ``rgba`` is (H, W, 4) float64, non-premultiplied.  ``depth`` is
    (H, W) eye-space depth of the nearest opaque-ish write, used for
    z-testing rasterized geometry.
    """

    def __init__(self, width: int, height: int, background=(0.0, 0.0, 0.0, 0.0)):
        if width <= 0 or height <= 0:
            raise ValueError("framebuffer dimensions must be positive")
        self.width = int(width)
        self.height = int(height)
        self.background = np.asarray(background, dtype=np.float64)
        self.rgba = np.empty((self.height, self.width, 4))
        self.depth = np.empty((self.height, self.width))
        self.clear()

    def clear(self) -> None:
        # one pixel, then doubling block copies: broadcasting the (4,)
        # background runs an inner loop 4 long and costs several times
        # as much
        flat = self.rgba.reshape(-1, 4)
        flat[0] = self.background
        n, total = 1, len(flat)
        while n < total:
            k = min(n, total - n)
            flat[n : n + k] = flat[:k]
            n += k
        self.depth[...] = np.inf

    @property
    def n_pixels(self) -> int:
        return self.width * self.height

    def pixel_index(self, xy: np.ndarray):
        """Map float pixel coordinates (N, 2) to flat indices; returns
        (flat_idx, in_bounds_mask)."""
        xy = np.atleast_2d(xy)
        ix = np.floor(xy[:, 0]).astype(np.int64)
        iy = np.floor(xy[:, 1]).astype(np.int64)
        ok = (ix >= 0) & (ix < self.width) & (iy >= 0) & (iy < self.height)
        flat = np.where(ok, iy * self.width + ix, 0)
        return flat, ok

    def layer_over(self, layer_rgba: np.ndarray, layer_depth: np.ndarray | None = None) -> None:
        """Composite a full-size layer over the framebuffer, optionally
        updating depth where the layer is visibly present.

        Every pixel goes through the operator, so a pixel the layer
        leaves empty (alpha 0) is rewritten as rgb * a / a, and its rgb
        becomes zero where its own alpha is 0.  Passes that cover part
        of the frame use :meth:`pixels_over`."""
        if layer_rgba.shape != self.rgba.shape:
            raise ValueError("layer shape mismatch")
        composite_over(self.rgba.reshape(-1, 4), layer_rgba.reshape(-1, 4))
        if layer_depth is not None:
            present = layer_rgba[..., 3] > 1e-4
            self.depth[present] = np.minimum(self.depth[present], layer_depth[present])

    def pixels_over(self, pix: np.ndarray, rgba: np.ndarray, depth: np.ndarray) -> None:
        """Composite non-premultiplied ``rgba`` (P, 4) with ``depth``
        (P,) over the unique flat pixels ``pix``, with
        :meth:`layer_over`'s arithmetic and depth rule (depth moves
        where alpha > 1e-4).

        A covered pixel ends bit for bit as under :meth:`layer_over` of
        the full-size layer that holds ``rgba`` at ``pix`` and zeros
        elsewhere; every other pixel keeps its exact bytes.
        """
        flat = self.rgba.reshape(-1, 4)
        flat[pix] = composite_over(flat.take(pix, axis=0), rgba)
        present = rgba[:, 3] > 1e-4
        up = pix[present]
        d = self.depth.reshape(-1)
        d[up] = np.minimum(d[up], depth[present])

    def to_rgb8(self) -> np.ndarray:
        """Flatten against the background color and quantize to uint8."""
        img = self.rgba[..., :3] * self.rgba[..., 3:4] + (1.0 - self.rgba[..., 3:4]) * self.background[:3]
        return np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
