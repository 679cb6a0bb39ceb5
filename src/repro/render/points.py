"""Point-based rendering of explicit halo particles.

Particles selected by the extraction step are drawn as screen-space
point sprites.  The point transfer function of the paper maps local
density to a *fraction of points drawn* -- "when the transfer
function's value is at 0.75 for some density ... three out of every
four points are drawn".  ``select_fraction`` reproduces that behaviour
deterministically with a low-discrepancy sequence so repeated renders
of the same frame draw the same subset.
"""

from __future__ import annotations

import numpy as np

from repro.core.trace import count
from repro.render.camera import Camera
from repro.render.framebuffer import Framebuffer, resolve_fragments

__all__ = [
    "select_fraction",
    "point_fragments",
    "gaussian_splat_fragments",
    "render_points",
]

_EMPTY_FRAGMENTS = (
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.float64),
    np.empty((0, 4), dtype=np.float64),
)

_GOLDEN = 0.6180339887498949  # frac(phi), drives the low-discrepancy picker


def select_fraction(n: int, fractions: np.ndarray) -> np.ndarray:
    """Choose which of ``n`` points to draw given per-point fractions.

    Point ``i`` is kept when ``frac(i * golden_ratio) < fractions[i]``,
    so a constant fraction f keeps, for any contiguous run of points,
    a share of points within O(1/n) of f -- without randomness.

    Returns a boolean keep-mask of length ``n``.
    """
    fractions = np.asarray(fractions, dtype=np.float64)
    if fractions.shape not in ((), (n,)):
        raise ValueError("fractions must be scalar or length n")
    u = np.mod(np.arange(n, dtype=np.float64) * _GOLDEN, 1.0)
    return u < fractions


def point_fragments(
    camera: Camera,
    points: np.ndarray,
    rgba: np.ndarray,
    point_size: int = 1,
):
    """Project points and produce a fragment stream.

    Parameters
    ----------
    points : (N, 3) world positions
    rgba : (N, 4) or (4,) color(s) with alpha
    point_size : square sprite edge length in pixels (1 = single
        pixel); ``ValueError`` below 1

    Returns
    -------
    (pix, depth, rgba) arrays suitable for
    :func:`repro.render.framebuffer.resolve_fragments` and
    :func:`repro.render.volume.render_mixed`.
    """
    if point_size < 1:
        raise ValueError(f"point_size must be >= 1, got {point_size}")
    points = np.asarray(points, dtype=np.float64)
    if points.size == 0:
        # an empty point set must yield an empty fragment stream, not a
        # (1, 0) atleast_2d artifact that breaks projection downstream
        return _EMPTY_FRAGMENTS
    points = np.atleast_2d(points)
    rgba = np.asarray(rgba, dtype=np.float64)
    if rgba.ndim == 1:
        rgba = np.broadcast_to(rgba, (len(points), 4))
    xy, depth, visible = camera.project(points)

    w, h = camera.width, camera.height
    if point_size == 1:
        # floor(x) lands in [0, w) exactly when x does
        x, y = xy[:, 0], xy[:, 1]
        ok = visible & (x >= 0) & (x < w) & (y >= 0) & (y < h)
        ix = np.floor(x.compress(ok)).astype(np.int64)
        iy = np.floor(y.compress(ok)).astype(np.int64)
        return iy * w + ix, depth.compress(ok), np.compress(ok, rgba, axis=0)

    xy = xy[visible]
    depth = depth[visible]
    rgba = rgba[visible]
    r = point_size // 2
    span = np.arange(-r, point_size - r, dtype=np.int64)
    # all point_size^2 sprite offsets in one broadcast, x-major to
    # match the historical (dx, dy) nesting order
    dx = np.repeat(span, point_size)
    dy = np.tile(span, point_size)
    ix0 = np.floor(xy[:, 0]).astype(np.int64)
    iy0 = np.floor(xy[:, 1]).astype(np.int64)
    # (n_offsets, n_points) grids: every sprite texel of every point
    ix = dx[:, None] + ix0[None, :]
    iy = dy[:, None] + iy0[None, :]
    ok = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
    off_idx, pt_idx = np.nonzero(ok)
    return (
        iy[off_idx, pt_idx] * w + ix[off_idx, pt_idx],
        depth[pt_idx],
        rgba[pt_idx],
    )


def gaussian_splat_fragments(
    camera: Camera,
    points: np.ndarray,
    rgba: np.ndarray,
    sigma=1.5,
    *,
    truncate: float = 3.0,
    max_radius: int = 16,
    min_weight: float = 1e-4,
):
    """Project points as Gaussian splats and produce a fragment stream.

    The quality tier above point sprites (Rivi et al., "Splotch"):
    each particle covers a ``(2r+1)^2`` pixel footprint, ``r =
    min(ceil(truncate * sigma - 0.5), max_radius)``, with weight
    ``exp(-d^2 / (2 sigma^2))`` at pixel-center distance ``d`` from
    the projected position; the fragment alpha is the particle alpha
    scaled by that weight.

    Fully vectorized: stencil offsets for *all* particles are laid out
    in one flat point-major array (particle 0's footprint first, in
    row-of-the-stencil order), so the kernel is a handful of gathers
    plus one weight expression -- no per-particle Python loop.

    Batch/serial equivalence (tested, and relied on by the streamed
    renderer): fragments are emitted in point-major order and each
    particle's fragments depend only on that particle, so
    concatenating the streams of any partition of the input equals the
    single-call stream.  After ``render_mixed``'s stable depth sort,
    batched and serial splatting therefore composite bitwise-identical
    images.

    ``sigma`` may be scalar or per-particle ``(N,)``; particles with
    ``sigma <= 0`` (zero-radius splats) emit no fragments, so they
    render identically to the no-points path.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.size == 0:
        return _EMPTY_FRAGMENTS
    points = np.atleast_2d(points)
    rgba = np.asarray(rgba, dtype=np.float64)
    if rgba.ndim == 1:
        rgba = np.broadcast_to(rgba, (len(points), 4))
    sig = np.broadcast_to(
        np.asarray(sigma, dtype=np.float64), (len(points),)
    )
    if len(points) == 1:
        # numpy routes a (1, 3) matmul through a different BLAS kernel
        # whose last-ulp rounding can differ from the n-row case; pad
        # to a pair so a single-point batch projects bitwise-identical
        # to its slice of a larger call (the batch/serial guarantee)
        xy, depth, visible = (
            a[:1] for a in camera.project(np.vstack([points, points]))
        )
    else:
        xy, depth, visible = camera.project(points)
    keep = visible & (sig > 0.0)
    if not keep.any():
        return _EMPTY_FRAGMENTS
    xy = xy[keep]
    depth = depth[keep]
    rgba = rgba[keep]
    sig = sig[keep]

    w, h = camera.width, camera.height
    r = np.minimum(
        np.ceil(truncate * sig - 0.5).astype(np.int64), int(max_radius)
    )
    np.clip(r, 0, None, out=r)
    wspan = 2 * r + 1
    counts = wspan * wspan
    total = int(counts.sum())
    cum0 = np.concatenate(([0], np.cumsum(counts)[:-1]))
    # point-major flat stencil: fragment k of the stream belongs to
    # particle pt_of[k] and covers its (dy, dx) offset in row-major order
    pt_of = np.repeat(np.arange(len(xy), dtype=np.int64), counts)
    k = np.arange(total, dtype=np.int64) - np.repeat(cum0, counts)
    span_of = wspan[pt_of]
    dy = k // span_of - r[pt_of]
    dx = k % span_of - r[pt_of]

    ix = np.floor(xy[:, 0]).astype(np.int64)[pt_of] + dx
    iy = np.floor(xy[:, 1]).astype(np.int64)[pt_of] + dy
    # Gaussian weight at each covered pixel's center
    px = ix + 0.5 - xy[pt_of, 0]
    py = iy + 0.5 - xy[pt_of, 1]
    weight = np.exp(-(px * px + py * py) / (2.0 * sig[pt_of] ** 2))

    ok = (
        (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h) & (weight >= min_weight)
    )
    frag_rgba = rgba[pt_of[ok]].copy()
    frag_rgba[:, 3] = np.clip(frag_rgba[:, 3] * weight[ok], 0.0, 1.0)
    count("splat_fragments", int(ok.sum()))
    return (iy[ok] * w + ix[ok], depth[pt_of[ok]], frag_rgba)


def render_points(
    camera: Camera,
    points: np.ndarray,
    rgba: np.ndarray,
    fb: Framebuffer | None = None,
    point_size: int = 1,
) -> Framebuffer:
    """Render points alone (no volume) into a framebuffer."""
    if fb is None:
        fb = Framebuffer(camera.width, camera.height)
    pix, dep, col = point_fragments(camera, points, rgba, point_size=point_size)
    fb.pixels_over(*resolve_fragments(pix, dep, col))
    return fb
