"""Deterministic sort-last compositing of per-brick partial images.

The forest pipeline (:mod:`repro.octree.forest`) renders each spatial
brick independently and merges the partial RGBA images here, the
software analogue of the sort-last parallel compositing stage in
distributed volume renderers (Burstedde et al.'s forest-of-octrees
raycasting; Sahistan et al.'s deterministic alpha compositing over
non-convex rank domains).

Because the bricks form a *regular, axis-aligned, non-overlapping*
grid, a strict back-to-front visibility order exists for any eye
position: sort bricks by decreasing Manhattan distance between the
brick's integer grid index and the (unclamped) grid cell containing
the eye.  If brick A occludes brick B along any eye ray, each of A's
index components lies weakly between the eye cell's and B's -- and
strictly closer in at least one component -- so A's Manhattan distance
is strictly smaller and A is composited after (over) B.  Ties (equal
distance) cannot occlude one another and are broken by brick id so the
fold order, and therefore the floating-point result, is identical
run-to-run and worker-count-invariant.

The merge itself folds premultiplied RGBA with the *over* operator,

    out = brick_pm + out_pm * (1 - brick_alpha)

which is exactly the blend the slice compositor in
:mod:`repro.render.volume` applies, so a forest render regroups -- but
never reorders -- the same arithmetic as the single-octree path.
"""

from __future__ import annotations

import numpy as np

from repro.core.trace import count, span
from repro.octree.octree import morton_decode
from repro.render.camera import Camera
from repro.render.framebuffer import Framebuffer

__all__ = ["SortLastCompositor", "brick_ijk"]


def brick_ijk(brick_id: int, level: int) -> tuple[int, int, int]:
    """Decode a brick's Morton prefix into integer grid coordinates.

    Bricks are identified by their ``level``-deep Morton prefix, the
    key layout of :func:`repro.octree.octree.morton_keys`.
    """
    i, j, k = morton_decode([int(brick_id)], int(level))[0]
    return int(i), int(j), int(k)


class SortLastCompositor:
    """Merge per-brick partial images in a deterministic visibility order.

    Parameters
    ----------
    lo, hi:
        Global axis-aligned bounds covered by the brick grid.
    bricks:
        Bricks per axis (the grid is ``bricks**3`` cells).  Must be a
        power of two so brick ids are octree Morton prefixes.

    The compositor is stateless between calls; :meth:`composite` merges
    any subset of bricks (missing or fully transparent bricks are exact
    no-ops) and always produces the same image for the same inputs,
    regardless of the order the partial images arrive in.
    """

    def __init__(self, lo, hi, bricks: int):
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)
        b = int(bricks)
        if b < 1 or (b & (b - 1)) != 0:
            raise ValueError("bricks must be a positive power of two")
        self.bricks = b
        self.level = b.bit_length() - 1
        if np.any(self.hi <= self.lo):
            raise ValueError("require lo < hi on every axis")

    # ------------------------------------------------------------------
    def eye_cell(self, camera: Camera) -> np.ndarray:
        """Integer grid cell containing the eye (unclamped; may lie
        outside ``[0, bricks)`` when the camera is outside the bounds)."""
        size = (self.hi - self.lo) / self.bricks
        return np.floor((np.asarray(camera.eye, dtype=np.float64) - self.lo) / size).astype(
            np.int64
        )

    def visibility_order(self, camera: Camera, brick_ids) -> list[int]:
        """Back-to-front brick order for ``camera``.

        Bricks are sorted by decreasing Manhattan distance from the eye
        cell, ties broken by ascending brick id -- a total order that
        respects occlusion on a regular grid (see module docstring).
        """
        ids = [int(b) for b in brick_ids]
        eye = self.eye_cell(camera)
        def dist(b):
            i, j, k = brick_ijk(b, self.level)
            return abs(i - eye[0]) + abs(j - eye[1]) + abs(k - eye[2])
        return sorted(ids, key=lambda b: (-dist(b), b))

    # ------------------------------------------------------------------
    def composite(self, camera: Camera, images) -> Framebuffer:
        """Merge per-brick images into one frame.

        Parameters
        ----------
        camera:
            The camera all partial images were rendered with (its
            viewport fixes the output size and its eye position fixes
            the visibility order).
        images:
            Mapping ``brick_id -> Framebuffer`` (or ``None`` for bricks
            that produced nothing).  All framebuffers must share the
            camera's viewport dimensions.

        Returns
        -------
        Framebuffer with the merged non-premultiplied RGBA and the
        minimum contributing depth per pixel.
        """
        out = Framebuffer(camera.width, camera.height)
        order = self.visibility_order(camera, list(images.keys()))
        pm = np.zeros((camera.height, camera.width, 4))
        merged = 0
        with span("composite_merge", bricks=len(order)):
            for brick_id in order:
                fb = images[brick_id]
                if fb is None:
                    continue
                if fb.rgba.shape != pm.shape:
                    raise ValueError(
                        f"brick {brick_id}: image {fb.rgba.shape[1]}x{fb.rgba.shape[0]}"
                        f" does not match viewport {camera.width}x{camera.height}"
                    )
                a = fb.rgba[..., 3:4]
                if not np.any(a > 0.0):
                    continue  # transparent brick: exact no-op
                brick_pm = np.empty_like(fb.rgba)
                brick_pm[..., :3] = fb.rgba[..., :3] * a
                brick_pm[..., 3:4] = a
                pm *= 1.0 - a
                pm += brick_pm
                out.depth[...] = np.minimum(out.depth, fb.depth)
                merged += 1
                count("composite_merge")
        alpha = pm[..., 3:4]
        safe = np.where(alpha <= 0.0, 1.0, alpha)
        out.rgba[..., :3] = pm[..., :3] / safe
        out.rgba[..., 3:4] = alpha
        return out
