"""Depth-correct multi-primitive scenes.

Rendering calls like ``render_strips(..., fb=fb)`` composite each
primitive *over* whatever is already in the framebuffer -- fine for a
single pass, wrong when a strip should appear behind an
already-drawn point.  ``Scene`` fixes that the way the hardware
pipeline does: every primitive contributes *fragments* (pixel, depth,
RGBA) into one pool, and a single per-pixel depth-sorted composite
resolves them together -- including depth-interleaving with an
optional density volume via the hybrid slab compositor.

    scene = Scene(camera)
    scene.add_strips(strips)
    scene.add_points(positions, rgba)
    scene.add_wireframe_structure(structure, half="back")
    scene.add_volume(rgba_volume, lo, hi)
    fb = scene.render()
"""

from __future__ import annotations

import numpy as np

from repro.render.camera import Camera
from repro.render.colormap import Colormap
from repro.render.framebuffer import Framebuffer
from repro.render.points import gaussian_splat_fragments, point_fragments
from repro.render.raster import rasterize
from repro.render.shading import magnitude_t, strip_colors, tube_colors
from repro.render.volume import render_mixed
from repro.render.wireframe import sample_polylines, structure_outline

__all__ = ["Scene"]


class Scene:
    """A collection of fragment-producing primitives plus at most one
    volume, composited depth-correct in a single pass."""

    def __init__(self, camera: Camera):
        self.camera = camera
        self._pix: list[np.ndarray] = []
        self._dep: list[np.ndarray] = []
        self._rgba: list[np.ndarray] = []
        self._volume = None  # (rgba_volume, lo, hi)

    # ------------------------------------------------------------------
    def _push(self, pix, dep, rgba) -> None:
        if len(pix):
            self._pix.append(np.asarray(pix))
            self._dep.append(np.asarray(dep))
            self._rgba.append(np.asarray(rgba))

    def add_points(self, positions, rgba, point_size: int = 1) -> "Scene":
        """Point sprites (see :mod:`repro.render.points`)."""
        pix, dep, col = point_fragments(
            self.camera, positions, rgba, point_size=point_size
        )
        self._push(pix, dep, col)
        return self

    def add_splats(self, positions, rgba, sigma=1.5, **kwargs) -> "Scene":
        """Gaussian splats -- the quality tier above sprites (see
        :func:`repro.render.points.gaussian_splat_fragments`)."""
        pix, dep, col = gaussian_splat_fragments(
            self.camera, positions, rgba, sigma, **kwargs
        )
        self._push(pix, dep, col)
        return self

    def add_strips(
        self,
        strips,
        colormap: Colormap | str = "electric",
        shading: str = "bump",
        halo_core: float | None = 0.72,
        alpha: float = 1.0,
        alpha_by_magnitude: bool = False,
        magnitude_range=None,
    ) -> "Scene":
        """Self-orienting strips (or ribbons), shaded to fragments as
        ``render_strips`` shades them (:func:`strip_colors`)."""
        if strips.n_triangles == 0:
            return self
        frags = rasterize(
            self.camera,
            strips.vertices,
            strips.triangles,
            {"v": strips.v_coord, "mag": strips.magnitude},
        )
        if len(frags) == 0:
            return self
        t = magnitude_t(frags.attrs["mag"][:, 0], strips.magnitude, magnitude_range)
        rgb, a = strip_colors(
            frags.attrs["v"][:, 0], t, colormap, shading, halo_core, alpha, alpha_by_magnitude
        )
        self._push(frags.pix, frags.depth, np.column_stack([rgb, a]))
        return self

    def add_tubes(
        self,
        tubes,
        colormap: Colormap | str = "electric",
        alpha: float = 1.0,
        magnitude_range=None,
    ) -> "Scene":
        """Phong-shaded streamtubes to fragments, as ``render_tubes``
        shades them (:func:`tube_colors`)."""
        if tubes.n_triangles == 0:
            return self
        frags = rasterize(
            self.camera,
            tubes.vertices,
            tubes.triangles,
            {"normal": tubes.normals, "mag": tubes.magnitude},
        )
        if len(frags) == 0:
            return self
        t = magnitude_t(frags.attrs["mag"][:, 0], tubes.magnitude, magnitude_range)
        rgb = tube_colors(frags.attrs["normal"], t, colormap, -self.camera.forward)
        self._push(frags.pix, frags.depth, np.column_stack([rgb, np.full(len(rgb), alpha)]))
        return self

    def _add_polylines(self, polylines, color, alpha) -> "Scene":
        pix, dep, _, _ = sample_polylines(self.camera, polylines)
        rgba = np.empty((len(pix), 4))
        rgba[:, :3] = np.asarray(color, dtype=np.float64)
        rgba[:, 3] = alpha
        self._push(pix, dep, rgba)
        return self

    def add_polyline(self, points, color=(0.45, 0.45, 0.5), alpha: float = 1.0) -> "Scene":
        return self._add_polylines([points], color, alpha)

    def add_wireframe_structure(
        self, structure, color=(0.4, 0.42, 0.48), alpha: float = 0.5,
        half: str | None = None, n_rings: int = 24, n_theta: int = 48,
        n_axial: int = 8,
    ) -> "Scene":
        """Structure outline rings + axial lines as fragments
        (:func:`repro.render.wireframe.structure_outline`)."""
        polylines = structure_outline(structure, half, n_rings, n_theta, n_axial)
        return self._add_polylines(polylines, color, alpha)

    def add_volume(self, rgba_volume, lo=None, hi=None) -> "Scene":
        """The (single) classified density volume -- a dense
        (X, Y, Z, 4) texture with explicit bounds, or a classified
        :class:`repro.render.amr.AmrRgbaVolume` (bounds carried by its
        bricks)."""
        if self._volume is not None:
            raise ValueError("a scene holds at most one volume")
        if hasattr(rgba_volume, "flat_rgba"):
            self._volume = (
                rgba_volume,
                np.asarray(rgba_volume.lo),
                np.asarray(rgba_volume.hi),
            )
            return self
        if lo is None or hi is None:
            raise ValueError("dense volumes require explicit lo / hi bounds")
        self._volume = (np.asarray(rgba_volume), np.asarray(lo), np.asarray(hi))
        return self

    # ------------------------------------------------------------------
    @property
    def n_fragments(self) -> int:
        return int(sum(len(p) for p in self._pix))

    def render(self, fb: Framebuffer | None = None, n_slices: int = 64) -> Framebuffer:
        """Composite everything depth-correct in one pass."""
        if fb is None:
            fb = Framebuffer(self.camera.width, self.camera.height)
        if self._pix:
            frags = (
                np.concatenate(self._pix),
                np.concatenate(self._dep),
                np.concatenate(self._rgba),
            )
        else:
            frags = None
        if self._volume is not None:
            vol, lo, hi = self._volume
        else:
            vol, lo, hi = None, np.zeros(3), np.ones(3)
        return render_mixed(
            self.camera, vol, lo, hi, point_fragments=frags, fb=fb,
            n_slices=n_slices,
        )
