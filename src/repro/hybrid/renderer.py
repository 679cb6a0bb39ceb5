"""The hybrid compositor (paper sections 2.1 and 2.4).

``HybridRenderer`` turns a :class:`HybridFrame` plus the linked
transfer functions into an image:

1. the density volume is classified through the volume transfer
   function into an RGBA texture and composited with view-aligned
   slices (the texture-hardware path);
2. the halo points are subsampled by the point transfer function's
   per-density fraction, colored, and depth-interleaved with the
   volume slabs.

``render_volume_part`` / ``render_point_part`` expose the two passes
separately, reproducing the decomposition of the paper's Figure 4.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.trace import count, span
from repro.hybrid.representation import HybridFrame
from repro.hybrid.transfer import DensityNormalizer, LinkedTransferFunctions
from repro.render.camera import Camera
from repro.render.colormap import Colormap, get_colormap
from repro.render.framebuffer import Framebuffer
from repro.render.points import (
    gaussian_splat_fragments,
    point_fragments,
    select_fraction,
)
from repro.render.volume import render_mixed

__all__ = ["HybridRenderer"]


class HybridRenderer:
    """Renders hybrid frames with linked transfer functions.

    Parameters
    ----------
    transfer : the linked volume/point transfer function pair
    point_colormap : colormap for explicit points (sampled at the
        point's normalized density)
    point_alpha : opacity of each point sprite
    point_size : sprite edge length in pixels
    n_slices : view-aligned slab count for the volume pass (>= 1)
    normalizer_mode : 'log' (default) or 'linear' density normalization
    cache : frame-geometry cache policy forwarded to
        :func:`repro.render.volume.render_mixed` -- ``None`` (default)
        shares the process-global cache so animation orbits and
        transfer-function edits reuse slice geometry across frames,
        ``False`` disables caching, or pass a dedicated
        :class:`repro.render.frame_cache.FrameGeometryCache`
    point_batch_size : project the classified points in slices of this
        many points, handing :func:`render_mixed` a list of fragment
        batches instead of one monolithic stream (the out-of-core
        rendering path: peak memory scales with the batch, not the
        halo).  Classification and subsampling stay global, so the
        drawn subset and the composited image match the unbatched
        renderer.  ``None`` (default) projects everything at once.
    max_density : pin the density normalizer's scale instead of taking
        it from each frame.  Bricked (forest) and animated renders pass
        the global maximum here so every partial image is classified on
        the same scale.  ``None`` (default) normalizes per frame.
    point_mode : 'sprite' (default) draws square point sprites;
        'splat' draws Gaussian splats
        (:func:`repro.render.points.gaussian_splat_fragments`) -- the
        higher quality tier, with per-point footprints scaled by
        normalized density
    splat_sigma : base splat radius (pixels of one standard deviation)
    splat_scale : per-point sigma is ``splat_sigma * (1 + splat_scale
        * t)`` with ``t`` the point's normalized density -- denser
        points splat wider; 0 gives every point the base sigma
    volume_mode : 'auto' (default) composites the adaptive AMR volume
        when the frame carries one (``frame.meta['amr']``), 'flat'
        always uses the uniform grid
    """

    def __init__(
        self,
        transfer: LinkedTransferFunctions | None = None,
        point_colormap: Colormap | str = "electric",
        point_alpha: float = 0.55,
        point_size: int = 1,
        n_slices: int = 64,
        normalizer_mode: str = "log",
        point_color_by: str | None = None,
        cache=None,
        point_batch_size: int | None = None,
        max_density: float | None = None,
        point_mode: str = "sprite",
        splat_sigma: float = 1.5,
        splat_scale: float = 1.0,
        volume_mode: str = "auto",
    ):
        self.transfer = transfer or LinkedTransferFunctions()
        self.point_colormap = (
            get_colormap(point_colormap)
            if isinstance(point_colormap, str)
            else point_colormap
        )
        self.point_alpha = float(point_alpha)
        if int(point_size) < 1:
            raise ValueError("point_size must be >= 1")
        self.point_size = int(point_size)
        if int(n_slices) < 1:
            raise ValueError("n_slices must be >= 1")
        self.n_slices = int(n_slices)
        self.normalizer_mode = normalizer_mode
        # color points by a carried per-point attribute instead of
        # density -- the dynamic property coloring of paper section 2.5
        self.point_color_by = point_color_by
        self.cache = cache
        if point_batch_size is not None and int(point_batch_size) < 1:
            raise ValueError("point_batch_size must be >= 1")
        self.point_batch_size = None if point_batch_size is None else int(point_batch_size)
        if max_density is not None and float(max_density) <= 0.0:
            raise ValueError("max_density must be > 0")
        self.max_density = None if max_density is None else float(max_density)
        if point_mode not in ("sprite", "splat"):
            raise ValueError("point_mode must be 'sprite' or 'splat'")
        self.point_mode = point_mode
        if float(splat_sigma) <= 0.0:
            raise ValueError("splat_sigma must be > 0")
        self.splat_sigma = float(splat_sigma)
        if float(splat_scale) < 0.0:
            raise ValueError("splat_scale must be >= 0")
        self.splat_scale = float(splat_scale)
        if volume_mode not in ("auto", "flat"):
            raise ValueError("volume_mode must be 'auto' or 'flat'")
        self.volume_mode = volume_mode
        self._classified = None  # (key, read-only RGBA) of the last volume

    # ------------------------------------------------------------------
    def _frame_amr(self, frame: HybridFrame):
        """The frame's adaptive volume, when present and enabled."""
        if self.volume_mode != "auto":
            return None
        return frame.meta.get("amr")

    def _normalizer(self, frame: HybridFrame) -> DensityNormalizer:
        self._check_points(frame)
        dmax = self.max_density
        if dmax is None:
            dmax = frame.max_density()
            amr = self._frame_amr(frame)
            if amr is not None:
                # refined cells resolve peaks the flat grid averages
                # away; classify on the true maximum so they don't clip
                dmax = max(dmax, amr.max_density())
        return DensityNormalizer(max(dmax, 1e-300), mode=self.normalizer_mode)

    def _check_points(self, frame: HybridFrame) -> None:
        """Raise ``ValueError`` naming the first non-finite point array.

        A NaN position or density would drop its point silently, an
        infinite density would surface as a non-finite volume through
        ``max_density()``, and one NaN in the ``point_color_by``
        attribute would turn every drawn point's color NaN."""
        if not np.isfinite(frame.points).all():
            raise ValueError("frame has non-finite point positions")
        if not np.isfinite(frame.point_densities).all():
            raise ValueError("frame has non-finite point densities")
        values = frame.attributes.get(self.point_color_by)
        if values is not None and not np.isfinite(values).all():
            raise ValueError(
                f"point attribute {self.point_color_by!r} has non-finite values"
            )

    def classify_volume(self, frame: HybridFrame):
        """Apply the volume transfer function.

        Returns a read-only (X, Y, Z, 4) RGBA texture for flat frames,
        or an :class:`repro.render.amr.AmrRgbaVolume` (classified
        per-brick cells) when the frame carries an adaptive volume and
        ``volume_mode='auto'``.  The last classification is memoized on
        a digest of the density contents, the normalizer and the volume
        transfer function, so an orbit classifies each volume once.
        Raises ``ValueError`` on a non-finite density or point array
        (:meth:`_check_points`).
        """
        norm = self._normalizer(frame)
        amr = self._frame_amr(frame)
        density = frame.volume if amr is None else amr.data
        vtf = self.transfer.volume
        key = (
            None if amr is None else int(amr.level_hash),
            density.shape, density.dtype.str,
            hashlib.blake2b(np.ascontiguousarray(density), digest_size=16).digest(),
            norm.max_density, norm.mode,
            vtf.boundary, vtf.ramp, vtf.opacity,
            vtf.colormap.positions.tobytes(), vtf.colormap.colors.tobytes(),
        )
        memo = self._classified
        if memo is not None and memo[0] == key:
            count("classify_memo_hit")
            rgba = memo[1]
        else:
            count("classify_memo_miss")
            if not np.isfinite(density).all():
                raise ValueError("frame volume has non-finite densities")
            self._classified = None  # drop the old texture before building one
            rgba = self.transfer.volume_rgba(norm(density.astype(np.float64)))
            rgba.flags.writeable = False
            self._classified = (key, rgba)
        if amr is not None:
            from repro.render.amr import AmrRgbaVolume

            return AmrRgbaVolume(amr, rgba)
        return rgba

    def classified_points(self, frame: HybridFrame):
        """Subsample and color the halo points.

        Returns (positions (K, 3), rgba (K, 4)); the kept subset is the
        deterministic low-discrepancy selection of
        :func:`repro.render.points.select_fraction`, so "three out of
        every four points are drawn" at fraction 0.75.
        """
        pos, rgba, _ = self._classify_points(frame)
        return pos, rgba

    def _classify_points(self, frame: HybridFrame):
        """Like :meth:`classified_points` plus the kept points'
        normalized densities (drives per-point splat radii)."""
        if frame.n_points == 0:
            return np.empty((0, 3)), np.empty((0, 4)), np.empty(0)
        norm = self._normalizer(frame)
        t = norm(frame.point_densities.astype(np.float64))
        fractions = self.transfer.point_fraction(t)
        keep = select_fraction(frame.n_points, fractions)
        pos = frame.points[keep].astype(np.float64)
        rgba = np.empty((len(pos), 4))
        if self.point_color_by is not None:
            try:
                values = frame.attributes[self.point_color_by]
            except KeyError:
                raise KeyError(
                    f"frame carries no attribute {self.point_color_by!r}; "
                    f"available: {', '.join(sorted(frame.attributes)) or 'none'}"
                ) from None
            v = values[keep].astype(np.float64)
            lo, hi = (float(values.min()), float(values.max())) if len(values) else (0, 1)
            color_t = (v - lo) / max(hi - lo, 1e-300)
        else:
            color_t = t[keep]
        rgba[:, :3] = self.point_colormap(color_t)
        rgba[:, 3] = self.point_alpha
        return pos, rgba, t[keep]

    def _point_sigmas(self, t: np.ndarray) -> np.ndarray:
        """Per-point splat sigmas from normalized densities."""
        return self.splat_sigma * (1.0 + self.splat_scale * np.asarray(t))

    def _project_points(
        self,
        camera: Camera,
        pos: np.ndarray,
        rgba: np.ndarray,
        sigmas: np.ndarray | None = None,
    ):
        """Project classified points to fragments, honoring
        ``point_batch_size`` (a list of per-batch fragment streams in
        point order, which ``render_mixed`` merges losslessly)."""
        if len(pos) == 0:
            return None

        def frags(a, b):
            if self.point_mode == "splat":
                sig = (
                    self.splat_sigma
                    if sigmas is None
                    else sigmas[a:b]
                )
                return gaussian_splat_fragments(
                    camera, pos[a:b], rgba[a:b], sig
                )
            return point_fragments(
                camera, pos[a:b], rgba[a:b], point_size=self.point_size
            )

        batch = self.point_batch_size
        if batch is None or len(pos) <= batch:
            return frags(0, len(pos))
        return [frags(a, a + batch) for a in range(0, len(pos), batch)]

    # ------------------------------------------------------------------
    def render(self, frame: HybridFrame, camera: Camera | None = None) -> Framebuffer:
        """Full hybrid rendering (volume + interleaved points)."""
        camera = camera or Camera.fit_bounds(
            frame.lo, frame.hi, width=256, height=256
        )
        with span("classify_volume"):
            rgba_volume = self.classify_volume(frame)
        with span("classify_points", n_points=frame.n_points):
            pos, rgba, t = self._classify_points(frame)
            sigmas = self._point_sigmas(t) if self.point_mode == "splat" else None
            frags = self._project_points(camera, pos, rgba, sigmas)
        return render_mixed(
            camera,
            rgba_volume,
            frame.lo,
            frame.hi,
            point_fragments=frags,
            n_slices=self.n_slices,
            cache=self.cache,
        )

    def render_volume_part(
        self, frame: HybridFrame, camera: Camera | None = None
    ) -> Framebuffer:
        """The volume-rendered region alone (Figure 4 top)."""
        camera = camera or Camera.fit_bounds(frame.lo, frame.hi, width=256, height=256)
        rgba_volume = self.classify_volume(frame)
        return render_mixed(
            camera, rgba_volume, frame.lo, frame.hi, n_slices=self.n_slices,
            cache=self.cache,
        )

    def render_point_part(
        self, frame: HybridFrame, camera: Camera | None = None, opaque: bool = False
    ) -> Framebuffer:
        """The point-rendered region alone (Figure 4 bottom).

        ``opaque=True`` draws fully opaque points, as the paper does
        "so they are more visible"."""
        camera = camera or Camera.fit_bounds(frame.lo, frame.hi, width=256, height=256)
        pos, rgba, t = self._classify_points(frame)
        if opaque and len(rgba):
            rgba = rgba.copy()
            rgba[:, 3] = 1.0
        sigmas = self._point_sigmas(t) if self.point_mode == "splat" else None
        frags = self._project_points(camera, pos, rgba, sigmas)
        return render_mixed(
            camera, None, frame.lo, frame.hi, point_fragments=frags,
            n_slices=self.n_slices,
        )
