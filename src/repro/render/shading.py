"""Shading models for strips, tubes, and lines.

Reproduces the paper's perception toolkit (section 3.3):

- ``strip_shading``: the normal-map ("bump map") trick that makes a
  flat self-orienting strip look like a Phong-lit tube.  The texture
  coordinate across the strip (v in [0, 1]) encodes the cross-section;
  the implied cylinder normal is reconstructed per fragment and lit
  with a headlight, so "the lighting appears exact" (section 3.3.2).
- ``halo_profile``: black rims outside a core width, the haloing cue.
- ``line_illumination``: the tangent-based lighting of the illuminated
  field lines baseline (Stalling, Zoeckler, Hege [13]).

``magnitude_t``, ``strip_colors`` and ``tube_colors`` color the
fragments of field-line strips and tubes, for the direct renderers and
for :class:`repro.render.scene.Scene` alike.
"""

from __future__ import annotations

import numpy as np

from repro.render.colormap import Colormap, get_colormap

__all__ = [
    "strip_shading",
    "halo_profile",
    "line_illumination",
    "phong",
    "magnitude_t",
    "strip_colors",
    "tube_colors",
]


def phong(
    normals: np.ndarray,
    view: np.ndarray,
    light: np.ndarray,
    base_rgb: np.ndarray,
    ambient: float = 0.15,
    diffuse: float = 0.7,
    specular: float = 0.45,
    shininess: float = 24.0,
) -> np.ndarray:
    """Classic Phong lighting; all direction arrays are unit (N, 3)."""
    normals = np.asarray(normals, dtype=np.float64)
    view = np.broadcast_to(np.asarray(view, dtype=np.float64), normals.shape)
    light = np.broadcast_to(np.asarray(light, dtype=np.float64), normals.shape)
    ndl = np.clip(np.sum(normals * light, axis=-1), 0.0, 1.0)
    # Blinn half-vector
    half = view + light
    hn = np.linalg.norm(half, axis=-1, keepdims=True)
    half = half / np.where(hn < 1e-12, 1.0, hn)
    ndh = np.clip(np.sum(normals * half, axis=-1), 0.0, 1.0)
    spec = ndh**shininess
    base = np.asarray(base_rgb, dtype=np.float64)
    if base.ndim == 1:
        base = np.broadcast_to(base, normals.shape[:-1] + (3,))
    out = base * (ambient + diffuse * ndl[..., None]) + specular * spec[..., None]
    return np.clip(out, 0.0, 1.0)


def strip_shading(
    v: np.ndarray,
    base_rgb: np.ndarray,
    ambient: float = 0.12,
    diffuse: float = 0.75,
    specular: float = 0.5,
    shininess: float = 30.0,
) -> np.ndarray:
    """Shade strip fragments as if they were a lit cylinder.

    Parameters
    ----------
    v : (F,) across-strip texture coordinate in [0, 1]; 0.5 is the
        strip's center line.
    base_rgb : (F, 3) or (3,) base color.

    Because the strip always faces the viewer and the light is a
    headlight, the cylinder normal's component toward the viewer is
    ``nz = sqrt(1 - nx^2)`` with ``nx = 2 v - 1`` across the strip;
    diffuse and specular terms depend only on nz.  This is exactly the
    1-D bump map the hardware path encodes in a texture.
    """
    v = np.asarray(v, dtype=np.float64)
    nx = np.clip(2.0 * v - 1.0, -1.0, 1.0)
    nz = np.sqrt(np.maximum(0.0, 1.0 - nx * nx))
    base = np.asarray(base_rgb, dtype=np.float64)
    if base.ndim == 1:
        base = np.broadcast_to(base, v.shape + (3,))
    out = base * (ambient + diffuse * nz[..., None]) + specular * (nz**shininess)[..., None]
    return np.clip(out, 0.0, 1.0)


def halo_profile(v: np.ndarray, core: float = 0.7) -> np.ndarray:
    """Halo mask across the strip: 1 inside the lit core, 0 in the rim.

    ``core`` is the fraction of the strip width occupied by the lit
    tube; the remainder renders as a black halo that separates
    overlapping lines (paper section 3.3.2).  Returns (F,) in {0..1}
    with a one-texel-ish soft edge.
    """
    v = np.asarray(v, dtype=np.float64)
    x = np.abs(2.0 * v - 1.0)  # 0 center, 1 edge
    edge = np.clip((core - x) / 0.05 + 1.0, 0.0, 1.0)
    return edge


def line_illumination(
    tangents: np.ndarray,
    view: np.ndarray,
    light: np.ndarray,
    base_rgb: np.ndarray,
    ambient: float = 0.15,
    diffuse: float = 0.65,
    specular: float = 0.5,
    shininess: float = 18.0,
) -> np.ndarray:
    """Illuminated-lines shading (maximum-principle lighting).

    For a 1-D primitive only the tangent T is defined; the effective
    diffuse term is ``sqrt(1 - (L.T)^2)`` (the largest N.L over all
    normals perpendicular to T), and similarly for the specular term —
    the formulation of [13] that the paper compares against.
    """
    t = np.asarray(tangents, dtype=np.float64)
    tn = np.linalg.norm(t, axis=-1, keepdims=True)
    t = t / np.where(tn < 1e-12, 1.0, tn)
    light = np.broadcast_to(np.asarray(light, dtype=np.float64), t.shape)
    view = np.broadcast_to(np.asarray(view, dtype=np.float64), t.shape)
    lt = np.sum(light * t, axis=-1)
    vt = np.sum(view * t, axis=-1)
    dif = np.sqrt(np.maximum(0.0, 1.0 - lt * lt))
    # specular: reflect L about the plane orthogonal to T
    spec_cos = dif * np.sqrt(np.maximum(0.0, 1.0 - vt * vt)) - lt * vt
    spec = np.clip(spec_cos, 0.0, 1.0) ** shininess
    base = np.asarray(base_rgb, dtype=np.float64)
    if base.ndim == 1:
        base = np.broadcast_to(base, t.shape[:-1] + (3,))
    out = base * (ambient + diffuse * dif[..., None]) + specular * spec[..., None]
    return np.clip(out, 0.0, 1.0)


def magnitude_t(mag: np.ndarray, magnitudes: np.ndarray, magnitude_range=None) -> np.ndarray:
    """Fragment magnitudes as colormap coordinates, ``(mag - lo) / (hi -
    lo)``, not clipped.  ``magnitude_range`` is (lo, hi); by default the
    range of ``magnitudes``."""
    if magnitude_range is None:
        lo, hi = float(magnitudes.min()), float(magnitudes.max())
    else:
        lo, hi = magnitude_range
    return (mag - lo) / max(hi - lo, 1e-300)


def strip_colors(
    v: np.ndarray,
    t: np.ndarray,
    colormap: Colormap | str,
    shading: str,
    halo_core: float | None,
    alpha: float,
    alpha_by_magnitude: bool,
):
    """RGB and alpha of strip fragments.

    The colormap at ``t`` (:func:`magnitude_t`), shaded as a lit tube
    (``shading='bump'``, :func:`strip_shading`) or not ('flat'),
    darkened to a halo outside ``halo_core`` (None: no halo); alpha is
    ``alpha``, scaled by ``t`` clipped to [0.05, 1] when
    ``alpha_by_magnitude``.  Returns (rgb (F, 3), alpha (F,)).
    """
    cmap = get_colormap(colormap) if isinstance(colormap, str) else colormap
    rgb = cmap(np.clip(t, 0.0, 1.0))
    if shading == "bump":
        rgb = strip_shading(v, rgb)
    elif shading != "flat":
        raise ValueError("shading must be 'bump' or 'flat'")
    if halo_core is not None:
        rgb = rgb * halo_profile(v, core=halo_core)[:, None]
    a = np.full(len(rgb), alpha)
    if alpha_by_magnitude:
        a = a * np.clip(t, 0.05, 1.0)
    return rgb, a


def tube_colors(
    normals: np.ndarray, t: np.ndarray, colormap: Colormap | str, headlight: np.ndarray
) -> np.ndarray:
    """Phong-lit RGB of tube fragments: the colormap at ``t``
    (:func:`magnitude_t`) under a headlight, on the interpolated
    normals made unit length."""
    cmap = get_colormap(colormap) if isinstance(colormap, str) else colormap
    nn = np.linalg.norm(normals, axis=1, keepdims=True)
    normals = normals / np.where(nn < 1e-12, 1.0, nn)
    return phong(normals, headlight, headlight, cmap(np.clip(t, 0.0, 1.0)))
