"""Bitwise reference harness for the line primitives.

Every polyline -- the flat and illuminated lines of ``render_lines``,
``draw_polyline``, ``draw_box``, ``draw_structure_outline`` and a
``Scene``'s polylines and outlines -- is sampled by one function,
:func:`repro.render.wireframe.sample_polylines`, which projects every
vertex at once and samples every visible segment at once, at most 512
samples a segment.  ``Scene`` colors strips and tubes with the
renderers' own :func:`repro.render.shading.strip_colors` and
:func:`repro.render.shading.tube_colors`.  The ``_ref_*`` functions
below are what these replaced, kept verbatim: the per-segment loop of
``line_fragments`` (with its cap of 64 samples a segment), the
wireframe's ``_polyline_fragments`` (cap 512), ``draw_polyline`` and
``render_lines`` (whose halo wrapped around the frame's left and right
edges), and ``Scene``'s own ``add_strips``, ``add_tubes``,
``add_polyline`` and ``add_wireframe_structure``.

Fragment streams must equal the references byte for byte, values and
dtypes.  The two documented departures: a line segment that projects
longer than 63 px gets up to 512 samples instead of 64, and the full
structure outline (``half=None``) no longer draws its first axial line
twice.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.fieldlines.sos as sos_module
import repro.fieldlines.streamtube as streamtube_module
from repro.fields.geometry import make_multicell_structure
from repro.fields.modes import multicell_standing_wave
from repro.fields.sampling import AnalyticSampler
from repro.fieldlines.illuminated import line_fragments, render_lines
from repro.fieldlines.integrate import FieldLine
from repro.fieldlines.seeding import seed_density_proportional
from repro.fieldlines.sos import build_strips, render_strips
from repro.fieldlines.streamtube import build_tubes, render_tubes
from repro.render.camera import Camera
from repro.render.colormap import Colormap, get_colormap
from repro.render.framebuffer import Framebuffer, resolve_fragments
from repro.render.raster import rasterize
from repro.render.scene import Scene
from repro.render.shading import halo_profile, line_illumination, phong, strip_shading
from repro.render.wireframe import (
    MAX_SAMPLES_PER_SEGMENT,
    draw_box,
    draw_polyline,
    draw_structure_outline,
    sample_polylines,
    structure_outline,
)


# ----------------------------------------------------------------------
# references, verbatim
def _ref_line_fragments(camera: Camera, lines, max_samples_per_segment: int = 64):
    """Sample polylines at ~pixel rate into a fragment stream.

    Returns (pix, depth, tangent (F, 3), mag (F,), line_id (F,)).
    """
    pix_all, dep_all, tan_all, mag_all, id_all = [], [], [], [], []
    w, h = camera.width, camera.height
    for li, line in enumerate(lines):
        pts = line.points
        if len(pts) < 2:
            continue
        xy, depth, visible = camera.project(pts)
        a_xy, b_xy = xy[:-1], xy[1:]
        a_d, b_d = depth[:-1], depth[1:]
        seg_ok = visible[:-1] & visible[1:]
        if not seg_ok.any():
            continue
        lengths = np.linalg.norm(b_xy - a_xy, axis=1)
        n_samples = np.clip(np.ceil(lengths).astype(int) + 1, 2, max_samples_per_segment)
        for s in np.flatnonzero(seg_ok):
            ts = np.linspace(0.0, 1.0, n_samples[s])
            sxy = a_xy[s] + (b_xy[s] - a_xy[s]) * ts[:, None]
            sd = a_d[s] + (b_d[s] - a_d[s]) * ts
            ix = np.floor(sxy[:, 0]).astype(np.int64)
            iy = np.floor(sxy[:, 1]).astype(np.int64)
            ok = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
            if not ok.any():
                continue
            pix_all.append(iy[ok] * w + ix[ok])
            dep_all.append(sd[ok])
            tangent = line.tangents[s] + ts[ok, None] * (
                line.tangents[s + 1] - line.tangents[s]
            )
            tan_all.append(tangent)
            mag = line.magnitudes[s] + ts[ok] * (
                line.magnitudes[s + 1] - line.magnitudes[s]
            )
            mag_all.append(mag)
            id_all.append(np.full(ok.sum(), li))
    if not pix_all:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0),
            np.empty((0, 3)),
            np.empty(0),
            np.empty(0, dtype=np.int64),
        )
    return (
        np.concatenate(pix_all),
        np.concatenate(dep_all),
        np.vstack(tan_all),
        np.concatenate(mag_all),
        np.concatenate(id_all),
    )


def _ref_polyline_fragments(camera: Camera, points: np.ndarray):
    """Sample a polyline at ~pixel rate; returns (pix, depth)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    xy, depth, visible = camera.project(pts)
    pix_all, dep_all = [], []
    w, h = camera.width, camera.height
    for s in range(len(pts) - 1):
        if not (visible[s] and visible[s + 1]):
            continue
        length = np.linalg.norm(xy[s + 1] - xy[s])
        n = int(np.clip(np.ceil(length) + 1, 2, 512))
        ts = np.linspace(0.0, 1.0, n)
        sxy = xy[s] + (xy[s + 1] - xy[s]) * ts[:, None]
        sd = depth[s] + (depth[s + 1] - depth[s]) * ts
        ix = np.floor(sxy[:, 0]).astype(np.int64)
        iy = np.floor(sxy[:, 1]).astype(np.int64)
        ok = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
        pix_all.append(iy[ok] * w + ix[ok])
        dep_all.append(sd[ok])
    if not pix_all:
        return np.empty(0, dtype=np.int64), np.empty(0)
    return np.concatenate(pix_all), np.concatenate(dep_all)


def _ref_draw_polyline(
    camera: Camera,
    fb: Framebuffer,
    points: np.ndarray,
    color=(0.45, 0.45, 0.5),
    alpha: float = 1.0,
) -> Framebuffer:
    """Draw one polyline into the framebuffer (depth-composited)."""
    pix, dep = _ref_polyline_fragments(camera, points)
    if len(pix) == 0:
        return fb
    rgba = np.empty((len(pix), 4))
    rgba[:, :3] = np.asarray(color, dtype=np.float64)
    rgba[:, 3] = alpha
    fb.pixels_over(*resolve_fragments(pix, dep, rgba))
    return fb


def _ref_render_lines(
    camera: Camera,
    lines,
    colormap: Colormap | str = "electric",
    fb: Framebuffer | None = None,
    illuminated: bool = True,
    alpha: float = 1.0,
    halo: bool = False,
    halo_pixels: int = 1,
    magnitude_range=None,
) -> Framebuffer:
    """Render lines as 1-pixel primitives.

    ``illuminated=False`` gives the flat "conventional line drawing";
    ``halo=True`` underlays each line with a black border ``halo_pixels``
    wide (the haloed-lines technique the paper compares against).
    """
    if fb is None:
        fb = Framebuffer(camera.width, camera.height)
    pix, dep, tan, mag, _ = _ref_line_fragments(camera, lines)
    if len(pix) == 0:
        return fb
    cmap = get_colormap(colormap) if isinstance(colormap, str) else colormap
    if magnitude_range is None:
        lo, hi = float(mag.min()), float(mag.max())
    else:
        lo, hi = magnitude_range
    t = np.clip((mag - lo) / max(hi - lo, 1e-300), 0.0, 1.0)
    base_rgb = cmap(t)
    if illuminated:
        headlight = -camera.forward
        rgb = line_illumination(tan, headlight, headlight, base_rgb)
    else:
        rgb = base_rgb

    if halo:
        # black fragments one pixel around, pushed slightly back in depth
        w = camera.width
        offsets = []
        r = int(halo_pixels)
        for dx in range(-r, r + 1):
            for dy in range(-r, r + 1):
                if dx or dy:
                    offsets.append(dy * w + dx)
        halo_pix = np.concatenate([pix + o for o in offsets])
        valid = (halo_pix >= 0) & (halo_pix < fb.n_pixels)
        halo_pix = halo_pix[valid]
        halo_dep = np.tile(dep, len(offsets))[valid] * 1.0005
        halo_rgba = np.zeros((len(halo_pix), 4))
        halo_rgba[:, 3] = 1.0
        pix = np.concatenate([pix, halo_pix])
        dep = np.concatenate([dep, halo_dep])
        rgba = np.vstack(
            [np.column_stack([rgb, np.full(len(rgb), alpha)]), halo_rgba]
        )
    else:
        rgba = np.column_stack([rgb, np.full(len(rgb), alpha)])

    fb.pixels_over(*resolve_fragments(pix, dep, rgba))
    return fb


class _RefScene(Scene):
    """``Scene`` with its own strip and tube coloring and outline, as
    they were (the outline calls the kept ``add_polyline``)."""

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
        """Self-orienting strips (or ribbons), shaded to fragments."""
        if strips.n_triangles == 0:
            return self
        cmap = get_colormap(colormap) if isinstance(colormap, str) else colormap
        frags = rasterize(
            self.camera,
            strips.vertices,
            strips.triangles,
            {"v": strips.v_coord, "mag": strips.magnitude},
        )
        if len(frags) == 0:
            return self
        v = frags.attrs["v"][:, 0]
        mag = frags.attrs["mag"][:, 0]
        if magnitude_range is None:
            lo, hi = float(strips.magnitude.min()), float(strips.magnitude.max())
        else:
            lo, hi = magnitude_range
        t = np.clip((mag - lo) / max(hi - lo, 1e-300), 0.0, 1.0)
        base = cmap(t)
        if shading == "bump":
            rgb = strip_shading(v, base)
        elif shading == "flat":
            rgb = base
        else:
            raise ValueError("shading must be 'bump' or 'flat'")
        if halo_core is not None:
            rgb = rgb * halo_profile(v, core=halo_core)[:, None]
        a = np.full(len(rgb), alpha)
        if alpha_by_magnitude:
            a = a * np.clip(t, 0.05, 1.0)
        self._push(frags.pix, frags.depth, np.column_stack([rgb, a]))
        return self

    def add_tubes(
        self,
        tubes,
        colormap: Colormap | str = "electric",
        alpha: float = 1.0,
        magnitude_range=None,
    ) -> "Scene":
        """Phong-shaded streamtubes to fragments."""
        if tubes.n_triangles == 0:
            return self
        cmap = get_colormap(colormap) if isinstance(colormap, str) else colormap
        frags = rasterize(
            self.camera,
            tubes.vertices,
            tubes.triangles,
            {"normal": tubes.normals, "mag": tubes.magnitude},
        )
        if len(frags) == 0:
            return self
        normals = frags.attrs["normal"]
        nn = np.linalg.norm(normals, axis=1, keepdims=True)
        normals = normals / np.where(nn < 1e-12, 1.0, nn)
        mag = frags.attrs["mag"][:, 0]
        if magnitude_range is None:
            lo, hi = float(tubes.magnitude.min()), float(tubes.magnitude.max())
        else:
            lo, hi = magnitude_range
        t = np.clip((mag - lo) / max(hi - lo, 1e-300), 0.0, 1.0)
        headlight = -self.camera.forward
        rgb = phong(normals, headlight, headlight, cmap(t))
        self._push(
            frags.pix, frags.depth,
            np.column_stack([rgb, np.full(len(rgb), alpha)]),
        )
        return self

    def add_polyline(self, points, color=(0.45, 0.45, 0.5), alpha: float = 1.0) -> "Scene":
        pix, dep = _ref_polyline_fragments(self.camera, points)
        if len(pix):
            rgba = np.empty((len(pix), 4))
            rgba[:, :3] = np.asarray(color, dtype=np.float64)
            rgba[:, 3] = alpha
            self._push(pix, dep, rgba)
        return self

    def add_wireframe_structure(
        self, structure, color=(0.4, 0.42, 0.48), alpha: float = 0.5,
        half: str | None = None, n_rings: int = 24, n_theta: int = 48,
        n_axial: int = 8,
    ) -> "Scene":
        """Structure outline rings + axial lines as fragments."""
        if half not in (None, "front", "back"):
            raise ValueError("half must be None, 'front', or 'back'")
        if half == "back":
            thetas = np.linspace(np.pi, 2 * np.pi, n_theta)
        elif half == "front":
            thetas = np.linspace(0.0, np.pi, n_theta)
        else:
            thetas = np.linspace(0.0, 2 * np.pi, n_theta + 1)
        for z in np.linspace(0.0, structure.length, n_rings):
            r = structure.wall_radius(thetas, np.full_like(thetas, z))
            ring = np.column_stack(
                [r * np.cos(thetas), r * np.sin(thetas), np.full_like(thetas, z)]
            )
            self.add_polyline(ring, color=color, alpha=alpha)
        z_fine = np.linspace(0.0, structure.length, 96)
        for theta in np.linspace(thetas[0], thetas[-1], n_axial):
            r = structure.wall_radius(np.full_like(z_fine, theta), z_fine)
            self.add_polyline(
                np.column_stack([r * np.cos(theta), r * np.sin(theta), z_fine]),
                color=color, alpha=alpha,
            )
        return self


# ----------------------------------------------------------------------
# checks
def assert_same(got, want) -> None:
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        g, w = np.asarray(g), np.asarray(w)
        assert g.dtype == w.dtype and g.shape == w.shape, i
        assert g.tobytes() == w.tobytes(), i


def longest_visible_segment(camera: Camera, polylines) -> float:
    """Projected length in pixels of the longest segment whose two ends
    are visible (0 when there is none)."""
    longest = 0.0
    for pts in polylines:
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        if len(pts) < 2:
            continue
        xy, _, visible = camera.project(pts)
        ok = visible[:-1] & visible[1:]
        if ok.any():
            longest = max(longest, float(np.linalg.norm(xy[1:] - xy[:-1], axis=1)[ok].max()))
    return longest


def check_line_fragments(camera: Camera, lines) -> None:
    """The sampler against the loop at the wireframe's cap on every
    input, and at the loop's own cap of 64 wherever no visible segment
    projects longer than 63 px -- where one does, the two caps differ."""
    got = line_fragments(camera, lines)
    assert_same(got, _ref_line_fragments(camera, lines, max_samples_per_segment=512))
    if longest_visible_segment(camera, [line.points for line in lines]) <= 63.0:
        assert_same(got, _ref_line_fragments(camera, lines))
    else:
        assert len(got[0]) > len(_ref_line_fragments(camera, lines)[0])


def check_polylines(camera: Camera, polylines) -> None:
    """Each polyline alone, and all in one call split by polyline,
    against the wireframe's loop."""
    refs = [_ref_polyline_fragments(camera, p) for p in polylines]
    for p, ref in zip(polylines, refs):
        assert_same(sample_polylines(camera, [p])[:2], ref)
    pix, dep, start, _ = sample_polylines(camera, polylines)
    ends = np.searchsorted(start, np.cumsum([len(np.atleast_2d(p)) for p in polylines]))
    for lo, hi, ref in zip([0, *ends[:-1]], ends, refs):
        assert_same((pix[lo:hi], dep[lo:hi]), ref)


def scene_stream(scene: Scene):
    """The fragments a scene holds, as one stream."""
    if not scene._pix:
        return np.empty(0, dtype=np.int64), np.empty(0), np.empty((0, 4))
    return (np.concatenate(scene._pix), np.concatenate(scene._dep), np.concatenate(scene._rgba))


# ----------------------------------------------------------------------
# inputs
def _line(points, tangents=None, magnitudes=None):
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if tangents is None:
        tangents = np.gradient(points, axis=0) if len(points) > 1 else np.zeros_like(points)
        tangents = tangents / np.maximum(np.linalg.norm(tangents, axis=1), 1e-300)[:, None]
    if magnitudes is None:
        magnitudes = np.linspace(1.0, 2.0, len(points))
    return FieldLine(
        points=points, tangents=np.asarray(tangents, dtype=np.float64).reshape(-1, 3),
        magnitudes=np.asarray(magnitudes, dtype=np.float64),
    )


def _helix(n, phase=0.0, z0=-1.0, radius=0.4):
    t = np.linspace(0.0, 3.0, n) + phase
    return _line(np.column_stack([radius * np.cos(t), radius * np.sin(t), z0 + 0.6 * t]))


CAMERAS = {
    "small": Camera(eye=[0.3, 0.2, 4.0], target=[0, 0, 0], width=96, height=80),
    "large": Camera(eye=[0.3, 0.2, 4.0], target=[0, 0, 0], width=640, height=600),
}


def edge_line_sets(camera: Camera):
    """Line sets of 0, 1 and 2 points; a segment with one end behind
    the eye, one off screen, one half on screen and one of zero length;
    segments that project longer than 63 px and than 511 px."""
    eye = np.asarray(camera.eye, dtype=np.float64)
    empty = np.empty((0, 3))
    across = camera.unproject(
        np.array([[0.02 * camera.width, 0.5 * camera.height],
                  [0.98 * camera.width, 0.45 * camera.height]]),
        np.array([4.0, 4.2]),
    )
    return {
        "none": [],
        "zero_points": [_line(empty, empty, np.empty(0))],
        "one_point": [_line([[0.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]], [1.0])],
        "two_points": [_line([[0.0, 0.0, 0.0], [0.1, 0.3, 0.1]])],
        "0_1_2_points": [
            _line(empty, empty, np.empty(0)),
            _line([[0.2, 0.1, 0.0]], [[1.0, 0.0, 0.0]], [3.0]),
            _line([[0.0, 0.0, 0.0], [-0.2, 0.1, 0.3]]),
            _helix(9),
        ],
        "behind_eye": [
            _line([[0.2, 0.0, 0.0], [0.1, 0.1, 0.5], eye + [0.1, 0.0, 1.0], [0.3, -0.2, 0.2]]),
            _line([eye + [0.0, 0.0, 2.0], eye + [0.5, 0.0, 3.0]]),
        ],
        "off_screen": [
            _line([[0.0, 0.0, 0.0], [40.0, 0.0, 0.0], [0.1, 0.2, 0.0], [0.3, 0.1, 0.2]]),
            _line([[40.0, 1.0, 0.0], [41.0, 1.0, 0.0]]),
        ],
        "half_on_screen": [
            _line(camera.unproject(
                np.array([[0.5 * camera.width, 0.5 * camera.height],
                          [1.08 * camera.width, 0.3 * camera.height],
                          [1.1 * camera.width, -0.05 * camera.height]]),
                np.array([4.0, 4.0, 4.1]),
            )),
        ],
        "zero_length": [
            _line([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.2, 0.1, 0.0], [0.2, 0.1, 0.0]]),
        ],
        "long": [_line(across), _helix(5, radius=1.2)],
        "mixed": [
            _helix(12, phase=0.5),
            _line(empty, empty, np.empty(0)),
            _line(across[::-1]),
            _line([[0.0, 0.0, 0.0], [40.0, 0.0, 0.0]]),
            _helix(30, phase=2.0, z0=-0.5),
            _line([[0.1, 0.1, 0.1]], [[0.0, 1.0, 0.0]], [0.5]),
        ],
    }


@pytest.fixture(scope="module")
def fig6():
    """FIG6's 120 E lines (``benchmarks/conftest.py``'s ``seeded_lines``
    at scale 1) on the 3-cell structure."""
    structure = make_multicell_structure(3, n_xy=6, n_z_per_unit=6)
    mode = multicell_standing_wave(structure)
    structure.mesh.set_field("E", mode.e_field(structure.mesh.vertices, 0.0))
    ordered = seed_density_proportional(
        structure.mesh, AnalyticSampler(mode, "E", t=0.0, structure=structure),
        total_lines=120, field_name="E", max_steps=150, rng=np.random.default_rng(2),
    )
    return structure, ordered.lines


def fig6_camera(structure, size):
    return Camera.fit_bounds(*structure.bounds(), width=size, height=size)


@pytest.fixture(scope="module")
def outline_structure():
    return make_multicell_structure(2, n_xy=4, n_z_per_unit=4)


# ----------------------------------------------------------------------
class TestLineSampler:
    @pytest.mark.parametrize("size", [160, 512, 1024])
    def test_fig6_lines(self, fig6, size):
        structure, lines = fig6
        assert len(lines) == 120
        camera = fig6_camera(structure, size)
        assert longest_visible_segment(camera, [line.points for line in lines]) <= 63.0
        check_line_fragments(camera, lines)

    @pytest.mark.parametrize("camera", sorted(CAMERAS))
    def test_edge_line_sets(self, camera):
        camera = CAMERAS[camera]
        sets = edge_line_sets(camera)
        for lines in sets.values():
            check_line_fragments(camera, lines)
            check_polylines(camera, [line.points for line in lines])

    def test_edge_inputs_reach_their_cases(self):
        """The edge sets hold what they are named for."""
        small, large = CAMERAS["small"], CAMERAS["large"]
        sets = edge_line_sets(large)
        for name in ("behind_eye", "off_screen"):
            _, _, visible = large.project(np.concatenate([line.points for line in sets[name]]))
            assert not visible.all(), name
        assert 511.0 < longest_visible_segment(large, [line.points for line in sets["long"]])
        long_small = edge_line_sets(small)["long"]
        assert 63.0 < longest_visible_segment(small, [line.points for line in long_small]) < 511
        # a >511 px segment gets the cap's 512 samples, so it leaves gaps
        pix, _, start, _ = sample_polylines(large, [sets["long"][0].points])
        assert len(pix) <= MAX_SAMPLES_PER_SEGMENT and np.all(start == 0)
        xy, _, _ = large.project(sets["half_on_screen"][0].points)
        assert xy[1, 0] > large.width

    def test_random_lines(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            camera = Camera(
                eye=rng.normal(size=3) + [0.0, 0.0, 3.0], target=[0, 0, 0],
                width=int(rng.integers(8, 200)), height=int(rng.integers(8, 200)),
            )
            lines = []
            for _ in range(int(rng.integers(0, 9))):
                n = int(rng.integers(0, 14))
                pts = rng.normal(scale=float(rng.uniform(0.2, 3.0)), size=(n, 3))
                if n > 2 and rng.random() < 0.3:
                    pts[rng.integers(1, n)] = pts[0]
                lines.append(_line(pts, rng.normal(size=(n, 3)), rng.uniform(0.0, 3.0, n)))
            check_line_fragments(camera, lines)
            check_polylines(camera, [line.points for line in lines])

    def test_lines_from_an_iterator(self, fig6):
        structure, lines = fig6
        camera = fig6_camera(structure, 160)
        assert_same(line_fragments(camera, iter(lines)), line_fragments(camera, lines))


class TestPolylineSampler:
    @pytest.mark.parametrize("half", [None, "front", "back"])
    def test_outline_polylines(self, outline_structure, half):
        for size in (96, 256):
            camera = Camera.fit_bounds(
                *outline_structure.bounds(), width=size, height=size, direction=(0.3, 0.8, 0.5)
            )
            check_polylines(camera, structure_outline(outline_structure, half))

    def test_single_point_and_flat_input(self):
        camera = CAMERAS["small"]
        for points in ([0.1, 0.2, 0.0], [[0.1, 0.2, 0.0]], [[0, 0, 0], [1, 1, 0]]):
            assert_same(sample_polylines(camera, [points])[:2],
                        _ref_polyline_fragments(camera, points))

    def test_draw_paths_composite_each_polyline(self, outline_structure):
        """``draw_polyline``, ``draw_box`` and ``draw_structure_outline``
        give the bytes of one kept ``draw_polyline`` per polyline."""
        camera = Camera.fit_bounds(*outline_structure.bounds(), width=128, height=112)
        for half in ("back", "front", None):
            fb = draw_structure_outline(camera, Framebuffer(128, 112), outline_structure, half=half)
            ref = Framebuffer(128, 112)
            for p in structure_outline(outline_structure, half):
                _ref_draw_polyline(camera, ref, p, color=(0.4, 0.42, 0.48), alpha=0.5)
            assert fb.rgba.tobytes() == ref.rgba.tobytes()
            assert fb.depth.tobytes() == ref.depth.tobytes()
        lo, hi = np.array([-0.8, -0.7, 0.1]), np.array([0.9, 0.6, 2.5])
        fb = draw_box(camera, Framebuffer(128, 112), lo, hi, alpha=0.6)
        ref = Framebuffer(128, 112)
        c = [np.array([x, y, z]) for x in (lo[0], hi[0]) for y in (lo[1], hi[1])
             for z in (lo[2], hi[2])]
        for a, b in [(0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (1, 3), (4, 6), (5, 7),
                     (0, 4), (1, 5), (2, 6), (3, 7)]:
            _ref_draw_polyline(camera, ref, np.vstack([c[a], c[b]]),
                               color=(0.35, 0.35, 0.4), alpha=0.6)
        assert fb.rgba.tobytes() == ref.rgba.tobytes()
        assert fb.depth.tobytes() == ref.depth.tobytes()
        points = np.array([[-1.0, -0.6, 0.5], [0.2, 0.8, 1.4], [1.0, -0.3, 0.2], [-1.0, -0.6, 0.5]])
        fb = draw_polyline(camera, Framebuffer(128, 112), points, alpha=0.7)
        ref = _ref_draw_polyline(camera, Framebuffer(128, 112), points, alpha=0.7)
        assert fb.rgba.tobytes() == ref.rgba.tobytes()


class TestStructureOutline:
    @pytest.mark.parametrize("half", [None, "front", "back"])
    @pytest.mark.parametrize("n_axial", [2, 5, 8])
    def test_distinct_axial_lines(self, outline_structure, half, n_axial):
        polylines = structure_outline(outline_structure, half, n_rings=6, n_axial=n_axial)
        assert len(polylines) == 6 + n_axial
        axial = np.stack(polylines[6:])
        gaps = [np.abs(axial[i] - axial[j]).max()
                for i in range(n_axial) for j in range(i + 1, n_axial)]
        assert min(gaps) > 1e-6

    def test_bad_half(self, outline_structure):
        with pytest.raises(ValueError, match="half"):
            structure_outline(outline_structure, "left")


class TestLineHalo:
    def _column_line(self, camera, x):
        """A line down pixel column ``x``, rows 10 to 50."""
        xy = np.column_stack([np.full(9, x + 0.5), np.linspace(10.5, 50.5, 9)])
        points = camera.unproject(xy, np.full(9, 5.0))
        return _line(points)

    def test_edge_columns_do_not_wrap(self):
        camera = Camera(eye=[0, 0, 5.0], target=[0, 0, 0], width=64, height=64)
        for x, other in ((63, 0), (0, 63)):
            line = self._column_line(camera, x)
            pix, *_ = line_fragments(camera, [line])
            assert np.all(pix % 64 == x)
            fb = render_lines(camera, [line], halo=True)
            alpha = fb.rgba[..., 3]
            assert np.all(alpha[:, other] == 0.0)
            assert (alpha[:, x] > 0).any() and (alpha[:, x + (1 if x == 0 else -1)] > 0).any()
            # the wrapped halo of the kept code
            ref = _ref_render_lines(camera, [line], halo=True).rgba[..., 3]
            assert (ref[:, other] > 0).any()

    @pytest.mark.parametrize("options", [
        {}, {"illuminated": False}, {"alpha": 0.4}, {"magnitude_range": (0.0, 3.0)},
        {"halo": True}, {"halo": True, "illuminated": False, "alpha": 0.6},
    ])
    def test_away_from_the_edges(self, fig6, options):
        """Lines off the frame's left and right edges: the kept
        ``render_lines``' bytes, on a fresh and on a prefilled frame."""
        structure, lines = fig6
        camera = fig6_camera(structure, 160)
        pix, *_ = line_fragments(camera, lines)
        assert np.all((pix % 160 > 0) & (pix % 160 < 159))
        for background in ((0.0, 0.0, 0.0, 0.0), (0.2, 0.3, 0.4, 1.0)):
            fb = render_lines(camera, lines, fb=Framebuffer(160, 160, background), **options)
            ref = _ref_render_lines(
                camera, lines, fb=Framebuffer(160, 160, background), **options
            )
            assert fb.rgba.tobytes() == ref.rgba.tobytes()
            assert fb.depth.tobytes() == ref.depth.tobytes()


# ----------------------------------------------------------------------
def _scene_lines():
    return [_helix(24, phase=p, z0=-1.0 + 0.2 * p) for p in (0.0, 0.7, 1.4, 2.1, 2.8)]


STRIP_SETTINGS = [
    {},
    {"shading": "flat", "halo_core": None},
    {"alpha": 0.55},
    {"alpha_by_magnitude": True},
    {"alpha_by_magnitude": True, "alpha": 0.6, "magnitude_range": (1.2, 1.8)},
    {"magnitude_range": (0.0, 5.0), "colormap": "magnetic", "halo_core": 0.5},
]


class TestSceneColoring:
    @pytest.fixture
    def camera(self):
        return Camera(eye=[0.3, 0.2, 4.0], target=[0, 0, 0], width=96, height=80)

    @pytest.mark.parametrize("settings", STRIP_SETTINGS)
    def test_strips(self, camera, fig6, settings):
        structure, lines = fig6
        cases = [
            (camera, build_strips(_scene_lines(), camera, width=0.12)),
            (fig6_camera(structure, 160), build_strips(lines, fig6_camera(structure, 160), 0.03)),
        ]
        for cam, strips in cases:
            got = scene_stream(Scene(cam).add_strips(strips, **settings))
            assert len(got[0]) > 0
            assert_same(got, scene_stream(_RefScene(cam).add_strips(strips, **settings)))

    @pytest.mark.parametrize("settings", [{}, {"alpha": 0.5, "magnitude_range": (1.1, 1.7)}])
    def test_tubes(self, camera, settings):
        tubes = build_tubes(_scene_lines(), radius=0.05, n_sides=6)
        got = scene_stream(Scene(camera).add_tubes(tubes, **settings))
        assert len(got[0]) > 0
        assert_same(got, scene_stream(_RefScene(camera).add_tubes(tubes, **settings)))

    def test_empty_meshes(self, camera):
        strips = build_strips([], camera)
        tubes = build_tubes([], radius=0.05)
        assert Scene(camera).add_strips(strips).add_tubes(tubes).n_fragments == 0
        far = build_strips([_line([[40.0, 0, 0], [41.0, 0, 0]])], camera, width=0.1)
        assert Scene(camera).add_strips(far).n_fragments == 0

    def test_polylines(self, camera):
        sets = edge_line_sets(camera)
        for lines in sets.values():
            got, ref = Scene(camera), _RefScene(camera)
            for line in lines:
                got.add_polyline(line.points, color=(0.9, 0.1, 0.2), alpha=0.7)
                ref.add_polyline(line.points, color=(0.9, 0.1, 0.2), alpha=0.7)
            assert_same(scene_stream(got), scene_stream(ref))

    @pytest.mark.parametrize("half", ["front", "back"])
    def test_half_outlines(self, outline_structure, half):
        camera = Camera.fit_bounds(*outline_structure.bounds(), width=120, height=100)
        for n_axial in (3, 8):
            got = Scene(camera).add_wireframe_structure(
                outline_structure, half=half, n_axial=n_axial, alpha=0.4
            )
            ref = _RefScene(camera).add_wireframe_structure(
                outline_structure, half=half, n_axial=n_axial, alpha=0.4
            )
            assert_same(scene_stream(got), scene_stream(ref))

    def test_full_outline_drops_the_duplicate_line(self, outline_structure):
        """``half=None`` at ``n_axial`` lines is the kept outline at
        ``n_axial + 1``, whose last line (theta = 2 pi) repeats its first,
        without that last line."""
        camera = Camera.fit_bounds(*outline_structure.bounds(), width=120, height=100)
        for n_axial in (3, 8):
            got = scene_stream(
                Scene(camera).add_wireframe_structure(outline_structure, n_axial=n_axial)
            )
            ref = scene_stream(
                _RefScene(camera).add_wireframe_structure(outline_structure, n_axial=n_axial + 1)
            )
            z = np.linspace(0.0, outline_structure.length, 96)
            r = outline_structure.wall_radius(np.full_like(z, 2 * np.pi), z)
            duplicate = _ref_polyline_fragments(
                camera, np.column_stack([r * np.cos(2 * np.pi), r * np.sin(2 * np.pi), z])
            )
            assert len(duplicate[0]) > 0
            n = len(got[0])
            assert len(ref[0]) == n + len(duplicate[0])
            assert_same(got, tuple(a[:n] for a in ref))
            assert_same(duplicate, tuple(a[n:] for a in ref[:2]))
            # the kept outline at n_axial draws theta = 0 twice
            twice = scene_stream(
                _RefScene(camera).add_wireframe_structure(outline_structure, n_axial=n_axial)
            )
            assert not np.array_equal(twice[0], got[0])

    def test_renderers_color_as_the_kept_scene(self, monkeypatch, camera):
        """``render_strips`` and ``render_tubes`` resolve the colors the
        kept ``Scene`` methods pushed."""
        streams = []

        def opaque(frags, *args, **kwargs):
            streams.append((frags.pix, frags.depth, frags.attrs["rgb"]))
            return real_opaque(frags, *args, **kwargs)

        def fragments(pixels, depths, rgba):
            streams.append((pixels, depths, rgba))
            return real_fragments(pixels, depths, rgba)

        real_opaque, real_fragments = sos_module.resolve_opaque, sos_module.resolve_fragments
        monkeypatch.setattr(sos_module, "resolve_opaque", opaque)
        monkeypatch.setattr(sos_module, "resolve_fragments", fragments)
        monkeypatch.setattr(streamtube_module, "resolve_opaque", opaque)
        strips = build_strips(_scene_lines(), camera, width=0.12)
        renderer_names = {"alpha": "base_alpha"}
        for settings in STRIP_SETTINGS:
            render_strips(
                camera, strips, **{renderer_names.get(k, k): v for k, v in settings.items()}
            )
            ref = scene_stream(_RefScene(camera).add_strips(strips, **settings))
            pix, dep, color = streams.pop()
            transparent = settings.get("alpha_by_magnitude") or settings.get("alpha", 1.0) < 1.0
            assert_same((pix, dep, color), ref if transparent else (ref[0], ref[1], ref[2][:, :3]))
        tubes = build_tubes(_scene_lines(), radius=0.05, n_sides=6)
        for settings in ({}, {"magnitude_range": (1.1, 1.7), "colormap": "gray"}):
            render_tubes(camera, tubes, **settings)
            ref = scene_stream(_RefScene(camera).add_tubes(tubes, **settings))
            assert_same(streams.pop(), (ref[0], ref[1], ref[2][:, :3]))
