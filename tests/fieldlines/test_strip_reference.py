"""Bitwise reference harness for the strip builder and the fragment
renderers' compositing.

:func:`build_strips` builds every line's strip in one pass over the
concatenated vertices, and the fragment renderers (SOS strips, opaque
and transparent; streamtubes; ribbons; illuminated lines;
``render_points``; the wireframe) hand only the pixels they cover to
:meth:`Framebuffer.pixels_over`.  The ``_ref_*`` functions below are
what these replaced, kept verbatim: the per-line strip builder and the
two full-frame paths, ``resolve_opaque`` -> ``layer_over`` and
``composite_fragments`` -> ``layer_over``, whose full-frame resolves
are the references of ``tests/render/test_composite_reference.py``.

Every ``StripMesh`` array must equal the reference byte for byte.  A
renderer pass is checked against the full-frame path on the same
fragment stream (spied at the renderer's resolve call): its covered
pixels and the whole depth buffer equal the reference bit for bit,
and every other pixel keeps its exact prior bytes, where the full-frame
over rewrote it as rgb * a / a (and zeroed its rgb where a = 0).  On a
fresh framebuffer the whole image equals the reference.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.fieldlines.illuminated as illuminated_module
import repro.fieldlines.ribbon as ribbon_module
import repro.fieldlines.sos as sos_module
import repro.fieldlines.streamtube as streamtube_module
import repro.render.points as points_module
import repro.render.wireframe as wireframe_module
from repro.core.trace import capture
from repro.fields.geometry import make_multicell_structure
from repro.fields.sampling import YeeSampler
from repro.fields.solver import TimeDomainSolver
from repro.fieldlines.illuminated import render_lines
from repro.fieldlines.integrate import FieldLine
from repro.fieldlines.ribbon import build_ribbons, render_ribbons
from repro.fieldlines.seeding import seed_density_proportional
from repro.fieldlines.sos import StripMesh, build_strips, render_strips
from repro.fieldlines.streamtube import build_tubes, render_tubes
from repro.fieldlines.transparency import render_with_emphasis
from repro.render.camera import Camera
from repro.render.framebuffer import Framebuffer, composite_over
from repro.render.points import render_points
from repro.render.raster import Fragments
from repro.render.wireframe import draw_box, draw_polyline

from ..render.test_composite_reference import _ref_composite_fragments, _ref_resolve_opaque


# ----------------------------------------------------------------------
# reference: the per-line strip builder and the full-frame over,
# verbatim; the full-frame resolves are test_composite_reference's
def _ref_side_vectors(points: np.ndarray, tangents: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """Unit vectors across the strip: T x (eye - p), degenerate spans
    (tangent parallel to the view ray) reuse the previous side."""
    view = eye[None, :] - points
    side = np.cross(tangents, view)
    norms = np.linalg.norm(side, axis=1)
    good = norms > 1e-12
    if not good.all():
        # forward-fill from the nearest good neighbor
        fallback = np.array([1.0, 0.0, 0.0])
        last = fallback
        for i in range(len(side)):
            if good[i]:
                last = side[i] / norms[i]
            else:
                side[i] = last
                norms[i] = 1.0
    side = side / np.where(norms < 1e-12, 1.0, norms)[:, None]
    return side


def _ref_build_strips(
    lines,
    camera: Camera,
    width: float = 0.02,
    width_by_magnitude: bool = False,
) -> StripMesh:
    verts = []
    tris = []
    v_coords = []
    u_coords = []
    mags = []
    ids = []
    v_offset = 0
    eye = np.asarray(camera.eye, dtype=np.float64)
    for li, line in enumerate(lines):
        pts = line.points
        if len(pts) < 2:
            continue
        side = _ref_side_vectors(pts, line.tangents, eye)
        w = np.full(len(pts), width)
        if width_by_magnitude:
            peak = max(float(line.magnitudes.max()), 1e-300)
            w = width * (0.35 + 0.65 * line.magnitudes / peak)
        left = pts - side * (w[:, None] / 2.0)
        right = pts + side * (w[:, None] / 2.0)
        k = len(pts)
        strip_verts = np.empty((2 * k, 3))
        strip_verts[0::2] = left
        strip_verts[1::2] = right
        u = line.arc_lengths() / max(width, 1e-12)
        i = np.arange(k - 1)
        a = v_offset + 2 * i
        b = a + 1
        c = a + 2
        d = a + 3
        strip_tris = np.concatenate(
            [np.stack([a, b, c], axis=1), np.stack([b, d, c], axis=1)]
        )
        verts.append(strip_verts)
        tris.append(strip_tris)
        v_coords.append(np.tile([0.0, 1.0], k))
        u_coords.append(np.repeat(u, 2))
        mags.append(np.repeat(line.magnitudes, 2))
        ids.append(np.full(2 * k, li))
        v_offset += 2 * k

    if not verts:
        empty3 = np.empty((0, 3))
        empty = np.empty(0)
        return StripMesh(empty3, np.empty((0, 3), dtype=np.int64), empty, empty, empty, empty)
    return StripMesh(
        vertices=np.vstack(verts),
        triangles=np.vstack(tris).astype(np.int64),
        v_coord=np.concatenate(v_coords),
        u_coord=np.concatenate(u_coords),
        magnitude=np.concatenate(mags),
        line_id=np.concatenate(ids),
        meta={"width": width, "n_lines": len(lines)},
    )


def _ref_layer_over(fb: Framebuffer, layer_rgba, layer_depth=None) -> None:
    if layer_rgba.shape != fb.rgba.shape:
        raise ValueError("layer shape mismatch")
    composite_over_under_depth = layer_rgba  # naming clarity only
    composite_over(fb.rgba.reshape(-1, 4), composite_over_under_depth.reshape(-1, 4))
    if layer_depth is not None:
        present = layer_rgba[..., 3] > 1e-4
        fb.depth[present] = np.minimum(fb.depth[present], layer_depth[present])


def _ref_pass(fb: Framebuffer, call) -> None:
    """One renderer pass through the kept full-frame path: the resolve of the
    spied fragment stream, then a full-frame ``layer_over``."""
    kind, args = call
    if kind == "opaque":
        layer, depth = _ref_resolve_opaque(args, fb.n_pixels)
    else:
        layer, depth = _ref_composite_fragments(*args, fb.n_pixels)
    _ref_layer_over(
        fb, layer.reshape(fb.height, fb.width, 4), depth.reshape(fb.height, fb.width)
    )


# ----------------------------------------------------------------------
# the spy: every resolve call's fragment stream and the framebuffer
# around every pixels_over
class PassSpy:
    def __init__(self, monkeypatch):
        self.calls = []    # ("opaque", Fragments) or ("fragments", (pix, dep, rgba))
        self.states = []   # (rgba, depth) before, (rgba, depth) after, covered pix
        real_opaque = sos_module.resolve_opaque
        real_fragments = sos_module.resolve_fragments
        real_over = Framebuffer.pixels_over

        def opaque(frags, *args, **kwargs):
            kept = Fragments(
                frags.pix.copy(), frags.depth.copy(),
                {k: v.copy() for k, v in frags.attrs.items()}, frags.tri.copy(),
            )
            self.calls.append(("opaque", kept))
            return real_opaque(frags, *args, **kwargs)

        def fragments(pixels, depths, rgba):
            self.calls.append(
                ("fragments", tuple(np.array(a, copy=True) for a in (pixels, depths, rgba)))
            )
            return real_fragments(pixels, depths, rgba)

        def over(fb, pix, rgba, depth):
            before = (fb.rgba.copy(), fb.depth.copy())
            real_over(fb, pix, rgba, depth)
            self.states.append((before, (fb.rgba.copy(), fb.depth.copy()), np.asarray(pix)))

        for module in (sos_module, streamtube_module, ribbon_module):
            monkeypatch.setattr(module, "resolve_opaque", opaque)
        for module in (sos_module, illuminated_module, points_module, wireframe_module):
            monkeypatch.setattr(module, "resolve_fragments", fragments)
        monkeypatch.setattr(Framebuffer, "pixels_over", over)

    def check(self) -> int:
        """Every pass against the full-frame path from the same prior
        framebuffer; returns the number of passes."""
        assert len(self.calls) == len(self.states)
        for call, ((rgba0, depth0), (rgba1, depth1), pix) in zip(self.calls, self.states):
            h, w = depth0.shape
            ref = Framebuffer(w, h)
            ref.rgba[...] = rgba0
            ref.depth[...] = depth0
            _ref_pass(ref, call)
            covered = np.zeros(h * w, dtype=bool)
            covered[pix] = True
            got = rgba1.reshape(-1, 4)
            assert got[covered].tobytes() == ref.rgba.reshape(-1, 4)[covered].tobytes()
            assert got[~covered].tobytes() == rgba0.reshape(-1, 4)[~covered].tobytes()
            assert depth1.tobytes() == ref.depth.tobytes()
        return len(self.calls)


def reference_render(calls, fb: Framebuffer) -> Framebuffer:
    """Replay spied passes on ``fb`` through the kept full-frame path."""
    for call in calls:
        _ref_pass(fb, call)
    return fb


def assert_same_strips(got: StripMesh, want: StripMesh) -> None:
    for name in ("vertices", "triangles", "v_coord", "u_coord", "magnitude", "line_id"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name
    assert got.meta == want.meta


# ----------------------------------------------------------------------
# inputs
FIELD_SOS = {
    "n_cells": 12, "n_xy": 5, "n_z_per_unit": 5, "cells_per_unit": 8,
    "snapshot_time": 4.0, "lines": 60, "max_steps": 150, "line_width": 0.03,
    "views": 4, "image": 256,
}
SNAPSHOTS = 4


@pytest.fixture(scope="module")
def field_sos():
    """The ``field_sos`` chain at its sizes: 4 snapshots of 60 seeded
    lines on the 12-cell structure, and its 4 side-on cameras."""
    s = FIELD_SOS
    structure = make_multicell_structure(
        s["n_cells"], n_xy=s["n_xy"], n_z_per_unit=s["n_z_per_unit"]
    )
    solver = TimeDomainSolver(structure, cells_per_unit=s["cells_per_unit"])
    cameras = [
        Camera.fit_bounds(
            *structure.bounds(), direction=(np.cos(a), 0.2, np.sin(a)),
            width=s["image"], height=s["image"],
        )
        for a in np.linspace(-0.5, 0.5, s["views"])
    ]
    steps = solver.steps_for(s["snapshot_time"])
    snapshots = []
    for k in range(SNAPSHOTS):
        solver.run(steps)
        solver.fields_on_mesh()
        ordered = seed_density_proportional(
            structure.mesh, YeeSampler(solver, "E"), total_lines=s["lines"],
            max_steps=s["max_steps"], rng=np.random.default_rng([0, k]),
        )
        snapshots.append(ordered.lines)
    return structure, cameras, snapshots


def _line(points, tangents=None, magnitudes=None):
    points = np.asarray(points, dtype=np.float64)
    if tangents is None:
        tangents = np.gradient(points, axis=0) if len(points) > 1 else np.zeros_like(points)
        tangents = tangents / np.maximum(np.linalg.norm(tangents, axis=1), 1e-300)[:, None]
    if magnitudes is None:
        magnitudes = np.linspace(1.0, 2.0, len(points))
    return FieldLine(
        points=points, tangents=np.asarray(tangents, dtype=np.float64),
        magnitudes=np.asarray(magnitudes, dtype=np.float64),
    )


def _helix(n, phase=0.0, z0=-1.0):
    t = np.linspace(0.0, 3.0, n) + phase
    return _line(np.column_stack([0.4 * np.cos(t), 0.4 * np.sin(t), z0 + 0.6 * t]))


def _edge_lines(cam: Camera):
    """0-, 1- and 2-point lines, a line whose every tangent points at the
    eye, a line with one degenerate vertex mid-line, an all-zero- and a
    tiny-magnitude line."""
    eye = np.asarray(cam.eye, dtype=np.float64)
    toward = np.array([[0.1, 0.0, 0.0], [0.1, 0.0, 0.5], [0.1, 0.0, 1.0]])
    at_eye = (eye - toward) / np.linalg.norm(eye - toward, axis=1)[:, None]
    mid = _helix(9, phase=0.3)
    mid_t = mid.tangents.copy()
    mid_t[4] = (eye - mid.points[4]) / np.linalg.norm(eye - mid.points[4])
    empty = np.empty((0, 3))
    return [
        _line(empty, empty, np.empty(0)),
        _line([[0.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]], [1.0]),
        _line([[0.0, 0.0, 0.0], [0.0, 0.3, 0.1]]),
        _line(toward, at_eye),
        _line(mid.points, mid_t, mid.magnitudes),
        _line(_helix(7, phase=1.0).points, magnitudes=np.zeros(7)),
        _line(_helix(6, phase=1.5).points, magnitudes=np.linspace(0.0, 1e-6, 6)),
        _helix(12, phase=2.0, z0=-0.5),
    ]


@pytest.fixture
def cam():
    return Camera(eye=[0.3, 0.2, 4.0], target=[0, 0, 0], width=72, height=64)


# ----------------------------------------------------------------------
class TestBuildStrips:
    def test_field_sos_lines(self, field_sos):
        _, cameras, snapshots = field_sos
        for lines in snapshots:
            assert len(lines) == FIELD_SOS["lines"]
            for camera in cameras:
                assert_same_strips(
                    build_strips(lines, camera, width=FIELD_SOS["line_width"]),
                    _ref_build_strips(lines, camera, width=FIELD_SOS["line_width"]),
                )

    @pytest.mark.parametrize("by_magnitude", [False, True])
    def test_edge_lines(self, cam, by_magnitude):
        lines = _edge_lines(cam)
        for sub in (lines, lines[:3], lines[3:4], lines[4:5], lines[5:7], lines[::-1]):
            assert_same_strips(
                build_strips(sub, cam, width=0.07, width_by_magnitude=by_magnitude),
                _ref_build_strips(sub, cam, width=0.07, width_by_magnitude=by_magnitude),
            )

    def test_degenerate_sides_take_the_fill(self, cam):
        lines = _edge_lines(cam)
        strips = build_strips([lines[3]], cam, width=0.1)
        across = strips.vertices[1::2] - strips.vertices[0::2]
        # every side is degenerate: the fallback +x
        assert np.allclose(across, [0.1, 0.0, 0.0])
        strips = build_strips([lines[4]], cam, width=0.1)
        across = strips.vertices[1::2] - strips.vertices[0::2]
        assert np.allclose(across[4], across[3])

    def test_no_strip(self, cam):
        lines = _edge_lines(cam)[:2]
        got, want = build_strips(lines, cam), _ref_build_strips(lines, cam)
        assert_same_strips(got, want)
        assert got.n_triangles == 0

    def test_random_lines(self):
        rng = np.random.default_rng(11)
        cam = Camera(eye=[0.0, -0.5, 3.0], target=[0, 0, 0], width=48, height=48)
        for _ in range(20):
            lines = []
            for _ in range(int(rng.integers(1, 9))):
                n = int(rng.integers(0, 12))
                pts = rng.normal(size=(n, 3))
                tan = rng.normal(size=(n, 3))
                if n and rng.random() < 0.3:
                    tan[rng.integers(0, n)] = 0.0
                lines.append(_line(pts, tan, rng.uniform(0.0, 3.0, n)))
            for by_mag in (False, True):
                assert_same_strips(
                    build_strips(lines, cam, width=0.05, width_by_magnitude=by_mag),
                    _ref_build_strips(lines, cam, width=0.05, width_by_magnitude=by_mag),
                )


# ----------------------------------------------------------------------
def _scene_lines():
    return [_helix(24, phase=p, z0=-1.0 + 0.2 * p) for p in (0.0, 0.7, 1.4, 2.1, 2.8)]


def _sos_opaque(cam, fb):
    return render_strips(cam, build_strips(_scene_lines(), cam, width=0.12), fb=fb)


def _sos_transparent(cam, fb):
    strips = build_strips(_scene_lines(), cam, width=0.12)
    return render_strips(cam, strips, fb=fb, alpha_by_magnitude=True, base_alpha=0.6)


def _streamtubes(cam, fb):
    return render_tubes(cam, build_tubes(_scene_lines(), radius=0.05, n_sides=6), fb=fb)


def _ribbons(cam, fb):
    ribbons = build_ribbons(_scene_lines(), lambda p: np.tile([0.0, 0.0, 1.0], (len(p), 1)), 0.1)
    return render_ribbons(cam, ribbons, fb=fb)


def _illuminated(cam, fb):
    return render_lines(cam, _scene_lines(), fb=fb, alpha=0.7, halo=True)


def _points(cam, fb):
    rng = np.random.default_rng(5)
    pts = rng.normal(scale=0.5, size=(400, 3))
    rgba = np.column_stack([rng.uniform(0.2, 1.0, (400, 3)), rng.uniform(0.1, 0.9, 400)])
    # pixels whose only fragments are (nearly) transparent: depth stays
    rgba[::9, 3] = 0.0
    rgba[1::9, 3] = 5e-5
    return render_points(cam, pts, rgba, fb=fb, point_size=2)


def _wireframe(cam, fb):
    return draw_polyline(
        cam, fb, np.array([[-1.0, -0.6, -0.5], [0.2, 0.8, 0.4], [1.0, -0.3, -0.2]]),
        alpha=0.6,
    )


PATHS = {
    "sos_opaque": _sos_opaque,
    "sos_transparent": _sos_transparent,
    "streamtubes": _streamtubes,
    "ribbons": _ribbons,
    "illuminated": _illuminated,
    "points": _points,
    "wireframe": _wireframe,
}


def _prefilled(cam, background=(0.0, 0.0, 0.0, 0.0), seed=0):
    """Prior content with fractional alpha (some alpha-0 pixels that
    keep their rgb) over a finite and infinite depth buffer."""
    rng = np.random.default_rng(seed)
    fb = Framebuffer(cam.width, cam.height, background=background)
    mask = rng.random((cam.height, cam.width)) < 0.6
    fb.rgba[mask] = rng.uniform(0.0, 1.0, (int(mask.sum()), 4))
    fb.rgba[mask & (rng.random(mask.shape) < 0.2), 3] = 0.0
    fb.depth[mask] = rng.uniform(3.0, 5.0, int(mask.sum()))
    return fb


class TestRendererPaths:
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_fresh_framebuffer(self, monkeypatch, cam, path):
        spy = PassSpy(monkeypatch)
        fb = PATHS[path](cam, Framebuffer(cam.width, cam.height))
        assert spy.check() == 1
        ref = reference_render(spy.calls, Framebuffer(cam.width, cam.height))
        assert fb.rgba.tobytes() == ref.rgba.tobytes()
        assert fb.depth.tobytes() == ref.depth.tobytes()
        assert len(spy.states[0][2]) > 0

    @pytest.mark.parametrize("background", [(0.0, 0.0, 0.0, 0.0), (0.2, 0.3, 0.4, 0.0)])
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_prefilled_framebuffer(self, monkeypatch, cam, path, background):
        spy = PassSpy(monkeypatch)
        PATHS[path](cam, _prefilled(cam, background))
        assert spy.check() == 1

    def test_multi_pass_renders(self, monkeypatch, cam):
        """The two-pass region emphasis and the 12 polylines of a box:
        each pass against the full-frame path from its own prior
        framebuffer."""
        spy = PassSpy(monkeypatch)
        fb = Framebuffer(cam.width, cam.height)
        render_with_emphasis(cam, _scene_lines(), [0.0, 0.0, 0.0], 0.5, width=0.1, fb=fb)
        draw_box(cam, fb, [-0.8, -0.8, -0.8], [0.8, 0.8, 0.8], alpha=0.5)
        assert spy.check() == 14

    def test_field_sos_views(self, monkeypatch, field_sos):
        """Every ``field_sos`` view: the strips of the kept builder, the
        image of the kept full-frame path."""
        _, cameras, snapshots = field_sos
        spy = PassSpy(monkeypatch)
        for lines in snapshots:
            for camera in cameras:
                strips = _ref_build_strips(lines, camera, width=FIELD_SOS["line_width"])
                fb = render_strips(camera, strips)
                ref = reference_render(spy.calls[-1:], Framebuffer(camera.width, camera.height))
                assert fb.rgba.tobytes() == ref.rgba.tobytes()
                assert fb.depth.tobytes() == ref.depth.tobytes()
        assert spy.check() == SNAPSHOTS * FIELD_SOS["views"]

    def test_full_frame_over_rewrote_uncovered_pixels(self, cam):
        """The cases a full-frame over changed and a covered-pixel over
        keeps: a background with rgb under alpha 0 (its rgb was zeroed),
        and prior content whose rgb * a / a rounds away from rgb."""
        a = 0.37
        grid = np.linspace(0.01, 0.99, 99)
        drift = grid[(grid * a) / a != grid]
        assert drift.size >= 3
        for background in ((0.2, 0.3, 0.4, 0.0), (*drift[:3], a)):
            fb = Framebuffer(cam.width, cam.height, background=background)
            ref = Framebuffer(cam.width, cam.height, background=background)
            prior = fb.rgba.copy()
            pix = np.array([5, 9])
            rgba = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.5]])
            fb.pixels_over(pix, rgba, np.array([1.0, 2.0]))
            layer = np.zeros((fb.n_pixels, 4))
            layer[pix] = rgba
            _ref_layer_over(ref, layer.reshape(fb.rgba.shape))
            rest = np.setdiff1d(np.arange(fb.n_pixels), pix)
            got_rest = fb.rgba.reshape(-1, 4)[rest]
            ref_rest = ref.rgba.reshape(-1, 4)[rest]
            assert got_rest.tobytes() == prior.reshape(-1, 4)[rest].tobytes()
            if background[3] == 0.0:
                assert np.all(ref_rest[:, :3] == 0.0)
            else:
                assert np.all(ref_rest[:, :3] != got_rest[:, :3])
            assert (
                fb.rgba.reshape(-1, 4)[pix].tobytes() == ref.rgba.reshape(-1, 4)[pix].tobytes()
            )


class TestStripCompositeSpan:
    def test_one_span_per_render(self, cam):
        strips = build_strips(_scene_lines(), cam, width=0.1)
        with capture(enabled=True) as t:
            render_strips(cam, strips)
        assert t.spans["strip_composite"]["count"] == 1
        assert t.spans["rasterize"]["count"] == 1
        assert not any(path.startswith("strip_composite/") for path in t.spans)
