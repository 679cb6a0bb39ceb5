"""PERF -- hot-path kernel overhaul: frame cache, batched seeding, PIC.

Three before/after measurements for the cached-geometry renderer, the
batched density-proportional seeder, and the space-charge PIC cycle:

* *frame*: a 64^3 RGBA volume mixed with ~200 k halo points, rendered
  repeatedly from one camera.  Cold = first cached render (geometry
  build + draw), warm = subsequent renders reusing the cached slice
  geometry, uncached = the pre-cache path (geometry rebuilt per call).
  Cached and uncached images must be bit-identical.
* *seeding*: greedy one-line-at-a-time seeding vs the round-based
  batched seeder at several batch sizes, with the density-accuracy
  correlation so the speed/quality trade-off is visible.
* *spacecharge*: a 20-step drift+kick loop through the current solver
  (cached Green's function, bincount deposit, staged FFTs, bounds
  hysteresis) vs a faithful re-implementation of the pre-optimization
  kernels (``np.add.at`` deposit, full-array ``np.fft`` Hockney solve
  with the Green's function rebuilt every step, fancy-indexed gather,
  bounds refit every step) -- the honest before/after for this PR.
  Plus the single-solve cached vs uncached ratio.

Every arm is timed as the median of ``ROUNDS`` interleaved runs: each
round runs every arm of a comparison once, in turn, so a swing in
machine load lands on both sides of a speedup instead of on one.

Writes ``BENCH_frame_cache.json``; ``scripts/check.sh --gate perf``
gates on the recorded speedups.
"""

import time

import numpy as np

from common import record, record_bench, scaled, traced_run

from repro.beams.distributions import PX, PY, PZ
from repro.beams.spacecharge import (
    SpaceChargeSolver,
    clear_green_cache,
    electric_field,
    solve_poisson_open,
)
from repro.fieldlines.seeding import seed_density_proportional
from repro.render.camera import Camera
from repro.render.frame_cache import FrameGeometryCache
from repro.render.points import point_fragments
from repro.render.volume import render_mixed

N_POINTS = scaled(200_000)
N_LINES = scaled(48)
BATCH_SIZES = [4, 8, 16]
N_PARTICLES = scaled(10_000)
N_STEPS = 20
GRID = (64, 64, 64)
ROUNDS = 5


def _clock(fn, *args, **kwargs) -> float:
    """Wall seconds of one ``fn(*args, **kwargs)`` call (arguments are
    evaluated before the clock starts)."""
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def _interleaved(arms: dict) -> dict:
    """Median seconds of each arm over ``ROUNDS`` rounds; every round
    runs every arm once, in order.  ``arms`` maps a name to a
    zero-argument callable returning its measured seconds."""
    samples = {name: [] for name in arms}
    for _ in range(ROUNDS):
        for name, run in arms.items():
            samples[name].append(run())
    return {name: float(np.median(t)) for name, t in samples.items()}


# ----------------------------------------------------------------------
# the pre-optimization space-charge kernels, reproduced verbatim from
# the seed implementation (git history) so the "before" arm is honest
def _deposit_base(positions, shape, lo, hi):
    cell = (hi - lo) / (np.array(shape) - 1)
    grid = np.zeros(shape)
    rel = (positions - lo) / cell
    i0 = np.floor(rel).astype(np.int64)
    for ax in range(3):
        i0[:, ax] = np.clip(i0[:, ax], 0, shape[ax] - 2)
    f = np.clip(rel - i0, 0.0, 1.0)
    w = np.ones(len(positions))
    for dx in (0, 1):
        wx = w * (f[:, 0] if dx else 1.0 - f[:, 0])
        for dy in (0, 1):
            wy = wx * (f[:, 1] if dy else 1.0 - f[:, 1])
            for dz in (0, 1):
                wz = wy * (f[:, 2] if dz else 1.0 - f[:, 2])
                np.add.at(grid, (i0[:, 0] + dx, i0[:, 1] + dy, i0[:, 2] + dz), wz)
    return grid


def _gather_base(field, positions, lo, hi):
    comps = field
    nx, ny, nz = comps.shape[1:]
    cell = (hi - lo) / (np.array([nx, ny, nz]) - 1)
    rel = (positions - lo) / cell
    i0 = np.floor(rel).astype(np.int64)
    i0[:, 0] = np.clip(i0[:, 0], 0, nx - 2)
    i0[:, 1] = np.clip(i0[:, 1], 0, ny - 2)
    i0[:, 2] = np.clip(i0[:, 2], 0, nz - 2)
    f = np.clip(rel - i0, 0.0, 1.0)
    out = np.zeros((comps.shape[0], len(positions)))
    for dx in (0, 1):
        wx = f[:, 0] if dx else 1.0 - f[:, 0]
        for dy in (0, 1):
            wy = wx * (f[:, 1] if dy else 1.0 - f[:, 1])
            for dz in (0, 1):
                wz = wy * (f[:, 2] if dz else 1.0 - f[:, 2])
                out += comps[:, i0[:, 0] + dx, i0[:, 1] + dy, i0[:, 2] + dz] * wz
    return out


def _solve_base(rho, cell):
    nx, ny, nz = rho.shape
    gx = np.arange(2 * nx, dtype=np.float64)
    gy = np.arange(2 * ny, dtype=np.float64)
    gz = np.arange(2 * nz, dtype=np.float64)
    gx = np.minimum(gx, 2 * nx - gx) * cell[0]
    gy = np.minimum(gy, 2 * ny - gy) * cell[1]
    gz = np.minimum(gz, 2 * nz - gz) * cell[2]
    r = np.sqrt(
        gx[:, None, None] ** 2 + gy[None, :, None] ** 2 + gz[None, None, :] ** 2
    )
    with np.errstate(divide="ignore"):
        green = 1.0 / (4.0 * np.pi * r)
    green[0, 0, 0] = 1.0 / (4.0 * np.pi * (0.5 * float(np.mean(cell))))
    rho_pad = np.zeros((2 * nx, 2 * ny, 2 * nz))
    rho_pad[:nx, :ny, :nz] = rho
    phi_pad = np.fft.irfftn(
        np.fft.rfftn(rho_pad) * np.fft.rfftn(green),
        s=rho_pad.shape,
        axes=(0, 1, 2),
    )
    return phi_pad[:nx, :ny, :nz] * float(np.prod(cell))


def _run_baseline(particles, dl, strength, padding):
    """20 drift+kick steps through the pre-optimization kernels."""
    for _ in range(N_STEPS):
        pos = particles[:, :3]
        center = pos.mean(axis=0)
        half = np.maximum(np.abs(pos - center).max(axis=0), 1e-9) * padding
        lo, hi = center - half, center + half
        cell = (hi - lo) / (np.array(GRID) - 1)
        rho = _deposit_base(pos, GRID, lo, hi)
        rho /= len(particles) * float(np.prod(cell))
        phi = _solve_base(rho, cell)
        e_grid = electric_field(phi, cell)
        e = _gather_base(e_grid, pos, lo, hi)
        particles[:, PX] += strength * e[0] * dl
        particles[:, PY] += strength * e[1] * dl
        particles[:, PZ] += strength * e[2] * dl
        particles[:, 0] += particles[:, PX] * dl
        particles[:, 1] += particles[:, PY] * dl
        particles[:, 2] += particles[:, PZ] * dl


def _run_current(particles, dl, solver):
    for _ in range(N_STEPS):
        solver.kick(particles, dl)
        particles[:, 0] += particles[:, PX] * dl
        particles[:, 1] += particles[:, PY] * dl
        particles[:, 2] += particles[:, PZ] * dl


def _beam_scene(rng):
    """A beam-core density volume plus a halo point cloud."""
    ax = np.linspace(-1.0, 1.0, 64)
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    density = np.exp(-(x**2 + y**2) / 0.08 - z**2 / 0.5)
    vol = np.empty((64, 64, 64, 4))
    vol[..., 0] = 0.2 + 0.8 * density
    vol[..., 1] = 0.4 * density
    vol[..., 2] = 1.0 - density
    vol[..., 3] = 0.6 * density
    pts = rng.normal(0.0, 0.45, (N_POINTS, 3))
    rgba = np.full((N_POINTS, 4), [1.0, 0.85, 0.3, 0.12])
    camera = Camera(eye=(2.4, 1.8, 2.9), target=(0, 0, 0), width=256, height=256)
    frags = point_fragments(camera, pts, rgba, point_size=1)
    lo = np.array([-1.0, -1.0, -1.0])
    hi = np.array([1.0, 1.0, 1.0])
    return camera, vol, lo, hi, frags


def test_frame_cache_report(benchmark, structure3, mode3, e_sampler):
    results = {}

    def measure():
        rng = np.random.default_rng(0)

        # -- frame: cold / warm / uncached ------------------------------
        camera, vol, lo, hi, frags = _beam_scene(rng)

        def frame(cache):
            return render_mixed(
                camera, vol, lo, hi, point_fragments=frags,
                n_slices=64, cache=cache,
            )

        fb_uncached = frame(False)
        cache = FrameGeometryCache()
        frame(cache)
        fb_warm = frame(cache)  # served from the filled cache
        t = _interleaved({
            "uncached": lambda: _clock(frame, False),
            "cold": lambda: _clock(frame, FrameGeometryCache()),
            "warm": lambda: _clock(frame, cache),
        })
        identical = bool(
            np.array_equal(fb_uncached.rgba, fb_warm.rgba)
            and np.array_equal(fb_uncached.depth, fb_warm.depth)
        )
        results["frame"] = {
            "n_points": int(N_POINTS),
            "volume": "64^3",
            "image": "256x256 x 64 slices",
            "t_uncached_s": t["uncached"],
            "t_cold_s": t["cold"],
            "t_warm_s": t["warm"],
            "warm_speedup": t["uncached"] / t["warm"],
            "bit_identical": identical,
        }

        # -- seeding: greedy vs batched ---------------------------------
        from repro.fieldlines.incremental import density_correlation

        lines = {}  # batch size (None: greedy) -> the seeded lines

        def seed(batch):
            kw = {} if batch is None else {"batch_size": batch}
            lines[batch] = seed_density_proportional(
                structure3.mesh, e_sampler, total_lines=N_LINES,
                max_steps=120, rng=np.random.default_rng(0), **kw,
            )

        t = _interleaved(
            {b: (lambda b=b: _clock(seed, b)) for b in [None] + BATCH_SIZES}
        )
        rho = {b: density_correlation(structure3.mesh, lines[b], N_LINES) for b in lines}
        rows = [
            {
                "batch_size": batch,
                "t_s": t[batch],
                "speedup": t[None] / t[batch],
                "density_rho": rho[batch],
            }
            for batch in BATCH_SIZES
        ]
        results["seeding"] = {
            "n_lines": int(N_LINES),
            "t_greedy_s": t[None],
            "greedy_density_rho": rho[None],
            "batched": rows,
        }

        # -- space charge: 20-step run, before vs after -----------------
        def fresh_beam():
            p = np.zeros((N_PARTICLES, 6))
            g = np.random.default_rng(1)
            p[:, :3] = g.standard_normal((N_PARTICLES, 3)) * [0.3, 0.3, 0.8]
            p[:, 3:] = g.standard_normal((N_PARTICLES, 3)) * 0.01
            return p

        dl, strength, padding = 0.05, 1e-2, 1.3

        def current_arm():
            clear_green_cache()  # every run starts from a cold Green's cache
            solver = SpaceChargeSolver(grid_shape=GRID, strength=strength, padding=padding)
            return _clock(_run_current, fresh_beam(), dl, solver)

        t = _interleaved({
            "baseline": lambda: _clock(_run_baseline, fresh_beam(), dl, strength, padding),
            "current": current_arm,
        })

        # single-solve cached vs uncached (Green's-function reuse alone)
        rho = np.random.default_rng(2).random(GRID)
        cell = np.array([0.02, 0.02, 0.05])
        solve_poisson_open(rho, cell)  # populate
        ts = _interleaved({
            "uncached": lambda: _clock(solve_poisson_open, rho, cell, cached=False),
            "cached": lambda: _clock(solve_poisson_open, rho, cell),
        })
        results["spacecharge"] = {
            "grid": "64^3",
            "n_particles": int(N_PARTICLES),
            "n_steps": N_STEPS,
            "t_baseline_s": t["baseline"],
            "t_current_s": t["current"],
            "run_speedup": t["baseline"] / t["current"],
            "t_solve_uncached_s": ts["uncached"],
            "t_solve_cached_s": ts["cached"],
            "solve_speedup": ts["uncached"] / ts["cached"],
        }

    tracer = traced_run(lambda: benchmark.pedantic(measure, rounds=1, iterations=1))
    record_bench("frame_cache", tracer, extra=results)

    f = results["frame"]
    s = results["seeding"]
    c = results["spacecharge"]
    record(
        "PERF-FRAME-CACHE",
        [
            f"mixed frame {f['image']}, {f['n_points']} pts, {f['volume']} volume:",
            f"  median of {ROUNDS} interleaved runs: uncached {f['t_uncached_s']:.3f} s, "
            f"cold {f['t_cold_s']:.3f} s, warm {f['t_warm_s']:.3f} s "
            f"(x{f['warm_speedup']:.2f}), bit-identical: {f['bit_identical']}",
            f"seeding {s['n_lines']} lines: greedy {s['t_greedy_s']:.2f} s "
            f"(rho {s['greedy_density_rho']:+.3f})",
        ]
        + [
            f"  batch={r['batch_size']:3d}: {r['t_s']:.2f} s "
            f"(x{r['speedup']:.2f}), rho {r['density_rho']:+.3f}"
            for r in s["batched"]
        ]
        + [
            f"space charge {c['grid']} x {c['n_steps']} steps, "
            f"{c['n_particles']} particles:",
            f"  baseline {c['t_baseline_s']:.2f} s, current {c['t_current_s']:.2f} s "
            f"(x{c['run_speedup']:.2f})",
            f"  single solve: uncached {c['t_solve_uncached_s']:.3f} s, "
            f"cached {c['t_solve_cached_s']:.3f} s (x{c['solve_speedup']:.2f})",
        ],
    )
