"""amr -- adaptive deposit speed, detail at equal bytes, splat determinism.

The paper's resolution argument at terascale: a uniform density grid
spends most of its bytes on empty halo space while the beam core --
the region the physicist actually studies -- is starved.  This bench
builds the octree-refined adaptive volume over a concentrated
beam-plus-halo frame and measures the three claims the gate enforces:

- *deposit speed*: the full adaptive build (histogram pass + plan +
  per-brick deposit) against the flat CIC deposit at the matched
  effective core resolution (``bricks * brick_cells << max_refine``
  cells per axis);
- *detail at equal bytes*: at a byte budget equal (within 5 %) to the
  flat ``64^3`` float32 grid, the adaptive volume must resolve
  strictly more nonzero density cells inside the beam-core region;
- *flat unchanged*: extraction with ``adaptive=True`` carries the
  adaptive volume *alongside* a flat volume bitwise-identical to the
  ``adaptive=False`` path, and the flat volume/image SHA-256 are
  recorded so the gate can pin them against the committed baseline;
- *splat determinism*: batched Gaussian splatting (any partition of
  the points) is bitwise-identical to the single-call stream, both at
  the fragment level and through the full hybrid render.

Results land in ``BENCH_amr.json``; ``scripts/check.sh --gate amr``
holds the floors.
"""

import hashlib
import os
import time

import numpy as np
import pytest

from common import record, record_bench, scaled, traced_run

from repro.beams.spacecharge import deposit_cic
from repro.core.dataset import open_dataset
from repro.hybrid.renderer import HybridRenderer
from repro.octree.amr import build_amr
from repro.octree.extraction import extract
from repro.octree.partition import partition
from repro.render.camera import Camera
from repro.render.points import gaussian_splat_fragments

N_PARTICLES = int(os.environ.get("REPRO_AMR_PARTICLES", scaled(200_000)))
FLAT_RES = 64            # the committed mixed-rendering volume resolution
BRICKS = 8
BRICK_CELLS = 8
MAX_REFINE = 2
DEPOSIT_RES = BRICKS * (BRICK_CELLS << MAX_REFINE)  # matched core resolution
REFINE_BUDGET = 200      # count-per-cell rule for the timing comparison
THRESHOLD_PCT = 60.0
SPLAT_BATCH = 1000
CORE_LO, CORE_HI = 2, 6  # central half of the root-brick grid


@pytest.fixture(scope="module")
def pframe():
    """A dense Gaussian beam core inside a diffuse halo, partitioned."""
    rng = np.random.default_rng(1234)
    n_core = int(N_PARTICLES * 0.9)
    core = rng.normal(0.5, 0.04, (n_core, 6))
    halo = rng.normal(0.5, 0.15, (N_PARTICLES - n_core, 6))
    p = np.vstack([core, halo])
    return partition(open_dataset(p), "xyz", max_level=5, capacity=256)


def _best_of(fn, rounds: int = 3):
    """(best wall time, last result) of ``rounds`` calls."""
    best, result = np.inf, None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _core_nonzero_flat(volume: np.ndarray) -> int:
    """Nonzero voxels of a flat grid inside the beam-core region."""
    res = volume.shape[0]
    a, b = res * CORE_LO // BRICKS, res * CORE_HI // BRICKS
    return int(np.count_nonzero(volume[a:b, a:b, a:b]))


def _core_nonzero_amr(amr) -> int:
    """Nonzero density cells of the bricks inside the beam-core region."""
    total = 0
    for i in range(CORE_LO, CORE_HI):
        for j in range(CORE_LO, CORE_HI):
            for k in range(CORE_LO, CORE_HI):
                g = amr.brick_density(i, j, k)
                if g is not None:
                    total += int(np.count_nonzero(g))
    return total


def test_amr_acceptance(benchmark, pframe):
    result = {}

    def run():
        # -- deposit speed: flat CIC at the matched core resolution vs
        #    the complete adaptive build (histogram + plan + deposit)
        coords = pframe.coords
        t_flat, _ = _best_of(
            lambda: deposit_cic(
                coords, (DEPOSIT_RES,) * 3, pframe.lo, pframe.hi
            )
        )
        t_amr, amr_fast = _best_of(
            lambda: build_amr(
                pframe,
                bricks=BRICKS,
                brick_cells=BRICK_CELLS,
                max_refine=MAX_REFINE,
                refine_budget=REFINE_BUDGET,
            )
        )
        result["deposit"] = {
            "t_flat_s": t_flat,
            "t_amr_s": t_amr,
            "speedup": t_flat / max(t_amr, 1e-9),
            "flat_res": DEPOSIT_RES,
            "amr_max_level": amr_fast.max_level_used,
            "amr_cells": int(amr_fast.total_cells),
            "n_particles": N_PARTICLES,
        }

        # -- flat path unchanged: adaptive extraction carries the flat
        #    volume bitwise-identical to the flat-only path
        thr = float(np.percentile(pframe.nodes["density"], THRESHOLD_PCT))
        flat_frame = extract(pframe, thr, volume_resolution=FLAT_RES)
        amr_frame = extract(
            pframe,
            thr,
            volume_resolution=FLAT_RES,
            adaptive=True,
            amr_bricks=BRICKS,
            amr_brick_cells=BRICK_CELLS,
            amr_max_refine=MAX_REFINE,
        )
        camera = Camera.fit_bounds(
            flat_frame.lo, flat_frame.hi, width=160, height=160
        )
        flat_image = HybridRenderer(n_slices=32).render(flat_frame, camera)
        result["flat_bitwise"] = {
            "alongside_bitwise": bool(
                np.array_equal(flat_frame.volume, amr_frame.volume)
                and np.array_equal(flat_frame.points, amr_frame.points)
                and np.array_equal(
                    flat_frame.point_densities, amr_frame.point_densities
                )
            ),
            "volume_sha256": hashlib.sha256(
                flat_frame.volume.tobytes()
            ).hexdigest(),
            "image_sha256": hashlib.sha256(
                flat_image.rgba.tobytes()
            ).hexdigest(),
        }

        # -- detail at equal bytes: the byte-budgeted adaptive volume
        #    vs the flat 64^3 grid, nonzero cells in the beam core
        amr_eq = amr_frame.meta["amr"]  # byte budget defaulted to 64^3*4
        flat_bytes = FLAT_RES**3 * 4
        flat_core = _core_nonzero_flat(flat_frame.volume)
        amr_core = _core_nonzero_amr(amr_eq)
        result["detail"] = {
            "flat_bytes": flat_bytes,
            "amr_bytes": amr_eq.nbytes,
            "bytes_ratio": amr_eq.nbytes / flat_bytes,
            "flat_core_nonzero": flat_core,
            "amr_core_nonzero": amr_core,
            "detail_ratio": amr_core / max(flat_core, 1),
            "refined_bricks": amr_eq.n_refined,
            "occupied_bricks": amr_eq.n_occupied,
        }

        # -- splat determinism: batched == serial, fragments and images
        splatter = HybridRenderer(
            point_mode="splat", n_slices=32, splat_sigma=1.5
        )
        pos, rgba, t = splatter._classify_points(flat_frame)
        sig = splatter._point_sigmas(t)
        pix, dep, col = gaussian_splat_fragments(camera, pos, rgba, sig)
        bpix, bdep, bcol = [], [], []
        for a in range(0, len(pos), SPLAT_BATCH):
            b = a + SPLAT_BATCH
            p, d, c = gaussian_splat_fragments(
                camera, pos[a:b], rgba[a:b], sig[a:b]
            )
            bpix.append(p)
            bdep.append(d)
            bcol.append(c)
        batched_bitwise = bool(
            np.array_equal(pix, np.concatenate(bpix))
            and np.array_equal(dep, np.concatenate(bdep))
            and np.array_equal(col, np.concatenate(bcol))
        )
        serial_img = splatter.render(flat_frame, camera)
        batched = HybridRenderer(
            point_mode="splat",
            n_slices=32,
            splat_sigma=1.5,
            point_batch_size=SPLAT_BATCH,
        )
        batched_img = batched.render(flat_frame, camera)
        result["splat"] = {
            "batched_bitwise": batched_bitwise,
            "render_batched_bitwise": bool(
                np.array_equal(serial_img.rgba, batched_img.rgba)
            ),
            "n_fragments": int(len(pix)),
        }

    tracer = traced_run(lambda: benchmark.pedantic(run, rounds=1, iterations=1))

    dep, det = result["deposit"], result["detail"]
    lines = [
        "paper: adaptive resolution where the beam is, at equal memory",
        f"workload: {N_PARTICLES} particles, beam core sigma 0.04 in a "
        f"0.15 halo, bricks {BRICKS}^3 x {BRICK_CELLS}^3 cells, "
        f"max refine {MAX_REFINE}",
        f"deposit at effective {DEPOSIT_RES}^3: flat "
        f"{dep['t_flat_s'] * 1e3:.0f} ms, adaptive "
        f"{dep['t_amr_s'] * 1e3:.0f} ms ({dep['amr_cells']} cells) -- "
        f"x{dep['speedup']:.1f} faster",
        f"equal bytes: adaptive {det['amr_bytes']} vs flat "
        f"{det['flat_bytes']} (ratio {det['bytes_ratio']:.3f}), "
        f"{det['refined_bricks']} of {det['occupied_bricks']} bricks refined",
        f"beam-core nonzero cells: adaptive {det['amr_core_nonzero']} vs "
        f"flat {det['flat_core_nonzero']} -- x{det['detail_ratio']:.1f} detail",
        f"flat volume alongside adaptive bitwise-identical: "
        f"{result['flat_bitwise']['alongside_bitwise']}",
        f"splat batched == serial: fragments "
        f"{result['splat']['batched_bitwise']}, renders "
        f"{result['splat']['render_batched_bitwise']} "
        f"({result['splat']['n_fragments']} fragments)",
    ]
    record("TXT-AMR", lines)
    record_bench(
        "amr",
        tracer,
        extra={
            "n_particles": N_PARTICLES,
            "bricks": BRICKS,
            "brick_cells": BRICK_CELLS,
            "max_refine": MAX_REFINE,
            "deposit": result["deposit"],
            "detail": result["detail"],
            "flat_bitwise": result["flat_bitwise"],
            "splat": result["splat"],
        },
    )
