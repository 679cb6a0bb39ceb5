"""lod -- time-to-first-image of progressive streaming vs flat fetch.

The paper's interactivity argument: at terascale the analyst should
see *something* in one round-trip and watch it refine, instead of
waiting for the full extraction to cross the wire.  This bench stands
up the service over a ``REPRO_LOD_PARTICLES``-particle partitioned
store (default 10^7, the committed baseline scale) with a built LOD
hierarchy, on a bandwidth-throttled link, and measures

- TTFI of the flat path (``get_hybrid``: full extraction + one send),
- TTFI of the progressive path (``iter_hybrid``'s first yield: stored
  base subsample + precomputed density mip),
- time-to-converged (the stream run to completion), and
- the correctness flags the gate enforces: every yielded prefix is a
  valid monotone frame, and the final frame is bit-identical to the
  flat fetch.

Results land in ``BENCH_lod.json``; ``scripts/check.sh --gate lod``
holds the TTFI speedup above its floor.
"""

import os
import time

import numpy as np
import pytest

from common import record, record_bench, scaled, traced_run

from repro.octree.lod import build_lod
from repro.octree.stream_partition import partition_store
from repro.remote.client import VisualizationClient
from repro.remote.service import VisualizationService

N_PARTICLES = int(os.environ.get("REPRO_LOD_PARTICLES", scaled(10_000_000)))
RESOLUTION = 64          # == mip_base: the exact volume ships from mip 0
BANDWIDTH_BPS = 32e6     # fast-LAN throttle; the remote-link scenario
UNIT_POINTS = 65536
THRESHOLD_PCT = 60.0


@pytest.fixture(scope="module")
def pstore(tmp_path_factory):
    rng = np.random.default_rng(88)
    core = rng.normal(0.0, 0.3, (int(N_PARTICLES * 0.9), 6))
    halo = rng.normal(0.0, 1.8, (N_PARTICLES - len(core), 6))
    p = np.vstack([core, halo])
    ps = partition_store(
        p, tmp_path_factory.mktemp("lod_bench") / "store", "xyz",
        max_level=6, capacity=4096, step=0,
    )
    t0 = time.perf_counter()
    build_lod(ps, levels=2, ratio=4, seed=0, mip_base=RESOLUTION, mip_levels=3)
    ps.lod_build_s = time.perf_counter() - t0
    return ps


def test_progressive_ttfi(benchmark, pstore):
    thr = float(np.percentile(pstore.nodes["density"], THRESHOLD_PCT))
    result = {}

    def run():
        with VisualizationService(
            [pstore], bandwidth_bps=BANDWIDTH_BPS, unit_points=UNIT_POINTS
        ) as service:
            with VisualizationClient(service.address, timeout=120.0) as client:
                client.list_frames()  # connection established before timing

                t0 = time.perf_counter()
                flat = client.get_hybrid(0, thr, resolution=RESOLUTION)
                ttfi_flat = time.perf_counter() - t0

                counts, prefix_valid = [], True
                last = None
                t0 = time.perf_counter()
                for last in client.iter_hybrid(0, thr, resolution=RESOLUTION):
                    if not counts:
                        ttfi_lod = time.perf_counter() - t0
                    ok = (
                        last.volume.shape == (RESOLUTION,) * 3
                        and len(last.points) == len(last.point_densities)
                        and (not counts or len(last.points) >= counts[-1])
                    )
                    prefix_valid = prefix_valid and ok
                    counts.append(len(last.points))
                converged = time.perf_counter() - t0

                final_bitwise = (
                    np.array_equal(last.points, flat.points)
                    and np.array_equal(last.point_densities, flat.point_densities)
                    and np.array_equal(last.volume, flat.volume)
                )
                result.update(
                    ttfi_flat=ttfi_flat, ttfi_lod=ttfi_lod,
                    converged=converged, counts=counts,
                    prefix_valid=prefix_valid, final_bitwise=final_bitwise,
                    flat_points=len(flat.points),
                    stats=dict(service.stats),
                )

    tracer = traced_run(lambda: benchmark.pedantic(run, rounds=1, iterations=1))

    speedup = result["ttfi_flat"] / max(result["ttfi_lod"], 1e-9)
    lines = [
        "paper: progressive transmission keeps terascale remote",
        "visualization interactive -- coarse image in one round-trip",
        f"workload: {N_PARTICLES} particles, {len(pstore.nodes)} nodes, "
        f"resolution {RESOLUTION}, link {BANDWIDTH_BPS / 1e6:.0f} MB/s",
        f"LOD build (offline, amortized): {pstore.lod_build_s:.2f} s, "
        f"{pstore.lod.nbytes() / 1e6:.1f} MB side files",
        f"flat TTFI {result['ttfi_flat'] * 1e3:.0f} ms "
        f"({result['flat_points']} points in one reply)",
        f"progressive TTFI {result['ttfi_lod'] * 1e3:.0f} ms "
        f"({result['counts'][0]} points) -- x{speedup:.1f} faster",
        f"converged after {len(result['counts'])} frames in "
        f"{result['converged'] * 1e3:.0f} ms",
        f"every prefix valid: {result['prefix_valid']}; "
        f"final bit-identical to flat: {result['final_bitwise']}",
    ]
    record("TXT-LOD", lines)
    record_bench(
        "lod",
        tracer,
        extra={
            "n_particles": N_PARTICLES,
            "n_nodes": len(pstore.nodes),
            "resolution": RESOLUTION,
            "bandwidth_bps": BANDWIDTH_BPS,
            "unit_points": UNIT_POINTS,
            "lod_build_s": pstore.lod_build_s,
            "lod_bytes": pstore.lod.nbytes(),
            "ttfi_flat_s": result["ttfi_flat"],
            "ttfi_lod_s": result["ttfi_lod"],
            "ttfi_speedup": speedup,
            "converged_s": result["converged"],
            "n_frames": len(result["counts"]),
            "first_points": result["counts"][0],
            "final_points": result["counts"][-1],
            "prefix_valid": result["prefix_valid"],
            "final_bitwise": result["final_bitwise"],
            "refinements": result["stats"]["refinements"],
        },
    )
