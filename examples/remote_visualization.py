"""Remote visualization -- the paper's wide-area setting.

The supercomputer side holds the partitioned data; the desktop side
requests hybrid extractions at whatever threshold its link affords.
This example runs both sides in one process over a localhost socket
with a throttled 'wide-area' bandwidth and compares shipping hybrids
against shipping the raw frame.

    python examples/remote_visualization.py
"""

from pathlib import Path

import numpy as np

from repro.beams.simulation import BeamConfig, BeamSimulation
from repro.core.dataset import as_dataset
from repro.hybrid.renderer import HybridRenderer
from repro.octree.partition import partition
from repro.remote.client import VisualizationClient
from repro.remote.service import VisualizationService
from repro.render.camera import Camera
from repro.render.image import write_ppm

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

LINK_BPS = 10e6  # a 10 MB/s wide-area link


def main() -> None:
    # ---- the "supercomputer" side --------------------------------------
    print("generating + partitioning two time steps (server side)...")
    sim = BeamSimulation(BeamConfig(n_particles=40_000, n_cells=6, seed=12))
    frames = []
    sim.run(
        on_frame=lambda s, p: frames.append(
            partition(as_dataset(p), "xyz", max_level=6, capacity=48, step=s)
        ),
        frame_every=15,
    )
    raw_mb = frames[0].n_particles * 48 / 1e6
    print(f"  {len(frames)} partitioned frames, raw size {raw_mb:.1f} MB each")

    # ---- the "desktop" side --------------------------------------------
    with VisualizationService(frames, bandwidth_bps=LINK_BPS) as server:
        print(f"service on {server.address}, link {LINK_BPS / 1e6:.0f} MB/s")
        with VisualizationClient(server.address) as client:
            steps = client.list_frames()
            print(f"available steps: {steps}")
            dens = frames[0].nodes["density"]
            for pct in (30, 70):
                thr = float(np.percentile(dens, pct))
                before = client.stats["seconds"]
                hybrid = client.get_hybrid(0, thr, resolution=32)
                took = client.stats["seconds"] - before
                eq_raw = raw_mb * 1e6 / LINK_BPS
                print(
                    f"  threshold p{pct}: {hybrid.n_points:6d} pts, "
                    f"{hybrid.nbytes() / 1e6:5.2f} MB in {took:5.2f} s "
                    f"(raw frame would take {eq_raw:.1f} s -> "
                    f"x{eq_raw / max(took, 1e-9):.1f} faster)"
                )
            # render the last received hybrid locally
            cam = Camera.fit_bounds(hybrid.lo, hybrid.hi, width=256, height=256)
            img = HybridRenderer(n_slices=32).render(hybrid, cam).to_rgb8()
            write_ppm(OUT / "remote_hybrid.ppm", img)
            print(
                f"mean throughput {client.throughput_bps() / 1e6:.1f} MB/s; "
                f"rendered remote_hybrid.ppm"
            )


if __name__ == "__main__":
    main()
