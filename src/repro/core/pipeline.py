"""End-to-end pipelines reproducing the paper's two workflows.

Both pipelines accept ``checkpoint_dir=...``: stage outputs are saved
into a :class:`repro.core.checkpoint.Checkpoint` directory through the
package's atomic on-disk formats, and a re-run after a kill loads the
completed stages instead of recomputing them.  Resumption is visible
in a trace as the ``checkpoint_stages_resumed`` /
``checkpoint_steps_resumed`` counters.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import numpy as np

from repro.beams.simulation import BeamSimulation
from repro.core.atomic import CheckedFile
from repro.core.checkpoint import Checkpoint
from repro.core.config import BeamPipelineConfig, FieldLinePipelineConfig
from repro.core.dataset import as_dataset
from repro.core.trace import count, gauge, span
from repro.fieldlines.seeding import OrderedFieldLines, seed_density_proportional
from repro.fieldlines.sos import build_strips, render_strips
from repro.fields.geometry import make_multicell_structure
from repro.fields.modes import multicell_standing_wave
from repro.fields.sampling import AnalyticSampler, YeeSampler
from repro.fields.solver import TimeDomainSolver
from repro.hybrid.renderer import HybridRenderer
from repro.hybrid.representation import HybridFrame
from repro.octree.extraction import extract
from repro.octree.partition import PartitionedFrame, partition
from repro.render.camera import Camera

__all__ = ["BeamPipelineResult", "FieldLinePipelineResult", "beam_pipeline", "fieldline_pipeline"]

# the seeding stage's per-element ledger (an npz) in a checkpoint
_SEED_LEDGER = CheckedFile(
    b"RPRLEDGR", 1, "seeding ledger", "fieldline_pipeline(checkpoint_dir=<new dir>)"
)


@dataclass
class BeamPipelineResult:
    """Everything the beam workflow produced."""

    config: BeamPipelineConfig
    partitioned: list            # PartitionedFrame per kept step
    hybrids: list                # HybridFrame per kept step
    steps: list                  # step indices
    renderer: HybridRenderer
    camera: Camera
    images: list = field(default_factory=list)   # rgb8 arrays if rendered


@dataclass
class FieldLinePipelineResult:
    """Everything the field-line workflow produced."""

    config: FieldLinePipelineConfig
    structure: object
    sampler: object
    ordered: OrderedFieldLines
    camera: Camera
    image: np.ndarray | None = None


def _part_dir(ckpt: Checkpoint, step: int):
    return ckpt.path(f"part_{step:06d}")


def beam_pipeline(
    config: BeamPipelineConfig | None = None,
    render: bool = True,
    checkpoint_dir=None,
) -> BeamPipelineResult:
    """Simulate a beam, partition and extract every kept frame, and
    (optionally) render each hybrid.

    The extraction threshold is the configured percentile of the first
    frame's node densities, held fixed across the run so frame sizes
    are comparable.

    With ``checkpoint_dir``, each partitioned frame and each extracted
    hybrid is saved as it completes; a killed run re-invoked with the
    same directory resumes from the last completed stage (a fully
    checkpointed partition stage even skips re-simulating the beam).
    """
    config = config or BeamPipelineConfig()
    ckpt = Checkpoint(checkpoint_dir) if checkpoint_dir is not None else None
    gauge("beam_n_particles", config.beam.n_particles)

    from repro.octree.stream_partition import PartitionedStore

    partitioned: list[PartitionedFrame] = []
    steps: list[int] = []

    if ckpt is not None and ckpt.done("partition"):
        # the beam never needs re-simulating: every kept frame is on disk
        count("checkpoint_stages_resumed")
        with span("partition_resume"):
            for step in ckpt.meta("partition")["steps"]:
                partitioned.append(PartitionedStore.open(_part_dir(ckpt, step)).to_frame())
                steps.append(int(step))
                count("checkpoint_steps_resumed")
    else:
        sim = BeamSimulation(config.beam.resolved())
        # drive the frame generator so simulation stepping and per-frame
        # partitioning land in separate stage spans
        frames = sim.frames(frame_every=config.frame_every)
        while True:
            with span("simulate"):
                try:
                    step, particles = next(frames)
                except StopIteration:
                    break
            if ckpt is not None and ckpt.has_step("partition", step):
                count("checkpoint_steps_resumed")
                pf = PartitionedStore.open(_part_dir(ckpt, step)).to_frame()
            else:
                with span("partition", step=step):
                    pf = partition(
                        as_dataset(particles),
                        config.plot_type,
                        max_level=config.max_level,
                        capacity=config.capacity,
                        step=step,
                    )
                if ckpt is not None:
                    PartitionedStore.from_frame(pf, _part_dir(ckpt, step))
                    ckpt.record_step("partition", step)
            partitioned.append(pf)
            steps.append(step)
        if ckpt is not None:
            ckpt.mark_done("partition", steps=steps)

    if ckpt is not None and ckpt.done("extract"):
        count("checkpoint_stages_resumed")
        with span("extract_resume"):
            threshold = float(ckpt.meta("extract")["threshold"])
            hybrids = []
            for step in steps:
                hybrids.append(
                    HybridFrame.load(ckpt.path(f"hyb_{step:06d}.hybrid"))
                )
                count("checkpoint_steps_resumed")
    else:
        with span("extract"):
            threshold = float(
                np.percentile(
                    partitioned[0].nodes["density"], config.threshold_percentile
                )
            )
            hybrids = [
                extract(pf, threshold, volume_resolution=config.volume_resolution)
                for pf in partitioned
            ]
        if ckpt is not None:
            for step, h in zip(steps, hybrids):
                h.save(ckpt.path(f"hyb_{step:06d}.hybrid"))
            ckpt.mark_done("extract", threshold=threshold)

    camera = Camera.fit_bounds(
        hybrids[0].lo, hybrids[0].hi,
        width=config.image_size, height=config.image_size,
    )
    renderer = HybridRenderer(n_slices=config.n_slices)
    result = BeamPipelineResult(
        config=config,
        partitioned=partitioned,
        hybrids=hybrids,
        steps=steps,
        renderer=renderer,
        camera=camera,
    )
    if render:
        with span("render", n_frames=len(hybrids)):
            result.images = [
                renderer.render(h, camera=camera).to_rgb8() for h in hybrids
            ]
    return result


def fieldline_pipeline(
    config: FieldLinePipelineConfig | None = None,
    render: bool = True,
    checkpoint_dir=None,
) -> FieldLinePipelineResult:
    """Build a structure, obtain fields, seed lines, render strips.

    With ``checkpoint_dir``, the seeded/ordered lines (the expensive
    stage) are saved as a packed-line blob plus the ordering ledger; a
    re-run loads them instead of re-integrating.
    """
    config = config or FieldLinePipelineConfig()
    ckpt = Checkpoint(checkpoint_dir) if checkpoint_dir is not None else None
    with span("mesh", n_cells=config.n_cells):
        structure = make_multicell_structure(
            config.n_cells, n_xy=config.n_xy, n_z_per_unit=config.n_z_per_unit
        )
    with span("solve", use_solver=config.use_solver):
        if config.use_solver:
            solver = TimeDomainSolver(
                structure, cells_per_unit=config.solve_cells_per_unit
            )
            solver.run(solver.steps_for(config.solve_duration))
            solver.fields_on_mesh()
            sampler = YeeSampler(solver, config.field)
        else:
            mode = multicell_standing_wave(structure)
            t_snapshot = 0.0 if config.field == "E" else np.pi / (2 * mode.omega)
            structure.mesh.set_field("E", mode.e_field(structure.mesh.vertices, t_snapshot))
            structure.mesh.set_field("B", mode.b_field(structure.mesh.vertices, t_snapshot))
            sampler = AnalyticSampler(mode, config.field, t=t_snapshot, structure=structure)

    if ckpt is not None and ckpt.done("seed"):
        count("checkpoint_stages_resumed")
        with span("seed_resume"):
            from repro.fieldlines.compact import read_lines

            lines = read_lines(ckpt.path("seed.lines"))
            ledger = np.load(io.BytesIO(_SEED_LEDGER.read(ckpt.path("seed_ledger.npz"))))
            ordered = OrderedFieldLines(
                lines=lines,
                desired=ledger["desired"],
                achieved=ledger["achieved"],
                field_name=config.field,
                meta=json.loads(ckpt.meta("seed").get("meta", "{}")),
            )
    else:
        with span("seed", total_lines=config.total_lines):
            ordered = seed_density_proportional(
                structure.mesh,
                sampler,
                total_lines=config.total_lines,
                field_name=config.field,
                loop_tolerance=0.02 if config.field == "B" else None,
            )
        if ckpt is not None:
            from repro.fieldlines.compact import write_lines

            write_lines(ckpt.path("seed.lines"), ordered.lines)
            buf = io.BytesIO()
            np.savez(buf, desired=ordered.desired, achieved=ordered.achieved)
            _SEED_LEDGER.write(ckpt.path("seed_ledger.npz"), buf.getvalue())
            ckpt.mark_done("seed", meta=json.dumps(ordered.meta, default=str))
    camera = Camera.fit_bounds(
        *structure.bounds(), width=config.image_size, height=config.image_size
    )
    result = FieldLinePipelineResult(
        config=config,
        structure=structure,
        sampler=sampler,
        ordered=ordered,
        camera=camera,
    )
    if render:
        with span("strip"):
            strips = build_strips(ordered.lines, camera, width=config.line_width)
        with span("render"):
            fb = render_strips(camera, strips)
            result.image = fb.to_rgb8()
    return result
