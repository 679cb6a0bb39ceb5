"""Field line visualization -- the paper's second contribution.

Dense electric/magnetic field lines are pre-integrated with a
*density-proportional incremental seeding* strategy (line density
everywhere proportional to local field magnitude, any prefix of the
line order being the best possible n-line picture), stored compactly
(~25x smaller than raw vertex fields), and rendered as *self-orienting
surfaces*: view-facing textured triangle strips that look like lit
tubes at 5-6x fewer triangles than polygonal streamtubes.

Modules
-------
integrate     RK4 streamline tracing: one lockstep kernel under the
              single-line and batched tracers
seeding       density-proportional incremental seeding: one round
              loop, exact greedy or batched (section 3.4) commits
sos           self-orienting triangle strips + rendering
streamtube    polygonal streamtube baseline
illuminated   illuminated-lines / flat-lines baselines
halo          haloed line rendering
transparency  cutaway and region-emphasis transparency
incremental   prefix animation and density-accuracy metrics
compact       packed on-disk format and compression accounting
"""

from repro.fieldlines.integrate import FieldLine, integrate_streamline, integrate_batch
from repro.fieldlines.resample import resample_line, resample_lines, tessellate_line
from repro.fieldlines.ribbon import build_ribbons, render_ribbons
from repro.fieldlines.timeseries import LineSequence
from repro.fieldlines.seeding import (
    OrderedFieldLines,
    desired_line_counts,
    seed_density_proportional,
)
from repro.fieldlines.sos import StripMesh, build_strips, render_strips
from repro.fieldlines.streamtube import build_tubes, render_tubes
from repro.fieldlines.illuminated import render_lines
from repro.fieldlines.incremental import IncrementalViewer, density_correlation
from repro.fieldlines.compact import (
    pack_lines, unpack_lines, write_lines, read_lines, compression_report,
)

__all__ = [
    "FieldLine",
    "integrate_streamline",
    "integrate_batch",
    "OrderedFieldLines",
    "desired_line_counts",
    "seed_density_proportional",
    "resample_line",
    "resample_lines",
    "tessellate_line",
    "build_ribbons",
    "render_ribbons",
    "LineSequence",
    "StripMesh",
    "build_strips",
    "render_strips",
    "build_tubes",
    "render_tubes",
    "render_lines",
    "IncrementalViewer",
    "density_correlation",
    "pack_lines",
    "unpack_lines",
    "write_lines",
    "read_lines",
    "compression_report",
]
