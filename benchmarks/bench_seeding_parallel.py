"""ABLATION -- greedy vs batched (parallelized) seeding.

Paper, section 3.4: "We are presently parallelizing the field line
calculations on PC clusters to speed up this preprocessing task."

Measured: wall time and density-accuracy (rank correlation) of the
strict greedy seeder vs the round-based batched seeder at several
batch sizes.  The claim to check: batching buys near-linear speedup
in the integration stage at negligible accuracy cost.
"""

import time

import numpy as np
import pytest

from common import record, scaled

from repro.fieldlines.incremental import density_correlation
from repro.fieldlines.seeding import seed_density_proportional

N_LINES = scaled(60)
BATCH_SIZES = [1, 4, 16]


def test_greedy_seeding(benchmark, structure3, mode3, e_sampler):
    benchmark.pedantic(
        lambda: seed_density_proportional(
            structure3.mesh, e_sampler, total_lines=N_LINES,
            max_steps=120, rng=np.random.default_rng(0),
        ),
        rounds=1,
        iterations=1,
    )


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_batched_seeding(benchmark, structure3, mode3, e_sampler, batch):
    benchmark.pedantic(
        lambda: seed_density_proportional(
            structure3.mesh, e_sampler, total_lines=N_LINES, batch_size=batch,
            max_steps=120, rng=np.random.default_rng(0),
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["batch_size"] = batch


def test_seeding_parallel_report(benchmark, structure3, mode3, e_sampler):
    def measure():
        t0 = time.perf_counter()
        greedy = seed_density_proportional(
            structure3.mesh, e_sampler, total_lines=N_LINES,
            max_steps=120, rng=np.random.default_rng(0),
        )
        t_greedy = time.perf_counter() - t0
        rho_greedy = density_correlation(structure3.mesh, greedy, N_LINES)
        rows = []
        for batch in BATCH_SIZES:
            t0 = time.perf_counter()
            batched = seed_density_proportional(
                structure3.mesh, e_sampler, total_lines=N_LINES,
                batch_size=batch, max_steps=120, rng=np.random.default_rng(0),
            )
            t = time.perf_counter() - t0
            rows.append(
                (batch, t, density_correlation(structure3.mesh, batched, N_LINES))
            )
        return t_greedy, rho_greedy, rows

    t_greedy, rho_greedy, rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [
        "paper: field line calculation being parallelized on PC clusters",
        f"measured over {N_LINES} lines:",
        f"  greedy:        {t_greedy:.2f} s, density rho {rho_greedy:+.3f}",
    ]
    for batch, t, rho in rows:
        lines.append(
            f"  batch={batch:3d}:     {t:.2f} s (x{t_greedy / t:.1f}), "
            f"density rho {rho:+.3f}"
        )
    record("ABL-SEED-PARALLEL", lines)
    # largest batch must be much faster and nearly as accurate
    t_big, rho_big = rows[-1][1], rows[-1][2]
    assert t_big < t_greedy
    assert rho_big > rho_greedy - 0.15
