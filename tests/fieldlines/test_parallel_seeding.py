"""Batched (parallelized) density-proportional seeding."""

import numpy as np
import pytest

from repro.fieldlines.incremental import density_correlation
from repro.fieldlines.seeding import seed_density_proportional


@pytest.fixture(scope="module")
def batched(structure3, mode3, e_sampler):
    return seed_density_proportional(
        structure3.mesh, e_sampler, total_lines=40, batch_size=8,
        max_steps=100, rng=np.random.default_rng(5),
    )


class TestBatchedSeeding:
    def test_line_count_and_order(self, batched):
        assert len(batched) == 40
        assert [l.order for l in batched.lines] == list(range(40))

    def test_prefix_superset(self, batched):
        assert batched.prefix(25)[:10] == batched.prefix(10)

    def test_strongest_first(self, batched):
        mags = np.array([l.mean_magnitude() for l in batched.lines])
        k = len(mags) // 4
        assert mags[:k].mean() > mags[-k:].mean()

    def test_batch_size_one_is_greedy_like(self, structure3, mode3, e_sampler):
        """batch_size=1 is the strict greedy seeder."""
        b1 = seed_density_proportional(
            structure3.mesh, e_sampler, total_lines=6, batch_size=1,
            max_steps=60, rng=np.random.default_rng(7),
        )
        greedy = seed_density_proportional(
            structure3.mesh, e_sampler, total_lines=6,
            max_steps=60, rng=np.random.default_rng(7),
        )
        assert len(b1.lines) == len(greedy.lines)
        for a, b in zip(b1.lines, greedy.lines):
            assert np.array_equal(a.points, b.points)

    def test_density_quality_close_to_greedy(self, structure3, mode3, e_sampler, batched):
        greedy = seed_density_proportional(
            structure3.mesh, e_sampler, total_lines=40,
            max_steps=100, rng=np.random.default_rng(5),
        )
        rho_b = density_correlation(structure3.mesh, batched, 40)
        rho_g = density_correlation(structure3.mesh, greedy, 40)
        assert rho_b > rho_g - 0.15

    def test_achieved_counts_consistent(self, batched, structure3):
        from repro.fieldlines.incremental import element_line_counts

        recount = element_line_counts(structure3.mesh, batched.lines)
        assert np.allclose(recount, batched.achieved)

    def test_batch_metadata(self, batched):
        assert batched.meta["batch_size"] == 8

    def test_bad_batch_size(self, structure3, e_sampler):
        with pytest.raises(ValueError):
            seed_density_proportional(
                structure3.mesh, e_sampler, total_lines=4, batch_size=0
            )

    def test_lines_finite(self, batched):
        for line in batched.lines:
            assert np.isfinite(line.points).all()
            assert np.isfinite(line.magnitudes).all()
