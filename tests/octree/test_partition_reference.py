"""Every partitioner against the recursive octree the leaf walk replaced.

All partitioners build their node tables with one level-by-level leaf
walk (:func:`repro.octree.octree.partition_plan`).  This file keeps
verbatim copies of the recursive code that walk replaced -- the
in-core ``Octree`` class (less its docstrings and the lookups
``partition`` never called) with its Morton keys and the ``partition``
body, and the streamed
planner's weighted ``_subdivide_cells`` with the node and destination
half of ``_build_plan`` -- and requires node tables, particle files and
bounds to match them byte for byte: in core, streamed at 1 and 2
workers with shards that split cells, and gathered from a forest.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dataset import as_dataset
from repro.core.store import create_store
from repro.octree.forest import partition_forest
from repro.octree.octree import NODE_DTYPE, partition_plan
from repro.octree.partition import partition
from repro.octree.stream_partition import partition_store


# ----------------------------------------------------------------------
# the recursive reference, verbatim
def _spread_bits(v: np.ndarray, max_level: int) -> np.ndarray:
    """Insert two zero bits between each bit of v (vectorized)."""
    out = np.zeros_like(v)
    for b in range(max_level):
        out |= ((v >> np.uint64(b)) & np.uint64(1)) << np.uint64(3 * b)
    return out


def morton_keys(coords, lo, hi, max_level):
    coords = np.asarray(coords, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    n_cells = 1 << max_level
    span = np.where(hi - lo <= 0, 1.0, hi - lo)
    rel = (coords - lo) / span
    idx = np.clip((rel * n_cells).astype(np.int64), 0, n_cells - 1).astype(np.uint64)
    key = (
        _spread_bits(idx[:, 0], max_level)
        | (_spread_bits(idx[:, 1], max_level) << np.uint64(1))
        | (_spread_bits(idx[:, 2], max_level) << np.uint64(2))
    )
    return key


class Octree:
    def __init__(self, coords, lo=None, hi=None, max_level: int = 6, capacity: int = 64):
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise ValueError("coords must be (N, 3)")
        if len(coords) == 0:
            raise ValueError("octree needs at least one particle")
        if not np.isfinite(coords).all():
            raise ValueError(
                "coords contain NaN/Inf; clean the frame before partitioning"
            )
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if lo is None or hi is None:
            dlo = coords.min(axis=0)
            dhi = coords.max(axis=0)
            # pad relative to both the span and the coordinate scale so
            # hi > lo even for degenerate (single-point) data
            pad = (dhi - dlo) * 1e-9 + (np.abs(dlo) + np.abs(dhi) + 1.0) * 1e-9
            lo = dlo - pad if lo is None else np.asarray(lo, dtype=np.float64)
            hi = dhi + pad if hi is None else np.asarray(hi, dtype=np.float64)
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)
        if np.any(self.hi <= self.lo):
            raise ValueError("need hi > lo in every axis")
        self.max_level = int(max_level)
        self.capacity = int(capacity)

        keys = morton_keys(coords, self.lo, self.hi, self.max_level)
        self.order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self.order]
        self._root_volume = float(np.prod(self.hi - self.lo))

        leaves: list[tuple[int, int, int, int]] = []  # (level, prefix, start, count)
        self._subdivide(0, len(keys), 0, 0, leaves)
        nodes = np.empty(len(leaves), dtype=NODE_DTYPE)
        for i, (level, prefix, start, count) in enumerate(leaves):
            nodes[i] = (level, prefix, start, count, 0.0)
        vol = self._root_volume / (8.0 ** nodes["level"].astype(np.float64))
        nodes["density"] = nodes["count"] / vol
        self.nodes = nodes

    def _subdivide(self, start: int, end: int, level: int, prefix: int, leaves) -> None:
        count = end - start
        if count == 0:
            return
        if count <= self.capacity or level >= self.max_level:
            leaves.append((level, prefix, start, count))
            return
        shift = 3 * (self.max_level - level - 1)
        child_keys = (
            self._sorted_keys[start:end] >> np.uint64(shift)
        ) & np.uint64(7)
        # children are contiguous: find boundaries of the 8 octants
        bounds = start + np.searchsorted(child_keys, np.arange(9), side="left")
        for child in range(8):
            self._subdivide(
                int(bounds[child]),
                int(bounds[child + 1]),
                level + 1,
                (prefix << 3) | child,
                leaves,
            )

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def leaf_of_particles(self) -> np.ndarray:
        return np.repeat(
            np.arange(self.n_nodes, dtype=np.int64),
            self.nodes["count"].astype(np.int64),
        )


def ref_partition(particles, columns, max_level, capacity, lo=None, hi=None):
    """The in-core ``partition`` body: (nodes, particles, lo, hi)."""
    coords = particles[:, list(columns)]
    tree = Octree(coords, lo=lo, hi=hi, max_level=max_level, capacity=capacity)

    density_order = np.argsort(tree.nodes["density"], kind="stable")
    nodes_sorted = tree.nodes[density_order].copy()

    leaf_of = tree.leaf_of_particles()           # per ordered particle
    rank_of_leaf = np.empty(tree.n_nodes, dtype=np.int64)
    rank_of_leaf[density_order] = np.arange(tree.n_nodes)
    particle_rank = rank_of_leaf[leaf_of]
    regroup = np.argsort(particle_rank, kind="stable")
    final_order = tree.order[regroup]

    counts = nodes_sorted["count"].astype(np.int64)
    nodes_sorted["start"] = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.uint64)
    return nodes_sorted, particles[final_order], tree.lo, tree.hi


def _subdivide_cells(
    cells, cum, a, b, level, prefix, max_level, capacity, leaves, min_level=0
):
    if a == b:
        return
    total = int(cum[b] - cum[a])
    if (total <= capacity and level >= min_level) or level >= max_level:
        leaves.append((level, prefix, a, b))
        return
    shift = np.uint64(3 * (max_level - level - 1))
    child = (cells[a:b] >> shift) & np.uint64(7)
    bounds = a + np.searchsorted(child, np.arange(9))
    for c in range(8):
        _subdivide_cells(
            cells,
            cum,
            int(bounds[c]),
            int(bounds[c + 1]),
            level + 1,
            (prefix << 3) | c,
            max_level,
            capacity,
            leaves,
            min_level,
        )


def ref_plan(cells, counts, lo, hi, max_level, capacity, min_level=0):
    """The node and destination half of the streamed ``_build_plan``."""
    cum = np.concatenate([[0], np.cumsum(counts)])
    leaves: list[tuple[int, int, int, int]] = []
    _subdivide_cells(
        cells, cum, 0, len(cells), 0, 0, max_level, capacity, leaves, min_level
    )

    nodes = np.empty(len(leaves), dtype=NODE_DTYPE)
    spans = np.empty(len(leaves), dtype=np.int64)
    offset = 0
    for k, (level, prefix, a, b) in enumerate(leaves):
        node_count = int(cum[b] - cum[a])
        nodes[k] = (level, prefix, offset, node_count, 0.0)
        spans[k] = b - a
        offset += node_count
    root_volume = float(np.prod(np.asarray(hi) - np.asarray(lo)))
    vol = root_volume / (8.0 ** nodes["level"].astype(np.float64))
    nodes["density"] = nodes["count"] / vol

    # identical stable density sort as the in-core path
    density_order = np.argsort(nodes["density"], kind="stable")
    nodes_sorted = nodes[density_order].copy()
    sorted_counts = nodes_sorted["count"].astype(np.int64)
    nodes_sorted["start"] = np.concatenate(
        [[0], np.cumsum(sorted_counts)[:-1]]
    ).astype(np.uint64)

    # absolute destination of each cell's first particle in the final
    # file: leaves laid out in density-rank order, cells in key order
    # within each leaf
    rank_of_leaf = np.empty(len(leaves), dtype=np.int64)
    rank_of_leaf[density_order] = np.arange(len(leaves))
    cell_rank = rank_of_leaf[np.repeat(np.arange(len(leaves)), spans)]
    perm = np.argsort(cell_rank, kind="stable")
    offsets = np.concatenate([[0], np.cumsum(counts[perm])[:-1]])
    cell_dest = np.empty(len(cells), dtype=np.int64)
    cell_dest[perm] = offsets
    return nodes_sorted, cell_dest


def ref_forest_gather(particles, columns, max_level, capacity, min_level, lo=None, hi=None):
    """What a forest gathers to: the recursive octree's bounds, keys and
    key order, leaves from the weighted split with ``min_level``, and
    every cell's particles filed from its plan destination."""
    tree = Octree(particles[:, list(columns)], lo=lo, hi=hi,
                  max_level=max_level, capacity=capacity)
    cells, first, counts = np.unique(
        tree._sorted_keys, return_index=True, return_counts=True
    )
    nodes, cell_dest = ref_plan(
        cells, counts, tree.lo, tree.hi, max_level, capacity, min_level
    )
    dest = np.repeat(cell_dest - first, counts) + np.arange(len(particles))
    out = np.empty_like(particles)
    out[dest] = particles[tree.order]
    return nodes, out, tree.lo, tree.hi


# ----------------------------------------------------------------------
# adversarial frames
def _frame(coords, rng):
    """(N, 6) particles over ``coords`` (xyz) with random momenta."""
    particles = rng.normal(0.0, 1.0, (len(coords), 6))
    particles[:, :3] = coords
    return particles


def _case(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    kw = {"max_level": 6, "capacity": 16}
    unit = {"lo": np.zeros(3), "hi": np.ones(3)}
    if name == "one_particle":
        coords = np.array([[0.3, -2.0, 7.5]])
    elif name == "one_cell":
        # every particle inside one max-level cell of the unit box
        coords = 0.3 + rng.uniform(0.0, 1e-4, (400, 3))
        kw.update(unit, capacity=4)
    elif name == "duplicates":
        coords = np.repeat(rng.normal(0.0, 1.0, (40, 3)), 25, axis=0)
        coords = coords[rng.permutation(len(coords))]
        kw.update(capacity=8)
    elif name == "faces":
        # exactly on the hi face, the lo face and the octant faces
        grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        faces = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), -1)
        faces = np.repeat(faces.reshape(-1, 3), 3, axis=0)
        coords = np.vstack([faces, rng.uniform(0.0, 1.0, (300, 3))])
        kw.update(unit, capacity=6, max_level=4)
    elif name == "capacity_1":
        coords = rng.normal(0.0, 1.0, (300, 3))
        kw.update(capacity=1)
    elif name == "max_level_1":
        coords = rng.uniform(-1.0, 1.0, (500, 3))
        kw.update(max_level=1, capacity=8)
    elif name == "max_level_20":
        coords = np.vstack([rng.normal(0.0, 1.0, (300, 3)),
                            np.repeat(rng.normal(0.0, 1e-6, (5, 3)), 4, axis=0)])
        kw.update(max_level=20, capacity=2)
    elif name == "explicit_bounds":
        # a box that clips part of the frame: clamped into boundary cells
        coords = rng.normal(0.0, 1.0, (600, 3))
        kw.update(lo=np.array([-1.0, -1.5, -0.5]), hi=np.array([1.0, 0.5, 2.0]))
    elif name == "density_range":
        coords = np.vstack([rng.normal(0.0, 1e-5, (3000, 3)),
                            rng.uniform(-1.0, 1.0, (20, 3))])
        kw.update(max_level=10, capacity=8)
    else:
        raise KeyError(name)
    return _frame(coords, rng), kw


CASES = ["one_particle", "one_cell", "duplicates", "faces", "capacity_1",
         "max_level_1", "max_level_20", "explicit_bounds", "density_range"]


def _assert_same(got, ref):
    nodes, particles, lo, hi = ref
    assert got.nodes.tobytes() == nodes.tobytes()
    assert got.particles.tobytes() == particles.tobytes()
    assert lo.tobytes() == np.asarray(got.lo, dtype=np.float64).tobytes()
    assert hi.tobytes() == np.asarray(got.hi, dtype=np.float64).tobytes()


def test_density_range_case_spans_1e8():
    particles, kw = _case("density_range")
    nodes = ref_partition(particles, (0, 1, 2), **kw)[0]
    assert nodes["density"][-1] / nodes["density"][0] >= 1e8


@pytest.mark.parametrize("name", CASES)
def test_partition_bitwise(name):
    particles, kw = _case(name)
    got = partition(as_dataset(particles, step=3), "xyz", **kw)
    _assert_same(got, ref_partition(particles, (0, 1, 2), **kw))


def test_partition_other_plot_type_bitwise():
    particles, kw = _case("duplicates")
    particles[:, 3:] = particles[:, :3] * 2.0 + 1.0
    got = partition(as_dataset(particles), "pxpypz", **kw)
    _assert_same(got, ref_partition(particles, (3, 4, 5), **kw))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", CASES)
def test_partition_store_bitwise(name, workers, tmp_path):
    particles, kw = _case(name)
    # 37-row shards split cells (duplicates, one_cell) across shards
    src = create_store(tmp_path / "src", particles, shard_rows=37, step=3)
    ps = partition_store(src, tmp_path / "out", "xyz", workers=workers,
                         shard_rows=53, **kw)
    _assert_same(ps.to_frame(), ref_partition(particles, (0, 1, 2), **kw))


@pytest.mark.parametrize(
    "name,bricks",
    [(c, b) for c in CASES for b in (2, 4) if (c, b) != ("max_level_1", 4)],
)
def test_partition_forest_gather_bitwise(name, bricks, tmp_path):
    particles, kw = _case(name)
    brick_level = bricks.bit_length() - 1
    forest = partition_forest(particles, tmp_path / "f", "xyz", bricks=bricks,
                              shard_rows=64, **kw)
    got = forest.to_partitioned_frame()
    _assert_same(got, ref_forest_gather(particles, (0, 1, 2), min_level=brick_level, **kw))
    ref = ref_partition(particles, (0, 1, 2), **kw)
    if ref[0]["level"].min() >= brick_level:
        # the global tree already refines to the bricks: the forest is it
        _assert_same(got, ref)


def test_forest_reference_is_the_octree_at_min_level_zero():
    for name in CASES:
        particles, kw = _case(name)
        got = ref_forest_gather(particles, (0, 1, 2), min_level=0, **kw)
        ref = ref_partition(particles, (0, 1, 2), **kw)
        for a, b in zip(got, ref):
            assert a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# Hypothesis: the walk against the recursion
def _histogram(seed, n, shape, max_level):
    """Sorted distinct cells and their (positive) counts."""
    rng = np.random.default_rng(seed)
    top = 8**max_level
    if shape == "single":
        cells = rng.integers(0, top, 1, dtype=np.uint64)
    elif shape == "clustered":
        centre = int(rng.integers(0, top))
        cells = np.clip(centre + rng.integers(-64, 64, n), 0, top - 1).astype(np.uint64)
    else:
        cells = rng.integers(0, top, n, dtype=np.uint64)
    cells = np.unique(cells)
    if shape == "heavy":
        counts = np.ceil(rng.pareto(0.8, len(cells)) + 1).astype(np.int64)
        counts = np.minimum(counts, 10**6)
    elif shape == "duplicated":
        counts = rng.integers(20, 60, len(cells))
    else:
        counts = rng.integers(1, 4, len(cells))
    return cells, counts.astype(np.int64)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 400),
    shape=st.sampled_from(["uniform", "clustered", "single", "heavy", "duplicated"]),
    max_level=st.integers(1, 8),
    capacity=st.integers(1, 49),
    min_level=st.integers(0, 8),
)
@settings(max_examples=150, deadline=None)
def test_plan_matches_recursive_split(seed, n, shape, max_level, capacity, min_level):
    cells, counts = _histogram(seed, n, shape, max_level)
    lo = np.array([-1.0, 0.0, 2.0])
    hi = np.array([1.0, 0.5, 7.0])
    nodes, cell_dest = partition_plan(
        cells, counts, lo, hi, max_level, capacity, min(min_level, max_level)
    )
    ref_nodes, ref_dest = ref_plan(
        cells, counts, lo, hi, max_level, capacity, min(min_level, max_level)
    )
    assert nodes.tobytes() == ref_nodes.tobytes()
    assert cell_dest.tobytes() == ref_dest.tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    spread=st.sampled_from([1e-6, 1e-2, 1.0, 1e3]),
    copies=st.integers(1, 4),
    max_level=st.integers(1, 8),
    capacity=st.integers(1, 49),
)
@settings(max_examples=60, deadline=None)
def test_partition_matches_recursive_octree(seed, n, spread, copies, max_level, capacity):
    rng = np.random.default_rng(seed)
    coords = np.repeat(rng.normal(0.0, spread, (n, 3)), copies, axis=0)
    particles = _frame(coords[rng.permutation(len(coords))], rng)
    kw = {"max_level": max_level, "capacity": capacity}
    got = partition(as_dataset(particles), "xyz", **kw)
    _assert_same(got, ref_partition(particles, (0, 1, 2), **kw))
