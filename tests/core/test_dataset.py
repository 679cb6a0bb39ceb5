"""The dataset-first entry point and the two backends behind it."""

import numpy as np
import pytest

from repro.core.dataset import ArrayDataset, ParticleDataset, as_dataset, open_dataset
from repro.core.errors import FormatError
from repro.core.store import ShardedStore, create_store


@pytest.fixture(scope="module")
def particles():
    rng = np.random.default_rng(23)
    return rng.normal(0.0, 1.0, (5_000, 6))


class TestArrayDataset:
    def test_chunking_is_virtual_and_exact(self, particles):
        ds = ArrayDataset(particles, step=3, chunk_rows=700)
        assert ds.n_particles == len(ds) == 5_000
        assert ds.step == 3
        assert ds.n_chunks == 8
        assert np.array_equal(np.concatenate(list(ds.chunks())), particles)
        # zero-copy: a chunk is a view of the wrapped array
        assert ds.chunk(0).base is particles

    def test_single_chunk_floor(self):
        ds = ArrayDataset(np.zeros((0, 6)))
        assert ds.n_chunks == 1
        assert len(ds.chunk(0)) == 0

    def test_chunk_bounds_checked(self, particles):
        ds = ArrayDataset(particles, chunk_rows=700)
        with pytest.raises(IndexError):
            ds.chunk(8)

    def test_bounds_match_global_minmax(self, particles):
        ds = ArrayDataset(particles, chunk_rows=321)
        lo, hi = ds.bounds(columns=(0, 1, 2))
        assert np.array_equal(lo, particles[:, :3].min(axis=0))
        assert np.array_equal(hi, particles[:, :3].max(axis=0))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((4, 5)))


class TestOpenDataset:
    def test_ndarray(self, particles):
        ds = open_dataset(particles, step=5)
        assert isinstance(ds, ArrayDataset)
        assert ds.step == 5
        assert np.array_equal(ds.to_array(), particles)

    def test_store_directory(self, tmp_path, particles):
        create_store(tmp_path / "st", particles, shard_rows=512, step=9)
        ds = open_dataset(tmp_path / "st")
        assert isinstance(ds, ShardedStore)
        assert isinstance(ds, ParticleDataset)  # registered virtual subclass
        assert ds.step == 9
        assert np.array_equal(ds.to_array(), particles)

    def test_frame_file(self, tmp_path, particles):
        """Frames are stores; a file path is refused, naming the
        command that writes frame stores."""
        path = tmp_path / "beam.frame"
        path.write_bytes(particles.tobytes())
        with pytest.raises(FormatError, match="`repro simulate`") as info:
            open_dataset(str(path))
        assert str(path) in str(info.value)

    def test_dataset_passthrough(self, particles):
        ds = ArrayDataset(particles)
        assert open_dataset(ds) is ds

    def test_both_backends_round_trip_identically(self, tmp_path, particles):
        """The acceptance contract: open_dataset round-trips the legacy
        array and the sharded store to the same bytes."""
        create_store(tmp_path / "st", particles, shard_rows=512)
        a = open_dataset(particles)
        b = open_dataset(tmp_path / "st")
        assert a.n_particles == b.n_particles
        assert np.array_equal(a.to_array(), b.to_array())
        alo, ahi = a.bounds()
        blo, bhi = b.bounds()
        assert np.array_equal(alo, blo) and np.array_equal(ahi, bhi)

    def test_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no such sharded store"):
            open_dataset(tmp_path / "nope")

    def test_unrecognized_path(self, tmp_path):
        (tmp_path / "plain").mkdir()
        with pytest.raises(FormatError, match="not a sharded store directory"):
            open_dataset(tmp_path / "plain")

    def test_unrecognized_type(self):
        with pytest.raises(TypeError):
            open_dataset(object())


class TestAsDataset:
    def test_passthrough_and_coercion(self, particles, tmp_path):
        ds = ArrayDataset(particles)
        assert as_dataset(ds) is ds
        st = create_store(tmp_path / "st", particles, shard_rows=2048)
        assert as_dataset(st) is st
        wrapped = as_dataset(particles, step=4)
        assert isinstance(wrapped, ArrayDataset)
        assert wrapped.step == 4



def test_frame_to_store(tmp_path, particles):
    """A frame store re-shards into another store, which keeps the
    particles and takes the shard size and step it is given."""
    create_store(tmp_path / "step_000021", particles, step=21)
    frame = open_dataset(tmp_path / "step_000021")
    st = create_store(tmp_path / "st", frame, shard_rows=777, step=frame.step)
    assert st.step == 21
    assert st.shard_rows == 777
    assert np.array_equal(st.to_array(), particles)
