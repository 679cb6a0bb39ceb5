"""Particle frame I/O: each kept frame is one sharded store.

``repro simulate`` writes the frame of step N as the store
``OUT/step_NNNNNN`` (:func:`repro.core.store.create_store`), which
``open_dataset`` opens; the store's manifest carries the step and a
CRC32 per shard.
"""

import struct

import numpy as np
import pytest

from repro.beams.simulation import BeamConfig, BeamSimulation
from repro.cli import main
from repro.core.dataset import open_dataset
from repro.core.errors import FormatError
from repro.core.store import create_store


class TestFrameRoundtrip:
    def test_roundtrip(self, tmp_path, rng):
        p = rng.standard_normal((1000, 6))
        store = create_store(tmp_path / "f", p, step=42)
        assert store.nbytes() == 1000 * 6 * 8
        back = open_dataset(tmp_path / "f")
        assert back.step == 42
        assert np.array_equal(back.to_array(), p)

    def test_empty_frame(self, tmp_path):
        create_store(tmp_path / "e", np.empty((0, 6)), step=0)
        assert open_dataset(tmp_path / "e").to_array().shape == (0, 6)

    def test_bad_shape_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            create_store(tmp_path / "x", np.zeros((10, 5)))

    def test_bad_magic_rejected(self, tmp_path):
        """A frame file in the single-file layout of earlier releases
        is refused, naming the command that writes frame stores."""
        path = tmp_path / "step_000000.frame"
        path.write_bytes(struct.pack("<8sQQ", b"RPRFRAME", 1, 0) + bytes(48))
        with pytest.raises(FormatError, match="`repro simulate`") as info:
            open_dataset(path)
        assert str(path) in str(info.value)

    def test_truncated_rejected(self, tmp_path, rng):
        store = create_store(tmp_path / "t", rng.standard_normal((100, 6)))
        shard = store.shard_path(0)
        data = shard.read_bytes()
        shard.write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError):
            open_dataset(tmp_path / "t")

    def test_size_matches_paper_arithmetic(self, tmp_path):
        """100 M particles x 6 doubles ~ 5 GB (paper section 2.1)."""
        per_particle = create_store(tmp_path / "s", np.zeros((10, 6))).nbytes() / 10
        assert per_particle * 100_000_000 == pytest.approx(4.8e9, rel=0.01)


class TestFrameWriter:
    """``repro simulate`` writes each kept frame as a store."""

    ARGS = dict(n_particles=300, n_cells=1, seed=3)

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("sim") / "run"
        assert main(["simulate", "--out", str(out), "--particles", "300",
                     "--cells", "1", "--seed", "3", "--frame-every", "2"]) == 0
        return out

    def test_write_read_cycle(self, run):
        frames = {}
        sim = BeamSimulation(BeamConfig(**self.ARGS).resolved())
        sim.run(on_frame=lambda s, p: frames.setdefault(s, p.copy()), frame_every=2)
        assert sorted(frames) == [0, 2, 4]
        for s, p in frames.items():
            ds = open_dataset(run / f"step_{s:06d}")
            assert ds.step == s
            assert np.array_equal(ds.to_array(), p)

    def test_total_bytes(self, capsys, tmp_path):
        assert main(["simulate", "--out", str(tmp_path / "r"), "--particles", "300",
                     "--cells", "1", "--seed", "3", "--frame-every", "2"]) == 0
        nbytes = sum(open_dataset(d).nbytes() for d in (tmp_path / "r").iterdir())
        assert nbytes == 3 * 300 * 48
        assert f"wrote 3 frames ({nbytes / 1e6:.1f} MB)" in capsys.readouterr().out

    def test_frame_path_padding(self, run):
        assert sorted(p.name for p in run.iterdir()) == [
            "step_000000", "step_000002", "step_000004",
        ]
