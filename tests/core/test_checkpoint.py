"""Checkpoint/resume: a killed pipeline restarts from completed work."""

import json

import numpy as np
import pytest

from repro.beams.simulation import BeamConfig
from repro.core.checkpoint import Checkpoint
from repro.core.config import BeamPipelineConfig, FieldLinePipelineConfig
from repro.core.errors import FormatError, SimulatedCrash
from repro.core.pipeline import beam_pipeline, fieldline_pipeline
from repro.core.trace import capture


def _small_config():
    return BeamPipelineConfig(
        beam=BeamConfig(n_particles=2000, n_cells=2, seed=9),
        frame_every=4,
        volume_resolution=8,
        max_level=4,
    )


class TestManifest:
    def test_roundtrip(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "ck")
        assert not ckpt.done("partition")
        ckpt.record_step("partition", 0)
        ckpt.record_step("partition", 4)
        ckpt.mark_done("partition", steps=[0, 4])
        reopened = Checkpoint(tmp_path / "ck")
        assert reopened.done("partition")
        assert reopened.steps("partition") == [0, 4]
        assert reopened.meta("partition")["steps"] == [0, 4]
        assert reopened.has_step("partition", 4)
        assert not reopened.has_step("partition", 8)

    def test_garbage_manifest_raises_typed(self, tmp_path):
        d = tmp_path / "ck"
        d.mkdir()
        (d / "manifest.json").write_text("{not json")
        with pytest.raises(FormatError):
            Checkpoint(d)

    def test_wrong_version_raises_typed(self, tmp_path):
        d = tmp_path / "ck"
        d.mkdir()
        (d / "manifest.json").write_text(json.dumps({"version": 99, "stages": {}}))
        with pytest.raises(FormatError):
            Checkpoint(d)


class TestBeamResume:
    def test_kill_mid_partition_then_resume(self, tmp_path, monkeypatch):
        """Die after the first partitioned frame; the re-run resumes
        the finished step and produces the uncheckpointed result."""
        import repro.core.pipeline as pipeline_mod

        config = _small_config()
        reference = beam_pipeline(config, render=False)
        assert len(reference.steps) >= 2  # the kill must be mid-stage

        real_partition = pipeline_mod.partition
        calls = {"n": 0}

        def dying_partition(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise SimulatedCrash("killed before the second frame")
            return real_partition(*args, **kwargs)

        ckdir = tmp_path / "ck"
        monkeypatch.setattr(pipeline_mod, "partition", dying_partition)
        with pytest.raises(SimulatedCrash):
            beam_pipeline(config, render=False, checkpoint_dir=ckdir)
        monkeypatch.setattr(pipeline_mod, "partition", real_partition)

        with capture(enabled=True) as tracer:
            resumed = beam_pipeline(config, render=False, checkpoint_dir=ckdir)
        assert tracer.counters.get("checkpoint_steps_resumed", 0) >= 1
        assert resumed.steps == reference.steps
        for a, b in zip(resumed.hybrids, reference.hybrids):
            assert np.array_equal(a.volume, b.volume)
            assert np.array_equal(a.points, b.points)

    def test_completed_run_never_recomputes(self, tmp_path, monkeypatch):
        import repro.core.pipeline as pipeline_mod

        config = _small_config()
        ckdir = tmp_path / "ck"
        first = beam_pipeline(config, render=False, checkpoint_dir=ckdir)

        def must_not_run(*args, **kwargs):  # pragma: no cover - trap
            raise AssertionError("partition re-ran on a finished checkpoint")

        monkeypatch.setattr(pipeline_mod, "partition", must_not_run)
        monkeypatch.setattr(pipeline_mod, "extract", must_not_run)
        monkeypatch.setattr(pipeline_mod, "BeamSimulation", must_not_run)
        with capture(enabled=True) as tracer:
            second = beam_pipeline(config, render=False, checkpoint_dir=ckdir)
        assert tracer.counters.get("checkpoint_stages_resumed", 0) == 2
        assert second.steps == first.steps
        for a, b in zip(second.hybrids, first.hybrids):
            assert np.array_equal(a.volume, b.volume)
            assert np.array_equal(a.points, b.points)

    def test_corrupt_checkpoint_raises_typed(self, tmp_path):
        """One flipped byte in a checkpointed partition must fail the
        resume with a typed error, never resume on corrupt particles."""
        ckdir = tmp_path / "ck"
        beam_pipeline(_small_config(), render=False, checkpoint_dir=ckdir)
        shard = ckdir / "part_000000" / "shard_000000.bin"
        raw = bytearray(shard.read_bytes())
        raw[100] ^= 0x01
        shard.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="CRC"):
            beam_pipeline(_small_config(), render=False, checkpoint_dir=ckdir)


class TestFieldlineResume:
    def test_seed_stage_resumes(self, tmp_path, monkeypatch):
        import repro.core.pipeline as pipeline_mod

        config = FieldLinePipelineConfig(n_cells=1, total_lines=10, image_size=32)
        ckdir = tmp_path / "ck"
        first = fieldline_pipeline(config, render=False, checkpoint_dir=ckdir)

        def must_not_run(*args, **kwargs):  # pragma: no cover - trap
            raise AssertionError("seeding re-ran on a finished checkpoint")

        monkeypatch.setattr(
            pipeline_mod, "seed_density_proportional", must_not_run
        )
        with capture(enabled=True) as tracer:
            second = fieldline_pipeline(config, render=False, checkpoint_dir=ckdir)
        assert tracer.counters.get("checkpoint_stages_resumed", 0) == 1
        assert len(second.ordered) == len(first.ordered)
        assert np.allclose(second.ordered.desired, first.ordered.desired)
        assert np.allclose(second.ordered.achieved, first.ordered.achieved)
        for a, b in zip(first.ordered.lines, second.ordered.lines):
            assert np.allclose(a.points, b.points, atol=1e-6)
