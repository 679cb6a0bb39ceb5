"""Ensemble sweeps: grid expansion, crash survival, resume, manifests."""

import json

import pytest

from repro.beams.scenario import (
    LatticeSpec,
    ScenarioSpec,
    SweepResult,
    expand_axes,
    load_sweep,
    run_sweep,
)
from repro.beams.scenario.sweep import _run_member, member_dirname
from repro.core.checkpoint import Checkpoint
from repro.core.errors import FormatError
from repro.core.faults import CrashOnce
from repro.core.store import ShardedStore, is_store_dir
from repro.core.trace import capture


class TestExpandAxes:
    def test_cartesian_row_major(self):
        grid = expand_axes({"lattice.qf": [5.0, 6.0], "mismatch": [1.0, 1.2]})
        assert grid == [
            {"lattice.qf": 5.0, "mismatch": 1.0},
            {"lattice.qf": 5.0, "mismatch": 1.2},
            {"lattice.qf": 6.0, "mismatch": 1.0},
            {"lattice.qf": 6.0, "mismatch": 1.2},
        ]

    def test_no_axes_is_single_member(self):
        assert expand_axes({}) == [{}]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            expand_axes({"mismatch": []})


def small_spec(**kw):
    defaults = dict(
        lattice=LatticeSpec.fodo(n_cells=4),
        n_particles=800,
        space_charge=False,
        steps=12,
    )
    defaults.update(kw)
    return ScenarioSpec(**defaults)


AXES = {"lattice.qf": [5.5, 6.0], "mismatch": [1.0, 1.2]}


class TestRunSweep:
    def test_serial_sweep_lands_stores(self, tmp_path):
        out = tmp_path / "sweep"
        result = run_sweep(small_spec(), AXES, out, workers=1)
        assert result.n_members == 4
        assert result.resumed == 0
        for i, record in enumerate(result.members):
            member_dir = out / member_dirname(i)
            assert is_store_dir(member_dir)
            assert record["dir"] == member_dirname(i)
            assert record["overrides"] == expand_axes(AXES)[i]
            assert record["steps_run"] == 12
            store = result.open_store(i)
            assert store.n_particles == 800
        # member stores really differ along the grid
        assert result.members[0]["sigma_x"] != result.members[3]["sigma_x"]

    def test_typoed_axis_fails_before_any_work(self, tmp_path):
        out = tmp_path / "sweep"
        with pytest.raises(KeyError, match="qq"):
            run_sweep(small_spec(), {"lattice.qq": [1.0]}, out)
        assert not (out / member_dirname(0)).exists()

    def test_sweep_survives_worker_crash(self, tmp_path):
        """A killed worker costs a pool rebuild and a retry, not the
        campaign -- the acceptance scenario in miniature."""
        out = tmp_path / "sweep"
        token = tmp_path / "crash.token"
        with capture(enabled=True) as tracer:
            result = run_sweep(
                small_spec(),
                AXES,
                out,
                workers=2,
                _member_fn=CrashOnce(_run_member, token),
            )
        assert result.n_members == 4
        assert all(m is not None for m in result.members)
        assert all(is_store_dir(out / member_dirname(i)) for i in range(4))
        assert tracer.counters["parallel_pool_breaks"] >= 1
        assert tracer.counters["sweep_members_run"] == 4

    def test_resume_skips_completed_members(self, tmp_path):
        out = tmp_path / "sweep"
        run_sweep(small_spec(), AXES, out)
        with capture(enabled=True) as tracer:
            again = run_sweep(small_spec(), AXES, out)
        assert again.resumed == 4
        assert tracer.counters["sweep_members_resumed"] == 4
        assert "sweep_members_run" not in tracer.counters

    def test_partial_resume_reruns_only_damage(self, tmp_path):
        out = tmp_path / "sweep"
        first = run_sweep(small_spec(), AXES, out)
        # simulate a member killed mid-write: its record is gone
        (out / member_dirname(2) / "member.json").unlink()
        again = run_sweep(small_spec(), AXES, out)
        assert again.resumed == 3
        assert again.members[2]["sigma_x"] == pytest.approx(
            first.members[2]["sigma_x"]
        )

    def test_changed_overrides_invalidate_member(self, tmp_path):
        out = tmp_path / "sweep"
        run_sweep(small_spec(), {"mismatch": [1.0]}, out)
        again = run_sweep(small_spec(), {"mismatch": [1.1]}, out)
        assert again.resumed == 0
        assert again.members[0]["overrides"] == {"mismatch": 1.1}

    def test_checkpoint_records_members(self, tmp_path):
        out = tmp_path / "sweep"
        ckpt_dir = tmp_path / "ckpt"
        run_sweep(small_spec(), AXES, out, checkpoint_dir=ckpt_dir)
        ckpt = Checkpoint(ckpt_dir)
        assert ckpt.done("members")
        assert set(ckpt.steps("members")) == {0, 1, 2, 3}

    def test_feedback_outcome_recorded(self, tmp_path):
        spec = small_spec(
            steps=None,
            lattice=LatticeSpec.fodo(n_cells=10),
            controllers=(
                {
                    "type": "envelope",
                    "knob": "qf",
                    "target": 1.07,
                    "deadband": 5.0,  # generous band: converges immediately
                    "settle": 2,
                },
            ),
        )
        result = run_sweep(spec, {"mismatch": [1.0]}, tmp_path / "sweep")
        record = result.members[0]
        assert record["converged"] is True
        assert record["converged_step"] is not None
        assert record["unstable"] is False
        assert "qf" in record["final_strengths"]
        assert result.n_converged == 1


class TestSweepManifest:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "sweep"
        result = run_sweep(small_spec(), AXES, out)
        loaded = load_sweep(out)
        assert isinstance(loaded, SweepResult)
        assert loaded.spec == small_spec()
        assert loaded.axes == {k: list(v) for k, v in AXES.items()}
        assert loaded.members == result.members
        assert loaded.open_store(0).n_particles == 800

    def test_missing_manifest_is_format_error(self, tmp_path):
        with pytest.raises(FormatError, match="not a sweep directory"):
            load_sweep(tmp_path)

    def test_damaged_manifest_is_format_error(self, tmp_path):
        (tmp_path / "sweep.json").write_text("{broken")
        with pytest.raises(FormatError, match="damaged sweep manifest"):
            load_sweep(tmp_path)
        (tmp_path / "sweep.json").write_text(
            json.dumps({"schema": "repro/other", "version": 1})
        )
        with pytest.raises(FormatError, match="schema"):
            load_sweep(tmp_path)


class TestMemberStoresAreRenderable:
    def test_member_feeds_forest_partition(self, tmp_path):
        """The sweep's whole point: every member lands in the package's
        render-ready format, consumable by the downstream pipeline."""
        from repro.octree.forest import partition_forest

        result = run_sweep(small_spec(), {"mismatch": [1.0]}, tmp_path / "s")
        store = ShardedStore.open(result.member_dir(0))
        forest = partition_forest(
            store, tmp_path / "forest", bricks=2, max_level=4, capacity=64
        )
        assert forest.n_particles == 800
        assert forest.n_bricks == 8

    def test_member_rerun_reproduces_its_store_bitwise(self, tmp_path):
        """The scenario bench's determinism row at test scale: a member's
        scenario re-run under its seed gives the landed particles bit for bit."""
        import numpy as np

        result = run_sweep(small_spec(), {"mismatch": [1.2]}, tmp_path / "s")
        landed = ShardedStore.open(result.member_dir(0)).to_array()
        spec = small_spec().with_overrides({"mismatch": 1.2})
        a, b = spec.build().run(), spec.build().run()
        assert np.array_equal(a, b) and np.array_equal(a, landed)
