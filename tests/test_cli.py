"""End-to-end CLI workflow (the paper's separate 'programs')."""

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_run")
    rc = main(
        [
            "simulate",
            "--out", str(d),
            "--particles", "4000",
            "--cells", "2",
            "--frame-every", "10",
        ]
    )
    assert rc == 0
    return d


class TestSimulate:
    def test_frames_written(self, run_dir):
        from repro.core.store import ShardedStore

        frames = sorted(run_dir.glob("step_*"))
        assert [f.name for f in frames] == ["step_000000", "step_000010"]
        assert [ShardedStore.open(f).step for f in frames] == [0, 10]


class TestPartitionExtractRender:
    def test_full_chain(self, run_dir, tmp_path, capsys):
        frame = run_dir / "step_000010"
        stem = tmp_path / "p"
        assert main(["partition", str(frame), "--out", str(stem),
                     "--max-level", "5"]) == 0
        from repro.octree.stream_partition import PartitionedStore

        assert PartitionedStore.open(stem).n_particles == 4000

        hybrid = tmp_path / "h.hybrid"
        assert main(["extract", str(stem), "--out", str(hybrid),
                     "--percentile", "60", "--resolution", "16",
                     "--attributes", "pmag"]) == 0
        assert hybrid.exists()

        image = tmp_path / "img.ppm"
        assert main(["render", str(hybrid), "--out", str(image),
                     "--size", "64", "--slices", "8"]) == 0
        from repro.render.image import read_ppm

        img = read_ppm(image)
        assert img.shape == (64, 64, 3)
        assert img.sum() > 0

    def test_render_parts(self, run_dir, tmp_path):
        frame = run_dir / "step_000010"
        stem = tmp_path / "p2"
        main(["partition", str(frame), "--out", str(stem), "--max-level", "4"])
        hybrid = tmp_path / "h2.hybrid"
        main(["extract", str(stem), "--out", str(hybrid), "--resolution", "8"])
        for part in ("volume", "points"):
            out = tmp_path / f"{part}.ppm"
            assert main(["render", str(hybrid), "--out", str(out),
                         "--size", "32", "--slices", "4",
                         "--part", part]) == 0
            assert out.exists()

    def test_partition_at_any_worker_count(self, tmp_path):
        """Simulate output partitions with any worker count, to the
        same bytes."""
        run = tmp_path / "run"
        assert main(["simulate", "--out", str(run), "--particles", "3000",
                     "--cells", "1", "--frame-every", "5"]) == 0
        outs = []
        for workers in ("2", "1"):
            out = tmp_path / f"p{workers}"
            assert main(["partition", str(run / "step_000005"), "--out", str(out),
                         "--max-level", "5", "--workers", workers]) == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].glob("shard_*.bin"))
        assert names == sorted(p.name for p in outs[1].glob("shard_*.bin"))
        for name in ["partition.nodes", *names]:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_absolute_threshold(self, run_dir, tmp_path):
        frame = run_dir / "step_000010"
        stem = tmp_path / "pt"
        main(["partition", str(frame), "--out", str(stem), "--max-level", "4"])
        hybrid = tmp_path / "ht.hybrid"
        assert main(["extract", str(stem), "--out", str(hybrid),
                     "--threshold", "1e9", "--resolution", "4"]) == 0
        from repro.hybrid.representation import HybridFrame

        h = HybridFrame.load(hybrid)
        assert h.n_points == 4000  # everything below 1e9


class TestFieldlines:
    def test_trace_and_pack(self, tmp_path):
        out = tmp_path / "lines.bin"
        image = tmp_path / "lines.ppm"
        assert main(["fieldlines", "--cells", "2", "--lines", "10",
                     "--out", str(out), "--image", str(image),
                     "--size", "48"]) == 0
        assert out.exists() and image.exists()


class TestInfo:
    def test_identifies_every_format(self, run_dir, tmp_path, capsys):
        frame = run_dir / "step_000010"
        assert main(["info", str(frame)]) == 0
        assert "sharded store: step 10, 4000 particles" in capsys.readouterr().out

        stem = tmp_path / "pi"
        main(["partition", str(frame), "--out", str(stem), "--max-level", "4"])
        assert main(["info", str(stem)]) == 0
        assert "partitioned store" in capsys.readouterr().out

        hybrid = tmp_path / "hi.hybrid"
        main(["extract", str(stem), "--out", str(hybrid), "--resolution", "4"])
        assert main(["info", str(hybrid)]) == 0
        assert "hybrid frame" in capsys.readouterr().out

        lines = tmp_path / "li.bin"
        main(["fieldlines", "--cells", "2", "--lines", "4", "--out", str(lines)])
        capsys.readouterr()
        assert main(["info", str(lines)]) == 0
        assert "packed field lines" in capsys.readouterr().out

    def test_unknown_file(self, tmp_path, capsys):
        bad = tmp_path / "junk.bin"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert main(["info", str(bad)]) == 1
        assert "unrecognized" in capsys.readouterr().err


class TestTrace:
    def test_simulate_writes_trace_json(self, tmp_path, capsys):
        import json

        trace_file = tmp_path / "trace.json"
        assert main(["simulate", "--out", str(tmp_path / "run"),
                     "--particles", "2000", "--cells", "1",
                     "--frame-every", "20",
                     "--trace", str(trace_file)]) == 0
        assert "trace written to" in capsys.readouterr().out
        doc = json.loads(trace_file.read_text())
        assert doc["version"] == 1
        assert "simulate" in doc["spans"]
        assert doc["counters"]["particles_stepped"] > 0

    def test_trace_report_prints_table(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        main(["fieldlines", "--cells", "2", "--lines", "4",
              "--out", str(tmp_path / "l.bin"),
              "--image", str(tmp_path / "l.ppm"), "--size", "32",
              "--trace", str(trace_file)])
        capsys.readouterr()
        assert main(["trace-report", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "stage" in out
        for stage in ("mesh", "solve", "seed", "strip", "render"):
            assert stage in out, f"missing stage {stage!r} in report"
        assert "lines_seeded" in out

    def test_trace_flag_accepted_by_every_subcommand(self, tmp_path):
        from repro.cli import build_parser

        parser = build_parser()
        argvs = {
            "simulate": ["simulate", "--out", "d"],
            "partition": ["partition", "f", "--out", "p"],
            "extract": ["extract", "p", "--out", "h"],
            "render": ["render", "h", "--out", "i"],
            "fieldlines": ["fieldlines"],
            "eigen": ["eigen"],
            "info": ["info", "f"],
        }
        for sub, argv in argvs.items():
            args = parser.parse_args(argv)
            assert hasattr(args, "trace"), f"{sub} lacks --trace"


class TestTraceReportInputs:
    """``trace-report`` on every kind of trace file the repo writes."""

    @staticmethod
    def _tracer():
        from repro.core.trace import Tracer

        t = Tracer(enabled=True)
        with t.span("extract"):
            with t.span("deposit"):
                t.count("points_kept", 7)
        return t

    def test_tracer_save_document(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        self._tracer().save(path)
        assert main(["trace-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "extract" in out and "deposit" in out and "points_kept" in out

    def test_bench_file(self, capsys):
        from pathlib import Path

        bench = Path(__file__).resolve().parents[1] / "BENCH_partitioning.json"
        assert main(["trace-report", str(bench)]) == 0
        out = capsys.readouterr().out
        assert "octree_build" in out and "(no spans recorded)" not in out

    def test_pipeline_trace(self, tmp_path, capsys):
        import json

        events = [
            {"id": i, "parent": None, "name": "op", "start": float(i),
             "end": i + 0.5, "rid": i, "thread": 1}
            for i in range(2)
        ]
        doc = {"workload": "beam_sc", "seed": 0, "wall_s": 2.0, "env": {},
               "ledger": [], "metrics": {}, "spans": events,
               "program": self._tracer().snapshot()}
        path = tmp_path / "trace_beam_sc.json"
        path.write_text(json.dumps(doc))
        assert main(["trace-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "deposit" in out and "points_kept" in out

    @pytest.mark.parametrize("text", ['{"spans": [1, 2]}', "[1, 2]", '{"a": 1}', "not json"])
    def test_junk_exits_1(self, tmp_path, capsys, text):
        path = tmp_path / "junk.json"
        path.write_text(text)
        assert main(["trace-report", str(path)]) == 1
        assert "not a trace JSON file" in capsys.readouterr().err


class TestEigen:
    def test_eigen_subcommand(self, capsys):
        rc = main(["eigen", "--radius", "1.0", "--length", "1.0",
                   "--resolution", "8", "--duration", "30", "--peaks", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "measured" in out
        assert "TM0n0" in out


class TestExtractStoredVolume:
    def test_second_extract_reads_only_the_prefix(self, run_dir, tmp_path, capsys):
        """The first extract deposits the store's volume and keeps it;
        the second reads the halo prefix and the stored volume only."""
        import json

        from repro.octree.stream_partition import PartitionedStore

        frame = run_dir / "step_000010"
        stem = tmp_path / "pd"
        main(["partition", str(frame), "--out", str(stem), "--max-level", "4"])
        ps = PartitionedStore.open(stem)
        threshold = float(np.percentile(ps.nodes["density"], 60))
        cutoff = ps.density_cutoff_index(threshold)
        docs = []
        for k in range(2):
            trace = tmp_path / f"t{k}.json"
            assert main(["extract", str(stem), "--out", str(tmp_path / f"h{k}.hybrid"),
                         "--threshold", repr(threshold), "--resolution", "8",
                         "--trace", str(trace)]) == 0
            docs.append(json.loads(trace.read_text())["counters"])
        assert "shard-streamed" in capsys.readouterr().out
        assert docs[0]["store_shard_read_bytes"] == (ps.n_particles + cutoff) * 48
        assert docs[0]["volume_deposits"] == 1
        assert docs[1]["store_shard_read_bytes"] == cutoff * 48
        assert docs[1]["volume_file_hits"] == 1
        assert "volume_deposits" not in docs[1]
        assert (tmp_path / "h0.hybrid").read_bytes() == (tmp_path / "h1.hybrid").read_bytes()


class TestExitCodes:
    """Typed failures map to distinct exit codes with one-line stderr."""

    def test_damaged_hybrid_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.hybrid"
        bad.write_bytes(b"RPRHYBRD" + b"\x00" * 8)  # right magic, torn header
        assert main(["render", str(bad), "--out", str(tmp_path / "o.ppm")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("repro: damaged data file:")
        assert "Traceback" not in err

    def test_damaged_partition_exits_3(self, tmp_path, capsys):
        stem = tmp_path / "junk"
        stem.mkdir()
        (stem / "partition.nodes").write_bytes(b"\xff" * 64)
        assert main(["extract", str(stem),
                     "--out", str(tmp_path / "h.hybrid")]) == 3
        assert "repro: damaged data file:" in capsys.readouterr().err

    @pytest.mark.parametrize("keep", [0, None], ids=["zero_byte", "frame_file"])
    def test_frame_file_partition_exits_3(self, run_dir, tmp_path, capsys, keep):
        """A file where a frame store belongs (an empty one, or a frame
        file in the single-file layout of earlier releases) fails
        ``partition`` with one typed line naming ``repro simulate``."""
        import struct

        from repro.core.dataset import open_dataset

        particles = open_dataset(run_dir / "step_000010").to_array()
        bad = tmp_path / "step_000010.frame"
        raw = struct.pack("<8sQQ", b"RPRFRAME", len(particles), 10) + particles.tobytes()
        bad.write_bytes(raw[:keep])
        assert main(["partition", str(bad), "--out", str(tmp_path / "p")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("repro: damaged data file:") and str(bad) in err
        assert "`repro simulate`" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "p").exists()

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "nope.hybrid")]) == 2
        assert "repro:" in capsys.readouterr().err
        assert main(["extract", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "h.hybrid")]) == 2
        assert "repro:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["partition"], ["forest", "partition"]])
    def test_missing_frame_store_exits_2(self, tmp_path, capsys, command):
        missing = tmp_path / "nope"
        assert main([*command, str(missing), "--out", str(tmp_path / "p")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ") and str(missing) in err
        assert "no such sharded store" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "p").exists()

    def test_exit_codes_are_distinct(self):
        from repro.cli import (
            EXIT_FORMAT_ERROR,
            EXIT_PROTOCOL_ERROR,
            EXIT_REMOTE_ERROR,
            EXIT_USAGE,
        )

        codes = [EXIT_USAGE, EXIT_FORMAT_ERROR, EXIT_PROTOCOL_ERROR,
                 EXIT_REMOTE_ERROR]
        assert len(set(codes)) == len(codes)
        assert all(c != 0 for c in codes)


class TestStoreWorkflow:
    """The out-of-core chain on a frame store re-sharded at 1024 rows:
    store verify -> partition -> extract."""

    @pytest.fixture(scope="class")
    def store_dir(self, run_dir, tmp_path_factory):
        from repro.core.dataset import open_dataset
        from repro.core.store import create_store

        frame = open_dataset(run_dir / "step_000010")
        d = tmp_path_factory.mktemp("store") / "st"
        create_store(d, frame, shard_rows=1024, step=frame.step)
        return d

    def test_store_info_and_verify(self, store_dir, capsys):
        assert main(["store", "info", str(store_dir)]) == 0
        assert "sharded store" in capsys.readouterr().out
        assert main(["store", "verify", str(store_dir)]) == 0
        assert "CRC32 verified" in capsys.readouterr().out

    def test_store_verify_detects_damage(self, run_dir, tmp_path, capsys):
        import shutil

        d = tmp_path / "st"
        shutil.copytree(run_dir / "step_000010", d)
        shard = sorted(d.glob("shard_*.bin"))[0]
        raw = bytearray(shard.read_bytes())
        raw[7] ^= 0xFF
        shard.write_bytes(bytes(raw))
        assert main(["store", "verify", str(d)]) == 3
        assert "damaged" in capsys.readouterr().err

    def test_streaming_chain_matches_incore(self, run_dir, store_dir,
                                            tmp_path, capsys):
        from repro.core.dataset import open_dataset
        from repro.octree.partition import partition
        from repro.octree.stream_partition import PartitionedStore

        stem = tmp_path / "p"
        pf = partition(open_dataset(run_dir / "step_000010"), "xyz", max_level=4)
        PartitionedStore.from_frame(pf, stem)

        out = tmp_path / "pstore"
        assert main(["partition", str(store_dir), "--out", str(out),
                     "--max-level", "4",
                     "--checkpoint", str(tmp_path / "ck")]) == 0
        assert "out-of-core" in capsys.readouterr().out
        assert main(["info", str(out)]) == 0
        assert "partitioned store" in capsys.readouterr().out

        ha = tmp_path / "a.hybrid"
        hb = tmp_path / "b.hybrid"
        assert main(["extract", str(stem), "--out", str(ha),
                     "--percentile", "60", "--resolution", "12"]) == 0
        assert main(["extract", str(out), "--out", str(hb),
                     "--percentile", "60", "--resolution", "12"]) == 0
        assert "shard-streamed" in capsys.readouterr().out

        from repro.hybrid.representation import HybridFrame

        a = HybridFrame.load(ha)
        b = HybridFrame.load(hb)
        assert np.array_equal(a.points, b.points)
        np.testing.assert_array_max_ulp(a.volume, b.volume, maxulp=1)

    def test_parallel_partition_of_store(self, store_dir, tmp_path, capsys):
        out = tmp_path / "pw"
        assert main(["partition", str(store_dir), "--out", str(out),
                     "--max-level", "5", "--workers", "2"]) == 0
        assert "out-of-core" in capsys.readouterr().out

    def test_info_on_plain_dir(self, tmp_path, capsys):
        assert main(["info", str(tmp_path)]) == 1
        assert "without a store manifest" in capsys.readouterr().err


class TestScenarioWorkflow:
    """The digital-twin chain: spec file -> run/sweep -> info."""

    @pytest.fixture(scope="class")
    def spec_path(self, tmp_path_factory):
        from repro.beams.scenario import LatticeSpec, ScenarioSpec

        spec = ScenarioSpec(
            lattice=LatticeSpec.fodo(n_cells=4),
            name="cli-demo",
            n_particles=600,
            space_charge=False,
            steps=10,
        )
        return spec.save(tmp_path_factory.mktemp("scenario") / "spec.json")

    def test_scenario_info(self, spec_path, capsys):
        assert main(["scenario", "info", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "cli-demo" in out
        assert "qf=6" in out
        assert "stable cell: True" in out

    def test_scenario_run_with_override_and_store(self, spec_path, tmp_path,
                                                  capsys):
        store = tmp_path / "final"
        assert main(["scenario", "run", str(spec_path),
                     "--set", "lattice.qf=5.5", "--set", "seed=7",
                     "--out", str(store)]) == 0
        out = capsys.readouterr().out
        assert "ran scenario 'cli-demo' for 10 step(s)" in out
        assert "stored final beam: 600 particles" in out
        # the landed store is a first-class citizen of the existing CLI
        assert main(["store", "info", str(store)]) == 0
        assert "sharded store" in capsys.readouterr().out

    def test_scenario_run_reports_controllers(self, tmp_path, capsys):
        from repro.beams.scenario import LatticeSpec, ScenarioSpec

        spec = ScenarioSpec(
            lattice=LatticeSpec.fodo(n_cells=6),
            n_particles=400,
            space_charge=False,
            controllers=(
                {"type": "envelope", "knob": "qf", "target": 1.07,
                 "deadband": 5.0, "settle": 2},
            ),
        )
        path = spec.save(tmp_path / "fb.json")
        assert main(["scenario", "run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "EnvelopeController[qf]" in out
        # --open-loop detaches the declared controllers
        assert main(["scenario", "run", str(path), "--open-loop"]) == 0
        assert "EnvelopeController" not in capsys.readouterr().out

    def test_scenario_sweep_and_info(self, spec_path, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        assert main(["scenario", "sweep", str(spec_path),
                     "--axis", "lattice.qf=5.5,6.0",
                     "--axis", "mismatch=1.0,1.2",
                     "--out", str(out_dir),
                     "--workers", "1",
                     "--checkpoint", str(tmp_path / "ck")]) == 0
        out = capsys.readouterr().out
        assert "swept 4 member(s)" in out
        # resume: nothing re-runs
        assert main(["scenario", "sweep", str(spec_path),
                     "--axis", "lattice.qf=5.5,6.0",
                     "--axis", "mismatch=1.0,1.2",
                     "--out", str(out_dir)]) == 0
        assert "4 resumed from disk" in capsys.readouterr().out
        assert main(["scenario", "info", str(out_dir)]) == 0
        info = capsys.readouterr().out
        assert "sweep: 4 member(s)" in info
        assert "member_0000" in info
        # each member is an ordinary store to the rest of the CLI
        assert main(["info", str(out_dir / "member_0003")]) == 0

    def test_damaged_spec_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["scenario", "run", str(bad)]) == 3
        assert "damaged data file" in capsys.readouterr().err

    def test_missing_spec_exits_2(self, tmp_path, capsys):
        assert main(["scenario", "info", str(tmp_path / "nope.json")]) == 2

    def test_bad_override_value_is_usage_error(self, spec_path):
        with pytest.raises(SystemExit):
            main(["scenario", "run", str(spec_path),
                  "--set", "lattice.qf=strong"])
