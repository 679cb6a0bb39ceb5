"""Damage to every checked file kind fails typed, naming the file.

Each binary file the package writes and reads back without a manifest
is a :class:`repro.core.atomic.CheckedFile`: magic, u16 version, u64
payload length, the payload, a CRC32 trailer.  For every kind, a byte
flipped in any region and a cut at any region boundary raise
:class:`FormatError` naming the file, a write killed before its rename
leaves the previous file readable, and a file in the layout the
previous release wrote names the command that regenerates it.
"""

import io
import struct

import numpy as np
import pytest

from repro.core.atomic import CheckedFile, set_fault_hook
from repro.core.config import FieldLinePipelineConfig
from repro.core.dataset import as_dataset
from repro.core.errors import FormatError, SimulatedCrash
from repro.core.pipeline import _SEED_LEDGER, fieldline_pipeline
from repro.fieldlines.compact import pack_lines, read_lines
from repro.fieldlines.integrate import FieldLine
from repro.fieldlines.timeseries import LineSequence
from repro.hybrid.representation import HybridFrame
from repro.octree.format import read_nodes_file, write_nodes_file
from repro.octree.partition import partition

HEAD = 8 + 2 + 8  # magic, version, payload length
CRC = 4


def _hybrid(step):
    rng = np.random.default_rng(step)
    return HybridFrame(
        volume=rng.random((4, 4, 4)).astype(np.float32),
        points=rng.random((30, 3)).astype(np.float32),
        point_densities=rng.random(30).astype(np.float32),
        lo=np.zeros(3),
        hi=np.ones(3),
        step=step,
    )


def _frame(step):
    rng = np.random.default_rng(step)
    return partition(
        as_dataset(rng.normal(0, 1, (800, 6))), "xyz", max_level=4, step=step
    )


def _nodes_args(pf):
    return (pf.nodes, pf.n_particles, pf.max_level, pf.capacity, pf.step,
            pf.lo, pf.hi, pf.plot_type)


def _lines(step):
    rng = np.random.default_rng(step)
    out = []
    for i in range(4):
        pts = np.cumsum(rng.uniform(-0.1, 0.1, (12, 3)), axis=0)
        out.append(FieldLine(points=pts, tangents=np.tile([1.0, 0, 0], (12, 1)),
                             magnitudes=rng.random(12), order=i))
    return out


def _pipeline_config(lines):
    return FieldLinePipelineConfig(n_cells=1, total_lines=lines, n_xy=4, n_z_per_unit=4)


class _Kind:
    """How to write version ``k`` of one file kind at ``path`` and read
    it back to something comparable."""

    def __init__(self, name, filename, write, read, legacy=None, remedy=None):
        self.name, self.filename = name, filename
        self.write, self.read = write, read
        self.legacy, self.remedy = legacy, remedy


def _write_hybrid(path, k):
    _hybrid(k).save(path)


def _read_hybrid(path):
    return HybridFrame.load(path).to_bytes()


def _write_nodes(path, k):
    write_nodes_file(path, *_nodes_args(_frame(k)))


def _read_nodes(path):
    nodes, *meta = read_nodes_file(path)
    return nodes.tobytes(), repr(meta)


def _write_line_step(path, k):
    LineSequence(path.parent).save(0, _lines(k))


def _read_line_step(path):
    return [line.points.tobytes() for line in LineSequence(path.parent).load(0)]


def _write_seed(path, k):
    # the seeding checkpoint writes seed.lines and seed_ledger.npz side
    # by side; without a manifest the run seeds again
    (path.parent / "manifest.json").unlink(missing_ok=True)
    fieldline_pipeline(_pipeline_config(4 + k), render=False, checkpoint_dir=path.parent)


def _read_seed_lines(path):
    return [line.points.tobytes() for line in read_lines(path)]


def _read_seed_ledger(path):
    return np.load(io.BytesIO(_SEED_LEDGER.read(path)))["achieved"].tobytes()


def _legacy_hybrid():
    return _hybrid(0).to_bytes()  # the previous release wrote the bare blob


def _legacy_nodes():
    pf = _frame(0)
    header = struct.pack(
        "<8sHQQIIQ3d3d16s", b"RPRNODES", 2, len(pf.nodes), pf.n_particles,
        pf.max_level, pf.capacity, pf.step, *pf.lo, *pf.hi, b"xyz".ljust(16, b"\0"),
    )
    return header + pf.nodes.tobytes()


def _legacy_lines():
    return b"RPRLINES" + struct.pack("<H", 2) + pack_lines(_lines(0))


KINDS = [
    _Kind("hybrid", "f.hybrid", _write_hybrid, _read_hybrid,
          _legacy_hybrid, "repro extract"),
    _Kind("nodes", "partition.nodes", _write_nodes, _read_nodes,
          _legacy_nodes, "repro partition"),
    _Kind("line_step", "step_000000.lines", _write_line_step, _read_line_step,
          _legacy_lines, "repro fieldlines --out"),
    _Kind("seed_lines", "seed.lines", _write_seed, _read_seed_lines),
    _Kind("seed_ledger", "seed_ledger.npz", _write_seed, _read_seed_ledger),
]


def _flip(offset):
    def damage(raw):
        raw = bytearray(raw)
        raw[offset(len(raw))] ^= 0x5A
        return bytes(raw)
    return damage


def _cut(offset):
    return lambda raw: raw[: offset(len(raw))]


DAMAGE = {
    "flip_magic": _flip(lambda n: 3),
    "flip_version": _flip(lambda n: 8),
    "flip_length": _flip(lambda n: 12),
    "flip_payload_first": _flip(lambda n: HEAD),
    "flip_payload_middle": _flip(lambda n: (HEAD + n - CRC) // 2),
    "flip_payload_last": _flip(lambda n: n - CRC - 1),
    "flip_crc": _flip(lambda n: n - 2),
    "cut_empty": _cut(lambda n: 0),
    "cut_in_magic": _cut(lambda n: 5),
    "cut_after_magic": _cut(lambda n: 8),
    "cut_after_version": _cut(lambda n: 10),
    "cut_after_length": _cut(lambda n: HEAD),
    "cut_in_payload": _cut(lambda n: (HEAD + n - CRC) // 2),
    "cut_before_crc": _cut(lambda n: n - CRC),
    "cut_in_crc": _cut(lambda n: n - 1),
}


@pytest.fixture(params=KINDS, ids=lambda k: k.name)
def kind(request):
    return request.param


@pytest.fixture
def written(kind, tmp_path):
    path = tmp_path / "d" / kind.filename
    path.parent.mkdir()
    kind.write(path, 0)
    return path


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damage_raises_format_error_naming_the_file(kind, written, damage):
    written.write_bytes(DAMAGE[damage](written.read_bytes()))
    with pytest.raises(FormatError) as info:
        kind.read(written)
    assert str(written) in str(info.value)


def test_torn_write_leaves_the_previous_file(kind, written):
    before = kind.read(written)
    first = written.read_bytes()

    def kill(path, data):
        if path.name == written.name:
            raise SimulatedCrash(f"killed while writing {path}")

    set_fault_hook(kill)
    try:
        with pytest.raises(SimulatedCrash):
            kind.write(written, 1)
    finally:
        set_fault_hook(None)
    assert written.read_bytes() == first
    assert kind.read(written) == before
    assert not [p for p in written.parent.iterdir() if p.name.startswith(".")]


@pytest.mark.parametrize("kind", [k for k in KINDS if k.legacy], ids=lambda k: k.name)
def test_previous_release_file_names_the_regenerating_command(kind, tmp_path):
    path = tmp_path / kind.filename
    path.write_bytes(kind.legacy())
    with pytest.raises(FormatError) as info:
        kind.read(path)
    assert str(path) in str(info.value)
    assert f"`{kind.remedy}`" in str(info.value)


@pytest.mark.parametrize("name", ["seed.lines", "seed_ledger.npz"])
def test_resume_from_a_damaged_seed_checkpoint_raises(tmp_path, name):
    fieldline_pipeline(_pipeline_config(4), render=False, checkpoint_dir=tmp_path)
    path = tmp_path / name
    path.write_bytes(DAMAGE["flip_payload_middle"](path.read_bytes()))
    with pytest.raises(FormatError, match=name):
        fieldline_pipeline(_pipeline_config(4), render=False, checkpoint_dir=tmp_path)


def test_read_lines_reads_what_the_cli_writes(tmp_path):
    from repro.cli import main

    out = tmp_path / "l.bin"
    assert main(["fieldlines", "--cells", "1", "--lines", "4", "--out", str(out)]) == 0
    lines = read_lines(out)
    assert len(lines) == 4
    out.write_bytes(out.read_bytes()[:-1])
    assert main(["info", str(out)]) == 3


class TestContainer:
    KIND = CheckedFile(b"RPRTESTS", 7, "test", "make test")

    def test_layout(self, tmp_path):
        path = tmp_path / "t.bin"
        assert self.KIND.write(path, b"abc") == HEAD + 3 + CRC
        raw = path.read_bytes()
        assert raw[:HEAD] == struct.pack("<8sHQ", b"RPRTESTS", 7, 3)
        assert raw[HEAD:-CRC] == b"abc"
        assert bytes(self.KIND.read(path)) == b"abc"

    def test_empty_payload(self, tmp_path):
        path = tmp_path / "t.bin"
        self.KIND.write(path, b"")
        assert bytes(self.KIND.read(path)) == b""

    def test_another_kind_is_refused(self, tmp_path):
        path = tmp_path / "t.bin"
        CheckedFile(b"RPROTHER", 7, "other", "x").write(path, b"abc")
        with pytest.raises(FormatError, match="not a test file"):
            self.KIND.read(path)
