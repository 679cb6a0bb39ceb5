"""Atomic file writes (temp file + ``os.replace``) and the checked file.

Every on-disk artifact of the package (store shards and manifests,
partition node tables, hybrid frames, packed line steps, checkpoint
manifests) is written through :func:`atomic_write_bytes`, so a process killed mid-write can
never leave a torn file behind: readers either see the complete old
content or the complete new content.  The temp file lives in the same
directory as the target, which is what makes ``os.replace`` atomic on
POSIX (same filesystem) and on Windows.

Every binary file the package reads back without a manifest to check
it against is a :class:`CheckedFile`: the kind's magic, a version, the
payload length, the payload and a CRC32 trailer.  One reader checks
all of it, so a damaged, truncated or foreign file fails with a
:class:`repro.core.errors.FormatError` that names the file, and a file
of another version names the command that regenerates it.

Fault-injection seam: :func:`set_fault_hook` installs a callable that
runs after the temp file is fully written but *before* the rename --
exactly the window where a real kill would strike.  The hook raising
(:class:`repro.core.errors.SimulatedCrash`) proves atomicity: the
target file must be untouched afterwards.  Production code never
installs a hook.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.core.errors import FormatError

__all__ = ["atomic_write_bytes", "set_fault_hook", "CheckedFile"]

# test-only hook called as hook(path, data) between temp-write and replace
_fault_hook = None

# magic, version, payload length; the CRC32 trailer covers both
_CHECKED_HEAD = struct.Struct("<8sHQ")
_CHECKED_CRC = struct.Struct("<I")


def set_fault_hook(hook) -> None:
    """Install (or clear, with ``None``) the pre-replace fault hook."""
    global _fault_hook
    _fault_hook = hook


def atomic_write_bytes(path, data: bytes, fsync: bool = False) -> int:
    """Write ``data`` to ``path`` atomically; returns bytes written.

    The bytes land in ``.<name>.tmp.<pid>.<thread id>`` next to the
    target and are renamed into place with :func:`os.replace`; naming
    the temp file by thread too keeps two threads writing one target
    from sharing (and stealing) one temp file.  On any failure the
    temp file is removed and the target is left exactly as it was.
    ``fsync=True`` additionally flushes the payload to stable storage
    before the rename (durability against power loss, at a cost).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            if fsync:
                f.flush()
                os.fsync(f.fileno())
        if _fault_hook is not None:
            _fault_hook(path, data)
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    return len(data)


@dataclass(frozen=True)
class CheckedFile:
    """One kind of checked file.

    Layout (little-endian): ``magic`` (8 bytes), u16 ``version``, u64
    payload length, the payload, then a u32 CRC32 of everything before
    it.  ``kind`` names the file in errors, and ``remedy`` is the
    command that regenerates a file of another version: every such
    file can be rebuilt from its inputs, so no reader for an older
    version is kept.
    """

    magic: bytes
    version: int
    kind: str
    remedy: str

    def write(self, path, payload) -> int:
        """Write ``payload`` atomically in the container; returns the
        file's size."""
        head = _CHECKED_HEAD.pack(self.magic, self.version, len(payload))
        crc = zlib.crc32(payload, zlib.crc32(head))
        return atomic_write_bytes(path, b"".join((head, payload, _CHECKED_CRC.pack(crc))))

    def read(self, path) -> memoryview:
        """The payload of the file at ``path``, after every check.

        Raises :class:`FormatError` naming ``path`` for a file that is
        truncated, of another kind or version, longer or shorter than
        its header says, or whose CRC32 does not match.
        """
        raw = Path(path).read_bytes()
        end = len(raw) - _CHECKED_CRC.size
        if end < _CHECKED_HEAD.size:
            raise FormatError(f"{path}: truncated {self.kind} file ({len(raw)} bytes)")
        magic, version, n = _CHECKED_HEAD.unpack_from(raw)
        if magic != self.magic:
            raise FormatError(f"{path}: not a {self.kind} file")
        if version != self.version:
            raise FormatError(
                f"{path}: {self.kind} file version {version}, this release "
                f"reads version {self.version}; regenerate it with `{self.remedy}`"
            )
        if end != _CHECKED_HEAD.size + n:
            raise FormatError(
                f"{path}: {self.kind} file holds {len(raw)} bytes, its header "
                f"says {_CHECKED_HEAD.size + n + _CHECKED_CRC.size}"
            )
        view = memoryview(raw)
        if zlib.crc32(view[:end]) != _CHECKED_CRC.unpack_from(raw, end)[0]:
            raise FormatError(f"{path}: {self.kind} file fails its CRC32 check")
        return view[_CHECKED_HEAD.size:end]
