"""Atomic file writes (temp file + ``os.replace``).

Every on-disk artifact of the package (store shards and manifests,
partition node tables, hybrid frames, packed line steps, checkpoint
manifests) is written through :func:`atomic_write_bytes`, so a process killed mid-write can
never leave a torn file behind: readers either see the complete old
content or the complete new content.  The temp file lives in the same
directory as the target, which is what makes ``os.replace`` atomic on
POSIX (same filesystem) and on Windows.

Fault-injection seam: :func:`set_fault_hook` installs a callable that
runs after the temp file is fully written but *before* the rename --
exactly the window where a real kill would strike.  The hook raising
(:class:`repro.core.errors.SimulatedCrash`) proves atomicity: the
target file must be untouched afterwards.  Production code never
installs a hook.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

__all__ = ["atomic_write_bytes", "set_fault_hook"]

# test-only hook called as hook(path, data) between temp-write and replace
_fault_hook = None


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
