"""Time series of pre-integrated field lines (paper section 3.4).

"Storing the precomputed field lines rather than the raw data can
significantly cut down the data storage and transfer requirements
making interactive interrogation of the time-varying electromagnetic
field lines data possible.  The typical saving is about a factor of
25, which would allow many time steps of electromagnetic field lines
to reside in memory for interactive viewing."

``LineSequence`` is that store: one packed line file per time step on
disk (:func:`repro.fieldlines.compact.write_lines`), a byte-budgeted
cache in memory, and the storage accounting that compares the whole
sequence against saving raw vertex fields.  Step files are written
atomically (a killed writer never leaves a torn step), and loading a
damaged step raises a typed :class:`repro.core.errors.FormatError`.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from pathlib import Path

from repro.fieldlines.compact import read_lines, write_lines

__all__ = ["LineSequence"]


class LineSequence:
    """A directory of per-step packed field-line files.

    Parameters
    ----------
    directory : where ``step_NNNNNN.lines`` files live
    memory_budget_bytes : in-memory cache capacity (LRU)
    quantize : write 16-bit quantized coordinates
    """

    def __init__(
        self,
        directory,
        memory_budget_bytes: int = 500_000_000,
        quantize: bool = False,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.memory_budget_bytes = int(memory_budget_bytes)
        self.quantize = bool(quantize)
        self._cache: OrderedDict[int, list] = OrderedDict()
        self._cache_bytes = 0
        self.stats = {"hits": 0, "misses": 0, "load_seconds": 0.0, "evictions": 0}

    # ------------------------------------------------------------------
    def _path(self, step: int) -> Path:
        return self.directory / f"step_{step:06d}.lines"

    def steps(self):
        """Sorted step indices present on disk."""
        return sorted(
            int(p.stem.split("_")[1]) for p in self.directory.glob("step_*.lines")
        )

    def __len__(self) -> int:
        return len(self.steps())

    # ------------------------------------------------------------------
    def save(self, step: int, lines) -> int:
        """Pack and write one step atomically; returns bytes written."""
        nbytes = write_lines(self._path(step), lines, quantize=self.quantize)
        # refresh the cache entry if present
        if step in self._cache:
            self._evict(step)
        return nbytes

    def _evict(self, step: int) -> None:
        lines = self._cache.pop(step)
        self._cache_bytes -= self._lines_bytes(lines)
        self.stats["evictions"] += 1

    @staticmethod
    def _lines_bytes(lines) -> int:
        return sum(l.points.nbytes + l.magnitudes.nbytes for l in lines)

    def load(self, step: int):
        """Fetch one step's lines through the cache."""
        if step in self._cache:
            self.stats["hits"] += 1
            self._cache.move_to_end(step)
            return self._cache[step]
        path = self._path(step)
        if not path.exists():
            raise FileNotFoundError(f"no lines stored for step {step}")
        self.stats["misses"] += 1
        t0 = time.perf_counter()
        lines = read_lines(path)
        self.stats["load_seconds"] += time.perf_counter() - t0
        nbytes = self._lines_bytes(lines)
        if nbytes <= self.memory_budget_bytes:
            while self._cache and self._cache_bytes + nbytes > self.memory_budget_bytes:
                oldest = next(iter(self._cache))
                self._evict(oldest)
            self._cache[step] = lines
            self._cache_bytes += nbytes
        return lines

    # ------------------------------------------------------------------
    def disk_bytes(self) -> int:
        """Total packed bytes on disk across all steps."""
        return sum(p.stat().st_size for p in self.directory.glob("step_*.lines"))

    def storage_report(self, mesh) -> dict:
        """Sequence-vs-raw storage accounting against a mesh's E+B
        vertex fields (the paper's factor-of-25 ledger)."""
        n_steps = len(self)
        raw = mesh.n_vertices * 6 * 8 * n_steps
        packed = self.disk_bytes()
        return {
            "n_steps": n_steps,
            "raw_bytes": raw,
            "line_bytes": packed,
            "compression_factor": raw / max(packed, 1),
        }
