"""Dataset-first entry point: one protocol over in-core and sharded data.

Historically every pipeline stage took a raw ``(N, 6)`` ndarray -- fine
while frames fit in RAM, a dead end at the paper's 10^8-10^9 particle
scale.  This module defines the :class:`ParticleDataset` protocol that
both backends satisfy:

* :class:`ArrayDataset` -- the legacy in-core array, chunked virtually;
* :class:`repro.core.store.ShardedStore` -- the out-of-core sharded
  store, one chunk per shard (registered as a virtual subclass).

:func:`open_dataset` is the single public constructor: hand it an
ndarray or a store directory and get back a
dataset that ``partition(...)`` / ``extract(...)`` consume directly.
Raw-array call shapes keep working through :func:`as_dataset`, the
internal (non-warning) coercion helper.
"""

from __future__ import annotations

import abc
from pathlib import Path

import numpy as np

from repro.core.errors import FormatError
from repro.core.store import ShardedStore, is_store_dir

__all__ = ["ParticleDataset", "ArrayDataset", "open_dataset", "as_dataset"]

DEFAULT_CHUNK_ROWS = 262_144


class ParticleDataset(abc.ABC):
    """Chunk-addressable view of one particle frame (N rows x 6 columns).

    The contract every pipeline stage codes against: a dataset knows
    how many particles it holds, which simulation step it came from,
    and serves the rows as a sequence of ``(n_i, 6)`` chunks whose
    concatenation *is* the frame, in order.  Implementations decide
    where the bytes live (RAM, a sharded store on disk).
    """

    @property
    @abc.abstractmethod
    def n_particles(self) -> int:
        """Total number of particle rows."""

    @property
    @abc.abstractmethod
    def step(self) -> int:
        """Simulation time-step index the frame came from."""

    @property
    @abc.abstractmethod
    def n_chunks(self) -> int:
        """Number of chunks :meth:`chunk` addresses."""

    @abc.abstractmethod
    def chunk(self, i: int, columns=None) -> np.ndarray:
        """Chunk ``i`` as an in-RAM array, optionally restricted to the
        given column indices."""

    def chunks(self, columns=None):
        """Iterate every chunk in frame order."""
        for i in range(self.n_chunks):
            yield self.chunk(i, columns)

    def bounds(self, columns=None):
        """Exact global (min, max) over the selected columns, computed
        chunk-wise so no backend has to materialize the frame."""
        lo = hi = None
        for chunk in self.chunks(columns):
            if len(chunk) == 0:
                continue
            clo = chunk.min(axis=0)
            chi = chunk.max(axis=0)
            lo = clo if lo is None else np.minimum(lo, clo)
            hi = chi if hi is None else np.maximum(hi, chi)
        if lo is None:
            raise ValueError("dataset holds no particles")
        return lo, hi

    def to_array(self) -> np.ndarray:
        """Materialize the whole frame in RAM (legacy in-core path)."""
        return np.concatenate(list(self.chunks()))

    def __len__(self) -> int:
        return self.n_particles


# the sharded store satisfies the protocol structurally; registering it
# keeps isinstance(ds, ParticleDataset) the one dispatch test without a
# store -> dataset import cycle
ParticleDataset.register(ShardedStore)


class ArrayDataset(ParticleDataset):
    """In-core backend: a plain ``(N, 6)`` array behind the protocol.

    Chunking is virtual -- ``chunk(i)`` is a zero-copy row slice -- so
    wrapping an array costs nothing.
    """

    def __init__(self, particles, step: int = 0, chunk_rows: int = DEFAULT_CHUNK_ROWS):
        particles = np.asarray(particles)
        if particles.ndim != 2 or particles.shape[1] != 6:
            raise ValueError("particles must be (N, 6)")
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        self._particles = particles
        self._step = int(step)
        self.chunk_rows = int(chunk_rows)

    @property
    def n_particles(self) -> int:
        return len(self._particles)

    @property
    def step(self) -> int:
        return self._step

    @property
    def n_chunks(self) -> int:
        return max(1, -(-self.n_particles // self.chunk_rows))

    def chunk(self, i: int, columns=None) -> np.ndarray:
        if not 0 <= i < self.n_chunks:
            raise IndexError(f"chunk {i} out of range [0, {self.n_chunks})")
        rows = self._particles[i * self.chunk_rows : (i + 1) * self.chunk_rows]
        if columns is None:
            return rows
        return rows[:, list(columns)]

    def to_array(self) -> np.ndarray:
        return np.asarray(self._particles, dtype=np.float64)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"ArrayDataset(n_particles={self.n_particles}, step={self.step})"


def as_dataset(data, step: int = 0) -> ParticleDataset:
    """Coerce ``data`` to a :class:`ParticleDataset` without warnings.

    The internal seam: pipeline code calls this so raw arrays flowing
    through existing plumbing never trip the public deprecation shim.
    Accepts a dataset (passed through), an ndarray, or anything
    array-like with 6 columns.
    """
    if isinstance(data, ParticleDataset):
        return data
    return ArrayDataset(np.asarray(data, dtype=np.float64), step=step)


def open_dataset(source, step: int = 0) -> ParticleDataset:
    """Open any particle-frame backend behind the one dataset protocol.

    ``source`` may be:

    * an ``(N, 6)`` ndarray -> :class:`ArrayDataset` (zero-copy);
    * a sharded-store directory -> :class:`repro.core.store.ShardedStore`,
      validated against its manifest (``repro simulate`` writes one per
      kept step);
    * an existing dataset -> returned as-is.

    A path that does not exist raises :class:`FileNotFoundError`; any
    other path raises :class:`FormatError` naming ``repro simulate``,
    which writes particle frames as sharded stores.

    This is the dataset-first public entry point: the object it
    returns goes straight into ``partition(...)`` / ``extract(...)``.
    """
    if isinstance(source, ParticleDataset):
        return source
    if isinstance(source, np.ndarray):
        return ArrayDataset(source, step=step)
    if isinstance(source, (str, Path)):
        path = Path(source)
        if is_store_dir(path):
            return ShardedStore.open(path)
        if not path.exists():
            raise FileNotFoundError(f"{path}: no such sharded store")
        raise FormatError(
            f"{path}: not a sharded store directory; particle frames are "
            "sharded stores, written by `repro simulate`"
        )
    raise TypeError(
        f"cannot open a dataset from {type(source).__name__}; expected an "
        "(N, 6) array or a store directory"
    )
