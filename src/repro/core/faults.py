"""Deterministic fault injection for every process/socket boundary.

The paper's remote-visualization argument assumes an unreliable
wide-area link, and its multi-node partitioning assumes nodes that can
die; this module makes those failure modes *reproducible* so the
resilience code in :mod:`repro.remote`, :mod:`repro.core.executor`,
and :mod:`repro.core.atomic` can be tested deterministically instead
of hoping a flaky network shows up in CI.

Everything is driven by a :class:`FaultPlan` -- a seeded set of
injection rates.  Each fault *kind* draws from its own
``random.Random`` stream keyed by ``(seed, kind)``, so adding or
removing one kind never perturbs the decision sequence of another and
a plan with the same seed injects the same faults in the same places
on every run.

Injectors and the seams they attack:

====================  ================================================
injector              seam
====================  ================================================
:class:`FaultySocket` wraps any socket (``VisualizationClient``
                      accepts a ``fault_plan``)
                      and corrupts, truncates, delays, or drops the
                      byte stream
:class:`CrashOnce`    picklable shard-function wrapper that hard-exits
                      (``os._exit``) the first worker process to run
                      it -- a ``ProcessPoolExecutor`` node loss
:class:`CrashAlways`  same, but every worker execution dies; forces
                      the executor's serial fallback
:meth:`FaultPlan.file_faults`  installs the :mod:`repro.core.atomic`
                      pre-replace hook, killing writes between the
                      temp write and the rename
====================  ================================================

Every injected event bumps a ``faults_injected_<kind>`` counter on the
global tracer, so a ``--trace`` document records the fault load a run
survived alongside the retries/fallbacks it triggered.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field

from repro.core import atomic
from repro.core.errors import SimulatedCrash
from repro.core.trace import count

__all__ = ["FaultPlan", "FaultySocket", "CrashOnce", "CrashAlways"]


@dataclass
class FaultPlan:
    """Seeded injection rates; the single knob of the fault harness.

    Rates are per *opportunity* (one socket op, one atomic write), in
    ``[0, 1]``.  ``injected`` tallies what actually fired.
    """

    seed: int = 0
    corrupt: float = 0.0        # flip one byte in a received chunk
    truncate: float = 0.0       # deliver a prefix of a chunk, then drop
    drop: float = 0.0           # close the connection mid-stream
    latency: float = 0.0        # delay a receive by ``latency_s``
    latency_s: float = 0.005
    torn_write: float = 0.0     # kill an atomic write before its rename
    injected: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._rngs: dict[str, random.Random] = {}

    # ------------------------------------------------------------------
    def rng(self, kind: str) -> random.Random:
        """The per-kind deterministic stream (created on first use)."""
        stream = self._rngs.get(kind)
        if stream is None:
            stream = self._rngs[kind] = random.Random(f"{self.seed}:{kind}")
        return stream

    def fire(self, kind: str, rate: float) -> bool:
        """Decide one injection opportunity; records what fired."""
        if rate <= 0.0:
            return False
        if self.rng(kind).random() >= rate:
            return False
        self.injected[kind] = self.injected.get(kind, 0) + 1
        count(f"faults_injected_{kind}")
        return True

    # ------------------------------------------------------------------
    # socket faults
    def wrap_socket(self, sock) -> "FaultySocket":
        """Wrap a connected socket with this plan's stream faults."""
        return FaultySocket(sock, self)

    def corrupt_bytes(self, data: bytes) -> bytes:
        """Flip one byte of ``data`` at a seeded position."""
        i = self.rng("corrupt_pos").randrange(len(data))
        return data[:i] + bytes([data[i] ^ 0xFF]) + data[i + 1 :]

    # ------------------------------------------------------------------
    # file faults
    @contextlib.contextmanager
    def file_faults(self):
        """Install the torn-write hook on :mod:`repro.core.atomic` for
        the duration of the block (kills writes pre-rename)."""
        def hook(path, data):
            if self.fire("torn_write", self.torn_write):
                raise SimulatedCrash(f"fault injection: killed while writing {path}")

        atomic.set_fault_hook(hook)
        try:
            yield self
        finally:
            atomic.set_fault_hook(None)


class FaultySocket:
    """A socket proxy that injects the plan's stream faults.

    Receive-side opportunities (per ``recv`` or ``recv_into`` call):
    latency, drop, corruption (one flipped byte), truncation (prefix
    delivered, link closed).  ``recv`` is ``recv_into`` on a fresh
    buffer, so both draw the same decisions in the same order.
    Send-side opportunities (per ``sendall``): drop.  All other
    attributes delegate to the wrapped socket, so the proxy can stand
    in anywhere a socket is used.
    """

    def __init__(self, sock, plan: FaultPlan):
        self._sock = sock
        self._plan = plan

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def recv(self, n: int) -> bytes:
        buf = bytearray(n)
        got = self.recv_into(buf, n)
        return bytes(buf[:got])

    def recv_into(self, buffer, nbytes: int = 0) -> int:
        plan = self._plan
        if plan.fire("latency", plan.latency):
            time.sleep(plan.latency_s)
        if plan.fire("drop", plan.drop):
            self._sock.close()
            raise ConnectionResetError("fault injection: link dropped")
        got = self._sock.recv_into(buffer, nbytes)
        if got and plan.fire("truncate", plan.truncate):
            keep = 1 + plan.rng("truncate_len").randrange(got)
            self._sock.close()
            return keep
        if got and plan.fire("corrupt", plan.corrupt):
            buffer[:got] = plan.corrupt_bytes(bytes(buffer[:got]))
        return got

    def sendall(self, data: bytes) -> None:
        plan = self._plan
        if plan.fire("drop", plan.drop):
            self._sock.close()
            raise ConnectionResetError("fault injection: link dropped")
        self._sock.sendall(data)


def _in_worker_process() -> bool:
    return multiprocessing.parent_process() is not None


class CrashOnce:
    """Picklable wrapper killing the first worker execution, once.

    The token file arbitrates exactly-once semantics across racing
    workers (exclusive create); the parent process (serial fallback)
    never crashes, so retried shards and fallbacks complete.  The hard
    ``os._exit`` -- no exception, no cleanup -- is what a kernel OOM
    kill or node loss looks like to a ``ProcessPoolExecutor``.
    """

    def __init__(self, fn, token, exit_code: int = 13):
        self.fn = fn
        self.token = str(token)
        self.exit_code = int(exit_code)

    def __call__(self, task):
        if _in_worker_process():
            try:
                fd = os.open(self.token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            else:
                os.close(fd)
                os._exit(self.exit_code)
        return self.fn(task)


class CrashAlways:
    """Picklable wrapper killing *every* worker execution (parent-side
    calls still succeed) -- forces the executor's serial fallback."""

    def __init__(self, fn, exit_code: int = 13):
        self.fn = fn
        self.exit_code = int(exit_code)

    def __call__(self, task):
        if _in_worker_process():
            os._exit(self.exit_code)
        return self.fn(task)
