"""The desktop-side visualization client.

Requests hybrid extractions from a
:class:`~repro.remote.service.VisualizationService`,
timing each transfer and accounting bytes -- the measurements behind
the paper's claim that compact hybrid frames make remote exploration
practical ("quickly transferring over a network", section 2.3).

The link is treated as unreliable: every request runs under a socket
timeout inside a bounded retry loop with *decorrelated-jitter*
backoff, and any transport or protocol failure (dropped connection,
corrupted frame, timeout) transparently reconnects before the next
attempt.  The jitter draws each delay from a per-client seeded RNG
stream, ``uniform(base, 3 * previous)`` capped at ``backoff_max`` --
so a fleet of clients knocked back by the same incident retries
spread out in time instead of stampeding in lockstep, while a fixed
``jitter_seed`` keeps every delay sequence reproducible for the
seeded fault tests.  A typed BUSY reply (the multi-tenant service
shedding load) is also retried, sleeping at least the server's
retry-after hint.  Only an application-level server ERROR aborts
immediately -- the request arrived intact, so retrying cannot help.
When every attempt fails a
:class:`~repro.core.errors.RetryExhaustedError` carries the last
underlying error.

Graceful degradation mirrors the paper's view-time quality/latency
trade: with ``degrade_below_bps`` set, a measured throughput below the
threshold halves the *requested* volume resolution (never below
``min_resolution``), so a congested link keeps delivering frames --
coarser ones -- instead of stalling.  The estimate is *windowed*
(the last ``throughput_window`` transfers, not the lifetime average),
the downshift factor is capped exactly at the ``min_resolution``
clamp, and a hysteresis-guarded upshift walks the resolution back up
once the link stays healthy -- so a transient stall costs a few coarse
frames, not the rest of the session.

For links where even degradation is not enough -- or where the user
wants a picture *now* and quality later -- :meth:`iter_hybrid` speaks
the progressive LOD protocol: a coarse frame in one round-trip, then
refinements in screen-space-error priority order, every yielded frame
a valid :class:`HybridFrame` and the final one bit-identical to
:meth:`get_hybrid`'s.
"""

from __future__ import annotations

import collections
import random
import socket
import time

import numpy as np

from repro.core.errors import (
    ProtocolError,
    RemoteError,
    RetryExhaustedError,
    ServiceBusyError,
)
from repro.core.trace import count, span
from repro.hybrid.representation import HybridFrame
from repro.remote import protocol
from repro.remote.protocol import Message, MessageType

__all__ = ["VisualizationClient", "decorrelated_jitter"]


def decorrelated_jitter(
    rng: random.Random, base: float, cap: float, previous: float
) -> float:
    """One step of decorrelated-jitter backoff.

    ``uniform(base, 3 * previous)`` capped at ``cap`` -- each client's
    delays random-walk away from the base instead of doubling in
    lockstep, so synchronized fleets spread their retries out.  Fully
    deterministic for a seeded ``rng``.
    """
    return min(cap, rng.uniform(base, max(previous * 3.0, base)))


class VisualizationClient:
    """Connects to a server and fetches hybrid frames.

    Parameters
    ----------
    address : (host, port) of a :class:`VisualizationService`
    timeout : per-socket-operation timeout in seconds
    retries : extra attempts per request after the first
    backoff, backoff_max : base and cap of the decorrelated-jitter
        backoff delays between attempts
    jitter_seed : seed of the per-client jitter stream; the default 0
        is deterministic -- give fleet members distinct seeds so their
        retries decorrelate
    degrade_below_bps : measured-throughput floor that triggers a
        resolution downshift (``None`` disables degradation)
    min_resolution : downshift floor for the volume resolution
    throughput_window : transfers in the sliding throughput estimate
        the degradation policy reads (the lifetime average never
        recovers after an incident; the window does)
    upshift_after : consecutive healthy frames (windowed throughput at
        least ``2 * degrade_below_bps``) before one upshift step -- the
        hysteresis guard that keeps the resolution from flapping when
        the link hovers near the threshold
    fault_plan : optional :class:`repro.core.faults.FaultPlan` wrapping
        the socket with injected stream faults (testing only)
    """

    def __init__(
        self,
        address,
        timeout: float = 30.0,
        retries: int = 3,
        backoff: float = 0.05,
        backoff_max: float = 2.0,
        jitter_seed: int = 0,
        degrade_below_bps: float | None = None,
        min_resolution: int = 8,
        throughput_window: int = 8,
        upshift_after: int = 3,
        fault_plan=None,
    ):
        self.address = address
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.backoff_max = float(backoff_max)
        self.degrade_below_bps = degrade_below_bps
        self.min_resolution = int(min_resolution)
        self.throughput_window = max(int(throughput_window), 1)
        self.upshift_after = max(int(upshift_after), 1)
        self._fault_plan = fault_plan
        self._rng = random.Random(jitter_seed)
        self._degrade_factor = 1
        self._good_streak = 0
        self._samples: collections.deque = collections.deque(
            maxlen=self.throughput_window
        )
        self._next_stream_id = 0
        self.stats = {
            "bytes_received": 0,
            "frames": 0,
            "seconds": 0.0,
            "errors": 0,
            "retries": 0,
            "reconnects": 0,
            "degradations": 0,
            "upshifts": 0,
            "busy": 0,
            "refinements": 0,
            "streams": 0,
        }
        self.sock = None
        self._connect()

    # ------------------------------------------------------------------
    def _connect(self) -> None:
        sock = socket.create_connection(self.address, timeout=self.timeout)
        sock.settimeout(self.timeout)
        if self._fault_plan is not None:
            sock = self._fault_plan.wrap_socket(sock)
        self.sock = sock

    def _bump(self, key: str, inc: int = 1) -> None:
        """Count one event: ``stats[key]`` and the ``remote_<key>``
        trace counter move together."""
        self.stats[key] += inc
        count(f"remote_{key}", inc)

    def _reconnect(self) -> None:
        self.close()
        self._connect()
        self._bump("reconnects")

    def close(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass

    def __enter__(self) -> "VisualizationClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _request(self, message: Message, expected: MessageType) -> Message:
        """One request/reply under the retry policy.

        Bytes and seconds are accounted as soon as a full reply frame
        arrives -- *before* any payload decode -- so a decode failure
        cannot silently skew :meth:`throughput_bps`.

        Transport/protocol failures reconnect before the next attempt;
        a BUSY reply (load shedding) retries on the live connection
        after sleeping at least the server's retry-after hint.
        """
        delay = self.backoff
        last: Exception | None = None
        reconnect = False
        for attempt in range(self.retries + 1):
            if attempt:
                self._bump("retries")
                time.sleep(delay)
                delay = decorrelated_jitter(
                    self._rng, self.backoff, self.backoff_max, delay
                )
                if reconnect:
                    try:
                        self._reconnect()
                    except OSError as exc:
                        self._bump("errors")
                        last = exc
                        continue
                    reconnect = False
            try:
                t0 = time.perf_counter()
                protocol.send_message(self.sock, message)
                reply = protocol.recv_message(self.sock)
            except (ProtocolError, OSError) as exc:
                self._bump("errors")
                last = exc
                reconnect = True
                continue
            elapsed = time.perf_counter() - t0
            self._bump("bytes_received", len(reply.payload))
            self.stats["seconds"] += elapsed
            self._samples.append((len(reply.payload), elapsed))
            if reply.type == MessageType.BUSY:
                retry_after, reason = protocol.decode_busy(reply.payload)
                self._bump("busy")
                last = ServiceBusyError(
                    reason or "service busy", retry_after=retry_after
                )
                delay = max(delay, retry_after)
                continue
            if reply.type == MessageType.ERROR:
                self._bump("errors")
                raise RemoteError(f"server error: {reply.payload.decode()}")
            if reply.type != expected:
                self._bump("errors")
                raise RemoteError(f"expected {expected}, got {reply.type}")
            return reply
        raise RetryExhaustedError(
            f"{expected.name} request failed after {self.retries + 1} "
            f"attempt(s): {last}"
        ) from last

    # ------------------------------------------------------------------
    def list_frames(self):
        """Step indices of the frames the server holds."""
        reply = self._request(Message(MessageType.LIST_FRAMES), MessageType.FRAME_LIST)
        return protocol.decode_frame_list(reply.payload)

    def get_stats(self) -> dict:
        """The server's live stats document (counters, cache hit rate,
        p50/p99 service times on the multi-tenant service)."""
        reply = self._request(Message(MessageType.GET_STATS), MessageType.STATS)
        return protocol.decode_stats(reply.payload)

    def effective_resolution(self, resolution: int) -> int:
        """The resolution a request would use after degradation."""
        return max(int(resolution) // self._degrade_factor, self.min_resolution)

    def _degrade_cap(self, resolution: int) -> int:
        """Largest useful downshift factor: one more halving would take
        ``resolution`` below ``min_resolution``, which the clamp would
        undo anyway -- growing the factor past this point only delays
        recovery (the old one-way-ratchet bug)."""
        cap = 1
        while int(resolution) // (cap * 2) >= self.min_resolution:
            cap *= 2
        return cap

    def _maybe_degrade(self, resolution: int) -> None:
        """One step of the degradation control loop.

        Reads the *windowed* throughput (the lifetime average can stay
        below the threshold forever after one bad stretch, firing a
        downshift every frame); downshifts are capped at the
        ``min_resolution`` clamp; and a healed link upshifts back --
        but only after ``upshift_after`` consecutive frames measured at
        2x the threshold, so a link hovering at the boundary settles
        instead of flapping (classic hysteresis band).
        """
        if self.degrade_below_bps is None or self.stats["frames"] == 0:
            return
        bps = self.windowed_throughput_bps()
        if bps < self.degrade_below_bps:
            self._good_streak = 0
            cap = self._degrade_cap(resolution)
            if self._degrade_factor < cap:
                self._degrade_factor = min(self._degrade_factor * 2, cap)
                self._bump("degradations")
        elif bps >= 2.0 * self.degrade_below_bps:
            self._good_streak += 1
            if self._good_streak >= self.upshift_after and self._degrade_factor > 1:
                self._degrade_factor //= 2
                self._good_streak = 0
                self._bump("upshifts")
        else:
            # inside the hysteresis band: hold the current quality
            self._good_streak = 0

    def get_hybrid(
        self, frame_index: int, threshold: float, resolution: int = 64
    ) -> HybridFrame:
        """Request one extraction; timing lands in ``stats``.

        The requested resolution may be downshifted by the degradation
        policy; the frame actually received tells the caller what it
        got (``frame.resolution``).
        """
        self._maybe_degrade(resolution)
        resolution = self.effective_resolution(resolution)
        with span("remote_fetch", frame=frame_index, resolution=resolution):
            reply = self._request(
                Message(
                    MessageType.GET_HYBRID,
                    protocol.encode_get_hybrid(frame_index, threshold, resolution),
                ),
                MessageType.HYBRID_FRAME,
            )
        try:
            frame = protocol.decode_hybrid(reply.payload)
        except Exception:
            self._bump("errors")
            raise
        self._bump("frames")
        return frame

    # ------------------------------------------------------------------
    # progressive LOD streaming
    # ------------------------------------------------------------------
    def iter_hybrid(
        self,
        frame_index: int,
        threshold: float,
        resolution: int = 64,
        eye=None,
        max_refinements: int | None = None,
    ):
        """Progressively stream one extraction as refining frames.

        Speaks the pull-based LOD protocol: the first round-trip
        returns a coarse but *valid* :class:`HybridFrame` (the
        coarsest stored subsample of the halo plus a mip-resampled
        volume), and each further round-trip takes in one refinement
        unit, served by the server in screen-space-error priority
        order against ``eye`` (``None``: the frame's box center).

        Every yielded frame is valid and monotonically more complete.
        Until the stream is complete its points are the units received
        so far in arrival order, the base sample first as the wire
        carries it, so each yield's points are a prefix of the next
        yield's; the frames are read-only views of one buffer per
        stream, which only grows past them.  Once every row and the
        exact volume have arrived the frame is put in row order, and
        when the stream runs to completion the **last yielded frame is
        bit-identical to** :meth:`get_hybrid`'s for the same request.
        ``max_refinements`` stops early after that many units (the
        caller keeps the best frame so far).  A stream not run to DONE
        -- stopped early, or left by the caller -- keeps its slot on
        the server until the session ends or the session opens more
        than ``max_streams`` streams, which evicts the least recently
        pulled one; a later pull on an evicted stream raises
        :class:`~repro.core.errors.RemoteError`.

        The degradation policy does not apply here: ordering quality
        over time is this path's whole job, so the requested
        resolution is never downshifted.  Point attributes are not
        carried on progressive streams.

        Raises :class:`~repro.core.errors.RemoteError` if the server
        ends the stream before full coverage (premature DONE), and
        :class:`~repro.core.errors.ProtocolError` for a unit whose rows
        leave the halo ``[0, n_total)``, were received before, or
        repeat inside the unit.
        """
        stream_id = self._next_stream_id
        self._next_stream_id += 1
        self._bump("streams")

        def pull():
            reply = self._request(
                Message(
                    MessageType.REFINE,
                    protocol.encode_refine(
                        stream_id, frame_index, threshold, resolution, eye
                    ),
                ),
                MessageType.LOD_FRAME,
            )
            try:
                return protocol.decode_lod_frame(reply.payload)
            except ProtocolError:
                self._bump("errors")
                raise

        with span("remote_stream_open", frame=frame_index, resolution=resolution):
            _, kind, _, _, payload = pull()
            if kind != protocol.LodKind.BASE:
                raise RemoteError(f"expected BASE stream unit, got {kind.name}")
            base, rows, n_total = protocol.decode_lod_base(payload)
        # the first image is the base frame as decoded: no n_total
        # buffer is touched before it
        self._bump("frames")
        yield base
        # base and deltas tile the halo rows [0, n_total) exactly once:
        # each unit is appended in arrival order, and where[row] is the
        # row's arrival position (-1 until it arrives)
        volume = base.volume
        points = np.empty((n_total, 3), dtype=np.float32)
        densities = np.empty(n_total, dtype=np.float32)
        where = np.full(n_total, -1, dtype=np.int64)
        n_received = 0
        have_exact_volume = False

        def append(rows, pts, dens) -> None:
            nonlocal n_received
            k, u = n_received, len(rows)
            problem = None
            if u and (rows.min() < 0 or rows.max() >= n_total):
                problem = f"a row outside [0, {n_total})"
            elif (where[rows] >= 0).any():
                problem = "a row already received"
            else:
                slots = np.arange(k, k + u)
                where[rows] = slots
                if (where[rows] != slots).any():
                    problem = "a row twice"
            if problem is not None:
                self._bump("errors")
                raise ProtocolError(f"stream {stream_id}: a unit carries {problem}")
            points[k : k + u] = pts
            densities[k : k + u] = dens
            n_received = k + u

        def assembled() -> HybridFrame:
            if n_received == n_total and have_exact_volume:
                # complete: the halo rows in file order, as get_hybrid sends them
                return HybridFrame(
                    volume=volume,
                    points=points.take(where, axis=0),
                    point_densities=densities.take(where),
                    lo=base.lo,
                    hi=base.hi,
                    threshold=base.threshold,
                    step=base.step,
                    plot_type=base.plot_type,
                )
            return HybridFrame._over_prefix(
                base, volume, points[:n_received], densities[:n_received]
            )

        append(rows, base.points, base.point_densities)
        served = 0
        while max_refinements is None or served < max_refinements:
            with span("remote_stream_unit", frame=frame_index, resolution=resolution):
                _, kind, _, _, payload = pull()
                if kind == protocol.LodKind.DONE:
                    if n_received != n_total or not have_exact_volume:
                        raise RemoteError(
                            f"stream ended after {n_received}/{n_total} points "
                            f"(exact volume: {have_exact_volume})"
                        )
                    return
                if kind == protocol.LodKind.POINTS:
                    append(*protocol.decode_lod_points(payload))
                elif kind == protocol.LodKind.VOLUME:
                    volume = protocol.decode_lod_volume(payload)
                    have_exact_volume = True
                else:
                    raise RemoteError(f"unexpected stream unit {kind.name}")
                self._bump("refinements")
                served += 1
                frame = assembled()
            yield frame

    def throughput_bps(self) -> float:
        """Mean received throughput over all requests so far."""
        if self.stats["seconds"] <= 0:
            return 0.0
        return self.stats["bytes_received"] / self.stats["seconds"]

    def windowed_throughput_bps(self) -> float:
        """Throughput over the last ``throughput_window`` transfers.

        This is what the degradation policy reads: unlike the lifetime
        average, it forgets an incident once the window rolls past it,
        so a healed link measures healthy again.
        """
        if not self._samples:
            return 0.0
        nbytes = sum(b for b, _ in self._samples)
        seconds = sum(s for _, s in self._samples)
        if seconds <= 0:
            return 0.0
        return nbytes / seconds
