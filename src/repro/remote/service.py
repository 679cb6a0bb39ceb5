"""The multi-tenant asyncio visualization service.

The paper's remote argument -- data stays where it was generated, many
analysts pull compact hybrid extractions over the wire -- only holds in
production if one server survives many concurrent, partly misbehaving
clients.  :class:`VisualizationService` is the data-side server: it
speaks wire protocol v2 and is designed for thousands of sessions on
one event loop (the Szalay/Springel/Lemson shape -- one shared server streaming to
many interactive clients from shared precomputed structures).

Load-sharing and resilience machinery, in request order:

- **Admission control**: at most ``max_sessions`` concurrent
  connections; arrivals beyond that receive a typed BUSY reply (with a
  retry-after hint the client's backoff honors) and are closed.
- **Per-session backpressure**: each session's pipelined requests land
  in a bounded queue (``queue_depth``); when it is full the reader
  sheds the overflow with BUSY instead of buffering without bound.
- **Fairness**: each session processes its queue sequentially, so a
  session holds at most one extraction slot at a time, and the global
  extraction semaphore wakes waiters FIFO -- first-come round-robin
  across sessions; no client can monopolize the extraction pool.
- **Coalescing result cache**: results are keyed by
  ``(frame, threshold, resolution)`` exactly like the render-side
  ``frame_cache``; identical requests hit a byte-bounded LRU of
  replies framed for the wire (header and CRC computed once, on
  insert), and a stampede on a cold key coalesces onto one in-flight
  extraction (one unit of work, N sends).
- **Deadlines and cancellation**: a session must deliver each framed
  message within ``session_timeout`` (slowloris defense -- partial
  headers don't hold a connection open) and each request must complete
  -- including the reply write, so a client that stops reading cannot
  park a worker -- within ``request_timeout``; a disconnect cancels the
  session's in-flight work (shared coalesced extractions continue for
  their other waiters).
- **Circuit breaker**: a frame whose extraction fails
  ``breaker_threshold`` consecutive times is quarantined for
  ``breaker_cooldown`` seconds (requests answered with an immediate
  ERROR, no work); after the cooldown one probe is allowed through.
- **Authenticated shutdown**: SHUTDOWN is honored only when its
  payload carries the server-generated ``shutdown_token``; a hostile
  client's SHUTDOWN gets an ERROR reply and the service lives on.
- **Observability**: every event lands in ``stats`` (and mirrors to
  :mod:`repro.core.trace` counters), served live over the wire as a
  STATS reply with p50/p99 service times -- ``repro service stats``
  renders it.

The service runs its event loop on a daemon thread behind a blocking
``start()/stop()``/context-manager lifecycle, so tests, benches and
the CLI drive it like any synchronous server.
"""

from __future__ import annotations

import asyncio
import collections
import secrets
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.errors import ProtocolError, TruncatedMessageError
from repro.core.metrics import percentile
from repro.core.trace import count, span
from repro.hybrid.representation import HybridFrame
from repro.octree.extraction import density_volume, extract
from repro.remote import protocol
from repro.remote.protocol import LodKind, Message, MessageType

__all__ = ["VisualizationService", "ResultCache", "CircuitBreaker"]


class ResultCache:
    """Byte-bounded LRU of encoded replies.

    Keys are ``(frame_index, threshold, resolution)`` -- the same
    "identical inputs => identical bytes" shape as the render-side
    frame-geometry cache.  Their values are whole HYBRID_FRAME
    messages, framed once by :func:`~repro.remote.protocol.frame_message`
    (header, CRC32 and payload), so a hit costs one dict lookup and
    one write of the stored bytes.  ``("lod_base", ...)`` and
    ``("lod_volume", frame, resolution)`` keys hold LOD BASE and
    VOLUME unit payloads, which every send wraps in its own stream's
    LOD_FRAME header.  The byte bound counts every stored
    byte.
    """

    def __init__(self, max_bytes: int = 64 << 20):
        self.max_bytes = int(max_bytes)
        self._entries: collections.OrderedDict[tuple, bytes] = collections.OrderedDict()
        self.nbytes = 0
        self.rejected = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key) -> bytes | None:
        """Return the cached payload and mark it most-recently used."""
        payload = self._entries.get(key)
        if payload is not None:
            self._entries.move_to_end(key)
        return payload

    def put(self, key, payload: bytes) -> bool:
        """Insert a payload, evicting LRU entries past the byte bound.

        A payload larger than ``max_bytes`` is refused outright
        (``rejected`` counts them): under the old ``len > 1`` eviction
        guard such a payload evicted everything else and then sat
        pinned forever, permanently violating the byte bound.  The
        invariant ``nbytes <= max_bytes`` holds after every put.
        Returns whether the payload was cached.
        """
        if len(payload) > self.max_bytes:
            self.rejected += 1
            old = self._entries.pop(key, None)
            if old is not None:
                self.nbytes -= len(old)
            return False
        old = self._entries.pop(key, None)
        if old is not None:
            self.nbytes -= len(old)
        self._entries[key] = payload
        self.nbytes += len(payload)
        while self.nbytes > self.max_bytes:
            _, evicted = self._entries.popitem(last=False)
            self.nbytes -= len(evicted)
        return True


class CircuitBreaker:
    """Quarantines keys whose work repeatedly fails.

    ``threshold`` consecutive failures open the circuit for ``cooldown``
    seconds: :meth:`allow` answers False (callers reply with an
    immediate error, attempting no work).  After the cooldown one probe
    is allowed through; its success closes the circuit, its failure
    re-opens it for another cooldown.

    State is bounded: every key that is neither quarantined nor
    mid-streak is pruned once it goes stale (no failure for a full
    cooldown, or quarantine expired a full cooldown ago with no probe
    arriving).  A long-lived service keyed on unbounded request
    parameters no longer accumulates one dict entry per key it has
    ever seen.
    """

    _PRUNE_EVERY = 256

    def __init__(self, threshold: int = 3, cooldown: float = 30.0):
        self.threshold = int(threshold)
        self.cooldown = float(cooldown)
        self._failures: dict = {}      # key -> (streak, last failure time)
        self._open_until: dict = {}
        self._op_count = 0

    def __len__(self) -> int:
        """Tracked keys (the quantity the prune bounds)."""
        return len(self._failures.keys() | self._open_until.keys())

    def _maybe_prune(self, now: float) -> None:
        self._op_count += 1
        if self._op_count % self._PRUNE_EVERY == 0:
            self.prune(now)

    def prune(self, now: float | None = None) -> None:
        """Drop stale entries: sub-threshold streaks whose last failure
        is older than a cooldown (consecutive-failure evidence that old
        says nothing about the present), and quarantines that expired a
        full cooldown ago without any probe re-arming them."""
        now = time.monotonic() if now is None else now
        self._open_until = {
            k: t for k, t in self._open_until.items() if now < t + self.cooldown
        }
        self._failures = {
            k: (streak, last)
            for k, (streak, last) in self._failures.items()
            if now - last < self.cooldown or k in self._open_until
        }

    def allow(self, key, now: float | None = None) -> bool:
        """May work on ``key`` be attempted right now?"""
        now = time.monotonic() if now is None else now
        self._maybe_prune(now)
        open_until = self._open_until.get(key)
        if open_until is None:
            return True
        if now >= open_until:
            # half-open: one probe may go through; re-arm so concurrent
            # probes during its flight stay quarantined
            self._open_until[key] = now + self.cooldown
            return True
        return False

    def record_success(self, key) -> None:
        """A unit of work on ``key`` completed; close the circuit."""
        self._failures.pop(key, None)
        self._open_until.pop(key, None)

    def record_failure(self, key, now: float | None = None) -> int:
        """A unit of work on ``key`` failed; returns the failure streak."""
        now = time.monotonic() if now is None else now
        self._maybe_prune(now)
        streak = self._failures.get(key, (0, now))[0] + 1
        self._failures[key] = (streak, now)
        if streak >= self.threshold:
            self._open_until[key] = now + self.cooldown
        return streak

    def is_open(self, key, now: float | None = None) -> bool:
        """Is ``key`` currently quarantined?"""
        now = time.monotonic() if now is None else now
        open_until = self._open_until.get(key)
        return open_until is not None and now < open_until


class _Session:
    """Per-connection state: bounded request queue + write lock."""

    __slots__ = ("sid", "reader", "writer", "queue", "write_lock", "worker",
                 "active", "streams", "evicted")

    def __init__(self, sid: int, reader, writer, depth: int):
        self.sid = sid
        self.reader = reader
        self.writer = writer
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=depth)
        self.write_lock = asyncio.Lock()
        self.worker: asyncio.Task | None = None
        self.active = False  # True while the worker is serving a request
        # open streams, least recently pulled first, and the ids of the
        # last evicted ones (at most max_streams), whose next pull is refused
        self.streams: dict[int, _RefineStream] = {}
        self.evicted: dict[int, None] = {}


class _RefineStream:
    """One progressive refinement stream's schedule and position.

    Created on the first REFINE of a ``stream_id``; each further pull
    serves ``units[pos]`` and advances.  The schedule is computed once
    (screen-space-error order against the stream's eye) so it is
    deterministic for the whole stream's life, and the per-session
    dict holding these dies with the session -- a disconnect cannot
    leak stream state.
    """

    __slots__ = ("index", "threshold", "resolution", "eye", "n_nodes",
                 "n_total", "units", "pos")

    def __init__(self, index, threshold, resolution, eye, n_nodes, n_total, units):
        self.index = int(index)
        self.threshold = float(threshold)
        self.resolution = int(resolution)
        self.eye = eye
        self.n_nodes = int(n_nodes)
        self.n_total = int(n_total)
        self.units = units
        self.pos = 0

    @property
    def total(self) -> int:
        return len(self.units)


class VisualizationService:
    """Asyncio multi-tenant hybrid-extraction service (protocol v2).

    Parameters
    ----------
    frames : list of PartitionedFrame (the partitioned store)
    host, port : bind address; port 0 picks a free port (see
        ``address`` after ``start()``)
    max_sessions : admission-control ceiling on concurrent sessions;
        arrivals past it are shed with BUSY
    queue_depth : bounded per-session request queue; pipelined requests
        past it are shed with BUSY
    max_concurrent_extractions : global extraction semaphore (FIFO, so
        sessions are served round-robin under contention)
    cache_bytes : byte bound of the shared encoded-result LRU
    session_timeout : seconds a session may take to deliver one framed
        message (slowloris defense) or sit idle between requests
    request_timeout : per-request deadline covering queue wait,
        extraction, and the reply write
    drain_timeout : seconds ``stop()`` waits for in-flight sessions
        before cancelling them
    breaker_threshold, breaker_cooldown : consecutive-failure count
        that quarantines a frame, and for how long
    shed_retry_after : retry-after hint (seconds) carried by BUSY
    bandwidth_bps : optional outgoing throttle emulating a slow link
    extract_fn : extraction callable (testing seam; defaults to
        :func:`repro.octree.extraction.extract`)
    max_streams : progressive streams a session keeps open; opening one
        more evicts the session's least recently pulled stream, whose
        next pull is answered with an ERROR
    """

    def __init__(
        self,
        frames,
        host: str = "127.0.0.1",
        port: int = 0,
        max_sessions: int = 1024,
        queue_depth: int = 8,
        max_concurrent_extractions: int = 2,
        cache_bytes: int = 64 << 20,
        session_timeout: float = 30.0,
        request_timeout: float = 30.0,
        drain_timeout: float = 5.0,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        shed_retry_after: float = 0.05,
        bandwidth_bps: float | None = None,
        extract_fn=None,
        max_streams: int = 8,
        unit_points: int = 8192,
    ):
        self.frames = list(frames)
        self._host, self._port = host, port
        self.max_sessions = int(max_sessions)
        self.queue_depth = int(queue_depth)
        self.session_timeout = float(session_timeout)
        self.request_timeout = float(request_timeout)
        self.drain_timeout = float(drain_timeout)
        self.shed_retry_after = float(shed_retry_after)
        self.bandwidth_bps = bandwidth_bps
        self._extract_fn = extract_fn or self._default_extract
        self.max_streams = max(int(max_streams), 1)
        self.unit_points = int(unit_points)
        self.shutdown_token = secrets.token_bytes(16)

        self.cache = ResultCache(cache_bytes)
        self.breaker = CircuitBreaker(breaker_threshold, breaker_cooldown)
        self._inflight: dict = {}
        self._extract_sem: asyncio.Semaphore | None = None
        self._sessions: dict[int, _Session] = {}
        self._next_sid = 0
        self._pool = ThreadPoolExecutor(
            max_workers=max(int(max_concurrent_extractions), 1),
            thread_name_prefix="repro-extract",
        )
        self._max_concurrent = max(int(max_concurrent_extractions), 1)

        self.address: tuple | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._stop_event: asyncio.Event | None = None
        self._ready = threading.Event()
        self._stopped = False
        self._t_started = time.monotonic()
        self._latencies: collections.deque = collections.deque(maxlen=4096)
        self.stats = {
            "sessions_total": 0,
            "sessions_shed": 0,
            "requests": 0,
            "served": 0,
            "shed_requests": 0,
            "extractions": 0,
            "extraction_errors": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "coalesced": 0,
            "quarantined": 0,
            "timeouts": 0,
            "protocol_errors": 0,
            "handler_errors": 0,
            "unauthorized_shutdowns": 0,
            "bytes_sent": 0,
            "streams": 0,
            "streams_evicted": 0,
            "refinements": 0,
        }

    @staticmethod
    def _default_extract(frame, threshold, resolution):
        return extract(frame, threshold, volume_resolution=resolution)

    def _bump(self, key: str, inc: int = 1) -> None:
        """Count one event: ``stats[key]`` and the ``service_<key>``
        trace counter move together."""
        self.stats[key] += inc
        count(f"service_{key}", inc)

    # ------------------------------------------------------------------
    # lifecycle (thread-hosted event loop behind a blocking API)
    # ------------------------------------------------------------------
    def start(self) -> "VisualizationService":
        """Start the event-loop thread; returns once the port is bound."""
        self._thread = threading.Thread(target=self._run_loop, daemon=True)
        self._thread.start()
        self._ready.wait()
        if self.address is None:
            raise OSError(f"service failed to bind {self._host}:{self._port}")
        return self

    def stop(self) -> None:
        """Drain and stop; idempotent and thread-safe."""
        if self._stopped:
            return
        self._stopped = True
        loop = self._loop
        if loop is not None and self._stop_event is not None:
            try:
                loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=self.drain_timeout + 10.0)
        self._pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "VisualizationService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def n_sessions(self) -> int:
        """Sessions currently connected."""
        return len(self._sessions)

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            try:
                loop.run_until_complete(self._main())
            except OSError:
                pass  # bind failure: start() raises, with address still None
        finally:
            try:
                # reap cancelled session workers before the loop closes,
                # as asyncio.run does, so none is finalized on a dead loop
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                asyncio.set_event_loop(None)
                loop.close()
            self._ready.set()  # unblock start() if binding failed

    async def _main(self) -> None:
        self._stop_event = asyncio.Event()
        self._extract_sem = asyncio.Semaphore(self._max_concurrent)
        try:
            server = await asyncio.start_server(
                self._on_connect, self._host, self._port
            )
        except OSError:
            self._ready.set()
            raise
        self.address = server.sockets[0].getsockname()
        self._t_started = time.monotonic()
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            await server.wait_closed()
            await self._drain()

    async def _drain(self) -> None:
        """Let in-flight requests finish, then disconnect every session.

        Idle sessions (no queued or active request) are closed
        immediately; sessions mid-request get up to ``drain_timeout``
        to complete before being cancelled.
        """
        deadline = time.monotonic() + self.drain_timeout
        while time.monotonic() < deadline and any(
            s.active or s.queue.qsize() for s in self._sessions.values()
        ):
            await asyncio.sleep(0.01)
        for session in list(self._sessions.values()):
            if session.worker is not None:
                session.worker.cancel()
            session.writer.close()
        # readers see EOF on their closed transports and unwind; give
        # them a bounded moment so no task outlives the loop
        hard = time.monotonic() + 1.0
        while self._sessions and time.monotonic() < hard:
            await asyncio.sleep(0.01)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _on_connect(self, reader, writer) -> None:
        if self._stop_event is None or self._stop_event.is_set():
            writer.close()
            return
        if len(self._sessions) >= self.max_sessions:
            self._bump("sessions_shed")
            try:
                await asyncio.wait_for(
                    protocol.send_message_async(
                        writer,
                        Message(
                            MessageType.BUSY,
                            protocol.encode_busy(
                                self.shed_retry_after, "session limit reached"
                            ),
                        ),
                    ),
                    timeout=self.session_timeout,
                )
            except (OSError, asyncio.TimeoutError):
                pass
            writer.close()
            return
        self._next_sid += 1
        session = _Session(self._next_sid, reader, writer, self.queue_depth)
        self._sessions[session.sid] = session
        self._bump("sessions_total")
        session.worker = asyncio.ensure_future(self._session_worker(session))
        try:
            await self._session_reader(session)
        finally:
            # disconnect (or damage) cancels this session's queued work;
            # coalesced extractions keep running for their other waiters
            if session.worker is not None:
                session.worker.cancel()
            self._sessions.pop(session.sid, None)
            try:
                writer.close()
            except OSError:
                pass

    async def _session_reader(self, session: _Session) -> None:
        """Read framed requests into the bounded queue; shed overflow."""
        while not self._stop_event.is_set():
            try:
                msg = await asyncio.wait_for(
                    protocol.recv_message_async(session.reader),
                    timeout=self.session_timeout,
                )
            except asyncio.TimeoutError:
                # idle or slowloris: a message must arrive whole in time
                self._bump("timeouts")
                return
            except TruncatedMessageError:
                # the peer hung up (possibly mid-message): a disconnect,
                # not stream damage -- don't count it as a protocol error
                return
            except ProtocolError:
                self._bump("protocol_errors")
                return
            except (ConnectionError, OSError):
                return
            if msg.type == MessageType.SHUTDOWN:
                if msg.payload == self.shutdown_token:
                    self._stop_event.set()
                    return
                self._bump("unauthorized_shutdowns")
                await self._reply(
                    session,
                    Message(MessageType.ERROR, b"unauthorized shutdown ignored"),
                )
                continue
            self._bump("requests")
            try:
                session.queue.put_nowait((msg, time.perf_counter()))
            except asyncio.QueueFull:
                self._bump("shed_requests")
                await self._reply(
                    session,
                    Message(
                        MessageType.BUSY,
                        protocol.encode_busy(
                            self.shed_retry_after, "session queue full"
                        ),
                    ),
                )

    async def _session_worker(self, session: _Session) -> None:
        """Serve one session's queue sequentially (the fairness unit)."""
        while True:
            msg, t0 = await session.queue.get()
            session.active = True
            try:
                await asyncio.wait_for(
                    self._handle(session, msg), timeout=self.request_timeout
                )
                self._latencies.append(time.perf_counter() - t0)
            except asyncio.CancelledError:
                raise
            except asyncio.TimeoutError:
                # deadline covers the reply write too: a session that
                # stopped reading can't park this worker -- shed and move on
                self._bump("timeouts")
                try:
                    await asyncio.wait_for(
                        self._reply(
                            session,
                            Message(
                                MessageType.BUSY,
                                protocol.encode_busy(
                                    self.shed_retry_after, "request deadline exceeded"
                                ),
                            ),
                        ),
                        timeout=1.0,
                    )
                except (OSError, asyncio.TimeoutError, ConnectionError):
                    session.writer.close()
                    return
            except (ConnectionError, OSError):
                return
            except Exception:
                self._bump("handler_errors")
            finally:
                session.active = False

    async def _handle(self, session: _Session, msg: Message) -> None:
        # "served" is counted before the reply write, so by the time a
        # client holds a reply the ledger already reflects it (the
        # served + shed == requests invariant is externally observable)
        if msg.type == MessageType.LIST_FRAMES:
            payload = protocol.encode_frame_list(f.step for f in self.frames)
            self._bump("served")
            await self._reply(session, Message(MessageType.FRAME_LIST, payload))
        elif msg.type == MessageType.GET_HYBRID:
            try:
                index, threshold, resolution = protocol.decode_get_hybrid(msg.payload)
            except ProtocolError as exc:
                self._bump("protocol_errors")
                await self._reply(session, Message(MessageType.ERROR, str(exc).encode()))
                return
            if not 0 <= index < len(self.frames):
                await self._reply(
                    session,
                    Message(
                        MessageType.ERROR,
                        f"frame index {index} out of range".encode(),
                    ),
                )
                return
            try:
                data = await self._get_framed(index, threshold, resolution)
            except Exception as exc:
                await self._reply(
                    session, Message(MessageType.ERROR, str(exc).encode())
                )
                return
            self._bump("served")
            await self._send(session, data)
        elif msg.type == MessageType.REFINE:
            await self._handle_refine(session, msg)
        elif msg.type == MessageType.GET_STATS:
            self._bump("served")
            await self._reply(
                session,
                Message(MessageType.STATS, protocol.encode_stats(self.stats_snapshot())),
            )
        else:
            await self._reply(
                session,
                Message(MessageType.ERROR, f"unexpected {msg.type}".encode()),
            )

    # ------------------------------------------------------------------
    # progressive LOD refinement streams
    # ------------------------------------------------------------------
    async def _handle_refine(self, session: _Session, msg: Message) -> None:
        """One pull on a progressive stream: open it on first contact,
        then serve the next scheduled unit (or DONE)."""
        try:
            sid, index, threshold, resolution, eye = protocol.decode_refine(msg.payload)
        except ProtocolError as exc:
            self._bump("protocol_errors")
            await self._reply(session, Message(MessageType.ERROR, str(exc).encode()))
            return
        if not 0 <= index < len(self.frames):
            await self._reply(
                session,
                Message(MessageType.ERROR, f"frame index {index} out of range".encode()),
            )
            return
        streams = session.streams
        stream = streams.pop(sid, None)
        loop = asyncio.get_running_loop()
        try:
            if stream is None:
                if sid in session.evicted:
                    del session.evicted[sid]
                    await self._reply(
                        session,
                        Message(
                            MessageType.ERROR,
                            f"stream {sid} was evicted: session stream limit "
                            f"({self.max_streams}) reached".encode(),
                        ),
                    )
                    return
                stream = await loop.run_in_executor(
                    self._pool, self._open_stream, index, threshold, resolution, eye
                )
                self._bump("streams")
                if len(streams) >= self.max_streams:
                    # a stream not run to DONE is never pulled again by a
                    # caller that stopped early or left the loop
                    oldest = next(iter(streams))
                    del streams[oldest]
                    session.evicted[oldest] = None
                    if len(session.evicted) > self.max_streams:
                        del session.evicted[next(iter(session.evicted))]
                    self._bump("streams_evicted")
            if stream.pos >= stream.total:
                payload = protocol.encode_lod_frame(
                    sid, LodKind.DONE, stream.pos, stream.total
                )
            else:
                kind, unit_payload = await self._unit_payload(stream)
                payload = protocol.encode_lod_frame(
                    sid, kind, stream.pos, stream.total, unit_payload
                )
                stream.pos += 1
                self._bump("refinements")
                streams[sid] = stream  # now the most recently pulled
        except Exception as exc:
            self._bump("extraction_errors")
            await self._reply(session, Message(MessageType.ERROR, str(exc).encode()))
            return
        self._bump("served")
        await self._reply(session, Message(MessageType.LOD_FRAME, payload))

    def _open_stream(self, index, threshold, resolution, eye) -> _RefineStream:
        """Compute one stream's deterministic refinement schedule
        (runs in the extraction pool -- it touches the node table, and
        the first touch of ``frame.lod`` opens and checks the
        hierarchy, raising ``FormatError`` on a damaged or old one)."""
        frame = self.frames[index]
        lod = getattr(frame, "lod", None)
        if lod is None:
            raise ValueError(f"frame {index} has no LOD hierarchy (build_lod first)")
        n_below = int(
            np.searchsorted(frame.nodes["density"], float(threshold), side="left")
        )
        cutoff = int(frame.density_cutoff_index(float(threshold)))
        if eye is None:
            eye = tuple((np.asarray(frame.lo) + np.asarray(frame.hi)) / 2.0)
        # the exact volume is the store's own (read, not deposited,
        # once it exists), so it refines right after the base
        units = [("base",), ("volume",)] + [
            ("points", level, ids)
            for level, ids in lod.schedule(n_below, eye, self.unit_points)
        ]
        return _RefineStream(index, threshold, resolution, eye, n_below, cutoff, units)

    async def _unit_payload(self, stream: _RefineStream):
        """Build the wire payload of the stream's next unit."""
        loop = asyncio.get_running_loop()
        unit = stream.units[stream.pos]
        if unit[0] == "base":
            key = ("lod_base", stream.index, stream.threshold, stream.resolution)
            args = (stream.index, stream.threshold, stream.resolution,
                    stream.n_nodes, stream.n_total)
            payload, _ = await self._cached(key, self._build_base, *args)
            return LodKind.BASE, payload
        if unit[0] == "points":
            _, level, node_ids = unit
            payload = await loop.run_in_executor(
                self._pool, self._build_points, stream.index, level, node_ids
            )
            return LodKind.POINTS, payload
        key = ("lod_volume", stream.index, stream.resolution)
        payload, hit = await self._cached(
            key, self._build_volume, stream.index, stream.resolution
        )
        if hit:
            # a served unit all the same: its span and bytes, as a build counts them
            with span("service_lod_volume", frame=stream.index, resolution=stream.resolution):
                count("service_unit_bytes", len(payload))
        return LodKind.VOLUME, payload

    async def _cached(self, key, build, *args):
        """A unit payload from the result cache, or built in the pool
        and cached; returns ``(payload, hit)``."""
        payload = self.cache.get(key)
        if payload is not None:
            self._bump("cache_hits")
            return payload, True
        self._bump("cache_misses")
        payload = await asyncio.get_running_loop().run_in_executor(self._pool, build, *args)
        self.cache.put(key, payload)
        return payload, False

    # these run in the pool and open their spans there: the span stack
    # is per thread, and sessions interleave on the loop thread
    def _build_points(self, index, level, node_ids) -> bytes:
        """A POINTS unit: the scheduled nodes' runs of one level."""
        with span("service_refine", frame=index, level=level):
            payload = protocol.encode_lod_points(*self.frames[index].lod.delta(level, node_ids))
        count("service_unit_bytes", len(payload))
        return payload

    def _build_volume(self, index, resolution) -> bytes:
        """The VOLUME unit: extract's exact volume at the stream's
        resolution."""
        frame = self.frames[index]
        with span("service_lod_volume", frame=index, resolution=resolution):
            volume = density_volume(frame.volume_counts(resolution), frame.lo, frame.hi)
            payload = protocol.encode_lod_volume(volume)
        count("service_unit_bytes", len(payload))
        return payload

    def _build_base(self, index, threshold, resolution, n_nodes, n_total) -> bytes:
        """The BASE unit: coarsest sample of the halo + mip volume."""
        frame = self.frames[index]
        lod = frame.lod
        with span("service_lod_base", frame=index, resolution=resolution):
            rows, points, dens = lod.base(n_nodes)
            base = HybridFrame(
                volume=lod.coarse_volume(resolution),
                points=points,
                point_densities=dens,
                lo=frame.lo,
                hi=frame.hi,
                threshold=float(threshold),
                step=frame.step,
                plot_type=frame.plot_type,
            )
            return protocol.encode_lod_base(base, rows, n_total)

    async def _reply(self, session: _Session, message: Message) -> None:
        await self._send(session, protocol.frame_message(message))

    async def _send(self, session: _Session, data: bytes) -> None:
        """Write one framed message under the session's write lock."""
        async with session.write_lock:
            sent = await protocol.send_framed_async(
                session.writer, data, bandwidth_bps=self.bandwidth_bps
            )
        self._bump("bytes_sent", sent)

    # ------------------------------------------------------------------
    # the shared coalescing extraction path
    # ------------------------------------------------------------------
    async def _get_framed(self, index: int, threshold: float, resolution: int) -> bytes:
        """The HYBRID_FRAME reply for one request, framed for the wire:
        from the cache, a coalesced extraction, or a new one."""
        key = (int(index), float(threshold), int(resolution))
        if not self.breaker.allow(index):
            self._bump("quarantined")
            raise RuntimeError(
                f"frame {index} quarantined after repeated extraction failures"
            )
        data = self.cache.get(key)
        if data is not None:
            self._bump("cache_hits")
            return data
        task = self._inflight.get(key)
        if task is None:
            self._bump("cache_misses")
            task = asyncio.ensure_future(self._compute(key))
            self._inflight[key] = task
        else:
            self._bump("coalesced")
        # shield: a waiter's cancellation (disconnect, deadline) must not
        # cancel the shared computation other sessions are waiting on
        return await asyncio.shield(task)

    async def _compute(self, key) -> bytes:
        index, threshold, resolution = key
        try:
            async with self._extract_sem:
                hybrid = await asyncio.get_running_loop().run_in_executor(
                    self._pool, self._extract, index, threshold, resolution
                )
                data = protocol.frame_message(
                    Message(MessageType.HYBRID_FRAME, protocol.encode_hybrid(hybrid))
                )
        except Exception:
            self._bump("extraction_errors")
            self.breaker.record_failure(index)
            raise
        finally:
            self._inflight.pop(key, None)
        self.breaker.record_success(index)
        self._bump("extractions")
        self.cache.put(key, data)
        return data

    def _extract(self, index, threshold, resolution):
        """One extraction, run in the pool, where its span opens (see
        the note above ``_build_points``)."""
        with span("service_extract", frame=index, resolution=resolution):
            return self._extract_fn(self.frames[index], threshold, resolution)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """The live stats document served as a STATS reply.

        Adds derived gauges to the raw counters: active sessions, cache
        occupancy/hit rate, and p50/p99 service times over the last
        4096 requests (request receipt to reply written).
        """
        lat = sorted(self._latencies)
        snap = dict(self.stats)
        hits, misses = snap["cache_hits"], snap["cache_misses"]
        snap.update(
            sessions_active=len(self._sessions),
            cache_entries=len(self.cache),
            cache_bytes=self.cache.nbytes,
            cache_hit_rate=(hits / (hits + misses)) if hits + misses else 0.0,
            queue_depth=sum(s.queue.qsize() for s in self._sessions.values()),
            p50_ms=percentile(lat, 0.50) * 1e3,
            p99_ms=percentile(lat, 0.99) * 1e3,
            uptime_s=time.monotonic() - self._t_started,
        )
        return snap
