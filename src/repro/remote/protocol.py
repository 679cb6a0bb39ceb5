"""Wire protocol for the remote visualization link.

Length-prefixed binary messages, version 2 of the framing:

    4s  magic  b"RPV2"
    u16 protocol version (2)
    u16 message type
    u64 payload length
    u32 CRC32 of the payload

followed by the payload bytes.  The magic keeps a desynchronized or
non-protocol stream from being interpreted as a length field; the
CRC32 rejects payloads corrupted in flight.  :func:`recv_message`
raises typed :class:`~repro.core.errors.ProtocolError` subclasses --
never garbage decodes -- so both ends can distinguish a damaged stream
(reconnect / drop the connection) from application errors.

Payloads reuse the package's on-disk codecs (hybrid frames serialize
with :meth:`HybridFrame.save`'s layout); requests are small structs.

Both transports speak the same framing: the blocking socket functions
(:func:`send_message` / :func:`recv_message`) serve the synchronous
client, while the asyncio stream functions
(:func:`send_message_async` / :func:`recv_message_async`) serve the
multi-tenant :class:`~repro.remote.service.VisualizationService`.
Header validation is shared, so the two paths cannot drift.
"""

from __future__ import annotations

import asyncio
import json
import struct
import zlib
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from repro.core.errors import (
    BadMagicError,
    BadVersionError,
    ChecksumError,
    MessageTooLargeError,
    ProtocolError,
    TruncatedMessageError,
)
from repro.hybrid.representation import HybridFrame

__all__ = ["MessageType", "Message", "LodKind", "frame_message",
           "send_message", "recv_message",
           "send_message_async", "send_framed_async", "recv_message_async",
           "encode_hybrid", "decode_hybrid", "encode_busy", "decode_busy",
           "encode_stats", "decode_stats",
           "encode_refine", "decode_refine",
           "encode_lod_frame", "decode_lod_frame",
           "encode_lod_base", "decode_lod_base",
           "encode_lod_points", "decode_lod_points",
           "encode_lod_volume", "decode_lod_volume",
           "PROTOCOL_MAGIC", "PROTOCOL_VERSION", "MAX_PAYLOAD"]

PROTOCOL_MAGIC = b"RPV2"
PROTOCOL_VERSION = 2
MAX_PAYLOAD = 1 << 32  # 4 GiB; anything larger is a corrupted length
_FRAME_HEADER = struct.Struct("<4sHHQI")


class MessageType(IntEnum):
    """Wire message kinds of the visualization link."""

    LIST_FRAMES = 1          # -> FRAME_LIST
    FRAME_LIST = 2           # payload: u64 count, u64 steps...
    GET_HYBRID = 3           # payload: u64 frame index, f8 threshold, u32 resolution
    HYBRID_FRAME = 4         # payload: encoded HybridFrame
    ERROR = 5                # payload: utf-8 message
    SHUTDOWN = 6             # payload: the server-generated shutdown token
    GET_STATS = 7            # -> STATS
    STATS = 8                # payload: utf-8 JSON stats document
    BUSY = 9                 # payload: f8 retry-after seconds, utf-8 reason
    REFINE = 10              # payload: progressive stream pull (see encode_refine)
    LOD_FRAME = 11           # payload: one progressive unit (see encode_lod_frame)


class LodKind(IntEnum):
    """Unit kinds inside a progressive refinement stream."""

    BASE = 0     # coarse-but-valid HybridFrame + its global row indices
    POINTS = 1   # one refinement delta: rows, f4 points, f4 densities
    VOLUME = 2   # the exact extraction volume at the requested resolution
    DONE = 3     # stream fully refined; no payload


@dataclass
class Message:
    type: MessageType
    payload: bytes = b""


def frame_message(message: Message) -> bytes:
    """The message's wire bytes: the header, CRC32 included, then the
    payload.  A sender that repeats one reply frames it once and
    writes the same bytes on every send."""
    header = _FRAME_HEADER.pack(
        PROTOCOL_MAGIC,
        PROTOCOL_VERSION,
        int(message.type),
        len(message.payload),
        zlib.crc32(message.payload) & 0xFFFFFFFF,
    )
    return header + message.payload


def send_message(sock, message: Message, bandwidth_bps: float | None = None) -> int:
    """Send a message; returns bytes sent.

    ``bandwidth_bps`` throttles by sleeping between chunks, emulating
    the wide-area link of the paper's remote setting.
    """
    import time

    data = frame_message(message)
    if bandwidth_bps is None:
        sock.sendall(data)
    else:
        chunk = max(int(bandwidth_bps * 0.01), 1024)  # ~10 ms per chunk
        for i in range(0, len(data), chunk):
            part = data[i : i + chunk]
            sock.sendall(part)
            time.sleep(len(part) / bandwidth_bps)
    return len(data)


# a declared length is allocated up front up to this size; past it the
# buffer doubles as bytes arrive, because the header's length field is
# not CRC-covered: a damaged or hostile one must not make the receiver
# commit gigabytes before a byte of payload has arrived
_RECV_PREALLOC = 64 << 20


def _recv_exact(sock, n: int) -> bytearray:
    """Receive exactly ``n`` bytes into one buffer, in reads of at most
    1 MiB."""
    buf = bytearray(min(n, _RECV_PREALLOC))
    got = 0
    while got < n:
        want = min(n - got, 1 << 20)
        if got + want > len(buf):
            buf += bytes(min(max(len(buf), want), n - len(buf)))
        with memoryview(buf)[got:] as view:
            part = sock.recv_into(view, want)
        if not part:
            raise TruncatedMessageError(
                f"peer closed the connection mid-message "
                f"({got}/{n} bytes received)"
            )
        got += part
    return buf


def _unpack_header(head: bytes):
    """Validate a frame header; returns ``(mtype, length, crc)``."""
    magic, version, mtype, length, crc = _FRAME_HEADER.unpack(head)
    if magic != PROTOCOL_MAGIC:
        raise BadMagicError(f"bad frame magic {magic!r} (stream desynchronized?)")
    if version != PROTOCOL_VERSION:
        raise BadVersionError(
            f"peer speaks protocol v{version}, expected v{PROTOCOL_VERSION}"
        )
    if length > MAX_PAYLOAD:
        raise MessageTooLargeError(
            f"declared payload of {length} bytes exceeds the {MAX_PAYLOAD}-byte cap"
        )
    return mtype, length, crc


def _check_payload(payload: bytes, crc: int, length: int, mtype: int) -> Message:
    """Verify a payload against its header; returns the typed message."""
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise ChecksumError(
            f"payload CRC mismatch on a {length}-byte {_type_name(mtype)} message"
        )
    try:
        mtype = MessageType(mtype)
    except ValueError as exc:
        raise ProtocolError(f"unknown message type {mtype}") from exc
    return Message(mtype, payload)


def recv_message(sock) -> Message:
    """Read exactly one framed message from the socket (``sock`` needs
    ``recv_into``); the payload is the ``bytearray`` it was received
    into.

    Raises :class:`BadMagicError`, :class:`BadVersionError`,
    :class:`MessageTooLargeError`, :class:`ChecksumError`, or
    :class:`TruncatedMessageError` when the stream is damaged, and
    :class:`ProtocolError` for an unknown message type.
    """
    head = _recv_exact(sock, _FRAME_HEADER.size)
    mtype, length, crc = _unpack_header(head)
    payload = _recv_exact(sock, length) if length else b""
    return _check_payload(payload, crc, length, mtype)


# ----------------------------------------------------------------------
# asyncio transport (same framing, stream reader/writer endpoints)
# ----------------------------------------------------------------------
async def send_message_async(
    writer: asyncio.StreamWriter,
    message: Message,
    bandwidth_bps: float | None = None,
) -> int:
    """Send one framed message on an asyncio stream; returns bytes sent.

    ``bandwidth_bps`` throttles by sleeping between chunks without
    blocking the event loop, mirroring :func:`send_message`.
    """
    return await send_framed_async(writer, frame_message(message), bandwidth_bps)


async def send_framed_async(
    writer: asyncio.StreamWriter,
    data: bytes,
    bandwidth_bps: float | None = None,
) -> int:
    """Write one message already framed by :func:`frame_message`;
    returns bytes sent.  Throttles as :func:`send_message_async`."""
    if bandwidth_bps is None:
        writer.write(data)
        await writer.drain()
    else:
        chunk = max(int(bandwidth_bps * 0.01), 1024)  # ~10 ms per chunk
        for i in range(0, len(data), chunk):
            part = data[i : i + chunk]
            writer.write(part)
            await writer.drain()
            await asyncio.sleep(len(part) / bandwidth_bps)
    return len(data)


async def _recv_exact_async(reader: asyncio.StreamReader, n: int) -> bytes:
    try:
        return await reader.readexactly(n)
    except asyncio.IncompleteReadError as exc:
        raise TruncatedMessageError(
            f"peer closed the connection mid-message "
            f"({len(exc.partial)}/{n} bytes received)"
        ) from exc


async def recv_message_async(reader: asyncio.StreamReader) -> Message:
    """Read exactly one framed message from an asyncio stream.

    Raises the same typed :class:`~repro.core.errors.ProtocolError`
    subclasses as :func:`recv_message` -- the header/CRC validation is
    shared code.
    """
    head = await _recv_exact_async(reader, _FRAME_HEADER.size)
    mtype, length, crc = _unpack_header(head)
    payload = await _recv_exact_async(reader, length) if length else b""
    return _check_payload(payload, crc, length, mtype)


def _type_name(mtype: int) -> str:
    try:
        return MessageType(mtype).name
    except ValueError:
        return f"type-{mtype}"


# ----------------------------------------------------------------------
# payload codecs
# ----------------------------------------------------------------------
_GET_HYBRID = struct.Struct("<QdI")
_U64 = struct.Struct("<Q")
# a request's volume resolution: 2 is the smallest CIC grid, 256^3 the
# paper's largest volume (and the cap on what a client can make a
# store deposit and keep)
MIN_RESOLUTION = 2
MAX_RESOLUTION = 256


def _check_request(kind: str, threshold: float, resolution: int) -> None:
    """Reject a request no extraction can serve, before it costs one."""
    if np.isnan(threshold):
        raise ProtocolError(f"{kind}: threshold is NaN")
    if not MIN_RESOLUTION <= resolution <= MAX_RESOLUTION:
        raise ProtocolError(
            f"{kind}: resolution {resolution} outside "
            f"[{MIN_RESOLUTION}, {MAX_RESOLUTION}]"
        )


def encode_get_hybrid(frame_index: int, threshold: float, resolution: int) -> bytes:
    return _GET_HYBRID.pack(frame_index, threshold, resolution)


def decode_get_hybrid(payload: bytes):
    """Decode a GET_HYBRID payload; returns ``(frame_index, threshold,
    resolution)``.  A NaN threshold or a resolution outside
    [``MIN_RESOLUTION``, ``MAX_RESOLUTION``] raises
    :class:`ProtocolError`."""
    try:
        frame_index, threshold, resolution = _GET_HYBRID.unpack(payload)
    except struct.error as exc:
        raise ProtocolError(f"malformed GET_HYBRID payload: {exc}") from exc
    _check_request("GET_HYBRID", threshold, resolution)
    return frame_index, threshold, resolution


def encode_frame_list(steps) -> bytes:
    arr = np.asarray(list(steps), dtype="<u8")
    return _U64.pack(len(arr)) + arr.tobytes()


def decode_frame_list(payload: bytes):
    try:
        (count,) = _U64.unpack_from(payload, 0)
    except struct.error as exc:
        raise ProtocolError(f"malformed FRAME_LIST payload: {exc}") from exc
    if len(payload) < _U64.size + count * 8:
        raise ProtocolError(
            f"FRAME_LIST payload truncated ({len(payload)} bytes for "
            f"{count} steps)"
        )
    return np.frombuffer(payload, dtype="<u8", count=count, offset=_U64.size).tolist()


_BUSY = struct.Struct("<d")


def encode_busy(retry_after: float, reason: str = "") -> bytes:
    """BUSY payload: when to come back, and why the request was shed."""
    return _BUSY.pack(float(retry_after)) + reason.encode()


def decode_busy(payload: bytes):
    """Decode a BUSY payload; returns ``(retry_after, reason)``."""
    try:
        (retry_after,) = _BUSY.unpack_from(payload, 0)
    except struct.error as exc:
        raise ProtocolError(f"malformed BUSY payload: {exc}") from exc
    return retry_after, payload[_BUSY.size :].decode(errors="replace")


def encode_stats(stats: dict) -> bytes:
    """STATS payload: the service's live counters as a JSON document."""
    return json.dumps(stats, sort_keys=True).encode()


def decode_stats(payload: bytes) -> dict:
    """Decode a STATS payload back into a dict."""
    try:
        doc = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed STATS payload: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError("STATS payload is not a JSON object")
    return doc


def encode_hybrid(frame: HybridFrame) -> bytes:
    """Serialize a hybrid frame using its file layout."""
    return frame.to_bytes()


def decode_hybrid(payload: bytes) -> HybridFrame:
    """Deserialize a hybrid frame received on the wire."""
    return HybridFrame.from_bytes(payload, source="<wire>")


# ----------------------------------------------------------------------
# progressive LOD streaming (REFINE / LOD_FRAME)
# ----------------------------------------------------------------------
_REFINE = struct.Struct("<IQdI3d")
_LOD_FRAME = struct.Struct("<IBII")
_LOD_BASE = struct.Struct("<QQ")


def encode_refine(
    stream_id: int, frame_index: int, threshold: float, resolution: int, eye=None
) -> bytes:
    """REFINE payload: one pull on a progressive stream.

    The first REFINE of a ``stream_id`` opens the stream (the server
    computes the refinement schedule and answers with the BASE unit);
    each subsequent pull on the same id returns the next unit in
    screen-space-error order, then DONE.  ``eye`` is the view position
    the priorities are computed against; ``None`` lets the server use
    the frame's box center.
    """
    if eye is None:
        eye = (float("nan"),) * 3
    ex, ey, ez = (float(v) for v in eye)
    return _REFINE.pack(
        int(stream_id), int(frame_index), float(threshold), int(resolution),
        ex, ey, ez,
    )


def decode_refine(payload: bytes):
    """Decode a REFINE payload; returns ``(stream_id, frame_index,
    threshold, resolution, eye)`` with ``eye=None`` for the NaN
    sentinel (server picks the box center).  The threshold and
    resolution are checked as in :func:`decode_get_hybrid`."""
    try:
        sid, frame_index, threshold, resolution, ex, ey, ez = _REFINE.unpack(payload)
    except struct.error as exc:
        raise ProtocolError(f"malformed REFINE payload: {exc}") from exc
    _check_request("REFINE", threshold, resolution)
    eye = None if not all(np.isfinite([ex, ey, ez])) else (ex, ey, ez)
    return sid, frame_index, threshold, resolution, eye


def encode_lod_frame(
    stream_id: int, kind: "LodKind", seq: int, total: int, payload: bytes = b""
) -> bytes:
    """LOD_FRAME payload: unit ``seq`` of ``total`` on a stream."""
    return _LOD_FRAME.pack(int(stream_id), int(kind), int(seq), int(total)) + payload


def decode_lod_frame(payload: bytes):
    """Decode a LOD_FRAME header; returns ``(stream_id, kind, seq,
    total, unit_payload)``."""
    try:
        sid, kind, seq, total = _LOD_FRAME.unpack_from(payload, 0)
        kind = LodKind(kind)
    except (struct.error, ValueError) as exc:
        raise ProtocolError(f"malformed LOD_FRAME payload: {exc}") from exc
    return sid, kind, seq, total, memoryview(payload)[_LOD_FRAME.size:]


def encode_lod_base(frame: HybridFrame, rows: np.ndarray, n_total: int) -> bytes:
    """BASE unit: the coarse frame (its own wire layout) plus the
    global particle-file row index of each of its points, plus the
    total point count the fully refined stream converges to."""
    blob = frame.to_bytes()
    return (
        _LOD_BASE.pack(int(n_total), len(blob))
        + blob
        + np.ascontiguousarray(rows, dtype="<i8").tobytes()
    )


def decode_lod_base(payload: bytes):
    """Decode a BASE unit; returns ``(frame, rows, n_total)``."""
    try:
        n_total, blob_len = _LOD_BASE.unpack_from(payload, 0)
    except struct.error as exc:
        raise ProtocolError(f"malformed LOD base payload: {exc}") from exc
    off = _LOD_BASE.size
    if len(payload) < off + blob_len:
        raise ProtocolError(
            f"LOD base payload truncated ({len(payload)} bytes, frame "
            f"blob declares {blob_len})"
        )
    frame = HybridFrame.from_bytes(bytes(payload[off : off + blob_len]), source="<wire>")
    rows_bytes = len(payload) - off - blob_len
    if rows_bytes != 8 * frame.n_points:
        raise ProtocolError(
            f"LOD base carries {rows_bytes} bytes of row indices for "
            f"{frame.n_points} points"
        )
    rows = np.frombuffer(payload, dtype="<i8", offset=off + blob_len).copy()
    return frame, rows, int(n_total)


def encode_lod_points(rows: np.ndarray, points: np.ndarray, densities: np.ndarray) -> bytes:
    """POINTS unit: n rows (i8), points (n, 3) f4, densities (n,) f4."""
    n = len(rows)
    return (
        _U64.pack(n)
        + np.ascontiguousarray(rows, dtype="<i8").tobytes()
        + np.ascontiguousarray(points, dtype="<f4").tobytes()
        + np.ascontiguousarray(densities, dtype="<f4").tobytes()
    )


def decode_lod_points(payload: bytes):
    """Decode a POINTS unit; returns ``(rows, points, densities)`` as
    views of the payload, for a caller that copies them at once (the
    views are unaligned and keep the whole payload alive)."""
    try:
        (n,) = _U64.unpack_from(payload, 0)
    except struct.error as exc:
        raise ProtocolError(f"malformed LOD points payload: {exc}") from exc
    expected = _U64.size + n * (8 + 12 + 4)
    if len(payload) != expected:
        raise ProtocolError(
            f"LOD points payload is {len(payload)} bytes, {expected} "
            f"expected for {n} points"
        )
    off = _U64.size
    rows = np.frombuffer(payload, dtype="<i8", count=n, offset=off)
    off += n * 8
    points = np.frombuffer(payload, dtype="<f4", count=n * 3, offset=off).reshape(n, 3)
    off += n * 12
    densities = np.frombuffer(payload, dtype="<f4", count=n, offset=off)
    return rows, points, densities


def encode_lod_volume(volume: np.ndarray) -> bytes:
    """VOLUME unit: the exact f4 density volume, shape-prefixed."""
    volume = np.ascontiguousarray(volume, dtype="<f4")
    return struct.pack("<3I", *volume.shape) + volume.tobytes()


def decode_lod_volume(payload: bytes) -> np.ndarray:
    """Decode a VOLUME unit back into the (rx, ry, rz) f4 grid."""
    try:
        rx, ry, rz = struct.unpack_from("<3I", payload, 0)
    except struct.error as exc:
        raise ProtocolError(f"malformed LOD volume payload: {exc}") from exc
    expected = 12 + rx * ry * rz * 4
    if len(payload) != expected:
        raise ProtocolError(
            f"LOD volume payload is {len(payload)} bytes, {expected} "
            f"expected for a {rx}x{ry}x{rz} grid"
        )
    return (
        np.frombuffer(payload, dtype="<f4", count=rx * ry * rz, offset=12)
        .reshape(rx, ry, rz)
        .copy()
    )
