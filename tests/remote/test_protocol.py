"""Wire protocol framing and codecs."""

import asyncio
import socket
import struct
import threading

import numpy as np
import pytest

from repro.core.errors import (
    BadMagicError,
    BadVersionError,
    ChecksumError,
    ProtocolError,
    TruncatedMessageError,
)
from repro.hybrid.representation import HybridFrame
from repro.remote.protocol import (
    _FRAME_HEADER,
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
    Message,
    MessageType,
    decode_busy,
    decode_frame_list,
    decode_get_hybrid,
    decode_hybrid,
    decode_refine,
    decode_stats,
    encode_busy,
    encode_frame_list,
    encode_get_hybrid,
    encode_hybrid,
    encode_refine,
    encode_stats,
    recv_message,
    recv_message_async,
    send_message,
    send_message_async,
)


def _socket_pair():
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    client = socket.create_connection(server.getsockname())
    conn, _ = server.accept()
    server.close()
    return client, conn


class TestFraming:
    def test_roundtrip(self):
        a, b = _socket_pair()
        try:
            sent = send_message(a, Message(MessageType.LIST_FRAMES, b"hello"))
            msg = recv_message(b)
            assert msg.type == MessageType.LIST_FRAMES
            assert msg.payload == b"hello"
            # magic + version + type + length + crc32, then the payload
            assert sent == _FRAME_HEADER.size + 5
        finally:
            a.close()
            b.close()

    def test_empty_payload(self):
        a, b = _socket_pair()
        try:
            send_message(a, Message(MessageType.SHUTDOWN))
            msg = recv_message(b)
            assert msg.type == MessageType.SHUTDOWN
            assert msg.payload == b""
        finally:
            a.close()
            b.close()

    def test_multiple_messages_in_order(self):
        a, b = _socket_pair()
        try:
            for i in range(5):
                send_message(a, Message(MessageType.ERROR, bytes([i])))
            for i in range(5):
                assert recv_message(b).payload == bytes([i])
        finally:
            a.close()
            b.close()

    def test_peer_close_raises(self):
        a, b = _socket_pair()
        a.close()
        with pytest.raises(ConnectionError):
            recv_message(b)
        b.close()

    def test_throttled_send_measurably_slower(self):
        import time

        a, b = _socket_pair()
        try:
            payload = bytes(200_000)
            results = {}

            def reader():
                results["msg"] = recv_message(b)

            t = threading.Thread(target=reader)
            t.start()
            t0 = time.perf_counter()
            send_message(a, Message(MessageType.HYBRID_FRAME, payload),
                         bandwidth_bps=2_000_000)  # 2 MB/s -> ~0.1 s
            t.join()
            elapsed = time.perf_counter() - t0
            assert elapsed > 0.05
            assert results["msg"].payload == payload
        finally:
            a.close()
            b.close()


class TestTypedProtocolErrors:
    """A damaged stream raises typed errors, never garbage decodes."""

    def test_bad_magic(self):
        a, b = _socket_pair()
        try:
            a.sendall(b"GARBAGE!" + bytes(12))
            with pytest.raises(BadMagicError):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_bad_version(self):
        a, b = _socket_pair()
        try:
            a.sendall(_FRAME_HEADER.pack(PROTOCOL_MAGIC, 99, 1, 0, 0))
            with pytest.raises(BadVersionError):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_corrupted_payload_crc(self):
        a, b = _socket_pair()
        try:
            payload = b"precious bytes"
            head = _FRAME_HEADER.pack(
                PROTOCOL_MAGIC, PROTOCOL_VERSION, 1, len(payload),
                0xDEADBEEF,  # wrong checksum
            )
            a.sendall(head + payload)
            with pytest.raises(ChecksumError):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_mid_message_disconnect(self):
        """Peer dies halfway through a declared payload."""
        a, b = _socket_pair()
        payload = bytes(1000)
        import zlib

        head = _FRAME_HEADER.pack(
            PROTOCOL_MAGIC, PROTOCOL_VERSION, 1, len(payload),
            zlib.crc32(payload),
        )
        a.sendall(head + payload[:300])
        a.close()
        with pytest.raises(TruncatedMessageError):
            recv_message(b)
        b.close()

    def test_unknown_message_type(self):
        a, b = _socket_pair()
        try:
            import zlib

            a.sendall(
                _FRAME_HEADER.pack(
                    PROTOCOL_MAGIC, PROTOCOL_VERSION, 250, 0, zlib.crc32(b"")
                )
            )
            with pytest.raises(ProtocolError):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_truncated_errors_are_connection_errors(self):
        """Pre-existing ``except ConnectionError`` call sites keep
        catching mid-message disconnects."""
        assert issubclass(TruncatedMessageError, ConnectionError)

    def test_malformed_codec_payloads(self):
        with pytest.raises(ProtocolError):
            decode_get_hybrid(b"short")
        with pytest.raises(ProtocolError):
            decode_frame_list(struct.pack("<Q", 100) + bytes(8))


class TestCodecs:
    def test_get_hybrid(self):
        payload = encode_get_hybrid(7, 123.5, 64)
        assert decode_get_hybrid(payload) == (7, 123.5, 64)

    @pytest.mark.parametrize("threshold, resolution", [
        (float("nan"), 64), (1.0, 0), (1.0, 1), (1.0, 257), (1.0, 4_000_000),
    ])
    def test_requests_outside_the_served_range_rejected(self, threshold, resolution):
        """A NaN threshold or a resolution outside [2, 256] is a
        protocol error, for one-shot and progressive requests alike."""
        with pytest.raises(ProtocolError):
            decode_get_hybrid(encode_get_hybrid(0, threshold, resolution))
        with pytest.raises(ProtocolError):
            decode_refine(encode_refine(1, 0, threshold, resolution))

    @pytest.mark.parametrize("threshold, resolution", [
        (0.0, 2), (-1.0, 256), (float("inf"), 64),
    ])
    def test_requests_inside_the_served_range_accepted(self, threshold, resolution):
        assert decode_get_hybrid(encode_get_hybrid(3, threshold, resolution)) == (
            3, threshold, resolution
        )
        assert decode_refine(encode_refine(1, 3, threshold, resolution))[1:4] == (
            3, threshold, resolution
        )

    def test_frame_list(self):
        steps = [0, 5, 10, 9999]
        assert decode_frame_list(encode_frame_list(steps)) == steps

    def test_frame_list_empty(self):
        assert decode_frame_list(encode_frame_list([])) == []

    def test_hybrid_codec(self):
        rng = np.random.default_rng(0)
        f = HybridFrame(
            volume=rng.random((4, 4, 4)).astype(np.float32),
            points=rng.random((10, 3)).astype(np.float32),
            point_densities=rng.random(10).astype(np.float32),
            lo=np.zeros(3),
            hi=np.ones(3),
            step=3,
        )
        back = decode_hybrid(encode_hybrid(f))
        assert np.array_equal(back.volume, f.volume)
        assert np.array_equal(back.points, f.points)
        assert back.step == 3

    def test_busy_codec(self):
        retry_after, reason = decode_busy(encode_busy(0.25, "queue full"))
        assert retry_after == 0.25
        assert reason == "queue full"

    def test_busy_codec_no_reason(self):
        assert decode_busy(encode_busy(1.5)) == (1.5, "")

    def test_busy_codec_rejects_damage(self):
        with pytest.raises(ProtocolError):
            decode_busy(b"xy")

    def test_stats_codec(self):
        doc = {"requests": 12, "cache_hit_rate": 0.75, "name": "svc"}
        assert decode_stats(encode_stats(doc)) == doc

    def test_stats_codec_rejects_damage(self):
        with pytest.raises(ProtocolError):
            decode_stats(b"{not json")


class TestAsyncFraming:
    """The asyncio-stream transport frames identically to the
    blocking-socket one (the asyncio service and the blocking client
    interoperate)."""

    @staticmethod
    def _run(coro):
        return asyncio.run(coro)

    @staticmethod
    async def _stream_pair():
        accepted = asyncio.Queue()

        async def on_connect(reader, writer):
            await accepted.put((reader, writer))

        server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
        address = server.sockets[0].getsockname()
        c_reader, c_writer = await asyncio.open_connection(*address)
        s_reader, s_writer = await accepted.get()
        return server, (c_reader, c_writer), (s_reader, s_writer)

    def test_async_roundtrip(self):
        async def go():
            server, (cr, cw), (sr, sw) = await self._stream_pair()
            try:
                sent = await send_message_async(
                    cw, Message(MessageType.GET_STATS, b"abc")
                )
                msg = await recv_message_async(sr)
                assert msg.type == MessageType.GET_STATS
                assert msg.payload == b"abc"
                assert sent == _FRAME_HEADER.size + 3
            finally:
                cw.close()
                sw.close()
                server.close()
                await server.wait_closed()

        self._run(go())

    def test_async_to_blocking_interop(self):
        """Bytes written by the async sender decode on a blocking socket."""
        a, b = _socket_pair()
        try:
            async def send():
                reader, writer = await asyncio.open_connection(
                    sock=socket.socket(fileno=a.detach())
                )
                await send_message_async(
                    writer, Message(MessageType.HYBRID_FRAME, b"payload")
                )
                writer.close()
                await writer.wait_closed()

            asyncio.run(send())
            msg = recv_message(b)
            assert msg.type == MessageType.HYBRID_FRAME
            assert msg.payload == b"payload"
        finally:
            b.close()

    def test_async_bad_magic(self):
        async def go():
            server, (cr, cw), (sr, sw) = await self._stream_pair()
            try:
                cw.write(b"GARBAGE!" + bytes(12))
                await cw.drain()
                with pytest.raises(BadMagicError):
                    await recv_message_async(sr)
            finally:
                cw.close()
                sw.close()
                server.close()
                await server.wait_closed()

        self._run(go())

    def test_async_mid_message_disconnect(self):
        async def go():
            server, (cr, cw), (sr, sw) = await self._stream_pair()
            try:
                import zlib

                payload = bytes(1000)
                head = _FRAME_HEADER.pack(
                    PROTOCOL_MAGIC, PROTOCOL_VERSION, 1, len(payload),
                    zlib.crc32(payload),
                )
                cw.write(head + payload[:300])
                await cw.drain()
                cw.close()
                with pytest.raises(TruncatedMessageError):
                    await recv_message_async(sr)
            finally:
                sw.close()
                server.close()
                await server.wait_closed()

        self._run(go())
