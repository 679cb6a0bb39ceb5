"""Progressive stream assembly and socket receive against the code
they replaced.

``VisualizationClient.iter_hybrid`` once re-concatenated every row,
point and density it had received and stable-argsorted them on each
yield, so every yield was in row order.  It now appends each unit in
arrival order to buffers allocated once per stream and yields
read-only prefix views of them; only the complete frame is put in
row order.  ``_recv_exact`` once grew a buffer by ``extend`` and
copied it out; it now receives into one buffer.  The replaced code is
kept verbatim below (only the client's stats counters are left out of
the stream body).  On every recorded unit sequence -- live streams and
reordered, padded or truncated ones -- each yield holds the units
received so far in arrival order, equals the reference's yield once
sorted by row, and is a prefix of the next; the complete frame and the
errors equal the reference's.  Every delivery pattern must give
byte-equal messages.

The stream also checks what it used to count: a unit whose rows leave
``[0, n_total)``, repeat inside the unit, or repeat an earlier unit
raises :class:`ProtocolError` instead of completing with wrong
points.  And the service opens one span per unit it builds, the
client one per pull after the first.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.core.errors import ProtocolError, RemoteError, TruncatedMessageError
from repro.core.trace import capture
from repro.hybrid.representation import HybridFrame
from repro.octree.lod import build_lod
from repro.octree.stream_partition import partition_store
from repro.remote import protocol
from repro.remote.client import VisualizationClient
from repro.remote.protocol import LodKind, Message, MessageType
from repro.remote.service import VisualizationService

CLIENT_KW = dict(timeout=5.0, retries=20, backoff=0.001, backoff_max=0.02)


# ----------------------------------------------------------------------
# the replaced code, verbatim
# ----------------------------------------------------------------------
def _recv_exact_reference(sock, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        part = sock.recv(min(n - len(buf), 1 << 20))
        if not part:
            raise TruncatedMessageError(
                f"peer closed the connection mid-message "
                f"({len(buf)}/{n} bytes received)"
            )
        buf.extend(part)
    return bytes(buf)


def _recv_message_reference(sock) -> Message:
    head = _recv_exact_reference(sock, protocol._FRAME_HEADER.size)
    mtype, length, crc = protocol._unpack_header(head)
    payload = _recv_exact_reference(sock, length) if length else b""
    return protocol._check_payload(payload, crc, length, mtype)


def reference_iter_hybrid(pull, max_refinements=None):
    """``iter_hybrid`` from its first pull on, as it stood before the
    scatter, with every yield in row order; ``pull`` returns one
    decoded LOD_FRAME."""
    _, kind, _, _, payload = pull()
    if kind != protocol.LodKind.BASE:
        raise RemoteError(f"expected BASE stream unit, got {kind.name}")
    base, rows, n_total = protocol.decode_lod_base(payload)
    volume = base.volume
    rows_acc = rows
    pts_acc = base.points
    dens_acc = base.point_densities
    have_exact_volume = False

    def assembled() -> HybridFrame:
        order = np.argsort(rows_acc, kind="stable")
        return HybridFrame(
            volume=volume,
            points=pts_acc[order],
            point_densities=dens_acc[order],
            lo=base.lo,
            hi=base.hi,
            threshold=base.threshold,
            step=base.step,
            plot_type=base.plot_type,
        )

    yield assembled()
    served = 0
    while max_refinements is None or served < max_refinements:
        _, kind, _, _, payload = pull()
        if kind == protocol.LodKind.DONE:
            if len(rows_acc) != n_total or not have_exact_volume:
                raise RemoteError(
                    f"stream ended after {len(rows_acc)}/{n_total} points "
                    f"(exact volume: {have_exact_volume})"
                )
            return
        if kind == protocol.LodKind.POINTS:
            r, p, d = protocol.decode_lod_points(payload)
            rows_acc = np.concatenate([rows_acc, r])
            pts_acc = np.concatenate([pts_acc, p])
            dens_acc = np.concatenate([dens_acc, d])
        elif kind == protocol.LodKind.VOLUME:
            volume = protocol.decode_lod_volume(payload)
            have_exact_volume = True
        else:
            raise RemoteError(f"unexpected stream unit {kind.name}")
        served += 1
        yield assembled()


# ----------------------------------------------------------------------
# fixtures and recording
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def pstore(tmp_path_factory):
    rng = np.random.default_rng(31)
    p = np.vstack(
        [rng.normal(0.0, 0.3, (12_000, 6)), rng.normal(0.0, 1.8, (1_200, 6))]
    )
    ps = partition_store(
        p, tmp_path_factory.mktemp("assembly") / "store", "xyz",
        max_level=5, capacity=64, step=2,
    )
    build_lod(ps, levels=2, ratio=4, seed=5, mip_base=32, mip_levels=2)
    return ps


@pytest.fixture(scope="module")
def service(pstore):
    with VisualizationService([pstore], unit_points=512) as svc:
        yield svc


@pytest.fixture()
def client(service):
    with VisualizationClient(service.address, **CLIENT_KW) as c:
        yield c


def threshold_of(pstore, pct):
    return float(np.percentile(pstore.nodes["density"], pct))


def record(client, threshold, resolution, eye=None):
    """The LOD_FRAME payloads of one live stream run to DONE."""
    replies = []
    live = client._request

    def recording(message, expected):
        reply = live(message, expected)
        replies.append(bytes(reply.payload))
        return reply

    client._request = recording
    try:
        for _ in client.iter_hybrid(0, threshold, resolution, eye=eye):
            pass
    finally:
        del client._request
    return replies


def units(replies):
    """Decode recorded replies into ``(kind, unit_payload bytes)``."""
    out = []
    for reply in replies:
        _, kind, _, _, unit = protocol.decode_lod_frame(reply)
        out.append((kind, bytes(unit)))
    return out


def replies_of(unit_list, stream_id=0):
    """Re-encode units as LOD_FRAME payloads (sequence numbers in
    order; the client reads only the kinds and unit payloads)."""
    return [
        protocol.encode_lod_frame(stream_id, kind, seq, len(unit_list), unit)
        for seq, (kind, unit) in enumerate(unit_list)
    ]


def replay(client, replies, max_refinements=None):
    """Run ``client.iter_hybrid`` on recorded replies; returns the
    yielded frames and the exception that ended the stream, if any."""
    queue = iter(replies)
    client._request = lambda message, expected: Message(
        MessageType.LOD_FRAME, bytearray(next(queue))
    )
    frames = []
    try:
        for frame in client.iter_hybrid(0, 1.0, 32, max_refinements=max_refinements):
            frames.append(frame)
    except (ProtocolError, RemoteError) as exc:
        return frames, exc
    finally:
        del client._request
    return frames, None


def replay_reference(replies, max_refinements=None):
    queue = iter(replies)
    frames = []
    try:
        for frame in reference_iter_hybrid(
            lambda: protocol.decode_lod_frame(next(queue)), max_refinements
        ):
            frames.append(frame)
    except RemoteError as exc:
        return frames, exc
    return frames, None


def digest(frame):
    h = hashlib.blake2b(digest_size=16)
    for a in (frame.volume, frame.points, frame.point_densities):
        h.update(a.tobytes())
    return h.digest()


def assert_frames_byte_equal(got, want):
    assert type(got) is type(want) is HybridFrame
    for name in ("volume", "points", "point_densities"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.lo.tobytes() == want.lo.tobytes()
    assert got.hi.tobytes() == want.hi.tobytes()
    assert got.threshold == want.threshold
    assert got.step == want.step
    assert got.plot_type == want.plot_type


def arrivals(replies, n_yields):
    """What each of a stream's first ``n_yields`` yields must hold: the
    rows, points and densities of the units received so far,
    concatenated in arrival order, and whether every row and the exact
    volume had arrived."""
    _, _, _, _, payload = protocol.decode_lod_frame(replies[0])
    base, rows, n_total = protocol.decode_lod_base(payload)
    received = [(rows, base.points, base.point_densities)]
    exact = False
    out = []
    for reply in replies[:n_yields]:
        _, kind, _, _, payload = protocol.decode_lod_frame(reply)
        if kind == LodKind.POINTS:
            received.append(protocol.decode_lod_points(payload))
        elif kind == LodKind.VOLUME:
            exact = True
        rows, pts, dens = (np.concatenate(a) for a in zip(*received))
        out.append((rows, pts, dens, exact and len(rows) == n_total))
    return out


def in_row_order(frame, rows):
    order = np.argsort(rows, kind="stable")
    return HybridFrame(
        volume=frame.volume, points=frame.points[order],
        point_densities=frame.point_densities[order], lo=frame.lo, hi=frame.hi,
        threshold=frame.threshold, step=frame.step, plot_type=frame.plot_type,
    )


def assert_same_stream(client, replies, max_refinements=None):
    frames, err = replay(client, replies, max_refinements)
    ref_frames, ref_err = replay_reference(replies, max_refinements)
    assert len(frames) == len(ref_frames)
    expected = arrivals(replies, len(frames)) if frames else []
    for got, want, (rows, pts, dens, complete) in zip(frames, ref_frames, expected):
        if complete:
            assert_frames_byte_equal(got, want)
            continue
        assert got.points.tobytes() == pts.tobytes()
        assert got.point_densities.tobytes() == dens.tobytes()
        assert_frames_byte_equal(in_row_order(got, rows), want)
    for a, b, (*_, complete) in zip(frames, frames[1:], expected[1:]):
        if not complete:
            assert b.points[: a.n_points].tobytes() == a.points.tobytes()
            assert (
                b.point_densities[: a.n_points].tobytes() == a.point_densities.tobytes()
            )
    assert type(err) is type(ref_err)
    assert str(err) == str(ref_err)
    return frames


# ----------------------------------------------------------------------
# stream assembly
# ----------------------------------------------------------------------
class TestStreamAssembly:
    @pytest.mark.parametrize("pct", [40, 75])
    @pytest.mark.parametrize("resolution", [32, 24])
    @pytest.mark.parametrize("eye_scale", [None, -2.0])
    def test_live_streams(self, pstore, client, pct, resolution, eye_scale):
        thr = threshold_of(pstore, pct)
        eye = None if eye_scale is None else tuple(
            float(v) for v in np.asarray(pstore.hi) * eye_scale
        )
        replies = record(client, thr, resolution, eye)
        frames = assert_same_stream(client, replies)
        assert len(frames) >= 4  # base, volume, at least two POINTS units
        assert len(frames[-1].points) == int(pstore.density_cutoff_index(thr))

    def _live_units(self, pstore, client, pct=60):
        return units(record(client, threshold_of(pstore, pct), 32))

    def test_levels_out_of_order(self, pstore, client):
        seq = self._live_units(pstore, client)
        base, volume, points, done = seq[0], seq[1], seq[2:-1], seq[-1]
        assert volume[0] == LodKind.VOLUME and done[0] == LodKind.DONE
        assert len(points) >= 3
        shuffled = [points[i] for i in np.random.default_rng(4).permutation(len(points))]
        for order in (points[::-1], shuffled):
            assert_same_stream(client, replies_of([base, volume, *order, done]))

    def test_base_rows_out_of_order(self, pstore, client):
        """The wire does not order a unit's rows; the stored base
        happens to be sorted, so shuffle it (rows, points and densities
        together) to pin the wire order of the first frames and the
        row order of the complete one."""
        seq = self._live_units(pstore, client)
        frame, rows, n_total = protocol.decode_lod_base(seq[0][1])
        perm = np.random.default_rng(6).permutation(len(rows))
        assert (np.diff(rows) > 0).all() and len(rows) > 1
        shuffled = HybridFrame(
            volume=frame.volume, points=frame.points[perm],
            point_densities=frame.point_densities[perm], lo=frame.lo, hi=frame.hi,
            threshold=frame.threshold, step=frame.step, plot_type=frame.plot_type,
        )
        base = (LodKind.BASE, protocol.encode_lod_base(shuffled, rows[perm], n_total))
        for max_refinements in (0, None):
            assert_same_stream(client, replies_of([base, *seq[1:]]), max_refinements)

    def test_empty_points_units(self, pstore, client):
        seq = self._live_units(pstore, client)
        empty = (
            LodKind.POINTS,
            protocol.encode_lod_points(
                np.empty(0, np.int64), np.empty((0, 3), np.float32),
                np.empty(0, np.float32),
            ),
        )
        padded = [seq[0], empty, seq[1], *seq[2:4], empty, *seq[4:-1], empty, seq[-1]]
        assert_same_stream(client, replies_of(padded))

    def test_no_halo_points(self, pstore, client):
        """A threshold below every node density: ``n_total = 0``."""
        thr = float(pstore.nodes["density"].min()) * 0.5
        replies = record(client, thr, 32)
        frames = assert_same_stream(client, replies)
        assert [len(f.points) for f in frames] == [0, 0]

    def test_volume_first_and_last(self, pstore, client):
        seq = self._live_units(pstore, client)
        base, volume, points, done = seq[0], seq[1], seq[2:-1], seq[-1]
        assert_same_stream(client, replies_of([base, volume, *points, done]))
        assert_same_stream(client, replies_of([base, *points, volume, done]))

    @pytest.mark.parametrize("max_refinements", [0, 1, 3])
    def test_stop_at_max_refinements(self, pstore, client, max_refinements):
        replies = replies_of(self._live_units(pstore, client))
        frames = assert_same_stream(client, replies, max_refinements)
        assert len(frames) == 1 + max_refinements

    def test_premature_done(self, pstore, client):
        seq = self._live_units(pstore, client)
        frames, err = replay(client, replies_of([*seq[:3], seq[-1]]))
        assert isinstance(err, RemoteError) and "stream ended after" in str(err)
        assert len(frames) == 3


class TestPrefixViews:
    """Intermediate yields are read-only views of one buffer that only
    grows past them."""

    def _live(self, pstore, client, pct=65):
        frames, digests = [], []
        for frame in client.iter_hybrid(0, threshold_of(pstore, pct), 32):
            frames.append(frame)
            digests.append(digest(frame))
        assert len(frames) >= 4
        return frames, digests

    def test_writing_to_a_yield_raises(self, pstore, client):
        frames, _ = self._live(pstore, client)
        for frame in frames:
            for a in (frame.points, frame.point_densities, frame.volume):
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a.flat[:1] = 0.0

    def test_yields_unchanged_when_the_stream_ends(self, pstore, client):
        frames, digests = self._live(pstore, client)
        assert [digest(f) for f in frames] == digests

    def test_successive_yields_share_one_buffer(self, pstore, client):
        frames, _ = self._live(pstore, client)
        views = frames[1:-1]  # after the base frame, before the row-order one
        for a, b in zip(views, views[1:]):
            assert np.shares_memory(a.points, b.points)
            assert np.shares_memory(a.point_densities, b.point_densities)
        assert not np.shares_memory(frames[-1].points, views[-1].points)


class TestStreamRowChecks:
    """Units whose rows do not tile ``[0, n_total)`` once are refused
    (the old count check let them complete with wrong points)."""

    def _with_rows(self, pstore, client, edit):
        seq = units(record(client, threshold_of(pstore, 60), 32))
        k = next(i for i, (kind, _) in enumerate(seq) if kind == LodKind.POINTS)
        rows, pts, dens = (
            np.array(a) for a in protocol.decode_lod_points(seq[k][1])
        )
        _, base_rows, n_total = protocol.decode_lod_base(seq[0][1])
        edit(rows, base_rows, n_total)
        seq[k] = (LodKind.POINTS, protocol.encode_lod_points(rows, pts, dens))
        frames, err = replay(client, replies_of(seq))
        return frames, err, k

    @pytest.mark.parametrize("bad", ["n_total", "negative"])
    def test_row_outside_the_halo(self, pstore, client, bad):
        def edit(rows, base_rows, n_total):
            rows[-1] = n_total if bad == "n_total" else -1

        frames, err, k = self._with_rows(pstore, client, edit)
        assert isinstance(err, ProtocolError) and "outside" in str(err)
        assert len(frames) == k

    def test_row_repeated_inside_one_unit(self, pstore, client):
        def edit(rows, base_rows, n_total):
            rows[-1] = rows[0]

        frames, err, k = self._with_rows(pstore, client, edit)
        assert isinstance(err, ProtocolError) and "twice" in str(err)
        assert len(frames) == k

    def test_base_row_outside_the_halo(self, pstore, client):
        """The first frame is the base sample as decoded; the base's
        rows are checked when it is appended, before the next unit is
        taken in."""
        seq = units(record(client, threshold_of(pstore, 60), 32))
        frame, rows, n_total = protocol.decode_lod_base(seq[0][1])
        rows[0] = n_total
        seq[0] = (LodKind.BASE, protocol.encode_lod_base(frame, rows, n_total))
        frames, err = replay(client, replies_of(seq))
        assert isinstance(err, ProtocolError) and "outside" in str(err)
        assert len(frames) == 1

    @pytest.mark.parametrize("tail", [b"\x00", b"", bytes(16)])
    def test_base_row_bytes_must_match_its_points(self, pstore, client, tail):
        """A BASE unit with a partial, missing or extra row index is a
        typed error (a partial one was a bare ``ValueError``)."""
        seq = units(record(client, threshold_of(pstore, 60), 32))
        base = seq[0][1]
        base = base[: len(base) - 8] if tail == b"" else base + tail
        with pytest.raises(ProtocolError, match="bytes of row indices"):
            protocol.decode_lod_base(base)
        frames, err = replay(client, replies_of([(LodKind.BASE, base), *seq[1:]]))
        assert isinstance(err, ProtocolError) and frames == []

    def test_row_already_received(self, pstore, client):
        def edit(rows, base_rows, n_total):
            rows[len(rows) // 2] = base_rows[0]

        frames, err, k = self._with_rows(pstore, client, edit)
        assert isinstance(err, ProtocolError) and "already received" in str(err)
        assert len(frames) == k


# ----------------------------------------------------------------------
# socket receive
# ----------------------------------------------------------------------
class ChunkedSocket:
    """Delivers ``data`` in receives of at most ``chunk`` bytes, then
    EOF; logs the size each receive asked for."""

    def __init__(self, data: bytes, chunk: int):
        self.data, self.chunk, self.pos, self.asked = data, chunk, 0, []

    def recv(self, n):
        self.asked.append(n)
        part = self.data[self.pos : self.pos + min(n, self.chunk)]
        self.pos += len(part)
        return part

    def recv_into(self, buffer, nbytes=0):
        part = self.recv(nbytes or len(buffer))
        buffer[: len(part)] = part
        return len(part)


def _message(size: int) -> bytes:
    payload = np.random.default_rng(size).integers(0, 256, size, np.uint8).tobytes()
    return protocol.frame_message(Message(MessageType.HYBRID_FRAME, payload))


class TestReceive:
    @pytest.mark.parametrize(
        "size, chunk",
        [
            (3_000, 1),                      # one byte per receive
            (3_000, 3_000),                  # the payload in one receive
            ((5 << 20) // 2, (5 << 20) // 2),  # exact size, above the 1 MiB cap
            ((5 << 20) // 2, 3 << 20),       # more on offer than one read takes
        ],
    )
    def test_same_bytes_and_reads(self, size, chunk):
        data = _message(size) + _message(17)
        new, old = ChunkedSocket(data, chunk), ChunkedSocket(data, chunk)
        for _ in range(2):
            got, want = protocol.recv_message(new), _recv_message_reference(old)
            assert got.type == want.type
            assert bytes(got.payload) == want.payload
        assert new.asked == old.asked
        assert max(new.asked) <= 1 << 20

    @pytest.mark.parametrize("chunk", [1_000, 5_000])
    def test_buffer_grown_past_the_preallocation(self, monkeypatch, chunk):
        """Past ``_RECV_PREALLOC`` the buffer doubles as bytes arrive
        (shrunk here so a small message takes that path)."""
        monkeypatch.setattr(protocol, "_RECV_PREALLOC", 4_096)
        data = _message(50_000)
        new, old = ChunkedSocket(data, chunk), ChunkedSocket(data, chunk)
        got, want = protocol.recv_message(new), _recv_message_reference(old)
        assert bytes(got.payload) == want.payload
        assert len(got.payload) == 50_000
        assert new.asked == old.asked

    def test_declared_length_is_not_allocated_up_front(self):
        """A header declaring 1 GiB, then 10 bytes and EOF: the same
        error as before, without committing the declared size."""
        payload = bytes(10)
        head = protocol._FRAME_HEADER.pack(
            protocol.PROTOCOL_MAGIC, protocol.PROTOCOL_VERSION,
            int(MessageType.HYBRID_FRAME), 1 << 30, 0,
        )
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedMessageError) as got:
                protocol.recv_message(ChunkedSocket(head + payload, 1 << 20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 << 20
        with pytest.raises(TruncatedMessageError) as want:
            _recv_message_reference(ChunkedSocket(head + payload, 1 << 20))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("chunk", [1, 4096, 3 << 20])
    def test_truncation_mid_payload_same_error(self, chunk):
        data = _message(40_000)[:25_000]
        with pytest.raises(TruncatedMessageError) as got:
            protocol.recv_message(ChunkedSocket(data, chunk))
        with pytest.raises(TruncatedMessageError) as want:
            _recv_message_reference(ChunkedSocket(data, chunk))
        assert str(got.value) == str(want.value)


# ----------------------------------------------------------------------
# service spans per unit
# ----------------------------------------------------------------------
class TestServiceUnitSpans:
    def test_one_span_per_unit(self, pstore, service, client):
        # no other test asks for this threshold: the base is built, not a hit
        thr = threshold_of(pstore, 60) * 1.5
        before = service.stats["refinements"]
        with capture(enabled=True) as tracer:
            replies = record(client, thr, 32)
        spans = tracer.spans
        refine = spans["service_refine"]["count"]
        volume = spans["service_lod_volume"]["count"]
        assert spans["service_lod_base"]["count"] == 1
        assert refine + volume == client.stats["refinements"]
        assert 1 + refine + volume == service.stats["refinements"] - before
        kinds = [protocol.decode_lod_frame(r)[1] for r in replies]
        assert refine == kinds.count(LodKind.POINTS)
        assert volume == kinds.count(LodKind.VOLUME) == 1
        unit_bytes = sum(
            len(protocol.decode_lod_frame(r)[4])
            for r in replies
            if protocol.decode_lod_frame(r)[1] in (LodKind.POINTS, LodKind.VOLUME)
        )
        assert tracer.counters["service_unit_bytes"] == unit_bytes


class TestClientUnitSpans:
    def test_one_span_per_pull_after_the_first(self, pstore, client):
        with capture(enabled=True) as tracer:
            replies = record(client, threshold_of(pstore, 70), 32)
        spans = tracer.spans
        kinds = [protocol.decode_lod_frame(r)[1] for r in replies]
        assert kinds[0] == LodKind.BASE and kinds[-1] == LodKind.DONE
        assert spans["remote_stream_open"]["count"] == 1
        # the units and DONE, each at the top level, not under the open
        assert spans["remote_stream_unit"]["count"] == len(kinds) - 1
        assert not [p for p in spans if p.startswith("remote_stream_open/")]

    def test_a_stopped_stream_spans_its_units(self, pstore, client):
        with capture(enabled=True) as tracer:
            frames = list(client.iter_hybrid(0, threshold_of(pstore, 70), 32, max_refinements=2))
        assert len(frames) == 3
        assert tracer.spans["remote_stream_unit"]["count"] == 2
