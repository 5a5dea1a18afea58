"""repro.net: wire protocol, loopback farm, failure/recovery drills.

Three layers of confidence, cheapest first: the codec round-trips every
wire type bit-exactly (framebuffers especially), the loopback TCP farm
drives real policies over real sockets to the same dispatch logs as the
other transports (see test_sched_equivalence), and the full render path
stays bit-identical to the serial reference even when a worker daemon is
killed mid-sequence.
"""

import os
import socket
import struct
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.net import protocol as wire
from repro.net.master import MasterServer, TcpTransport
from repro.net.worker import WorkerClient
from repro.runtime import AnimationSpec, FarmOptions, FaultPlan, LocalRenderFarm, RecoveryOptions
from repro.sched import make_policy
from repro.telemetry import InMemorySink, Telemetry, validate_events


# -- codec ------------------------------------------------------------------------
@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        False,
        0,
        -17,
        1 << 40,
        -(1 << 62),
        3.14159,
        float("-0.0"),
        "",
        "héllo wörld",
        b"",
        b"\x00\xff\x7f",
        [],
        [1, "two", 3.0, None],
        (),
        (1, (2, [3, "4"]), None),
        {"a": 1, "b": [True, {"c": (1.5,)}]},
    ],
)
def test_scalar_and_container_round_trip(value):
    out = wire.decode(wire.encode(value))
    assert out == value
    assert type(out) is type(value)


def test_tuples_and_lists_stay_distinct():
    out = wire.decode(wire.encode({"t": (1, 2), "l": [1, 2]}))
    assert isinstance(out["t"], tuple) and isinstance(out["l"], list)


@pytest.mark.parametrize("compress", [False, True])
def test_arrays_round_trip_bit_identical(compress):
    rng = np.random.default_rng(7)
    arrays = [
        rng.random((3, 16, 12, 3)),  # float64 framebuffer shape
        np.arange(20, dtype=np.int64).reshape(4, 5),
        np.zeros((0, 3)),
        np.array(2.5),  # 0-d
        np.linspace(0, 1, 7, dtype=np.float32),
    ]
    for a in arrays:
        out = wire.decode(wire.encode(a, compress_arrays=compress, compress_min_bytes=1))
        assert out.dtype == a.dtype and out.shape == a.shape
        assert out.tobytes() == a.tobytes()


def test_compression_shrinks_compressible_payloads():
    smooth = np.zeros((8, 64, 64), dtype=np.float64)
    raw = wire.encode(smooth, compress_arrays=False)
    packed = wire.encode(smooth, compress_arrays=True, compress_min_bytes=1)
    assert len(packed) < len(raw) // 10


def test_incompressible_payloads_are_kept_raw():
    noise = np.random.default_rng(0).random((64, 64))
    raw = wire.encode(noise, compress_arrays=False)
    packed = wire.encode(noise, compress_arrays=True, compress_min_bytes=1)
    # zlib would grow pure noise; the encoder must keep the smaller form
    assert len(packed) <= len(raw) + 16
    assert np.array_equal(wire.decode(packed), noise)


def test_unencodable_type_raises():
    with pytest.raises(wire.ProtocolError, match="unencodable"):
        wire.encode({"bad": object()})


def test_decode_rejects_junk():
    with pytest.raises(wire.ProtocolError):
        wire.decode(b"\x99whatever")
    with pytest.raises(wire.ProtocolError, match="truncated"):
        wire.decode(wire.encode("hello")[:-2])
    with pytest.raises(wire.ProtocolError, match="trailing"):
        wire.decode(wire.encode(1) + b"\x00")


def _array_value(dtype: bytes, shape: tuple, data: bytes, compressed: int = 0) -> bytes:
    """A hand-built array value, free to lie about any of its fields."""
    dims = b"".join(struct.pack("!Q", d) for d in shape)
    return (
        b"a" + bytes([len(dtype)]) + dtype + bytes([len(shape)]) + dims
        + bytes([compressed]) + struct.pack("!Q", len(data)) + data
    )


#: Well-framed payloads whose *values* are junk.  The first five used to
#: escape decode() as ValueError / TypeError / UnicodeDecodeError /
#: TypeError / zlib.error; the rest are what the same hardening rules out.
_MALFORMED = {
    "shape-disagrees-with-nbytes": _array_value(b"<f8", (3,), b"\x00" * 8),
    "unknown-dtype": _array_value(b"zzz", (1,), b"\x00" * 8),
    "invalid-utf8": b"s" + struct.pack("!I", 2) + b"\xff\xfe",
    "unhashable-dict-key": b"d" + struct.pack("!I", 1) + b"l" + struct.pack("!I", 0) + b"N",
    "bad-zlib-stream": _array_value(b"<f8", (4,), b"not zlib at all", compressed=1),
    "object-dtype": _array_value(b"|O", (1,), b"\x00" * 8),
    "zlib-outgrows-shape": _array_value(b"|u1", (16,), zlib.compress(bytes(1 << 20)), compressed=1),
    "nested-too-deeply": (b"l" + struct.pack("!I", 1)) * 100_000 + b"N",
}


def _frame(payload: bytes, msg_type: int = wire.MSG_RESULT) -> bytes:
    header = struct.pack("!4sBBHI", wire.MAGIC, wire.PROTO_VERSION, msg_type, 0, len(payload))
    return header + payload


@pytest.mark.parametrize("payload", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_values_are_protocol_errors(payload):
    with pytest.raises(wire.ProtocolError):
        wire.decode(payload)
    asm = wire.FrameAssembler()
    asm.feed(_frame(payload))
    with pytest.raises(wire.ProtocolError):
        list(asm)


# -- framing ----------------------------------------------------------------------
def test_assembler_reassembles_across_arbitrary_splits():
    frames = [
        wire.pack_frame(wire.MSG_ASSIGN, {"seq": i, "args": (i, "lane")})
        for i in range(5)
    ]
    stream = b"".join(frames)
    for step in (1, 3, len(stream)):
        asm = wire.FrameAssembler()
        got = []
        for i in range(0, len(stream), step):
            asm.feed(stream[i : i + step])
            got.extend(asm)
        assert [payload["seq"] for _t, payload, _n in got] == list(range(5))
        assert sum(n for _t, _p, n in got) == len(stream)


def test_assembler_byte_at_a_time_with_memoryview_feeds():
    # The worst-case TCP delivery: every recv() returns one byte, and the
    # bytes arrive as memoryviews (what a recv_into loop hands over).
    # Array payloads must still come out bit-identical.
    a = np.arange(48, dtype=np.float64).reshape(4, 4, 3)
    stream = wire.pack_frame(wire.MSG_RESULT, {"seq": 9, "frames": a}) + wire.pack_frame(
        wire.MSG_PING, {}
    )
    asm = wire.FrameAssembler()
    got = []
    for i in range(len(stream)):
        asm.feed(memoryview(stream)[i : i + 1])
        got.extend(asm)
    assert [t for t, _p, _n in got] == [wire.MSG_RESULT, wire.MSG_PING]
    out = got[0][1]["frames"]
    assert out.tobytes() == a.tobytes() and out.shape == a.shape


def test_assembler_every_split_boundary():
    # One frame, cut into two chunks at every possible boundary: the
    # header/payload straddle cases and the spanning-join path all
    # reassemble to the same decoded payload.
    a = np.linspace(0.0, 1.0, 36, dtype=np.float64).reshape(3, 4, 3)
    frame = wire.pack_frame(wire.MSG_RESULT, {"seq": 1, "frames": a, "tag": "x"})
    for cut in range(len(frame) + 1):
        asm = wire.FrameAssembler()
        asm.feed(frame[:cut])
        asm.feed(frame[cut:])
        got = list(asm)
        assert len(got) == 1
        _t, payload, n = got[0]
        assert n == len(frame)
        assert payload["seq"] == 1 and payload["tag"] == "x"
        assert payload["frames"].tobytes() == a.tobytes()


def test_decoded_arrays_are_read_only_views():
    # Zero-copy decode hands out views over the wire buffer; they must be
    # read-only so no consumer can scribble on what another view shares.
    a = np.arange(12, dtype=np.float64).reshape(4, 3)
    out = wire.decode(wire.encode(a, compress_arrays=False))
    assert not out.flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        out[0, 0] = 99.0
    # The documented escape hatch for a consumer that needs to mutate:
    own = np.array(out)
    own[0, 0] = 99.0
    assert out[0, 0] == 0.0


def test_assembler_rejects_bad_magic_and_oversize():
    asm = wire.FrameAssembler()
    asm.feed(b"XXXX" + b"\x00" * 8)
    with pytest.raises(wire.ProtocolError, match="magic"):
        list(asm)
    header = wire._HEADER.pack(wire.MAGIC, wire.PROTO_VERSION, wire.MSG_PING, 0,
                               wire.MAX_PAYLOAD + 1)
    asm2 = wire.FrameAssembler()
    asm2.feed(header)
    with pytest.raises(wire.ProtocolError, match="MAX_PAYLOAD"):
        list(asm2)


def test_assembler_rejects_version_mismatch():
    frame = bytearray(wire.pack_frame(wire.MSG_PING, {}))
    frame[4] = wire.PROTO_VERSION + 1
    asm = wire.FrameAssembler()
    asm.feed(bytes(frame))
    with pytest.raises(wire.ProtocolError, match="version"):
        list(asm)


# -- loopback transport -----------------------------------------------------------
PATIENT = RecoveryOptions(startup_timeout=120.0)


def _echo_transport(policy, n_workers, **options):
    return TcpTransport(
        policy,
        "echo",
        lambda a, lane: (a.seq, lane),
        FarmOptions(n_workers=n_workers, **options),
        recovery=PATIENT,
    )


def test_loopback_echo_farm_completes_and_accounts_bytes():
    policy = make_policy("frame-division-nofc", 8, n_regions=2)
    sink = InMemorySink()
    tel = Telemetry(sinks=(sink,))
    out = _echo_transport(policy, 2, telemetry=tel).run()
    tel.close()
    assert len(out.results) == 16
    assert sorted(seq for seq, _lane in out.results) == list(range(16))
    assert out.net.n_assignments == 16 and out.net.n_results == 16
    assert out.net.bytes_sent > 0 and out.net.bytes_received > 0
    # instant echoes may all drain through whichever daemon boots first,
    # so the second join (and how work splits) is timing-dependent
    assert out.net.n_workers_joined >= 1 and out.net.n_losses == 0
    assert "w0" in out.workers
    for info in out.workers.values():
        assert info["cores"] >= 1 and info["score"] > 0
    validate_events(sink.events)
    names = {r["name"] for r in sink.events}
    assert {"net.listen", "net.worker.join", "net.assign", "net.result"} <= names


@pytest.mark.usefixtures("no_leaks")
def test_injected_worker_kill_is_reassigned():
    # sleep_echo keeps the run alive long enough for both daemons to join;
    # worker 0 dies on its first assignment, whenever that lands.
    policy = make_policy("frame-division-nofc", 10, n_regions=1)
    sink = InMemorySink()
    tel = Telemetry(sinks=(sink,))
    transport = TcpTransport(
        policy,
        "sleep_echo",
        lambda a, lane: (0.15, (a.seq, lane)),
        FarmOptions(
            n_workers=2, fault_plan=FaultPlan([FaultPlan.kill_worker(0, 0)]), telemetry=tel
        ),
        recovery=PATIENT,
    )
    out = transport.run()
    tel.close()
    sup = out.supervisor
    assert len(out.results) == 10
    assert policy.finished
    assert sup.n_crashes >= 1 and sup.n_retries >= 1
    assert out.net.n_losses >= 1
    lost = [r for r in sink.events if r["name"] == "net.worker.lost"]
    assert lost and lost[0]["attrs"]["reason"] == "eof"
    validate_events(sink.events)


@pytest.mark.usefixtures("no_leaks")
def test_older_worker_is_turned_away_at_hello():
    """Master and workers ship from one tree, so the admission floor is
    the current minor: an older HELLO gets a clean SHUTDOWN, never a lane."""
    assert wire.PROTO_MINOR_FLOOR == wire.PROTO_MINOR
    sink = InMemorySink()
    tel = Telemetry(sinks=(sink,))
    policy = make_policy("frame-division-nofc", 1, n_regions=1)
    master = MasterServer(
        policy, "echo", lambda a, lane: (a.seq, lane), accept_timeout=0.5, telemetry=tel
    )
    host, port = master.listen()
    replies = []

    def stale_worker():
        with socket.create_connection((host, port)) as sock:
            wire.send_frame(sock, wire.MSG_HELLO, {
                "proto": wire.PROTO_VERSION, "minor": wire.PROTO_MINOR - 1,
                "host": "old", "pid": 1, "cores": 1, "score": 1.0,
            })
            replies.append(wire.recv_frame(sock))

    thread = threading.Thread(target=stale_worker)
    thread.start()
    with pytest.raises(RuntimeError, match="no workers connected"):
        master.serve()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert replies and replies[0][0] == wire.MSG_SHUTDOWN
    assert master.wire_core.lanes == {} and policy.log == []
    lost = [r for r in sink.events if r["name"] == "net.worker.lost"]
    assert [r["attrs"]["reason"] for r in lost] == ["proto"]


def _unpinged(sock):
    """The next frame that is not a PING (the master pings a lane as soon
    as it registers, for a first clock sample)."""
    while (got := wire.recv_frame(sock))[0] == wire.MSG_PING:
        pass
    return got


@pytest.mark.usefixtures("no_leaks")
def test_malformed_frame_is_a_clean_loss():
    """A registered peer that sends a well-framed payload of junk costs the
    master that lane — an ``error`` loss, its unit requeued — and nothing
    else: the selectors loop keeps serving and a real worker finishes."""
    sink = InMemorySink()
    tel = Telemetry(sinks=(sink,))
    policy = make_policy("frame-division-nofc", 3, n_regions=1)
    master = MasterServer(
        policy, "echo", lambda a, lane: (a.seq, lane), recovery=PATIENT, telemetry=tel
    )
    host, port = master.listen()
    junk_sent = threading.Event()

    def rogue():
        with socket.create_connection((host, port)) as sock:
            wire.send_frame(sock, wire.MSG_HELLO, {
                "proto": wire.PROTO_VERSION, "minor": wire.PROTO_MINOR,
                "host": "rogue", "pid": 1, "cores": 1, "score": 1.0,
            })
            assert wire.recv_frame(sock)[0] == wire.MSG_WELCOME
            assert _unpinged(sock)[0] == wire.MSG_ASSIGN
            sock.sendall(_frame(_MALFORMED["bad-zlib-stream"]))
            junk_sent.set()
            sock.settimeout(10.0)
            assert sock.recv(1) == b""  # the master hung up on us

    client = WorkerClient(host, port, score=1.0, backoff_base=0.1, max_retries=30)

    def honest():
        junk_sent.wait(timeout=30.0)
        client.run()

    threads = [threading.Thread(target=rogue), threading.Thread(target=honest)]
    for t in threads:
        t.start()
    out = master.serve()
    tel.close()
    for t in threads:
        t.join(timeout=10.0)
        assert not t.is_alive()
    assert len(out.results) == 3 and policy.finished
    assert out.net.n_losses == 1 and client.n_rendered == 3
    lost = [r for r in sink.events if r["name"] == "net.worker.lost"]
    assert [(r["attrs"]["worker"], r["attrs"]["reason"]) for r in lost] == [("w0", "error")]
    validate_events(sink.events)


def _hello(**fields) -> dict:
    return {
        "proto": wire.PROTO_VERSION, "minor": wire.PROTO_MINOR,
        "host": "rogue", "pid": 1, "cores": 1, "score": 1.0, **fields,
    }


@pytest.mark.usefixtures("no_leaks")
@pytest.mark.parametrize(
    "msg_type, payload, reason",
    [
        (wire.MSG_HELLO, _hello(cores="many"), "error"),
        (wire.MSG_RESULT, {"result": None, "duration": "soon"}, "error"),
        (wire.MSG_RESULT, {"result": (None, "x", 4, None, np.zeros(4, np.int64), "")}, "invalid"),
    ],
    ids=["hello-cores", "result-duration", "result-frame0"],
)
def test_badly_typed_field_is_a_clean_loss(
    tcp_spec, tcp_grid, serial_reference, msg_type, payload, reason
):
    """A registered peer whose well-framed message carries a field of the
    wrong type — a HELLO's core count, a RESULT's duration, a result in a
    layout the farm's validator refuses (six slots, the second not a
    number) — costs the master that lane (``error`` for a field,
    ``invalid`` for a refused result) and nothing else: the unit is
    requeued and an honest worker renders it bit-identically."""
    from repro.buffers import BufferPool
    from repro.dfb import FrameAssembler
    from repro.net.tasks import spec_to_wire

    sink = InMemorySink()
    tel = Telemetry(sinks=(sink,))
    asm = FrameAssembler(4, 24, 18, pool=BufferPool())
    policy = make_policy("sequence-division-fc", 4, sequence_ranges=[(0, 4)], segment_frames=4)
    spec_wire = spec_to_wire(tcp_spec)
    master = MasterServer(
        policy,
        "render_segment",
        lambda a, lane: (spec_wire, None, a.frame0, a.frame1, 4, a.fresh, "sequence", tcp_grid,
                         False, False, None),
        validate=LocalRenderFarm(tcp_spec, transport="tcp", grid_resolution=12)._validator(asm),
        assembler=asm,
        recovery=PATIENT,
        telemetry=tel,
    )
    host, port = master.listen()
    bad_sent = threading.Event()

    def rogue():
        with socket.create_connection((host, port)) as sock:
            wire.send_frame(sock, wire.MSG_HELLO, _hello())
            assert wire.recv_frame(sock)[0] == wire.MSG_WELCOME
            msg, assign = _unpinged(sock)
            assert msg == wire.MSG_ASSIGN
            wire.send_frame(sock, msg_type, {**payload, "seq": assign["seq"]})
            bad_sent.set()
            sock.settimeout(10.0)
            while sock.recv(1 << 16):
                pass  # until the master hangs up on us

    client = WorkerClient(host, port, score=1.0, backoff_base=0.1, max_retries=30)

    def honest():
        bad_sent.wait(timeout=30.0)
        client.run()

    threads = [threading.Thread(target=rogue), threading.Thread(target=honest)]
    for t in threads:
        t.start()
    out = master.serve()
    tel.close()
    for t in threads:
        t.join(timeout=10.0)
        assert not t.is_alive()
    assert policy.finished and policy.n_reassigned == 1 and client.n_rendered == 1
    lost = [r["attrs"] for r in sink.events if r["name"] == "net.worker.lost"]
    assert [(r["worker"], r["reason"]) for r in lost] == [("w0", reason)]
    assert [a.outcome for a in out.supervisor.attempts] == [reason, "ok"]  # outcome == reason
    assert asm.take_frames().tobytes() == serial_reference.frames.tobytes()
    validate_events(sink.events)


@pytest.mark.usefixtures("no_leaks")
@pytest.mark.parametrize("msg_type", [wire.MSG_RESULT, wire.MSG_ERROR], ids=["result", "error"])
@pytest.mark.parametrize(
    "events", [5, [5], "[", [{"t": "x"}]], ids=["int", "list-of-int", "bad-json", "bad-time"]
)
def test_malformed_events_are_a_clean_loss(msg_type, events):
    """A RESULT's or an ERROR's ``events`` field is a worker's event buffer,
    untrusted like the rest of the frame: one that is not a list of records
    with numeric times costs the master that lane (an ``error`` loss, its
    unit requeued) and nothing else, and an honest worker finishes."""
    sink = InMemorySink()
    tel = Telemetry(sinks=(sink,))
    policy = make_policy("frame-division-nofc", 2, n_regions=1)
    master = MasterServer(
        policy, "echo", lambda a, lane: (a.seq, lane), recovery=PATIENT, telemetry=tel
    )
    host, port = master.listen()
    bad_sent = threading.Event()

    def rogue():
        with socket.create_connection((host, port)) as sock:
            wire.send_frame(sock, wire.MSG_HELLO, _hello())
            assert wire.recv_frame(sock)[0] == wire.MSG_WELCOME
            msg, assign = _unpinged(sock)
            assert msg == wire.MSG_ASSIGN
            wire.send_frame(sock, msg_type, {
                "seq": assign["seq"], "result": assign["args"], "error": "x", "events": events,
            })
            bad_sent.set()
            sock.settimeout(10.0)
            while sock.recv(1 << 16):
                pass  # until the master hangs up on us

    client = WorkerClient(host, port, score=1.0, backoff_base=0.1, max_retries=30)

    def honest():
        bad_sent.wait(timeout=30.0)
        client.run()

    threads = [threading.Thread(target=rogue), threading.Thread(target=honest)]
    for t in threads:
        t.start()
    out = master.serve()
    tel.close()
    for t in threads:
        t.join(timeout=10.0)
        assert not t.is_alive()
    assert policy.finished and policy.n_reassigned == 1 and client.n_rendered == 2
    assert len(out.results) == 2
    lost = [r["attrs"] for r in sink.events if r["name"] == "net.worker.lost"]
    assert [(r["worker"], r["reason"]) for r in lost] == [("w0", "error")]
    validate_events(sink.events)


@pytest.mark.usefixtures("no_leaks")
def test_pong_that_is_not_a_map_is_a_clean_loss():
    """A PONG carries a map like every other message: ``[1, 2]`` from a
    stranger, then from a lane, costs the master that peer (the lane's is
    an ``error`` loss, its unit requeued) and nothing else, and an honest
    worker finishes the run.  ``tests/test_wire_core.py`` walks the rule
    for every message type; this drill runs it through the shell."""
    sink = InMemorySink()
    tel = Telemetry(sinks=(sink,))
    policy = make_policy("frame-division-nofc", 2, n_regions=1)
    master = MasterServer(
        policy, "echo", lambda a, lane: (a.seq, lane), recovery=PATIENT, telemetry=tel
    )
    host, port = master.listen()
    bad_sent = threading.Event()

    def rogue():
        with socket.create_connection((host, port)) as sock:  # before HELLO
            wire.send_frame(sock, wire.MSG_PONG, [1, 2])
            sock.settimeout(10.0)
            assert sock.recv(1) == b""  # the master hung up on us
        with socket.create_connection((host, port)) as sock:  # after it
            wire.send_frame(sock, wire.MSG_HELLO, _hello())
            assert wire.recv_frame(sock)[0] == wire.MSG_WELCOME
            assert _unpinged(sock)[0] == wire.MSG_ASSIGN
            wire.send_frame(sock, wire.MSG_PONG, [1, 2])
            bad_sent.set()
            sock.settimeout(10.0)
            while sock.recv(1 << 16):
                pass  # until the master hangs up on us

    client = WorkerClient(host, port, score=1.0, backoff_base=0.1, max_retries=30)

    def honest():
        bad_sent.wait(timeout=30.0)
        client.run()

    threads = [threading.Thread(target=rogue), threading.Thread(target=honest)]
    for t in threads:
        t.start()
    out = master.serve()
    tel.close()
    for t in threads:
        t.join(timeout=10.0)
        assert not t.is_alive()
    assert policy.finished and policy.n_reassigned == 1 and client.n_rendered == 2
    assert sorted(seq for seq, _lane in out.results) == [1, 2]
    lost = [r["attrs"] for r in sink.events if r["name"] == "net.worker.lost"]
    assert [(r["worker"], r["reason"]) for r in lost] == [("w0", "error")]
    validate_events(sink.events)


@pytest.mark.usefixtures("no_leaks")
def test_task_error_reconnect_then_max_attempts():
    """A worker that errors on its assignment is dropped and reconnects as
    a fresh lane; the same unit failing ``max_attempts`` times fails the
    run loudly instead of looping forever."""
    policy = make_policy("frame-division-nofc", 1, n_regions=1)
    transport = TcpTransport(
        policy,
        "no-such-task",
        lambda a, lane: (a.seq, lane),
        FarmOptions(n_workers=1),
        recovery=RecoveryOptions(max_attempts=2, startup_timeout=120.0),
    )
    with pytest.raises(RuntimeError, match="failed after 2 attempts"):
        transport.run()
    assert transport.master.net.n_losses >= 2


def test_backoff_jitter_is_deterministic_per_worker():
    """Reconnect schedules are seeded by the worker label: the same worker
    always walks the same delays (reproducible drills), different workers
    walk different ones (no thundering herd after a master restart)."""
    mk = lambda label: WorkerClient(  # noqa: E731
        "127.0.0.1", 1, score=1.0, label=label,
        backoff_base=0.2, backoff_cap=3.0, max_retries=10,
    )
    a1 = list(mk("ws-a:1").backoff_delays())
    a2 = list(mk("ws-a:1").backoff_delays())
    b = list(mk("ws-b:1").backoff_delays())
    assert a1 == a2            # same label -> identical schedule
    assert a1 != b             # different labels spread out
    assert len(a1) == 10
    assert all(0.0 < d <= 3.0 for d in a1 + b)  # jitter never breaks the cap
    # The jittered schedule still grows (roughly) exponentially at the start.
    assert a1[0] < 0.2 * 1.5 + 1e-9
    assert all(d == 3.0 or d > a1[0] for d in a1[2:])


def test_worker_connects_before_master_listens():
    """The daemon's backoff loop covers the worker-starts-first race."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    client = WorkerClient("127.0.0.1", port, score=1.0, backoff_base=0.1, max_retries=30)
    exit_code = {}
    t = threading.Thread(target=lambda: exit_code.setdefault("rc", client.run()), daemon=True)
    t.start()
    time.sleep(0.35)  # let at least one connection attempt fail

    policy = make_policy("frame-division-nofc", 3, n_regions=1)
    master = MasterServer(
        policy, "echo", lambda a, lane: (a.seq, lane), port=port, recovery=PATIENT
    )
    master.listen()
    out = master.serve()
    t.join(timeout=10.0)
    assert len(out.results) == 3
    assert exit_code.get("rc") == 0  # clean SHUTDOWN
    assert client.n_rendered == 3


@pytest.mark.usefixtures("no_leaks")
def test_exec_daemon_serves_its_units_and_exits_on_shutdown():
    """The loopback crew is forked, but a remote workstation still joins
    by exec'ing ``python -m repro.worker``: that daemon registers, serves
    every unit and exits 0 on SHUTDOWN."""
    policy = make_policy("frame-division-nofc", 4, n_regions=1)
    master = MasterServer(policy, "echo", lambda a, lane: (a.seq, lane), recovery=PATIENT)
    _host, port = master.listen()
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.worker", "--connect", f"127.0.0.1:{port}", "--score", "1.0"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        out = master.serve()
        assert proc.wait(timeout=30.0) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert sorted(out.results) == [(seq, "w0") for seq in range(4)]
    assert out.workers["w0"]["n_done"] == 4 and out.net.n_losses == 0


def test_a_master_is_freed_without_the_cycle_collector():
    """Nothing a master owns refers back to it, so a finished run's frames
    and ledgers go with its last reference, not at the next collection
    (a bound method handed to its core kept sharded runs' frames alive)."""
    import gc
    import weakref

    gc.disable()
    try:
        master = MasterServer(make_policy("single", 1), "echo", lambda a, lane: None)
        freed = weakref.ref(master)
        del master
        assert freed() is None
    finally:
        gc.enable()


@pytest.mark.usefixtures("no_leaks")
def test_master_times_out_with_no_workers():
    policy = make_policy("frame-division-nofc", 1, n_regions=1)
    master = MasterServer(
        policy, "echo", lambda a, lane: (a.seq, lane), accept_timeout=0.3
    )
    master.listen()
    with pytest.raises(RuntimeError, match="no workers connected"):
        master.serve()


# -- the full render path over TCP ------------------------------------------------
@pytest.fixture(scope="module")
def tcp_spec():
    return AnimationSpec.newton(n_frames=4, width=24, height=18)


@pytest.fixture(scope="module")
def tcp_grid(tcp_spec):
    """The ``render_segment`` task's grid field: ``(resolution, lo, hi)``,
    the bounds a farm's master sweeps from every frame."""
    from repro.coherence import grid_for_animation

    bounds = grid_for_animation(tcp_spec.build(), 12).bounds
    return (12, tuple(bounds.lo.tolist()), tuple(bounds.hi.tolist()))


@pytest.fixture(scope="module")
def serial_reference(tcp_spec):
    farm = LocalRenderFarm(tcp_spec, executor="serial", grid_resolution=12)
    return farm.render_reference()


@pytest.fixture(scope="module")
def serial_rays(tcp_spec):
    """The rays of one coherent renderer over the whole shot."""
    from repro.api import render

    return render(workload=tcp_spec, engine="animation", grid_resolution=12).stats.total


def test_tcp_farm_bit_identical_to_serial(tcp_spec, serial_reference, serial_rays):
    farm = LocalRenderFarm(
        tcp_spec, n_workers=2, schedule="adaptive", transport="tcp", grid_resolution=12
    )
    out = farm.render()
    # pixels must match bit-for-bit; ray *counts* legitimately differ
    # (two chains mean two fresh starts vs the reference's one)
    assert out.frames.tobytes() == serial_reference.frames.tobytes()
    assert out.stats.total >= serial_rays


def test_tcp_serves_the_static_unit_list(tcp_spec, serial_reference, serial_rays):
    """The static schedule is a policy like the others, so sockets serve
    it: 12 whole-animation block chains, the serial tracer's ray count."""
    out = LocalRenderFarm(
        tcp_spec, n_workers=2, schedule="static", transport="tcp", grid_resolution=12
    ).render()
    assert (out.mode, out.n_tasks) == ("frame", 12)
    assert out.net.n_tiles == 12 * 4  # a 6x6 block is one tile per frame
    assert out.frames.tobytes() == serial_reference.frames.tobytes()
    assert out.stats.total == serial_rays


@pytest.mark.usefixtures("no_leaks")
def test_tcp_spool_survives_mid_unit_kill(tcp_spec, serial_reference, tmp_path):
    """A daemon dies inside a unit: its landed frames are salvaged, the
    remainder re-renders elsewhere, and the checkpoint written for that
    unit still holds the unit's whole range — a resume re-renders nothing."""
    kw = dict(n_workers=2, schedule="static", transport="tcp", grid_resolution=12)
    run_dir = tmp_path / "run"
    # The kill hook counts frame events, so the doomed run needs telemetry.
    tel = Telemetry(sinks=(InMemorySink(),))
    out = LocalRenderFarm(
        tcp_spec, fault_plan=FaultPlan([FaultPlan.kill_worker(0, 2, "frames")]),
        telemetry=tel, **kw
    ).render(run_dir=run_dir)
    tel.close()
    assert out.n_crashes >= 1 and out.net.n_frames_salvaged >= 1
    assert out.frames.tobytes() == serial_reference.frames.tobytes()
    assert len(list(run_dir.glob("task_*.npz"))) == 12
    again = LocalRenderFarm(tcp_spec, **kw).render(run_dir=run_dir)
    assert again.n_from_checkpoint == 12 and again.attempts == []
    assert again.frames.tobytes() == serial_reference.frames.tobytes()


def test_tcp_farm_streams_tiles_with_telemetry(tcp_spec, serial_reference):
    """Tiling must actually stream (no silent whole-frame fallback): every
    frame's pixels arrive via MSG_TILE, the RESULT ships none, and the
    dfb.tile events validate against the pinned schema."""
    sink = InMemorySink()
    tel = Telemetry(sinks=(sink,))
    farm = LocalRenderFarm(
        tcp_spec, n_workers=2, schedule="adaptive", transport="tcp",
        grid_resolution=12, tile_px=16, telemetry=tel,
    )
    out = farm.render()
    tel.close()
    assert out.frames.tobytes() == serial_reference.frames.tobytes()
    net = out.net
    assert net.n_tiles >= tcp_spec.build().n_frames  # >= one tile per frame
    assert net.t_first_tile is not None and net.t_first_result is not None
    assert net.t_first_tile <= net.t_first_result
    # Streaming RESULTs carry bookkeeping only — tiles dominate the wire.
    assert net.max_msg_bytes["tile"] > net.max_msg_bytes["result"]
    validate_events(sink.events)
    tile_events = [r for r in sink.events if r["name"] == "dfb.tile"]
    assert len(tile_events) == net.n_tiles
    frames_seen = {r["attrs"]["frame"] for r in tile_events}
    assert frames_seen == set(range(tcp_spec.build().n_frames))


@pytest.mark.parametrize("tile_px", [0, -4])
def test_tile_edge_must_be_positive(tcp_spec, tile_px):
    """There is no untiled wire to fall back to: a tile edge is ``None``
    (the default) or >= 1, refused before anything is spawned."""
    from repro.cli import build_parser

    with pytest.raises(ValueError, match="tile_px"):
        LocalRenderFarm(tcp_spec, transport="tcp", tile_px=tile_px)
    with pytest.raises(SystemExit):
        build_parser().parse_args(["farm", "newton", f"--tile-px={tile_px}"])


@pytest.mark.usefixtures("no_leaks")
def test_result_carrying_pixels_passes_the_compositor_gate(tcp_spec, tcp_grid, serial_reference):
    """A worker that ignores the tile directive and ships its pixels in the
    RESULT meets the gate a pool unit meets: a block with a NaN in it loses
    the lane (``invalid``) and nothing of it is folded in; an honest block
    is composited whole, untiled, and accepted."""
    from repro.buffers import BufferPool
    from repro.dfb import FrameAssembler
    from repro.net.tasks import render_segment, spec_to_wire

    farm = LocalRenderFarm(tcp_spec, transport="tcp", grid_resolution=12)
    asm = FrameAssembler(4, 24, 18, pool=BufferPool())
    policy = make_policy("sequence-division-fc", 4, sequence_ranges=[(0, 4)], segment_frames=4)
    spec_wire = spec_to_wire(tcp_spec)
    master = MasterServer(
        policy,
        "render_segment",
        lambda a, lane: (spec_wire, None, a.frame0, a.frame1, 4, a.fresh, "sequence", tcp_grid,
                         False, False, None),
        validate=farm._validator(asm),
        assembler=asm,
        recovery=PATIENT,
    )
    host, port = master.listen()
    offered = []

    def stubborn(args, emit_tile=None):
        offered.append(emit_tile is not None)
        frames, counts, events = render_segment(args)
        if len(offered) == 1:
            frames[1, 2, 3, 0] = np.nan
        return frames, counts, events

    stubborn.streaming = True
    client = WorkerClient(
        host, port, score=1.0, registry={"render_segment": stubborn},
        backoff_base=0.1, max_retries=30,
    )
    thread = threading.Thread(target=client.run)
    thread.start()
    out = master.serve()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert offered == [True, True]  # the sink was offered both times
    assert [a.outcome for a in out.supervisor.attempts] == ["invalid", "ok"]
    assert out.supervisor.n_invalid == 1 and out.net.n_losses == 1
    assert asm.n_tiles == 0 and out.net.n_frames_salvaged == 0  # nothing came as tiles
    assert asm.take_frames().tobytes() == serial_reference.frames.tobytes()


# -- TILE: pixel tiles and hold records from an untrusted worker ---------------------
_TILE_PX = 8  # a 24x18 frame is 3x3 tiles
_HALVES = [(0, 0, 16, 18), (16, 0, 24, 18)]  # the frame-division layout below


def _pixel_tiles(image, frame, box):
    from repro.dfb import tile_rects

    x0, y0, x1, y1 = box
    return [
        {"frame": frame, "x0": tx0, "y0": ty0, "x1": tx1, "y1": ty1,
         "pixels": np.ascontiguousarray(image[ty0:ty1, tx0:tx1])}
        for tx0, ty0, tx1, ty1 in tile_rects(x0, y0, x1, y1, _TILE_PX)
    ]


def _held(frame, *rects):
    return {"frame": frame, "held": list(rects)}


#: name -> (layout, mutate).  ``mutate(assign, ref)`` is the TILE payloads a
#: rogue sends for one ASSIGN, or None to render that unit honestly first.
#: Each hold mutation breaks exactly one acceptance rule of the master.
_TILE_MUTATIONS = {
    "pixels-missing": ("sequence", lambda a, ref: [{"frame": a["frame0"], "x0": 0, "y0": 0,
                                                    "x1": 8, "y1": 8}]),
    "pixels-shape": ("sequence", lambda a, ref: [{"frame": a["frame0"], "x0": 0, "y0": 0,
                                                  "x1": 16, "y1": 8,
                                                  "pixels": np.zeros((8, 8, 3))}]),
    "pixels-off-frame": ("sequence", lambda a, ref: [{"frame": a["frame0"], "x0": 16, "y0": 0,
                                                      "x1": 32, "y1": 8,
                                                      "pixels": np.zeros((8, 16, 3))}]),
    "pixels-nan": ("sequence", lambda a, ref: [{"frame": a["frame0"], "x0": 0, "y0": 0,
                                                "x1": 8, "y1": 8,
                                                "pixels": np.full((8, 8, 3), np.nan)}]),
    "frame-not-a-number": ("sequence", lambda a, ref: [_held("one", (0, 0, 8, 8))]),
    "held-not-rects": ("sequence", lambda a, ref: [_held(a["frame0"] + 1, (0, 0, 8))]),
    "hold-frame-0": ("sequence", lambda a, ref: [_held(0, (0, 0, 8, 8))]
                     if a["frame0"] == 0 else None),
    "hold-fresh-frame0": ("sequence", lambda a, ref: None if a["frame0"] == 0 else [
        *_pixel_tiles(ref[1], 1, (0, 0, 24, 18)), _held(2, (0, 0, 8, 8))]),
    "hold-outside-box": ("halves", lambda a, ref: [  # frame 0 covered, the rect is the
        *_pixel_tiles(ref[0], 0, (0, 0, 24, 18)),      # other half's
        _held(1, (16, 0, 24, 8) if a["region"] == 0 else (0, 0, 8, 8)),
    ]),
    "hold-uncovered": ("sequence", lambda a, ref: [_held(a["frame0"] + 1, (0, 0, 8, 8))]),
}


def _tile_master(layout, tcp_spec, tcp_grid, asm, tel):
    """A tiling master for the 4-frame spec: two fresh two-frame chains of
    whole frames (``sequence``), or two half-frame blocks (``halves``)."""
    from repro.net.tasks import spec_to_wire

    spec_wire = spec_to_wire(tcp_spec)
    if layout == "sequence":
        policy = make_policy(
            "sequence-division-fc", 4, sequence_ranges=[(0, 2), (2, 4)], segment_frames=2
        )
        box_of = lambda a: None  # noqa: E731
    else:
        policy = make_policy("frame-division-fc", 4, n_regions=2)
        box_of = lambda a: _HALVES[a.region_index]  # noqa: E731
    master = MasterServer(
        policy,
        "render_segment",
        lambda a, lane: (spec_wire, box_of(a), a.frame0, a.frame1, 4, a.fresh, layout,
                         tcp_grid, False, False, None),
        validate=LocalRenderFarm(tcp_spec, transport="tcp", grid_resolution=12)._validator(asm),
        assembler=asm,
        tile_px=_TILE_PX,
        tile_box=box_of,
        recovery=PATIENT,
        telemetry=tel,
    )
    return master, policy


def _rogue_drill(layout, mutate, tcp_spec, tcp_grid, ref):
    """A rogue lane renders honestly until ``mutate(assign, ref)`` returns
    the payloads it sends instead (a RESULT where one has a ``result``,
    else a TILE); then an honest worker joins.  Checks that the run ends
    bit-identical with a valid event stream; returns the outcome and the
    ``(worker, reason)`` of every lost lane."""
    from repro.buffers import BufferPool
    from repro.dfb import FrameAssembler
    from repro.runtime.local import ROW

    sink = InMemorySink()
    tel = Telemetry(sinks=(sink,))
    asm = FrameAssembler(4, 24, 18, pool=BufferPool())
    master, policy = _tile_master(layout, tcp_spec, tcp_grid, asm, tel)
    host, port = master.listen()
    bad_sent = threading.Event()

    def rogue():
        with socket.create_connection((host, port)) as sock:
            wire.send_frame(sock, wire.MSG_HELLO, _hello())
            assert wire.recv_frame(sock)[0] == wire.MSG_WELCOME
            while True:
                msg, assign = _unpinged(sock)
                assert msg == wire.MSG_ASSIGN
                seq, f0, f1 = assign["seq"], assign["frame0"], assign["frame1"]
                sends = mutate(assign, ref)
                if sends is not None:
                    break
                box = (0, 0, 24, 18)  # an honest unit, streamed from the reference
                for f in range(f0, f1):
                    for tile in _pixel_tiles(ref[f], f, box):
                        wire.send_frame(sock, wire.MSG_TILE, {"seq": seq, **tile})
                counts = np.zeros((f1 - f0, ROW), np.int64)
                wire.send_frame(sock, wire.MSG_RESULT, {
                    "seq": seq, "result": (None, counts, ""), "duration": 0.0, "events": [],
                })
            for p in sends:
                msg = wire.MSG_RESULT if "result" in p else wire.MSG_TILE
                wire.send_frame(sock, msg, {"seq": seq, **p})
            bad_sent.set()
            sock.settimeout(10.0)
            while sock.recv(1 << 16):
                pass  # until the master hangs up on us

    client = WorkerClient(host, port, score=1.0, backoff_base=0.1, max_retries=30)

    def honest():
        bad_sent.wait(timeout=30.0)
        client.run()

    threads = [threading.Thread(target=rogue), threading.Thread(target=honest)]
    for t in threads:
        t.start()
    out = master.serve()
    tel.close()
    for t in threads:
        t.join(timeout=10.0)
        assert not t.is_alive()
    assert policy.finished
    assert asm.take_frames().tobytes() == ref.tobytes()
    validate_events(sink.events)
    lost = [r["attrs"] for r in sink.events if r["name"] == "net.worker.lost"]
    return out, [(r["worker"], r["reason"]) for r in lost]


@pytest.mark.usefixtures("no_leaks")
@pytest.mark.parametrize("name", _TILE_MUTATIONS, ids=list(_TILE_MUTATIONS))
def test_malformed_tile_is_an_invalid_loss(tcp_spec, tcp_grid, serial_reference, name):
    """A TILE, pixel form or hold record, that the master cannot composite
    honestly — out of the frame, misshapen, not finite — costs that lane
    (``invalid``, "malformed TILE") and nothing else: serve() keeps going,
    nothing of the record is folded in, and an honest worker finishes the
    animation bit-identically.  A hold record is accepted only for f >= 1,
    past a fresh unit's first frame, inside the unit's box and over a frame
    f-1 the master already covers."""
    layout, mutate = _TILE_MUTATIONS[name]
    out, lost = _rogue_drill(layout, mutate, tcp_spec, tcp_grid, serial_reference.frames)
    assert lost == [("w0", "invalid")]
    assert out.supervisor.n_invalid == 1


@pytest.mark.usefixtures("no_leaks")
def test_result_outside_its_assignment_is_an_invalid_loss(tcp_spec, tcp_grid, serial_reference):
    """The gate reads a unit's range from its assignment, never from the
    worker: a lane that streams the first frame of its two-frame unit, then
    sends a RESULT whose counts cover no frame of it, is lost (``invalid``)
    instead of accepted.  The frame it streamed is salvaged, and an honest
    worker renders the rest bit-identically."""
    from repro.runtime.local import ROW

    def mutate(a, ref):
        f0 = a["frame0"]
        return [*_pixel_tiles(ref[f0], f0, (0, 0, 24, 18)), {
            "result": (None, np.zeros((0, ROW), np.int64), ""), "duration": 0.0, "events": [],
        }]

    out, lost = _rogue_drill("sequence", mutate, tcp_spec, tcp_grid, serial_reference.frames)
    assert lost == [("w0", "invalid")]
    assert out.supervisor.n_invalid == 1 and out.net.n_frames_salvaged == 1


@pytest.mark.usefixtures("no_leaks")
def test_worker_lost_mid_stream_after_hold_records(tcp_grid):
    """A held shot: frame 0 ships pixels, every later tile is a hold record.
    The worker dies after holding frame 1 and the top band of frame 2: the
    master salvages frames 0-1, the replacement is told to skip the band,
    and the composite is bit-identical at a fraction of the pixel bytes.
    The dfb.tile events still add up to the TILE bytes received."""
    from repro.buffers import BufferPool
    from repro.dfb import FrameAssembler
    from repro.net.tasks import render_segment, spec_to_wire

    spec = AnimationSpec.newton(n_frames=4, width=24, height=18, swing_degrees=0.0)
    reference = LocalRenderFarm(spec, executor="serial", grid_resolution=12).render_reference()
    sink = InMemorySink()
    tel = Telemetry(sinks=(sink,))
    asm = FrameAssembler(4, 24, 18, pool=BufferPool())
    policy = make_policy("sequence-division-fc", 4, sequence_ranges=[(0, 4)], segment_frames=4)
    spec_wire = spec_to_wire(spec)
    master = MasterServer(
        policy,
        "render_segment",
        lambda a, lane: (spec_wire, None, a.frame0, a.frame1, 4, a.fresh, "sequence", tcp_grid,
                         False, False, None),
        validate=LocalRenderFarm(spec, transport="tcp", grid_resolution=12)._validator(asm),
        assembler=asm,
        tile_px=_TILE_PX,
        recovery=PATIENT,
        telemetry=tel,
    )
    host, port = master.listen()
    skips, changed_seen = [], []

    def dying(args, emit_tile=None):
        skips.append(set(emit_tile.skip))
        if len(skips) > 1:
            return render_segment(args, emit_tile=emit_tile)

        def stream(frame, x0, y0, image, changed):
            changed_seen.append(bool(changed.any()))
            if frame < 2:
                return emit_tile(frame, x0, y0, image, changed)
            emit_tile(frame, x0, y0, image[:8], changed[:8])  # the top band, held...
            emit_tile.sock.shutdown(socket.SHUT_RDWR)  # ...and the workstation dies
            raise ConnectionError("killed mid-stream")

        return render_segment(args, emit_tile=stream)

    dying.streaming = True
    client = WorkerClient(
        host, port, score=1.0, registry={"render_segment": dying},
        backoff_base=0.1, max_retries=30,
    )
    thread = threading.Thread(target=client.run)
    thread.start()
    out = master.serve()
    tel.close()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert changed_seen == [True, False, False]  # frame 0 recomputes, the hold does not
    assert out.net.n_losses == 1 and out.net.n_frames_salvaged == 2
    assert skips == [set(), {(2, 0, 0, 8, 8), (2, 8, 0, 16, 8), (2, 16, 0, 24, 8)}]
    assert asm.take_frames().tobytes() == reference.frames.tobytes()
    frame_bytes = 24 * 18 * 3 * 8
    assert out.net.tile_bytes < 2 * frame_bytes  # shipping every frame is four
    tiles = [r["attrs"] for r in sink.events if r["name"] == "dfb.tile"]
    assert len(tiles) == out.net.n_tiles == 9 + 9 + 3 + 6 + 9
    assert sum(t["nbytes"] for t in tiles) == out.net.tile_bytes
    validate_events(sink.events)
