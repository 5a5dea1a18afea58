"""The ``repro.net`` wire protocol: length-prefixed binary frames over TCP.

The paper's farm spoke PVM; ours speaks a deliberately tiny protocol that
needs nothing beyond the stdlib and numpy.  Every message on the wire is
one **frame**::

    +--------+---------+----------+---------+-------------+----------------+
    | magic  | version | msg_type | flags   | payload_len | payload bytes  |
    | 4s     | u8      | u8       | u16     | u32         | payload_len    |
    +--------+---------+----------+---------+-------------+----------------+

followed by a self-describing binary **payload** encoding a restricted
value set (msgpack-free on purpose — no third-party codec): ``None``,
bools, 64-bit ints, doubles, UTF-8 strings, raw bytes, lists, tuples,
dicts and numpy arrays.  Tuples and lists round-trip as distinct types so
task results keep their exact Python shape across the hop, and numpy
arrays carry dtype + shape + raw buffer — ``float64`` framebuffers are
therefore **bit-identical** after transport.

Arrays above ``compress_min_bytes`` may be zlib-compressed individually
("tile compression": the framebuffer tiles are the only large values on
the wire, so compressing at the array level gets all of the win without
touching the cheap metadata around it).  Compression is recorded per
array and is transparent to the decoder.

Message types
-------------
==========  =========  ====================================================
name        direction  payload
==========  =========  ====================================================
HELLO       w -> m     {proto, minor, host, pid, cores, score}
WELCOME     m -> w     {worker, heartbeat_interval, compress, proto}
ASSIGN      m -> w     {seq, region, frame0, frame1, fresh, coherent,
                        task, args}
RESULT      w -> m     {seq, result, duration, events}
TILE        w -> m     {seq, frame, x0, y0, x1, y1, pixels}  (streamed
                       before the closing RESULT, when ASSIGN carried a
                       tile directive), or the hold record {seq, frame,
                       held: [(x0, y0, x1, y1), ...]}: tiles whose pixels
                       are those of frame - 1 (minor 6)
RAYS        m <-> w    {rid, shard, frame, k, op, spec, arrays...} — a ray
                       batch routed to a shard owner (op nearest/occlude);
                       the owner answers with the same type + rid
                       (minor 4, object-space sharding)
SHADE       m <-> w    {rid, shard, frame, k, spec, obj, points} — pigment
                       and finish fetch for hits owned by a shard; answered
                       in kind (minor 4)
BLACKBOX    w -> m     {role, pid, reason, records} — a reconnecting
                       worker ships the flight-recorder dump its previous
                       incarnation left (minor 5, observability plane)
PING        m -> w     {t}
PONG        w -> m     {t, tw}  (t echoes the ping; tw is the worker's
                       clock at the reply — rtt and skew for the master)
ERROR       w -> m     {seq, error, events}
SHUTDOWN    m -> w     {}
JOB_SUBMIT  c -> s     {spec, priority, owner, max_attempts}
JOB_STATUS  c <-> s    request {job} / reply {ok, job | jobs, service, error}
JOB_CANCEL  c -> s     {job}
==========  =========  ====================================================

The ``JOB_*`` types are the **control plane** of the persistent render
service (:mod:`repro.service`): clients (``c``) speak them to a
``repro serve`` daemon (``s``) on its control port, over the same framed
codec the workers use.  The service always answers with a JOB_STATUS
frame, so a client needs exactly one request/reply exchange per call.

Versioning: the frame header's ``version`` byte is the *framing* major —
a mismatch there is a different wire language and fails at the first
frame.  ``PROTO_MINOR`` rides in the HELLO payload instead: it gates
vocabulary both sides must speak (minor 1 added PONG's ``tw`` clock
sample and the trace context inside task args), and the master rejects a
worker older than ``PROTO_MINOR_FLOOR`` *cleanly* at HELLO — SHUTDOWN,
which every revision understands — rather than with a framing error
mid-run.  Master and workers ship from one tree, so the floor is the
current minor: there is no older fleet to negotiate capabilities with.
"""

from __future__ import annotations

import math
import struct
import zlib
from collections import deque

import numpy as np

from ..buffers import copystats

__all__ = [
    "PROTO_VERSION",
    "PROTO_MINOR",
    "PROTO_MINOR_FLOOR",
    "MAGIC",
    "MSG_HELLO",
    "MSG_WELCOME",
    "MSG_ASSIGN",
    "MSG_RESULT",
    "MSG_PING",
    "MSG_PONG",
    "MSG_ERROR",
    "MSG_SHUTDOWN",
    "MSG_JOB_SUBMIT",
    "MSG_JOB_STATUS",
    "MSG_JOB_CANCEL",
    "MSG_TILE",
    "MSG_RAYS",
    "MSG_SHADE",
    "MSG_BLACKBOX",
    "MSG_NAMES",
    "ProtocolError",
    "encode",
    "encode_parts",
    "decode",
    "pack_frame",
    "pack_frame_parts",
    "send_frame",
    "recv_frame",
    "FrameAssembler",
]

PROTO_VERSION = 1
#: Vocabulary revision negotiated at HELLO (see the module doc).  Minor 1:
#: PONG carries ``tw`` and task args carry the repro.obs trace context.
#: Minor 2: the JOB_SUBMIT/JOB_STATUS/JOB_CANCEL control-plane types for
#: the persistent render service (workers are unaffected, but both sides
#: of a farm must agree on the full message-type table).
#: Minor 3: TILE streaming — workers receive a tile directive in ASSIGN
#: when the run composites tiles and ship finished tiles incrementally (the
#: distributed framebuffer); the closing RESULT then omits the pixels.
#: Minor 4: RAYS/SHADE — object-space sharding.  The master routes
#: wavefront ray batches to shard owners (``MSG_RAYS`` with op
#: ``nearest``/``occlude``) and fetches pigment/finish data for hits
#: (``MSG_SHADE``); owners answer with the same message type and a
#: request id.
#: Minor 5: BLACKBOX — a reconnecting worker ships the flight-recorder
#: dump its dead predecessor wrote, so the master can stitch the victim's
#: last seconds into the merged trace.  Purely additive: masters ignore
#: the type from workers that never send it, older workers never do.
#: Minor 6: TILE hold records — a tile in which the frame recomputed no
#: pixel travels without pixels, listed in one ``held`` record per frame,
#: and the master copies its own frame ``f - 1`` there.
PROTO_MINOR = 6
#: Oldest worker vocabulary the master still serves: the current one.
#: Anything older is rejected at HELLO.
PROTO_MINOR_FLOOR = PROTO_MINOR
MAGIC = b"RNW1"

MSG_HELLO = 1
MSG_WELCOME = 2
MSG_ASSIGN = 3
MSG_RESULT = 4
MSG_PING = 5
MSG_PONG = 6
MSG_ERROR = 7
MSG_SHUTDOWN = 8
MSG_JOB_SUBMIT = 9
MSG_JOB_STATUS = 10
MSG_JOB_CANCEL = 11
MSG_TILE = 12
MSG_RAYS = 13
MSG_SHADE = 14
MSG_BLACKBOX = 15

MSG_NAMES = {
    MSG_HELLO: "hello",
    MSG_WELCOME: "welcome",
    MSG_ASSIGN: "assign",
    MSG_RESULT: "result",
    MSG_PING: "ping",
    MSG_PONG: "pong",
    MSG_ERROR: "error",
    MSG_SHUTDOWN: "shutdown",
    MSG_JOB_SUBMIT: "job_submit",
    MSG_JOB_STATUS: "job_status",
    MSG_JOB_CANCEL: "job_cancel",
    MSG_TILE: "tile",
    MSG_RAYS: "rays",
    MSG_SHADE: "shade",
    MSG_BLACKBOX: "blackbox",
}

_HEADER = struct.Struct("!4sBBHI")
HEADER_SIZE = _HEADER.size

#: Hard ceiling on one frame's payload — a corrupted length prefix must
#: fail fast, not trigger a multi-gigabyte allocation.
MAX_PAYLOAD = 1 << 30

_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")


class ProtocolError(RuntimeError):
    """Malformed frame or unencodable value on the repro.net wire."""


# -- value encoding ---------------------------------------------------------------
def _encode_into(out: list, obj, compress_arrays: bool, min_bytes: int) -> None:
    if obj is None:
        out.append(b"N")
    elif obj is True:
        out.append(b"T")
    elif obj is False:
        out.append(b"F")
    elif isinstance(obj, (int, np.integer)):
        v = int(obj)
        if not (-(1 << 63) <= v < (1 << 63)):
            raise ProtocolError(f"integer out of 64-bit range: {v}")
        out.append(b"i" + _I64.pack(v))
    elif isinstance(obj, (float, np.floating)):
        out.append(b"f" + _F64.pack(float(obj)))
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out.append(b"s" + _U32.pack(len(raw)) + raw)
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        raw = bytes(obj)
        out.append(b"b" + _U32.pack(len(raw)) + raw)
    elif isinstance(obj, np.ndarray):
        _encode_array(out, obj, compress_arrays, min_bytes)
    elif isinstance(obj, (list, tuple)):
        tag = b"t" if isinstance(obj, tuple) else b"l"
        out.append(tag + _U32.pack(len(obj)))
        for item in obj:
            _encode_into(out, item, compress_arrays, min_bytes)
    elif isinstance(obj, dict):
        out.append(b"d" + _U32.pack(len(obj)))
        for key, value in obj.items():
            _encode_into(out, key, compress_arrays, min_bytes)
            _encode_into(out, value, compress_arrays, min_bytes)
    else:
        raise ProtocolError(f"unencodable type {type(obj).__name__!r} on the wire")


def _encode_array(out: list, a: np.ndarray, compress: bool, min_bytes: int) -> None:
    if a.ndim:  # ascontiguousarray would promote a 0-d array to 1-d
        if not a.flags.c_contiguous:
            copystats.add(a.nbytes, "encode.contig")
        a = np.ascontiguousarray(a)
    dtype = a.dtype.str.encode("ascii")
    if a.ndim and a.size:
        # A byte-window over the array's own storage; sendmsg gathers it
        # straight off the frame buffer.
        raw = memoryview(a).cast("B")
    else:  # a scalar or nothing at all: no buffer to take a window of
        raw = a.tobytes()
    nbytes = a.nbytes
    packed = zlib.compress(raw) if compress and nbytes >= min_bytes else None
    # Incompressible data (already-noisy framebuffers) can grow under zlib;
    # keep whichever representation is smaller.
    if packed is not None and len(packed) >= nbytes:
        packed = None
    data = raw if packed is None else packed
    out.append(b"a" + struct.pack("!B", len(dtype)) + dtype)
    out.append(struct.pack("!B", a.ndim))
    for dim in a.shape:
        out.append(_U64.pack(dim))
    out.append(struct.pack("!B", 0 if packed is None else 1))
    out.append(_U64.pack(_nbytes(data)))
    out.append(data)


def _nbytes(part) -> int:
    return part.nbytes if isinstance(part, memoryview) else len(part)


#: Array views at or above this size stay their own scatter-gather part;
#: anything smaller is cheaper to memcpy into the neighboring metadata
#: run than to spend an iovec slot on.
_COALESCE_BELOW = 4096


def _coalesce(parts: list) -> list:
    """Merge runs of small fragments; keep large array views zero-copy."""
    merged: list = []
    acc = bytearray()
    for part in parts:
        if isinstance(part, memoryview) and part.nbytes >= _COALESCE_BELOW:
            if acc:
                merged.append(bytes(acc))
                acc = bytearray()
            merged.append(part)
        else:
            acc += part
    if acc:
        merged.append(bytes(acc))
    return merged


def encode_parts(
    obj, *, compress_arrays: bool = False, compress_min_bytes: int = 4096
) -> list:
    """Serialize ``obj`` to a list of buffers (bytes and memoryviews).

    Large array buffers come back as memoryviews over the arrays' own
    storage — the zero-copy send path hands them to ``sendmsg`` as-is.
    The caller must not mutate those arrays until the parts are sent.
    """
    out: list = []
    _encode_into(out, obj, compress_arrays, compress_min_bytes)
    return _coalesce(out)


def encode(obj, *, compress_arrays: bool = False, compress_min_bytes: int = 4096) -> bytes:
    """Serialize ``obj`` to payload bytes (see the module doc for types)."""
    return b"".join(
        encode_parts(obj, compress_arrays=compress_arrays, compress_min_bytes=compress_min_bytes)
    )


class _Reader:
    """Cursor over a payload buffer; ``take`` returns zero-copy windows."""

    __slots__ = ("data", "pos", "size")

    def __init__(self, data):
        mv = data if isinstance(data, memoryview) else memoryview(data)
        if mv.format != "B":
            mv = mv.cast("B")
        self.data = mv
        self.pos = 0
        self.size = mv.nbytes

    def take(self, n: int) -> memoryview:
        end = self.pos + n
        if end > self.size:
            raise ProtocolError("truncated payload")
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def take_byte(self) -> int:
        if self.pos >= self.size:
            raise ProtocolError("truncated payload")
        value = self.data[self.pos]
        self.pos += 1
        return value


_T_NONE, _T_TRUE, _T_FALSE = ord("N"), ord("T"), ord("F")
_T_INT, _T_FLOAT, _T_STR, _T_BYTES = ord("i"), ord("f"), ord("s"), ord("b")
_T_LIST, _T_TUPLE, _T_DICT, _T_ARRAY = ord("l"), ord("t"), ord("d"), ord("a")


def _text(raw: memoryview, encoding: str) -> str:
    try:
        return str(raw, encoding)
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"invalid {encoding} text: {exc}") from None


def _decode_one(r: _Reader):
    tag = r.take_byte()
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return _I64.unpack(r.take(8))[0]
    if tag == _T_FLOAT:
        return _F64.unpack(r.take(8))[0]
    if tag == _T_STR:
        (n,) = _U32.unpack(r.take(4))
        return _text(r.take(n), "utf-8")
    if tag == _T_BYTES:
        (n,) = _U32.unpack(r.take(4))
        return bytes(r.take(n))
    if tag in (_T_LIST, _T_TUPLE):
        (n,) = _U32.unpack(r.take(4))
        items = [_decode_one(r) for _ in range(n)]
        return tuple(items) if tag == _T_TUPLE else items
    if tag == _T_DICT:
        (n,) = _U32.unpack(r.take(4))
        out = {}
        for _ in range(n):
            key, value = _decode_one(r), _decode_one(r)
            try:
                out[key] = value
            except TypeError:
                raise ProtocolError(f"unhashable dict key ({type(key).__name__})") from None
        return out
    if tag == _T_ARRAY:
        dlen = r.take_byte()
        name = _text(r.take(dlen), "ascii")
        try:
            dtype = np.dtype(name)
        except (TypeError, ValueError):
            raise ProtocolError(f"unknown array dtype {name!r}") from None
        if dtype.kind not in "biufc":  # no object/void/string arrays off the wire
            raise ProtocolError(f"array dtype {name!r} is not numeric")
        ndim = r.take_byte()
        shape = tuple(_U64.unpack(r.take(8))[0] for _ in range(ndim))
        compressed = r.take_byte()
        (nbytes,) = _U64.unpack(r.take(8))
        data = r.take(nbytes)
        expect = math.prod(shape) * dtype.itemsize
        if compressed:
            # The announced size (itself capped at MAX_PAYLOAD) bounds the
            # output: a stream that inflates past it is cut off one byte
            # later and fails one of the two checks below.
            inflate = zlib.decompressobj()
            try:
                data = inflate.decompress(data, min(expect, MAX_PAYLOAD) + 1)
            except zlib.error as exc:
                raise ProtocolError(f"bad zlib stream in array: {exc}") from None
            if not inflate.eof:
                raise ProtocolError("array zlib stream is truncated or outgrows its shape")
        if len(data) != expect:
            raise ProtocolError(
                f"array shape {shape} of {name!r} needs {expect} bytes, got {len(data)}"
            )
        # Read-only view over the payload itself — the one rule of
        # the data plane: decoded arrays are borrowed, never owned.
        # Consumers that must mutate copy explicitly (DESIGN §15).
        arr = np.frombuffer(data, dtype=dtype).reshape(shape)
        if arr.flags.writeable:
            arr.setflags(write=False)
        return arr
    raise ProtocolError(f"unknown payload tag {chr(tag)!r}")


def decode(payload):
    """Inverse of :func:`encode`; raises :class:`ProtocolError` on junk.

    Accepts bytes or a memoryview.  Arrays in the result are read-only
    views over ``payload`` (they keep it alive; copy to mutate).
    """
    r = _Reader(payload)
    try:
        obj = _decode_one(r)
    except RecursionError:
        raise ProtocolError("payload nested too deeply") from None
    if r.pos != r.size:
        raise ProtocolError(f"{r.size - r.pos} trailing bytes after payload")
    return obj


# -- framing ---------------------------------------------------------------------
def pack_frame_parts(
    msg_type: int, obj, *, compress_arrays: bool = False, compress_min_bytes: int = 4096
) -> list:
    """One frame as a scatter-gather buffer list: [header, payload parts...]."""
    parts = encode_parts(
        obj, compress_arrays=compress_arrays, compress_min_bytes=compress_min_bytes
    )
    length = sum(_nbytes(p) for p in parts)
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"payload of {length} bytes exceeds MAX_PAYLOAD")
    return [_HEADER.pack(MAGIC, PROTO_VERSION, msg_type, 0, length), *parts]


def pack_frame(
    msg_type: int, obj, *, compress_arrays: bool = False, compress_min_bytes: int = 4096
) -> bytes:
    """One complete on-the-wire frame: header + encoded payload."""
    return b"".join(
        pack_frame_parts(
            msg_type, obj, compress_arrays=compress_arrays, compress_min_bytes=compress_min_bytes
        )
    )


def _send_parts(sock, parts: list) -> None:
    """Scatter-gather send: array buffers go to the kernel from their own
    storage (``sendmsg``), never joined into one outbound copy."""
    sendmsg = getattr(sock, "sendmsg", None)
    if sendmsg is None:  # test doubles / exotic sockets: one joined write
        sock.sendall(b"".join(parts))
        return
    views = [
        p if isinstance(p, memoryview) and p.format == "B" else memoryview(p).cast("B")
        for p in parts
    ]
    while views:
        sent = sendmsg(views)
        while sent:
            head = views[0]
            if head.nbytes <= sent:
                sent -= head.nbytes
                views.pop(0)
            else:
                views[0] = head[sent:]
                sent = 0


def send_frame(
    sock,
    msg_type: int,
    obj,
    *,
    lock=None,
    compress_arrays: bool = False,
    compress_min_bytes: int = 4096,
) -> int:
    """Frame + scatter-gather send; returns the byte count put on the wire.

    ``lock`` (any context manager) serializes writers — the worker's
    heartbeat-responder thread and its render loop share one socket.
    """
    parts = pack_frame_parts(
        msg_type, obj, compress_arrays=compress_arrays, compress_min_bytes=compress_min_bytes
    )
    if lock is not None:
        with lock:
            _send_parts(sock, parts)
    else:
        _send_parts(sock, parts)
    return sum(_nbytes(p) for p in parts)


def _parse_header(header: bytes) -> tuple[int, int]:
    magic, version, msg_type, _flags, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}; peer is not speaking repro.net")
    if version != PROTO_VERSION:
        raise ProtocolError(f"protocol version {version} != {PROTO_VERSION}")
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"frame announces {length} payload bytes (> MAX_PAYLOAD)")
    if msg_type not in MSG_NAMES:
        raise ProtocolError(f"unknown message type {msg_type}")
    return msg_type, length


def _recv_exact(sock, n: int) -> bytes | None:
    """Read exactly ``n`` bytes from a blocking socket; None on clean EOF
    at a frame boundary, ProtocolError on EOF mid-frame."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(min(65536, n - got))
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock) -> tuple[int, object] | None:
    """Blocking read of one frame; ``None`` on clean EOF."""
    header = _recv_exact(sock, HEADER_SIZE)
    if header is None:
        return None
    msg_type, length = _parse_header(header)
    payload = _recv_exact(sock, length) if length else b""
    if payload is None:
        raise ProtocolError("connection closed between header and payload")
    return msg_type, decode(payload)


class FrameAssembler:
    """Incremental frame parser for the master's readiness-driven loop.

    Feed it whatever ``recv`` returned; iterate to drain every frame that
    is now complete, as ``(msg_type, payload, frame_bytes)`` triples
    (``frame_bytes`` counts header + payload, for wire accounting).
    Partial frames stay buffered across feeds, so the master never blocks
    waiting for the rest of a message.

    Fed chunks are kept whole in a deque and *sliced as views*: a payload
    that fits inside one recv chunk is decoded zero-copy in place (the
    decoded arrays alias the chunk and keep it alive), and a payload
    spanning chunks is joined exactly once (charged to
    :data:`repro.buffers.copystats` as ``assembler.join``).
    """

    def __init__(self) -> None:
        self._chunks: deque[memoryview] = deque()
        self._avail = 0
        self.bytes_seen = 0

    def feed(self, data) -> None:
        if not data:
            return
        if not isinstance(data, bytes):
            # Only immutable buffers may be aliased by decoded views.
            data = bytes(data)
        self._chunks.append(memoryview(data))
        self._avail += len(data)
        self.bytes_seen += len(data)

    def _peek_header(self) -> memoryview | bytes:
        head = self._chunks[0]
        if head.nbytes >= HEADER_SIZE:
            return head[:HEADER_SIZE]
        buf = bytearray()
        for chunk in self._chunks:
            buf += chunk[: HEADER_SIZE - len(buf)]
            if len(buf) == HEADER_SIZE:
                break
        return bytes(buf)

    def _take(self, n: int) -> memoryview:
        """Consume ``n`` buffered bytes as one contiguous view — zero-copy
        off the front chunk when it covers them, one counted join if not."""
        head = self._chunks[0]
        if head.nbytes >= n:
            out = head[:n]
            if head.nbytes == n:
                self._chunks.popleft()
            else:
                self._chunks[0] = head[n:]
            self._avail -= n
            return out
        copystats.add(n, "assembler.join")
        buf = bytearray(n)
        pos = 0
        while pos < n:
            head = self._chunks[0]
            take = min(head.nbytes, n - pos)
            buf[pos : pos + take] = head[:take]
            if take == head.nbytes:
                self._chunks.popleft()
            else:
                self._chunks[0] = head[take:]
            pos += take
        self._avail -= n
        return memoryview(buf)  # we own buf; decode marks array views read-only

    def __iter__(self):
        while True:
            if self._avail < HEADER_SIZE:
                return
            msg_type, length = _parse_header(self._peek_header())
            total = HEADER_SIZE + length
            if self._avail < total:
                return
            self._take(HEADER_SIZE)
            payload = self._take(length) if length else memoryview(b"")
            yield msg_type, decode(payload), total
