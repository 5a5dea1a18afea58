"""The repro.net master: the TCP shell of the :class:`~repro.sched.master.MasterCore`.

:class:`MasterServer` plays the role of the paper's PVM master on real
sockets.  What it keeps is the network's: the listener and the selector
loop; the HELLO/WELCOME handshake, where a worker advertises hostname,
cores and a calibration score and its connection becomes a scheduling
*lane*; ASSIGN frames out and RESULT frames in; heartbeat PINGs that tell
*dead* from *busy rendering* (the worker's reader thread answers pongs
mid-render, so only a vanished peer goes silent); streamed tiles into the
distributed framebuffer, whose composited frames are salvaged when a lane
is lost; and black-box dumps.  Which unit a lane gets, when it is overdue,
whether its result is accepted and what a loss requeues are the core's,
the same core the pool and the simulator drive.  A worker that reconnects
is a *new* lane, which makes reconnection indistinguishable from a fresh
machine joining the farm.

:class:`TcpTransport` wraps all of this into the loopback form the tests
and benchmarks use: bind an ephemeral port on 127.0.0.1, fork N worker
daemons from the master (no interpreter start-up), serve to completion,
and return the same :class:`~repro.runtime.supervisor.SchedOutcome` the pool
produces, so :class:`~repro.runtime.local.LocalRenderFarm` consumes either
transport identically.  A remote workstation joins with
``python -m repro.worker --connect HOST:PORT``.
"""

from __future__ import annotations

import ipaddress
import json
import multiprocessing
import os
import selectors
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..dfb import DEFAULT_TILE_PX
from ..obs.flight import FlightRecorder, blackbox_filename, write_blackbox
from ..runtime.options import Close, RecoveryOptions
from ..telemetry import NULL
from . import protocol as wire
from .worker import WorkerClient

__all__ = ["MasterServer", "NetStats", "TcpTransport"]

#: PING cadence in seconds, and how many silent intervals mark a peer dead.
HEARTBEAT_INTERVAL = 0.5
HEARTBEAT_MISSES = 10
#: Smallest array a worker zlibs when WELCOME tells it to (it is on another host).
COMPRESS_MIN_BYTES = 4096

#: A :class:`~repro.runtime.faults.WorkerKill` unit -> the WorkerClient keyword that arms it.
_KILL_KEYWORDS = dict(assignments="die_after", frames="die_after_frames", rays="die_after_rays")


def _loopback(peer: str) -> bool:
    """A loopback peer sends raw arrays: its socket beats zlib on a 24 KB tile."""
    return ipaddress.ip_address(peer).is_loopback


def _field(payload: dict, key: str, kind, default):
    """``kind(payload[key])`` (``default`` when absent): a peer's field of
    the wrong type is a protocol error — a clean ``error`` loss of that
    peer — never an exception in the master's loop."""
    value = payload.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise wire.ProtocolError(f"bad {key!r} field: {value!r}") from None


def _events(buffer) -> list:
    """A peer's event buffer (a list of records, or its JSON text), checked
    whole before any of it is absorbed: anything else is a protocol error."""
    try:
        events = json.loads(buffer) if isinstance(buffer, str) else buffer
    except ValueError:
        events = None
    if not isinstance(events, list) or not all(
        isinstance(r, dict) and isinstance(r.get("t", 0.0), (int, float)) for r in events
    ):
        raise wire.ProtocolError(f"bad 'events' field: {str(buffer)[:80]!r}")
    return events


@dataclass
class NetStats:
    """Wire accounting for one master run (the bench's raw material)."""

    bytes_sent: int = 0
    bytes_received: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    n_pings: int = 0
    n_pongs: int = 0
    n_workers_joined: int = 0
    n_losses: int = 0
    n_assignments: int = 0
    n_results: int = 0
    #: Distributed-framebuffer accounting (zero when tiles are off).
    n_tiles: int = 0
    tile_bytes: int = 0
    t_first_tile: float | None = None  #: seconds from serve() to first TILE
    t_first_result: float | None = None  #: seconds from serve() to first RESULT
    n_frames_salvaged: int = 0  #: frames rescued from lost workers' tiles
    #: Largest received frame per message name — the payload-size bench.
    max_msg_bytes: dict = field(default_factory=dict)


def _drop(sel, sock: socket.socket) -> None:
    """Unregister a socket and close it.  Both are idempotent here: loss
    paths overlap (a send fails inside a sweep that was about to lose the
    lane anyway), so "not registered" and "already closed" are expected."""
    try:
        sel.unregister(sock)
    except (KeyError, ValueError):
        pass
    try:
        sock.close()
    except OSError:
        pass


@dataclass(eq=False, slots=True)
class _Conn:
    """One accepted connection: a lane once registered, a stranger before."""

    sock: socket.socket
    compress: bool  # WELCOME tells the worker to zlib its arrays
    assembler: wire.FrameAssembler = field(default_factory=wire.FrameAssembler)
    name: str = ""
    host: str = "?"
    cores: int = 0
    score: float = 0.0
    registered: bool = False
    last_pong: float = 0.0  # set at HELLO
    closed: bool = False
    # Clock-skew estimate: worker_clock - master_clock, refined from the
    # lowest-rtt PONG seen (a symmetric-delay midpoint estimate; on one
    # host perf_counter is shared and this converges to ~0).
    offset: float = 0.0
    rtt_best: float = float("inf")
    pid: int = 0  # worker process id from HELLO (black-box lookup)


class MasterServer:
    """Accept workers and drive ``policy`` over their connections.

    Parameters
    ----------
    policy, materialize, validate, recovery, trace_root:
        The :class:`~repro.sched.master.MasterCore`'s (``materialize``
        returns wire-encodable task args; a run whose unit is out of
        attempts fails).
    task_name:
        Registry name (:mod:`repro.net.tasks`) the workers execute.
    accept_timeout:
        How long the master waits with work pending but no workers
        connected before giving up.
    min_lanes:
        Lanes to wait for before the first dispatch (under a ``session``:
        the first shard binding), so that who gets what is a function of
        the worker count, not of who won the connect race — which a drill
        that kills one particular worker depends on.  The wait ends with
        the startup window: a worker that never comes must not hang the run.
    assembler / tile_px / tile_box / on_tile:
        The distributed framebuffer.  ``assembler`` (a
        :class:`repro.dfb.FrameAssembler`) turns tile streaming on:
        workers get a tile directive (edge ``tile_px``, default
        :data:`repro.dfb.DEFAULT_TILE_PX`) in every ASSIGN and their TILE
        frames are composited incrementally, so a streaming task's RESULT
        carries no pixels (the caller's ``validate`` holds it to that).
        ``tile_box(assignment)`` maps an assignment to its pixel box
        (``None`` = whole frame); ``on_tile(worker, frame, box, pixels,
        frame_complete)`` observes every composited tile (``pixels`` is
        ``None`` for a held one: the same as in frame ``frame - 1``).
    session:
        Object-space sharding (DESIGN §16).  A ``session`` (a
        :class:`repro.shard.net.ShardSession`) replaces the ASSIGN/RESULT
        dispatch loop: the master itself drives the wavefront trace,
        lanes serve RAYS/SHADE queries for the shards the policy binds to
        them, and losses route through ``session.on_worker_lost`` for
        outbox-ledger replay.
    """

    def __init__(
        self,
        policy,
        task_name: str,
        materialize,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        validate=None,
        recovery: RecoveryOptions = RecoveryOptions(),
        accept_timeout: float = 30.0,
        min_lanes: int = 1,
        telemetry=None,
        on_result=None,
        trace_root=None,
        assembler=None,
        tile_px: int | None = None,
        tile_box=None,
        on_tile=None,
        session=None,
        blackbox_dir=None,
    ) -> None:
        self.policy = policy  # read by a shard session, which binds its own units
        self.task_name = task_name
        self.host = host
        self.port = int(port)
        self.accept_timeout = float(accept_timeout)
        self.min_lanes = max(1, int(min_lanes))
        self.telemetry = telemetry if telemetry is not None else NULL
        self.on_result = on_result
        # trace_root parents the per-assignment ``obs.flight`` spans (the
        # run's root span when the farm drives us; None = flights are trace
        # roots themselves).
        from ..sched.master import MasterCore  # repro.sched imports repro.runtime

        self.core = MasterCore(
            policy, materialize, recovery, validate=validate,
            telemetry=self.telemetry, trace_root=trace_root,
        )
        self.assembler = assembler
        self.tile_px = DEFAULT_TILE_PX if tile_px is None else int(tile_px)
        self.tile_box = tile_box or (lambda a: None)
        self.on_tile = on_tile
        self.session = session
        #: Flight-recorder plumbing: where black-box dumps land (ours on a
        #: worker loss, a victim's when shipped over MSG_BLACKBOX) and
        #: where ``net.worker.lost`` looks for the victim's own dump.
        self.blackbox_dir = Path(blackbox_dir) if blackbox_dir else None
        self.recorder = (
            FlightRecorder("master", self.blackbox_dir).install()
            if self.blackbox_dir is not None
            else None
        )
        self.net = NetStats()
        self.workers: dict[str, dict] = {}  # lane -> {host, cores, score, n_done}
        self.address: tuple[str, int] | None = None
        self._listener: socket.socket | None = None
        self._conns: dict[int, _Conn] = {}  # fileno -> connection
        self._lanes: dict[str, _Conn] = {}  # lane -> its registered connection
        self._n_named = 0
        self._results: list = []
        self._t0 = 0.0
        self._last_progress = 0.0

    # -- lifecycle ---------------------------------------------------------
    def listen(self) -> tuple[str, int]:
        """Bind and listen; returns (host, port) — port resolves 0 to real."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        self._listener = listener
        self.address = listener.getsockname()[:2]
        self.port = self.address[1]
        self.telemetry.event("net.listen", host=self.address[0], port=self.port)
        return self.address

    def crew_complete(self, n_lanes: int, now: float) -> bool:
        """Whether the first dispatch may go ahead: ``min_lanes`` have
        joined, or the startup window has closed."""
        return n_lanes >= self.min_lanes or (
            now - self._t0 >= (self.core.recovery.startup_timeout or 30.0)
        )

    # -- main loop ---------------------------------------------------------
    def serve(self):
        """Serve until the policy is finished; returns a ``SchedOutcome``."""
        if self._listener is None:
            raise RuntimeError("call listen() before serve()")
        sel = selectors.DefaultSelector()
        sel.register(self._listener, selectors.EVENT_READ, None)
        core = self.core
        self._t0 = self._last_progress = core.t0 = time.perf_counter()
        next_ping = self._t0 + HEARTBEAT_INTERVAL
        try:
            while not core.finished:
                now = time.perf_counter()
                ping = now >= next_ping
                if ping:
                    next_ping = now + HEARTBEAT_INTERVAL
                self._heartbeat(sel, now, ping)
                if self.session is not None:
                    self.session.pump(self, sel, now)
                else:
                    self._dispatch(sel, now)
                if core.finished:
                    break
                for key, _mask in sel.select(timeout=0.05):
                    if key.data is None:
                        self._accept(sel)
                    else:
                        self._service(sel, key.data)
        finally:
            self._shutdown(sel)
        return core.outcome(
            self._results, workers={k: dict(v) for k, v in self.workers.items()}, net=self.net
        )

    # -- socket events -----------------------------------------------------
    def _accept(self, sel) -> None:
        sock, addr = self._listener.accept()
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Conn(sock, compress=not _loopback(addr[0]))
        self._conns[sock.fileno()] = conn
        sel.register(sock, selectors.EVENT_READ, conn)

    def _service(self, sel, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(1 << 18)
        except OSError:
            self._lose(sel, conn, "error")
            return
        if not data:
            self._lose(sel, conn, "eof")
            return
        self.net.bytes_received += len(data)
        conn.assembler.feed(data)
        try:
            for msg_type, payload, nbytes in conn.assembler:
                self.net.messages_received += 1
                self._handle(sel, conn, msg_type, payload, nbytes)
                if conn.closed:
                    return
        except wire.ProtocolError as exc:
            self._lose(sel, conn, "error", detail=str(exc))

    def _handle(self, sel, conn: _Conn, msg_type: int, payload, nbytes: int) -> None:
        now = time.perf_counter()
        name = wire.MSG_NAMES.get(msg_type, str(msg_type))
        if nbytes > self.net.max_msg_bytes.get(name, 0):
            self.net.max_msg_bytes[name] = nbytes
        if msg_type == wire.MSG_HELLO:
            if not isinstance(payload, dict) or payload.get("proto") != wire.PROTO_VERSION:
                self._lose(sel, conn, "error")
                return
            minor = _field(payload, "minor", int, 0)
            cores = _field(payload, "cores", int, 1)
            score = _field(payload, "score", float, 1.0)
            if conn.registered:
                return  # a repeated HELLO changes nothing
            if minor < wire.PROTO_MINOR_FLOOR:
                self._reject(sel, conn, payload)
                return
            conn.name = f"w{self._n_named}"
            self._n_named += 1
            conn.host = str(payload.get("host", "?"))
            conn.cores, conn.score = cores, score
            try:
                conn.pid = int(payload.get("pid", 0) or 0)
            except (TypeError, ValueError):
                conn.pid = 0
            conn.registered = True
            conn.last_pong = now
            self.workers[conn.name] = {
                "host": conn.host,
                "cores": conn.cores,
                "score": conn.score,
                "n_done": 0,
            }
            self._send(conn, wire.MSG_WELCOME, {
                "worker": conn.name,
                "proto": wire.PROTO_VERSION,
                "minor": wire.PROTO_MINOR,
                "heartbeat_interval": HEARTBEAT_INTERVAL,
                "compress": conn.compress,
                "compress_min_bytes": COMPRESS_MIN_BYTES,
                "tiles": self.assembler is not None,
                "tile_px": self.tile_px,
            })
            self._lanes[conn.name] = conn
            self.core.lane_up(conn.name)
            self.net.n_workers_joined += 1
            self.telemetry.event(
                "net.worker.join",
                worker=conn.name,
                host=conn.host,
                cores=conn.cores,
                score=conn.score,
            )
            self._last_progress = now
            # A clock sample now: a run shorter than a heartbeat gets one too.
            self._ping(sel, conn, time.perf_counter())
        elif msg_type == wire.MSG_PONG:
            self.net.n_pongs += 1
            conn.last_pong = now
            try:
                rtt = max(0.0, now - float(payload.get("t", now)))
            except (TypeError, ValueError):
                rtt = 0.0
            self.telemetry.event("net.pong", worker=conn.name, rtt=rtt)
            # Minimum-rtt skew estimate: the pong with the least delay is
            # the one where "the worker's clock read tw at the midpoint"
            # is most nearly true.  Only a better sample updates (and
            # re-announces) the estimate.
            tw = payload.get("tw") if isinstance(payload, dict) else None
            if tw is not None and rtt < conn.rtt_best:
                try:
                    conn.offset = float(tw) - (float(payload["t"]) + rtt / 2.0)
                except (TypeError, ValueError, KeyError):
                    pass  # a malformed PONG is no skew sample; the estimate stands
                else:
                    conn.rtt_best = rtt
                    self.telemetry.event(
                        "obs.clock", worker=conn.name, offset=conn.offset, rtt=rtt
                    )
        elif msg_type in (wire.MSG_RAYS, wire.MSG_SHADE):
            if self.session is not None:
                self.session.on_reply(self, conn, msg_type, payload, nbytes)
                self._last_progress = now
            # RAYS/SHADE outside a shard session: valid type, ignored.
        elif msg_type == wire.MSG_BLACKBOX:
            self._on_blackbox_frame(conn, payload)
        elif msg_type == wire.MSG_TILE:
            self._on_tile_frame(sel, conn, payload, nbytes, now)
        elif msg_type == wire.MSG_RESULT:
            self._on_result_frame(sel, conn, payload, nbytes, now)
        elif msg_type == wire.MSG_ERROR:
            detail = ""
            if isinstance(payload, dict):
                self._absorb(conn, payload.get("events"))
                detail = str(payload.get("error", ""))
            self._lose(sel, conn, "error", detail=detail)
        # Unknown-but-valid types: ignore.

    def _on_blackbox_frame(self, conn: _Conn, payload) -> None:
        """A reconnecting worker shipped the dump its dead predecessor
        wrote (or held in memory): persist it into the run's blackbox
        directory and announce it, so post-mortem tooling finds it next
        to the master's own."""
        if not isinstance(payload, dict):
            return
        records = payload.get("records")
        if not isinstance(records, list) or not records:
            return
        role = str(payload.get("role", "worker")) or "worker"
        try:
            pid = int(payload.get("pid", 0) or 0)
        except (TypeError, ValueError):
            pid = 0
        path = ""
        if self.blackbox_dir is not None:
            try:
                path = str(write_blackbox(self.blackbox_dir, role, pid, records))
            except OSError:
                path = ""
        self.telemetry.event(
            "obs.blackbox", role=role, pid=pid, path=path, records=len(records)
        )

    def _blackbox_of(self, conn: _Conn) -> str:
        """Path of the victim's dump, if it already landed in the run dir
        (loopback workers write it before ``os._exit``); ``""`` when
        unknown — a reconnecting daemon may still ship it later."""
        if self.blackbox_dir is None or not conn.pid:
            return ""
        path = self.blackbox_dir / blackbox_filename("worker", conn.pid)
        return str(path) if path.exists() else ""

    def _held_rects(self, a, frame: int, held) -> list:
        """A hold record's rects.  A hold copies frame ``frame - 1``, which
        must be this worker's to continue (a fresh unit's first frame is
        not), and each rect must lie in the unit's box; the assembler
        checks that the frame before is covered there."""
        rects = [tuple(int(v) for v in r) for r in held]
        bx0, by0, bx1, by1 = self.tile_box(a) or (0, 0, self.assembler.width,
                                                  self.assembler.height)
        if (a.fresh and frame <= a.frame0) or not all(
            len(r) == 4 and bx0 <= r[0] < r[2] <= bx1 and by0 <= r[1] < r[3] <= by1
            for r in rects
        ):
            raise ValueError("hold record outside its unit")
        return rects

    def _on_tile_frame(self, sel, conn: _Conn, payload, nbytes: int, now: float) -> None:
        """Composite one streamed tile, or one hold record's rects, into the
        distributed framebuffer."""
        flight = self.core.flight(conn.name)
        a = flight.assignment if flight is not None else None
        if a is None or not isinstance(payload, dict) or payload.get("seq") != a.seq:
            return  # tile raced its assignment's loss; idempotency covers it
        if self.assembler is None:
            self._lose(sel, conn, "invalid", detail="unsolicited TILE")
            return
        try:
            frame = int(payload["frame"])
            if "held" in payload:
                tiles = [(r, None) for r in self._held_rects(a, frame, payload["held"])]
            else:
                rect = tuple(int(payload[k]) for k in ("x0", "y0", "x1", "y1"))
                tiles = [(rect, payload["pixels"])]
            done = [self.assembler.add_tile(frame, *r, px)[1] for r, px in tiles]
        except (KeyError, TypeError, ValueError):
            self._lose(sel, conn, "invalid", detail="malformed TILE")
            return
        self.net.n_tiles += len(tiles)
        self.net.tile_bytes += nbytes
        if self.net.t_first_tile is None:
            self.net.t_first_tile = now - self._t0
        # One dfb.tile per composited rect; the record's bytes are split
        # among them, so the events still sum to the bytes received.
        share, extra = divmod(nbytes, max(1, len(tiles)))
        for i, ((x0, y0, x1, y1), pixels) in enumerate(tiles):
            self.telemetry.event(
                "dfb.tile", worker=conn.name, seq=a.seq, frame=frame,
                x0=x0, y0=y0, x1=x1, y1=y1, nbytes=share + (i < extra),
            )
            if self.on_tile is not None:
                self.on_tile(conn.name, frame, (x0, y0, x1, y1), pixels, done[i])
        self._last_progress = now

    def _on_result_frame(self, sel, conn: _Conn, payload, nbytes: int, now: float) -> None:
        flight = self.core.flight(conn.name)
        a = flight.assignment if flight is not None else None
        if a is None or not isinstance(payload, dict) or payload.get("seq") != a.seq:
            return  # stale or spurious; one-in-flight makes this near-impossible
        duration = _field(payload, "duration", float, now - flight.t0)
        self._absorb(conn, payload.get("events"))
        result = payload.get("result")
        out = self.core.completed(conn.name, a.seq, result, now, duration)
        if isinstance(out, Close):
            self._lose(sel, conn, out.reason)
            return
        if self.net.t_first_result is None:
            self.net.t_first_result = now - self._t0
        self._absorb_task_events(conn, result)
        self._results.append(result)
        self.workers[conn.name]["n_done"] += 1
        self.net.n_results += 1
        self.telemetry.event(
            "net.result",
            worker=conn.name,
            seq=a.seq,
            nbytes=nbytes,
            compressed=conn.compress,
            duration=duration,
        )
        if self.on_result is not None:
            self.on_result(a, result)
        self._last_progress = now

    def _absorb(self, conn: _Conn, events) -> None:
        """Re-emit a peer's ``events`` field on this lane's clock; a
        malformed one is a :class:`~repro.net.protocol.ProtocolError`."""
        if events:
            self.telemetry.absorb(_events(events), t_offset=-conn.offset)

    def _absorb_task_events(self, conn: _Conn, result) -> None:
        """Fold the *render-level* worker events into the live stream.

        By farm convention a task result tuple's last element is the worker
        task's serialized event buffer; absorbing it here puts worker frame
        spans on the master's time axis *during* the run.  Non-farm results
        (echo tasks, junk) are left untouched.
        """
        if not isinstance(result, tuple) or not result:
            return
        blob = result[-1]
        if not isinstance(blob, str) or not blob.startswith("["):
            return
        try:
            self._absorb(conn, blob)
        except wire.ProtocolError:
            pass  # a string that merely looked like an event buffer

    # -- dispatch / sweeps -------------------------------------------------
    def _dispatch(self, sel, now: float) -> None:
        """Carry out one tick of the core over the registered lanes."""
        registered = [c for c in self._conns.values() if c.registered]
        if registered and not self.net.n_assignments:
            if not self.crew_complete(len(registered), now):
                return
        strangers = any(not c.registered for c in self._conns.values())
        if not registered and not strangers and now - self._last_progress > self.accept_timeout:
            raise RuntimeError(
                f"no workers connected within {self.accept_timeout:.1f}s "
                "with work still pending"
            )
        for act in self.core.tick(now, joining=strangers or not registered):
            conn = self._lanes[act.lane]
            if isinstance(act, Close):
                self._lose(sel, conn, act.reason)
            else:
                self._assign(sel, conn, act.assignment, act.args, now)

    def _assign(self, sel, conn: _Conn, a, args, now: float) -> None:
        assign = {
            "seq": a.seq,
            "region": a.region_index,
            "frame0": a.frame0,
            "frame1": a.frame1,
            "fresh": a.fresh,
            "coherent": a.coherent,
            "task": self.task_name,
            "args": args,
        }
        if self.assembler is not None:
            # Tile directive: stream at this granularity, and skip
            # tiles a lost predecessor already delivered.
            assign["tiles"] = {
                "tile_px": self.tile_px,
                "skip": self.assembler.covered_tiles(
                    self.tile_box(a), a.frame0, a.frame1, self.tile_px
                ),
            }
        try:
            nbytes = self._send(conn, wire.MSG_ASSIGN, assign)
        except OSError:
            self._lose(sel, conn, "eof")
            return
        self.net.n_assignments += 1
        self.telemetry.event(
            "net.assign",
            worker=conn.name,
            seq=a.seq,
            frame0=a.frame0,
            frame1=a.frame1,
            region=a.region_index,
            nbytes=nbytes,
        )
        self._last_progress = now

    def _heartbeat(self, sel, now: float, ping: bool) -> None:
        """Lose every lane whose PONGs stopped; PING the rest when ``ping``."""
        for conn in list(self._conns.values()):
            if not conn.registered or conn.closed:
                continue
            if now - conn.last_pong > HEARTBEAT_INTERVAL * HEARTBEAT_MISSES:
                self._lose(sel, conn, "heartbeat")
            elif ping:
                self._ping(sel, conn, now)

    def _ping(self, sel, conn: _Conn, now: float) -> None:
        try:
            self._send(conn, wire.MSG_PING, {"t": now})
            self.net.n_pings += 1
        except OSError:
            self._lose(sel, conn, "eof")

    # -- loss --------------------------------------------------------------
    def _reject(self, sel, conn: _Conn, payload) -> None:
        """Turn away a worker speaking an older protocol minor: SHUTDOWN
        (vocabulary every revision understands, so the daemon exits
        cleanly instead of reconnect-looping) and close — never a lane,
        so the policy is not involved."""
        who = "?"
        if isinstance(payload, dict):
            who = f"{payload.get('host', '?')}:{payload.get('pid', 0)}"
        self.net.n_losses += 1
        self.telemetry.event(
            "net.worker.lost", worker=who, reason="proto", seq=-1, blackbox=""
        )
        self._farewell(conn)
        self._close(sel, conn)

    def _lose(self, sel, conn: _Conn, reason: str, detail: str = "") -> None:
        """Close a connection; a lane's loss goes to the core, after the
        frames its worker already streamed in full are salvaged."""
        if not self._close(sel, conn) or not conn.registered:
            return
        now = time.perf_counter()
        self.net.n_losses += 1
        flight = self.core.flight(conn.name)
        self.telemetry.event(
            "net.worker.lost",
            worker=conn.name,
            reason=reason,
            seq=-1 if flight is None else flight.assignment.seq,
            blackbox=self._blackbox_of(conn),
        )
        if self.recorder is not None:
            # The master's own last seconds around the loss are part of
            # the autopsy: dump our ring beside the victim's.
            self.recorder.dump(f"worker-lost:{conn.name}:{reason}")
        if flight is not None and self.assembler is not None and reason != "invalid":
            # Partial salvage: frames this worker already streamed in full
            # stay done; only the remainder is requeued.  An invalid loss
            # forfeits the salvage — its tiles can't be trusted either
            # (idempotent overwrite re-covers them).
            a = flight.assignment
            frame_done = self.assembler.frames_done(self.tile_box(a), a.frame0, a.frame1)
            if frame_done > a.frame0:
                self.net.n_frames_salvaged += frame_done - a.frame0
                self.telemetry.event(
                    "dfb.salvage",
                    worker=conn.name,
                    seq=a.seq,
                    frame0=a.frame0,
                    frame_done=frame_done,
                    frame1=a.frame1,
                )
                self.core.partial(conn.name, frame_done)
        self.core.lost(conn.name, reason, now, detail)
        if self.session is not None:
            # After the policy requeued the lane's shard units: orphan the
            # lane's in-flight shard requests so the ledger replays them.
            self.session.on_worker_lost(self, conn.name)
        self._last_progress = now

    def _close(self, sel, conn: _Conn) -> bool:
        """Drop a connection; False if it was closed already."""
        if conn.closed:
            return False
        conn.closed = True
        self._conns.pop(conn.sock.fileno(), None)
        _drop(sel, conn.sock)
        return True

    def _send(self, conn: _Conn, msg_type: int, obj) -> int:
        n = wire.send_frame(conn.sock, msg_type, obj)
        self.net.bytes_sent += n
        self.net.messages_sent += 1
        return n

    def _farewell(self, conn: _Conn) -> None:
        """SHUTDOWN to a peer we are about to drop."""
        try:
            self._send(conn, wire.MSG_SHUTDOWN, {})
        except OSError:
            pass  # the peer hung up first: it needs no telling

    def _shutdown(self, sel) -> None:
        for conn in list(self._conns.values()):
            self._farewell(conn)
            _drop(sel, conn.sock)
        self._conns.clear()
        if self.recorder is not None:
            self.recorder.uninstall()
        if self._listener is not None:
            _drop(sel, self._listener)
            self._listener = None
        sel.close()


def _crew_member(listener: socket.socket, port: int, options: dict) -> None:
    """One forked loopback worker: drop the master's listener, go quiet, serve,
    and leave through ``os._exit`` so the master's exit handlers never run here.

    The master listened before forking and closes its listener only when it
    stops serving, so a refused dial means the run is over: one attempt per
    (re)connect, where a remote daemon backs off and redials."""
    listener.close()
    with open(os.devnull, "wb") as quiet:
        os.dup2(quiet.fileno(), 1)
        os.dup2(quiet.fileno(), 2)
    os._exit(WorkerClient("127.0.0.1", port, score=1.0, max_retries=1, **options).run())


class TcpTransport:
    """Loopback network farm: master + N forked worker daemons on 127.0.0.1.

    Mirrors the :class:`~repro.runtime.supervisor.TaskSupervisor` calling
    convention (``policy``, task, ``materialize``, ``options`` -> ``run()``
    -> ``SchedOutcome``) so :class:`~repro.runtime.local.LocalRenderFarm`
    and the equivalence tests can swap transports freely.  The bytes
    really cross sockets; only the hosts are collapsed onto one machine.

    Read off ``options`` (:class:`~repro.runtime.options.FarmOptions`)
    here: ``n_workers`` daemons are forked; ``telemetry``, ``tile_px``,
    ``blackbox_dir`` and the recovery contract go to the master (a
    ``recovery=`` keyword overrides the last); each
    :class:`~repro.runtime.faults.WorkerKill` of ``fault_plan`` arms its
    daemon with the matching ``die_after*`` keyword — a workstation dying
    mid-sequence — and the master then waits for every daemon to join,
    so the victim is handed work however the connect race went.
    """

    def __init__(self, policy, task_name: str, materialize, options, **master_kwargs) -> None:
        options = options.resolved()
        self.n_workers = int(options.n_workers)
        self.kills = options.fault_plan.kills() if options.fault_plan is not None else []
        master_kwargs.setdefault("recovery", options.recovery())
        master_kwargs.setdefault("min_lanes", self.n_workers if self.kills else 1)
        self.master = MasterServer(
            policy, task_name, materialize, host="127.0.0.1", port=0,
            telemetry=options.telemetry, tile_px=options.tile_px,
            blackbox_dir=options.blackbox_dir, **master_kwargs
        )

    def _spawn(self, port: int, index: int) -> multiprocessing.Process:
        """Fork daemon ``index`` (the fork context flushes std streams first)."""
        options = {_KILL_KEYWORDS[k.unit]: k.after for k in self.kills if k.worker == index}
        options["blackbox_dir"] = self.master.blackbox_dir
        proc = multiprocessing.get_context("fork").Process(
            target=_crew_member, args=(self.master._listener, port, options)
        )
        proc.start()
        return proc

    def run(self):
        _host, port = self.master.listen()
        procs = [self._spawn(port, i) for i in range(self.n_workers)]
        try:
            return self.master.serve()
        finally:
            for proc in procs:
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join()
