"""The repro.net master: drive a scheduling policy over real TCP sockets.

This is the third transport for the :mod:`repro.sched` state machines.
Where :class:`~repro.sched.sim.SimTransport` replays assignments against
modelled costs and :class:`~repro.runtime.supervisor.TaskSupervisor` runs
them through a single-host pool, :class:`MasterServer` plays the role of
the paper's PVM master: workers register over a socket (advertising
hostname, cores, and a calibration score), each live connection is one
scheduling *lane* with at most one assignment in flight — which is what
preserves chain affinity and keeps the worker-side
:class:`~repro.coherence.CoherentRenderer` continuation cache warm — and
results stream back as framed binary messages.

Robustness is the pool's, booked in the same
:class:`~repro.runtime.options.RecoveryRecord`: per-assignment deadlines
follow the one :class:`~repro.runtime.options.RecoveryOptions` rule,
heartbeat PINGs distinguish *dead* from *busy rendering* (the worker's
reader thread answers pongs mid-render, so only a vanished peer goes
silent), and any loss — EOF, blown deadline, missed heartbeats, task
error, a message that will not parse, invalid result — feeds
``policy.on_worker_lost`` so the policy requeues the lane's chain for the
surviving workers.  A worker that reconnects is a *new* lane (policies
retire lost lanes permanently), which makes reconnection
indistinguishable from a fresh machine joining the farm.

:class:`TcpTransport` wraps all of this into the loopback form the tests
and benchmarks use: bind an ephemeral port on 127.0.0.1, fork N worker
daemons from the master (no interpreter start-up), serve to completion,
and return the same :class:`~repro.runtime.supervisor.SchedOutcome` the
pool produces, so :class:`~repro.runtime.local.LocalRenderFarm` consumes
either transport identically.  A remote workstation joins with
``python -m repro.worker --connect HOST:PORT``.
"""

from __future__ import annotations

import ipaddress
import multiprocessing
import os
import selectors
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..dfb import DEFAULT_TILE_PX
from ..obs.flight import FlightRecorder, blackbox_filename
from ..runtime.options import RecoveryOptions, RecoveryRecord
from ..runtime.supervisor import SchedOutcome, SupervisorOutcome
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


class _Conn:
    """One accepted connection: a lane once registered, a stranger before."""

    __slots__ = (
        "sock",
        "assembler",
        "name",
        "host",
        "cores",
        "score",
        "compress",
        "registered",
        "joined",
        "flight",
        "deadline",
        "last_pong",
        "closed",
        "offset",
        "rtt_best",
        "pid",
    )

    def __init__(self, sock: socket.socket, now: float, compress: bool) -> None:
        self.sock = sock
        self.assembler = wire.FrameAssembler()
        self.name = ""
        self.host = "?"
        self.cores = 0
        self.score = 0.0
        self.compress = compress  # WELCOME tells the worker to zlib its arrays
        self.registered = False
        self.joined = now
        self.flight = None  # the RecoveryRecord flight of its one dispatch
        self.deadline: float | None = None
        self.last_pong = now
        self.closed = False
        # Clock-skew estimate: worker_clock - master_clock, refined from
        # the lowest-rtt PONG seen (a symmetric-delay midpoint estimate;
        # on one host perf_counter is shared and this converges to ~0).
        self.offset = 0.0
        self.rtt_best = float("inf")
        self.pid = 0  # worker process id from HELLO (black-box lookup)


class MasterServer:
    """Accept workers and drive ``policy`` over their connections.

    Parameters
    ----------
    policy:
        The scheduling state machine; consumed (policies are single-use).
    task_name:
        Registry name (:mod:`repro.net.tasks`) the workers execute.
    materialize:
        ``materialize(assignment, lane) -> wire-encodable task args``.
    validate:
        Optional ``validate(args, result) -> bool`` corruption gate; a
        rejected result — or a validator that raises — counts as a worker
        loss (reason ``invalid``).
    recovery:
        The :class:`~repro.runtime.options.RecoveryOptions`: the ceiling
        on dispatches of one work unit (keyed by region + end frame)
        before the run fails loudly, and the per-assignment deadline rule.
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
        frame_complete)`` observes every composited tile.
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
        self.policy = policy
        self.task_name = task_name
        self.materialize = materialize
        self.host = host
        self.port = int(port)
        self.validate = validate
        self.accept_timeout = float(accept_timeout)
        self.min_lanes = max(1, int(min_lanes))
        self.telemetry = telemetry if telemetry is not None else NULL
        self.on_result = on_result
        # trace_root parents the per-assignment ``obs.flight`` spans (the
        # run's root span when the farm drives us; None = flights are trace
        # roots themselves).
        self.record = RecoveryRecord(recovery, self.telemetry, trace_root)
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
            now - self._t0 >= (self.record.recovery.startup_timeout or 30.0)
        )

    # -- main loop ---------------------------------------------------------
    def serve(self):
        """Serve until the policy is finished; returns a ``SchedOutcome``."""
        if self._listener is None:
            raise RuntimeError("call listen() before serve()")
        sel = selectors.DefaultSelector()
        sel.register(self._listener, selectors.EVENT_READ, None)
        self._t0 = self._last_progress = self.record.t0 = time.perf_counter()
        next_ping = self._t0 + HEARTBEAT_INTERVAL
        policy = self.policy
        try:
            while not policy.finished:
                now = time.perf_counter()
                if now >= next_ping:
                    self._ping_all(sel, now)
                    next_ping = now + HEARTBEAT_INTERVAL
                self._sweep(sel, now)
                if self.session is not None:
                    self.session.pump(self, sel, now)
                else:
                    self._dispatch(sel, now)
                if policy.finished:
                    break
                for key, _mask in sel.select(timeout=0.05):
                    if key.data is None:
                        self._accept(sel)
                    else:
                        self._service(sel, key.data)
        finally:
            self._shutdown(sel)
        sup = SupervisorOutcome(
            results=self._results,
            attempts=self.record.attempts,
            recovery=self.record.counts,
            wall_time=time.perf_counter() - self._t0,
        )
        return SchedOutcome(
            results=self._results,
            assignments=list(policy.log),
            supervisor=sup,
            workers={k: dict(v) for k, v in self.workers.items()},
            net=self.net,
        )

    # -- socket events -----------------------------------------------------
    def _accept(self, sel) -> None:
        sock, addr = self._listener.accept()
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Conn(sock, time.perf_counter(), compress=not _loopback(addr[0]))
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
            if isinstance(payload, dict):
                self.telemetry.absorb(payload.get("events") or [], t_offset=-conn.offset)
            detail = str(payload.get("error", "")) if isinstance(payload, dict) else ""
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
            import json as _json

            try:
                self.blackbox_dir.mkdir(parents=True, exist_ok=True)
                target = self.blackbox_dir / blackbox_filename(role, pid)
                tmp = target.with_name(f".{target.name}.tmp")
                with open(tmp, "w", encoding="utf-8") as fh:
                    for rec in records:
                        fh.write(_json.dumps(rec, separators=(",", ":"), default=str))
                        fh.write("\n")
                os.replace(tmp, target)
                path = str(target)
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

    def _on_tile_frame(self, sel, conn: _Conn, payload, nbytes: int, now: float) -> None:
        """Composite one streamed tile into the distributed framebuffer."""
        a = conn.flight.assignment if conn.flight is not None else None
        if a is None or not isinstance(payload, dict) or payload.get("seq") != a.seq:
            return  # tile raced its assignment's loss; idempotency covers it
        if self.assembler is None:
            self._lose(sel, conn, "invalid", detail="unsolicited TILE")
            return
        try:
            frame = int(payload["frame"])
            x0, y0 = int(payload["x0"]), int(payload["y0"])
            x1, y1 = int(payload["x1"]), int(payload["y1"])
            _newly, frame_complete = self.assembler.add_tile(
                frame, x0, y0, x1, y1, payload["pixels"]
            )
        except (KeyError, TypeError, ValueError):
            self._lose(sel, conn, "invalid", detail="malformed TILE")
            return
        self.net.n_tiles += 1
        self.net.tile_bytes += nbytes
        if self.net.t_first_tile is None:
            self.net.t_first_tile = now - self._t0
        self.telemetry.event(
            "dfb.tile",
            worker=conn.name,
            seq=a.seq,
            frame=frame,
            x0=x0,
            y0=y0,
            x1=x1,
            y1=y1,
            nbytes=nbytes,
        )
        if self.on_tile is not None:
            self.on_tile(conn.name, frame, (x0, y0, x1, y1), payload["pixels"], frame_complete)
        self._last_progress = now

    def _on_result_frame(self, sel, conn: _Conn, payload, nbytes: int, now: float) -> None:
        flight = conn.flight
        a = flight.assignment if flight is not None else None
        if a is None or not isinstance(payload, dict) or payload.get("seq") != a.seq:
            return  # stale or spurious; one-in-flight makes this near-impossible
        duration = _field(payload, "duration", float, now - flight.t0)
        self.telemetry.absorb(payload.get("events") or [], t_offset=-conn.offset)
        result = payload.get("result")
        if not self.record.valid(self.validate, flight.args, result):
            self._lose(sel, conn, "invalid")
            return
        if self.net.t_first_result is None:
            self.net.t_first_result = now - self._t0
        conn.flight = None
        conn.deadline = None
        self._absorb_task_events(conn, result)
        self.record.accept(flight, now, duration)
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
        self.policy.on_result(conn.name, a)
        if self.on_result is not None:
            self.on_result(a, result)
        self._last_progress = now

    def _absorb_task_events(self, conn: _Conn, result) -> None:
        """Fold the *render-level* worker events into the live stream.

        By farm convention a task result tuple's last element is the
        worker task's serialized event buffer (task/frame/coherence
        spans).  Absorbing it here — with this lane's clock-offset
        correction — is what puts worker frame spans on the master's
        time axis *during* the run, so the fold behind the status
        endpoint sees frames complete live instead of at teardown.  Non-farm results
        (echo tasks, junk) are left untouched.
        """
        if not isinstance(result, tuple) or not result:
            return
        blob = result[-1]
        if not isinstance(blob, str) or not blob.startswith("["):
            return
        try:
            self.telemetry.absorb(blob, t_offset=-conn.offset)
        except (TypeError, ValueError):
            pass  # a string that merely looked like an event buffer

    # -- dispatch / sweeps -------------------------------------------------
    def _dispatch(self, sel, now: float) -> None:
        registered = [c for c in self._conns.values() if c.registered]
        if registered and not self.net.n_assignments:
            if not self.crew_complete(len(registered), now):
                return
        dispatched = False
        for conn in registered:
            if conn.flight is not None:
                continue
            a = self.policy.next_assignment(conn.name)
            if a is None:
                continue
            args = self.materialize(a, conn.name)
            conn.flight = self.record.dispatch(conn.name, a, args, now)
            limit = self.record.deadline()
            conn.deadline = None if limit is None else now + limit
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
                continue
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
            dispatched = True
        if dispatched:
            self._last_progress = now
            return
        busy = any(c.flight is not None for c in self._conns.values())
        if busy or self.policy.finished:
            return
        strangers = any(not c.registered for c in self._conns.values())
        if not registered:
            if not strangers and now - self._last_progress > self.accept_timeout:
                raise RuntimeError(
                    f"no workers connected within {self.accept_timeout:.1f}s "
                    "with work still pending"
                )
            return
        # Every registered lane is idle, every one was just declined, and
        # nothing is in flight: the policy can never finish.  Same guard
        # (and failure mode) as the pool supervisor's stall.
        if not strangers:
            raise RuntimeError(
                "master stalled: policy returned no work with none in flight"
            )

    def _sweep(self, sel, now: float) -> None:
        silent_after = HEARTBEAT_INTERVAL * HEARTBEAT_MISSES
        for conn in list(self._conns.values()):
            if conn.closed or not conn.registered:
                continue
            if conn.flight is not None and conn.deadline is not None and now > conn.deadline:
                self._lose(sel, conn, "deadline")
            elif now - conn.last_pong > silent_after:
                self._lose(sel, conn, "heartbeat")

    def _ping_all(self, sel, now: float) -> None:
        for conn in list(self._conns.values()):
            if not conn.closed and conn.registered:
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
        conn.closed = True
        self._conns.pop(conn.sock.fileno(), None)
        _drop(sel, conn.sock)

    def _lose(self, sel, conn: _Conn, reason: str, detail: str = "") -> None:
        """Close a connection and route its lane into the policy's
        ``on_worker_lost`` so any in-flight assignment is requeued."""
        if conn.closed:
            return
        conn.closed = True
        now = time.perf_counter()
        self._conns.pop(conn.sock.fileno(), None)
        _drop(sel, conn.sock)
        if not conn.registered:
            return
        self.net.n_losses += 1
        flight = conn.flight
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
        if flight is not None:
            # The flight closes with its failure outcome; the requeued
            # dispatch will open a fresh flight under a new seq.
            self.record.lose(flight, reason, now, detail)
            a = flight.assignment
            if self.assembler is not None and reason != "invalid":
                # Partial salvage: frames this worker already streamed in
                # full stay done; only the remainder is requeued.  An
                # invalid loss forfeits the salvage — its tiles can't be
                # trusted either (idempotent overwrite re-covers them).
                frame_done = self.assembler.frames_done(
                    self.tile_box(a), a.frame0, a.frame1
                )
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
                    self.policy.on_partial_result(conn.name, frame_done)
        self.policy.on_worker_lost(conn.name)
        if self.session is not None:
            # After the policy requeued the lane's shard units: orphan the
            # lane's in-flight shard requests so the ledger replays them.
            self.session.on_worker_lost(self, conn.name)
        self._last_progress = now

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
    and leave through ``os._exit`` so the master's exit handlers never run here."""
    listener.close()
    with open(os.devnull, "wb") as quiet:
        os.dup2(quiet.fileno(), 1)
        os.dup2(quiet.fileno(), 2)
    os._exit(WorkerClient("127.0.0.1", port, score=1.0, **options).run())


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
