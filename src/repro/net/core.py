"""The TCP master's wire rules, sans I/O: :class:`WireCore`.

:class:`~repro.net.master.MasterServer` owns the sockets; what a message
*means* is decided here.  The shell feeds the core each peer's decoded
messages (:meth:`WireCore.receive`), the end of a connection
(:meth:`~WireCore.lost`) and the passage of time (:meth:`~WireCore.tick`);
each call returns the :class:`Send`, :class:`Drop` and :class:`Blackbox`
actions for the shell to carry out, in order.  The core owns the lane
records, the :class:`NetStats`, the compositor calls, partial salvage and
the :class:`~repro.sched.master.MasterCore`, so ``tests/test_wire_core.py``
walks every interleaving of a small farm's messages without a socket.
DESIGN §11 ("Master loop") lists the rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dfb import DEFAULT_TILE_PX
from ..runtime.options import Close, RecoveryOptions
from ..telemetry import NULL
from ..telemetry.core import parse_records
from . import protocol as wire

__all__ = ["Blackbox", "Drop", "Lane", "NetStats", "Send", "WireCore"]

#: PING cadence in seconds, and how many silent intervals mark a peer dead.
HEARTBEAT_INTERVAL = 0.5
HEARTBEAT_MISSES = 10
#: Smallest array a worker zlibs when WELCOME tells it to (it is on another host).
COMPRESS_MIN_BYTES = 4096


def _field(payload: dict, key: str, kind, default):
    """``kind(payload[key])`` (``default`` when absent): a peer's field of
    the wrong type is a protocol error — an ``error`` loss of that peer."""
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


@dataclass(eq=False, slots=True)
class Lane:
    """One connection's peer: a lane once its HELLO registers it, a stranger before."""

    compress: bool  # WELCOME tells the worker to zlib its arrays
    name: str = ""  # w0, w1, ... once registered
    host: str = "?"
    cores: int = 0
    score: float = 0.0
    pid: int = 0  # worker process id from HELLO (black-box lookup)
    n_done: int = 0
    last_pong: float = 0.0
    closed: bool = False
    # Clock-skew estimate: worker_clock - master_clock, refined from the
    # lowest-rtt PONG seen (a symmetric-delay midpoint estimate; on one
    # host perf_counter is shared and this converges to ~0).
    offset: float = 0.0
    rtt_best: float = float("inf")


@dataclass(frozen=True, slots=True)
class Send:
    """Put ``payload`` on ``lane``'s connection as one ``msg_type`` frame."""

    lane: Lane
    msg_type: int
    payload: object


@dataclass(frozen=True, slots=True)
class Drop:
    """Close ``lane``'s connection; ``dump`` names a lane's loss for the master's black box."""

    lane: Lane
    dump: str = ""


@dataclass(frozen=True, slots=True)
class Blackbox:
    """Persist the dump a reconnecting worker shipped for its dead predecessor."""

    role: str
    pid: int
    records: list


class WireCore:
    """The TCP master's rules (see the module docstring).

    Parameters
    ----------
    policy, materialize, validate, recovery, telemetry, trace_root:
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
    on_result:
        ``on_result(assignment, result, t_offset)`` for every accepted
        result; ``t_offset`` puts the lane's clock on the master's.
    assembler / tile_px / tile_box / on_tile:
        The distributed framebuffer.  ``assembler`` (a
        :class:`repro.dfb.FrameAssembler`) turns tile streaming on:
        workers get a tile directive (edge ``tile_px``, default
        :data:`repro.dfb.DEFAULT_TILE_PX`) in every ASSIGN and their TILE
        frames are composited incrementally; the caller's ``validate``
        accepts a RESULT when the assignment's range is covered.
        ``tile_box(assignment)`` maps an assignment to its pixel box
        (``None`` = whole frame); ``on_tile(worker, frame, box, pixels,
        frame_complete)`` observes every composited tile (``pixels`` is
        ``None`` for a held one: the same as in frame ``frame - 1``).
    session:
        Object-space sharding (DESIGN §16).  A ``session`` (a
        :class:`repro.shard.net.ShardSession`) replaces the ASSIGN/RESULT
        dispatch: each tick pumps it instead of the master core, lanes
        answer its RAYS/SHADE queries, and a lost lane is reported to it
        after the policy requeued the lane's shard units.
    blackbox_of:
        ``blackbox_of(pid)``: the path of a lost worker's own dump, or ``""``.
    """

    def __init__(
        self, policy, task_name: str, materialize, *, validate=None,
        recovery: RecoveryOptions = RecoveryOptions(), accept_timeout: float = 30.0,
        min_lanes: int = 1, telemetry=NULL, on_result=None, trace_root=None, assembler=None,
        tile_px: int | None = None, tile_box=None, on_tile=None, session=None, blackbox_of=None,
    ) -> None:
        from ..sched.master import MasterCore  # repro.sched imports repro.runtime

        self.policy = policy  # read by a shard session, which binds its own units
        self.task_name = task_name
        self.accept_timeout = float(accept_timeout)
        self.min_lanes = max(1, int(min_lanes))
        self.telemetry = telemetry
        self.on_result = on_result
        self.core = MasterCore(
            policy, materialize, recovery, validate=validate,
            telemetry=telemetry, trace_root=trace_root,
        )
        self.assembler = assembler
        self.tile_px = DEFAULT_TILE_PX if tile_px is None else int(tile_px)
        self.tile_box = tile_box or (lambda a: None)
        self.on_tile = on_tile
        self.session = session
        self.blackbox_of = blackbox_of or (lambda pid: "")
        self.net = NetStats()
        self.lanes: dict[str, Lane] = {}  # every lane that registered, by name
        self._open: list[Lane] = []  # connected peers, strangers included
        self._out: list = []  # actions for the shell, oldest first
        self._results: list = []
        self._t0 = self._last_progress = self._next_ping = 0.0

    # -- reads -----------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.core.finished

    def live(self) -> list[str]:
        """The registered lanes still connected, in join order."""
        return [name for name, lane in self.lanes.items() if not lane.closed]

    def outcome(self):
        """The run's :class:`~repro.runtime.supervisor.SchedOutcome`."""
        workers = {
            name: {"host": lane.host, "cores": lane.cores, "score": lane.score,
                   "n_done": lane.n_done}
            for name, lane in self.lanes.items()
        }
        return self.core.outcome(self._results, workers=workers, net=self.net)

    # -- inputs ----------------------------------------------------------------
    def start(self, now: float) -> None:
        """The run starts at ``now``."""
        self._t0 = self._last_progress = self.core.t0 = now
        self._next_ping = now + HEARTBEAT_INTERVAL

    def connect(self, compress: bool) -> Lane:
        """A peer connected: a stranger until its HELLO."""
        lane = Lane(compress)
        self._open.append(lane)
        return lane

    def send(self, lane: str, msg_type: int, payload) -> None:
        """Queue one frame to the registered ``lane`` (a shard session's query)."""
        self._out.append(Send(self.lanes[lane], msg_type, payload))

    def sent(self, lane: Lane, msg_type: int, payload, nbytes: int) -> None:
        """The shell put one frame on ``lane``'s wire, ``nbytes`` long."""
        self.net.bytes_sent += nbytes
        self.net.messages_sent += 1
        if msg_type == wire.MSG_PING:
            self.net.n_pings += 1
        elif msg_type == wire.MSG_ASSIGN:
            self.net.n_assignments += 1
            self.telemetry.event(
                "net.assign", worker=lane.name, seq=payload["seq"], frame0=payload["frame0"],
                frame1=payload["frame1"], region=payload["region"], nbytes=nbytes,
            )

    def take(self) -> list:
        """The actions queued so far, for the shell to carry out in order."""
        out, self._out = self._out, []
        return out

    def receive(self, lane: Lane, msg_type: int, payload, nbytes: int, now: float) -> list:
        """One decoded message of ``nbytes`` from ``lane``'s peer."""
        if lane.closed:
            return []
        self.net.messages_received += 1
        name = wire.MSG_NAMES.get(msg_type, str(msg_type))
        self.net.max_msg_bytes[name] = max(nbytes, self.net.max_msg_bytes.get(name, 0))
        rule = self._RULES.get(msg_type)  # a type no worker sends is ignored
        if rule is not None:
            try:
                if not isinstance(payload, dict):
                    raise wire.ProtocolError(f"{name} payload is not a map: {str(payload)[:80]!r}")
                rule(self, lane, msg_type, payload, nbytes, now)
            except wire.ProtocolError as exc:
                self._lose(lane, "error", now, str(exc))
        return self.take()

    def lost(self, lane: Lane, reason: str, now: float, detail: str = "") -> list:
        """``lane``'s connection ended (``eof``) or broke (``error``)."""
        self._lose(lane, reason, now, detail)
        return self.take()

    def tick(self, now: float) -> list:
        """Lose the lanes whose PONGs stopped and PING the rest when one is
        due; fail a run no worker is connected to; then dispatch: one tick
        of the master core, or one pump of the shard session."""
        ping = now >= self._next_ping
        if ping:
            self._next_ping = now + HEARTBEAT_INTERVAL
        for lane in [lane for lane in self._open if lane.name]:
            if now - lane.last_pong > HEARTBEAT_INTERVAL * HEARTBEAT_MISSES:
                self._lose(lane, "heartbeat", now)
            elif ping:
                self._out.append(Send(lane, wire.MSG_PING, {"t": now}))
        live = self.live()
        strangers = len(live) < len(self._open)
        if not (live or strangers) and now - self._last_progress > self.accept_timeout:
            raise RuntimeError(
                f"no workers connected within {self.accept_timeout:.1f}s with work still pending"
            )
        startup = self.core.recovery.startup_timeout or 30.0
        if live and (self.net.n_assignments or len(live) >= self.min_lanes
                     or now - self._t0 >= startup):
            if self.session is not None:
                self.session.pump(self, now)
            else:
                self._dispatch(now, joining=strangers)
        return self.take()

    # -- the rules -------------------------------------------------------------
    def _dispatch(self, now: float, joining: bool) -> None:
        """Carry out one tick of the master core over the live lanes."""
        for act in self.core.tick(now, joining=joining):
            lane = self.lanes[act.lane]
            if isinstance(act, Close):
                self._lose(lane, act.reason, now)
                continue
            a = act.assignment
            assign = {
                "seq": a.seq, "region": a.region_index, "frame0": a.frame0, "frame1": a.frame1,
                "fresh": a.fresh, "coherent": a.coherent, "task": self.task_name, "args": act.args,
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
            self._out.append(Send(lane, wire.MSG_ASSIGN, assign))

    def _hello(self, lane: Lane, _type, p: dict, _nbytes, now: float) -> None:
        if p.get("proto") != wire.PROTO_VERSION:
            raise wire.ProtocolError(f"bad 'proto' field: {p.get('proto')!r}")
        minor, pid = _field(p, "minor", int, 0), _field(p, "pid", int, 0)
        cores, score = _field(p, "cores", int, 1), _field(p, "score", float, 1.0)
        if lane.name:
            return  # a repeated HELLO changes nothing
        if minor < wire.PROTO_MINOR_FLOOR:
            # An older worker is told SHUTDOWN (vocabulary every revision
            # understands, so the daemon exits instead of reconnect-looping)
            # and never becomes a lane, so the policy is not involved.
            self.net.n_losses += 1
            self.telemetry.event(
                "net.worker.lost", worker=f"{p.get('host', '?')}:{pid}", reason="proto", seq=-1,
                blackbox="",
            )
            self._out.append(Send(lane, wire.MSG_SHUTDOWN, {}))
            self._lose(lane, "proto", now)
            return
        lane.name, lane.host = f"w{len(self.lanes)}", str(p.get("host", "?"))
        lane.cores, lane.score, lane.pid = cores, score, pid
        lane.last_pong = self._last_progress = now
        self.lanes[lane.name] = lane
        self._out += [
            Send(lane, wire.MSG_WELCOME, {
                "worker": lane.name, "proto": wire.PROTO_VERSION, "minor": wire.PROTO_MINOR,
                "heartbeat_interval": HEARTBEAT_INTERVAL, "compress": lane.compress,
                "compress_min_bytes": COMPRESS_MIN_BYTES, "tiles": self.assembler is not None,
                "tile_px": self.tile_px,
            }),
            # A clock sample now: a run shorter than a heartbeat gets one too.
            Send(lane, wire.MSG_PING, {"t": now}),
        ]
        self.core.lane_up(lane.name)
        self.net.n_workers_joined += 1
        self.telemetry.event(
            "net.worker.join", worker=lane.name, host=lane.host, cores=lane.cores, score=lane.score
        )

    def _pong(self, lane: Lane, _type, p: dict, _nbytes, now: float) -> None:
        t = _field(p, "t", float, now)
        if not lane.name:
            return  # no PING went to a stranger
        self.net.n_pongs += 1
        lane.last_pong = now
        rtt = max(0.0, now - t)
        self.telemetry.event("net.pong", worker=lane.name, rtt=rtt)
        # Minimum-rtt skew estimate: the pong with the least delay is the
        # one where "the worker's clock read tw at the midpoint" is most
        # nearly true.  Only a better sample updates (and re-announces) it.
        if p.get("tw") is not None and rtt < lane.rtt_best:
            lane.offset, lane.rtt_best = _field(p, "tw", float, 0.0) - (t + rtt / 2.0), rtt
            self.telemetry.event("obs.clock", worker=lane.name, offset=lane.offset, rtt=rtt)

    def _reply(self, lane: Lane, msg_type: int, p: dict, nbytes: int, _now) -> None:
        if self.session is not None and lane.name:  # else a valid type, ignored
            self.session.on_reply(self, lane.name, msg_type, p, nbytes)

    def _blackbox(self, _lane, _type, p: dict, _nbytes, _now) -> None:
        records = p.get("records")
        if isinstance(records, list) and records:
            role = str(p.get("role", "worker")) or "worker"
            self._out.append(Blackbox(role, _field(p, "pid", int, 0), records))

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

    def _tile(self, lane: Lane, _type, p: dict, nbytes: int, now: float) -> None:
        """Composite one streamed tile, or one hold record's rects."""
        flight = self.core.flight(lane.name)
        if flight is None or p.get("seq") != flight.assignment.seq:
            return  # tile raced its assignment's loss; idempotency covers it
        a = flight.assignment
        if self.assembler is None:
            return self._lose(lane, "invalid", now, "unsolicited TILE")
        try:
            frame = int(p["frame"])
            if "held" in p:
                tiles = [(r, None) for r in self._held_rects(a, frame, p["held"])]
            else:
                tiles = [(tuple(int(p[k]) for k in ("x0", "y0", "x1", "y1")), p["pixels"])]
            done = [self.assembler.add_tile(frame, *r, px)[1] for r, px in tiles]
        except (KeyError, TypeError, ValueError):
            return self._lose(lane, "invalid", now, "malformed TILE")
        self.net.n_tiles += len(tiles)
        self.net.tile_bytes += nbytes
        if self.net.t_first_tile is None:
            self.net.t_first_tile = now - self._t0
        # One dfb.tile per composited rect; the record's bytes are split
        # among them, so the events still sum to the bytes received.
        share, extra = divmod(nbytes, max(1, len(tiles)))
        for i, ((x0, y0, x1, y1), pixels) in enumerate(tiles):
            self.telemetry.event(
                "dfb.tile", worker=lane.name, seq=a.seq, frame=frame,
                x0=x0, y0=y0, x1=x1, y1=y1, nbytes=share + (i < extra),
            )
            if self.on_tile is not None:
                self.on_tile(lane.name, frame, (x0, y0, x1, y1), pixels, done[i])

    def _result(self, lane: Lane, _type, p: dict, nbytes: int, now: float) -> None:
        flight = self.core.flight(lane.name)
        if flight is None or p.get("seq") != flight.assignment.seq:
            return  # stale or spurious; one-in-flight makes this near-impossible
        a = flight.assignment
        duration = _field(p, "duration", float, now - flight.t0)
        self._absorb(lane, p.get("events"))
        result = p.get("result")
        out = self.core.completed(lane.name, a.seq, result, now, duration)
        if isinstance(out, Close):
            return self._lose(lane, out.reason, now)
        if self.net.t_first_result is None:
            self.net.t_first_result = now - self._t0
        self._results.append(result)
        lane.n_done += 1
        self.net.n_results += 1
        self.telemetry.event(
            "net.result", worker=lane.name, seq=a.seq, nbytes=nbytes,
            compressed=lane.compress, duration=duration,
        )
        if self.on_result is not None:
            self.on_result(a, result, -lane.offset)

    def _error(self, lane: Lane, _type, p: dict, _nbytes, now: float) -> None:
        self._absorb(lane, p.get("events"))
        self._lose(lane, "error", now, str(p.get("error", "")))

    def _absorb(self, lane: Lane, events) -> None:
        """Re-emit a peer's ``events`` field on its lane's clock, checked whole first."""
        if events:
            try:
                records = parse_records(events)
            except ValueError as exc:
                raise wire.ProtocolError(f"bad 'events' field: {exc}") from None
            self.telemetry.absorb(records, t_offset=-lane.offset)

    _RULES = {
        wire.MSG_HELLO: _hello, wire.MSG_PONG: _pong, wire.MSG_TILE: _tile,
        wire.MSG_RESULT: _result, wire.MSG_ERROR: _error, wire.MSG_BLACKBOX: _blackbox,
        wire.MSG_RAYS: _reply, wire.MSG_SHADE: _reply,
    }

    # -- loss ------------------------------------------------------------------
    def _lose(self, lane: Lane, reason: str, now: float, detail: str = "") -> None:
        """Drop a connection; a lane's loss goes to the master core, after
        the frames its worker already streamed in full are salvaged."""
        if lane.closed:
            return
        lane.closed = True
        self._open.remove(lane)
        if not lane.name:
            self._out.append(Drop(lane))
            return
        self.net.n_losses += 1
        flight = self.core.flight(lane.name)
        self.telemetry.event(
            "net.worker.lost", worker=lane.name, reason=reason,
            seq=-1 if flight is None else flight.assignment.seq,
            blackbox=self.blackbox_of(lane.pid),
        )
        self._out.append(Drop(lane, f"worker-lost:{lane.name}:{reason}"))
        if flight is not None and self.assembler is not None:
            # Partial salvage, whatever the reason: frames this worker
            # already streamed in full stay done and only the remainder is
            # requeued.  Every covered rect passed the compositor's gate, so
            # the salvage count and the replacement's skip list (built from
            # the same coverage) agree.
            a = flight.assignment
            frame_done = self.assembler.frames_done(self.tile_box(a), a.frame0, a.frame1)
            if frame_done > a.frame0:
                self.net.n_frames_salvaged += frame_done - a.frame0
                self.telemetry.event(
                    "dfb.salvage", worker=lane.name, seq=a.seq, frame0=a.frame0,
                    frame_done=frame_done, frame1=a.frame1,
                )
                self.core.partial(lane.name, frame_done)
        self._last_progress = now
        self.core.lost(lane.name, reason, now, detail)
        if self.session is not None:
            # After the policy requeued the lane's shard units: orphan its
            # in-flight shard requests so the session replays them.
            self.session.on_worker_lost(self, lane.name)
