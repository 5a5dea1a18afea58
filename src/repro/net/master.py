"""The repro.net master: the socket shell of the :class:`~repro.net.core.WireCore`.

:class:`MasterServer` plays the role of the paper's PVM master on real
sockets, and keeps only what is the network's: the listener and the
selector loop, ``recv`` into a :class:`~repro.net.protocol.FrameAssembler`,
``send_frame``, and the black-box files.  What each message means — the
HELLO/WELCOME handshake where a connection becomes a scheduling *lane*,
heartbeats, streamed tiles and their salvage, which unit a lane gets and
whether its result is accepted — is the core's, fed each decoded message
and returning the frames to send and the connections to close.  A worker
that reconnects is a *new* lane, which makes reconnection
indistinguishable from a fresh machine joining the farm.

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
import multiprocessing
import os
import selectors
import socket
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from ..obs.flight import FlightRecorder, blackbox_filename, write_blackbox
from ..runtime.options import RecoveryOptions
from ..telemetry import NULL
from . import protocol as wire
from .core import Blackbox, Drop, Lane, NetStats, Send, WireCore
from .worker import WorkerClient

__all__ = ["MasterServer", "NetStats", "TcpTransport"]

#: A :class:`~repro.runtime.faults.WorkerKill` unit -> the WorkerClient keyword that arms it.
_KILL_KEYWORDS = dict(assignments="die_after", frames="die_after_frames", rays="die_after_rays")


def _loopback(peer: str) -> bool:
    """A loopback peer sends raw arrays: its socket beats zlib on a 24 KB tile."""
    return ipaddress.ip_address(peer).is_loopback


def _blackbox_of(blackbox_dir: Path | None, pid: int) -> str:
    """Path of a lost worker's dump if it already landed (a loopback worker writes
    it before ``os._exit``); ``""`` when not — a reconnecting one may ship it."""
    if blackbox_dir is None or not pid:
        return ""
    path = blackbox_dir / blackbox_filename("worker", pid)
    return str(path) if path.exists() else ""


def _drop(sel, sock: socket.socket) -> None:
    """Unregister a socket and close it.  Both are idempotent here: the
    final shutdown closes whatever the loop left, so "not registered" and
    "already closed" are expected."""
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
    """One accepted socket, and the core's record of its peer."""

    sock: socket.socket
    lane: Lane
    assembler: wire.FrameAssembler = field(default_factory=wire.FrameAssembler)


class MasterServer:
    """Accept workers and drive ``policy`` over their connections.

    ``host`` and ``port`` are where to listen.  ``blackbox_dir`` arms the
    flight recorder: where black-box dumps land (ours on a worker loss, a
    victim's when shipped over MSG_BLACKBOX) and where ``net.worker.lost``
    looks for the victim's own dump.  Every other parameter is the
    :class:`~repro.net.core.WireCore`'s (``self.wire_core``); ``self.core``
    is its :class:`~repro.sched.master.MasterCore` and ``self.net`` its
    :class:`~repro.net.core.NetStats`.
    """

    def __init__(
        self, policy, task_name: str, materialize, *, host: str = "127.0.0.1", port: int = 0,
        validate=None, recovery: RecoveryOptions = RecoveryOptions(),
        accept_timeout: float = 30.0, min_lanes: int = 1, telemetry=None, on_result=None,
        trace_root=None, assembler=None, tile_px: int | None = None, tile_box=None,
        on_tile=None, session=None, blackbox_dir=None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.telemetry = telemetry if telemetry is not None else NULL
        self.blackbox_dir = Path(blackbox_dir) if blackbox_dir else None
        self.recorder = (
            FlightRecorder("master", self.blackbox_dir).install()
            if self.blackbox_dir is not None
            else None
        )
        self.wire_core = WireCore(
            policy, task_name, materialize, validate=validate, recovery=recovery,
            accept_timeout=accept_timeout, min_lanes=min_lanes, telemetry=self.telemetry,
            on_result=on_result, trace_root=trace_root, assembler=assembler, tile_px=tile_px,
            tile_box=tile_box, on_tile=on_tile, session=session,
            # Not a bound method, whose cycle would keep a run's frames alive.
            blackbox_of=partial(_blackbox_of, self.blackbox_dir),
        )
        self.core, self.net = self.wire_core.core, self.wire_core.net
        self.address: tuple[str, int] | None = None
        self._listener: socket.socket | None = None
        self._conns: dict[Lane, _Conn] = {}

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

    def serve(self):
        """Serve until the policy is finished; returns a ``SchedOutcome``."""
        if self._listener is None:
            raise RuntimeError("call listen() before serve()")
        sel = selectors.DefaultSelector()
        sel.register(self._listener, selectors.EVENT_READ, None)
        rules = self.wire_core
        rules.start(time.perf_counter())
        try:
            while not rules.finished:
                self._perform(sel, rules.tick(time.perf_counter()))
                if rules.finished:
                    break
                for key, _mask in sel.select(timeout=0.05):
                    if key.data is None:
                        self._accept(sel)
                    else:
                        self._service(sel, key.data)
        finally:
            self._shutdown(sel)
        return rules.outcome()

    # -- socket events -----------------------------------------------------
    def _accept(self, sel) -> None:
        sock, addr = self._listener.accept()
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Conn(sock, self.wire_core.connect(compress=not _loopback(addr[0])))
        self._conns[conn.lane] = conn
        sel.register(sock, selectors.EVENT_READ, conn)

    def _service(self, sel, conn: _Conn) -> None:
        rules = self.wire_core
        try:
            data = conn.sock.recv(1 << 18)
        except OSError:
            self._perform(sel, rules.lost(conn.lane, "error", time.perf_counter()))
            return
        if not data:
            self._perform(sel, rules.lost(conn.lane, "eof", time.perf_counter()))
            return
        self.net.bytes_received += len(data)
        conn.assembler.feed(data)
        try:
            for msg_type, payload, nbytes in conn.assembler:
                self._perform(
                    sel, rules.receive(conn.lane, msg_type, payload, nbytes, time.perf_counter())
                )
                if conn.lane.closed:
                    return
        except wire.ProtocolError as exc:
            self._perform(sel, rules.lost(conn.lane, "error", time.perf_counter(), str(exc)))

    def _perform(self, sel, actions) -> None:
        """Carry out the core's actions in order.  A send that fails is its
        lane's ``eof``, and what the core makes of that is carried out too."""
        for act in actions:
            if isinstance(act, Blackbox):
                self._persist(act)
                continue
            conn = self._conns.get(act.lane)
            if conn is None:
                continue  # its connection was dropped earlier in this batch
            if isinstance(act, Drop):
                del self._conns[act.lane]
                _drop(sel, conn.sock)
                if act.dump and self.recorder is not None:
                    # The master's own last seconds around the loss are part
                    # of the autopsy: dump our ring beside the victim's.
                    self.recorder.dump(act.dump)
                continue
            try:
                self._send(conn, act.msg_type, act.payload)
            except OSError:
                self._perform(sel, self.wire_core.lost(act.lane, "eof", time.perf_counter()))

    def _send(self, conn: _Conn, msg_type: int, obj) -> int:
        n = wire.send_frame(conn.sock, msg_type, obj)
        self.wire_core.sent(conn.lane, msg_type, obj, n)
        return n

    # -- black boxes -------------------------------------------------------
    def _persist(self, box: Blackbox) -> None:
        """Write a shipped dump into the run's blackbox directory, beside
        the master's own, and announce it for post-mortem tooling."""
        path = ""
        if self.blackbox_dir is not None:
            try:
                path = str(write_blackbox(self.blackbox_dir, box.role, box.pid, box.records))
            except OSError:
                pass  # announced without a path: there is nowhere to keep it
        self.telemetry.event(
            "obs.blackbox", role=box.role, pid=box.pid, path=path, records=len(box.records)
        )

    def _shutdown(self, sel) -> None:
        # What the core decided before a run-ending error still happens (a
        # lost lane's black box); then every peer is told SHUTDOWN.
        self._perform(sel, [act for act in self.wire_core.take() if not isinstance(act, Send)])
        for conn in list(self._conns.values()):
            try:
                self._send(conn, wire.MSG_SHUTDOWN, {})
            except OSError:
                pass  # the peer hung up first: it needs no telling
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
