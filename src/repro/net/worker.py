"""The worker daemon: ``python -m repro.worker --connect HOST:PORT``.

One daemon is one rendering slave on the network of workstations.  It
connects to a :class:`~repro.net.master.MasterServer`, introduces itself
(hostname, core count, and a measured **calibration score** — relative
compute speed, the real-world stand-in for the simulator's
machine-speed table that :class:`~repro.sched.cost.OracleCostModel`
prices against), then serves assignments until the master says stop:

* a **reader thread** owns the socket's receive side: heartbeat PINGs
  are answered immediately (so the master can tell "dead" from "busy
  rendering"), assignments are queued for the render loop;
* the **render loop** executes one assignment at a time through the
  :mod:`~repro.net.tasks` registry and streams the framed result back,
  zlib-compressing framebuffer arrays when the master asked for it;
* a dropped connection triggers **reconnection with exponential
  backoff** (which also covers "worker started before the master"); a
  clean SHUTDOWN ends the daemon.

``die_after=N`` is the fault hook: the daemon hard-exits
(``os._exit``) on receiving its ``N+1``-th assignment — a deterministic
stand-in for a workstation crashing mid-sequence, used by the recovery
tests and the CI ``net-smoke`` drill.  ``die_after_frames=N`` is the
mid-task variant: the daemon dies the moment frame event ``N+1`` crosses
the telemetry spine, i.e. *inside* an assignment with the task span still
open — the scenario the flight-recorder black box (DESIGN §17) exists
for.  Every kill path dumps the ring first; on (re)connect the daemon
ships any black boxes a predecessor process left in ``--blackbox-dir``
to the master over ``MSG_BLACKBOX``, so post-mortems survive even when
the run directory is not shared storage.

In **object-space sharded** runs (protocol minor 4, DESIGN §16) the
worker additionally serves RAYS/SHADE queries against the scene shard it
owns: it rebuilds the scene from the animation spec named in the request
(the same no-live-data-on-the-wire rule the paper's PVM slaves followed),
partitions it with the deterministic :mod:`repro.shard` splitter, and
answers intersection/occlusion/shading queries for its members.  Because
replies are pure functions of ``(spec, frame, k, shard, request)``, a
replacement owner answers replayed requests bit-identically — which is
what makes the master's outbox-ledger replay after a crash exact.
``die_after_rays=N`` is the matching fault hook: hard-exit before
serving shard request ``N+1`` (the CI ``shard-smoke`` drill).
"""

from __future__ import annotations

import argparse
import os
import queue
import random
import socket
import threading
import time
import zlib

import numpy as np

from ..dfb import tile_rects
from ..obs.flight import FlightRecorder, blackbox_filename, read_blackbox
from ..telemetry import InMemorySink, Telemetry
from . import protocol as wire
from .tasks import REGISTRY

__all__ = ["WorkerClient", "calibrate", "main"]

#: Exit codes: clean shutdown / gave up reconnecting / injected crash.
EXIT_OK = 0
EXIT_GAVE_UP = 1
EXIT_INJECTED_CRASH = 17


def calibrate(n: int = 40, size: int = 64) -> float:
    """A quick relative-speed score: repetitions/second of a small fixed
    numpy workload (matmul + transcendental), normalized so ~1.0 is a
    mid-2020s laptop core.  Deliberately coarse — the master only needs
    an ordering, the way the paper's farm knew the 250 MHz machine from
    the 180 MHz ones."""
    a = np.linspace(0.0, 1.0, size * size).reshape(size, size)
    t0 = time.perf_counter()
    for _ in range(n):
        a = np.tanh(a @ a.T * 1e-3 + 0.1)
    elapsed = max(1e-9, time.perf_counter() - t0)
    return round(n / elapsed / 2000.0, 4)


class _ConnectionLost(Exception):
    """Reader thread saw EOF or a socket error."""


class _TileSink:
    """The worker half of the distributed framebuffer: cut each finished
    frame region into the master's tile grid and stream MSG_TILE frames.

    A streaming task calls ``sink(frame, x0, y0, image, changed)`` once
    per finished frame, where ``image`` is the ``(h, w, 3)`` pixels of its
    region with absolute origin ``(x0, y0)`` — possibly a view of live
    renderer state: every tile is copied out and sent before the call
    returns — and ``changed`` the ``(h, w)`` mask of the pixels the frame
    recomputed.  A tile with a recomputed pixel ships its pixels; the
    frame's other tiles are the same as in the frame before and go out
    together as one pixel-less hold record, ``held`` listing their rects.
    Tiles the master already holds (the ASSIGN's skip list — a lost
    predecessor streamed them) are rendered but not re-shipped.  Shares
    the socket's send lock with the heartbeat-responder thread.
    """

    __slots__ = ("sock", "seq", "tile_px", "skip", "lock", "compress", "compress_min")

    def __init__(self, sock, seq: int, directive: dict, lock, compress: bool, compress_min: int):
        self.sock = sock
        self.seq = int(seq)
        self.tile_px = int(directive["tile_px"])
        self.skip = {tuple(int(v) for v in key) for key in directive.get("skip", ())}
        self.lock = lock
        self.compress = compress
        self.compress_min = compress_min

    def _send(self, payload: dict) -> None:
        wire.send_frame(
            self.sock, wire.MSG_TILE, {"seq": self.seq, **payload}, lock=self.lock,
            compress_arrays=self.compress, compress_min_bytes=self.compress_min,
        )

    def __call__(self, frame: int, x0: int, y0: int, image: np.ndarray, changed) -> None:
        frame, x0, y0 = int(frame), int(x0), int(y0)
        h, w = image.shape[:2]
        held = []
        for tx0, ty0, tx1, ty1 in tile_rects(x0, y0, x0 + w, y0 + h, self.tile_px):
            if (frame, tx0, ty0, tx1, ty1) in self.skip:
                continue
            rows, cols = slice(ty0 - y0, ty1 - y0), slice(tx0 - x0, tx1 - x0)
            if not changed[rows, cols].any():
                held.append((tx0, ty0, tx1, ty1))
                continue
            self._send({
                "frame": frame, "x0": tx0, "y0": ty0, "x1": tx1, "y1": ty1,
                "pixels": np.ascontiguousarray(image[rows, cols]),
            })
        if held:
            self._send({"frame": frame, "held": held})


class WorkerClient:
    """One connection lifecycle manager (plus its reconnect loop).

    Parameters
    ----------
    host, port:
        The master's address.
    registry:
        Task name -> callable (defaults to :data:`repro.net.tasks.REGISTRY`).
    max_retries:
        Connection attempts per (re)connect before giving up.
    backoff_base / backoff_cap:
        Exponential backoff between attempts, seconds.
    die_after / die_after_rays / die_after_frames:
        The fault hooks of the module docstring: crash hard on receiving
        assignment, before serving shard request, or the instant frame
        event number ``N + 1`` crosses the telemetry spine (``None`` = never).
    blackbox_dir:
        Where the flight recorder dumps ``blackbox_worker_<pid>.jsonl``
        on a kill path (``None`` = no file dumps).  Predecessor dumps
        found here are shipped to the master on (re)connect.
    score:
        Calibration score override (``None`` = measure one now).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        registry: dict | None = None,
        max_retries: int = 20,
        backoff_base: float = 0.2,
        backoff_cap: float = 3.0,
        die_after: int | None = None,
        die_after_rays: int | None = None,
        die_after_frames: int | None = None,
        blackbox_dir=None,
        score: float | None = None,
        label: str | None = None,
        verbose: bool = False,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.registry = registry if registry is not None else REGISTRY
        self.max_retries = max(1, int(max_retries))
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.die_after = die_after
        self.die_after_rays = die_after_rays
        self.die_after_frames = die_after_frames
        self.score = calibrate() if score is None else float(score)
        self.label = label or f"{socket.gethostname()}:{os.getpid()}"
        self.verbose = verbose
        self.worker_id = ""
        self.n_rendered = 0
        self._n_assigned = 0
        self._n_shard_served = 0
        # (factory, kwargs-repr, frame, k, shard) -> ShardWorker; scenes
        # are expensive to rebuild and one frame sees many requests.
        self._shard_workers: dict = {}
        self._send_lock = threading.Lock()
        self._compress = True
        self._compress_min = 4096
        self._tiles = False  # tile-streaming grant from WELCOME
        # Worker-side net telemetry rides to the master inside the next
        # RESULT/ERROR frame (a disconnected worker has no other channel).
        self._sink = InMemorySink()
        self._tel = Telemetry(sinks=(self._sink,))
        # The black box: taps every telemetry record this process emits
        # (including the short-lived per-task sessions) and dumps the
        # ring on any kill path.  The frame-counting hook is how
        # ``die_after_frames`` sees frames rendered *inside* a task.
        self.recorder = FlightRecorder("worker", blackbox_dir)
        self.recorder.hook = self._on_record
        self._n_frames_seen = 0
        self._shipped: set[str] = set()  # black boxes already sent upstream

    # -- logging ---------------------------------------------------------------
    def _log(self, msg: str) -> None:
        if self.verbose:
            print(f"[repro.worker {self.label}] {msg}", flush=True)

    def _drain_events(self) -> list:
        events, self._sink.events[:] = list(self._sink.events), []
        return events

    # -- flight recorder -------------------------------------------------------
    def _on_record(self, rec: dict) -> None:
        """Recorder hook: count frame events for the mid-task fault drill.

        Frame completions are point events emitted by the render engine
        from *inside* the task function, so this is the only place the
        daemon can observe them — and crashing here leaves the task span
        open, which is exactly what the black-box stitch test wants."""
        if rec.get("name") != "frame":
            return
        self._n_frames_seen += 1
        if (
            self.die_after_frames is not None
            and self._n_frames_seen > self.die_after_frames
        ):
            self._log(f"injected crash on frame {self._n_frames_seen} (mid-task)")
            self.recorder.dump("die-after-frames")
            os._exit(EXIT_INJECTED_CRASH)

    def _ship_blackboxes(self, sock: socket.socket) -> None:
        """Send any black boxes a *predecessor* worker process left in the
        dump directory to the master (MSG_BLACKBOX, protocol minor 5).

        This is how a post-mortem escapes a workstation whose disk the
        master cannot read: the replacement daemon finds the corpse's
        ring on its local disk and relays it over the fresh connection.
        Each file ships at most once per daemon lifetime; re-shipping by
        a later replacement is idempotent (the master rewrites the same
        role/pid-named file with the same records)."""
        if self.recorder.out_dir is None:
            return
        try:
            candidates = sorted(self.recorder.out_dir.glob("blackbox_worker_*.jsonl"))
        except OSError:
            return
        own = blackbox_filename("worker", self.recorder.pid)
        for path in candidates:
            if path.name == own or str(path) in self._shipped:
                continue
            try:
                records = read_blackbox(path)
            except OSError:
                continue
            if not records:
                continue
            meta = records[0].get("attrs") or {} if isinstance(records[0], dict) else {}
            wire.send_frame(
                sock,
                wire.MSG_BLACKBOX,
                {
                    "role": "worker",
                    "pid": int(meta.get("pid", 0) or 0),
                    "reason": str(meta.get("reason", "recovered")),
                    "records": records,
                },
                lock=self._send_lock,
            )
            self._shipped.add(str(path))
            self._log(f"shipped black box {path.name} ({len(records)} records)")

    # -- connection ------------------------------------------------------------
    def backoff_delays(self):
        """The reconnect schedule: capped exponential with deterministic
        per-worker jitter, ``max_retries`` long.

        When a master restarts, every surviving daemon notices the dropped
        connection at the same instant; a bare exponential would march
        them all back in lockstep — a thundering herd hammering the fresh
        listener on every rung of the schedule.  Each delay is therefore
        scaled by a jitter factor in ``[0.5, 1.5)`` drawn from a PRNG
        seeded by the worker's label, so the herd spreads out while any
        one worker's schedule stays exactly reproducible (the property the
        reconnect tests pin)."""
        rng = random.Random(zlib.crc32(self.label.encode("utf-8")))
        for attempt in range(self.max_retries):
            jitter = 0.5 + rng.random()
            yield min(self.backoff_cap, self.backoff_base * (2.0**attempt) * jitter)

    def _connect(self) -> socket.socket | None:
        """Dial the master, retrying with backoff; None when out of retries
        (at once after the last attempt fails: no wait precedes giving up)."""
        for attempt, delay in enumerate(self.backoff_delays()):
            try:
                sock = socket.create_connection((self.host, self.port), timeout=10.0)
            except OSError as exc:
                if attempt + 1 < self.max_retries:
                    self._log(f"connect attempt {attempt} failed ({exc}); retry in {delay:.2f}s")
                    time.sleep(delay)
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._tel.event(
                "net.connect",
                worker=self.label,
                host=self.host,
                port=self.port,
                attempt=attempt,
            )
            return sock
        return None

    def _handshake(self, sock: socket.socket) -> str:
        """Register with the master; returns ``"ok"``, ``"rejected"``
        (master answered SHUTDOWN — protocol revision mismatch; exit
        cleanly instead of reconnect-looping) or ``"lost"``."""
        wire.send_frame(
            sock,
            wire.MSG_HELLO,
            {
                "proto": wire.PROTO_VERSION,
                "minor": wire.PROTO_MINOR,
                "host": socket.gethostname(),
                "pid": os.getpid(),
                "cores": os.cpu_count() or 1,
                "score": self.score,
            },
            lock=self._send_lock,
        )
        got = wire.recv_frame(sock)
        if got is None:
            return "lost"
        if got[0] == wire.MSG_SHUTDOWN:
            self._log("master rejected the handshake (protocol revision); exiting")
            return "rejected"
        if got[0] != wire.MSG_WELCOME:
            return "lost"
        welcome = got[1]
        self.worker_id = str(welcome.get("worker", ""))
        self._compress = bool(welcome.get("compress", True))
        self._compress_min = int(welcome.get("compress_min_bytes", 4096))
        self._tiles = bool(welcome.get("tiles", False))
        self._log(f"registered as {self.worker_id!r}")
        return "ok"

    # -- receive side ----------------------------------------------------------
    def _reader(self, sock: socket.socket, inbox: queue.Queue) -> None:
        """Owns recv: answer pings inline, queue everything else."""
        try:
            while True:
                got = wire.recv_frame(sock)
                if got is None:
                    break
                msg_type, payload = got
                if msg_type == wire.MSG_PING:
                    # tw samples this worker's clock at the reply: with the
                    # echoed t and the measured rtt the master estimates
                    # per-worker skew (obs.clock) and folds remote span
                    # timestamps onto its own time axis.
                    wire.send_frame(
                        sock,
                        wire.MSG_PONG,
                        {"t": payload.get("t", 0.0), "tw": time.perf_counter()},
                        lock=self._send_lock,
                    )
                elif msg_type == wire.MSG_ASSIGN:
                    inbox.put(("assign", payload))
                elif msg_type in (wire.MSG_RAYS, wire.MSG_SHADE):
                    inbox.put(("shard", (msg_type, payload)))
                elif msg_type == wire.MSG_SHUTDOWN:
                    inbox.put(("shutdown", None))
                    return
                # anything else from the master is ignored, not fatal
        except (OSError, wire.ProtocolError):
            pass  # a dead or garbled connection ends the reader: reported as "lost" below
        inbox.put(("lost", None))

    # -- work ------------------------------------------------------------------
    def _run_assignment(self, sock: socket.socket, payload: dict) -> None:
        self._n_assigned += 1
        if self.die_after is not None and self._n_assigned > self.die_after:
            self._log(f"injected crash on assignment {self._n_assigned}")
            self.recorder.dump("die-after")
            os._exit(EXIT_INJECTED_CRASH)
        seq = int(payload.get("seq", -1))
        name = str(payload.get("task", ""))
        fn = self.registry.get(name)
        t0 = time.perf_counter()
        try:
            if fn is None:
                raise wire.ProtocolError(f"unregistered task {name!r}")
            directive = payload.get("tiles")
            if (
                self._tiles
                and isinstance(directive, dict)
                and getattr(fn, "streaming", False)
            ):
                sink = _TileSink(
                    sock, seq, directive, self._send_lock,
                    self._compress, self._compress_min,
                )
                result = fn(payload.get("args"), emit_tile=sink)
            else:
                result = fn(payload.get("args"))
        except Exception as exc:  # reported, not fatal: the master decides
            wire.send_frame(
                sock,
                wire.MSG_ERROR,
                {"seq": seq, "error": repr(exc), "events": self._drain_events()},
                lock=self._send_lock,
            )
            return
        self.n_rendered += 1
        wire.send_frame(
            sock,
            wire.MSG_RESULT,
            {
                "seq": seq,
                "result": result,
                "duration": time.perf_counter() - t0,
                "events": self._drain_events(),
            },
            lock=self._send_lock,
            compress_arrays=self._compress,
            compress_min_bytes=self._compress_min,
        )

    # -- object-space sharding (protocol minor 4) ------------------------------
    def _shard_worker_for(self, spec: dict, frame: int, k: int, shard: int):
        """Build (or fetch) the ShardWorker owning ``shard`` of this frame.

        The scene is rebuilt from the animation spec and re-partitioned
        locally — the owner map is a pure function of ``(scene, k)``, so
        master and worker agree on membership without shipping it.
        """
        from ..runtime.spec import AnimationSpec
        from ..shard import ShardWorker, partition_scene

        kwargs = dict(spec.get("kwargs") or {})
        key = (str(spec["factory"]), repr(sorted(kwargs.items())), frame, k, shard)
        worker = self._shard_workers.get(key)
        if worker is None:
            scene = AnimationSpec(str(spec["factory"]), kwargs).build().scene_at(frame)
            worker = ShardWorker(scene, partition_scene(scene, k), shard)
            if len(self._shard_workers) >= 4:  # tiny LRU: evict the oldest
                self._shard_workers.pop(next(iter(self._shard_workers)))
            self._shard_workers[key] = worker
        return worker

    def _run_shard(self, sock: socket.socket, msg_type: int, payload: dict) -> None:
        self._n_shard_served += 1
        if self.die_after_rays is not None and self._n_shard_served > self.die_after_rays:
            self._log(f"injected crash on shard request {self._n_shard_served}")
            self.recorder.dump("die-after-rays")
            os._exit(EXIT_INJECTED_CRASH)
        rid = payload.get("rid")
        try:
            op = "shade" if msg_type == wire.MSG_SHADE else str(payload.get("op", "nearest"))
            worker = self._shard_worker_for(
                payload["spec"],
                int(payload.get("frame", 0)),
                int(payload["k"]),
                int(payload["shard"]),
            )
            result = worker.serve(op, payload)
        except Exception as exc:  # master drops the lane and replays elsewhere
            wire.send_frame(
                sock,
                wire.MSG_ERROR,
                {"seq": -1, "rid": rid, "error": repr(exc), "events": self._drain_events()},
                lock=self._send_lock,
            )
            return
        wire.send_frame(
            sock,
            msg_type,
            {"rid": rid, **result},
            lock=self._send_lock,
            compress_arrays=self._compress,
            compress_min_bytes=self._compress_min,
        )

    def _serve(self, sock: socket.socket) -> str:
        """Serve one connection to completion; returns why it ended."""
        hs = self._handshake(sock)
        if hs != "ok":
            return "shutdown" if hs == "rejected" else "lost"
        try:
            self._ship_blackboxes(sock)
        except OSError:
            return "lost"
        inbox: queue.Queue = queue.Queue()
        reader = threading.Thread(
            target=self._reader, args=(sock, inbox), name="repro-net-reader", daemon=True
        )
        reader.start()
        while True:
            kind, payload = inbox.get()
            if kind == "assign":
                try:
                    self._run_assignment(sock, payload)
                except OSError:
                    return "lost"
            elif kind == "shard":
                try:
                    self._run_shard(sock, *payload)
                except OSError:
                    return "lost"
            else:
                return kind  # "shutdown" | "lost"

    def run(self) -> int:
        """Connect (and reconnect) until shut down; returns an exit code."""
        self.recorder.install()  # record for the daemon's whole lifetime
        try:
            while True:
                sock = self._connect()
                if sock is None:
                    self._log("out of connection retries; giving up")
                    return EXIT_GAVE_UP
                try:
                    ended = self._serve(sock)
                finally:
                    try:
                        sock.close()
                    except OSError:
                        pass  # the master closed it first
                if ended == "shutdown":
                    self._log(f"clean shutdown after {self.n_rendered} assignments")
                    return EXIT_OK
                self._log("connection lost; reconnecting")
        finally:
            self.recorder.uninstall()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (both ``python -m repro.worker`` and ``repro worker``)."""
    parser = argparse.ArgumentParser(
        prog="repro worker",
        description="Rendering worker daemon: connect to a repro.net master and serve "
        "assignments until shut down.",
    )
    parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="address of the repro.net master",
    )
    parser.add_argument(
        "--score", type=float, default=None,
        help="calibration score override (default: measure a quick benchmark)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=20,
        help="connection attempts (exponential backoff) before giving up",
    )
    parser.add_argument(
        "--die-after", type=int, default=None, metavar="N",
        help="fault drill: crash hard on receiving assignment N+1",
    )
    parser.add_argument(
        "--die-after-rays", type=int, default=None, metavar="N",
        help="fault drill: crash hard before serving shard request N+1",
    )
    parser.add_argument(
        "--die-after-frames", type=int, default=None, metavar="N",
        help="fault drill: crash hard (mid-task) on rendering frame N+1",
    )
    parser.add_argument(
        "--blackbox-dir", default=None, metavar="DIR",
        help="flight-recorder dump directory (black boxes land here on a crash)",
    )
    parser.add_argument("--verbose", action="store_true", help="log to stdout")
    # Every other flag is named after the WorkerClient keyword it sets.
    options = vars(parser.parse_args(argv))
    connect = options.pop("connect")
    host, _, port = connect.rpartition(":")
    if not host or not port.isdigit():
        parser.error(f"--connect wants HOST:PORT, got {connect!r}")
    return WorkerClient(host, int(port), **options).run()
