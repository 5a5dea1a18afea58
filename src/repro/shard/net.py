"""ShardSession: drive the sharded wavefront trace over real TCP lanes.

This is the network half of object-space sharding (DESIGN §16).  The
master owns the camera, the framebuffer and the wavefront generator
(:func:`~repro.shard.engine.sharded_trace`); workers own scene shards
and answer intersection/occlusion/shading queries.  The session plugs
into :class:`~repro.net.master.MasterServer` as its ``session`` hook so
the star topology, heartbeat machinery and loss detection of the plain
farm survive unchanged — only the dispatch loop is replaced:

* the :class:`~repro.sched.core.ObjectSpacePolicy` stays the ownership
  authority: binding a shard to a lane *is* pulling that shard's unit
  from the policy (``allow_multi`` lets one lane own many shards while
  K exceeds the worker count);
* every outgoing RAYS/SHADE request is held in a **rid-keyed outbox
  ledger** until its reply lands.  When a lane dies, the policy requeues
  its shard units (front of queue), the session orphans the lane's
  outstanding requests, and the next pump re-binds the shards and
  replays the requests to the new owners.  Replies are pure functions of
  ``(spec, frame, k, shard, request)``, so the replayed run's composite
  is bit-identical — the property ``tools/shard_smoke.py`` drills;
* a round's replies are fed back to the generator only when *all* of
  them have landed (the wavefront barrier), so reply arrival order never
  affects the accumulation order that determinism rests on.
"""

from __future__ import annotations

from ..net import protocol as wire
from ..render.framebuffer import Framebuffer
from ..sched.core import ObjectSpacePolicy
from .engine import ShardTraceStats, sharded_trace
from .partition import partition_scene

__all__ = ["ShardSession", "render_sharded_tcp"]

#: Ceiling on sends of one shard request before the run fails loudly (the
#: replay loop's runaway guard).
MAX_SENDS = 5


class ShardSession:
    """One sharded render run, pumped by the master's selectors loop.

    Parameters
    ----------
    spec:
        The :class:`~repro.runtime.spec.AnimationSpec` workers rebuild
        the scene from (nothing heavier than the recipe crosses the
        wire, same as the paper's PVM slaves re-parsing the scene).
    animation:
        The master's own build of the same spec (camera + reference for
        per-frame shard maps).
    n_frames:
        Frames to render (``[0, n_frames)``).
    shards:
        Shard count K; must equal the policy's ``n_shards``.
    """

    def __init__(
        self,
        spec,
        animation,
        n_frames: int,
        shards: int,
    ) -> None:
        self.spec_payload = {"factory": spec.factory, "kwargs": dict(spec.kwargs)}
        self.animation = animation
        self.n_frames = int(n_frames)
        self.k = int(shards)
        #: Completed frames, in order: one Framebuffer per frame.
        self.frames: list[Framebuffer] = []
        self.results: list = []  # TraceResult per frame
        self.stats: list[ShardTraceStats] = []
        self.n_replays = 0  # requests re-sent after a lane loss
        self.done = False
        self.frame = 0
        self._scene = None
        self._gen = None
        self._round: dict | None = None
        self._outstanding: dict[int, dict] = {}  # rid -> ledger entry
        self._unsent: set[int] = set()
        self._next_rid = 0
        self._bound: dict[str, list] = {}  # lane -> policy assignments held

    # -- master hooks ------------------------------------------------------
    def pump(self, master, sel, now: float) -> None:
        """One scheduling beat: bind shards, start frames, flush sends."""
        if self.done:
            return
        lanes = {
            c.name: c
            for c in master._conns.values()
            if c.registered and not c.closed
        }
        if not lanes:
            if now - master._last_progress > master.accept_timeout:
                raise RuntimeError(
                    f"no shard owners connected within {master.accept_timeout:.1f}s "
                    "with frames still pending"
                )
            return
        if self._gen is None and not master.crew_complete(len(lanes), now):
            # Deterministic start: binding on the very first join would
            # hand every shard to whichever worker won the connect race.
            return
        self._bind(master, lanes, now)
        if self._gen is None:
            self._begin()
            self._step(master, None, first=True)
            if self.done:
                return
        self._flush(master, sel, lanes, now)

    def on_reply(self, master, conn, msg_type: int, payload, nbytes: int) -> None:
        """A RAYS/SHADE answer landed: settle its ledger entry; advance
        the generator when the round's last answer is in."""
        if not isinstance(payload, dict):
            return
        entry = self._outstanding.pop(payload.get("rid"), None)
        if entry is None:
            return  # duplicate after a replay, or a zombie lane's answer
        self._unsent.discard(entry["rid"])
        rnd = self._round
        rnd["replies"][entry["slot"]] = {
            k: v for k, v in payload.items() if k != "rid"
        }
        rnd["missing"] -= 1
        if rnd["missing"] == 0:
            replies, self._round = rnd["replies"], None
            self._step(master, replies)

    def on_worker_lost(self, master, worker: str) -> None:
        """Called after ``policy.on_worker_lost`` requeued the lane's
        shard units: orphan its ledger entries so the next pump replays
        them to the reassigned owners."""
        self._bound.pop(worker, None)
        for rid, entry in self._outstanding.items():
            if entry["lane"] == worker:
                entry["lane"] = None
                self._unsent.add(rid)
                self.n_replays += 1

    # -- internals ---------------------------------------------------------
    def _bind(self, master, lanes: dict, now: float) -> None:
        """Pull shard units from the policy onto the least-loaded lanes."""
        while True:
            name = min(lanes, key=lambda n: (len(self._bound.get(n, [])), n))
            a = master.policy.next_assignment(name)
            if a is None:
                return
            self._bound.setdefault(name, []).append(a)
            master.net.n_assignments += 1
            master.telemetry.event(
                "net.assign",
                worker=name,
                seq=a.seq,
                frame0=a.frame0,
                frame1=a.frame1,
                region=a.region_index,
                nbytes=0,
            )
            master._last_progress = now

    def _begin(self) -> None:
        """Set up frame ``self.frame``'s scene, shard map and generator."""
        scene = self.animation.scene_at(self.frame)
        smap = partition_scene(scene, self.k)
        if smap.n_shards != self.k:
            raise RuntimeError(
                f"frame {self.frame} partitions into {smap.n_shards} shards, "
                f"but the policy owns {self.k}"
            )
        sstats = ShardTraceStats(self.k)
        self._scene = scene
        self._frame_stats = sstats
        self._gen = sharded_trace(
            scene,
            smap,
            scene.camera.pixel_grid(),
            shard_stats=sstats,
        )

    def _step(self, master, replies, *, first: bool = False) -> None:
        """Advance the generator to its next non-empty round (possibly
        crossing frame boundaries) and ledger the round's requests."""
        while True:
            try:
                reqs = next(self._gen) if first else self._gen.send(replies)
            except StopIteration as stop:
                self._finish_frame(master, stop.value)
                if self.done:
                    return
                self._begin()
                first, replies = True, None
                continue
            if not reqs:
                first, replies = False, []
                continue
            break
        self._round = {"replies": [None] * len(reqs), "missing": len(reqs)}
        for slot, req in enumerate(reqs):
            rid = self._next_rid
            self._next_rid += 1
            msg_type = wire.MSG_SHADE if req.op == "shade" else wire.MSG_RAYS
            self._outstanding[rid] = {
                "rid": rid,
                "slot": slot,
                "shard": int(req.shard),
                "msg_type": msg_type,
                "payload": {
                    "rid": rid,
                    "shard": int(req.shard),
                    "frame": self.frame,
                    "k": self.k,
                    "op": req.op,
                    "spec": self.spec_payload,
                    **req.payload,
                },
                "lane": None,
                "attempts": 0,
            }
            self._unsent.add(rid)

    def _flush(self, master, sel, lanes: dict, now: float) -> None:
        """Send every unsent/orphaned ledger entry whose shard has a live
        owner.  Entries whose shard is unbound (owner lost, not yet
        re-pulled) stay queued for the next pump."""
        for rid in sorted(self._unsent):
            entry = self._outstanding.get(rid)
            if entry is None or entry["lane"] is not None:
                self._unsent.discard(rid)
                continue
            owner = master.policy.shard_owner.get(entry["shard"])
            conn = lanes.get(owner) if owner is not None else None
            if conn is None or conn.closed:
                continue
            entry["attempts"] += 1
            if entry["attempts"] > MAX_SENDS:
                raise RuntimeError(
                    f"shard request {rid} (shard {entry['shard']}, frame "
                    f"{self.frame}) failed after {MAX_SENDS} attempts"
                )
            try:
                master._send(conn, entry["msg_type"], entry["payload"])
            except OSError:
                master._lose(sel, conn, "eof")  # orphans this entry too
                continue
            entry["lane"] = owner
            self._unsent.discard(rid)
            master._last_progress = now

    def _finish_frame(self, master, result) -> None:
        scene = self._scene
        fb = Framebuffer(scene.camera.width, scene.camera.height)
        fb.scatter(result.pixel_ids, result.colors)
        self.frames.append(fb)
        self.results.append(result)
        stats = self._frame_stats
        self.stats.append(stats)
        for s in range(self.k):
            owner = master.policy.shard_owner.get(s)
            master.telemetry.event(
                "shard.rays",
                worker=owner or "?",
                shard=s,
                frame=self.frame,
                n_local=int(stats.rays_local[s]),
                n_forwarded=int(stats.rays_fwd_out[s]),
            )
            master.telemetry.event(
                "shard.xfer",
                worker=owner or "?",
                shard=s,
                frame=self.frame,
                n_rays=int(stats.rays_recv[s]),
                nbytes=int(stats.bytes_to[s] + stats.bytes_from[s]),
            )
        self._gen = None
        self._scene = None
        self.frame += 1
        if self.frame >= self.n_frames:
            self._complete(master)

    def _complete(self, master) -> None:
        """All frames composited: retire every bound shard unit so the
        policy (and with it the master's serve loop) finishes."""
        for name, held in self._bound.items():
            for a in held:
                master.policy.on_result(name, a)
        self.done = True


def render_sharded_tcp(
    spec,
    *,
    frames: int | None = None,
    shards: int = 4,
    n_workers: int = 2,
    fault_plan=None,
    telemetry=None,
    blackbox_dir=None,
):
    """Render an animation object-space sharded over loopback TCP.

    Spawns ``n_workers`` real worker daemons, binds the K shards across
    them through an :class:`~repro.sched.core.ObjectSpacePolicy`, and
    drives the wavefront trace through a :class:`ShardSession`.  Returns
    ``(session, outcome)`` — ``session.frames`` holds one Framebuffer
    per frame, bit-identical to ``RayTracer(scene).render()``'s, even
    when ``fault_plan`` (``FaultPlan.kill_worker(i, n, "rays")``) kills a
    shard owner mid-run.

    ``blackbox_dir`` arms the flight recorder (DESIGN §17) on the master
    *and* every spawned daemon: a shard owner killed by the plan
    leaves ``blackbox_worker_<pid>.jsonl`` there, and the session's
    ``net.worker.lost`` event points at it.
    """
    from ..net.master import TcpTransport
    from ..runtime.options import FarmOptions

    anim = spec.build()
    n_frames = anim.n_frames if frames is None else int(frames)
    if not 1 <= n_frames <= anim.n_frames:
        raise ValueError(f"frames must be in [1, {anim.n_frames}]")
    k = partition_scene(anim.scene_at(0), shards).n_shards  # clamped to n_objects
    policy = ObjectSpacePolicy(k, n_frames)
    policy.allow_multi = True  # one TCP lane may own many shards
    session = ShardSession(spec, anim, n_frames, k)
    transport = TcpTransport(
        policy,
        "shard.query",  # never dispatched: the session replaces ASSIGN
        lambda a, worker: None,
        FarmOptions(
            n_workers=n_workers, fault_plan=fault_plan,
            telemetry=telemetry, blackbox_dir=blackbox_dir,
        ),
        session=session,
        min_lanes=n_workers,  # ownership follows the worker count
    )
    outcome = transport.run()
    return session, outcome
