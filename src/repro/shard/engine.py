"""The sharded tracing engine: owners answer ray queries, the master merges.

Execution model
---------------
A :class:`ShardWorker` is a *pure query server* over one shard's objects:
``nearest`` (closest hit among owned objects), ``occlude`` (per-object
shadow-blocking events), ``shade`` (pigment/finish evaluation at hit
points).  Every reply is a pure function of the request payload — that is
what makes loss replay trivial: a restarted owner given the same request
produces the bit-identical reply.

The master runs :func:`sharded_trace`, a *sans-io generator* that yields
rounds of :class:`ShardRequest` and receives the aligned replies via
``send()``.  The same generator is pumped by the in-process
:class:`LocalShardFarm` (tests, drills) and by the TCP
:class:`~repro.shard.net.ShardSession` inside the master's selectors loop.

There is no tracing loop here.  ``sharded_trace`` drives
:func:`repro.render.raytracer.trace` — the kernel the serial
:class:`~repro.render.raytracer.RayTracer` drives — with a
:class:`_ShardBackend`, so batch order, child spawn, culling and every
accumulation are the serial tracer's by construction.  The backend only
decides *who answers*: round A fans a batch's nearest-hit query out to the
shards its rays may touch, round B fetches materials and occlusion events
for the hit set.

Determinism contract (DESIGN §16)
---------------------------------
The sharded composite must be **bit-identical** to
:meth:`repro.render.raytracer.RayTracer.trace_pixels`.  With control flow
shared, three rules make the backend's answers exact:

1. *Nearest merge* is a lexicographic minimum on ``(t, object index)``:
   the serial intersector scans objects in ascending index with a strict
   ``t < best`` update, so ties go to the lowest index — the merge
   reproduces that with ``(t < best) | ((t == best) & (obj < best_obj))``.
2. *Occlusion-event replay*: owners do not multiply shadow attenuations
   locally (cross-shard products could reassociate).  They report, per
   transmissive occluder, ``(object index, transmission, blocked mask)``
   plus an opaque mask; the master replays the multiplies in ascending
   object index and zeroes opaque rays afterwards — the exact value
   sequence of the serial ``shadow_attenuation`` loop.
3. *Pure replies*: what an owner returns depends on the request alone, so
   a replayed request is answered identically by a replacement owner.

Shading runs the real :func:`~repro.render.shading.shade_local`: round B
hands the kernel a replay intersector (attenuations precomputed from the
occlusion events, popped in call order) and a proxy scene whose materials
return owner-prefetched colors and finish constants.
"""

from __future__ import annotations

from collections import deque, namedtuple
from dataclasses import dataclass

import numpy as np

from ..geometry import MISS, RayBatch
from ..render.framebuffer import Framebuffer
from ..render.intersect import SceneIntersector, attenuate
from ..render.raytracer import TraceResult, trace
from ..rmath import dot
from .partition import ShardMap, partition_scene

__all__ = [
    "LocalShardFarm",
    "ShardRequest",
    "ShardTraceStats",
    "ShardWorker",
    "payload_nbytes",
    "pump_local",
    "render_frame_sharded",
    "sharded_trace",
]

#: Self-intersection epsilon of the serial shadow pipeline.
_SHADOW_EPS = 1e-6


def payload_nbytes(payload: dict) -> int:
    """Wire-size estimate of a request/reply payload (array bytes + slack)."""
    total = 0
    for value in payload.values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        else:
            total += 8
    return total


@dataclass
class ShardRequest:
    """One query addressed to a shard owner."""

    shard: int
    op: str  # "nearest" | "occlude" | "shade"
    payload: dict


class ShardTraceStats:
    """Per-shard traffic counters for one sharded trace.

    ``rays_recv[s]`` counts rays shard *s* served; ``rays_local[s]`` the
    subset whose *home* (the owner of the surface that spawned them;
    camera rays have no home) is *s* itself; ``rays_fwd_out[h]`` counts
    rays home shard *h* had to ship to a different owner.  Byte counters
    price the request/reply payloads as they would travel on the wire.
    """

    def __init__(self, n_shards: int):
        self.n_shards = int(n_shards)
        self.rays_recv = np.zeros(n_shards, dtype=np.int64)
        self.rays_local = np.zeros(n_shards, dtype=np.int64)
        self.rays_fwd_out = np.zeros(n_shards, dtype=np.int64)
        self.shade_points = np.zeros(n_shards, dtype=np.int64)
        self.n_requests = np.zeros(n_shards, dtype=np.int64)
        self.bytes_to = np.zeros(n_shards, dtype=np.int64)
        self.bytes_from = np.zeros(n_shards, dtype=np.int64)

    def note_request(self, shard: int, homes: np.ndarray, payload: dict) -> None:
        n = homes.shape[0]
        self.rays_recv[shard] += n
        self.n_requests[shard] += 1
        self.bytes_to[shard] += payload_nbytes(payload)
        self.rays_local[shard] += int(np.count_nonzero(homes == shard))
        fwd = homes[(homes >= 0) & (homes != shard)]
        if fwd.size:
            np.add.at(self.rays_fwd_out, fwd, 1)

    def note_shade(self, shard: int, n_points: int, payload: dict) -> None:
        self.shade_points[shard] += n_points
        self.n_requests[shard] += 1
        self.bytes_to[shard] += payload_nbytes(payload)

    def note_reply(self, shard: int, payload: dict) -> None:
        self.bytes_from[shard] += payload_nbytes(payload)

    @property
    def total_ray_bytes(self) -> int:
        return int(self.bytes_to.sum() + self.bytes_from.sum())

    def as_dict(self) -> dict:
        return {
            "n_shards": self.n_shards,
            "rays_recv": self.rays_recv.tolist(),
            "rays_local": self.rays_local.tolist(),
            "rays_fwd_out": self.rays_fwd_out.tolist(),
            "shade_points": self.shade_points.tolist(),
            "n_requests": self.n_requests.tolist(),
            "bytes_to": self.bytes_to.tolist(),
            "bytes_from": self.bytes_from.tolist(),
            "total_ray_bytes": self.total_ray_bytes,
        }


class ShardWorker:
    """Owner of one shard: a stateless query server over its objects.

    Replies are pure functions of ``(scene, shard map, request)``, so a
    replacement owner rebuilt from the animation spec answers replayed
    requests bit-identically — the property the loss drill asserts.
    """

    def __init__(self, scene, smap: ShardMap, shard: int):
        self.shard = int(shard)
        self.gidx = np.asarray(smap.members[self.shard], dtype=np.int64)
        self.objects = [scene.objects[int(i)] for i in self.gidx]
        self.intersector = SceneIntersector(self.objects)
        self.n_rays_served = 0

    def serve(self, op: str, payload: dict) -> dict:
        if op == "nearest":
            return self._nearest(payload)
        if op == "occlude":
            return self._occlude(payload)
        if op == "shade":
            return self._shade(payload)
        raise ValueError(f"unknown shard op {op!r}")

    def _nearest(self, payload: dict) -> dict:
        origins = payload["origins"]
        dirs = payload["dirs"]
        n = origins.shape[0]
        self.n_rays_served += n
        before = self.intersector.n_primitive_tests
        batch = RayBatch(
            origins=origins,
            dirs=dirs,
            pixel=np.zeros(n, dtype=np.int64),
            weight=np.zeros((n, 3), dtype=np.float64),
        )
        rec = self.intersector.nearest(batch)
        obj_g = np.full(n, -1, dtype=np.int64)
        hit = rec.obj_index >= 0
        obj_g[hit] = self.gidx[rec.obj_index[hit]]
        return {
            "t": rec.t,
            "obj": obj_g,
            "normals": rec.normals,
            "n_tests": self.intersector.n_primitive_tests - before,
        }

    def _occlude(self, payload: dict) -> dict:
        """Shadow-blocking *events*, not attenuations.

        The opaque mask and the per-transmissive-occluder masks come from
        the ``t``-only pass the serial ``shadow_attenuation`` runs, over
        every owned object: its batch skip is value-neutral (a skipped
        object is provably unhittable).
        """
        n = payload["origins"].shape[0]
        self.n_rays_served += n
        before = self.intersector.n_primitive_tests
        rays = payload["origins"], payload["dirs"], payload["max_dist"]
        opaque, events = self.intersector.occlusion(range(len(self.objects)), *rays, _SHADOW_EPS)
        return {
            "opaque": opaque,
            "ev_obj": np.asarray([self.gidx[i] for i, _, _ in events], dtype=np.int64),
            "ev_factor": np.asarray([f for _, f, _ in events], dtype=np.float64),
            "ev_mask": np.stack([m for _, _, m in events]) if events else np.zeros((0, n), dtype=bool),
            "n_tests": self.intersector.n_primitive_tests - before,
        }

    def _shade(self, payload: dict) -> dict:
        """Pigment colors and finish constants for owned-object hits."""
        obj = payload["obj"]
        points = payload["points"]
        m = obj.shape[0]
        colors = np.zeros((m, 3), dtype=np.float64)
        uobj = np.unique(obj)
        finishes = np.zeros((uobj.size, len(_PrefetchedFinish._fields)), dtype=np.float64)
        owned = set(int(i) for i in self.gidx)
        for j, gi in enumerate(uobj):
            if int(gi) not in owned:
                raise ValueError(f"shade request for object {int(gi)} not owned by shard {self.shard}")
            sel = obj == gi
            mat = self.objects[int(np.searchsorted(self.gidx, gi))].material
            if mat is None:
                raise ValueError(f"object {int(gi)} has no material")
            colors[sel] = mat.color_at(points[sel])
            finishes[j] = [getattr(mat.finish, name) for name in _PrefetchedFinish._fields]
        return {"colors": colors, "uobj": uobj, "finishes": finishes}


# -- proxies that let the real shade_local run on prefetched data -----------
#: A ``shade`` reply's finish row, in wire order: what the owner packs and
#: what the master's proxy material exposes as attributes.
_PrefetchedFinish = namedtuple(
    "_PrefetchedFinish", "ambient diffuse specular phong_size reflection transmission ior"
)


class _PrefetchedMaterial:
    """Returns owner-computed pigment rows for exactly one gather."""

    __slots__ = ("_rows", "finish")

    def __init__(self, rows: np.ndarray, finish: _PrefetchedFinish):
        self._rows = rows
        self.finish = finish

    def color_at(self, points: np.ndarray) -> np.ndarray:
        if points.shape[0] != self._rows.shape[0]:
            raise RuntimeError("prefetched pigment rows do not match the gather")
        return self._rows


class _ProxyObj:
    __slots__ = ("material", "name")

    def __init__(self, material, name):
        self.material = material
        self.name = name


class _ProxyScene:
    """Quacks like a Scene for ``shade_local``: objects / lights / ambient."""

    def __init__(self, scene, obj_index: np.ndarray, colors: np.ndarray, finishes: dict):
        objects = {}
        for gi in np.unique(obj_index):
            sel = obj_index == gi
            finish = _PrefetchedFinish(*map(float, finishes[int(gi)]))
            mat = _PrefetchedMaterial(colors[sel], finish)
            objects[int(gi)] = _ProxyObj(mat, f"shard-proxy-{int(gi)}")
        self.objects = objects
        self.ambient_light = scene.ambient_light
        self.lights = scene.lights


class _ReplayIntersector:
    """Answers ``shadow_attenuation`` from precomputed event replays.

    ``shade_local`` calls it once per shadow-ray volley, in a sequence
    that :func:`_shadow_plan` reproduces exactly, so popping in call
    order aligns every answer with its volley.
    """

    __slots__ = ("_attens",)

    def __init__(self, attens: list[np.ndarray]):
        self._attens = deque(attens)

    def shadow_attenuation(self, origins, dirs, max_dist, eps: float = 1e-6) -> np.ndarray:
        return self._attens.popleft()


@dataclass
class _ShadowCall:
    """One shadow-ray volley ``shade_local`` will fire."""

    origins: np.ndarray
    dirs: np.ndarray
    dists: np.ndarray
    fire: np.ndarray  # (K,) mask into the hit set


def _shadow_plan(scene, points: np.ndarray, normals: np.ndarray) -> list[_ShadowCall]:
    """The exact ``shadow_attenuation`` call sequence of ``shade_local``.

    Valid because the inputs of every volley (light geometry, lit masks)
    are independent of any attenuation *result* — so all volleys can be
    precomputed and their occlusion queries fanned out in one round.
    """
    shadow_origins = points + normals * _SHADOW_EPS
    calls: list[_ShadowCall] = []
    for light in scene.lights:
        l_dirs, l_dists = light.shadow_rays(shadow_origins)
        lit = dot(normals, l_dirs) > 0.0
        fire = lit  # no shadow cache in shard mode
        if not np.any(fire):
            continue
        calls.append(_ShadowCall(shadow_origins[fire], l_dirs[fire], l_dists[fire], fire))
    return calls


class _ShardBackend:
    """Answers the tracing kernel's questions by asking the shard owners.

    Both answers are generators that yield one round of
    :class:`ShardRequest` and receive the aligned replies; a ray's tag is
    the shard owning the surface that spawned it (-1 for camera rays).
    Shard mode builds no coherence maps and has no shadow cache.
    """

    shadow_cache = None

    def __init__(self, scene, smap: ShardMap, sstats: ShardTraceStats):
        self.scene = scene
        self.smap = smap
        self.sstats = sstats
        self.n_tests = 0

    def mark(self, cls, origins, dirs, t_max, pixels) -> None:
        pass

    def nearest(self, batch: RayBatch, home):
        """Round A: nearest hit across the shards each ray may touch."""
        n = len(batch)
        if home is None:
            home = np.full(n, -1, dtype=np.int64)
        route = self.smap.route(batch.origins, batch.dirs)
        reqs: list[ShardRequest] = []
        slots: list[tuple[int, np.ndarray]] = []
        for s in range(self.smap.n_shards):
            rows = np.flatnonzero(route[:, s])
            if rows.size == 0:
                continue
            payload = {"origins": batch.origins[rows], "dirs": batch.dirs[rows]}
            reqs.append(ShardRequest(s, "nearest", payload))
            slots.append((s, rows))
            self.sstats.note_request(s, home[rows], payload)

        t = np.full(n, MISS)
        obj = np.full(n, -1, dtype=np.int64)
        normals = np.zeros((n, 3), dtype=np.float64)
        if reqs:
            replies = yield reqs
            for (s, rows), rep in zip(slots, replies):
                self.sstats.note_reply(s, rep)
                self.n_tests += int(rep["n_tests"])
                ct, cobj, cn = rep["t"], rep["obj"], rep["normals"]
                cur_t = t[rows]
                cur_obj = obj[rows]
                # Lexicographic (t, object index) minimum == serial tie rule.
                better = np.isfinite(ct) & ((ct < cur_t) | ((ct == cur_t) & (cobj < cur_obj)))
                if np.any(better):
                    upd = rows[better]
                    t[upd] = ct[better]
                    obj[upd] = cobj[better]
                    normals[upd] = cn[better]
        return t, obj, normals

    def surfaces(self, points: np.ndarray, normals: np.ndarray, obj_index: np.ndarray):
        """Round B: material fetch + occlusion events for one hit set."""
        sstats = self.sstats
        owners = self.smap.owner_of[obj_index]
        reqs = []
        shade_slots: list[tuple[int, np.ndarray]] = []
        for s in np.unique(owners):
            rows = np.flatnonzero(owners == s)
            payload = {"obj": obj_index[rows], "points": points[rows]}
            reqs.append(ShardRequest(int(s), "shade", payload))
            shade_slots.append((int(s), rows))
            sstats.note_shade(int(s), rows.size, payload)

        plan = _shadow_plan(self.scene, points, normals)
        occ_slots: list[tuple[int, int, np.ndarray]] = []
        for ci, call in enumerate(plan):
            occ_route = self.smap.route(call.origins, call.dirs, t_max=call.dists)
            shomes = owners[call.fire]  # a shadow ray's home = its surface's owner
            for s in range(self.smap.n_shards):
                rows = np.flatnonzero(occ_route[:, s])
                if rows.size == 0:
                    continue
                payload = {
                    "origins": call.origins[rows],
                    "dirs": call.dirs[rows],
                    "max_dist": call.dists[rows],
                }
                reqs.append(ShardRequest(s, "occlude", payload))
                occ_slots.append((ci, s, rows))
                sstats.note_request(s, shomes[rows], payload)

        replies = yield reqs
        shade_replies = replies[: len(shade_slots)]
        occ_replies = replies[len(shade_slots) :]

        colors = np.zeros((points.shape[0], 3), dtype=np.float64)
        finishes: dict[int, np.ndarray] = {}
        for (s, rows), rep in zip(shade_slots, shade_replies):
            sstats.note_reply(s, rep)
            colors[rows] = rep["colors"]
            for gi, frow in zip(rep["uobj"], rep["finishes"]):
                finishes[int(gi)] = frow

        # Occlusion-event replay: transmissive multiplies in ascending
        # object index (the serial loop order), opaque zeroes afterwards
        # (zeros absorb under multiplication, so ordering is free).
        events: list[list[tuple[int, float, np.ndarray]]] = [[] for _ in plan]
        opaque = [np.zeros(call.origins.shape[0], dtype=bool) for call in plan]
        for (ci, s, rows), rep in zip(occ_slots, occ_replies):
            sstats.note_reply(s, rep)
            self.n_tests += int(rep["n_tests"])
            opaque[ci][rows] |= rep["opaque"]
            ev_mask = rep["ev_mask"]
            for j in range(rep["ev_obj"].size):
                events[ci].append(
                    (int(rep["ev_obj"][j]), float(rep["ev_factor"][j]), rows[ev_mask[j]])
                )
        attens = [
            attenuate(np.ones(call.origins.shape[0]), opaque[ci], sorted(events[ci], key=lambda ev: ev[0]))
            for ci, call in enumerate(plan)
        ]

        proxy = _ProxyScene(self.scene, obj_index, colors, finishes)
        return proxy, _ReplayIntersector(attens), owners


def sharded_trace(
    scene,
    smap: ShardMap,
    pixel_ids: np.ndarray,
    *,
    chunk_size: int = 32768,
    shard_stats: ShardTraceStats | None = None,
):
    """Sans-io sharded tracing generator.

    Yields lists of :class:`ShardRequest`; each ``send()`` must supply
    the replies aligned 1:1 with the yielded requests.  Returns a
    :class:`~repro.render.raytracer.TraceResult` whose colors are
    bit-identical to the serial tracer's (path tracking excluded — shard
    mode does not build coherence maps).
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    sstats = shard_stats if shard_stats is not None else ShardTraceStats(smap.n_shards)
    backend = _ShardBackend(scene, smap, sstats)
    result = yield from trace(scene, backend, pixel_ids, chunk_size)
    result.n_intersection_tests = backend.n_tests
    return result


def pump_local(gen, serve) -> TraceResult:
    """Drive a sharded-trace generator with a local ``serve(request)``."""
    try:
        reqs = next(gen)
        while True:
            reqs = gen.send([serve(req) for req in reqs])
    except StopIteration as stop:
        return stop.value


class LocalShardFarm:
    """In-process shard owners, with an optional mid-run owner-kill drill.

    ``kill_shard``/``kill_after_requests`` replace one owner with a fresh
    :class:`ShardWorker` right before the Nth request is served — the
    in-process analogue of a worker crash plus ledger replay.  Because
    replies are pure functions of the request, the drill must leave the
    composite bit-identical; ``n_restarts`` lets tests assert it fired.
    """

    def __init__(self, scene, smap: ShardMap, *, kill_shard=None, kill_after_requests=None):
        self.scene = scene
        self.smap = smap
        self.workers = {s: ShardWorker(scene, smap, s) for s in range(smap.n_shards)}
        self.kill_shard = kill_shard
        self.kill_after_requests = kill_after_requests
        self.n_requests = 0
        self.n_restarts = 0

    def serve(self, req: ShardRequest) -> dict:
        self.n_requests += 1
        if (
            self.kill_shard is not None
            and self.kill_after_requests is not None
            and self.n_requests == self.kill_after_requests
        ):
            self.workers[self.kill_shard] = ShardWorker(self.scene, self.smap, self.kill_shard)
            self.n_restarts += 1
        return self.workers[req.shard].serve(req.op, req.payload)


def render_frame_sharded(
    scene,
    shards: int | ShardMap = 4,
    *,
    chunk_size: int = 32768,
    farm: LocalShardFarm | None = None,
):
    """Render one frame sharded, in process.

    Returns ``(framebuffer, trace_result, shard_stats)``; the framebuffer
    is bit-identical to ``RayTracer(scene).render()``'s.
    """
    smap = shards if isinstance(shards, ShardMap) else partition_scene(scene, shards)
    if farm is None:
        farm = LocalShardFarm(scene, smap)
    sstats = ShardTraceStats(smap.n_shards)
    gen = sharded_trace(
        scene,
        smap,
        scene.camera.pixel_grid(),
        chunk_size=chunk_size,
        shard_stats=sstats,
    )
    result = pump_local(gen, farm.serve)
    fb = Framebuffer(scene.camera.width, scene.camera.height)
    fb.scatter(result.pixel_ids, result.colors)
    return fb, result, sstats
