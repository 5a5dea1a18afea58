"""Pure scheduling policies for the Table-1 partitioning schemes.

A policy is a transport-agnostic state machine.  The master core
(:mod:`repro.sched.master`) tells it about the world through three callbacks —

* ``next_assignment(worker)`` — a worker is hungry; hand it the next
  :class:`Assignment` (or ``None`` when nothing can be dispatched now);
* ``on_result(worker, assignment)`` — the worker finished an assignment;
* ``on_worker_lost(worker)`` — the worker died / timed out; its in-flight
  work is requeued fresh (a new chain start, as the paper's master must
  re-render from scratch when a slave disappears);

and reads its conclusions from ``log`` (every assignment in dispatch
order), ``n_chain_starts`` / ``n_steals`` / ``n_reassigned`` and
``finished``.  Policies never touch I/O, clocks, or numpy — region
indices are opaque integers; pricing an assignment is the cost model's
job (:mod:`repro.sched.cost`).

The chained policy reproduces the adaptive-subdivision master of the
original simulator exactly: per-worker chain affinity, a FIFO supply of
unstarted chains, and tail-stealing of the largest active chain (the
stolen tail restarts fresh; by default the victim keeps half) when the
supply runs dry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Hashable, Sequence

__all__ = [
    "Assignment",
    "Chain",
    "SchedulingPolicy",
    "AdaptiveChainPolicy",
    "DemandDrivenPolicy",
    "ObjectSpacePolicy",
    "single_processor_policy",
    "make_policy",
    "Strategy",
    "STRATEGIES",
]

Worker = Hashable


@dataclass(frozen=True)
class Assignment:
    """One unit of dispatched work: frames ``[frame0, frame1)`` of a region.

    ``region_index`` indexes the transport's region list; ``-1`` means the
    whole frame (sequence division / single processor).  ``fresh`` marks a
    chain start — the worker must render the first frame from scratch;
    subsequent frames of the same assignment (and later non-fresh
    assignments of the same chain) reuse frame coherence when ``coherent``.
    ``seq`` is the global dispatch ordinal: the equivalence artifact two
    transports are compared on.
    """

    seq: int
    worker: Worker
    region_index: int
    frame0: int
    frame1: int
    fresh: bool
    coherent: bool

    @property
    def n_frames(self) -> int:
        return self.frame1 - self.frame0

    def key(self) -> tuple:
        """Transport-independent identity (drops the worker binding)."""
        return (self.seq, self.region_index, self.frame0, self.frame1, self.fresh, self.coherent)


@dataclass
class Chain:
    """A coherence chain: frames ``[next, end)`` over one region."""

    region_index: int
    next_frame: int
    end_frame: int
    fresh: bool = True

    @property
    def remaining(self) -> int:
        return self.end_frame - self.next_frame


class SchedulingPolicy:
    """Shared bookkeeping: dispatch log, completion set, loss accounting."""

    #: number of (region, frame) units a frame needs before it is complete
    units_per_frame: int = 1
    use_coherence: bool = False

    def __init__(self) -> None:
        self.log: list[Assignment] = []
        self.n_chain_starts = 0
        self.n_steals = 0
        self.n_reassigned = 0
        self._completed: set[tuple[int, int]] = set()
        self._inflight: dict[Worker, Assignment] = {}
        self.total_units = 0

    # -- transport-facing protocol ---------------------------------------
    def next_assignment(self, worker: Worker) -> Assignment | None:
        raise NotImplementedError

    def on_result(self, worker: Worker, assignment: Assignment) -> None:
        """Mark the assignment's units done.  Idempotent: a duplicate result
        (e.g. from a presumed-dead worker that answered late) only frees the
        worker, it never double-counts."""
        self._inflight.pop(worker, None)
        for f in range(assignment.frame0, assignment.frame1):
            self._completed.add((assignment.region_index, f))

    def on_worker_lost(self, worker: Worker) -> Assignment | None:
        """Forget the worker; requeue its unfinished work as a fresh unit.

        Returns the in-flight assignment that was abandoned (if any) so the
        transport can account for it.
        """
        raise NotImplementedError

    def on_partial_result(self, worker: Worker, frame_done: int) -> Assignment | None:
        """Salvage a doomed worker's leading frames before declaring it lost.

        The distributed framebuffer lets the transport see exactly which
        frames of an in-flight assignment are already fully composited
        (streamed tile by tile).  Called right before ``on_worker_lost``
        with ``frame_done`` = first *incomplete* frame, it marks
        ``[frame0, frame_done)`` complete and narrows the in-flight
        assignment to the remainder, so the subsequent requeue re-renders
        only what is actually missing instead of the whole sub-area.
        Returns the narrowed assignment (or ``None`` if nothing was in
        flight).
        """
        a = self._inflight.get(worker)
        if a is None:
            return None
        fd = max(a.frame0, min(int(frame_done), a.frame1))
        for f in range(a.frame0, fd):
            self._completed.add((a.region_index, f))
        if fd > a.frame0:
            a = replace(a, frame0=fd)
            self._inflight[worker] = a
        return a

    # -- introspection ----------------------------------------------------
    @property
    def completed_units(self) -> int:
        return len(self._completed)

    @property
    def finished(self) -> bool:
        return self.completed_units >= self.total_units

    # -- shared helpers ----------------------------------------------------
    def _emit(
        self, worker: Worker, region_index: int, frame0: int, frame1: int, fresh: bool
    ) -> Assignment:
        a = Assignment(
            seq=len(self.log),
            worker=worker,
            region_index=region_index,
            frame0=frame0,
            frame1=frame1,
            fresh=fresh,
            coherent=self.use_coherence,
        )
        self.log.append(a)
        self._inflight[worker] = a
        if self.use_coherence and fresh:
            self.n_chain_starts += 1
        return a


class DemandDrivenPolicy(SchedulingPolicy):
    """A flat FIFO queue of independent units, handed out on demand.

    Covers frame-division-without-coherence (one unit per (frame, block),
    frame-major — Table 1 columns 4/5) and the real farm's fixed unit
    lists (``static`` and ``demand``).  No worker affinity: any unit
    suits any worker, so a lost worker's unit simply goes back in the
    queue (fresh).
    """

    def __init__(
        self,
        units: Sequence[tuple[int, int, int]],
        *,
        use_coherence: bool = False,
        units_per_frame: int = 1,
    ) -> None:
        super().__init__()
        self.use_coherence = bool(use_coherence)
        self.units_per_frame = int(units_per_frame)
        self._queue: deque[tuple[int, int, int]] = deque(
            (int(ri), int(f0), int(f1)) for ri, f0, f1 in units
        )
        self.total_units = sum(f1 - f0 for _, f0, f1 in self._queue)

    def next_assignment(self, worker: Worker) -> Assignment | None:
        if not self._queue:
            return None
        ri, f0, f1 = self._queue.popleft()
        return self._emit(worker, ri, f0, f1, fresh=True)

    def on_worker_lost(self, worker: Worker) -> Assignment | None:
        a = self._inflight.pop(worker, None)
        if a is not None and a.frame0 < a.frame1:
            self._queue.append((a.region_index, a.frame0, a.frame1))
            self.n_reassigned += 1
        return a


class AdaptiveChainPolicy(SchedulingPolicy):
    """Chain-structured scheduling with worker affinity and tail stealing.

    Covers single-processor (one chain, one worker), sequence division
    (one whole-frame chain per initial range), frame division with
    coherence (one chain per block) and the hybrid (block x frame-chunk
    chains).  A worker keeps stepping its own chain one segment at a time;
    when the chain ends it takes the next from the supply; when the supply
    is dry it steals the tail half of the largest active chain (if that
    chain still has at least ``min_steal_frames`` frames) — the stolen
    half restarts fresh, which is the coherence cost of adaptive
    subdivision the paper describes.  With ``fresh_frames`` (that restart's
    cost in coherent frames) and ``speeds`` (per worker, default 1) the
    victim keeps what makes both end together, if the thief still gets a frame.

    ``segment_frames`` > 1 dispatches multi-frame steps (the real farm's
    process executor wants coarser tasks); ``continuation_fresh=True``
    makes every segment a fresh render (no cross-task renderer state — the
    process-pool case), while ``False`` relies on the transport to carry
    renderer state between consecutive segments of a chain.
    """

    def __init__(
        self,
        chains: Sequence[Chain],
        *,
        use_coherence: bool,
        units_per_frame: int = 1,
        min_steal_frames: int = 2,
        steal: bool = True,
        segment_frames: int = 1,
        continuation_fresh: bool = False,
        fresh_frames: float = 1.0,
        speeds: dict[Worker, float] | None = None,
    ) -> None:
        super().__init__()
        self.use_coherence = bool(use_coherence)
        self.units_per_frame = int(units_per_frame)
        self.min_steal_frames = int(min_steal_frames)
        self.fresh_frames, self.speeds = float(fresh_frames), dict(speeds or {})
        self.steal = bool(steal)
        self.segment_frames = max(1, int(segment_frames))
        self.continuation_fresh = bool(continuation_fresh)
        self._supply: deque[Chain] = deque(chains)
        self._active: dict[Worker, Chain] = {}
        self._lost: set[Worker] = set()
        self.total_units = sum(c.remaining for c in self._supply)

    def next_assignment(self, worker: Worker) -> Assignment | None:
        if worker in self._lost:
            return None
        c = self._active.get(worker)
        if c is None or c.remaining <= 0:
            c = None
            while self._supply:
                cand = self._supply.popleft()
                if cand.remaining > 0:
                    c = cand
                    break
            if c is None and self.steal:
                c = self._steal_tail(worker)
            if c is not None:
                self._active[worker] = c
        if c is None or c.remaining <= 0:
            return None
        f0 = c.next_frame
        f1 = min(c.end_frame, f0 + self.segment_frames)
        fresh = c.fresh or self.continuation_fresh
        c.next_frame = f1
        c.fresh = False
        return self._emit(worker, c.region_index, f0, f1, fresh)

    def _steal_tail(self, worker: Worker) -> Chain | None:
        victim: Chain | None = None
        for other, oc in self._active.items():
            if other == worker or oc.remaining < self.min_steal_frames:
                continue
            if victim is None or oc.remaining > victim.remaining:
                victim, owner = oc, other
        if victim is None:
            return None
        sv, st = (self.speeds.get(w, 1.0) for w in (owner, worker))
        keep = max(1, int(sv * (victim.remaining + self.fresh_frames - 1.0) // (sv + st)))
        if keep >= victim.remaining:
            return None
        mid = victim.next_frame + keep
        stolen = Chain(victim.region_index, mid, victim.end_frame, fresh=True)
        victim.end_frame = mid
        self.n_steals += 1
        return stolen

    def on_worker_lost(self, worker: Worker) -> Assignment | None:
        a = self._inflight.pop(worker, None)
        c = self._active.pop(worker, None)
        self._lost.add(worker)
        if c is not None or a is not None:
            region = a.region_index if a is not None else c.region_index
            next_frame = a.frame0 if a is not None else c.next_frame
            end = c.end_frame if c is not None else a.frame1
            end = max(end, a.frame1 if a is not None else end)
            if next_frame < end:
                self._supply.append(Chain(region, next_frame, end, fresh=True))
                self.n_reassigned += 1
        return a


class ObjectSpacePolicy(SchedulingPolicy):
    """Object-space sharding: region indices are *scene shards*, not pixels.

    Units are ``(shard, frame-chunk)`` pairs in frame-major FIFO order.
    A unit binds its shard to the worker that pulls it — the policy is
    the shard-ownership authority the TCP session and the simulator
    share.  Pulls are shard-affine: a worker holding shard *s* gets
    *s*'s next chunk before an unbound one, so ownership is sticky; when
    every queued shard is bound elsewhere, the FIFO head migrates (an
    ownership handoff, same as the loss path).

    Unlike the pixel policies, a worker may hold **several** units in
    flight at once when the transport opts in (``allow_multi`` — the
    shard session sets it, because one TCP lane can own many shards
    while K exceeds the worker count).  A lost worker's in-flight units
    go back at the *front* of the queue so the reassigned shards resume
    before new work starts — that is what bounds the replay window.
    """

    def __init__(self, n_shards: int, n_frames: int, *, frames_per_chunk: int | None = None):
        super().__init__()
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.n_shards = int(n_shards)
        self.n_frames = int(n_frames)
        fc = self.n_frames if frames_per_chunk is None else max(1, int(frames_per_chunk))
        self.frames_per_chunk = fc
        self._queue: deque[tuple[int, int, int]] = deque(
            (s, f0, min(f0 + fc, self.n_frames))
            for f0 in range(0, self.n_frames, fc)
            for s in range(self.n_shards)
        )
        self.total_units = self.n_shards * self.n_frames
        self.units_per_frame = self.n_shards
        self.allow_multi = False
        self.shard_owner: dict[int, Worker] = {}
        self._inflight_multi: dict[Worker, dict[int, Assignment]] = {}

    def next_assignment(self, worker: Worker) -> Assignment | None:
        if not self.allow_multi and worker in self._inflight:
            raise RuntimeError(f"worker {worker!r} asked for work with a unit in flight")
        if not self._queue:
            return None
        pick = 0
        unbound = None
        for i, (s, _, _) in enumerate(self._queue):
            owner = self.shard_owner.get(s)
            if owner == worker:
                pick = i
                unbound = None
                break
            if owner is None and unbound is None:
                unbound = i
        if unbound is not None:
            pick = unbound
        self._queue.rotate(-pick)
        s, f0, f1 = self._queue.popleft()
        self._queue.rotate(pick)
        prev_owner = self.shard_owner.get(s)
        if prev_owner is not None and prev_owner != worker:
            self.n_steals += 1  # ownership handoff
        self.shard_owner[s] = worker
        # fresh marks an ownership (re)bind: the new owner must build the
        # shard's intersection state from scratch.
        a = self._emit(worker, s, f0, f1, fresh=prev_owner != worker)
        self._inflight_multi.setdefault(worker, {})[a.seq] = a
        return a

    def on_result(self, worker: Worker, assignment: Assignment) -> None:
        super().on_result(worker, assignment)
        held = self._inflight_multi.get(worker)
        if held is not None:
            held.pop(assignment.seq, None)

    def on_worker_lost(self, worker: Worker) -> Assignment | None:
        last = self._inflight.pop(worker, None)
        held = self._inflight_multi.pop(worker, {})
        if last is not None and last.seq not in held:
            held[last.seq] = last
        for a in sorted(held.values(), key=lambda a: a.seq, reverse=True):
            if a.frame0 < a.frame1:
                self._queue.appendleft((a.region_index, a.frame0, a.frame1))
                self.n_reassigned += 1
        for s, owner in list(self.shard_owner.items()):
            if owner == worker:
                del self.shard_owner[s]
        return last


def single_processor_policy(n_frames: int, *, use_coherence: bool) -> AdaptiveChainPolicy:
    """Table 1 columns (1)/(2): one worker walking the whole sequence."""
    return AdaptiveChainPolicy(
        [Chain(-1, 0, n_frames, fresh=True)],
        use_coherence=use_coherence,
        units_per_frame=1,
        steal=False,
    )


# -- the strategy table ------------------------------------------------------
def _single(n_frames, coherent, **_):
    return single_processor_policy(n_frames, use_coherence=coherent)


def _blocks_on_demand(n_frames, coherent, *, n_regions, **_):
    units = [(ri, f, f + 1) for f in range(n_frames) for ri in range(n_regions)]
    return DemandDrivenPolicy(units, use_coherence=coherent, units_per_frame=n_regions)


def _sequence_chains(n_frames, coherent, *, sequence_ranges, chain_kw, **_):
    if sequence_ranges is None:
        raise ValueError("sequence division needs sequence_ranges")
    chains = [Chain(-1, a, b, fresh=True) for a, b in sequence_ranges]
    return AdaptiveChainPolicy(chains, use_coherence=coherent, units_per_frame=1, **chain_kw)


def _block_chains(n_frames, coherent, *, n_regions, chain_kw, **_):
    chains = [Chain(ri, 0, n_frames, fresh=True) for ri in range(n_regions)]
    return AdaptiveChainPolicy(
        chains, use_coherence=coherent, units_per_frame=n_regions, **chain_kw
    )


def _hybrid_chains(n_frames, coherent, *, n_regions, frames_per_chunk, chain_kw, **_):
    if frames_per_chunk < 1:
        raise ValueError("frames_per_chunk must be >= 1")
    chains = [
        Chain(ri, a, min(a + frames_per_chunk, n_frames), fresh=True)
        for ri in range(n_regions)
        for a in range(0, n_frames, frames_per_chunk)
    ]
    return AdaptiveChainPolicy(
        chains, use_coherence=coherent, units_per_frame=n_regions, **chain_kw
    )


def _object_space(n_frames, coherent, *, n_regions, frames_per_chunk, **_):
    # Regions are scene shards; frames_per_chunk is the chunk size (capped
    # at the run length, so the default yields one whole-run unit per
    # shard: static ownership unless a worker is lost).
    return ObjectSpacePolicy(
        n_regions, n_frames, frames_per_chunk=min(frames_per_chunk, n_frames)
    )


@dataclass(frozen=True)
class Strategy:
    """One row of the strategy table: a policy builder plus what the
    simulator needs to know to run it (:func:`repro.sched.sim.simulate`).

    ``label`` is the ``SimulationOutcome.strategy`` string (``None``: not a
    ``simulate()`` strategy — object-space needs a shard cost model and is
    driven through ``SimTransport`` directly).  ``single`` replays on one
    machine with no messages; ``regions`` strategies divide the frame into
    blocks, the others divide the sequence into per-machine ranges weighted
    by machine speed (``effective_speed``: speed under the coherence
    working set's memory pressure).  ``deadline`` runs the master with a
    worker timeout, so machine failures can be injected and survived.
    """

    build: Callable[..., SchedulingPolicy]
    coherent: bool
    label: str | None
    single: bool = False
    regions: bool = False
    effective_speed: bool = False
    deadline: bool = False


#: Strategy name -> row.  The only list of strategy names in the tree: the
#: CLI choices, ``make_policy`` and ``simulate`` all read it.
STRATEGIES: dict[str, Strategy] = {
    "single": Strategy(_single, False, "single", single=True),
    "single-fc": Strategy(_single, True, "single+fc", single=True),
    "frame-division-nofc": Strategy(_blocks_on_demand, False, "frame-division", regions=True),
    "sequence-division-nofc": Strategy(_sequence_chains, False, "sequence-division"),
    "sequence-division-fc": Strategy(
        _sequence_chains, True, "sequence-division+fc", effective_speed=True
    ),
    "frame-division-fc": Strategy(_block_chains, True, "frame-division+fc", regions=True),
    "hybrid-fc": Strategy(_hybrid_chains, True, "hybrid+fc", regions=True),
    "frame-division-fc-ft": Strategy(
        _block_chains, True, "frame-division+fc+ft", regions=True, deadline=True
    ),
    "sequence-division-fc-ft": Strategy(
        _sequence_chains, True, "sequence-division+fc+ft", effective_speed=True, deadline=True
    ),
    "object-space": Strategy(_object_space, False, None, regions=True),
}


def make_policy(
    strategy: str,
    n_frames: int,
    *,
    n_regions: int = 1,
    sequence_ranges: Sequence[tuple[int, int]] | None = None,
    frames_per_chunk: int = 10,
    **chain_kw,
) -> SchedulingPolicy:
    """Build the policy behind a strategy name (a :data:`STRATEGIES` key).

    ``sequence_ranges`` (for the sequence-division strategies) are the
    pre-weighted initial frame ranges; region-indexed strategies take
    ``n_regions`` blocks.  The caller owns the region geometry — policies
    only ever see indices.  ``chain_kw`` (``min_steal_frames``,
    ``segment_frames``, ...) go to a chained strategy's
    :class:`AdaptiveChainPolicy`.
    """
    try:
        row = STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {list(STRATEGIES)}"
        ) from None
    return row.build(
        n_frames,
        row.coherent,
        n_regions=n_regions,
        sequence_ranges=sequence_ranges,
        frames_per_chunk=frames_per_chunk,
        chain_kw=chain_kw,
    )
