"""Every interleaving of a small farm, on the master core alone.

The pool, the TCP master and the simulator are I/O shells of one
:class:`~repro.sched.master.MasterCore`, so one state space covers the
dispatch and loss handling of all three.  Korečko & Sobota model the
ray-tracing master as one coloured Petri net; this walks the core's
reachable states exhaustively for 2–3 lanes over 3–4 units or chains.
From every state, each input the world could send next is tried: a lane
answers (a valid or an invalid result), a lane's leading frames are
salvaged, a lane is lost, time jumps past every deadline, a replacement
lane joins.  After each input the walk ticks the core, as every shell's
loop does, and carries out what it yields.

Each walk must accept every (region, frame) unit exactly once — by a
completed flight or a salvage — must drop every answer of a lane after
its loss, and must end: the policy finishes, or the core raises
:class:`~repro.runtime.options.SupervisorError` (a stall, or a unit out
of attempts), never a state with nothing left to happen.
"""

import copy
from collections import Counter

import pytest

from repro.runtime.options import Close, Flight, RecoveryOptions, Stop, SupervisorError
from repro.sched import AdaptiveChainPolicy, Chain, DemandDrivenPolicy
from repro.sched.master import MasterCore
from repro.telemetry import NULL

#: Policy name -> (factory, the (region, frame) units it must complete).
POLICIES = {
    "demand": (
        lambda units: DemandDrivenPolicy(units),
        lambda units: {(r, f) for r, f0, f1 in units for f in range(f0, f1)},
    ),
    "adaptive": (
        lambda units: AdaptiveChainPolicy(
            [Chain(r, f0, f1) for r, f0, f1 in units], use_coherence=True, segment_frames=2
        ),
        lambda units: {(r, f) for r, f0, f1 in units for f in range(f0, f1)},
    ),
}
THREE = [(0, 0, 3), (1, 0, 2), (2, 0, 1)]
FOUR = [(0, 0, 2), (1, 0, 2), (2, 0, 1), (3, 0, 1)]
TIMEOUT = 10.0


class Clock:
    """The core's clock, copied with the walk it belongs to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Walk:
    """One path through the state space: the core, and what the world did."""

    def __init__(self, policy, n_lanes: int, losses: int, replace: bool, degrade: bool):
        self.clock = Clock()
        self.core = MasterCore(
            policy, lambda a, lane: a.seq,
            # without degradation, a unit's first loss is its last
            RecoveryOptions(max_attempts=2 if degrade else 1, task_timeout=TIMEOUT),
            validate=lambda args, result: result == "ok", degrade=degrade, clock=self.clock,
        )
        self.accepted: Counter = Counter()
        self.lost: set = set()
        self.losses = losses  # loss budget
        self.salvages = 1
        self.replace = replace
        self.joins = 0  # replacement lanes on their way
        self.n_named = 0
        self.error: str | None = None
        for _ in range(n_lanes):
            self.join()

    def join(self) -> None:
        self.core.lane_up(f"lane{self.n_named}")
        self.n_named += 1

    def busy(self):
        return [(lane, f) for lane in self.core.lanes if (f := self.core.flight(lane))]

    # -- the world's inputs --------------------------------------------------
    def inputs(self) -> list[tuple]:
        if self.error is not None or self.core.finished:
            return []
        moves = [("done", lane) for lane, _f in self.busy()]
        if self.salvages:
            moves += [("salvage", lane) for lane, f in self.busy()
                      if f.assignment.frame1 - f.assignment.frame0 >= 2]
        if self.losses:
            moves += [("bad", lane) for lane, _f in self.busy()]
            moves += [("lost", lane) for lane in self.core.lanes]
            if 0 < len(self.busy()) <= self.losses:
                moves.append(("deadline", None))
        if self.joins:
            moves.append(("join", None))
        return moves

    def apply(self, move: tuple) -> None:
        kind, lane = move
        core, self.clock.now = self.core, self.clock.now + 0.01
        now = self.clock.now
        try:
            if kind == "done":
                flight = core.flight(lane)
                assert core.completed(lane, flight.assignment.seq, "ok", now) is flight
                a = flight.assignment
                self._accept(a.region_index, a.frame0, a.frame1)
            elif kind == "salvage":
                a = core.flight(lane).assignment
                core.partial(lane, a.frame0 + 1)
                self._accept(a.region_index, a.frame0, a.frame0 + 1)
                self.salvages -= 1
                assert core.flight(lane).assignment.frame0 == a.frame0 + 1
            elif kind == "bad":
                seq = core.flight(lane).assignment.seq
                assert core.completed(lane, seq, "junk", now) == Close(lane, "invalid")
                self._lose(lane, "invalid", now)
            elif kind == "lost":
                self._lose(lane, "eof", now)
            elif kind == "deadline":
                self.clock.now = now = now + 2 * TIMEOUT
            else:
                self.joins -= 1
                self.join()
            self.tick(now)
        except SupervisorError as exc:  # a stall, or a unit out of attempts
            self.error = str(exc)

    def tick(self, now: float) -> None:
        busy = {lane for lane, _f in self.busy()}
        for act in self.core.tick(now, joining=self.joins > 0):
            assert not isinstance(act, Stop)  # a master that can lose never stops a lane
            if isinstance(act, Close):
                assert act.reason == "deadline"
                self._lose(act.lane, "deadline", now)
            else:  # one flight per lane, never on a lost one
                assert isinstance(act, Flight) and act.lane not in self.lost | busy

    # -- bookkeeping -----------------------------------------------------------
    def _accept(self, region: int, f0: int, f1: int) -> None:
        for f in range(f0, f1):
            self.accepted[(region, f)] += 1

    def _lose(self, lane, reason: str, now: float) -> None:
        flight = self.core.flight(lane)
        self.losses -= 1
        self.lost.add(lane)
        self.core.lost(lane, reason, now)
        if self.replace:
            self.joins += 1
        if flight is not None:
            # The late answer of a lane after its loss is dropped, and
            # changes nothing.
            done = self.core.policy.completed_units
            late = self.core.completed(lane, flight.assignment.seq, "ok", now)
            assert late is None and self.core.policy.completed_units == done


def explore(walk: Walk, units: set, leaves: Counter) -> None:
    moves = walk.inputs()
    if not moves:
        assert all(n == 1 for n in walk.accepted.values()), walk.accepted
        if walk.error is not None:
            kind = "stall" if "stalled" in walk.error else "exhausted"
            if kind == "stall":
                assert not walk.busy() and not walk.core.finished
        else:
            assert walk.core.finished, "nothing left to happen, but the run is not done"
            assert set(walk.accepted) == units
            kind = "finished"
        leaves[kind] += 1
        return
    for move in moves:
        branch = copy.deepcopy(walk, {id(NULL): NULL})
        branch.apply(move)
        explore(branch, units, leaves)


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize(
    "n_lanes, units, losses, replace, degrade",
    [
        (2, THREE, 2, False, True),
        (2, THREE, 1, True, False),
        (3, THREE, 1, True, True),
        (2, FOUR, 1, False, True),
    ],
    ids=["2x3-retire", "2x3-replace-nodegrade", "3x3-replace", "2x4-retire"],
)
def test_every_interleaving(policy_name, n_lanes, units, losses, replace, degrade):
    make, universe = POLICIES[policy_name]
    walk = Walk(make(units), n_lanes, losses, replace, degrade)
    walk.tick(0.0)  # the first dispatches
    leaves: Counter = Counter()
    explore(walk, universe(units), leaves)
    assert leaves["finished"] > 0
    if not replace and losses >= n_lanes:
        assert leaves["stall"] > 0  # every lane lost with work left: the one stall error
    if not degrade:
        assert leaves["exhausted"] > 0


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_a_master_that_cannot_lose_stops_declined_lanes(policy_name):
    """``recovery=None`` (the simulator without a worker deadline): no
    deadline, and a lane the policy declines is stopped for good."""
    make, universe = POLICIES[policy_name]
    core = MasterCore(make(THREE), lambda a, lane: None, None)
    for lane in ("a", "b", "c", "d"):
        core.lane_up(lane)
    stopped, accepted, now = [], Counter(), 0.0
    while not core.finished:
        flights = []
        for act in core.tick(now):
            if isinstance(act, Stop):
                stopped.append(act.lane)
            else:
                flights.append(act)
        assert core.deadline() is None and core.next_deadline() is None
        for flight in flights:
            now += 1.0
            a = flight.assignment
            assert core.completed(flight.lane, a.seq, None, now) is flight
            accepted.update((a.region_index, f) for f in range(a.frame0, a.frame1))
    assert set(accepted) == universe(THREE) and set(accepted.values()) == {1}
    assert stopped and not set(stopped) & set(core.lanes)
