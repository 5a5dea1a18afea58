"""Every interleaving of a small TCP farm's messages, on the wire core alone.

:class:`~repro.net.master.MasterServer` keeps the sockets; every rule of
what a worker's message means is :class:`~repro.net.core.WireCore`'s.  So,
as ``test_master_core`` does for the master core, this walks the wire
core's reachable states exhaustively with no socket: the real
:class:`~repro.dfb.FrameAssembler`, :class:`~repro.sched.master.MasterCore`
and sequence-division policy, 2 lanes × 3 frames × 2 tiles.  From every
state, each message a worker could send next is tried — its next tile as
pixels, or as a hold record wherever the pixels did not change (a rule
may still refuse it), a duplicate of its last message, its RESULT once
its tiles are out — and a connection may end before or after any tile,
or be lost ``invalid`` by sending a tile of NaN pixels once it has
streamed some, then reconnect as a new lane.  After each input the walk
ticks the core, as the shell's loop does, and carries out the actions it
returns.

Each walk must composite only reference pixels, accept a hold only for a
covered frame ``f - 1`` of a unit the lane continues, never hand a lane a
second unit while it holds one, and end with the reference composite or
a raised error.  A lane lost ``invalid`` keeps its salvage: the
``dfb.salvage`` event names the frames the compositor holds in full, and
the replacement is handed the rest of the unit with exactly the covered
tiles to skip.  Beside it, every message type with a payload that is
not a map — from a stranger and from a lane — costs only that peer.
"""

import copy

import numpy as np
import pytest

from repro.dfb import FrameAssembler
from repro.net import protocol as wire
from repro.net.core import Blackbox, Drop, Send, WireCore
from repro.runtime.options import RecoveryOptions, SupervisorError
from repro.sched import make_policy
from repro.telemetry import NULL, Telemetry

W, H, T, N_FRAMES = 4, 2, 2, 3  # two 2x2 tiles per frame
RECTS = [(0, 0, 2, 2), (2, 0, 4, 2)]
HELLO = {"proto": wire.PROTO_VERSION, "minor": wire.PROTO_MINOR, "host": "ws", "pid": 0,
         "cores": 1, "score": 1.0}


def _reference() -> np.ndarray:
    """Frame 1 redraws tile 0 and frame 2 tile 1, so (1, tile 1) and
    (2, tile 0) may travel as hold records."""
    ref = np.random.default_rng(3).random((N_FRAMES, H, W, 3))
    ref[1, :, 2:] = ref[0, :, 2:]
    ref[2, :, :2] = ref[1, :, :2]
    return ref


REF = _reference()


class _HeapPool:
    """The assembler's stack from the heap, so a walk can be deep-copied."""

    def acquire(self, shape, dtype):
        return np.empty(shape, dtype)

    def release(self, arr) -> bool:
        return True


class _Salvages(Telemetry):
    """Telemetry that is off but keeps each ``dfb.salvage``'s ``frame_done``."""

    def __init__(self) -> None:
        super().__init__(enabled=False)
        self.frame_done: list[int] = []

    def event(self, name: str, **attrs) -> None:
        if name == "dfb.salvage":
            self.frame_done.append(attrs["frame_done"])


class Peer:
    """A scripted worker on one connection."""

    def __init__(self, lane) -> None:
        self.lane = lane
        self.unit: dict | None = None  # the ASSIGN it is working on
        self.todo: list = []  # (frame, rect) it has still to stream
        self.streamed = False  # sent a tile of its unit
        self.last = None  # (msg_type, payload) of its last message


class Walk:
    """One path through the state space: the core, and what the world did."""

    def __init__(self, losses: int = 0, dups: int = 0, nans: int = 0) -> None:
        self.asm = FrameAssembler(N_FRAMES, W, H, pool=_HeapPool())
        policy = make_policy("sequence-division-fc", N_FRAMES,
                             sequence_ranges=[(0, 2), (2, 3)], segment_frames=2)
        self.tel = _Salvages()
        self.core = WireCore(
            policy, "render", lambda a, lane: (a.frame0, a.frame1), validate=self.validate,
            recovery=RecoveryOptions(max_attempts=2), min_lanes=2, on_result=self.accepted,
            assembler=self.asm, tile_px=T, telemetry=self.tel,
        )
        self.now = 0.0
        self.core.start(self.now)
        self.peers: list[Peer] = []
        self.losses, self.dups, self.nans = losses, dups, nans
        self.reconnects = 0  # one per connection lost
        # frame1 -> (frame0, skip) the replacement of a lane lost to a NaN
        # tile must be handed: the coverage its salvage read.
        self.remainder: dict[int, tuple] = {}
        self.n_accepted = 0
        self.error: str | None = None
        for _ in range(2):
            self.connect()
        self.tick()

    # -- the core's callbacks --------------------------------------------------
    def validate(self, args, result) -> bool:
        return result == "done" and self.asm.range_complete(None, *args)

    def accepted(self, a, result, t_offset) -> None:
        self.n_accepted += 1

    # -- the shell -------------------------------------------------------------
    def connect(self) -> None:
        peer = Peer(self.core.connect(compress=False))
        self.peers.append(peer)
        self.send(peer, wire.MSG_HELLO, dict(HELLO))

    def send(self, peer: Peer, msg_type: int, payload) -> None:
        self.perform(self.core.receive(peer.lane, msg_type, payload, 100, self.now))
        peer.last = (msg_type, payload)

    def tick(self) -> None:
        self.perform(self.core.tick(self.now))

    def perform(self, actions) -> None:
        for act in actions:
            if isinstance(act, Blackbox):
                continue
            live = [p for p in self.peers if p.lane is act.lane]
            assert live, f"{act} for a connection already dropped"
            peer = live[0]
            if isinstance(act, Drop):
                self.peers.remove(peer)
                continue
            assert isinstance(act, Send)
            self.core.sent(act.lane, act.msg_type, act.payload, 100)
            if act.msg_type == wire.MSG_ASSIGN:
                assert peer.unit is None, "a lane got a second unit while it held one"
                a = act.payload
                skip = {(f, *r) for f, *r in a["tiles"]["skip"]}
                if a["frame1"] in self.remainder:
                    assert (a["frame0"], skip) == self.remainder.pop(a["frame1"])
                peer.unit, peer.streamed = a, False
                peer.todo = [(f, r) for f in range(a["frame0"], a["frame1"]) for r in RECTS
                             if (f, *r) not in skip]

    # -- the world's inputs ----------------------------------------------------
    def inputs(self) -> list[tuple]:
        if self.error is not None or self.core.finished:
            return []
        moves = []
        for i, peer in enumerate(self.peers):
            if peer.unit is not None and peer.todo:
                f, (x0, y0, x1, y1) = peer.todo[0]
                moves.append(("tile", i))
                if f and np.array_equal(REF[f, y0:y1, x0:x1], REF[f - 1, y0:y1, x0:x1]):
                    moves.append(("hold", i))
            elif peer.unit is not None:
                moves.append(("result", i))
            if self.dups and peer.last is not None:
                moves.append(("dup", i))
            if self.losses:
                moves.append(("lose", i))
            if self.nans and peer.streamed and peer.todo:
                moves.append(("nan", i))
        if self.reconnects and len(self.peers) < 2:
            moves.append(("reconnect", None))
        return moves

    def apply(self, move: tuple) -> None:
        kind, i = move
        self.now += 0.01
        peer = self.peers[i] if i is not None else None
        try:
            if kind in ("tile", "hold"):
                f, (x0, y0, x1, y1) = peer.todo.pop(0)
                seq = peer.unit["seq"]
                peer.streamed = True
                if kind == "tile":
                    self.send(peer, wire.MSG_TILE, {"seq": seq, "frame": f, "x0": x0, "y0": y0,
                                                    "x1": x1, "y1": y1,
                                                    "pixels": REF[f, y0:y1, x0:x1]})
                else:
                    covered = self.asm._covered[f - 1, y0:y1, x0:x1].all()
                    continues = not (peer.unit["fresh"] and f == peer.unit["frame0"])
                    self.send(peer, wire.MSG_TILE, {"seq": seq, "frame": f,
                                                    "held": [(x0, y0, x1, y1)]})
                    # An accepted hold copies a covered f - 1 of a unit it continues.
                    assert (peer in self.peers) == (covered and continues)
            elif kind == "result":
                unit, peer.unit = peer.unit, None
                self.send(peer, wire.MSG_RESULT, {"seq": unit["seq"], "result": "done",
                                                  "duration": 0.0, "events": []})
            elif kind == "dup":
                self.dups -= 1
                self.send(peer, *peer.last)
            elif kind == "nan":
                self.nans -= 1
                self.reconnects += 1
                a, (f, (x0, y0, x1, y1)) = peer.unit, peer.todo[0]
                done = self.asm.frames_done(None, a["frame0"], a["frame1"])
                skip = set(self.asm.covered_tiles(None, done, a["frame1"], T))
                n_salvages = len(self.tel.frame_done)
                self.send(peer, wire.MSG_TILE, {"seq": a["seq"], "frame": f, "x0": x0, "y0": y0,
                                                "x1": x1, "y1": y1,
                                                "pixels": np.full((y1 - y0, x1 - x0, 3), np.nan)})
                assert peer not in self.peers  # lost invalid, its tile refused
                salvaged = [done] if done > a["frame0"] else []
                assert self.tel.frame_done[n_salvages:] == salvaged
                self.remainder[a["frame1"]] = (done, skip)
            elif kind == "lose":
                self.losses -= 1
                self.reconnects += 1
                self.perform(self.core.lost(peer.lane, "eof", self.now))
            else:
                self.reconnects -= 1
                self.connect()
            self.tick()
        except SupervisorError as exc:  # a unit out of attempts
            self.error = str(exc)
        # Nothing but reference pixels is ever composited.
        covered = self.asm._covered
        assert np.array_equal(self.asm._stack[covered], REF[covered])


def _independent(a: tuple, b: tuple) -> bool:
    """Pixel tiles of two lanes commute: each only adds reference pixels
    that the other's next move does not read."""
    return a[0] == b[0] == "tile" and a[1] != b[1]


def explore(walk: Walk, leaves: dict, asleep: frozenset = frozenset()) -> None:
    """Try every input from ``walk``'s state.  An input ``asleep`` here
    commutes with the one that led here and was tried before it, so its
    orderings are already covered (a sleep set: every interleaving up to
    swapping independent inputs is walked once)."""
    moves = walk.inputs()
    if not moves:
        if walk.error is None and not walk.core.finished:
            # Every lane gone for good: the no-worker deadline ends the run.
            assert not walk.peers
            walk.now += 31.0
            with pytest.raises(RuntimeError, match="no workers connected"):
                walk.tick()
            walk.error = "no workers"
        if walk.error is None:
            assert walk.asm.frames().tobytes() == REF.tobytes()
            assert walk.n_accepted == walk.core.net.n_results
        leaves["raised" if walk.error else "finished"] += 1
        return
    tried = []
    for move in moves:
        key = (move[0], walk.peers[move[1]].lane.name if move[1] is not None else None)
        if key in asleep:
            continue
        branch = copy.deepcopy(walk, {id(NULL): NULL, id(walk.asm._lock): walk.asm._lock})
        branch.apply(move)
        explore(branch, leaves, frozenset(k for k in (*asleep, *tried) if _independent(k, key)))
        tried.append(key)


@pytest.mark.parametrize(
    "losses, dups, nans", [(0, 1, 0), (1, 0, 0), (0, 0, 1)],
    ids=["duplicate", "loss-reconnect", "nan-tile"],
)
def test_every_interleaving(losses, dups, nans):
    """A lost connection may reconnect once as a new lane.  Refused holds
    are ``invalid`` losses outside the budget, so some walks spend a
    unit's two attempts and raise."""
    leaves = {"finished": 0, "raised": 0}
    explore(Walk(losses, dups, nans), leaves)
    assert leaves["finished"] > 0 and leaves["raised"] > 0


@pytest.mark.parametrize("sender", ["stranger", "lane"])
@pytest.mark.parametrize(
    "msg_type",
    [wire.MSG_HELLO, wire.MSG_PONG, wire.MSG_TILE, wire.MSG_RESULT, wire.MSG_ERROR,
     wire.MSG_BLACKBOX, wire.MSG_RAYS, wire.MSG_SHADE],
    ids=lambda t: wire.MSG_NAMES[t],
)
def test_a_payload_that_is_not_a_map_costs_only_its_peer(msg_type, sender):
    walk = Walk()
    if sender == "stranger":
        peer = Peer(walk.core.connect(compress=False))
        walk.peers.append(peer)
    else:
        peer = walk.peers[0]
    walk.send(peer, msg_type, [1, 2])
    assert peer not in walk.peers  # dropped, whatever the message
    assert walk.core.net.n_losses == (sender == "lane")
    while moves := walk.inputs():  # the other lane finishes the run honestly
        walk.apply(next(m for m in moves if m[0] in ("tile", "result")))
    assert walk.core.finished and walk.asm.frames().tobytes() == REF.tobytes()
