#!/usr/bin/env python
"""CI shard smoke: kill a shard owner mid-run, stay bit-identical.

Runs the object-space sharded renderer over the real loopback TCP farm
(``repro.shard.net``): a master that owns the camera and the wavefront
generator, two worker daemons that own scene shards and answer
``MSG_RAYS``/``MSG_SHADE`` queries — with worker 0 configured to
``os._exit`` after its sixth served ray batch.  Exits non-zero if
anything the subsystem promises drifts:

* no worker loss is recorded (the kill was swallowed), or the master's
  outbox ledger performed no replays,
* any recovered frame differs by a single bit from the serial
  single-renderer reference,
* the orphaned shards are not reassigned (the dispatch log must exceed
  one unit per shard),
* the telemetry log violates the pinned schema, or the ``shard.rays`` /
  ``shard.xfer`` events are missing.

A loss-free control run must also be bit-identical (the drill proves
replay correctness, the control proves the happy path).

Usage::

    python tools/shard_smoke.py
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.render import RayTracer  # noqa: E402
from repro.runtime import AnimationSpec, FaultPlan  # noqa: E402
from repro.shard.net import render_sharded_tcp  # noqa: E402
from repro.telemetry import (  # noqa: E402
    InMemorySink,
    SchemaError,
    Telemetry,
    validate_events,
)

FRAMES, SHARDS, WORKERS = 2, 3, 2


def _serial_frames(spec: AnimationSpec, n_frames: int):
    anim = spec.build()
    out = []
    for f in range(n_frames):
        fb, _ = RayTracer(anim.scene_at(f)).render()
        out.append(fb.data)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--width", type=int, default=72)
    ap.add_argument("--height", type=int, default=54)
    ap.add_argument("--die-after-rays", type=int, default=6)
    args = ap.parse_args(argv)

    spec = AnimationSpec.newton(n_frames=FRAMES, width=args.width, height=args.height)
    serial = _serial_frames(spec, FRAMES)

    # -- control: loss-free run, bit-identical -----------------------------
    session, outcome = render_sharded_tcp(
        spec, frames=FRAMES, shards=SHARDS, n_workers=WORKERS
    )
    if outcome.net.n_losses != 0:
        print(f"FAIL: control run lost {outcome.net.n_losses} workers")
        return 1
    for f, ref in enumerate(serial):
        if not np.array_equal(ref, session.frames[f].data):
            print(f"FAIL: control frame {f} differs from the serial reference")
            return 1

    # -- drill: kill shard owner w0 after N served ray batches -------------
    sink = InMemorySink()
    session, outcome = render_sharded_tcp(
        spec,
        frames=FRAMES,
        shards=SHARDS,
        n_workers=WORKERS,
        fault_plan=FaultPlan([FaultPlan.kill_worker(0, args.die_after_rays, "rays")]),
        telemetry=Telemetry(sinks=[sink]),
    )
    if outcome.net.n_losses < 1:
        print("FAIL: injected owner kill produced no worker loss")
        return 1
    if session.n_replays < 1:
        print("FAIL: owner died but the outbox ledger replayed nothing")
        return 1
    if len(outcome.assignments) <= session.k:
        print("FAIL: orphaned shards were never reassigned")
        return 1
    for f, ref in enumerate(serial):
        if not np.array_equal(ref, session.frames[f].data):
            print(f"FAIL: post-replay frame {f} differs from the serial reference")
            return 1
    try:
        validate_events(sink.events)
    except SchemaError as exc:
        print(f"FAIL: telemetry schema drift: {exc}")
        return 1
    names = {e.get("name") for e in sink.events}
    missing = {"shard.rays", "shard.xfer"} - names
    if missing:
        print(f"FAIL: shard telemetry events missing: {sorted(missing)}")
        return 1

    routed = sum(int(st.rays_recv.sum()) for st in session.stats)
    print("OK: sharded TCP farm recovered from an injected shard-owner kill")
    print(
        f"  losses={outcome.net.n_losses} replays={session.n_replays} "
        f"dispatches={len(outcome.assignments)} (units={session.k})"
    )
    print(f"  {routed} rays routed across {SHARDS} shards on {WORKERS} workers")
    print(f"  {FRAMES} frames bit-identical to the serial reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
