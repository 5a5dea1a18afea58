"""What the zero-copy data plane holds to, measured at its three layers.

Every pixel-moving hop runs on `repro.buffers`: the wire codec hands out
views instead of copies, the frame assembler slices a chunk deque
instead of growing a bytearray, and process workers ship shared-memory
`FrameRef` handles instead of pickled stacks.  Every bulk copy that is
left is charged to `repro.buffers.copystats`, which is what the gates
read:

* **codec drill** — encode → chunked reassembly → decode of
  result-sized frames copies **at most 1.01x the frame bytes** (one join
  per payload that spans recv chunks, nothing else); its wall is the
  median of five rounds after one warm-up round;
* **process transport** — supervised pool tasks returning `FrameRef`
  handles must beat the same tasks returning pickled arrays by
  **>= 1.3x wall-clock**;
* **fidelity** — a process-executor farm render with a mid-run worker
  crash stays bit-identical to the serial reference (zero-copy is an
  ownership discipline, not a different renderer).

Emits ``BENCH_zerocopy.json`` (including a peak-RSS line) and
``zerocopy.txt``.
"""

from __future__ import annotations

import resource
import time

import numpy as np
from _bench_utils import write_result

from repro.buffers import (
    SharedFrameStore,
    activate_worker_store,
    copystats,
    release_refs,
    worker_store,
)
from repro.net import protocol as wire
from repro.runtime import AnimationSpec, FarmOptions, FaultPlan, LocalRenderFarm
from repro.runtime.supervisor import TaskSupervisor
from repro.telemetry import InMemorySink, Telemetry, metrics_from_events, write_bench_json

#: Result-sized payloads for the codec drill: 6 frames of 160x120 RGB.
FRAME_SHAPE = (6, 120, 160, 3)
N_MESSAGES = 8
#: Socket-realistic chunking for reassembly (a recv() rarely gets a frame).
CHUNK = 64 << 10
#: Timed codec rounds (after one untimed warm-up); the wall is their median.
CODEC_ROUNDS = 5

#: Process-transport drill: per-task pixel payload and task count.
TASK_SHAPE = (8, 240, 320, 3)  # ~4.7 MB of float64 per task
N_TASKS = 24
N_WORKERS = 2

#: The fidelity drill's farm (small: correctness, not throughput).
FARM_KW = dict(n_frames=6, width=96, height=72)


def crash_drill(telemetry):
    """The fidelity drill's farm render, one worker crash recovered; returns
    ``(farm, result)`` with ``telemetry`` closed."""
    farm = LocalRenderFarm(
        AnimationSpec.newton(**FARM_KW),
        n_workers=2,
        executor="process",
        fault_plan=FaultPlan(faults=(FaultPlan.crash(0),)),
        telemetry=telemetry,
    )
    out = farm.render()
    telemetry.close()
    return farm, out


# -- codec drill -------------------------------------------------------------------
def _codec_round_trip(payloads) -> tuple[int, float]:
    """Pump payloads through pack -> chunked reassembly -> decode; returns
    (pixel bytes copied, wall seconds)."""
    copystats.reset()
    t0 = time.perf_counter()
    stream = b"".join(
        wire.pack_frame(wire.MSG_RESULT, p) for p in payloads
    )
    asm = wire.FrameAssembler()
    got = []
    for i in range(0, len(stream), CHUNK):
        asm.feed(stream[i : i + CHUNK])
        got.extend(asm)
    # Consume the pixels (a checksum read) so lazy views are not free.
    checksum = sum(float(np.asarray(p["frames"]).sum()) for _t, p, _n in got)
    wall = time.perf_counter() - t0
    assert len(got) == len(payloads) and np.isfinite(checksum)
    return copystats.total(), wall


# -- process-transport drill -------------------------------------------------------
def _fill_shm_task(arg):
    """Render stand-in that lands pixels straight in shared memory."""
    seq, shape = arg
    ref, view = worker_store().create(shape, np.float64)
    view.fill(float(seq))
    view = None
    ref.close_local()
    return (seq, ref)


def _fill_pickle_task(arg):
    """The same work, shipped the old way: the stack pickles home."""
    seq, shape = arg
    a = np.empty(shape, dtype=np.float64)
    a.fill(float(seq))
    return (seq, a)


def _transport_wall(shm: bool) -> float:
    tasks = [(i, TASK_SHAPE) for i in range(N_TASKS)]
    store = SharedFrameStore() if shm else None
    t0 = time.perf_counter()
    sup = TaskSupervisor.over(
        _fill_shm_task if shm else _fill_pickle_task,
        tasks,
        FarmOptions(executor="process", n_workers=N_WORKERS, max_attempts=2),
        initializer=activate_worker_store if shm else None,
        initargs=(store.token,) if shm else (),
    )
    out = sup.run()
    # Consume every result on the master (equal page-touching both ways).
    total = 0.0
    for seq, frames in out.results:
        total += float(np.asarray(frames)[0, 0, 0, 0]) * seq
    wall = time.perf_counter() - t0
    if store is not None:
        release_refs(out.results)
        store.cleanup()
    assert len(out.results) == N_TASKS and np.isfinite(total)
    return wall


def test_zerocopy_gates(results_dir):
    rng = np.random.default_rng(11)
    payloads = [
        {"seq": i, "box": (0, 0, 160, 120), "frames": rng.random(FRAME_SHAPE)}
        for i in range(N_MESSAGES)
    ]
    frame_bytes = N_MESSAGES * payloads[0]["frames"].nbytes

    _codec_round_trip(payloads)  # warm-up: the first round pays allocator and cache misses
    rounds = [_codec_round_trip(payloads) for _ in range(CODEC_ROUNDS)]
    copystats.reset()
    copied = rounds[0][0]
    assert all(c == copied for c, _ in rounds), rounds
    codec_wall = float(np.median([w for _, w in rounds]))
    # Acceptance gate 1: the TCP path copies each pixel byte at most once
    # (every payload here spans recv chunks, so the ledger cannot read 0).
    assert 0 < copied <= 1.01 * frame_bytes, (copied, frame_bytes)

    pickle_wall = _transport_wall(shm=False)
    shm_wall = _transport_wall(shm=True)
    transport_speedup = pickle_wall / shm_wall
    # Acceptance gate 2: shared-memory results beat pickled stacks.
    assert transport_speedup >= 1.3, (pickle_wall, shm_wall)

    # Fidelity: zero-copy through a crash-recovery render changes nothing.
    sink = InMemorySink()
    farm, out = crash_drill(Telemetry(sinks=(sink,)))
    ref = farm.render_reference()
    assert out.n_crashes >= 1
    assert out.frames.tobytes() == ref.frames.tobytes()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    write_bench_json(
        results_dir,
        "zerocopy",
        metrics_from_events(sink.events),
        extra={
            "codec_bytes_copied": copied,
            "codec_frame_bytes": frame_bytes,
            "codec_copies_per_byte": copied / frame_bytes,
            "codec_wall": codec_wall,
            "codec_rounds": CODEC_ROUNDS,
            "transport_wall_pickle": pickle_wall,
            "transport_wall_shm": shm_wall,
            "transport_speedup": transport_speedup,
            "transport_task_bytes": int(np.prod(TASK_SHAPE)) * 8,
            "n_transport_tasks": N_TASKS,
            "farm_crashes_recovered": out.n_crashes,
            "bit_identical_after_crash": True,
            "peak_rss_mb": peak_rss_mb,
        },
    )

    lines = [
        "zero-copy data plane",
        f"  codec pixel bytes copied   {copied:,} B for {frame_bytes:,} B of frames "
        f"({copied / frame_bytes:.4f}x, gate 1.01x)",
        f"  codec wall                 {codec_wall:.3f} s "
        f"(median of {CODEC_ROUNDS} after a warm-up round)",
        f"  process transport wall     {pickle_wall:.3f} s pickled -> "
        f"{shm_wall:.3f} s shared-memory ({transport_speedup:.2f}x)",
        f"  per-task payload           {int(np.prod(TASK_SHAPE)) * 8:,} B "
        f"x {N_TASKS} tasks, {N_WORKERS} workers",
        f"  crash-drill fidelity       bit-identical ({out.n_crashes} crash recovered)",
        f"  peak RSS                   {peak_rss_mb:.0f} MB",
    ]
    write_result(results_dir, "zerocopy.txt", "\n".join(lines))
