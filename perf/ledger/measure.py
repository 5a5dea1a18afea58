"""Run one workload in this process: set up, time requests, check, fold.

The order inside :func:`run_workload` is fixed so that nothing the harness
does for itself lands in a timed metric:

1. set-up (scene build + one small warm-up request) — timed as ``setup_s``,
   repeated in fresh interpreters (*probes*) so the metric is a median;
2. the timed loop, a fixed number of requests or a time box: untraced
   requests, each followed (``trace`` only) by a traced twin — wrappers
   installed, ``telemetry=True`` — so the two are adjacent in time and the
   machine's drift cancels in their ratio;
3. memory high-water marks are read at the end of the first timed request,
   before any traced one has run, and its frames are spilled to disk, not
   copied, for step 4;
4. only then the reference is rendered and every delivered frame compared.

Every time is seconds as the clock read them, and a run's ``wall_s``,
``cpu_s`` and ``first_frame_s`` are those of its *fastest* timed request:
on a shared machine interference only ever adds time, and over ten runs
the fastest of six requests repeats twice as tightly as their median
(perf/README.md has the numbers).  Leak hygiene runs after every request
and is fatal.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import layers
from .layers import percentile
from .spans import Tracer
from .workloads import GRID_RESOLUTION, WORKLOADS, Workload, build_spec

__all__ = ["run_workload", "setup_only", "LeakError"]

#: full-size frames must equal the reference exactly; at the smaller sizes
#: frame division is known to differ from the whole-frame reference by one
#: ulp in one pixel (seed behaviour, reported as api.ulp_px, not fixed here)
_ATOL = {"full": 0.0, "gate": 1e-12}
_MIN_SAMPLES = 3  # of a time-boxed loop, however slow one request is
_RESULTS = Path(__file__).resolve().parents[1] / "results"


class LeakError(RuntimeError):
    """A request left a segment, process, pooled buffer or socket behind."""


@dataclass
class Sample:
    """Everything one request produced, traced or not."""

    t0: float
    pcpu0: float  # this process's cpu clock at t0 (serial requests spend it all here)
    wall: float
    cpu: float
    rss_kb: int  # ru_maxrss of this process or its largest reaped child, at the end
    deliveries: list  # (perf_counter, process cpu) at each on_frame
    rays: dict  # RayStats.as_dict()
    n_frames: int
    digests: list  # sha256 per delivered frame
    events: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)  # result-object fields by layer
    tracer: Tracer | None = None
    changed_px: list = field(default_factory=list)

    @property
    def first_frame(self) -> float:
        return self.deliveries[0][0] - self.t0 if self.deliveries else self.wall

    @property
    def gaps_ms(self) -> list:
        """Milliseconds between consecutive ``on_frame`` deliveries."""
        times = [t for t, _cpu in self.deliveries]
        return [(b - a) * 1e3 for a, b in zip(times, times[1:])]


def _cpu_now() -> float:
    """user+sys of this process and of every child it has reaped so far."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


# -- one request ---------------------------------------------------------------------
def _request(workload: Workload, spec, dims: dict, *, traced: bool,
             spill: Path | None = None) -> Sample:
    """Issue one request through the public API.

    With ``spill`` the delivered frames are written there (``.npy``) before
    the program's buffers go back to their pool: the harness holds no copy
    of its own while anything is still being measured.
    """
    from repro import RayStats, api
    from repro.buffers import copystats, default_pool
    from repro.shard.net import render_sharded_tcp
    from repro.telemetry import InMemorySink, Telemetry

    tracer = Tracer() if traced else None
    deliveries: list = []

    def on_frame(_event) -> None:
        deliveries.append((time.perf_counter(), time.process_time()))

    extra: dict = {}
    pool0, copied0 = default_pool().stats(), copystats.total()
    span = tracer.span if traced else (lambda _name, _layer: nullcontext())
    with tracer.installed() if traced else nullcontext():
        cpu0, pcpu0, t0 = _cpu_now(), time.process_time(), time.perf_counter()
        with span("api.request", "api"):
            if workload.sharded:
                sink = InMemorySink()
                session, outcome = render_sharded_tcp(
                    spec,
                    frames=dims["frames"],
                    telemetry=Telemetry(sinks=[sink]) if traced else None,
                    **workload.request,
                )
                with span("api.materialize", "api"):
                    frames = np.stack([fb.as_image() for fb in session.frames])
                rays = RayStats.merge(r.stats for r in session.results)
                events, release = sink.events, None
                extra["assignments"] = len(outcome.assignments)
                extra["shard_stats"] = [s.as_dict() for s in session.stats]
            else:
                result = api.render(api.RenderRequest(
                    workload=spec,
                    grid_resolution=GRID_RESOLUTION,
                    segment_frames=dims.get("segment_frames"),
                    on_frame=on_frame,
                    telemetry=traced,
                    **workload.request,
                ))
                with span("api.materialize", "api"):
                    frames = np.asarray(result.frames)
                rays, events, release = result.stats, result.events, result.frames.release
                extra["assignments"] = result.n_tasks
                extra["retries"] = int(result.recovery.get("retries", 0))
        wall, cpu = time.perf_counter() - t0, _cpu_now() - cpu0
        rss_kb = max(resource.getrusage(who).ru_maxrss
                     for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

    sample = Sample(
        t0=t0,
        pcpu0=pcpu0,
        wall=wall,
        cpu=cpu,
        rss_kb=rss_kb,
        deliveries=deliveries,
        rays=rays.as_dict(),
        n_frames=int(frames.shape[0]),
        digests=[hashlib.sha256(frame.data).hexdigest() for frame in frames],
        events=events,
        extra=extra,
        tracer=tracer,
    )
    if traced:
        pool1 = default_pool().stats()
        extra["pool"] = {k: pool1[k] - pool0[k] for k in ("n_acquired", "n_hits")}
        extra["bytes_copied"] = copystats.total() - copied0
        sample.changed_px = [
            int(np.count_nonzero(np.any(frames[f] != frames[f - 1], axis=-1)))
            for f in range(1, frames.shape[0])
        ]
    if spill is not None:
        np.save(spill, frames)
    del frames
    if release is not None:
        release()
    _check_leaks(pool0["n_outstanding"])
    return sample


# -- leak hygiene ----------------------------------------------------------------------
def _listening_inodes() -> set:
    inodes = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            rows = Path(table).read_text().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            cols = row.split()
            if len(cols) > 9 and cols[3] == "0A":
                inodes.add(cols[9])
    return inodes


def _child_pids(grace_s: float = 2.0) -> list:
    """Children of this process that are still there after ``grace_s``.

    The interpreter's own ``multiprocessing.resource_tracker`` helper (started
    the first time a shared-memory segment is attached) lives until exit —
    perf/run.py stops it there — and is not a leak.  A pool worker that
    attached a segment before this process had a tracker started one of its
    own, which outlives the worker by a moment and is re-parented here
    (perf/run.py makes this process the reaper of its descendants): it is
    given the grace to end and is reaped, so that nothing is left for init.
    """
    me, deadline = str(os.getpid()), time.monotonic() + grace_s
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass  # reaped one that had ended
        except ChildProcessError:
            return []
        out = []
        for stat in glob.glob("/proc/[0-9]*/stat"):
            pid_dir = Path(stat).parent
            try:
                ppid = Path(stat).read_text().rsplit(")", 1)[1].split()[1]
                cmdline = (pid_dir / "cmdline").read_bytes()
            except (OSError, IndexError):
                continue  # the process ended while we were looking
            if ppid == me and b"multiprocessing.resource_tracker" not in cmdline:
                out.append(int(pid_dir.name))
        if not out or time.monotonic() >= deadline:
            return out
        time.sleep(0.005)


def _check_leaks(outstanding_before: int) -> None:
    """Fatal unless the request left nothing behind.

    The pool check is a delta: on the process transport the farm hands the
    pool a stack it never acquired from it, so the absolute count goes
    negative there (seed behaviour); a leak is a request that leaves *more*
    buffers outstanding than it found.
    """
    from repro.buffers import SEGMENT_PREFIX, default_pool

    problems = []
    segments = glob.glob(f"/dev/shm/{SEGMENT_PREFIX}_*")
    if segments:
        problems.append(f"{len(segments)} shared-memory segment(s) left: {segments[:3]}")
    children = _child_pids()
    if children:
        problems.append(f"live child process(es): {children}")
    leaked = default_pool().stats()["n_outstanding"] - outstanding_before
    if leaked > 0:
        problems.append(f"default_pool has {leaked} more buffer(s) outstanding after release")
    mine = set()
    for fd in glob.glob("/proc/self/fd/*"):
        try:
            target = os.readlink(fd)
        except OSError:
            continue
        if target.startswith("socket:["):
            mine.add(target[8:-1])
    listening = mine & _listening_inodes()
    if listening:
        problems.append(f"{len(listening)} listening socket(s) left open")
    if problems:
        raise LeakError("; ".join(problems))


# -- set-up ----------------------------------------------------------------------------
def _set_up(workload: Workload, seed: int, size: str):
    """Scene build plus one warm-up request; returns the timed run's spec."""
    spec = build_spec(workload, size, seed)
    spec.build()
    _request(workload, build_spec(workload, "warm", seed), workload.sizes["warm"], traced=False)
    return spec


def setup_only(name: str, seed: int, size: str, t_start: float) -> float:
    """What a probe interpreter runs: set up, report how long it took."""
    _set_up(WORKLOADS[name], seed, size)
    return time.perf_counter() - t_start


def _probe_setup(name: str, seed: int, size: str) -> float:
    """The same set-up in a fresh interpreter: its seconds."""
    entry = Path(__file__).resolve().parents[1] / "run.py"
    cmd = [sys.executable, str(entry), "--workload", name, "--seed", str(seed),
           "--child", json.dumps({"size": size, "setup_only": True})]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


# -- reference -------------------------------------------------------------------------
def _spot_check(spec, frames: np.ndarray) -> int:
    """First, middle and last frame against a from-scratch ``RayTracer``
    render (coherent rendering is bit-identical to it): frames that differ."""
    from repro import RayTracer

    anim = spec.build()
    spots = sorted({0, len(frames) // 2, len(frames) - 1})
    want = np.stack([RayTracer(anim.scene_at(f)).render()[0].as_image() for f in spots])
    return _compare(frames[spots], want, 0.0)[0]


def _compare(frames: np.ndarray, reference: np.ndarray, atol: float) -> tuple:
    """``(frames that fail, pixels within atol but not bit-equal)``."""
    failed = ulp_px = 0
    for got, want in zip(frames, reference):
        if not np.allclose(got, want, rtol=0.0, atol=atol):  # NaN never passes
            failed += 1
        else:
            ulp_px += int(np.count_nonzero(np.any(got != want, axis=-1)))
    return failed, ulp_px


def _as_reference(samples: list, frames: np.ndarray) -> dict:
    """Serial requests' frames with the time each was delivered at (wall and
    cpu since the request was issued; per frame, the fastest of the requests)."""
    done = [[t - s.t0 for t, _cpu in s.deliveries] for s in samples]
    cpu = [[cpu - s.pcpu0 for _t, cpu in s.deliveries] for s in samples]
    return {
        "frames": frames,
        "done_s": np.min(done, axis=0),
        "cpu_s": np.min(cpu, axis=0),
        "rays_total": np.array(samples[0].rays["total"]),
    }


def _ref_path(spec, ref_dir: Path | None) -> Path | None:
    if ref_dir is None:
        return None
    key = repr((spec.factory, sorted(spec.kwargs.items()), GRID_RESOLUTION))
    return ref_dir / f"{hashlib.sha1(key.encode()).hexdigest()}.npz"


def _serial_reference(spec, ref_dir: Path | None, tmp: Path) -> dict:
    """The same animation through ``engine="animation"``.

    A ledger run shares one reference between the Newton workloads through
    ``ref_dir`` (newton_serial's first repeat, as it leaves it there); a
    lone ``--workload`` run renders and spot-checks its own.
    """
    path = _ref_path(spec, ref_dir)
    if path is not None and path.exists():
        with np.load(path) as z:
            return {k: z[k] for k in z.files}
    dims = {"n_frames": spec.kwargs["n_frames"]}
    sample = _request(WORKLOADS["newton_serial"], spec, dims, traced=False,
                      spill=tmp / "reference.npy")
    frames = np.load(tmp / "reference.npy")
    if _spot_check(spec, frames):
        raise AssertionError("the serial reference itself differs from the plain tracer")
    return _as_reference([sample], frames)


# -- the run ---------------------------------------------------------------------------
def run_workload(
    name: str,
    *,
    seed: int = 0,
    size: str = "gate",
    repeats: int | None = None,
    seconds: float | None = None,
    trace: bool = False,
    probes: int = 2,
    ref_dir: Path | None = None,
    t_start: float | None = None,
) -> dict:
    """Measure one workload; returns the ledger record (plain JSON types).

    ``repeats`` fixes the number of timed requests, ``seconds`` time-boxes
    them instead (at least ``_MIN_SAMPLES``).  With ``trace`` every timed
    request is followed by a traced twin, inside the same count or box.
    """
    if (repeats is None) == (seconds is None):
        raise ValueError("give exactly one of repeats and seconds")
    workload = WORKLOADS[name]
    dims = workload.sizes[size]
    t_start = time.perf_counter() if t_start is None else t_start
    spec = _set_up(workload, seed, size)
    setup = [time.perf_counter() - t_start]
    setup += [_probe_setup(name, seed, size) for _ in range(probes)]
    if workload.discard_first:
        _request(workload, spec, dims, traced=False)

    _RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=_RESULTS) as tmp_name:
        tmp = Path(tmp_name)
        untraced: list[Sample] = []
        traced: list[Sample] = []
        loop0 = time.perf_counter()
        while True:
            untraced.append(_request(workload, spec, dims, traced=False,
                                     spill=None if untraced else tmp / "first.npy"))
            if trace:
                traced.append(_request(workload, spec, dims, traced=True))
            if seconds is None:
                done = len(untraced) >= repeats
            else:
                done = (time.perf_counter() - loop0 >= seconds
                        and len(untraced) >= _MIN_SAMPLES)
            if done:
                break

        # -- correctness: after every metric is taken -----------------------------------
        first_frames = np.load(tmp / "first.npy")
        samples = untraced + traced
        attempted = sum(s.n_frames for s in samples)
        ulp_px = 0
        if workload.serial:
            failed = _spot_check(spec, first_frames)
            failed += sum(1 for f in first_frames if not np.isfinite(f).all())
            serial = _as_reference(untraced, first_frames)
            path = _ref_path(spec, ref_dir)
            if path is not None and not failed:
                path.parent.mkdir(parents=True, exist_ok=True)
                np.savez(path, **serial)
        else:
            serial = _serial_reference(spec, ref_dir, tmp)
            failed, ulp_px = _compare(
                first_frames, serial["frames"][: len(first_frames)], _ATOL[size]
            )
    first = untraced[0].digests
    for sample in samples[1:]:
        failed += sum(1 for a, b in zip(first, sample.digests) if a != b)
        failed += abs(len(first) - len(sample.digests))
    failed = min(failed, attempted)

    # -- fold ----------------------------------------------------------------------------
    walls = [s.wall for s in untraced]
    cpus = [s.cpu for s in untraced]
    firsts = [s.first_frame for s in untraced]
    gaps = [g for s in untraced for g in s.gaps_ms]
    rays = [s.rays["total"] for s in untraced]
    record = {
        "workload": name,
        "size": size,
        "seed": seed,
        "dims": dims,
        "spec_kwargs": spec.kwargs,
        "n_samples": len(untraced),
        "n_traced": len(traced),
        "n_setup_samples": len(setup),
        "n_gap_samples": len(gaps),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "frames_sha256": hashlib.sha256("".join(first).encode()).hexdigest(),
        "rays_repeat_exactly": len(set(rays)) == 1,
        "samples": {
            "wall_s": walls,
            "cpu_s": cpus,
            "first_frame_s": firsts,
            "rays_total": rays,
            "setup_s": setup,
        },
        "end_to_end": {
            "wall_s": min(walls),
            "cpu_s": min(cpus),
            "first_frame_s": min(firsts),
            "peak_rss_mb": untraced[0].rss_kb / 1024.0,
            "rays_total": statistics.median(rays),
            "frames_failed_frac": failed / attempted,
            "setup_s": statistics.median(setup),
        },
    }
    if workload.streams:
        record["end_to_end"]["frame_p50_ms"] = percentile(gaps, 50)
        record["end_to_end"]["frame_p90_ms"] = percentile(gaps, 90)
    if traced:
        e2e = record["end_to_end"]
        if workload.serial:
            # its own serial run: both ratios read exactly 1
            serial_wall, serial_cpu = e2e["wall_s"], e2e["cpu_s"]
        else:
            last = len(first_frames) - 1
            serial_wall, serial_cpu = float(serial["done_s"][last]), float(serial["cpu_s"][last])
        per_sample = [
            layers.layer_metrics(
                t, twin_wall=u.wall, n_workers=workload.n_workers, wall_s=e2e["wall_s"],
                cpu_s=e2e["cpu_s"], serial_wall=serial_wall, serial_cpu=serial_cpu,
                ulp_px=ulp_px,
            )
            for u, t in zip(untraced, traced)
        ]
        record["per_layer"] = {
            k: statistics.median(m[k] for m in per_sample) for k in per_sample[0]
        }
        record["layer_self_s"], record["span_self_s"] = layers.layer_table(traced[-1])
        record["serial"] = {
            "wall_s": serial_wall,
            "cpu_s": serial_cpu,
            "rays_total": int(serial["rays_total"]),
            "n_frames": len(serial["frames"]),
        }
        record["samples"]["telemetry.trace_overhead_frac"] = [
            m["telemetry.trace_overhead_frac"] for m in per_sample
        ]
        record["spans"] = traced[-1].tracer.export(name, f"{name}-seed{seed}")
    return record
