"""Command-line interface.

::

    python -m repro animate newton --frames 12 --out frames/
    python -m repro validate brick --frames 4
    python -m repro table1 --width 96 --height 72 --frames 10
    python -m repro farm newton --workers 4 --mode frame --telemetry run/
    python -m repro farm newton --transport tcp --status-port 8123 --trace-out run.trace.json
    python -m repro top 127.0.0.1:8123
    python -m repro simulate newton --strategy frame-division-fc
    python -m repro telemetry run/
    python -m repro serve --state-dir svc/ --port 7601
    python -m repro submit --connect 127.0.0.1:7601 newton --frames 8 --wait
    python -m repro jobs --connect 127.0.0.1:7601

The subcommands mirror the workflow of the paper's system: render the
built-in animations with frame coherence, check the algorithm's exactness,
regenerate the headline table, run the real master/worker farm or a
Table-1 simulator (both through :func:`repro.api.render`), and render a
Table-1-style report from a run's telemetry log alone.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

__all__ = ["main", "build_parser"]


def _workload_spec(args):
    """The named workload at the size the size flags ask for."""
    from .api import WORKLOADS
    from .runtime.spec import AnimationSpec

    return AnimationSpec(
        WORKLOADS[args.workload],
        {"n_frames": args.n_frames, "width": args.width, "height": args.height},
    )


def _request_fields(args) -> dict:
    """``RenderRequest`` keywords off a parsed command line: a flag that
    sets a request field has that field's name as its ``dest``."""
    from dataclasses import fields

    from .api import RenderRequest

    names = {f.name for f in fields(RenderRequest)}
    return {name: value for name, value in vars(args).items() if name in names}


def _tile_edge(text: str) -> int:
    edge = int(text)
    if edge < 1:
        raise argparse.ArgumentTypeError("a tile edge is at least one pixel")
    return edge


def _add_size_args(p: argparse.ArgumentParser, frames: int = 8) -> None:
    p.add_argument("--frames", dest="n_frames", type=int, default=frames)
    p.add_argument("--width", type=int, default=160)
    p.add_argument("--height", type=int, default=120)
    p.add_argument(
        "--grid", dest="grid_resolution", type=int, default=24, help="voxel grid resolution"
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Frame-coherent ray tracing on a (simulated) network of workstations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    from .api import WORKLOADS
    from .sched import SIM_STRATEGIES

    workloads = tuple(WORKLOADS)

    p_anim = sub.add_parser("animate", help="render a built-in animation with frame coherence")
    p_anim.add_argument("workload", choices=workloads)
    _add_size_args(p_anim)
    p_anim.add_argument("--out", type=Path, default=Path("frames"))
    p_anim.add_argument("--shadow-coherence", action="store_true")
    p_anim.add_argument(
        "--telemetry", dest="events_path", type=Path, default=None, metavar="DIR",
        help="write structured telemetry (events.jsonl) to DIR",
    )

    p_val = sub.add_parser("validate", help="check exactness/conservativeness of the algorithm")
    p_val.add_argument("workload", choices=workloads)
    _add_size_args(p_val, frames=4)

    p_t1 = sub.add_parser("table1", help="regenerate the paper's Table 1")
    _add_size_args(p_t1, frames=45)

    p_farm = sub.add_parser("farm", help="real parallel rendering on this machine")
    p_farm.add_argument("workload", choices=("newton", "brick"))
    _add_size_args(p_farm)
    p_farm.add_argument("--workers", dest="n_workers", type=int, default=4)
    p_farm.add_argument("--mode", choices=("frame", "sequence", "hybrid"), default="frame")
    p_farm.add_argument(
        "--executor", choices=("process", "thread", "serial"), default="process"
    )
    p_farm.add_argument(
        "--schedule", choices=("static", "demand", "adaptive"), default=None,
        help="task scheduling: static or demand (two spellings of the fixed "
             "unit list --mode implies, handed to whichever worker is free), "
             "or adaptive sequence chains with tail-stealing; a fixed list "
             "checkpoints with --run-dir on either transport "
             "(default: static for --transport process, adaptive for tcp)",
    )
    p_farm.add_argument(
        "--transport", choices=("process", "tcp"), default="process",
        help="process: supervised pool on this host; tcp: loopback network farm "
             "(master on 127.0.0.1 + worker daemons over real sockets)",
    )
    p_farm.add_argument(
        "--segment-frames", type=int, default=None, metavar="N",
        help="frames per dispatched segment for --schedule adaptive "
             "(default: executor-dependent)",
    )
    p_farm.add_argument(
        "--tile-px", type=_tile_edge, default=None, metavar="PX",
        help="distributed-framebuffer tile edge for --transport tcp "
             "(default: 32; workers stream finished tiles as they render)",
    )
    p_farm.add_argument(
        "--max-attempts", type=int, default=3,
        help="pool attempts per task before degrading to in-process serial execution",
    )
    p_farm.add_argument(
        "--task-timeout", type=float, default=None, metavar="SEC",
        help="fixed per-task deadline (default: adapt to 3x the slowest observed task)",
    )
    p_farm.add_argument(
        "--run-dir", type=Path, default=None, metavar="DIR",
        help="spool finished tasks to DIR; rerun with the same DIR to resume, "
             "re-executing only unfinished tasks",
    )
    p_farm.add_argument(
        "--telemetry", dest="events_path", type=Path, default=None, metavar="DIR",
        help="write structured telemetry (events.jsonl) to DIR "
             "(defaults to --run-dir when one is given)",
    )
    p_farm.add_argument(
        "--profile", dest="profile_dir", type=Path, default=None, metavar="DIR",
        help="cProfile each worker task into DIR/*.prof (merge with "
             "repro.telemetry.merge_profiles)",
    )
    p_farm.add_argument(
        "--status-port", type=int, default=None, metavar="PORT",
        help="serve a live JSON status snapshot on 127.0.0.1:PORT while the "
             "run is in flight (watch it with: repro top 127.0.0.1:PORT)",
    )
    p_farm.add_argument(
        "--trace-out", type=Path, default=None, metavar="JSON",
        help="write a Chrome trace-event file (load in Perfetto / "
             "chrome://tracing) from the run's telemetry",
    )

    p_sim = sub.add_parser(
        "simulate", help="run one Table-1 strategy on the discrete-event NOW simulator"
    )
    p_sim.add_argument("workload", choices=workloads)
    _add_size_args(p_sim)
    p_sim.add_argument(
        "--strategy", choices=SIM_STRATEGIES, default="sequence-division-fc"
    )
    p_sim.add_argument(
        "--oracle", type=Path, default=None, metavar="NPZ",
        help="reuse a saved cost oracle instead of measuring one",
    )
    p_sim.add_argument(
        "--telemetry", dest="events_path", type=Path, default=None, metavar="DIR",
        help="write structured telemetry (events.jsonl) to DIR",
    )
    p_sim.add_argument(
        "--trace-out", type=Path, default=None, metavar="JSON",
        help="write a Chrome trace-event file (load in Perfetto / "
             "chrome://tracing) from the run's telemetry",
    )

    p_top = sub.add_parser(
        "top", help="live terminal view of a farm started with --status-port"
    )
    p_top.add_argument("address", metavar="HOST:PORT", help="the farm's status endpoint")
    p_top.add_argument(
        "--interval", type=float, default=1.0, metavar="SEC",
        help="refresh period (default 1s)",
    )
    p_top.add_argument(
        "--once", action="store_true", help="print one snapshot and exit"
    )
    p_top.add_argument(
        "--jobs", action="store_true",
        help="watch a render service's job table (/jobs) instead of the farm view",
    )

    p_serve = sub.add_parser(
        "serve", help="run the persistent multi-job render service daemon"
    )
    p_serve.add_argument(
        "--state-dir", type=Path, required=True, metavar="DIR",
        help="home of one jobs/<id>/ directory per job: job.json, checkpoint spool, frames",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="control socket port (default: pick a free one; see service.json)",
    )
    p_serve.add_argument(
        "--resume", action="store_true",
        help="read the jobs in --state-dir back and continue every unfinished one",
    )
    p_serve.add_argument(
        "--queue-capacity", type=int, default=16,
        help="admission bound: beyond this, the lowest-priority job is shed",
    )
    p_serve.add_argument(
        "--workers", dest="n_workers", type=int, default=2, help="farm workers per job"
    )
    p_serve.add_argument(
        "--executor", choices=("process", "thread", "serial"), default="process"
    )
    p_serve.add_argument(
        "--status-port", type=int, default=None, metavar="PORT",
        help="serve live JSON status (/status, /jobs) on 127.0.0.1:PORT",
    )
    p_serve.add_argument("--verbose", action="store_true", help="log to stdout")

    p_submit = sub.add_parser("submit", help="submit a render job to a running service")
    p_submit.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the service's control socket (printed by repro serve)",
    )
    p_submit.add_argument("workload", choices=workloads)
    _add_size_args(p_submit)
    p_submit.add_argument("--priority", type=int, default=0, help="higher = more urgent")
    p_submit.add_argument("--owner", default="", help="who to bill the job to")
    p_submit.add_argument(
        "--max-attempts", dest="job_attempts", type=int, default=3,
        help="service attempts before the job is dead-lettered",
    )
    p_submit.add_argument(
        "--wait", action="store_true", help="block until the job reaches a terminal state"
    )
    p_submit.add_argument(
        "--timeout", type=float, default=600.0, metavar="SEC",
        help="deadline for --wait (default 600s)",
    )

    p_jobs = sub.add_parser("jobs", help="list, inspect, or cancel service jobs")
    p_jobs.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the service's control socket",
    )
    p_jobs.add_argument("--job", default=None, metavar="ID", help="show one job")
    p_jobs.add_argument(
        "--cancel", default=None, metavar="ID", help="cancel a queued job"
    )

    p_tel = sub.add_parser(
        "telemetry", help="render a Table-1-style report from a run's events.jsonl"
    )
    p_tel.add_argument(
        "run_dir", type=Path,
        help="a run directory containing events.jsonl, or the .jsonl file itself",
    )
    p_tel.add_argument(
        "--per-frame", action="store_true", help="include the per-frame table"
    )

    p_oracle = sub.add_parser(
        "oracle", help="measure per-pixel costs and print coherence analytics"
    )
    p_oracle.add_argument("workload", choices=workloads)
    _add_size_args(p_oracle)
    p_oracle.add_argument("--save", type=Path, help="also save the oracle as .npz")

    p_shard = sub.add_parser(
        "shard",
        help="object-space sharded render: workers own scene shards and trade rays",
    )
    p_shard.add_argument("workload", choices=workloads)
    _add_size_args(p_shard, frames=4)
    p_shard.add_argument("--shards", type=int, default=4, help="shard count K")
    p_shard.add_argument("--workers", type=int, default=2, help="worker daemons to spawn")
    p_shard.add_argument(
        "--out", type=Path, default=None, metavar="DIR", help="write frames as .tga to DIR"
    )
    p_shard.add_argument(
        "--die-after-rays", type=int, default=None, metavar="N",
        help="fault drill: worker 0 crashes before serving shard request N+1",
    )
    p_shard.add_argument(
        "--telemetry", dest="events_path", type=Path, default=None, metavar="DIR",
        help="write structured telemetry (events.jsonl) to DIR",
    )
    p_shard.add_argument(
        "--status-port", type=int, default=None, metavar="PORT",
        help="serve a live JSON status snapshot on 127.0.0.1:PORT "
             "(watch with: repro top 127.0.0.1:PORT)",
    )

    # Its flags are repro.net.worker.main's: main() hands them over unparsed.
    sub.add_parser(
        "worker", help="join a repro.net farm as a rendering worker daemon", add_help=False
    )
    return parser


def _cmd_animate(args) -> int:
    from .api import render
    from .imageio import write_targa

    args.out.mkdir(parents=True, exist_ok=True)

    def on_frame(ev):
        write_targa(args.out / f"{args.workload}{ev.frame:04d}.tga", ev.image)
        print(
            f"frame {ev.frame:4d}: {ev.report.n_computed:6d} px computed, "
            f"{ev.report.stats.total:8d} rays"
        )

    result = render(
        engine="animation",
        on_frame=on_frame,
        telemetry=args.events_path is not None,
        **_request_fields(args),
    )
    print(
        f"\n{result.n_frames} frames in {result.wall_time:.1f}s, "
        f"{result.stats.total:,} rays, "
        f"{result.total_copied_pixels():,} pixel-renders avoided"
    )
    if args.shadow_coherence:
        print(f"shadow rays saved by the extension: {result.shadow_rays_saved:,}")
    if result.events_path is not None:
        print(f"telemetry in {result.events_path}")
    print(f"frames in {args.out}/")
    return 0


def _cmd_validate(args) -> int:
    from .coherence import validate_sequence

    anim = _workload_spec(args).build()
    report = validate_sequence(anim, grid_resolution=args.grid_resolution)
    for fv in report.frames:
        print(
            f"frame {fv.frame:3d}: exact={fv.exact} actual_changed={fv.n_actual_changed:6d} "
            f"predicted={fv.n_predicted:6d} missed={fv.missed_pixels.size}"
        )
    ok = report.all_exact and report.all_conservative
    print(
        f"\nexact: {report.all_exact}  conservative: {report.all_conservative}  "
        f"mean overprediction: {report.mean_overprediction():.2f}x"
    )
    return 0 if ok else 1


def _cmd_table1(args) -> int:
    from .bench import Table1Settings, format_table1, run_table1
    from .parallel import build_oracle
    from .scenes import newton_animation

    print("measuring per-pixel costs (renders the animation twice)...")
    anim = newton_animation(n_frames=args.n_frames, width=args.width, height=args.height)
    oracle = build_oracle(anim, grid_resolution=args.grid_resolution, verbose=False)
    print(format_table1(run_table1(oracle, Table1Settings())))
    return 0


def _cmd_farm(args) -> int:
    from .api import render

    given = _request_fields(args)
    # Every schedule runs on either transport; an unset --schedule picks
    # each transport's natural one (tcp lanes keep a chain's coherence
    # warm, so fine adaptive segments are cheap there).
    if args.schedule is None:
        given["schedule"] = "adaptive" if args.transport == "tcp" else "static"
    if args.status_port is not None:
        print(
            f"live status on http://127.0.0.1:{args.status_port}/status "
            f"(watch with: repro top 127.0.0.1:{args.status_port})"
        )
        print(
            f"prometheus metrics on http://127.0.0.1:{args.status_port}/metrics"
        )
        print(
            f"progressive preview on http://127.0.0.1:{args.status_port}"
            "/preview?fmt=png (also fmt=json, fmt=npz)"
        )
    result = render(
        engine="farm",
        verify=True,
        telemetry=args.events_path is not None or args.run_dir is not None,
        **given,
    )
    rec = result.recovery
    print(
        f"{result.mode}: {result.n_tasks} tasks on {args.n_workers} workers "
        f"in {result.wall_time:.1f}s, {result.stats.total:,} rays"
    )
    if result.n_from_checkpoint:
        print(f"resumed: {result.n_from_checkpoint}/{result.n_tasks} tasks from checkpoint")
    if rec["retries"] or rec["timeouts"] or rec["degraded"]:
        print(
            f"recovery: {rec['retries']} retries, {rec['timeouts']} timeouts, "
            f"{rec['crashes']} crashes, {rec['invalid']} invalid results, "
            f"{rec['degraded']} degraded to serial"
        )
    if result.events_path is not None:
        print(f"telemetry in {result.events_path}")
    if result.trace_path is not None:
        print(f"chrome trace in {result.trace_path}")
    print(f"bit-identical to single-renderer reference: {result.bit_identical}")
    return 0 if result.bit_identical else 1


def _cmd_shard(args) -> int:
    from .obs import StatusServer
    from .shard.net import render_sharded_tcp
    from .telemetry import JsonlSink, RunFold, Telemetry

    spec = _workload_spec(args)
    fold = RunFold()
    sinks = [fold]
    events_path = None
    if args.events_path is not None:
        args.events_path.mkdir(parents=True, exist_ok=True)
        events_path = args.events_path / "events.jsonl"
        sinks.append(JsonlSink(events_path))
    status = None
    if args.status_port is not None:
        status = StatusServer(fold, port=args.status_port)
        status.start()
        print(
            f"live status on http://127.0.0.1:{status.port}/status "
            f"(watch with: repro top 127.0.0.1:{status.port})"
        )
    plan = None
    if args.die_after_rays is not None:
        from .runtime import FaultPlan

        plan = FaultPlan([FaultPlan.kill_worker(0, args.die_after_rays, "rays")])
    t0 = time.perf_counter()
    try:
        session, outcome = render_sharded_tcp(
            spec,
            frames=args.n_frames,
            shards=args.shards,
            n_workers=args.workers,
            fault_plan=plan,
            telemetry=Telemetry(sinks=tuple(sinks)),
        )
    finally:
        if status is not None:
            status.stop()
    wall = time.perf_counter() - t0
    rays_recv = sum(int(st.rays_recv.sum()) for st in session.stats)
    ray_kb = sum(st.total_ray_bytes for st in session.stats) / 1024.0
    print(
        f"object-space: {session.k} shards on {args.workers} workers, "
        f"{len(session.frames)} frames in {wall:.1f}s"
    )
    print(
        f"rays routed {rays_recv:,} · {ray_kb:.1f} KiB traded · "
        f"{session.n_replays} replayed · {outcome.net.n_losses} losses"
    )
    if args.out is not None:
        from .imageio import write_targa

        args.out.mkdir(parents=True, exist_ok=True)
        for f, fb in enumerate(session.frames):
            write_targa(args.out / f"{args.workload}{f:04d}.tga", fb.to_uint8())
        print(f"frames in {args.out}/")
    if events_path is not None:
        print(f"telemetry in {events_path}")
    return 0


def _cmd_simulate(args) -> int:
    from .api import render

    if args.oracle is None:
        print("measuring per-pixel costs (renders the animation twice)...")
    result = render(
        engine="simulate", telemetry=args.events_path is not None, **_request_fields(args)
    )
    o = result.outcome
    print(
        f"{o.strategy}: {o.n_frames} frames on {result.n_workers} machines in "
        f"{o.total_time:,.1f} virtual seconds"
    )
    print(
        f"{o.total_rays:,} rays, {o.n_messages} messages, "
        f"{o.bytes_on_wire:,} bytes on the wire, {o.n_chain_starts} chain starts"
    )
    if result.events_path is not None:
        print(f"telemetry in {result.events_path}")
    if result.trace_path is not None:
        print(f"chrome trace in {result.trace_path}")
    return 0


def _cmd_top(args) -> int:
    from .obs import fetch_status, render_jobs, render_status

    path = "/jobs" if args.jobs else "/status"
    try:
        while True:
            try:
                snap = fetch_status(args.address, path=path)
            except (OSError, ValueError):
                print(f"no farm status at {args.address} (run finished, or no --status-port?)")
                return 1
            frame = render_jobs(snap) if args.jobs else render_status(snap)
            if args.once:
                print(frame)
                return 0
            # Clear screen + home, then the fresh frame.
            sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
            sys.stdout.flush()
            if snap.get("done"):
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


def _cmd_serve(args) -> int:
    from .service import RenderService

    # Every serve flag is named after the RenderService keyword it sets.
    service = RenderService(**{k: v for k, v in vars(args).items() if k != "command"})
    host, port = service.start()
    print(f"repro service on {host}:{port} (state in {args.state_dir})")
    print(f"submit with: repro submit --connect {host}:{port} newton")
    if args.status_port is not None:
        print(
            f"live jobs on http://127.0.0.1:{service._status_server.port}/jobs "
            f"(watch with: repro top 127.0.0.1:{service._status_server.port} --jobs)"
        )
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down (every job.json is durable; restart with --resume)")
    finally:
        service.stop()
    return 0


def _cmd_submit(args) -> int:
    from .api import RenderRequest
    from .service import ServiceError, submit, wait

    try:
        job = submit(
            args.connect,
            RenderRequest(**_request_fields(args)),
            priority=args.priority,
            owner=args.owner,
            max_attempts=args.job_attempts,
        )
    except (OSError, ServiceError) as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    print(f"submitted {job['job_id']} (priority {job['priority']}, state {job['state']})")
    if not args.wait:
        return 0
    try:
        done = wait(args.connect, job["job_id"], timeout=args.timeout)
    except TimeoutError as exc:
        print(f"wait: {exc}", file=sys.stderr)
        return 1
    final = done[job["job_id"]]
    print(f"{final['job_id']}: {final['state']} ({final.get('detail', '')})")
    return 0 if final["state"] == "done" else 1


def _cmd_jobs(args) -> int:
    from .obs import render_jobs
    from .service import ServiceError, cancel, job_status, list_jobs

    try:
        if args.cancel is not None:
            job = cancel(args.connect, args.cancel)
            print(f"{job['job_id']}: {job['state']}")
            return 0
        if args.job is not None:
            job = job_status(args.connect, args.job)
            for key in (
                "job_id", "state", "detail", "priority", "owner",
                "n_attempts", "max_attempts", "tasks_done", "n_tasks",
                "n_from_checkpoint",
            ):
                print(f"{key:18s} {job.get(key)}")
            for attempt in job.get("attempts", []):
                print(
                    f"  attempt {attempt['attempt']}: {attempt['outcome']} "
                    f"in {attempt['duration']:.2f}s "
                    + (f"({attempt['error']})" if attempt.get("error") else "")
                )
            return 0
        print(render_jobs(list_jobs(args.connect)))
        return 0
    except (OSError, ServiceError) as exc:
        print(f"jobs: {exc}", file=sys.stderr)
        return 1


def _cmd_telemetry(args) -> int:
    from .telemetry import format_report, read_events, report_from_events

    events = read_events(args.run_dir)
    if not events:
        print(f"no telemetry events in {args.run_dir}")
        return 1
    print(format_report(report_from_events(events), per_frame=args.per_frame))
    return 0


def _cmd_oracle(args) -> int:
    from .analysis import summarize_oracle
    from .parallel import build_oracle

    anim = _workload_spec(args).build()
    print("measuring per-pixel costs (renders the animation twice)...")
    oracle = build_oracle(anim, grid_resolution=args.grid_resolution)
    if args.save is not None:
        oracle.save(args.save)
        print(f"saved oracle to {args.save}")
    for key, value in summarize_oracle(oracle).items():
        print(f"{key:32s} {value:.4f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse ``argv`` (default ``sys.argv``) and dispatch."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["worker"]:
        # One definition of the daemon's command line: the module's own.
        from .net.worker import main as worker_main

        return worker_main(argv[1:])
    args = build_parser().parse_args(argv)
    handlers = {
        "animate": _cmd_animate,
        "validate": _cmd_validate,
        "table1": _cmd_table1,
        "farm": _cmd_farm,
        "simulate": _cmd_simulate,
        "telemetry": _cmd_telemetry,
        "oracle": _cmd_oracle,
        "shard": _cmd_shard,
        "top": _cmd_top,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
