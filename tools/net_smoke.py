#!/usr/bin/env python
"""CI network smoke: a loopback TCP farm survives a worker kill, bit-identically.

Runs a small Newton render on the real TCP transport (``repro.net``): a
master on 127.0.0.1 and two spawned worker daemons, with worker 0
configured to ``os._exit`` after its first completed assignment.  Exits
non-zero if anything the network layer promises drifts:

* the farm does not record at least one crash + recovery (the kill was
  swallowed or the run finished without it),
* the recovered output is not bit-identical to the serial single-renderer
  reference (golden-image equality),
* the telemetry log violates the pinned schema,
* the merged master+worker trace has orphan spans,
* the ``net.*`` events (listen / join / assign / result / worker.lost)
  are missing from the log, or
* the victim's flight-recorder black box (the kill is mid-frame, via
  ``--die-after-frames``) is missing, unparseable, not pointed at by the
  ``net.worker.lost`` event, or stitches into the merged trace with
  orphan spans / without the victim's final open task span.

A second phase starts ``repro farm --transport tcp --status-port N`` as
a subprocess (a render sized to stay in flight for many poll periods, see
``LIVE_FRAMES``), polls the live JSON endpoint while the run is in flight,
and fails if no mid-run snapshot is served, if the run writes anything
to stderr, or if its event log has orphan spans.  The same loop polls
the ``/preview`` endpoint of the distributed framebuffer and fails
unless a *partially-complete* composite (``frames_complete`` below the
frame count) is served before the run finishes, with a valid PNG body.
It also polls ``/metrics`` mid-run and fails unless a well-formed
Prometheus text exposition (HELP/TYPE comments, ``name{labels} value``
samples) with task-latency quantiles and per-worker health is served
while the run is in flight.

Usage::

    python tools/net_smoke.py
"""

from __future__ import annotations

import argparse
import json
import os
import re
import socket
import subprocess
import sys
import tempfile
import time
import tracemalloc
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import RenderRequest, render  # noqa: E402
from repro.obs import (  # noqa: E402
    fetch_status,
    find_orphan_spans,
    read_blackbox,
    stitch_blackbox,
)
from repro.runtime import FaultPlan  # noqa: E402
from repro.telemetry import SchemaError, read_events, validate_events  # noqa: E402

REQUIRED_NET_EVENTS = {
    "net.listen",
    "net.worker.join",
    "net.assign",
    "net.result",
    "net.worker.lost",
}


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _fetch_raw(port: int, path: str) -> tuple[str, bytes]:
    """GET a status-server path raw (``fetch_status`` JSON-decodes)."""
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=1.0) as resp:
        return resp.headers.get("Content-Type", ""), resp.read()


#: One Prometheus text-format sample: name, optional {labels}, float value.
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(-?[0-9.eE+-]+|[+-]?Inf|NaN)$"
)


def check_exposition(content_type: str, body: bytes) -> list[str]:
    """Validate a Prometheus text exposition; returns problem strings.

    The same spirit as tools/trace_lint.py for Chrome traces: every line
    must be blank, a ``# HELP``/``# TYPE`` comment, or a
    ``name{labels} value`` sample with a parseable float value, and every
    sampled metric family must have a ``# TYPE``.
    """
    problems: list[str] = []
    if not content_type.startswith("text/plain"):
        problems.append(f"content-type {content_type!r} is not text/plain")
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        return problems + [f"body is not utf-8: {exc}"]
    typed: set[str] = set()
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "summary", "histogram", "untyped"
            ):
                problems.append(f"line {i}: malformed TYPE comment {line!r}")
            else:
                typed.add(parts[2])
            continue
        if line.startswith("#"):
            problems.append(f"line {i}: unknown comment {line!r}")
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            problems.append(f"line {i}: unparseable sample {line!r}")
            continue
        name = m.group(1)
        try:
            float(m.group(3))
        except ValueError:
            problems.append(f"line {i}: non-numeric value in {line!r}")
        family = re.sub(r"_(sum|count|total|bucket)$", "", name)
        if name not in typed and family not in typed:
            problems.append(f"line {i}: sample {name!r} has no # TYPE")
    return problems


#: Phase 2's render, sized to outlast many poll periods (about 2 s of farm
#: time on two cores of a 2020s x86 box) so the poll loop always sees the
#: run in flight; the kill drill's tiny render can finish between two polls.
LIVE_FRAMES, LIVE_WIDTH, LIVE_HEIGHT = 24, 128, 96


def live_status_drill() -> int:
    """Phase 2: a real ``repro farm --status-port`` run, polled live."""
    port = _free_port()
    with tempfile.TemporaryDirectory(prefix="net_smoke_") as tmp:
        run_dir = Path(tmp)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "farm", "newton",
                "--transport", "tcp", "--workers", "2",
                "--frames", str(LIVE_FRAMES),
                "--width", str(LIVE_WIDTH), "--height", str(LIVE_HEIGHT),
                "--grid", "12",
                "--status-port", str(port),
                "--telemetry", str(run_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={
                **os.environ,
                "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")
                + os.pathsep
                + os.environ.get("PYTHONPATH", ""),
            },
        )
        snapshots = []
        previews = []
        png = None
        metrics = None  # latest (content_type, body) served while in flight
        n_metrics_polls = 0
        deadline = time.time() + 120.0
        while proc.poll() is None and time.time() < deadline:
            try:
                snap = fetch_status(f"127.0.0.1:{port}", timeout=1.0)
                if snap.get("n_events", 0) > 0 and not snap.get("done"):
                    snapshots.append(snap)
            except OSError:
                pass
            try:
                prev = json.loads(_fetch_raw(port, "/preview?fmt=json")[1])
                if prev.get("available") and prev.get("frames_complete", 0) < LIVE_FRAMES:
                    previews.append(prev)
                    if png is None:
                        png = _fetch_raw(port, "/preview?fmt=png")
            except (OSError, ValueError):
                pass
            try:
                metrics = _fetch_raw(port, "/metrics")
                n_metrics_polls += 1
            except OSError:
                pass
            time.sleep(0.1)
        try:
            stdout, stderr = proc.communicate(timeout=120.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            print("FAIL: --status-port farm run hung")
            return 1

        if proc.returncode != 0:
            print(f"FAIL: --status-port farm run exited {proc.returncode}")
            sys.stdout.buffer.write(stdout + stderr)
            return 1
        if stderr:
            print(f"FAIL: farm run wrote {len(stderr)} bytes to stderr:")
            sys.stdout.buffer.write(stderr)
            return 1
        if not snapshots:
            print("FAIL: status endpoint never served a mid-run snapshot")
            return 1
        if not previews:
            print("FAIL: /preview never served a partially-complete frame mid-run")
            return 1
        if png is None or png[0] != "image/png" or png[1][:8] != b"\x89PNG\r\n\x1a\n":
            print("FAIL: /preview?fmt=png did not serve a valid PNG")
            return 1
        if metrics is None:
            print("FAIL: /metrics never answered mid-run")
            return 1
        exposition_problems = check_exposition(*metrics)
        if exposition_problems:
            print(f"FAIL: /metrics exposition invalid ({len(exposition_problems)}):")
            for p in exposition_problems[:10]:
                print(f"  - {p}")
            return 1
        metrics_text = metrics[1].decode("utf-8")
        for needle in (
            'repro_task_duration{quantile="0.5"}',
            'repro_task_duration{quantile="0.95"}',
            'repro_task_duration{quantile="0.99"}',
            "repro_worker_health{",
        ):
            if needle not in metrics_text:
                print(f"FAIL: /metrics exposition is missing {needle!r}")
                return 1
        events = read_events(run_dir)
        orphans = find_orphan_spans(events)
        if orphans:
            print(f"FAIL: {len(orphans)} orphan spans in the live-run trace")
            return 1
        last = snapshots[-1]
        best = max(previews, key=lambda p: p.get("coverage", 0.0))
        print("OK: live status endpoint served the run")
        print(
            f"  {len(snapshots)} mid-run snapshots; last: "
            f"{last.get('tasks_done', 0)} tasks, {last.get('n_events', 0)} events, "
            f"{len(last.get('workers', []))} workers"
        )
        print(
            f"  {len(previews)} partial /preview snapshots; peak: frame "
            f"{best.get('frame')} at {best.get('coverage', 0.0):.0%} coverage, "
            f"{best.get('frames_complete', 0)}/{LIVE_FRAMES} frames complete"
        )
        print(f"  /preview?fmt=png served {len(png[1])} bytes of valid PNG")
        print(
            f"  /metrics polled {n_metrics_polls}x mid-run; last exposition "
            f"{len(metrics[1])} bytes, valid, with task-latency quantiles"
        )
        print(f"  {len(events)} events on disk, 0 orphan spans, stderr clean")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--frames", type=int, default=4)
    ap.add_argument("--width", type=int, default=24)
    ap.add_argument("--height", type=int, default=18)
    args = ap.parse_args(argv)

    # Peak-allocation accounting for the master process: the zero-copy
    # data plane's whole point is that the kill drill (decode, reassembly,
    # compositing, verify) should not allocate frames it merely forwards.
    blackbox_tmp = tempfile.TemporaryDirectory(prefix="net_smoke_blackbox_")
    blackbox_dir = Path(blackbox_tmp.name)
    tracemalloc.start()
    result = render(
        RenderRequest(
            workload="newton",
            engine="farm",
            n_workers=2,
            schedule="adaptive",
            transport="tcp",
            # worker 0 dies *mid-task* on rendering its second frame, with
            # the task span still open — the flight-recorder drill.  The
            # master holds its first dispatch until both daemons have
            # joined (a plan that kills a worker asks for that), so the
            # victim gets a chain however the connect race went.
            fault_plan=FaultPlan([FaultPlan.kill_worker(0, 1, "frames")]),
            blackbox_dir=blackbox_dir,
            n_frames=args.frames,
            width=args.width,
            height=args.height,
            grid_resolution=12,
            verify=True,
            telemetry=True,
        )
    )
    _, peak_alloc = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    if result.recovery["crashes"] < 1 or result.recovery["retries"] < 1:
        print(f"FAIL: injected worker kill not recovered: {result.recovery}")
        return 1
    if result.bit_identical is not True:
        print("FAIL: recovered TCP farm output differs from the serial reference")
        return 1

    try:
        validate_events(result.events)
    except SchemaError as exc:
        print(f"FAIL: telemetry schema drift: {exc}")
        return 1
    names = {e["name"] for e in result.events}
    missing = REQUIRED_NET_EVENTS - names
    if missing:
        print(f"FAIL: net telemetry events missing: {sorted(missing)}")
        return 1
    if "recovery" not in names:
        print("FAIL: no recovery event emitted for the killed worker")
        return 1
    orphans = find_orphan_spans(result.events)
    if orphans:
        print(f"FAIL: {len(orphans)} orphan spans in the merged kill-drill trace")
        return 1
    if len({e.get("run") for e in result.events if e.get("run")}) != 1:
        print("FAIL: kill-drill events are not stamped with a single run id")
        return 1

    # -- black-box drill: the victim's last seconds must survive it ------------
    losses = [e for e in result.events if e["name"] == "net.worker.lost"]
    loss = next((e for e in losses if e["attrs"].get("blackbox")), None)
    if loss is None:
        print(f"FAIL: no net.worker.lost event points at a black box: "
              f"{[e['attrs'] for e in losses]}")
        return 1
    box_path = Path(loss["attrs"]["blackbox"])
    if not box_path.exists():
        print(f"FAIL: loss event points at missing black box {box_path}")
        return 1
    dump = read_blackbox(box_path)
    if len(dump) < 2 or dump[0].get("type") != "blackbox":
        print(f"FAIL: black box {box_path.name} unparseable or missing meta header")
        return 1
    if dump[0]["attrs"].get("reason") != "die-after-frames":
        print(f"FAIL: black box dumped for {dump[0]['attrs'].get('reason')!r}, "
              "expected 'die-after-frames'")
        return 1
    merged, n_added = stitch_blackbox(result.events, dump)
    stitch_orphans = find_orphan_spans(merged)
    if stitch_orphans:
        print(f"FAIL: {len(stitch_orphans)} orphan spans after stitching the black box")
        return 1
    open_tasks = [
        r for r in merged
        if r.get("type") == "span" and r.get("open") and r.get("name") == "task"
    ]
    if not open_tasks:
        print("FAIL: stitched trace is missing the victim's final open task span")
        return 1
    blackbox_tmp.cleanup()

    print("OK: loopback TCP farm recovered from an injected worker kill")
    print(f"  crashes={result.recovery['crashes']} retries={result.recovery['retries']}")
    print(f"  losses={[(e['attrs']['worker'], e['attrs']['reason']) for e in losses]}")
    print("  output bit-identical to serial reference; trace has 0 orphan spans")
    print(
        f"  black box {box_path.name}: {len(dump)} records, {n_added} stitched in, "
        f"{len(open_tasks)} open task span(s) recovered, 0 orphans after stitch"
    )
    print(f"  master peak allocation {peak_alloc / (1 << 20):.1f} MiB (tracemalloc)")

    return live_status_drill()


if __name__ == "__main__":
    sys.exit(main())
