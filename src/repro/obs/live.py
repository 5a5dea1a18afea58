"""The live surface: a status endpoint on the master, a `top` for the farm.

:class:`StatusServer` wraps stdlib ``http.server`` in a daemon thread and
serves ``GET /status`` (also ``/``) as a read-only JSON snapshot of a
:class:`~repro.telemetry.RunFold`.  It binds before the run starts and
answers throughout, fed by the fold's cached snapshot — a slow or absent
poller never touches the master's event loop.

:func:`fetch_status` / :func:`render_status` are the client half:
``repro top host:port`` polls the endpoint and redraws a terminal view
(jbadson/render_controller's farm-watching loop, reduced to stdlib).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

__all__ = ["StatusServer", "fetch_status", "render_status", "render_jobs"]


class StatusServer:
    """Read-only JSON status endpoint over a ledger (daemon thread).

    ``ledger`` is anything with a ``snapshot() -> dict`` (a
    :class:`~repro.telemetry.RunFold`, or the render service itself);
    it backs ``/`` and ``/status``.  Extra ``routes`` map a path to
    another zero-arg snapshot callable — the render service mounts its
    job table at ``/jobs`` this way.  A route whose callable sets
    ``takes_query = True`` receives the parsed query string (a flat
    ``{key: value}`` dict) instead — the distributed framebuffer mounts
    its ``/preview`` endpoint that way so pollers can pick a frame and
    format.  Responses are JSON unless the callable returns
    ``(bytes, content_type)``, which is served raw (``/preview?fmt=png``
    streams an actual image); error responses stay JSON so a poller
    never has to parse stdlib HTML error pages.
    """

    def __init__(self, ledger, host: str = "127.0.0.1", port: int = 0, routes=None):
        self.ledger = ledger
        self.host = host
        self.port = int(port)
        self.routes = {"/": ledger.snapshot, "/status": ledger.snapshot}
        if routes:
            self.routes.update(routes)
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> int:
        """Bind and serve in the background; returns the bound port."""
        routes = self.routes

        class Handler(BaseHTTPRequestHandler):
            def _reply(self, code: int, payload, content_type: str = "application/json"):
                body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):  # noqa: N802 (http.server API)
                path, _, query_str = self.path.partition("?")
                snapshot = routes.get(path)
                if snapshot is None:
                    self._reply(
                        404,
                        {
                            "error": f"unknown path {path!r}",
                            "paths": sorted(routes),
                        },
                    )
                    return
                if getattr(snapshot, "takes_query", False):
                    query = {
                        k: vs[-1]
                        for k, vs in urllib.parse.parse_qs(query_str).items()
                    }
                    out = snapshot(query)
                else:
                    out = snapshot()
                if isinstance(out, tuple):
                    body, content_type = out
                    self._reply(200, body, content_type)
                else:
                    self._reply(200, out)

            def log_message(self, *args):  # keep the master's stderr clean
                pass

        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-status", daemon=True
        )
        self._thread.start()
        return self.port

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def __enter__(self) -> "StatusServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def fetch_status(
    addr: str,
    timeout: float = 2.0,
    path: str = "/status",
    retries: int = 3,
    retry_delay: float = 0.1,
) -> dict:
    """GET a snapshot from ``host:port`` (or a full http URL).

    ``path`` picks the endpoint — ``/status`` for the farm view,
    ``/jobs`` for the render service's job table.

    A connection-refused is retried ``retries`` times with a short
    doubling delay: pollers (``repro top``, the smoke drills) race daemon
    startup, and the socket existing a beat later is the common case.
    Anything else — timeouts, HTTP errors, bad JSON — raises immediately.
    """
    url = addr if addr.startswith("http") else f"http://{addr}{path}"
    delay = retry_delay
    for attempt in range(int(retries) + 1):
        try:
            with urllib.request.urlopen(url, timeout=timeout) as resp:  # noqa: S310
                return json.loads(resp.read().decode())
        except urllib.error.URLError as exc:
            refused = isinstance(exc.reason, ConnectionRefusedError)
            if not refused or attempt >= retries:
                raise
            time.sleep(delay)
            delay *= 2


def _age_str(age) -> str:
    if age is None:
        return "-"
    return f"{age:.1f}s"


def render_status(snap: dict) -> str:
    """One terminal frame of the `repro top` view."""
    n_frames = int(snap.get("n_frames", 0) or 0)
    frames_done = int(snap.get("frames_done", 0))
    pct = (100.0 * frames_done / n_frames) if n_frames else 0.0
    state = "done" if snap.get("done") else "running"
    eta = snap.get("eta_seconds")
    lines = [
        f"repro farm — run {snap.get('run') or '?'} [{state}]",
        f"  {snap.get('workload') or '?'} · mode {snap.get('mode') or '?'} · "
        f"{frames_done}/{n_frames} frames ({pct:.0f}%) · "
        f"{snap.get('tasks_done', 0)} tasks · {snap.get('tasks_per_sec', 0.0)} tasks/s"
        + (f" · ETA {eta:.0f}s" if isinstance(eta, (int, float)) else ""),
        f"  elapsed {snap.get('elapsed', 0.0)}s · events {snap.get('n_events', 0)}",
    ]
    tiles_done = int(snap.get("tiles_done", 0) or 0)
    if tiles_done:
        tile_kb = float(snap.get("tile_bytes", 0) or 0) / 1024.0
        salvaged = int(snap.get("frames_salvaged", 0) or 0)
        lines.append(
            f"  tiles {tiles_done} · {tile_kb:.1f} KiB streamed"
            + (f" · {salvaged} frames salvaged" if salvaged else "")
        )
    n_shards = int(snap.get("n_shards", 0) or 0)
    if n_shards:
        shard_kb = float(snap.get("shard_bytes", 0) or 0) / 1024.0
        lines.append(f"  object-space: {n_shards} shards · {shard_kb:.1f} KiB rays traded")
        for w in snap.get("workers", []):
            shards = w.get("shards") or []
            if not shards and not w.get("rays_received"):
                continue
            owned = ",".join(str(s) for s in shards) or "-"
            lines.append(
                f"    {w['worker']:<14} shards [{owned}] · "
                f"rays recv {w.get('rays_received', 0)} · "
                f"fwd {w.get('rays_forwarded', 0)} · "
                f"local {w.get('rays_local', 0)}"
            )
    lines += [
        "",
        f"  {'worker':<14} {'host':<12} {'health':<10} {'done':>5} {'busy s':>8} "
        f"{'rtt ms':>7} {'hb age':>7}  in flight",
    ]
    in_flight = {a["worker"]: a for a in snap.get("in_flight", [])}
    for w in snap.get("workers", []):
        rtt = w.get("rtt")
        rtt_str = f"{rtt * 1e3:.1f}" if rtt is not None else "-"
        a = in_flight.get(w["worker"])
        flight = (
            f"seq {a['seq']} frames [{a['frame0']},{a['frame1']}) {_age_str(a.get('age'))}"
            if a
            else "idle"
        )
        health = str(w.get("health") or "ok")
        lines.append(
            f"  {w['worker']:<14} {w.get('host') or '-':<12} {health:<10} "
            f"{w.get('n_done', 0):>5} {w.get('busy', 0.0):>8.2f} {rtt_str:>7} "
            f"{_age_str(w.get('heartbeat_age')):>7}  {flight}"
        )
    attempts = snap.get("attempts") or {}
    if attempts:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(attempts.items()))
        lines.append(f"\n  attempts: {parts}")
    losses = snap.get("losses") or []
    for loss in losses:
        lines.append(f"  lost: {loss['worker']} ({loss['reason']})")
    return "\n".join(lines)


def render_jobs(snap: dict) -> str:
    """One terminal frame of the `repro top --jobs` view (the render
    service's ``/jobs`` snapshot)."""
    states = snap.get("states") or {}
    summary = ", ".join(f"{k}={v}" for k, v in sorted(states.items())) or "no jobs"
    lines = [
        "repro service — jobs [" + summary + "]",
        f"  {'job':<7} {'state':<12} {'prio':>4} {'att':>3} {'tasks':>9} "
        f"{'owner':<10} detail",
    ]
    for job in snap.get("jobs", []):
        tasks = f"{job.get('tasks_done', 0)}/{job.get('n_tasks', 0) or '?'}"
        lines.append(
            f"  {job.get('job_id', '?'):<7} {job.get('state', '?'):<12} "
            f"{job.get('priority', 0):>4} {job.get('n_attempts', 0):>3} "
            f"{tasks:>9} {(job.get('owner') or '-'):<10} "
            f"{job.get('detail', '')}"
        )
    return "\n".join(lines)
