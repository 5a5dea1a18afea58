"""Client half of the render service: submit, poll, wait, cancel.

Small synchronous RPCs over the same RNW1 framing the workers speak —
one connection per call, one ``JOB_*`` frame out, one ``JOB_STATUS``
frame back.  The service is the single writer of job state; these
helpers never hold state of their own, so a client crashing or retrying
is always safe.

These are what ``repro submit`` / ``repro jobs`` wrap, and they are
re-exported from :mod:`repro.api` as the programmatic surface::

    from repro.api import RenderRequest, submit, wait

    job = submit("127.0.0.1:7601", RenderRequest(workload="newton", n_frames=8))
    done = wait("127.0.0.1:7601", [job["job_id"]])

``submit`` takes the same :class:`~repro.api.RenderRequest` that
:func:`~repro.api.render` runs locally — one request type for both "run
it here" and "hand it to the daemon".
"""

from __future__ import annotations

import dataclasses
import socket
import time

from ..net import protocol as wire
from .daemon import IMPOSED, SPEC_FIELDS
from .job import TERMINAL_STATES

__all__ = ["ServiceError", "submit", "job_status", "list_jobs", "cancel", "wait"]


class ServiceError(RuntimeError):
    """The service answered ``ok: False`` (or not at all)."""


def _parse_addr(addr: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"service address wants HOST:PORT, got {addr!r}")
    return host, int(port)


def _rpc(addr: str, msg_type: int, payload: dict, timeout: float = 10.0) -> dict:
    host, port = _parse_addr(addr)
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.settimeout(timeout)
        wire.send_frame(sock, msg_type, payload)
        got = wire.recv_frame(sock)
    if got is None:
        raise ServiceError(f"service at {addr} closed the connection without replying")
    msg, reply = got
    if msg != wire.MSG_JOB_STATUS or not isinstance(reply, dict):
        raise ServiceError(
            f"unexpected reply {wire.MSG_NAMES.get(msg, msg)!r} from {addr}"
        )
    return reply


def _spec_from_request(request) -> dict:
    """Project a RenderRequest onto the wire-encodable job spec: the
    fields of the service's allow-list (``daemon.SPEC_FIELDS``; the request
    is duck-typed so this module never imports repro.api — api imports us).

    Fields left at their RenderRequest default are *not* sent: the
    service owns the defaults for anything the caller didn't touch
    (worker count, executor, transport come from the daemon's own
    configuration, not from the client's dataclass).  A field outside the
    allow-list must be at its default (or at the value the service
    imposes): a job is never accepted and then silently rendered without
    something its request asked for.
    """
    workload = getattr(request, "workload", None)
    if not isinstance(workload, str):
        raise TypeError(
            "submit() needs a workload *name* (the daemon rebuilds the scene "
            f"from its own recipe), not {type(workload).__name__}"
        )
    spec = {"workload": workload}
    ignored = []
    for f in dataclasses.fields(request):
        value = getattr(request, f.name)
        if f.name == "workload" or value is None or value == f.default:
            continue
        if f.name in SPEC_FIELDS:
            spec[f.name] = value
        elif IMPOSED.get(f.name) != value:
            ignored.append(f.name)
    if ignored:
        raise ServiceError(
            f"the render service does not honour {', '.join(sorted(ignored))}; "
            f"a job may set {', '.join(SPEC_FIELDS)}"
        )
    return spec


def submit(
    addr: str,
    request,
    *,
    priority: int = 0,
    owner: str = "",
    max_attempts: int = 3,
    timeout: float = 10.0,
) -> dict:
    """Submit a :class:`~repro.api.RenderRequest`; returns the admitted
    job's status dict.

    The same request object :func:`repro.api.render` executes locally is
    handed to the daemon (only the service-relevant fields travel; the
    service owns engine/schedule/telemetry).

    Raises :class:`ServiceError` when admission control rejects the job
    (queue full of higher-priority work) — an explicit refusal, never a
    silent drop.
    """
    if isinstance(request, dict):
        raise TypeError(
            "submit(addr, {...}) with a spec dict was removed; pass a "
            "repro.api.RenderRequest instead"
        )
    spec = _spec_from_request(request)
    reply = _rpc(
        addr,
        wire.MSG_JOB_SUBMIT,
        {
            "spec": spec,
            "priority": int(priority),
            "owner": str(owner),
            "max_attempts": int(max_attempts),
        },
        timeout=timeout,
    )
    if not reply.get("ok"):
        raise ServiceError(reply.get("error") or "submit failed")
    return reply["job"]


def job_status(addr: str, job_id: str, *, timeout: float = 10.0) -> dict:
    """One job's status dict; raises :class:`ServiceError` if unknown."""
    reply = _rpc(addr, wire.MSG_JOB_STATUS, {"job": job_id}, timeout=timeout)
    if not reply.get("ok"):
        raise ServiceError(reply.get("error") or f"no status for {job_id!r}")
    return reply["job"]


def list_jobs(addr: str, *, timeout: float = 10.0) -> dict:
    """The full service snapshot (``jobs`` list plus summary)."""
    reply = _rpc(addr, wire.MSG_JOB_STATUS, {}, timeout=timeout)
    if not reply.get("ok"):
        raise ServiceError(reply.get("error") or "status failed")
    return reply["service"]


def cancel(addr: str, job_id: str, *, timeout: float = 10.0) -> dict:
    """Cancel a queued job; raises :class:`ServiceError` otherwise."""
    reply = _rpc(addr, wire.MSG_JOB_CANCEL, {"job": job_id}, timeout=timeout)
    if not reply.get("ok"):
        raise ServiceError(reply.get("error") or f"cancel of {job_id!r} failed")
    return reply["job"]


def wait(
    addr: str,
    job_ids,
    *,
    timeout: float = 300.0,
    poll: float = 0.25,
) -> dict[str, dict]:
    """Block until every job reaches a terminal state; returns id -> status.

    Polls ``JOB_STATUS`` (the service stays single-writer); raises
    :class:`TimeoutError` with the stragglers listed when the deadline
    passes.  A service restart mid-wait is survived by construction —
    each poll is a fresh connection.
    """
    if isinstance(job_ids, str):
        job_ids = [job_ids]
    pending = {str(j) for j in job_ids}
    done: dict[str, dict] = {}
    deadline = time.monotonic() + timeout
    while pending:
        for job_id in sorted(pending):
            try:
                status = job_status(addr, job_id)
            except (OSError, ServiceError):
                continue  # service restarting, or job not replayed yet
            if status.get("state") in TERMINAL_STATES:
                done[job_id] = status
        pending -= set(done)
        if pending and time.monotonic() > deadline:
            raise TimeoutError(
                f"jobs still not terminal after {timeout}s: {sorted(pending)}"
            )
        if pending:
            time.sleep(poll)
    return done
