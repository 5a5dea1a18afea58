"""The loopback crew is forked from the master: what a child must not inherit.

:class:`~repro.net.master.TcpTransport` forks its worker daemons instead of
exec'ing fresh interpreters, so every piece of process-global state the
master owns reaches them.  Each module that owns such state resets it in
an ``os.register_at_fork`` hook.  Each test here fails without the piece
it names:

* ``obs.flight`` hook — the master's recorders, tap, SIGTERM handler, excepthook;
* ``runtime.local`` hook — the segment cache and both cache locks;
* ``buffers`` — pool custody is ``MADV_DONTFORK``, and a stack handed to
  the caller is forkable again;
* ``net.master`` — a loopback lane is told to send raw arrays, any other
  lane to compress them.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import threading

import numpy as np
import pytest

from repro.net import master as master_mod
from repro.net import protocol as wire
from repro.net.master import MasterServer, TcpTransport
from repro.runtime import AnimationSpec, FarmOptions, LocalRenderFarm
from repro.sched import make_policy
from repro.telemetry import InMemorySink, Telemetry

pytestmark = pytest.mark.usefixtures("no_leaks")


def test_sigterm_forked_daemon_dumps_its_own_black_box_only(tmp_path):
    """A forked daemon that is SIGTERM'd dumps ``blackbox_worker_<its pid>``
    and nothing else: the master's recorder (installed here, with its
    SIGTERM handler) is not the child's to fire."""
    policy = make_policy("frame-division-nofc", 1, n_regions=1)
    transport = TcpTransport(
        policy, "echo", lambda a, lane: a.seq, FarmOptions(n_workers=1, blackbox_dir=tmp_path)
    )
    master = transport.master
    _host, port = master.listen()
    proc = transport._spawn(port, 0)
    try:
        sock, _addr = master._listener.accept()
        with sock:
            # The daemon arms its recorder before it dials, so a HELLO
            # means its SIGTERM handler is in place.
            assert wire.recv_frame(sock)[0] == wire.MSG_HELLO
            os.kill(proc.pid, signal.SIGTERM)
            proc.join(timeout=30.0)
    finally:
        master.recorder.uninstall()
        master._listener.close()
        if proc.is_alive():
            proc.kill()
            proc.join()
    assert proc.exitcode == 128 + signal.SIGTERM
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"blackbox_worker_{proc.pid}.jsonl"]


def test_crew_forked_while_a_thread_holds_the_worker_cache_lock(monkeypatch):
    """Forking while another thread holds ``_WORKER_CACHE_LOCK`` must not
    hand the children a lock nobody will ever release."""
    from repro.runtime import local

    spawn = TcpTransport._spawn

    def spawn_while_held(self, port, index):
        held, done = threading.Event(), threading.Event()

        def holder():
            with local._WORKER_CACHE_LOCK:
                held.set()
                done.wait(30.0)

        thread = threading.Thread(target=holder)
        thread.start()
        assert held.wait(30.0)
        try:
            return spawn(self, port, index)
        finally:
            done.set()
            thread.join(timeout=30.0)
            assert not thread.is_alive()

    monkeypatch.setattr(TcpTransport, "_spawn", spawn_while_held)
    spec = AnimationSpec.newton(n_frames=2, width=16, height=12)
    # Without the hook a child deadlocks on its first task: the deadline
    # loses it, and one attempt per unit turns that into a loud failure.
    out = LocalRenderFarm(
        spec, n_workers=2, schedule="adaptive", transport="tcp", grid_resolution=8,
        max_attempts=1, task_timeout=20.0,
    ).render()
    reference = LocalRenderFarm(spec, executor="serial", grid_resolution=8).render_reference()
    assert out.frames.tobytes() == reference.frames.tobytes()


def test_forked_child_reads_the_frames_a_tcp_render_handed_over():
    """The stack ``take_frames`` hands over leaves pool custody, so a
    process the caller forks can read it (a DONTFORK page would not be
    mapped in the child)."""
    from repro import api

    result = api.render(
        workload=AnimationSpec.newton(n_frames=2, width=16, height=12),
        engine="farm", transport="tcp", n_workers=1, grid_resolution=8,
    )
    expected = hashlib.sha256(np.asarray(result.frames).tobytes()).hexdigest()
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)

    def checksum():
        sender.send(hashlib.sha256(np.asarray(result.frames).tobytes()).hexdigest())

    proc = ctx.Process(target=checksum)
    proc.start()
    proc.join(timeout=30.0)
    try:
        assert proc.exitcode == 0
        assert receiver.recv() == expected
    finally:
        receiver.close()
        sender.close()
        result.frames.release()


@pytest.mark.parametrize("loopback", [True, False], ids=["loopback", "remote"])
def test_welcome_asks_only_a_remote_worker_to_compress(monkeypatch, loopback):
    """A loopback lane is told ``compress: False`` and its tiles arrive
    raw (at least 32x32 float64 pixels each); a lane the predicate calls
    remote keeps compression.  ``net.result`` reports the lane's value."""
    welcomes = []
    send = MasterServer._send

    def spy(self, conn, msg_type, obj):
        if msg_type == wire.MSG_WELCOME:
            welcomes.append(obj["compress"])
        return send(self, conn, msg_type, obj)

    monkeypatch.setattr(MasterServer, "_send", spy)
    if not loopback:
        monkeypatch.setattr(master_mod, "_loopback", lambda peer: False)
    sink = InMemorySink()
    tel = Telemetry(sinks=(sink,))
    LocalRenderFarm(
        AnimationSpec.newton(n_frames=2, width=64, height=32),
        n_workers=2, schedule="adaptive", transport="tcp", grid_resolution=8, telemetry=tel,
    ).render()
    tel.close()
    assert welcomes and set(welcomes) == {not loopback}
    results = {e["attrs"]["compressed"] for e in sink.events if e["name"] == "net.result"}
    assert results == {not loopback}
    tiles = [e["attrs"]["nbytes"] for e in sink.events if e["name"] == "dfb.tile"]
    assert len(tiles) == 2 * 2  # two 32x32 tiles per frame
    if loopback:
        assert all(n >= 32 * 32 * 3 * 8 for n in tiles)
