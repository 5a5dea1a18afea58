"""repro.net — the real TCP network-of-workstations transport.

The paper's farm ran PVM over shared Ethernet; this package is our
equivalent, built on nothing but the stdlib socket machinery and numpy:

* :mod:`~repro.net.protocol` — length-prefixed binary framing with
  optional per-array zlib tile compression (``float64`` framebuffers
  round-trip bit-identically);
* :mod:`~repro.net.master` — :class:`MasterServer` drives any
  :class:`~repro.sched.core.SchedulingPolicy` over worker connections
  (one lane per connection, heartbeats, per-assignment deadlines,
  loss -> ``on_worker_lost`` reassignment) and :class:`TcpTransport`
  packages the loopback form: a master plus workers forked from it;
* :mod:`~repro.net.worker` — the worker daemon, forked or run remotely as
  ``python -m repro.worker`` (reconnect with backoff, heartbeat responder
  thread, continuation cache reuse via the shared segment renderer);
* :mod:`~repro.net.tasks` — the name -> callable registry assignments
  dispatch through (code never crosses the wire).
"""

from .master import MasterServer, NetStats, TcpTransport
from .protocol import (
    MAGIC,
    PROTO_VERSION,
    FrameAssembler,
    ProtocolError,
    decode,
    encode,
    pack_frame,
    recv_frame,
    send_frame,
)
from .tasks import REGISTRY, spec_to_wire, task
from .worker import WorkerClient

__all__ = [
    "MAGIC",
    "MasterServer",
    "NetStats",
    "PROTO_VERSION",
    "FrameAssembler",
    "ProtocolError",
    "REGISTRY",
    "TcpTransport",
    "WorkerClient",
    "decode",
    "encode",
    "pack_frame",
    "recv_frame",
    "send_frame",
    "spec_to_wire",
    "task",
]
