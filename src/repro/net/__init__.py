"""repro.net — the real TCP network-of-workstations transport.

The paper's farm ran PVM over shared Ethernet; this package is our
equivalent, built on nothing but the stdlib socket machinery and numpy:

* :mod:`~repro.net.protocol` — length-prefixed binary framing with
  optional per-array zlib tile compression (``float64`` framebuffers
  round-trip bit-identically);
* :mod:`~repro.net.core` — :class:`~repro.net.core.WireCore`, the
  master's wire rules without I/O (one lane per connection, heartbeats,
  tiles, salvage, the :class:`~repro.sched.master.MasterCore`'s dispatch);
* :mod:`~repro.net.master` — :class:`MasterServer`, its socket shell, and
  :class:`TcpTransport`, the loopback form: a master plus workers forked
  from it;
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
