#!/usr/bin/env python
"""CI ratchet: ``src/`` may not grow past the committed ceilings.

ROADMAP tracks two metrics that should go down.  **Lines**: what
``find src -name '*.py' | xargs wc -l`` totals.  **Options**: the
independently settable values of the farm's configuration surface — the
fields of ``RenderRequest`` and ``FarmOptions`` plus the constructor
parameters of the two masters and the loopback transport (``**kwargs``
counts as one); every one of them is a configuration tests and benchmarks
are supposed to cover.  A PR that deletes code or a knob lowers the
ceiling to the new total, one that has to raise either says why in its
description.
"""

import inspect
import sys
from dataclasses import fields
from pathlib import Path

CEILING = 19545
OPTION_CEILING = 87

SRC = Path(__file__).resolve().parent.parent / "src"


def option_counts() -> dict[str, int]:
    sys.path.insert(0, str(SRC))
    from repro.api import RenderRequest
    from repro.net.master import MasterServer, TcpTransport
    from repro.runtime import FarmOptions, TaskSupervisor

    counts = {cls.__name__: len(fields(cls)) for cls in (RenderRequest, FarmOptions)}
    for cls in (TaskSupervisor, MasterServer, TcpTransport):
        counts[cls.__name__] = len(inspect.signature(cls.__init__).parameters) - 1  # self
    return counts


if __name__ == "__main__":
    total = sum(p.read_bytes().count(b"\n") for p in SRC.rglob("*.py"))
    print(f"src/**/*.py: {total} lines (ceiling {CEILING})")
    counts = option_counts()
    n_options = sum(counts.values())
    detail = " + ".join(f"{name} {n}" for name, n in counts.items())
    print(f"options: {n_options} = {detail} (ceiling {OPTION_CEILING})")
    sys.exit(total > CEILING or n_options > OPTION_CEILING)
