"""Text timelines (Gantt charts) of simulated cluster runs.

Enable ``pvm.tracing = True`` before ``pvm.run()`` and feed the finished
virtual machine to :func:`render_timeline`:

::

    indigo2-200 |################# ##########################| 93% busy
    indigo2-100 |#######  ########################  #########| 87% busy
    indigo-100  |######## #######################  ##########| 86% busy
    ethernet    |  . .   .    .  .    . .   .  .    .  .     | 41 msgs

One character is one time bucket; ``#`` marks CPU-busy buckets, ``.``
marks buckets with wire traffic.  This is the picture behind the load-
balance claims of the paper's Section 3.
"""

from __future__ import annotations

import numpy as np

from .pvm import VirtualPVM

__all__ = ["render_timeline", "machine_busy_intervals", "gantt_lane"]


def machine_busy_intervals(pvm: VirtualPVM) -> dict[str, list[tuple[float, float]]]:
    """Per-machine CPU-busy intervals from a traced run."""
    out: dict[str, list[tuple[float, float]]] = {name: [] for name in pvm.machines}
    for ev in pvm.events:
        if ev[0] == "compute":
            _, machine, _task, start, end = ev
            out[machine].append((start, end))
    return out


def gantt_lane(
    intervals, horizon: float, width: int, shades=((0.66, "#"), (0.05, "+")), blank: str = " "
) -> str:
    """One text Gantt lane over ``[0, horizon)`` in ``width`` buckets.

    Each bucket shows the char of the first ``(threshold, char)`` in
    ``shades`` whose threshold its busy fraction exceeds, else ``blank``.
    """
    fill = np.zeros(width)
    scale = width / horizon if horizon > 0 else 0.0
    for start, end in intervals:
        a = max(0.0, start * scale)
        b = min(float(width), end * scale)
        for i in range(int(a), min(int(np.ceil(b)), width)):
            fill[i] += max(0.0, min(b, i + 1) - max(a, i))
    chars = np.full(width, blank)
    for threshold, char in reversed(shades):
        chars[fill > threshold] = char
    return "".join(chars)


def render_timeline(pvm: VirtualPVM, width: int = 64) -> str:
    """Render the traced run as a per-machine text Gantt chart."""
    if not pvm.events:
        raise ValueError(
            "no events recorded — set pvm.tracing = True before running"
        )
    if width < 8:
        raise ValueError("width must be >= 8")
    horizon = pvm.sim.now
    lines = [f"virtual time 0 .. {horizon:.2f}s ({width} buckets)"]
    name_w = max(len(n) for n in pvm.machines) if pvm.machines else 8

    busy = machine_busy_intervals(pvm)
    for name in pvm.machines:
        lane = gantt_lane(busy[name], horizon, width)
        pct = sum(e - s for s, e in busy[name]) / horizon if horizon else 0.0
        lines.append(f"{name:>{name_w}s} |{lane}| {pct:4.0%} busy")

    wire = [(ev[5], ev[6]) for ev in pvm.events if ev[0] == "send"]
    lane = gantt_lane(wire, horizon, width, shades=((0.66, "#"), (0.01, ".")))
    lines.append(f"{'ethernet':>{name_w}s} |{lane}| {len(wire)} msgs")
    return "\n".join(lines)
