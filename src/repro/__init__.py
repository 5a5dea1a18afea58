"""repro — Rendering Computer Animations on a Network of Workstations.

A from-scratch reproduction of Davis & Davis (IPPS 1998): a frame-coherent
ray tracer (the paper's extension of POV-Ray 3.0) combined with distributed
rendering on a (simulated) network of workstations coordinated by a
PVM-style master/slave protocol.

Layered public API:

* :mod:`repro.rmath` — batched vector math, AABBs, transforms.
* :mod:`repro.geometry` — ray batches and vectorized primitives.
* :mod:`repro.materials` / :mod:`repro.lighting` — POV-style shading inputs.
* :mod:`repro.scene` — camera, scene, animation.
* :mod:`repro.accel` — uniform voxel grid + 3-D DDA traversal.
* :mod:`repro.render` — the wavefront Whitted tracer.
* :mod:`repro.coherence` — the paper's frame-coherence algorithm.
* :mod:`repro.cluster` — discrete-event NOW simulator with a PVM-like API.
* :mod:`repro.parallel` — partitioning schemes, measured cost oracle, run outcome.
* :mod:`repro.sched` — scheduling policies, the strategy table and ``simulate()``.
* :mod:`repro.runtime` — real multiprocessing master/worker execution.
* :mod:`repro.imageio` — Targa/PPM output and Figure-2 diff masks.
* :mod:`repro.scenes` — the Newton and brick-room workloads.
* :mod:`repro.bench` — Table-1 regeneration harness.

* :mod:`repro.telemetry` — structured tracing/metrics spine shared by all
  engines.
* :mod:`repro.api` — the unified :func:`~repro.api.render` facade.

Quickstart (the unified API — same call drives the single-process engine,
the real farm, and the Table-1 simulator)::

    from repro.api import RenderRequest, render
    from repro.imageio import write_targa

    result = render(RenderRequest(workload="newton", n_frames=10,
                                  engine="animation", telemetry=True))
    for f in range(result.n_frames):
        write_targa(f"newton{f:03d}.tga", result.frames[f])
    print(result.stats.total, "rays,", len(result.events), "telemetry events")
"""

from .api import RenderRequest, RenderResult, render
from .coherence import CoherentRenderer, validate_sequence
from .geometry import Box, Cylinder, Plane, RayBatch, RayKind, Sphere
from .lighting import PointLight
from .materials import Brick, Checker, Finish, Material, SolidColor
from .render import Framebuffer, RayStats, RayTracer
from .rmath import AABB, Transform, vec3
from .scene import (
    Animation,
    Camera,
    FunctionAnimation,
    Scene,
    StaticAnimation,
    split_coherent_sequences,
)

__version__ = "1.0.0"

__all__ = [
    "AABB",
    "Animation",
    "Box",
    "Brick",
    "Camera",
    "Checker",
    "CoherentRenderer",
    "Cylinder",
    "Finish",
    "Framebuffer",
    "FunctionAnimation",
    "Material",
    "Plane",
    "PointLight",
    "RayBatch",
    "RayKind",
    "RayStats",
    "RayTracer",
    "RenderRequest",
    "RenderResult",
    "render",
    "Scene",
    "SolidColor",
    "Sphere",
    "StaticAnimation",
    "Transform",
    "split_coherent_sequences",
    "validate_sequence",
    "vec3",
    "__version__",
]
