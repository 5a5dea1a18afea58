"""Checkpoint/restore for coherent render state.

A long animation render on a farm should survive interruption without
paying the full-frame chain restart the paper's adaptive subdivision pays:
the coherence state (framebuffer + both voxel pixel lists + position in
the sequence, plus the shadow cache when shadow coherence is on) is exactly
serializable.  Restoring a checkpoint continues the chain bit-exactly —
verified by tests against an uninterrupted run.

The animation itself is *not* serialized (scenes hold closures); the
caller re-supplies it, the same way the paper's PVM slaves re-parsed the
scene description.  The grid geometry is stored and validated on restore
so voxel ids keep their meaning.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..accel import UniformGrid
from ..durable import atomic_write
from ..rmath import AABB
from ..scene import Animation
from .engine import CoherentRenderer
from .voxel_pixel_map import VoxelPixelMap

__all__ = ["save_checkpoint", "load_checkpoint"]

_MAPS = ("primary", "secondary")

#: 2: the pixel map as its per-pixel CSR state; 3: no sample count (one per
#: pixel); 4: the primary and secondary maps, the shadow-coherence flag and,
#: with it on, the shadow cache's attenuations.
_FORMAT_VERSION = 4


def save_checkpoint(renderer: CoherentRenderer, path: str | Path) -> None:
    """Serialize a renderer's sequence state to an ``.npz`` file, atomically:
    a save that fails part-way leaves the previous checkpoint in place."""
    prev_frame = renderer._next_frame - 1 if renderer._prev_scene is not None else -1
    cache = renderer.shadow_cache
    maps = {f"{m}_{k}": a for m in _MAPS for k, a in getattr(renderer, m).state().items()}
    arrays = dict(
        version=_FORMAT_VERSION,
        width=renderer.width,
        height=renderer.height,
        region=renderer.region,
        first_frame=renderer.first_frame,
        last_frame=renderer.last_frame,
        next_frame=renderer._next_frame,
        prev_frame=prev_frame,
        framebuffer=renderer.framebuffer.data,
        **maps,
        shadow_coherence=cache is not None,
        **({"shadow_atten": cache.atten} if cache is not None else {}),
        grid_lo=renderer.grid.bounds.lo,
        grid_hi=renderer.grid.bounds.hi,
        grid_res=renderer.grid.res,
    )
    path = str(path) if str(path).endswith(".npz") else f"{path}.npz"  # np.savez's rule
    atomic_write(path, lambda fh: np.savez_compressed(fh, **arrays))


def load_checkpoint(
    animation: Animation, path: str | Path, chunk_size: int = 32768
) -> CoherentRenderer:
    """Rebuild a :class:`CoherentRenderer` mid-sequence from a checkpoint.

    ``animation`` must be the same animation the checkpoint was taken from
    (same resolution and same per-frame scenes); resolution and grid
    geometry are validated, scene content is trusted — exactly the contract
    of shipping a scene description to a render node.
    """
    with np.load(path) as z:
        if int(z["version"]) != _FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {int(z['version'])}")
        width, height = int(z["width"]), int(z["height"])
        cam = animation.camera_at(int(z["first_frame"]))
        if (cam.width, cam.height) != (width, height):
            raise ValueError(
                f"animation resolution {cam.width}x{cam.height} does not match "
                f"checkpoint {width}x{height}"
            )
        grid = UniformGrid(AABB(z["grid_lo"], z["grid_hi"]), tuple(int(r) for r in z["grid_res"]))
        renderer = CoherentRenderer(
            animation,
            region=z["region"],
            grid=grid,
            chunk_size=chunk_size,
            first_frame=int(z["first_frame"]),
            last_frame=int(z["last_frame"]),
            shadow_coherence=bool(z["shadow_coherence"]),
        )
        renderer.framebuffer.data[:] = z["framebuffer"]
        for m in _MAPS:
            state = z[f"{m}_voxels"], z[f"{m}_counts"]
            setattr(renderer, m, VoxelPixelMap.from_state(grid.n_voxels, *state))
        if renderer.shadow_cache is not None:
            renderer.shadow_cache.atten[:] = z["shadow_atten"]
        renderer._next_frame = int(z["next_frame"])
        prev_frame = int(z["prev_frame"])
        renderer._prev_scene = animation.scene_at(prev_frame) if prev_frame >= 0 else None
    return renderer
