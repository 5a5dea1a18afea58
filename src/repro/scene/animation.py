"""Animation: a sequence of scenes with object identity across frames.

The coherence engine needs two things from an animation:

1. ``scene_at(frame)`` — a full scene for any frame, with primitives that
   keep their ``prim_id`` across frames so motion can be attributed to
   objects.
2. The *stationary camera* property within a coherent sequence.  The paper's
   algorithm "works only for sequences in which the camera is stationary, any
   camera movement logically separates one sequence from another";
   :func:`split_coherent_sequences` implements exactly that segmentation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Mapping

from ..geometry import Primitive
from ..rmath import Transform
from .camera import Camera
from .scene import Scene

__all__ = ["Animation", "FunctionAnimation", "StaticAnimation", "split_coherent_sequences"]


class Animation(ABC):
    """A finite sequence of frames over a scene."""

    def __init__(self, n_frames: int):
        if n_frames < 1:
            raise ValueError("animation needs at least one frame")
        self.n_frames = int(n_frames)

    @abstractmethod
    def scene_at(self, frame: int) -> Scene:
        """The scene for ``frame`` (0-based)."""

    def _check_frame(self, frame: int) -> int:
        frame = int(frame)
        if not (0 <= frame < self.n_frames):
            raise IndexError(f"frame {frame} out of range [0, {self.n_frames})")
        return frame

    def camera_at(self, frame: int) -> Camera:
        return self.scene_at(frame).camera

    def frames(self):
        """Iterate ``(frame_index, scene)`` pairs."""
        for f in range(self.n_frames):
            yield f, self.scene_at(f)


class StaticAnimation(Animation):
    """The same scene for every frame (useful as a control in benchmarks)."""

    def __init__(self, scene: Scene, n_frames: int):
        super().__init__(n_frames)
        self._scene = scene

    def scene_at(self, frame: int) -> Scene:
        self._check_frame(frame)
        return self._scene


class FunctionAnimation(Animation):
    """A base scene animated by per-object motion functions.

    Parameters
    ----------
    base_scene:
        Scene at rest.  Objects referenced by the motions must be in it.
    n_frames:
        Sequence length.
    motions:
        Maps an object's *name* to ``frame -> Transform``; the returned
        transform is applied **after** the object's rest placement (i.e. it
        moves the already-placed object in world space).  Objects without a
        motion entry are static.
    camera_fn:
        Optional ``frame -> Camera``.  When provided the camera may move,
        which breaks frame coherence at the frames where it changes (see
        :func:`split_coherent_sequences`).
    """

    def __init__(
        self,
        base_scene: Scene,
        n_frames: int,
        motions: Mapping[str, Callable[[int], Transform]] | None = None,
        camera_fn: Callable[[int], Camera] | None = None,
    ):
        super().__init__(n_frames)
        self.base_scene = base_scene
        self.motions = dict(motions or {})
        self.camera_fn = camera_fn
        names = {o.name for o in base_scene.objects}
        missing = set(self.motions) - names
        if missing:
            raise KeyError(f"motions reference unknown objects: {sorted(missing)}")
        self._scenes: dict[int, Scene] = {}

    def scene_at(self, frame: int) -> Scene:
        """The scene for ``frame``, built once: every call returns the same
        object, which is what change sets are keyed by."""
        frame = self._check_frame(frame)
        scene = self._scenes.get(frame)
        if scene is None:
            scene = self._scenes.setdefault(frame, self._build_scene(frame))
        return scene

    def camera_at(self, frame: int) -> Camera:
        """The camera of ``frame``, without building the frame's scene."""
        frame = self._check_frame(frame)
        return self.base_scene.camera if self.camera_fn is None else self.camera_fn(frame)

    def _build_scene(self, frame: int) -> Scene:
        objects: list[Primitive] = []
        for obj in self.base_scene.objects:
            fn = self.motions.get(obj.name)
            objects.append(obj if fn is None else obj.moved_by(fn(frame)))
        scene = self.base_scene.replaced_objects(objects)
        if self.camera_fn is not None:
            scene.camera = self.camera_fn(frame)
        return scene


def split_coherent_sequences(animation: Animation) -> list[tuple[int, int]]:
    """Split an animation into maximal stationary-camera runs.

    Returns half-open frame ranges ``[(start, stop), ...]`` covering the
    animation.  Within each range the camera shoots bit-identical rays
    (:meth:`Camera.same_rays`), so the frame coherence algorithm applies;
    camera cuts start a new range, exactly as the paper prescribes.
    """
    ranges: list[tuple[int, int]] = []
    start = 0
    prev_cam = animation.camera_at(0)
    for f in range(1, animation.n_frames):
        cam = animation.camera_at(f)
        if not cam.same_rays(prev_cam):
            ranges.append((start, f))
            start = f
        prev_cam = cam
    ranges.append((start, animation.n_frames))
    return ranges
