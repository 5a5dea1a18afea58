"""Scene layer: camera, scene container and animation."""

from .animation import Animation, FunctionAnimation, StaticAnimation, split_coherent_sequences
from .camera import Camera
from .scene import Scene

__all__ = [
    "Animation",
    "Camera",
    "FunctionAnimation",
    "Scene",
    "StaticAnimation",
    "split_coherent_sequences",
]
