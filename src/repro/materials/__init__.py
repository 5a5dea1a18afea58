"""Materials: POV-style pigments (textures) and finishes."""

from .material import Finish, Material
from .texture import Brick, Checker, SolidColor, Texture

__all__ = [
    "Brick",
    "Checker",
    "Finish",
    "Material",
    "SolidColor",
    "Texture",
]
