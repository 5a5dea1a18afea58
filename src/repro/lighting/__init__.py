"""Light sources."""

from .lights import PointLight

__all__ = ["PointLight"]
