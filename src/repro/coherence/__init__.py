"""Frame coherence: the paper's core contribution.

Voxel pixel-lists, inter-frame change detection, the incremental renderer
(one class; the paper's shadow-coherence extension is its
``shadow_coherence`` switch), checkpoints and the exactness/conservativeness
validator.
"""

from .change_detection import changed_voxels, objects_changed, scene_signature
from .checkpoint import load_checkpoint, save_checkpoint
from .engine import CoherentRenderer, FrameReport, grid_for_animation
from .validate import FrameValidation, ValidationReport, diff_mask, validate_sequence
from .voxel_pixel_map import VoxelPixelMap

__all__ = [
    "CoherentRenderer",
    "FrameReport",
    "FrameValidation",
    "ValidationReport",
    "VoxelPixelMap",
    "changed_voxels",
    "diff_mask",
    "grid_for_animation",
    "load_checkpoint",
    "objects_changed",
    "save_checkpoint",
    "scene_signature",
    "validate_sequence",
]
