"""Image I/O: Targa (the paper's format), PPM and mask/diff helpers."""

from .imagediff import diff_mask, difference_mask_image, mask_stats, pixel_set_image
from .ppm import read_ppm, write_ppm
from .targa import read_targa, targa_nbytes, write_targa

__all__ = [
    "diff_mask",
    "difference_mask_image",
    "mask_stats",
    "pixel_set_image",
    "read_ppm",
    "read_targa",
    "targa_nbytes",
    "write_ppm",
    "write_targa",
]
