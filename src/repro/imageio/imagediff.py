"""Image differencing utilities (Figure 2).

Figure 2(a) is "actual pixel differences between frames"; Figure 2(b) is
"pixel differences as computed by the frame coherence algorithm" — a
binary mask image in both cases (white = changed / recompute).  These
helpers build those mask images from framebuffers and pixel sets.
"""

from __future__ import annotations

import numpy as np

__all__ = ["diff_mask", "difference_mask_image", "pixel_set_image", "mask_stats"]


def diff_mask(image_a: np.ndarray, image_b: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Boolean ``(H, W)`` mask of pixels that differ by more than ``tol``
    in some channel between two ``(H, W, 3)`` images."""
    a = np.asarray(image_a, dtype=np.float64)
    b = np.asarray(image_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("image shapes differ")
    return np.any(np.abs(a - b) > tol, axis=-1)


def difference_mask_image(image_a: np.ndarray, image_b: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """White-on-black ``(H, W)`` uint8 mask of pixels that differ."""
    return np.where(diff_mask(image_a, image_b, tol), np.uint8(255), np.uint8(0))


def pixel_set_image(pixel_ids: np.ndarray, width: int, height: int) -> np.ndarray:
    """White-on-black ``(H, W)`` uint8 mask of a flat pixel-index set."""
    mask = np.zeros(width * height, dtype=np.uint8)
    ids = np.asarray(pixel_ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= mask.size):
        raise IndexError("pixel index out of range")
    mask[ids] = 255
    return mask.reshape(height, width)


def mask_stats(actual: np.ndarray, predicted: np.ndarray) -> dict[str, float]:
    """Coverage statistics of a predicted mask vs the actual mask.

    Both are (H, W) uint8/bool.  ``missed`` must be 0 for a conservative
    predictor; ``overprediction`` is predicted/actual pixel-count ratio.
    """
    a = np.asarray(actual).astype(bool)
    p = np.asarray(predicted).astype(bool)
    if a.shape != p.shape:
        raise ValueError("mask shapes differ")
    n_actual = int(a.sum())
    n_pred = int(p.sum())
    missed = int((a & ~p).sum())
    return {
        "actual": n_actual,
        "predicted": n_pred,
        "missed": missed,
        "overprediction": (n_pred / n_actual) if n_actual else float("inf") if n_pred else 1.0,
        "fraction_of_frame": n_pred / a.size,
    }
