"""Correctness validation of the coherence algorithm (Figure 2 of the paper).

The paper's Figure 2 juxtaposes (a) the *actual* pixel differences between
two frames with (b) the differences *as computed by the frame coherence
algorithm*.  The algorithm's prediction must be a superset of the truth —
the rendered animation must be exact, "without compromising on image
content" — while staying as tight as possible (over-prediction is wasted
work).

:func:`validate_sequence` renders an animation both ways and checks, frame
by frame:

* **exactness** — the incremental framebuffer is bit-identical to a full
  re-render;
* **conservativeness** — every pixel whose color actually changed was in
  the predicted recompute set;

and reports the over-prediction ratio (predicted / actual), the quantity
Figure 2 visualizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..render import RayTracer
from ..scene import Animation
from .engine import CoherentRenderer, grid_for_animation

__all__ = ["FrameValidation", "ValidationReport", "validate_sequence", "diff_mask"]


def diff_mask(image_a: np.ndarray, image_b: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Boolean (H, W) mask of pixels that differ between two (H, W, 3) images."""
    a = np.asarray(image_a, dtype=np.float64)
    b = np.asarray(image_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("image shapes differ")
    return np.any(np.abs(a - b) > tol, axis=-1)


@dataclass
class FrameValidation:
    """Per-frame comparison of coherent vs full rendering."""

    frame: int
    exact: bool
    n_actual_changed: int
    n_predicted: int
    missed_pixels: np.ndarray  # actually-changed pixels NOT predicted (must be empty)
    max_error: float

    @property
    def conservative(self) -> bool:
        return self.missed_pixels.size == 0

    @property
    def overprediction(self) -> float:
        """predicted / actual (>= 1 when conservative; inf when actual == 0)."""
        if self.n_actual_changed == 0:
            return float("inf") if self.n_predicted else 1.0
        return self.n_predicted / self.n_actual_changed


@dataclass
class ValidationReport:
    frames: list[FrameValidation]

    @property
    def all_exact(self) -> bool:
        return all(f.exact for f in self.frames)

    @property
    def all_conservative(self) -> bool:
        return all(f.conservative for f in self.frames)

    def mean_overprediction(self) -> float:
        vals = [f.overprediction for f in self.frames if np.isfinite(f.overprediction)]
        return float(np.mean(vals)) if vals else 1.0


def validate_sequence(
    animation: Animation,
    grid_resolution: int | tuple[int, int, int] = 16,
    tol: float = 0.0,
) -> ValidationReport:
    """Render an animation coherently and fully; compare frame by frame.

    ``tol == 0`` demands bit-identical framebuffers, which the tracer's
    deterministic batching guarantees.
    """
    grid = grid_for_animation(animation, grid_resolution)
    coherent = CoherentRenderer(animation, grid=grid)

    results: list[FrameValidation] = []
    prev_full = None
    for f in range(animation.n_frames):
        report = coherent.render_next()
        scene = animation.scene_at(f)
        fb, _ = RayTracer(scene).render()
        full_img = fb.as_image()
        inc_img = coherent.frame_image()

        err = np.abs(full_img - inc_img)
        exact = bool(np.all(err <= tol))

        if prev_full is None:
            actual_changed = np.empty(0, dtype=np.int64)
        else:
            mask = diff_mask(prev_full, full_img, tol=tol)
            actual_changed = np.flatnonzero(mask.ravel())

        predicted = report.computed_pixels
        missed = np.setdiff1d(actual_changed, predicted, assume_unique=False)

        results.append(
            FrameValidation(
                frame=f,
                exact=exact,
                n_actual_changed=int(actual_changed.size),
                n_predicted=int(predicted.size) if f > 0 else 0,
                missed_pixels=missed if f > 0 else np.empty(0, dtype=np.int64),
                max_error=float(err.max()) if err.size else 0.0,
            )
        )
        prev_full = full_img
    return ValidationReport(results)
