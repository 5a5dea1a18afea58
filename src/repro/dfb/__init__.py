"""``repro.dfb`` — the distributed framebuffer.

The paper's farm ships each sub-area back as one monolithic RESULT, so
the first pixel lands only when the *last* pixel of a segment is done and
result frames dominate the wire.  "Scalable Ray Tracing Using the
Distributed FrameBuffer" points the way out: workers stream fixed-size
**tiles** as they finish and the master composites them incrementally.

This module is the transport-agnostic half of that design:

* :func:`tile_rects` — the one deterministic tiling both sides share, so
  a worker's tile boundaries always match the master's bookkeeping.
* :class:`FrameBuffer` — one frame's compositor: pixels + coverage mask,
  idempotent under duplicate tiles.
* :class:`FrameAssembler` — the per-run compositor the master folds every
  tile *and* every whole-segment result into.  Completion is tracked per
  pixel, so when a worker dies mid-segment the scheduler re-renders only
  the frames that are actually missing (see
  ``SchedulingPolicy.on_partial_result``), and ``covered_tiles`` tells
  the replacement worker which tiles it can skip outright.
* :class:`PreviewHub` — the live window: a StatusServer route serving the
  partially-composited frame as JSON metadata, PNG, or npz.

Everything here is pure numpy + stdlib and fully thread-safe: the
master's event loop writes while the preview HTTP thread reads.
"""

from __future__ import annotations

import io
import threading
from dataclasses import dataclass, field

import numpy as np

from ..buffers import BufferPool, default_pool
from .png import encode_png

__all__ = [
    "tile_rects",
    "FrameBuffer",
    "FrameAssembler",
    "PreviewHub",
    "TileEvent",
    "FrameEvent",
    "encode_png",
]

#: Default tile edge in pixels.  32x32x3 float64 = 24 KB raw — small
#: enough that a tile frame is within an order of magnitude of a
#: heartbeat, large enough that framing overhead stays negligible.
DEFAULT_TILE_PX = 32


@dataclass(frozen=True)
class TileEvent:
    """One composited tile, as delivered to ``on_tile`` callbacks."""

    frame: int
    x0: int
    y0: int
    x1: int
    y1: int
    pixels: np.ndarray  #: (y1-y0, x1-x0, 3) float64, bit-exact
    worker: str = ""
    frame_complete: bool = False


@dataclass(frozen=True)
class FrameEvent:
    """A fully-composited frame, as delivered to ``on_frame`` callbacks.

    ``image`` is ``None`` for engines that never materialize pixels (the
    cluster simulator); ``report`` carries the per-frame
    :class:`~repro.pipeline.FrameReport` when the engine produces one
    (the animation engine does; the farm's per-frame reports are
    aggregate-only and arrive as ``None``).
    """

    frame: int
    image: np.ndarray | None
    report: object | None = None


def tile_rects(x0: int, y0: int, x1: int, y1: int, tile_px: int):
    """Yield ``(tx0, ty0, tx1, ty1)`` tiles covering the box, row-major.

    The grid is anchored at the *image* origin, not the box origin, so
    two workers assigned adjacent boxes produce compatible tile keys.
    Edge tiles are clipped to the box.
    """
    if tile_px <= 0:
        raise ValueError(f"tile_px must be positive, got {tile_px}")
    ty = (y0 // tile_px) * tile_px
    while ty < y1:
        tx = (x0 // tile_px) * tile_px
        while tx < x1:
            yield (max(tx, x0), max(ty, y0), min(tx + tile_px, x1), min(ty + tile_px, y1))
            tx += tile_px
        ty += tile_px


class FrameBuffer:
    """One frame of the distributed framebuffer: pixels plus coverage.

    ``add_tile`` is idempotent — a duplicate delivery (worker retried, or
    a tile raced its worker's loss) overwrites with identical pixels and
    reports zero newly-covered pixels.

    The pixel plane comes from a :class:`~repro.buffers.BufferPool` when
    one is passed: the compositor owns that buffer's lifetime and must
    hand it back via :meth:`release` once the pixels have been copied
    out (``FrameAssembler.take_frames`` does).
    """

    __slots__ = ("height", "width", "image", "covered", "_pool")

    def __init__(self, height: int, width: int, pool: BufferPool | None = None):
        self.height = int(height)
        self.width = int(width)
        self._pool = pool
        if pool is not None:
            self.image = pool.acquire((self.height, self.width, 3), np.float64, zero=True)
        else:
            self.image = np.zeros((self.height, self.width, 3), dtype=np.float64)
        self.covered = np.zeros((self.height, self.width), dtype=bool)

    def release(self) -> None:
        """Return the pixel plane to the pool; the buffer must no longer
        be read through ``image`` afterwards (it will be recycled)."""
        image, self.image = self.image, None
        if self._pool is not None and image is not None:
            self._pool.release(image)

    def add_tile(self, x0: int, y0: int, x1: int, y1: int, pixels: np.ndarray) -> int:
        """Composite one tile; returns the count of newly-covered pixels."""
        if not (0 <= x0 < x1 <= self.width and 0 <= y0 < y1 <= self.height):
            raise ValueError(
                f"tile ({x0},{y0})-({x1},{y1}) outside {self.width}x{self.height} frame"
            )
        pixels = np.asarray(pixels, dtype=np.float64)
        if pixels.shape != (y1 - y0, x1 - x0, 3):
            raise ValueError(
                f"tile pixels shape {pixels.shape} != {(y1 - y0, x1 - x0, 3)}"
            )
        newly = int((y1 - y0) * (x1 - x0) - np.count_nonzero(self.covered[y0:y1, x0:x1]))
        self.image[y0:y1, x0:x1] = pixels
        self.covered[y0:y1, x0:x1] = True
        return newly

    @property
    def complete(self) -> bool:
        return bool(self.covered.all())

    def coverage(self) -> float:
        return float(np.count_nonzero(self.covered)) / float(self.covered.size)

    def box_complete(self, x0: int, y0: int, x1: int, y1: int) -> bool:
        return bool(self.covered[y0:y1, x0:x1].all())


class FrameAssembler:
    """The run-wide compositor: every frame's :class:`FrameBuffer`.

    The master folds streamed tiles (``add_tile``) and whole-segment
    results (``add_segment``: a task that does not stream, a unit loaded
    from a checkpoint spool) into the same state, so final assembly, loss
    salvage, and the live preview are uniform however the pixels arrived.
    All methods are thread-safe.
    """

    def __init__(
        self,
        n_frames: int,
        width: int,
        height: int,
        pool: BufferPool | None = None,
    ):
        self.n_frames = int(n_frames)
        self.width = int(width)
        self.height = int(height)
        # Per-frame composite planes come from the buffer pool (the
        # process-wide one unless a private pool is passed), and go back
        # to it in take_frames()/release() — repeated runs recycle the
        # same memory instead of reallocating every framebuffer.
        self.pool = default_pool() if pool is None else pool
        self._frames = [
            FrameBuffer(height, width, pool=self.pool) for _ in range(self.n_frames)
        ]
        self._lock = threading.Lock()
        self._released = False
        self.n_tiles = 0  #: tiles folded in (duplicates included)

    def _box(self, box) -> tuple[int, int, int, int]:
        if box is None:
            return (0, 0, self.width, self.height)
        x0, y0, x1, y1 = (int(v) for v in box)
        return (x0, y0, x1, y1)

    def _check_frame(self, frame: int) -> int:
        frame = int(frame)
        if not 0 <= frame < self.n_frames:
            raise ValueError(f"frame {frame} outside [0, {self.n_frames})")
        return frame

    def add_tile(
        self, frame: int, x0: int, y0: int, x1: int, y1: int, pixels: np.ndarray
    ) -> tuple[int, bool]:
        """Fold one tile in; returns ``(newly_covered, frame_complete)``."""
        frame = self._check_frame(frame)
        with self._lock:
            self._check_live()
            fb = self._frames[frame]
            newly = fb.add_tile(int(x0), int(y0), int(x1), int(y1), pixels)
            self.n_tiles += 1
            return newly, fb.complete

    def add_segment(self, box, frame0: int, frame1: int, frames: np.ndarray) -> None:
        """Fold a whole-segment result (non-streaming task, or checkpoint).

        ``frames`` is ``(n, h, w, 3)`` for the box, or the flat
        ``(n, h*w, 3)`` row-major layout the render task ships.
        """
        x0, y0, x1, y1 = self._box(box)
        h, w = y1 - y0, x1 - x0
        frames = np.asarray(frames, dtype=np.float64)
        n = int(frame1) - int(frame0)
        if frames.shape == (n, h * w, 3):
            frames = frames.reshape(n, h, w, 3)
        elif frames.shape != (n, h, w, 3):
            raise ValueError(
                f"segment frames shape {frames.shape} fits neither "
                f"{(n, h * w, 3)} nor {(n, h, w, 3)}"
            )
        with self._lock:
            self._check_live()
            for i in range(n):
                self._frames[self._check_frame(frame0 + i)].add_tile(
                    x0, y0, x1, y1, frames[i]
                )

    def segment(self, box, frame0: int, frame1: int) -> np.ndarray:
        """Copy the box's pixels over ``[frame0, frame1)`` back out, in the
        layout :meth:`add_segment` takes: ``(n, h*w, 3)`` for a box,
        ``(n, H, W, 3)`` for whole frames (``box=None``).  The checkpoint
        spool reads a streamed unit from here once its range is complete."""
        x0, y0, x1, y1 = self._box(box)
        with self._lock:
            self._check_live()
            out = np.stack([
                self._frames[self._check_frame(f)].image[y0:y1, x0:x1]
                for f in range(int(frame0), int(frame1))
            ])
        return out if box is None else out.reshape(len(out), -1, 3)

    def box_complete(self, box, frame: int) -> bool:
        x0, y0, x1, y1 = self._box(box)
        with self._lock:
            return self._frames[self._check_frame(frame)].box_complete(x0, y0, x1, y1)

    def range_complete(self, box, frame0: int, frame1: int) -> bool:
        x0, y0, x1, y1 = self._box(box)
        with self._lock:
            return all(
                self._frames[self._check_frame(f)].box_complete(x0, y0, x1, y1)
                for f in range(int(frame0), int(frame1))
            )

    def frames_done(self, box, frame0: int, frame1: int) -> int:
        """Leading fully-complete frames of ``[frame0, frame1)`` for the
        box — the salvage count when that range's worker is lost."""
        x0, y0, x1, y1 = self._box(box)
        done = int(frame0)
        with self._lock:
            for f in range(int(frame0), int(frame1)):
                if not self._frames[self._check_frame(f)].box_complete(x0, y0, x1, y1):
                    break
                done = f + 1
        return done

    def covered_tiles(self, box, frame0: int, frame1: int, tile_px: int) -> list:
        """Tile keys already composited for the box — the skip-list sent
        to a replacement worker so it re-renders only what is missing."""
        x0, y0, x1, y1 = self._box(box)
        skip = []
        with self._lock:
            for f in range(int(frame0), int(frame1)):
                fb = self._frames[self._check_frame(f)]
                for tx0, ty0, tx1, ty1 in tile_rects(x0, y0, x1, y1, tile_px):
                    if fb.box_complete(tx0, ty0, tx1, ty1):
                        skip.append((f, tx0, ty0, tx1, ty1))
        return skip

    @property
    def n_complete(self) -> int:
        with self._lock:
            return sum(1 for fb in self._frames if fb.complete)

    @property
    def complete(self) -> bool:
        return self.n_complete == self.n_frames

    def _check_live(self) -> None:
        if self._released:
            raise RuntimeError("framebuffer already released its composite buffers")

    def frames(self) -> np.ndarray:
        """The final ``(n_frames, H, W, 3)`` stack; raises if incomplete."""
        with self._lock:
            self._check_live()
            missing = [f for f, fb in enumerate(self._frames) if not fb.complete]
            if missing:
                raise RuntimeError(
                    f"framebuffer incomplete: frames {missing[:8]}"
                    f"{'...' if len(missing) > 8 else ''} have uncovered pixels"
                )
            return np.stack([fb.image for fb in self._frames])

    def take_frames(self) -> np.ndarray:
        """:meth:`frames`, then hand every composite buffer back to the
        pool.  The returned stack is the caller's own storage (the one
        copy final assembly always was) but is itself pool-acquired, so
        a caller done with the pixels can release it back (see
        :meth:`repro.api.LazyFrames.release`) and a steady-state service
        re-renders same-shaped jobs without fresh stack allocations.
        The assembler is spent afterwards."""
        with self._lock:
            self._check_live()
            missing = [f for f, fb in enumerate(self._frames) if not fb.complete]
            if missing:
                raise RuntimeError(
                    f"framebuffer incomplete: frames {missing[:8]}"
                    f"{'...' if len(missing) > 8 else ''} have uncovered pixels"
                )
            out = self.pool.acquire(
                (len(self._frames), self.height, self.width, 3), np.float64
            )
            for i, fb in enumerate(self._frames):
                out[i] = fb.image
            self._released = True
            for fb in self._frames:
                fb.release()
        return out

    def release(self) -> None:
        """Return all composite buffers to the pool; idempotent.  The
        assembler refuses pixel reads afterwards (coverage bookkeeping
        for late salvage queries stays valid)."""
        with self._lock:
            if self._released:
                return
            self._released = True
            for fb in self._frames:
                fb.release()

    def frame_image(self, frame: int) -> np.ndarray:
        with self._lock:
            self._check_live()
            return self._frames[self._check_frame(frame)].image.copy()

    def preview(self, frame: int | None = None) -> tuple[int, np.ndarray, float]:
        """A snapshot for the live view: ``(frame, image copy, coverage)``.

        With ``frame=None`` picks the busiest incomplete frame (most
        coverage short of 100%), falling back to the last complete one —
        the frame a watcher most wants to see filling in.
        """
        with self._lock:
            self._check_live()
            if frame is None:
                partial = [
                    (fb.coverage(), f)
                    for f, fb in enumerate(self._frames)
                    if 0.0 < fb.coverage() < 1.0
                ]
                if partial:
                    frame = max(partial)[1]
                else:
                    complete = [f for f, fb in enumerate(self._frames) if fb.complete]
                    frame = complete[-1] if complete else 0
            frame = self._check_frame(frame)
            fb = self._frames[frame]
            return frame, fb.image.copy(), fb.coverage()


@dataclass
class PreviewHub:
    """The ``/preview`` endpoint's state: whichever run is live right now.

    A hub outlives individual runs — the StatusServer mounts ``route``
    once, and each render attaches its assembler on the way in.  Query
    parameters: ``fmt`` (``json`` | ``png`` | ``npz``, default json) and
    ``frame`` (index; default: the frame currently filling in).
    """

    assembler: FrameAssembler | None = None
    meta: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def attach(self, assembler: FrameAssembler, **meta) -> None:
        with self._lock:
            self.assembler = assembler
            self.meta = dict(meta)

    def detach(self) -> None:
        with self._lock:
            self.assembler = None

    def route(self, query: dict):
        """StatusServer handler (``takes_query``): dict → JSON reply,
        ``(bytes, content_type)`` → raw body."""
        with self._lock:
            asm = self.assembler
            meta = dict(self.meta)
        if asm is None:
            return {"available": False}
        frame_q = query.get("frame")
        frame = int(frame_q) if frame_q not in (None, "") else None
        fmt = query.get("fmt", "json")
        try:
            frame, image, coverage = asm.preview(frame)
        except ValueError as exc:
            return {"available": True, "error": str(exc)}
        if fmt == "png":
            return encode_png(image), "image/png"
        if fmt == "npz":
            buf = io.BytesIO()
            np.savez_compressed(
                buf, frame=np.int64(frame), image=image, coverage=np.float64(coverage)
            )
            return buf.getvalue(), "application/octet-stream"
        if fmt != "json":
            return {"available": True, "error": f"unknown fmt {fmt!r}"}
        return {
            "available": True,
            "frame": frame,
            "coverage": round(coverage, 4),
            "frames_complete": asm.n_complete,
            "n_frames": asm.n_frames,
            "n_tiles": asm.n_tiles,
            "width": asm.width,
            "height": asm.height,
            **meta,
        }


# StatusServer feature probe: handlers with ``takes_query`` get the parsed
# query-string dict (bound-method attribute lookup delegates to __func__).
PreviewHub.route.takes_query = True
