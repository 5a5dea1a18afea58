"""``repro.dfb`` — the distributed framebuffer.

The paper's farm ships each sub-area back as one monolithic RESULT, so
the first pixel lands only when the *last* pixel of a segment is done and
result frames dominate the wire.  "Scalable Ray Tracing Using the
Distributed FrameBuffer" points the way out: workers stream fixed-size
**tiles** as they finish and the master composites them incrementally.

This module is the transport-agnostic half of that design:

* :func:`tile_rects` — the one deterministic tiling both sides share, so
  a worker's tile boundaries always match the master's bookkeeping.
* :class:`FrameAssembler` — the per-run compositor, one pixel stack plus
  a coverage mask, that the master folds every tile *and* every whole
  unit (pool result, checkpoint load) into, idempotently.  It is also the
  farm's one pixel check: a rectangle outside the frame, of the wrong
  shape or with a value that is not finite is refused before anything of
  it is written, and a unit is accepted when its assigned range is
  covered (``range_complete``), whatever carried it home.  A tile may be
  a **hold record** (``pixels=None``): a worker whose frame recomputed no
  pixel of that tile ships no pixels, and the assembler copies its own
  frame ``f - 1`` — a held frame costs the wire only the pixels that
  changed, as the paper's coherence argument says it should.  Completion is
  tracked per pixel, so when a worker dies mid-segment the scheduler
  re-renders only the frames that are actually missing (see
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
    cluster simulator); ``report`` carries the frame's
    :class:`~repro.runtime.local.FrameCounts` when its units' counts are
    home as it completes — always on the animation engine and the pool; a
    TCP frame completes from tiles that outrun them, and there, like on
    the simulator, it is ``None``.
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


class FrameAssembler:
    """The run-wide compositor: the one place a farm pixel is written.

    One pool-acquired ``(n_frames, H, W, 3)`` stack plus a per-pixel
    coverage array.  The master folds streamed tiles (``add_tile``) and
    whole units (``add_segment``: a pool result, a unit loaded from a
    checkpoint spool) into the same state, so final assembly, loss
    salvage and the live preview are uniform however the pixels arrived.
    Writes are idempotent — a duplicate delivery (worker retried, or a
    tile raced its worker's loss) overwrites with identical pixels and
    covers nothing new.  All methods are thread-safe.
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
        # The stack comes from the buffer pool (the process-wide one unless
        # a private pool is passed) and leaves through take_frames() or
        # goes back in release() — repeated runs recycle the same memory.
        # It is not blanked: no read gets past the coverage mask.  While
        # the pool has it, a forked worker does not inherit it (DONTFORK).
        self.pool = default_pool() if pool is None else pool
        shape = (self.n_frames, self.height, self.width)
        self._stack = self.pool.acquire((*shape, 3), np.float64)
        self._covered = np.zeros(shape, dtype=bool)
        self._left = [self.height * self.width] * self.n_frames  # uncovered px per frame
        self._lock = threading.Lock()
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

    def _span(self, frame0: int, frame1: int) -> tuple[int, int]:
        frame0, frame1 = int(frame0), int(frame1)
        if not 0 <= frame0 <= frame1 <= self.n_frames:
            raise ValueError(f"frames [{frame0}, {frame1}) outside [0, {self.n_frames})")
        return frame0, frame1

    def _check_live(self) -> None:
        if self._stack is None:
            raise RuntimeError("framebuffer already released its composite stack")

    @staticmethod
    def _finite(pixels) -> np.ndarray:
        """``pixels`` as float64; a NaN or inf among them is refused."""
        pixels = np.asarray(pixels, dtype=np.float64)
        if not np.isfinite(pixels).all():
            raise ValueError("pixels are not finite")
        return pixels

    def _write(self, frame: int, x0: int, y0: int, x1: int, y1: int, pixels) -> tuple[int, bool]:
        """Composite one rectangle of one frame (lock held); returns
        ``(newly covered pixels, frame complete)``.  Malformed deliveries
        raise instead of clipping; ``pixels`` passed :meth:`_finite`, or
        are covered pixels of this stack."""
        self._check_live()
        if not (0 <= x0 < x1 <= self.width and 0 <= y0 < y1 <= self.height):
            raise ValueError(
                f"tile ({x0},{y0})-({x1},{y1}) outside {self.width}x{self.height} frame"
            )
        if pixels.shape != (y1 - y0, x1 - x0, 3):
            raise ValueError(
                f"tile pixels shape {pixels.shape} != {(y1 - y0, x1 - x0, 3)}"
            )
        covered = self._covered[frame, y0:y1, x0:x1]
        newly = covered.size - int(np.count_nonzero(covered))
        self._stack[frame, y0:y1, x0:x1] = pixels
        covered[...] = True
        self._left[frame] -= newly
        return newly, self._left[frame] == 0

    def add_tile(
        self, frame: int, x0: int, y0: int, x1: int, y1: int, pixels: np.ndarray | None
    ) -> tuple[int, bool]:
        """Fold one tile in; returns ``(newly_covered, frame_complete)``.

        ``pixels=None`` is a hold record: the rectangle is the same as in
        frame ``frame - 1``, which must already be covered there.  Pixels
        that are not all finite are refused."""
        frame = self._check_frame(frame)
        x0, y0, x1, y1 = int(x0), int(y0), int(x1), int(y1)
        with self._lock:
            if pixels is None:
                if frame < 1 or not self._covered[frame - 1, y0:y1, x0:x1].all():
                    raise ValueError(f"hold of frame {frame} over an uncovered frame {frame - 1}")
                pixels = self._stack[frame - 1, y0:y1, x0:x1]
            else:
                pixels = self._finite(pixels)
            out = self._write(frame, x0, y0, x1, y1, pixels)
            self.n_tiles += 1
            return out

    def add_segment(self, box, frame0: int, frame1: int, frames: np.ndarray) -> list[bool]:
        """Fold a whole unit in (a pool result, a checkpoint load):
        ``frames`` is ``(n, h, w, 3)`` for the box.  The whole block is
        checked before any frame is written, so a refused call composites
        nothing.  Returns, per frame, whether that frame is complete now."""
        x0, y0, x1, y1 = self._box(box)
        f0, f1 = self._span(frame0, frame1)
        frames = np.asarray(frames, dtype=np.float64)
        if frames.shape != (f1 - f0, y1 - y0, x1 - x0, 3):
            raise ValueError(
                f"segment frames shape {frames.shape} != {(f1 - f0, y1 - y0, x1 - x0, 3)}"
            )
        frames = self._finite(frames)
        with self._lock:
            return [
                self._write(f, x0, y0, x1, y1, frames[f - f0])[1] for f in range(f0, f1)
            ]

    def segment(self, box, frame0: int, frame1: int) -> np.ndarray:
        """Copy the box's pixels over ``[frame0, frame1)`` back out, in the
        ``(n, h, w, 3)`` layout :meth:`add_segment` takes.  The checkpoint
        spool reads every accepted unit from here."""
        x0, y0, x1, y1 = self._box(box)
        f0, f1 = self._span(frame0, frame1)
        with self._lock:
            self._check_live()
            return self._stack[f0:f1, y0:y1, x0:x1].copy()

    def range_complete(self, box, frame0: int, frame1: int) -> bool:
        x0, y0, x1, y1 = self._box(box)
        f0, f1 = self._span(frame0, frame1)
        with self._lock:
            return bool(self._covered[f0:f1, y0:y1, x0:x1].all())

    def frames_done(self, box, frame0: int, frame1: int) -> int:
        """Leading fully-complete frames of ``[frame0, frame1)`` for the
        box — the salvage count when that range's worker is lost."""
        x0, y0, x1, y1 = self._box(box)
        done, f1 = self._span(frame0, frame1)
        with self._lock:
            while done < f1 and self._covered[done, y0:y1, x0:x1].all():
                done += 1
        return done

    def covered_tiles(self, box, frame0: int, frame1: int, tile_px: int) -> list:
        """Tile keys already composited for the box — the skip-list sent
        to a replacement worker so it re-renders only what is missing."""
        x0, y0, x1, y1 = self._box(box)
        f0, f1 = self._span(frame0, frame1)
        skip = []
        with self._lock:
            for f in range(f0, f1):
                for tx0, ty0, tx1, ty1 in tile_rects(x0, y0, x1, y1, tile_px):
                    if self._covered[f, ty0:ty1, tx0:tx1].all():
                        skip.append((f, tx0, ty0, tx1, ty1))
        return skip

    @property
    def n_complete(self) -> int:
        with self._lock:
            return self._left.count(0)

    @property
    def complete(self) -> bool:
        return self.n_complete == self.n_frames

    def _check_complete(self) -> None:
        self._check_live()
        missing = [f for f, left in enumerate(self._left) if left]
        if missing:
            raise RuntimeError(
                f"framebuffer incomplete: frames {missing[:8]}"
                f"{'...' if len(missing) > 8 else ''} have uncovered pixels"
            )

    def frames(self) -> np.ndarray:
        """A copy of the final ``(n_frames, H, W, 3)`` stack; raises if
        incomplete."""
        with self._lock:
            self._check_complete()
            return self._stack.copy()

    def take_frames(self) -> np.ndarray:
        """Hand the finished stack itself over (no copy); raises if
        incomplete.  The stack is pool-acquired, so a caller done with the
        pixels can release it back (see :meth:`repro.api.LazyFrames.release`)
        and a steady-state service re-renders same-shaped jobs without
        fresh stack allocations.  It is forkable again; the assembler is spent."""
        with self._lock:
            self._check_complete()
            out, self._stack = self._stack, None
        return self.pool.hand_over(out)

    def release(self) -> None:
        """Return the stack to the pool unless :meth:`take_frames` already
        handed it over; idempotent.  The assembler refuses pixel reads
        afterwards (coverage bookkeeping for late salvage queries stays
        valid)."""
        with self._lock:
            stack, self._stack = self._stack, None
        if stack is not None:
            self.pool.release(stack)

    def frame_image(self, frame: int) -> np.ndarray:
        with self._lock:
            self._check_live()
            return self._stack[self._check_frame(frame)].copy()

    def preview(self, frame: int | None = None) -> tuple[int, np.ndarray, float]:
        """A snapshot for the live view: ``(frame, image copy, coverage)``,
        black where nothing has landed yet.

        With ``frame=None`` picks the busiest incomplete frame (most
        coverage short of 100%), falling back to the last complete one —
        the frame a watcher most wants to see filling in.
        """
        size = self.height * self.width
        with self._lock:
            self._check_live()
            if frame is None:
                partial = [
                    (size - left, f) for f, left in enumerate(self._left) if 0 < left < size
                ]
                if partial:
                    frame = max(partial)[1]
                else:
                    complete = [f for f, left in enumerate(self._left) if left == 0]
                    frame = complete[-1] if complete else 0
            frame = self._check_frame(frame)
            image = np.where(self._covered[frame][..., None], self._stack[frame], 0.0)
            return frame, image, (size - self._left[frame]) / size


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
