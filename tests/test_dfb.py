"""The distributed framebuffer: tiling, compositing, salvage, preview.

The contract under test is bit-exactness under every delivery disorder
the wire can produce: duplicate tiles, out-of-order tiles, tiles that
raced their worker's loss, degenerate layouts.  Pixels either composite
to exactly what a serial render would produce, or the assembler refuses
to hand over frames at all.
"""

import io
import json
import urllib.request
import zlib

import numpy as np
import pytest

from repro.dfb import (
    DEFAULT_TILE_PX,
    FrameAssembler,
    PreviewHub,
    encode_png,
    tile_rects,
)
from repro.obs import StatusServer

RNG = np.random.default_rng(7)


def reference(n, h, w):
    """A deterministic 'rendered' frame stack with full float64 entropy."""
    return RNG.random((n, h, w, 3))


def tiles_of(image, box, tile_px):
    """Split one frame's box into (rect, pixels) the way a worker would."""
    x0, y0, x1, y1 = box
    return [
        ((tx0, ty0, tx1, ty1), image[ty0:ty1, tx0:tx1].copy())
        for tx0, ty0, tx1, ty1 in tile_rects(x0, y0, x1, y1, tile_px)
    ]


# -- tile_rects -------------------------------------------------------------------
def test_tile_rects_cover_box_exactly_once():
    cover = np.zeros((37, 53), dtype=int)
    for tx0, ty0, tx1, ty1 in tile_rects(0, 0, 53, 37, 16):
        cover[ty0:ty1, tx0:tx1] += 1
    assert (cover == 1).all()


def test_tile_rects_anchor_at_image_origin():
    # Adjacent boxes must produce identical tile keys on their shared grid
    # cells, or a replacement worker's skip-list would never match.
    left = set(tile_rects(0, 0, 48, 32, 16))
    right = set(tile_rects(16, 0, 64, 32, 16))
    assert left & right == set(tile_rects(16, 0, 48, 32, 16))


def test_tile_rects_rejects_bad_edge():
    with pytest.raises(ValueError, match="tile_px"):
        list(tile_rects(0, 0, 8, 8, 0))


# -- FrameAssembler edge cases ----------------------------------------------------
def test_duplicate_tile_delivery_is_idempotent_and_bit_identical():
    ref = reference(1, 24, 32)[0]
    asm = FrameAssembler(1, 32, 24)
    tiles = tiles_of(ref, (0, 0, 32, 24), 16)
    for i, ((x0, y0, x1, y1), px) in enumerate(tiles):
        newly, complete = asm.add_tile(0, x0, y0, x1, y1, px)
        assert newly == (y1 - y0) * (x1 - x0)
        assert complete == (i == len(tiles) - 1)
    # Re-deliver everything: zero newly-covered pixels, pixels unchanged.
    for (x0, y0, x1, y1), px in tiles:
        assert asm.add_tile(0, x0, y0, x1, y1, px) == (0, True)
    assert asm.complete and asm.n_tiles == 2 * len(tiles)
    assert asm.frames()[0].tobytes() == ref.tobytes()


def test_out_of_order_tiles_compose_bit_identically():
    ref = reference(3, 24, 32)
    asm = FrameAssembler(3, 32, 24)
    deliveries = [
        (f, rect, px)
        for f in range(3)
        for rect, px in tiles_of(ref[f], (0, 0, 32, 24), 10)
    ]
    RNG.shuffle(deliveries)
    for f, (x0, y0, x1, y1), px in deliveries:
        asm.add_tile(f, x0, y0, x1, y1, px)
    assert asm.complete
    assert asm.frames().tobytes() == ref.tobytes()


def test_tile_from_lost_worker_is_kept_and_overwritten_harmlessly():
    """A tile that landed before its worker was declared lost stays in the
    compositor; the replacement re-renders the box and overwrites it with
    identical pixels — the composite must not depend on who delivered."""
    ref = reference(1, 32, 32)[0]
    asm = FrameAssembler(1, 32, 32)
    tiles = tiles_of(ref, (0, 0, 32, 32), 16)
    # The doomed worker delivered one tile, then died.
    (x0, y0, x1, y1), px = tiles[1]
    asm.add_tile(0, x0, y0, x1, y1, px)
    skip = asm.covered_tiles((0, 0, 32, 32), 0, 1, 16)
    assert skip == [(0, x0, y0, x1, y1)]
    # The replacement skips that tile and sends the rest...
    for (tx0, ty0, tx1, ty1), tpx in tiles:
        if (0, tx0, ty0, tx1, ty1) in skip:
            continue
        asm.add_tile(0, tx0, ty0, tx1, ty1, tpx)
    assert asm.complete
    # ...and even a straggler duplicate of the dead worker's tile is harmless.
    asm.add_tile(0, x0, y0, x1, y1, px)
    assert asm.frames()[0].tobytes() == ref.tobytes()


def test_degenerate_one_by_one_tiles():
    ref = reference(1, 5, 7)[0]
    asm = FrameAssembler(1, 7, 5)
    tiles = tiles_of(ref, (0, 0, 7, 5), 1)
    assert len(tiles) == 35 and all(px.shape == (1, 1, 3) for _, px in tiles)
    for (x0, y0, x1, y1), px in tiles:
        asm.add_tile(0, x0, y0, x1, y1, px)
    assert asm.frames()[0].tobytes() == ref.tobytes()


def test_mixed_tiles_and_whole_segments_compose():
    # Half the frames arrive as streamed tiles, half as whole units (a
    # pool result, a checkpoint load) — one compositor state.
    ref = reference(4, 16, 16)
    asm = FrameAssembler(4, 16, 16)
    for f in (0, 2):
        for (x0, y0, x1, y1), px in tiles_of(ref[f], (0, 0, 16, 16), 6):
            asm.add_tile(f, x0, y0, x1, y1, px)
    assert asm.add_segment(None, 1, 2, ref[1:2]) == [True]
    assert asm.add_segment((0, 0, 16, 8), 3, 4, ref[3:4, :8]) == [False]
    assert asm.add_segment((0, 8, 16, 16), 3, 4, ref[3:4, 8:]) == [True]
    assert asm.frames().tobytes() == ref.tobytes()
    assert asm.segment((0, 8, 16, 16), 2, 4).tobytes() == ref[2:4, 8:].tobytes()
    # One layout in, one layout out: the flat (n, h*w, 3) form is refused.
    with pytest.raises(ValueError, match="shape"):
        asm.add_segment(None, 1, 2, ref[1].reshape(1, -1, 3))
    # take_frames() hands over the stack the tiles were written into.
    written = asm.segment(None, 0, 4)
    stack = asm.take_frames()
    assert stack.tobytes() == written.tobytes() == ref.tobytes()
    with pytest.raises(RuntimeError, match="released"):
        asm.frames()


def test_assembler_rejects_bad_tiles_and_incomplete_readout():
    asm = FrameAssembler(2, 16, 16)
    with pytest.raises(ValueError, match="outside"):
        asm.add_tile(0, 8, 8, 24, 16, np.zeros((8, 16, 3)))
    with pytest.raises(ValueError, match="shape"):
        asm.add_tile(0, 0, 0, 8, 8, np.zeros((4, 4, 3)))
    with pytest.raises(ValueError, match="frame"):
        asm.add_tile(5, 0, 0, 8, 8, np.zeros((8, 8, 3)))
    asm.add_tile(0, 0, 0, 16, 16, np.zeros((16, 16, 3)))
    with pytest.raises(RuntimeError, match="incomplete"):
        asm.frames()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pixels_that_are_not_finite_composite_nothing(bad):
    """The compositor is the farm's one pixel gate: a tile or a whole unit
    with one value that is not finite is refused, and a refused unit
    writes none of its frames (the check precedes the first write)."""
    asm = FrameAssembler(3, 16, 16)
    tile = np.zeros((8, 8, 3))
    tile[3, 4, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        asm.add_tile(0, 0, 0, 8, 8, tile)
    unit = reference(3, 16, 16)
    unit[2, 15, 15, 0] = bad  # the last pixel of the last frame
    with pytest.raises(ValueError, match="finite"):
        asm.add_segment(None, 0, 3, unit)
    assert asm.covered_tiles(None, 0, 3, 8) == [] and asm.n_tiles == 0
    asm.add_tile(0, 0, 0, 8, 8, np.zeros((8, 8, 3)))
    asm.add_tile(1, 0, 0, 8, 8, None)  # a hold copies covered, finite pixels
    assert asm.covered_tiles(None, 0, 3, 8) == [(0, 0, 0, 8, 8), (1, 0, 0, 8, 8)]


def test_partial_retry_accounting():
    asm = FrameAssembler(4, 16, 16)
    box = (0, 0, 16, 16)
    ref = reference(2, 16, 16)
    asm.add_segment(box, 0, 2, ref)  # frames 0-1 landed before the loss
    assert asm.frames_done(box, 0, 4) == 2
    assert not asm.range_complete(box, 0, 4)
    assert asm.range_complete(box, 0, 2)
    # A replacement assignment therefore starts at frame 2, and its
    # skip-list covers every tile of the salvaged frames.
    skip = asm.covered_tiles(box, 0, 4, 8)
    assert {s[0] for s in skip} == {0, 1} and len(skip) == 2 * 4


def test_held_rect_composites_like_its_pixels():
    """A hold record (``pixels=None``) copies the assembler's own frame
    f-1 there: byte-identical to shipping pixels that did not change."""
    ref = reference(3, 24, 32)
    ref[1, :16] = ref[0, :16]  # frame 1 left the top band as it was
    ref[2] = ref[1]  # frame 2 changed nothing
    shipped, held = FrameAssembler(3, 32, 24), FrameAssembler(3, 32, 24)
    for f in range(3):
        for (x0, y0, x1, y1), px in tiles_of(ref[f], (0, 0, 32, 24), 16):
            unchanged = f and (ref[f - 1, y0:y1, x0:x1] == px).all()
            assert held.add_tile(f, x0, y0, x1, y1, None if unchanged else px) == \
                shipped.add_tile(f, x0, y0, x1, y1, px)
    assert held.n_tiles == shipped.n_tiles == 12
    assert held.frames().tobytes() == shipped.frames().tobytes() == ref.tobytes()


def test_hold_needs_the_frame_before_covered():
    asm = FrameAssembler(3, 16, 16)
    with pytest.raises(ValueError, match="hold"):
        asm.add_tile(0, 0, 0, 8, 8, None)  # frame 0 has no frame before
    asm.add_tile(0, 0, 0, 8, 8, np.ones((8, 8, 3)))
    with pytest.raises(ValueError, match="hold"):
        asm.add_tile(1, 0, 0, 16, 8, None)  # half of it is uncovered in frame 0
    with pytest.raises(ValueError, match="hold"):
        asm.add_tile(2, 0, 0, 8, 8, None)  # frame 1 is uncovered there
    assert asm.add_tile(1, 0, 0, 8, 8, None) == (64, False)
    assert asm.segment((0, 0, 8, 8), 1, 2).tobytes() == np.ones((1, 8, 8, 3)).tobytes()


# -- preview surface --------------------------------------------------------------
def test_encode_png_is_a_valid_png():
    img = reference(1, 9, 13)[0]
    data = encode_png(img)
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    # IHDR carries the dimensions big-endian right after the signature.
    assert data[16:24] == (13).to_bytes(4, "big") + (9).to_bytes(4, "big")
    # The IDAT payload inflates to filter-prefixed scanlines.
    idat_at = data.index(b"IDAT")
    idat_len = int.from_bytes(data[idat_at - 4 : idat_at], "big")
    raw = zlib.decompress(data[idat_at + 4 : idat_at + 4 + idat_len])
    assert len(raw) == 9 * (1 + 13 * 3)
    expected = (np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    got = np.frombuffer(raw, np.uint8).reshape(9, -1)[:, 1:].reshape(9, 13, 3)
    np.testing.assert_array_equal(got, expected)


def test_preview_hub_tracks_the_filling_frame():
    hub = PreviewHub()
    assert hub.route({}) == {"available": False}
    asm = FrameAssembler(2, 16, 16)
    hub.attach(asm, workload="newton")
    ref = reference(1, 16, 16)[0]
    asm.add_tile(0, 0, 0, 16, 8, ref[:8])
    snap = hub.route({})
    assert snap["available"] and snap["frame"] == 0
    assert snap["coverage"] == pytest.approx(0.5)
    assert snap["frames_complete"] == 0 and snap["workload"] == "newton"
    png, ctype = hub.route({"fmt": "png"})
    assert ctype == "image/png" and png[:8] == b"\x89PNG\r\n\x1a\n"
    buf, ctype = hub.route({"fmt": "npz", "frame": "0"})
    with np.load(io.BytesIO(buf)) as z:
        assert int(z["frame"]) == 0
        assert z["image"].shape == (16, 16, 3)
        assert float(z["coverage"]) == pytest.approx(0.5)
    assert "error" in hub.route({"frame": "9"})
    hub.detach()
    assert hub.route({"fmt": "png"}) == {"available": False}


def test_status_server_serves_preview_route():
    class _Ledger:
        def snapshot(self):
            return {"ok": True}

    hub = PreviewHub()
    asm = FrameAssembler(1, 8, 8)
    asm.add_tile(0, 0, 0, 8, 4, np.zeros((4, 8, 3)))
    hub.attach(asm)
    with StatusServer(_Ledger(), routes={"/preview": hub.route}) as srv:
        base = f"http://127.0.0.1:{srv.port}"
        with urllib.request.urlopen(f"{base}/preview?fmt=json") as resp:
            snap = json.loads(resp.read())
        assert snap["available"] and snap["coverage"] == pytest.approx(0.5)
        with urllib.request.urlopen(f"{base}/preview?fmt=png") as resp:
            assert resp.headers["Content-Type"] == "image/png"
            assert resp.read()[:8] == b"\x89PNG\r\n\x1a\n"
        # Plain JSON routes are untouched by the query machinery.
        with urllib.request.urlopen(f"{base}/status?x=1") as resp:
            assert json.loads(resp.read()) == {"ok": True}


def test_default_tile_px_is_sane():
    assert DEFAULT_TILE_PX == 32
