"""repro.buffers: the zero-copy data plane's ownership layer.

Covers the three pieces and their contract (DESIGN §15): the recycled
BufferPool the compositor draws from, the SharedFrameStore/FrameRef
shared-memory transport (only the address pickles; the master attaches
read-only and releases), and the copystats ledger the zero-copy
benchmark gates on.  LazyFrames lifetime tests live here too — they are
the API-level proof that released pixel stacks actually go back to the
pool.
"""

import pickle

import numpy as np
import pytest

from repro.api import LazyFrames
from repro.buffers import (
    BufferPool,
    CopyStats,
    FrameRef,
    SharedFrameStore,
    activate_worker_store,
    attach_refs,
    default_pool,
    release_refs,
    worker_store,
)
from repro.dfb import FrameAssembler


# -- copy accounting ---------------------------------------------------------------
def test_copystats_ledger():
    stats = CopyStats()
    stats.add(100, "encode.tobytes")
    stats.add(50, "encode.tobytes")
    stats.add(25, "decode.copy")
    stats.add(0, "decode.copy")  # zero-byte "copies" stay off the books
    stats.add(-5, "decode.copy")
    assert stats.total() == 175
    assert stats.snapshot() == {"encode.tobytes": 150, "decode.copy": 25}
    stats.reset()
    assert stats.total() == 0 and stats.snapshot() == {}


# -- pooled buffers ----------------------------------------------------------------
def test_pool_miss_then_hit_recycles_same_storage():
    pool = BufferPool()
    a = pool.acquire((3, 4), np.float64)
    assert pool.stats()["n_misses"] == 1
    a[:] = 7.0
    assert pool.release(a)
    b = pool.acquire((3, 4), np.float64)
    assert b is a  # recycled, not reallocated
    assert pool.stats()["n_hits"] == 1
    c = pool.acquire((3, 4), np.float64, zero=True)  # different storage, blanked
    assert c is not a and not c.any()


def test_pool_refuses_unpoolable_arrays():
    pool = BufferPool()
    ro = np.zeros((2, 2))
    ro.setflags(write=False)
    assert not pool.release(ro)  # read-only views must never be recycled
    assert not pool.release(np.zeros((4, 4))[::2])  # non-contiguous
    assert not pool.release("not an array")
    # refusals still count as released for outstanding bookkeeping
    assert pool.stats()["n_released"] == 3
    assert pool.stats()["bytes_pooled"] == 0


def test_pool_caps_parked_bytes():
    pool = BufferPool(max_bytes=100)
    small = pool.acquire((10,), np.float64)  # 80 bytes
    big = pool.acquire((100,), np.float64)  # 800 bytes
    assert pool.release(small)
    assert not pool.release(big)  # over cap: dropped to the allocator
    assert pool.stats()["bytes_pooled"] == 80
    pool.clear()
    assert pool.stats()["bytes_pooled"] == 0


def test_framebuffer_composite_plane_is_pooled():
    pool = BufferPool()
    asm = FrameAssembler(1, 5, 4, pool=pool)
    asm.add_tile(0, 0, 0, 5, 4, np.full((4, 5, 3), 3.0))
    stack = asm.take_frames()
    # The stack the tile was written into, handed over: no second acquire.
    assert (stack == 3.0).all() and pool.stats()["n_acquired"] == 1
    asm.release()  # spent: nothing left to give back
    assert pool.stats()["n_outstanding"] == 1
    pool.release(stack)
    asm2 = FrameAssembler(1, 5, 4, pool=pool)
    frame, image, coverage = asm2.preview()
    assert not image.any() and coverage == 0.0  # ...blanked for the new run
    asm2.add_tile(0, 0, 0, 5, 4, np.ones((4, 5, 3)))
    assert asm2.take_frames() is stack  # the released stack came back around
    # An assembler that never hands its stack over returns it on release().
    asm3 = FrameAssembler(1, 5, 4, pool=pool)
    asm3.release()
    asm3.release()  # idempotent
    assert pool.stats()["n_outstanding"] == 1  # asm2's stack, still the caller's


# -- shared-memory frames ----------------------------------------------------------
def test_frameref_pickles_address_only_and_resolves_read_only():
    store = SharedFrameStore()
    try:
        ref, view = store.create((2, 3, 3), np.float64)
        view[:] = np.arange(18, dtype=np.float64).reshape(2, 3, 3)
        wire = pickle.dumps(ref)
        # Only the address travels — never the pixels.
        assert len(wire) < ref.nbytes
        got = pickle.loads(wire)
        out = np.asarray(got)
        assert out.tobytes() == view.tobytes()
        assert not out.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            out[0, 0, 0] = 1.0
        got.release()
        got.release()  # idempotent
        with pytest.raises(ValueError, match="after release"):
            got.resolve()
        ref.close_local()
    finally:
        store.cleanup()


def test_store_cleanup_sweeps_stray_segments():
    store = SharedFrameStore()
    ref, view = store.create((4, 4), np.float64)
    del view
    ref.close_local()  # worker died without the ref coming home
    assert store.cleanup() >= 1
    assert store.cleanup() == 0  # nothing left
    ref.release()  # releasing after the sweep must stay quiet


def test_attach_and_release_walk_nested_results():
    store = SharedFrameStore()
    try:
        ref, view = store.create((2, 2), np.float64)
        view[:] = 5.0
        ref.close_local()
        result = ("box", 0, 4, ref, {"meta": True})
        attach_refs(result)
        # Attached before the sweep: the unlink cannot strand the pixels.
        store.cleanup()
        assert np.asarray(ref)[0, 0] == 5.0
        assert release_refs([result]) == 1
        assert ref.released
    finally:
        store.cleanup()


def test_worker_store_activation_round_trip():
    assert worker_store() is None
    activate_worker_store("feedface0001")
    try:
        assert worker_store() is not None
        assert worker_store().token == "feedface0001"
    finally:
        activate_worker_store(None)
    assert worker_store() is None


# -- LazyFrames lifetime -----------------------------------------------------------
def test_lazyframes_release_returns_stack_to_pool():
    pool = BufferPool()
    arr = pool.acquire((2, 4, 4, 3), np.float64)
    arr[:] = 1.5
    lf = LazyFrames(arr, releaser=lambda: pool.release(arr))
    assert np.asarray(lf)[0, 0, 0, 0] == 1.5  # reads don't release
    assert pool.stats()["n_outstanding"] == 1
    lf.release()
    stats = pool.stats()
    assert stats["n_outstanding"] == 0 and stats["bytes_pooled"] == arr.nbytes
    assert pool.acquire((2, 4, 4, 3), np.float64) is arr  # recycled
    with pytest.raises(RuntimeError, match="released"):
        lf.materialize()
    lf.release()  # idempotent: the releaser fired exactly once
    assert pool.stats()["n_released"] == 1


def test_lazyframes_thunk_source_releases_refs_after_access():
    store = SharedFrameStore()
    try:
        ref, view = store.create((2, 3, 3), np.float64)
        view[:] = 7.0
        ref.close_local()
        lf = LazyFrames(lambda: np.array(ref), releaser=ref.release)
        assert not ref.released  # lazy: nothing touched yet
        out = np.asarray(lf)
        # First materialization released the shared-memory ref...
        assert ref.released
        # ...and the frames survive because LazyFrames owns its own stack.
        assert out[0, 0, 0] == 7.0
        assert np.asarray(lf)[1, 2, 2] == 7.0  # still readable after release
    finally:
        store.cleanup()


@pytest.mark.parametrize(
    "transport, executor", [("process", "thread"), ("process", "process"), ("tcp", "process")]
)
def test_farm_frames_release_balances_the_pool(transport, executor):
    """The farm's final stack is pool-acquired on every transport, so
    releasing a result's frames returns exactly what the run took."""
    from repro.api import RenderRequest, render

    before = default_pool().stats()["n_outstanding"]
    result = render(RenderRequest(
        engine="farm", workload="newton", n_frames=2, width=32, height=24,
        grid_resolution=12, n_workers=2, transport=transport, executor=executor,
    ))
    assert np.asarray(result.frames).shape == (2, 24, 32, 3)
    assert default_pool().stats()["n_outstanding"] == before + 1  # the caller's stack
    result.frames.release()
    assert default_pool().stats()["n_outstanding"] == before
