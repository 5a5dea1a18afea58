"""Buffer ownership for the zero-copy data plane.

The paper's aggregate-memory argument assumes pixels move between
workstations cheaply; this module is the ownership layer that makes our
stack honor that.  Three pieces, one contract:

``BufferPool``
    Pinned, recycled numpy arrays for the compositor.  ``acquire`` hands
    out an array keyed by (shape, dtype); ``release`` parks it for the
    next acquirer instead of returning it to the allocator.  Whoever
    acquires owns the buffer until they release it — there is no
    refcounting here, just an explicit hand-back.  A forked process does
    not inherit buffers in pool custody (``MADV_DONTFORK``).

``SharedFrameStore`` / ``FrameRef``
    Frames rendered in a pool worker land directly in a
    :mod:`multiprocessing.shared_memory` segment; only a tiny picklable
    ``FrameRef`` (segment name + shape + dtype) crosses the fork
    boundary, instead of the pickled pixels.  The master attaches the
    segment read-only on first access (``np.asarray(ref)`` works — the
    ref is array-like), and **the master releases**: ``ref.release()``
    closes the mapping and unlinks the segment.  A run-scoped
    ``cleanup()`` sweeps segments whose refs never came home (crashed or
    hung worker).

``copystats``
    A process-wide counter of bulk pixel-byte copies, incremented at
    every site that still memcpys frame data.  ``benchmarks/
    bench_zerocopy.py`` gates on it.

Decoded wire arrays and resolved FrameRefs are **read-only views**; a
consumer that needs to mutate makes its own copy (``np.array(a)``) — the
copy-on-write escape hatch.  See DESIGN §15.
"""

from __future__ import annotations

import mmap
import os
import threading
import uuid
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

import numpy as np

__all__ = [
    "CopyStats",
    "copystats",
    "PoolStats",
    "BufferPool",
    "default_pool",
    "FrameRef",
    "SharedFrameStore",
    "activate_worker_store",
    "worker_store",
    "release_refs",
    "attach_refs",
    "SEGMENT_PREFIX",
]

#: Shared-memory segment name prefix; run cleanup globs on it.
SEGMENT_PREFIX = "reprobuf"


# -- copy accounting ---------------------------------------------------------------
class CopyStats:
    """Process-wide ledger of bulk pixel-byte copies, by site.

    Sites are short dotted names (``encode.contig``, ``assembler.join``,
    …).  Only *frame-sized* copies are counted — metadata shuffling stays
    off the books so the ratio the benchmark gates on reflects the data
    plane, not header bookkeeping.
    """

    __slots__ = ("_lock", "_by_site")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_site: dict[str, int] = {}

    def add(self, nbytes: int, site: str) -> None:
        if nbytes <= 0:
            return
        with self._lock:
            self._by_site[site] = self._by_site.get(site, 0) + int(nbytes)

    def total(self) -> int:
        with self._lock:
            return sum(self._by_site.values())

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._by_site)

    def reset(self) -> None:
        with self._lock:
            self._by_site.clear()


#: The one process-wide instance every copy site reports to.
copystats = CopyStats()


# -- pooled buffers ----------------------------------------------------------------
class PoolStats:
    """Counters a :class:`BufferPool` keeps (read via ``pool.stats()``)."""

    __slots__ = ("n_acquired", "n_hits", "n_misses", "n_released", "bytes_pooled")

    def __init__(self) -> None:
        self.n_acquired = 0
        self.n_hits = 0
        self.n_misses = 0
        self.n_released = 0
        self.bytes_pooled = 0

    @property
    def n_outstanding(self) -> int:
        return self.n_acquired - self.n_released

    def as_dict(self) -> dict[str, int]:
        return {
            "n_acquired": self.n_acquired,
            "n_hits": self.n_hits,
            "n_misses": self.n_misses,
            "n_released": self.n_released,
            "n_outstanding": self.n_outstanding,
            "bytes_pooled": self.bytes_pooled,
        }


_DONTFORK = getattr(mmap, "MADV_DONTFORK", None)  # None off Linux: children inherit
_DOFORK = getattr(mmap, "MADV_DOFORK", None)


def _advise(arr: np.ndarray, advice) -> None:
    # Only the mappings acquire() made itself are advised.
    if advice is not None and isinstance(arr.base, mmap.mmap):
        arr.base.madvise(advice)


class BufferPool:
    """Recycled numpy arrays keyed by (shape, dtype).

    ``acquire`` pops a parked buffer when one fits (``zero=True`` blanks
    it — a fill, not a copy) and maps a fresh DONTFORK one otherwise;
    ``release`` parks the array for reuse unless the pool is already
    holding ``max_bytes``.  Thread-safe; the dfb compositor releases
    from callback context.
    """

    def __init__(self, max_bytes: int = 256 << 20) -> None:
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._free: dict[tuple, list[np.ndarray]] = {}
        self._stats = PoolStats()

    @staticmethod
    def _key(shape, dtype) -> tuple:
        return (tuple(int(d) for d in shape), np.dtype(dtype).str)

    def acquire(self, shape, dtype=np.float64, *, zero: bool = False) -> np.ndarray:
        key = self._key(shape, dtype)
        with self._lock:
            self._stats.n_acquired += 1
            bucket = self._free.get(key)
            arr = bucket.pop() if bucket else None
            if arr is not None:
                self._stats.n_hits += 1
                self._stats.bytes_pooled -= arr.nbytes
            else:
                self._stats.n_misses += 1
        if arr is None:
            nbytes = max(1, int(np.prod(key[0], dtype=np.int64)) * np.dtype(dtype).itemsize)
            mem = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
            arr = np.ndarray(key[0], dtype, buffer=mem)
            _advise(arr, _DONTFORK)
        if zero:
            arr.fill(0)
        return arr

    @staticmethod
    def hand_over(arr: np.ndarray) -> np.ndarray:
        """``arr`` leaves pool custody: a process its caller forks may read
        it (``MADV_DOFORK``) until :meth:`release` takes it back."""
        _advise(arr, _DOFORK)
        return arr

    def release(self, arr: np.ndarray) -> bool:
        """Park ``arr`` for reuse; returns False when dropped (pool full
        or the array isn't poolable — non-contiguous views stay out)."""
        if not isinstance(arr, np.ndarray) or not arr.flags.c_contiguous:
            with self._lock:
                self._stats.n_released += 1
            return False
        if not arr.flags.writeable:  # never recycle a read-only view's storage
            with self._lock:
                self._stats.n_released += 1
            return False
        key = self._key(arr.shape, arr.dtype)
        with self._lock:
            self._stats.n_released += 1
            if self._stats.bytes_pooled + arr.nbytes > self.max_bytes:
                return False
            _advise(arr, _DONTFORK)
            self._free.setdefault(key, []).append(arr)
            self._stats.bytes_pooled += arr.nbytes
        return True

    def stats(self) -> dict[str, int]:
        with self._lock:
            return self._stats.as_dict()

    def clear(self) -> None:
        with self._lock:
            self._free.clear()
            self._stats.bytes_pooled = 0


_DEFAULT_POOL = BufferPool()


def _empty_pool_after_fork() -> None:
    # Parked buffers are not mapped in a child; another thread may have held the lock.
    _DEFAULT_POOL._lock = threading.Lock()
    _DEFAULT_POOL.clear()


os.register_at_fork(after_in_child=_empty_pool_after_fork)


def default_pool() -> BufferPool:
    """The process-wide compositor pool (dfb uses it unless handed one)."""
    return _DEFAULT_POOL


# -- shared-memory frames ----------------------------------------------------------
def _untrack(shm_name: str) -> None:
    """Opt a segment out of the resource tracker's auto-unlink.

    CPython's tracker registers shared memory on *attach* as well as
    create (bpo-39959), so without this every process that ever touched
    a segment tries to unlink it at exit and warns about leaks.  Lifetime
    is ours: the releasing side unlinks, ``cleanup`` sweeps strays.
    """
    try:
        resource_tracker.unregister("/" + shm_name.lstrip("/"), "shared_memory")
    except Exception:  # noqa: BLE001 — tracker internals vary; never fatal
        pass


_SHM_DIR = Path("/dev/shm")


def _unlink_segment(name: str) -> None:
    """Remove a segment by name without touching the resource tracker.

    ``SharedMemory.unlink()`` unregisters with the tracker as a side
    effect, which double-unregisters against :func:`_untrack` and makes
    the tracker process log a KeyError.  On Linux a POSIX segment is a
    file under ``/dev/shm`` — unlink it directly.
    """
    if _SHM_DIR.is_dir():
        try:
            (_SHM_DIR / name).unlink()
        except OSError:
            pass  # already unlinked by whoever released it first
        return
    try:  # non-Linux fallback: attach registers once, unlink unregisters once
        tmp = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return
    try:
        tmp.unlink()
    finally:
        tmp.close()


def _close_quietly(shm) -> None:
    """Close a mapping; if a view still aliases it, neuter the handle so
    the eventual ``__del__`` retry can't print an unraisable error."""
    try:
        shm.close()
    except (BufferError, ValueError):
        shm._buf = None  # noqa: SLF001 — abandon, GC reaps the mmap
        shm._mmap = None  # noqa: SLF001


class FrameRef:
    """Picklable handle to frames parked in a shared-memory segment.

    Workers return this instead of the pixels.  It is array-like —
    ``np.asarray(ref)`` attaches the segment and yields a **read-only**
    view, so validators and compositors consume it exactly like the
    ndarray it replaces.  Ownership: the consumer that accepted the
    result calls :meth:`release` (close + unlink) once the pixels have
    been folded into the output; :meth:`release` is idempotent.
    """

    __slots__ = ("name", "shape", "dtype", "released", "_shm", "_view")

    def __init__(self, name: str, shape: tuple, dtype: str) -> None:
        self.name = name
        self.shape = tuple(int(d) for d in shape)
        self.dtype = str(dtype)
        self.released = False
        self._shm = None
        self._view = None

    @property
    def nbytes(self) -> int:
        n = np.dtype(self.dtype).itemsize
        for dim in self.shape:
            n *= dim
        return n

    # Only the address crosses the pickle boundary — that is the point.
    def __getstate__(self):
        return (self.name, self.shape, self.dtype, self.released)

    def __setstate__(self, state):
        self.name, self.shape, self.dtype, self.released = state
        self._shm = None
        self._view = None

    def _adopt(self, shm) -> np.ndarray:
        """Wrap an already-open segment (create side); view is writable."""
        self._shm = shm
        view = np.ndarray(self.shape, dtype=np.dtype(self.dtype), buffer=shm.buf)
        self._view = view
        return view

    def resolve(self) -> np.ndarray:
        """Attach (cached) and return the frames as a read-only view."""
        if self.released:
            raise ValueError(f"FrameRef {self.name} used after release")
        if self._view is None:
            shm = shared_memory.SharedMemory(name=self.name)
            _untrack(shm._name)  # noqa: SLF001 — tracker wants the slashed name
            self._shm = shm
            view = np.ndarray(self.shape, dtype=np.dtype(self.dtype), buffer=shm.buf)
            view.setflags(write=False)
            self._view = view
        return self._view

    def __array__(self, dtype=None, copy=None):
        view = self.resolve()
        if dtype is not None and np.dtype(dtype) != view.dtype:
            return view.astype(dtype)
        if copy:
            return view.copy()
        return view

    def release(self) -> None:
        """Close the mapping and unlink the segment.  Idempotent; unlink
        races (cleanup already swept it) are fine."""
        if self.released:
            return
        self.released = True
        shm, self._shm, self._view = self._shm, None, None
        if shm is not None:
            _close_quietly(shm)
        _unlink_segment(self.name)

    def mutate(self, fn) -> None:
        """Re-attach the segment writable and apply ``fn(array)`` to it.

        Exists for fault injection (a worker scribbling garbage into the
        frames it already handed over); the data plane proper only ever
        resolves read-only views.
        """
        shm = shared_memory.SharedMemory(name=self.name)
        _untrack(shm._name)  # noqa: SLF001
        try:
            arr = np.ndarray(self.shape, dtype=np.dtype(self.dtype), buffer=shm.buf)
            fn(arr)
            del arr
        finally:
            _close_quietly(shm)

    def close_local(self) -> None:
        """Drop this process's mapping without unlinking (worker side)."""
        shm, self._shm, self._view = self._shm, None, None
        if shm is not None:
            _close_quietly(shm)

    def __repr__(self) -> str:
        state = "released" if self.released else "live"
        return f"FrameRef({self.name!r}, shape={self.shape}, dtype={self.dtype!r}, {state})"


class SharedFrameStore:
    """One run's family of shared-memory frame segments.

    The master mints the run token (led by its pid, so a check can tell its
    segments from another process's) and hands it to pool workers through
    the initializer; workers ``create`` segments and render into them.  At run end the master calls
    :meth:`cleanup` to unlink anything a released ref didn't already —
    segments leaked by a crashed worker, or written by a hung one whose
    result never came home.
    """

    def __init__(self, token: str | None = None) -> None:
        self.token = token or f"{os.getpid()}x{uuid.uuid4().hex[:8]}"
        self._lock = threading.Lock()
        self._seq = 0

    def create(self, shape, dtype=np.float64) -> tuple[FrameRef, np.ndarray]:
        """A fresh segment sized for ``shape``; returns (ref, writable view)."""
        dt = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        with self._lock:
            self._seq += 1
            seq = self._seq
        name = f"{SEGMENT_PREFIX}_{self.token}_{os.getpid()}_{seq}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=max(1, nbytes))
        _untrack(shm._name)  # noqa: SLF001
        ref = FrameRef(name, tuple(shape), dt.str)
        view = ref._adopt(shm)  # noqa: SLF001 — store and ref are one layer
        return ref, view

    def cleanup(self) -> int:
        """Unlink this run's leftover segments; returns how many."""
        shm_dir = Path("/dev/shm")
        if not shm_dir.is_dir():  # non-POSIX: nothing to sweep by name
            return 0
        swept = 0
        for path in shm_dir.glob(f"{SEGMENT_PREFIX}_{self.token}_*"):
            try:
                path.unlink()
                swept += 1
            except OSError:
                pass  # released between the glob and the unlink: not a straggler
        return swept


# -- worker-side activation --------------------------------------------------------
_WORKER_STORE: SharedFrameStore | None = None


def activate_worker_store(token: str | None) -> None:
    """Install (or clear) the store render tasks allocate from.

    Called from the pool initializer with the master's run token; a
    ``None`` token (thread executor, serial degrade, TCP worker daemons)
    leaves tasks returning plain ndarrays.
    """
    global _WORKER_STORE
    _WORKER_STORE = SharedFrameStore(token) if token else None


def worker_store() -> SharedFrameStore | None:
    return _WORKER_STORE


# -- result traversal helpers ------------------------------------------------------
def _walk_refs(obj, depth: int = 0):
    if isinstance(obj, FrameRef):
        yield obj
    elif depth < 3 and isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _walk_refs(item, depth + 1)


def attach_refs(result) -> None:
    """Resolve every FrameRef in a task result (master side, at accept).

    Attaching before the run's cleanup sweep means a later unlink cannot
    strand the consumer: POSIX keeps an attached segment's memory alive
    until the last mapping closes.
    """
    for ref in _walk_refs(result):
        ref.resolve()


def release_refs(results) -> int:
    """Release every FrameRef found in an iterable of task results."""
    n = 0
    for result in results or ():
        for ref in _walk_refs(result):
            ref.release()
            n += 1
    return n
