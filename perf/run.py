"""Entry point of the performance ledger; see perf/README.md.

    python perf/run.py                 # six workloads at full size, checked
    python perf/run.py --trace         # ... plus the per-layer time budget
    python perf/run.py --workload hold_tcp --seed 3 --seconds 10 --trace 0
"""

import time

T_START = time.perf_counter()  # setup_s counts from here: before any import of the program

import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _adopt_orphans() -> None:
    """Make this process the reaper of every descendant (Linux): a helper a
    child leaves behind is re-parented here, not to init, so
    :func:`_leave_no_process` can wait for it."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _leave_no_process(grace_s: float = 5.0) -> None:
    """Stop every process still below this one and wait until each has ended.

    The one that is always there after a shared-memory run is the
    interpreter's ``multiprocessing.resource_tracker``: it ignores SIGTERM and
    ends only when its pipe closes, which otherwise happens *after* this
    process has exited — too late for anyone to wait for it.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        try:
            tracker._resource_tracker._stop()  # closes the pipe, waits for the helper
        except (AttributeError, OSError, ChildProcessError):
            pass
    deadline = time.monotonic() + grace_s
    signalled = None
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left, living or dead
        if pid:
            continue
        sig = signal.SIGTERM if time.monotonic() < deadline else signal.SIGKILL
        if sig != signalled:
            signalled = sig
            me = str(os.getpid())
            for stat in Path("/proc").glob("[0-9]*/stat"):
                try:
                    if stat.read_text().rsplit(")", 1)[1].split()[1] == me:
                        os.kill(int(stat.parent.name), sig)
                except (OSError, IndexError):
                    pass  # it ended while we were looking
        time.sleep(0.01)


def main() -> int:
    root = Path(__file__).resolve().parents[1]
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perf/run.py: no program to measure under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root / "perf")]
    from ledger.cli import main as ledger_main

    _adopt_orphans()
    try:
        return ledger_main(sys.argv[1:], T_START)
    finally:
        _leave_no_process()


if __name__ == "__main__":
    sys.exit(main())
