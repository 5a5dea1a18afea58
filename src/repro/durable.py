"""All-or-nothing file writes: the one place the package renames a file into place.

A reader of a path this package writes — a resumed farm, a restarted
service, a post-mortem tool — sees either the previous file or the whole
new one, never a torn write, and once the write returns it survives a
power cut.  That is what makes a spooled ``task_NNNN.npz`` the record
that its unit is done, and a job's ``job.json`` the record of its state.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO, Callable

__all__ = ["atomic_write"]


def atomic_write(path: str | Path, data: bytes | Callable[[BinaryIO], object]) -> Path:
    """Replace ``path`` with ``data`` — bytes, or a callable that writes
    them to the binary file it is given.  The bytes go to a unique temp
    file beside ``path``, are flushed and fsync'd, then renamed over it,
    and the directory is fsync'd so the rename itself is durable; on any
    failure before the rename the temp file is removed and ``path`` is
    untouched."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            if callable(data):
                data(fh)
            else:
                fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    return path
