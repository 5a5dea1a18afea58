"""Telemetry sinks: where emitted records go.

A sink is anything with ``emit(record: dict)``; ``close()`` is optional.
Two are provided: an in-memory buffer (tests, report generation in the
same process) and an append-only JSONL file (the durable event log the
``repro telemetry`` subcommand replays).
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["InMemorySink", "JsonlSink"]


class InMemorySink:
    """Buffers every record in a list (``sink.events``)."""

    def __init__(self):
        self.events: list[dict] = []

    def emit(self, record: dict) -> None:
        self.events.append(record)

    def clear(self) -> None:
        self.events.clear()


class JsonlSink:
    """Appends one compact JSON object per record to a file.

    The file handle is opened lazily on first emit (so constructing a
    telemetry config never litters the filesystem) and flushed per record
    — an interrupted render keeps every event that was reported before
    the crash, which is exactly when you want the log most.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = None

    def emit(self, record: dict) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(record, separators=(",", ":"), sort_keys=True))
        self._fh.write("\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
