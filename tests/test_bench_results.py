"""Every committed ``BENCH_*.json`` is what the code produces now.

CI's bench gate (``tools/bench_compare.py``) fails when a fresh bench run's
determinism metrics (rays by kind, computed and copied pixels, frame and
worker counts) differ from the committed file's.  A change that moves rays
must therefore regenerate those files; this module recomputes the same
metrics at each file's recorded size, through each bench's own render and
without its timing, and compares them exactly, so a stale file fails here
rather than only in CI.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.api import render
from repro.telemetry import InMemorySink, Telemetry, metrics_from_events, read_events

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"


def _module(path: Path):
    """Import a bench or tool script by path (the benches import their
    ``_bench_utils`` helper as a top-level module)."""
    sys.path.insert(0, str(path.parent))
    try:
        spec = importlib.util.spec_from_file_location(f"_bench_results_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(path.parent))
    return module


#: The metrics ``bench_compare`` gives a tolerance (the timed ones); it
#: gates every other metric exactly.
TOLERANCES = _module(ROOT / "tools" / "bench_compare.py").TOLERANCES


def _exact(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k not in TOLERANCES}


def _smoke(tmp_path):
    smoke = _module(ROOT / "tools" / "bench_smoke.py")
    return metrics_from_events(render(smoke.smoke_request()).events)


def _telemetry_overhead(tmp_path):
    bench = _module(ROOT / "benchmarks" / "bench_telemetry_overhead.py")
    tel = Telemetry(sinks=[InMemorySink()])
    bench._render(tel)
    tel.close()
    return metrics_from_events(tel.sinks[0].events)


def _zerocopy(tmp_path):
    bench = _module(ROOT / "benchmarks" / "bench_zerocopy.py")
    sink = InMemorySink()
    bench.crash_drill(Telemetry(sinks=(sink,)))
    return metrics_from_events(sink.events)


def _service(tmp_path):
    bench = _module(ROOT / "benchmarks" / "bench_service_restart.py")
    job, _wall = bench._run_one(tmp_path / "svc")
    return metrics_from_events(read_events(tmp_path / "svc" / "jobs" / job.job_id / "events.jsonl"))


def _shard(tmp_path):
    bench = _module(ROOT / "benchmarks" / "bench_shard.py")
    committed = json.loads((RESULTS / "BENCH_shard.json").read_text())
    width, height = (int(n) for n in committed["extra"]["resolution"].split("x"))
    m = committed["metrics"]
    return bench.exchange(width, height, m["n_frames"], m["n_workers"])["metrics"]


RECOMPUTE = {
    "smoke": _smoke,
    "telemetry_overhead": _telemetry_overhead,
    "zerocopy": _zerocopy,
    "service": _service,
    "shard": _shard,
}


def test_every_committed_bench_file_is_covered():
    committed = {p.name[len("BENCH_"):-len(".json")] for p in RESULTS.glob("BENCH_*.json")}
    assert committed == set(RECOMPUTE)


@pytest.mark.parametrize("bench", sorted(RECOMPUTE))
def test_committed_bench_metrics_are_current(bench, tmp_path):
    committed = json.loads((RESULTS / f"BENCH_{bench}.json").read_text())["metrics"]
    fresh = RECOMPUTE[bench](tmp_path)
    assert _exact(fresh) == _exact(committed), (
        f"BENCH_{bench}.json is stale: regenerate it with its bench"
    )
