"""Command line of the ledger: the full run, one workload, the A/A check."""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from .metrics import END_TO_END, GATED, PER_LAYER
from .workloads import WORKLOADS

PERF_DIR = Path(__file__).resolve().parents[1]
RESULTS = PERF_DIR / "results"
AA_SEEDS = range(1, 11)  # the benchmark driver judges steadiness over ten seeds, twice
_UNIT = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}
_LAYER_ROWS = ("render", "accel", "coherence", "sched", "runtime", "buffers", "net", "dfb",
               "shard", "telemetry", "api", "residual")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="perf/run.py",
        description="Layered performance ledger: six workloads, end-to-end metrics, "
        "a per-layer time budget.  Without --workload, runs the full ledger.",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="0 = the paper's canonical scene; any other seed perturbs it")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="also run traced requests and print the per-layer metrics")
    led = p.add_argument_group("the ledger (all workloads, full size)")
    led.add_argument("--repeats", type=int, help="timed requests per workload (default: 3 or 5)")
    led.add_argument("--quick", action="store_true",
                     help="the gate sizes instead of the full ones, one set-up sample")
    led.add_argument("--only", help="comma-separated workload names")
    led.add_argument("--aa", action="store_true",
                     help="the driver's steadiness check: ten seeds per workload, twice")
    one = p.add_argument_group("one workload (the benchmark driver's contract)")
    one.add_argument("--workload", choices=sorted(WORKLOADS))
    one.add_argument("--seconds", type=float,
                     help="time-box the timed loop (default: run_seconds of BENCHMARK.json)")
    # what a ledger run tells its own child processes, as one JSON object
    one.add_argument("--child", type=json.loads, default={}, help=argparse.SUPPRESS)
    return p


def _benchmark() -> dict:
    return json.loads((PERF_DIR.parent / "BENCHMARK.json").read_text())


# -- one workload ------------------------------------------------------------------------
def _contract_line(record: dict, trace: bool) -> str:
    values = record["per_layer"] if trace else record["end_to_end"]
    names = [m.name for m in (PER_LAYER if trace else GATED)]
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": values[n], "unit": _UNIT[n]} for n in names},
    })


def _print_record(record: dict) -> None:
    d = record["dims"]
    print(f"== {record['workload']}  ({record['size']} {d['width']}x{d['height']}x"
          f"{d['n_frames']}, seed {record['seed']}; {record['n_samples']} timed"
          f"{', %d traced' % record['n_traced'] if record['n_traced'] else ''})")
    counts = {"setup_s": record["n_setup_samples"], "frame_p50_ms": record["n_gap_samples"],
              "frame_p90_ms": record["n_gap_samples"]}
    for m in END_TO_END:
        if m.name not in record["end_to_end"]:
            continue
        n = counts.get(m.name, record["n_samples"])
        line = f"  {m.name:<22}{record['end_to_end'][m.name]:>16.6g} {m.unit:<9}(n={n}"
        spread = record["samples"].get(m.name)
        if spread and len(spread) > 1:
            stat = "median" if m.name in ("setup_s", "rays_total") else "fastest"
            line += f"; {stat} of {min(spread):.6g} .. {max(spread):.6g}"
        print(line + ")")
    print(f"  frames: {record['attempted']} checked, {record['failed']} failed; "
          f"sha256 {record['frames_sha256'][:16]}; "
          f"rays repeat exactly: {record['rays_repeat_exactly']}")
    for m in PER_LAYER if "per_layer" in record else ():
        line = f"  {m.name:<32}{record['per_layer'][m.name]:>16.6g} {m.unit}"
        pairs = record["samples"].get(m.name)
        if pairs:
            line += f"  (n={len(pairs)}; {min(pairs):.3g} .. {max(pairs):.3g})"
        print(line)


def _one_workload(args, t_start: float) -> int:
    """The driver's contract: gate size, time-boxed, two extra set-up
    samples.  A ledger run overrides those through ``--child``."""
    from . import measure

    child = args.child
    size = child.get("size", "gate")
    if child.get("setup_only"):
        print(measure.setup_only(args.workload, args.seed, size, t_start))
        return 0
    repeats = child.get("repeats")
    seconds = None
    if repeats is None:
        seconds = args.seconds or float(_benchmark()["run_seconds"])
    record = measure.run_workload(
        args.workload, seed=args.seed, size=size, repeats=repeats, seconds=seconds,
        trace=bool(args.trace), probes=child.get("probes", 2),
        ref_dir=Path(child["ref_dir"]) if "ref_dir" in child else None, t_start=t_start,
    )
    spans = record.pop("spans", None)
    if spans is not None:
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"trace_{record['workload']}.json").write_text(json.dumps(spans))
    if "out" in child:
        Path(child["out"]).write_text(json.dumps(record))
    _print_record(record)
    print(_contract_line(record, bool(args.trace)))
    return 0 if record["correct"] else 1


# -- the ledger --------------------------------------------------------------------------
def fingerprint() -> dict:
    import numpy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def _run_child(name: str, seed: int, trace: int, child: dict) -> dict:
    """One workload in its own child process; returns its record."""
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        out = Path(tmp) / "record.json"
        cmd = [sys.executable, str(PERF_DIR / "run.py"), "--workload", name,
               "--seed", str(seed), "--trace", str(trace),
               "--child", json.dumps({**child, "out": str(out)})]
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        if not out.exists():
            raise RuntimeError(f"{name}: child exited {done.returncode} with no record")
        return json.loads(out.read_text())


def _run_ledger(args, names: list) -> dict:
    """One record per workload, one after the other; the Newton workloads
    share newton_serial's frames as their reference through ``ref_dir``."""
    ref_dir = RESULTS / "cache"
    shutil.rmtree(ref_dir, ignore_errors=True)
    child = {"size": "gate" if args.quick else "full", "probes": 0 if args.quick else 2,
             "ref_dir": str(ref_dir)}
    records = {}
    try:
        for name in names:
            repeats = args.repeats or WORKLOADS[name].repeats
            records[name] = _run_child(name, args.seed, args.trace, {**child, "repeats": repeats})
            _print_record(records[name])
    finally:
        shutil.rmtree(ref_dir, ignore_errors=True)
    return records


def layers_markdown(records: dict, fp: dict) -> str:
    """The one table: rows = layers, columns = workloads, cells = harness-side
    self seconds and % of the traced request's wall, plus the residual row."""
    names = [n for n in records if "layer_self_s" in records[n]]
    sizes = ", ".join(sorted({records[n]["size"] for n in names}))
    lines = [
        "# Where the wall clock goes", "",
        f"Machine: {fp['nproc']} cores, {fp['cpu_model']}, python {fp['python']}, "
        f"numpy {fp['numpy']}.  Sizes: {sizes}.  The last traced request of each workload; "
        "cells are self seconds in the harness process and their share of that request's "
        "wall.  On the farm workloads the harness is the master: its `net`/`runtime` rows "
        "include the time it waits for workers, whose own busy time is the last rows.", "",
        "| layer | " + " | ".join(names) + " |",
        "|---|" + "---:|" * len(names),
    ]
    for layer in (*_LAYER_ROWS, "wall"):
        cells = []
        for n in names:
            table = records[n]["layer_self_s"]
            secs = table.get(layer, 0.0)
            cells.append(f"{secs:.2f} s" if layer == "wall" else
                         f"{secs:.2f} s ({100 * secs / table['wall']:.1f} %)" if secs else "–")
        lines.append(f"| {layer} | " + " | ".join(cells) + " |")
    for label, key, fmt in (
        ("workers busy (telemetry)", "runtime.worker_busy_s", "{:.2f} s"),
        ("parallel efficiency", "runtime.parallel_eff", "{:.2f}"),
        ("work inflation (cpu / serial cpu)", "runtime.work_inflation", "{:.2f}x"),
        ("rays", "rays_total", "{:,.0f}"),
        ("wall_s (fastest untraced request)", "wall_s", "{:.2f} s"),
        ("cpu_s (fastest untraced request)", "cpu_s", "{:.2f} s"),
    ):
        cells = [
            fmt.format(records[n]["per_layer"].get(key, records[n]["end_to_end"].get(key, 0.0)))
            for n in names
        ]
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n" + _facts(records)


def _facts(records: dict) -> str:
    """The sizing facts the issue quoted, recomputed from this run."""

    def pct(name: str, *spans: str) -> float:
        own, wall = records[name]["span_self_s"], records[name]["layer_self_s"]["wall"]
        return 100.0 * sum(own.get(s, 0.0) for s in spans) / wall

    marks = ("coherence.add_marks", "coherence.remove_pixels", "coherence.replace_pixel_marks",
             "accel.traverse")
    kernel = ("render.trace_pixels", "render.nearest", "render.shadow_attenuation")
    lines = ["", "## What this run shows", ""]
    if "newton_serial" in records and "span_self_s" in records["newton_serial"]:
        n = "newton_serial"
        lines.append(
            f"* `{n}`: {pct(n, *marks):.0f} % of wall is mark bookkeeping "
            f"(`VoxelPixelMap.add_marks` {pct(n, marks[0]):.1f} % + `remove_pixels` "
            f"{pct(n, marks[1]):.1f} % + DDA marking {pct(n, marks[3]):.1f} %) against "
            f"{pct(n, *kernel):.0f} % in the tracer.")
    if "orbit_serial" in records and "span_self_s" in records["orbit_serial"]:
        lines.append(
            f"* `orbit_serial`: {pct('orbit_serial', *marks):.0f} % of wall records marks no "
            "later frame can use (every frame is its own one-frame coherent range).")
    for name, label in (("newton_blocks_proc", "demand-driven frame division"),
                        ("newton_seq_tcp", "sequence division over TCP"),
                        ("hold_tcp", "a held shot over TCP"),
                        ("newton_shard_tcp", "object-space division over TCP")):
        r = records.get(name)
        if not r or "serial" not in r:
            continue
        e2e, layer = r["end_to_end"], r["per_layer"]
        lines.append(
            f"* `{name}` ({label}): {e2e['wall_s']:.1f} s on 2 workers vs "
            f"{r['serial']['wall_s']:.1f} s serial "
            f"({r['serial']['wall_s'] / e2e['wall_s']:.2f}x), {e2e['cpu_s']:.1f} CPU-s vs "
            f"{r['serial']['cpu_s']:.1f} ({layer['runtime.work_inflation']:.2f}x), "
            f"{e2e['rays_total']:,.0f} rays"
            + (f" ({e2e['rays_total'] / r['serial']['rays_total'] - 1:+.0%} on serial)"
               if r["serial"]["n_frames"] == r["dims"].get("frames", r["dims"]["n_frames"])
               else "")
            + (f", {layer['coherence.fixed_ms_per_frame']:.0f} ms per held frame"
               if layer["coherence.fixed_ms_per_frame"] else "")
            + (f"; rays did not repeat between requests ({min(r['samples']['rays_total']):,.0f}"
               f" .. {max(r['samples']['rays_total']):,.0f}: timing-dependent tail steals)"
               if not r["rays_repeat_exactly"] else "") + ".")
    return "\n".join(lines) + "\n"


def _save(records: dict, fp: dict, args) -> None:
    doc = {"fingerprint": fp, "seed": args.seed, "quick": args.quick,
           "unix_time": time.time(), "workloads": records}
    (RESULTS / "latest.json").write_text(json.dumps(doc, indent=1))
    if args.trace:
        (RESULTS / "latest_layers.md").write_text(layers_markdown(records, fp))


# -- the A/A noise floor -----------------------------------------------------------------
def _spread(values: list) -> float:
    """Interquartile distance as a share of the median: the driver's measure."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _noise_floor(names: list) -> tuple:
    """What the benchmark driver does before it accepts the benchmark: every
    workload through the contract path (gate size, ``run_seconds``) on ten
    seeds, twice.  Each round's ten-seed spread and the second round's median
    against the first must stay within the metric's bound (``setup_s``: the
    median only); the same seed must trace the same rays to the same pixels."""
    bounds = {m["name"]: m["bound"] for m in _benchmark()["end_to_end"]}
    rows, ok = {}, True
    for name in names:
        t0 = time.perf_counter()
        a, b = ([_run_child(name, seed, 0, {}) for seed in AA_SEEDS] for _ in "ab")
        run_s = (time.perf_counter() - t0) / (2 * len(AA_SEEDS))
        exact = all(
            ra["correct"] and rb["correct"]
            and ra["frames_sha256"] == rb["frames_sha256"]
            and ra["rays_repeat_exactly"] and rb["rays_repeat_exactly"]
            and ra["end_to_end"]["rays_total"] == rb["end_to_end"]["rays_total"]
            for ra, rb in zip(a, b)
        )
        rows[name] = {"exact": {"agrees": exact}, "mean_run_s": run_s}
        ok &= exact
        print(f"== {name}: {run_s:.1f} s per run; frames and rays of every seed repeat "
              f"exactly: {exact}")
        for metric, bound in bounds.items():
            va, vb = ([r["end_to_end"][metric] for r in records] for records in (a, b))
            row = {"a": va, "b": vb, "median_a": statistics.median(va),
                   "median_b": statistics.median(vb), "spread_a": _spread(va),
                   "spread_b": _spread(vb), "bound": bound}
            row["b_worse_by"] = row["median_b"] / row["median_a"] - 1.0
            widest = 0.0 if metric == "setup_s" else max(row["spread_a"], row["spread_b"])
            row["agrees"] = widest <= bound and row["b_worse_by"] <= bound
            rows[name][metric] = row
            ok &= row["agrees"]
            print(f"  {metric:<16} median {row['median_a']:>11.6g} -> {row['median_b']:<11.6g}"
                  f" ({row['b_worse_by']:+.2%})  spread {row['spread_a']:6.2%} / "
                  f"{row['spread_b']:6.2%}  bound {bound:.0%}"
                  f"{'' if row['agrees'] else '  DISAGREES'}")
    return rows, ok


def main(argv: list, t_start: float) -> int:
    args = _parser().parse_args(argv)
    sys.stdout.reconfigure(line_buffering=True)  # a ledger run takes minutes: show it as it goes
    if args.workload:
        return _one_workload(args, t_start)
    names = args.only.split(",") if args.only else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {unknown}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    fp = fingerprint()
    print("machine:", json.dumps(fp))
    if args.aa:
        rows, ok = _noise_floor(names)
        (RESULTS / "noise_floor.json").write_text(json.dumps(
            {"fingerprint": fp, "seeds": list(AA_SEEDS), "agree": ok, "workloads": rows},
            indent=1))
        print("A/A:", "agree" if ok else "DISAGREE")
        return 0 if ok else 1
    records = _run_ledger(args, names)
    ok = all(r["correct"] for r in records.values())
    _save(records, fp, args)
    print("ok" if ok else "FAILED")
    return 0 if ok else 1
