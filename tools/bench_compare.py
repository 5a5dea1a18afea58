#!/usr/bin/env python3
"""Compare fresh BENCH_*.json files against committed baselines.

CI regenerates the benchmark JSONs in-place (``benchmarks/results/``), so
a regression is invisible unless something remembers what the numbers
used to be.  The bench-smoke job snapshots the *committed* baselines
before running any benchmark, then calls::

    python tools/bench_compare.py --baseline-dir <snapshot> benchmarks/results

Comparison policy is per metric:

* **determinism metrics** (ray counts, pixel counts, frame and worker
  counts) must match the baseline *exactly* — the whole repository's
  bit-identical-recovery story rests on these, so any drift is a bug (or
  a deliberate change that must re-commit the baseline);
* **timing metrics** (``wall_time``) get a loose relative ceiling
  (default 2.0 = fresh may be up to 3x the baseline) — CI machines are
  noisy, so the gate only catches order-of-magnitude regressions, and
  getting *faster* never fails;
* baselines carry historical ``schema_version`` values (4..N), all of
  which ``validate_bench`` accepts (additive schema: any version up to
  the current one is valid); this tool only compares metric values.

Exit status: 0 when every compared bench passes, 1 on any regression,
2 on usage errors (no benches found).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: metric -> (kind, tolerance).  "exact": values must be equal.  "rel":
#: fresh <= baseline * (1 + tol) passes (one-sided: faster is never a
#: regression).  Metrics absent here default to "exact" — new metrics
#: added to the bench schema are determinism metrics until declared noisy.
TOLERANCES: dict[str, tuple[str, float]] = {
    "wall_time": ("rel", 2.0),
}


def compare_metrics(
    name: str, baseline: dict, fresh: dict, wall_tol: float | None = None
) -> list[str]:
    """Return a list of human-readable regression strings (empty = pass)."""
    problems: list[str] = []
    base_metrics = baseline.get("metrics") or {}
    fresh_metrics = fresh.get("metrics") or {}
    for metric in sorted(base_metrics):
        if metric not in fresh_metrics:
            problems.append(f"{name}: metric {metric!r} missing from fresh run")
            continue
        want, got = base_metrics[metric], fresh_metrics[metric]
        kind, tol = TOLERANCES.get(metric, ("exact", 0.0))
        if kind == "rel" and wall_tol is not None and metric == "wall_time":
            tol = wall_tol
        if kind == "exact":
            if got != want:
                problems.append(
                    f"{name}: {metric} changed {want!r} -> {got!r} (exact-match metric)"
                )
        else:  # "rel", one-sided
            try:
                want_f, got_f = float(want), float(got)
            except (TypeError, ValueError):
                problems.append(f"{name}: {metric} not numeric ({want!r} -> {got!r})")
                continue
            ceiling = want_f * (1.0 + tol)
            if got_f > ceiling:
                problems.append(
                    f"{name}: {metric} regressed {want_f:.3f}s -> {got_f:.3f}s "
                    f"(ceiling {ceiling:.3f}s at +{tol:.0%})"
                )
    return problems


def _load(path: Path) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"bench-compare: cannot read {path}: {exc}", file=sys.stderr)
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_compare",
        description="Gate fresh BENCH_*.json files against committed baselines.",
    )
    parser.add_argument(
        "fresh_dir", type=Path,
        help="directory holding the freshly generated BENCH_*.json files",
    )
    parser.add_argument(
        "--baseline-dir", type=Path, default=Path("benchmarks/results"),
        metavar="DIR",
        help="directory holding the committed baseline BENCH_*.json files "
        "(snapshot it before benches overwrite in place)",
    )
    parser.add_argument(
        "--wall-tol", type=float, default=None, metavar="X",
        help="override the relative wall_time ceiling (default 2.0 = 3x baseline)",
    )
    parser.add_argument(
        "--require", action="append", default=[], metavar="NAME",
        help="fail if BENCH_<NAME>.json is missing from the fresh dir "
        "(repeatable); by default only benches present on both sides compare",
    )
    args = parser.parse_args(argv)

    baselines = {p.name: p for p in sorted(args.baseline_dir.glob("BENCH_*.json"))}
    fresh = {p.name: p for p in sorted(args.fresh_dir.glob("BENCH_*.json"))}
    if not baselines:
        print(f"bench-compare: no baselines in {args.baseline_dir}", file=sys.stderr)
        return 2
    for name in args.require:
        if f"BENCH_{name}.json" not in fresh:
            print(f"bench-compare: required bench {name!r} missing from "
                  f"{args.fresh_dir}", file=sys.stderr)
            return 1

    n_compared = 0
    problems: list[str] = []
    for filename, base_path in baselines.items():
        fresh_path = fresh.get(filename)
        if fresh_path is None:
            print(f"  skip  {filename:<32} (not regenerated this run)")
            continue
        base_doc, fresh_doc = _load(base_path), _load(fresh_path)
        if base_doc is None or fresh_doc is None:
            problems.append(f"{filename}: unreadable")
            continue
        n_compared += 1
        bench_problems = compare_metrics(
            fresh_doc.get("bench", filename), base_doc, fresh_doc, args.wall_tol
        )
        if bench_problems:
            problems.extend(bench_problems)
            print(f"  FAIL  {filename}")
        else:
            base_wall = float((base_doc.get("metrics") or {}).get("wall_time", 0.0))
            fresh_wall = float((fresh_doc.get("metrics") or {}).get("wall_time", 0.0))
            print(f"  ok    {filename:<32} wall {base_wall:.2f}s -> {fresh_wall:.2f}s")

    if not n_compared:
        print("bench-compare: nothing to compare (no overlapping benches)",
              file=sys.stderr)
        return 2
    if problems:
        print(f"\nbench-compare: {len(problems)} regression(s):", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    print(f"bench-compare: {n_compared} bench(es) within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
