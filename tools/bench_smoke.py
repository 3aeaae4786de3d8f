#!/usr/bin/env python
"""Smoke-run the seven ingestion/serving-seam benchmarks at tiny scale.

CI cannot gate on benchmark *ratios* — on a shared 1-CPU runner the
measured speedups are noise (the bench-box convention: gate on execution,
report ratios informationally).  What CI *can* gate on is that every
benchmark still runs end to end and emits a well-formed ``BENCH_*.json``:
imports resolve, streams build, samplers ingest, internal bit-identity and
exact-count assertions hold, and the report schema the README documents is
intact.

Each benchmark is executed as a subprocess with ``REPRO_BENCH_SCALE`` (a
proportional shrink of stream lengths and the boundary-sensitive knobs —
default 0.02, ~60 s total) and one repeat per mode; the emitted JSON is then
loaded and checked for its headline keys.  The BENCH files land in the
working directory exactly as a full ``make bench`` would write them, so a CI
job can upload them as artifacts.

Usage:  python tools/bench_smoke.py [--scale 0.02]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: benchmark script -> (emitted report, keys that must be present and
#: non-null).
BENCHMARKS = {
    "benchmarks/bench_batch_ingest.py": (
        "BENCH_batch_ingest.json",
        ("benchmark", "n_tuples", "modes", "best_speedup"),
    ),
    "benchmarks/bench_shard_ingest.py": (
        "BENCH_shard_ingest.json",
        ("benchmark", "n_tuples", "modes", "speedup", "cyclic"),
    ),
    "benchmarks/bench_rebalance.py": (
        "BENCH_rebalance.json",
        ("benchmark", "n_tuples", "modes", "speedup", "async_transport"),
    ),
    "benchmarks/bench_fanout.py": (
        "BENCH_fanout.json",
        ("benchmark", "n_tuples", "backends", "ratio_independent_over_fanout_critical"),
    ),
    "benchmarks/bench_gauntlet.py": (
        "BENCH_gauntlet.json",
        ("benchmark", "scenarios", "modes", "matrix", "cells_passed"),
    ),
    "benchmarks/bench_serving.py": (
        "BENCH_serving.json",
        (
            "benchmark",
            "n_tuples",
            "modes",
            "reader_throughput_per_s",
            "p99_read_latency_ms",
            "writer_wall_seconds",
        ),
    ),
    "benchmarks/bench_turnstile.py": (
        "BENCH_turnstile.json",
        (
            "benchmark",
            "n_tuples",
            "n_retractions",
            "retraction_fraction",
            "surviving_check",
            "modes",
        ),
    ),
}

#: report -> {mode row -> fields that must be present and non-null}.  Mode
#: rows carry the *measured* figures (no placeholders allowed): the parallel
#: row must report the worker pool's startup cost, per-worker busy seconds
#: and its overhead over the serial sharded total.  Values are still never
#: thresholded here — ratios stay informational.
MODE_FIELDS = {
    "BENCH_shard_ingest.json": {
        "sharded_critical_path": ("partition_seconds", "shard_seconds"),
        "sharded_parallel_wall": (
            "seconds",
            "pool_startup_seconds",
            "worker_busy_seconds",
            "overhead_over_serial_total",
        ),
    },
    "BENCH_serving.json": {
        "writer_baseline": ("writer_wall_seconds", "tuples_per_second"),
        "served_threads": (
            "writer_wall_seconds",
            "writer_overhead_over_baseline",
            "reader_throughput_per_s",
            "p50_read_latency_ms",
            "p99_read_latency_ms",
            "epochs",
            "snapshots_taken",
        ),
        "served_asyncio": (
            "writer_wall_seconds",
            "reader_throughput_per_s",
            "p99_read_latency_ms",
            "max_queue_depth",
            "epochs",
        ),
    },
    "BENCH_turnstile.json": {
        "insert_only_batched": ("seconds", "tuples_per_second"),
        "turnstile_batched": (
            "seconds",
            "tuples_per_second",
            "retraction_tax",
            "deletes_applied",
            "evictions",
            "refills",
        ),
        "windowed_batched": ("seconds", "tuples_per_second", "expirations", "window"),
        "turnstile_sharded": ("seconds", "tuples_per_second", "num_shards"),
    },
}


def run_one(script: str, report: str, required_keys, scale: float) -> None:
    env = dict(os.environ)
    env["REPRO_BENCH_SCALE"] = str(scale)
    env["REPRO_BENCH_REPEATS"] = "1"
    env["PYTHONPATH"] = f"src{os.pathsep}{env['PYTHONPATH']}" if env.get("PYTHONPATH") else "src"
    print(f"[bench-smoke] {script} (scale={scale}) ...", flush=True)
    completed = subprocess.run(
        [sys.executable, script], cwd=REPO_ROOT, env=env,
        capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"[bench-smoke] FAILED: {script} exited {completed.returncode}")
    check_report(script, report, required_keys)


def check_report(script: str, report: str, required_keys) -> None:
    path = REPO_ROOT / report
    if not path.exists():
        raise SystemExit(f"[bench-smoke] FAILED: {script} did not emit {report}")
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise SystemExit(f"[bench-smoke] FAILED: {report} is not valid JSON: {error}")
    missing = [key for key in required_keys if document.get(key) is None]
    if missing:
        raise SystemExit(f"[bench-smoke] FAILED: {report} is missing keys {missing}")
    # "modes" is a list of row dicts in the seam benchmarks but a list of
    # mode *names* in the gauntlet report; only dict rows carry fields.
    rows = {
        row.get("mode"): row
        for row in document.get("modes") or []
        if isinstance(row, dict)
    }
    for mode, fields in MODE_FIELDS.get(report, {}).items():
        row = rows.get(mode)
        if row is None:
            raise SystemExit(
                f"[bench-smoke] FAILED: {report} has no {mode!r} mode row"
            )
        gaps = [field for field in fields if row.get(field) is None]
        if gaps:
            raise SystemExit(
                f"[bench-smoke] FAILED: {report} mode {mode!r} is missing "
                f"measured fields {gaps}"
            )
    print(f"[bench-smoke] ok: {report} ({path.stat().st_size} bytes)", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", type=float, default=0.02,
        help="REPRO_BENCH_SCALE passed to every benchmark (default 0.02)",
    )
    args = parser.parse_args()
    for script, (report, required_keys) in BENCHMARKS.items():
        run_one(script, report, required_keys, args.scale)
    print(f"[bench-smoke] all {len(BENCHMARKS)} seam benchmarks executed and "
          "emitted valid JSON (ratios at this scale are informational only)")


if __name__ == "__main__":
    main()
