"""Microbenchmark: sharded vs unsharded batched ingestion + cyclic bulk path.

Acceptance benchmark for the sharded ingestion subsystem and the cyclic bulk
path, on the same chain-3 workload as ``bench_batch_ingest.py``:

* **Sharded** — a 4-shard :class:`repro.ShardedIngestor` against the
  unsharded :class:`repro.BatchIngestor` fast path.  Shards share no mutable
  state, so the headline figure is the *critical path*: partitioning cost
  plus the slowest shard's ingestion time, i.e. the wall-clock of a
  one-worker-per-shard deployment.  The single-thread serial total and the
  measured steady-state ``ingest_parallel`` wall clock (persistent worker
  pool started outside the timed region; spawn cost reported separately)
  are reported alongside, so nothing is hidden: on a single-CPU box the
  serial sharded total is *slower* than unsharded (broadcast relations are
  replicated per shard); the subsystem pays off exactly when the shards
  actually run in parallel.  Headline criterion: critical-path speedup
  ≥ 1.5× with 4 shards; the pool's IPC tax (parallel wall over serial
  sharded total) should stay near 1× on a single core.
* **Cyclic bulk** — ``CyclicReservoirJoin.insert_batch`` (grouped bag-index
  updates + whole-batch skips) against the per-tuple cyclic path on the same
  stream.  Criterion: ≥ 2×.

Emits ``BENCH_shard_ingest.json`` in the current working directory.

Run with:  python benchmarks/bench_shard_ingest.py
"""

from __future__ import annotations

import gc
import json
import os
import random
import time
from typing import Dict, List

from repro.bench.harness import run_sampler_sharded
from repro.core.reservoir_join import ReservoirJoin
from repro.cyclic.cyclic_join import CyclicReservoirJoin
from repro.ingest.batch import BatchIngestor
from repro.ingest.shard import ShardedIngestor
from repro.relational.query import JoinQuery
from repro.relational.stream import StreamTuple

#: CI smoke knob (see ``bench_batch_ingest.py``): shrink everything
#: proportionally so ``make bench-smoke`` can assert execution + valid JSON.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))
N_TUPLES = max(600, int(50_000 * SCALE))
N_TUPLES_CYCLIC = max(400, int(20_000 * SCALE))
SAMPLE_SIZE = 1_000
DOMAIN = 4_000
CHUNK_SIZE = max(128, int(8_192 * SCALE))
NUM_SHARDS = 4
#: Repeats per mode; the *minimum* is reported (least-noise estimate).
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
SEED = 2024
TARGET_SPEEDUP_SHARDED = 1.5
TARGET_SPEEDUP_CYCLIC = 2.0


def chain3_query() -> JoinQuery:
    return JoinQuery.from_spec(
        "chain-3", {"R1": ["x1", "x2"], "R2": ["x2", "x3"], "R3": ["x3", "x4"]}
    )


def make_stream(n: int, seed: int = SEED) -> List[StreamTuple]:
    rng = random.Random(seed)
    relations = ["R1", "R2", "R3"]
    return [
        StreamTuple(relations[i % 3], (rng.randrange(DOMAIN), rng.randrange(DOMAIN)))
        for i in range(n)
    ]


def timed(run) -> float:
    """Best-effort clean timing: GC paused, wall clock."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        run()
        return time.perf_counter() - start
    finally:
        gc.enable()


# --------------------------------------------------------------------- #
# Sharded vs unsharded batched
# --------------------------------------------------------------------- #
def run_unsharded(query: JoinQuery, stream: List[StreamTuple]) -> float:
    def run():
        sampler = ReservoirJoin(query, SAMPLE_SIZE, rng=random.Random(1))
        BatchIngestor(sampler, chunk_size=CHUNK_SIZE).ingest(stream)

    return timed(run)


def make_sharded(query: JoinQuery) -> ShardedIngestor:
    return ShardedIngestor(
        query,
        k=SAMPLE_SIZE,
        num_shards=NUM_SHARDS,
        chunk_size=CHUNK_SIZE,
        rng=random.Random(1),
    )


def run_sharded_split(query: JoinQuery, stream: List[StreamTuple]) -> Dict:
    """One measured sharded run via the shared harness helper.

    ``repro.bench.harness.run_sampler_sharded`` owns the methodology —
    ordinary chunk-interleaved serial ingestion, then a shard-by-shard
    replay whose slowest shard (plus partitioning) is the critical path a
    one-worker-per-shard deployment would see.  GC is paused around it the
    same way the other modes are timed.
    """
    gc.collect()
    gc.disable()
    try:
        result = run_sampler_sharded(
            "sharded", lambda: make_sharded(query), stream
        )
    finally:
        gc.enable()
    stats = result.statistics
    return {
        "partition_seconds": stats["partition_seconds"],
        "shard_seconds": stats["shard_seconds"],
        "critical_path_seconds": stats["critical_path_seconds"],
        "serial_total_seconds": result.elapsed_seconds,
        "shard_loads": stats["shard_tuples"],
    }


def run_sharded_parallel(query: JoinQuery, stream: List[StreamTuple]) -> Dict:
    """One steady-state parallel run through the persistent worker pool.

    The pool is started *outside* the timed region — worker spawn plus
    replica bootstrap is a one-off cost, paid once per deployment, and is
    reported separately as ``pool_startup_seconds`` instead of being
    smeared into the per-stream wall clock the way the old spawn-per-call
    ``multiprocessing.Pool`` smeared it.  The timed region covers exactly
    what repeats per stream: routing, scatter over the worker pipes,
    worker ingestion, and the final drain barrier.
    """
    ingestor = make_sharded(query)
    ingestor.start_pool()
    try:
        wall = timed(lambda: ingestor.ingest_parallel(stream))
        stats = ingestor.statistics()
        return {
            "wall": wall,
            "startup": round(ingestor.pool_startup_seconds, 4),
            "busy": [round(b, 4) for b in stats["shard_busy_seconds"]],
        }
    finally:
        ingestor.close_pool(sync=False)


# --------------------------------------------------------------------- #
# Cyclic per-tuple vs bulk
# --------------------------------------------------------------------- #
def run_cyclic_per_tuple(query: JoinQuery, stream: List[StreamTuple]) -> float:
    def run():
        sampler = CyclicReservoirJoin(query, SAMPLE_SIZE, rng=random.Random(1))
        for item in stream:
            sampler.insert(item.relation, item.row)

    return timed(run)


def run_cyclic_bulk(query: JoinQuery, stream: List[StreamTuple]) -> float:
    def run():
        sampler = CyclicReservoirJoin(query, SAMPLE_SIZE, rng=random.Random(1))
        BatchIngestor(sampler, chunk_size=CHUNK_SIZE).ingest(stream)

    return timed(run)


def bench() -> Dict:
    query = chain3_query()
    stream = make_stream(N_TUPLES)

    unsharded = min(run_unsharded(query, stream) for _ in range(REPEATS))
    # Sanity outside the timed region: the merge must deliver a full-size
    # uniform sample at the final chunk boundary.
    probe = make_sharded(query)
    probe.ingest(stream)
    assert len(probe.merged_sample()) == min(SAMPLE_SIZE, probe.total_results())
    # Serial splits and parallel pool runs are interleaved so each repeat
    # yields a *paired* (serial, parallel) measurement under the same
    # machine conditions — the overhead ratio is taken per pair, which
    # cancels the frequency/thermal drift that a phase-separated min-vs-min
    # comparison mixes in.  The first pool of a process also pays one-off
    # fork/page-fault warm-up steady state never sees; min over repeats
    # drops it.
    splits = []
    parallel_runs = []
    for _ in range(REPEATS):
        splits.append(run_sharded_split(query, stream))
        parallel_runs.append(run_sharded_parallel(query, stream))
    best_split = min(splits, key=lambda s: s["critical_path_seconds"])
    critical_path = best_split["critical_path_seconds"]
    serial_total = min(s["serial_total_seconds"] for s in splits)
    best_parallel = min(parallel_runs, key=lambda r: r["wall"])
    parallel_wall = best_parallel["wall"]
    overhead = min(
        p["wall"] / s["serial_total_seconds"]
        for p, s in zip(parallel_runs, splits)
    )

    sharded_speedup = unsharded / critical_path
    modes = [
        {
            "mode": "batched_unsharded",
            "seconds": round(unsharded, 4),
            "tuples_per_second": round(N_TUPLES / unsharded),
            "speedup": 1.0,
        },
        {
            "mode": "sharded_critical_path",
            "seconds": round(critical_path, 4),
            "tuples_per_second": round(N_TUPLES / critical_path),
            "speedup": round(sharded_speedup, 2),
            "partition_seconds": round(best_split["partition_seconds"], 4),
            "shard_seconds": [round(s, 4) for s in best_split["shard_seconds"]],
            "shard_loads": best_split["shard_loads"],
        },
        {
            "mode": "sharded_serial_total",
            "seconds": round(serial_total, 4),
            "tuples_per_second": round(N_TUPLES / serial_total),
            "speedup": round(unsharded / serial_total, 2),
        },
        {
            "mode": "sharded_parallel_wall",
            "seconds": round(parallel_wall, 4),
            "tuples_per_second": round(N_TUPLES / parallel_wall),
            "speedup": round(unsharded / parallel_wall, 2),
            "cpu_count": os.cpu_count(),
            "pool_startup_seconds": best_parallel["startup"],
            "worker_busy_seconds": best_parallel["busy"],
            "overhead_over_serial_total": round(overhead, 2),
        },
    ]

    cyclic_stream = make_stream(N_TUPLES_CYCLIC, seed=SEED + 1)
    cyclic_per_tuple = min(run_cyclic_per_tuple(query, cyclic_stream) for _ in range(REPEATS))
    cyclic_bulk = min(run_cyclic_bulk(query, cyclic_stream) for _ in range(REPEATS))
    cyclic_speedup = cyclic_per_tuple / cyclic_bulk

    return {
        "benchmark": "shard_ingest",
        "query": "chain-3",
        "n_tuples": N_TUPLES,
        "sample_size": SAMPLE_SIZE,
        "domain": DOMAIN,
        "chunk_size": CHUNK_SIZE,
        "num_shards": NUM_SHARDS,
        "partition_attr": make_sharded(query).partition_attr,
        "repeats": REPEATS,
        "modes": modes,
        "speedup": round(sharded_speedup, 2),
        "target_speedup": TARGET_SPEEDUP_SHARDED,
        "meets_target": sharded_speedup >= TARGET_SPEEDUP_SHARDED,
        "methodology": (
            "Shards are fully independent (no shared mutable state), so the "
            "headline sharded figure is the critical path: partitioning cost "
            "plus the slowest shard's ingestion time — the wall-clock of a "
            f"{NUM_SHARDS}-worker deployment. The single-thread serial total "
            "and the measured parallel wall clock on this machine "
            f"(cpu_count={os.cpu_count()}) are reported unredacted alongside; "
            "on a single-CPU box the serial sharded total exceeds the "
            "unsharded time because broadcast relations are replicated per "
            "shard. sharded_parallel_wall is a steady-state measurement of "
            "the persistent shard worker pool: the pool (one long-lived "
            "process per shard, sub-chunks pickled over one pipe each) is "
            "started outside the timed region and its one-off spawn cost is "
            "reported as pool_startup_seconds; the timed region is route + "
            "scatter + worker ingestion + drain, which is what repeats per "
            "stream. worker_busy_seconds is each worker's measured in-chunk "
            "ingestion time, and overhead_over_serial_total is the parallel "
            "wall divided by the serial sharded total, taken as the best of "
            "per-repeat pairs measured back-to-back (serial and parallel "
            "interleaved each repeat, so frequency/thermal drift cancels) — "
            "the IPC tax, near 1x on a single CPU (workers timeshare the "
            "core) and the number that lets >1-core machines show real "
            "wall-clock wins."
        ),
        "cyclic": {
            "n_tuples": N_TUPLES_CYCLIC,
            "per_tuple_seconds": round(cyclic_per_tuple, 4),
            "bulk_seconds": round(cyclic_bulk, 4),
            "speedup": round(cyclic_speedup, 2),
            "target_speedup": TARGET_SPEEDUP_CYCLIC,
            "meets_target": cyclic_speedup >= TARGET_SPEEDUP_CYCLIC,
        },
    }


def main() -> None:
    report = bench()
    with open("BENCH_shard_ingest.json", "w") as handle:
        json.dump(report, handle, indent=2)
    print(
        f"sharded ingestion benchmark — chain-3, N={report['n_tuples']}, "
        f"k={report['sample_size']}, shards={report['num_shards']} "
        f"(partition on {report['partition_attr']!r})"
    )
    for row in report["modes"]:
        print(
            f"  {row['mode']:>22}: {row['seconds']:7.3f}s  "
            f"{row['tuples_per_second']:>9,} tuples/s  {row['speedup']:.2f}x"
        )
    print(
        f"critical-path speedup: {report['speedup']:.2f}x "
        f"(target ≥ {report['target_speedup']}x, "
        f"{'met' if report['meets_target'] else 'NOT met'})"
    )
    cyclic = report["cyclic"]
    print(
        f"cyclic bulk path: per-tuple {cyclic['per_tuple_seconds']:.3f}s vs "
        f"bulk {cyclic['bulk_seconds']:.3f}s -> {cyclic['speedup']:.2f}x "
        f"(target ≥ {cyclic['target_speedup']}x, "
        f"{'met' if cyclic['meets_target'] else 'NOT met'})"
    )
    print("wrote BENCH_shard_ingest.json")


if __name__ == "__main__":
    main()
