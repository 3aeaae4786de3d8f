"""Ingestion: the seam between stream transport and samplers.

Per-tuple ingestion (``sampler.insert(relation, row)``) pays full Python
dispatch — index lookups, projection-position resolution, reservoir
bookkeeping — for every arriving tuple.  The ingestion subsystem amortises
that cost and scales it out, and since the engine refactor it is built as
three layers instead of four sibling class hierarchies:

1. **The protocol** (:mod:`repro.core.backend`): every sampler conforms to
   the :class:`~repro.core.backend.SamplerBackend` interface; capability
   probing (:func:`~repro.core.backend.chunk_apply`) picks each backend's
   best chunk path once — ``ingest_batch``, ``insert_batch``, or the
   validated per-tuple fallback — so no ingestor carries its own
   ``getattr`` boilerplate.
2. **The engine** (:mod:`repro.ingest.engine`): one shared
   :class:`IngestionEngine` owns chunk cutting, per-lane dispatch,
   all-or-nothing routing-time validation, and honest critical-path
   accounting (``route_seconds`` + slowest lane per chunk).
3. **Policies and wrappers**: the public ingestors are thin policies over
   the engine —

   * :class:`BatchIngestor` — one lane, no routing; the uniformity
     guarantee holds at every chunk boundary (``chunk_size=1`` degenerates
     to exact per-tuple semantics).
   * :class:`ShardedIngestor` — one lane per shard behind a
     hash-partitioning router (relations lacking the partition attribute
     are broadcast), with the exactly-uniform ``merged_sample`` recombining
     the shard reservoirs (see :mod:`repro.ingest.shard`).
   * :class:`FanoutIngestor` — one lane per registered backend behind
     broadcast routing: a single stream pass feeds acyclic, cyclic,
     baseline and even sharded samplers simultaneously, each bit-identical
     to a standalone run under its derived seed (see
     :mod:`repro.ingest.fanout`).
   * :class:`RebalancingIngestor` + :class:`SkewMonitor` stack a
     chunk-boundary policy on the sharded ingestor: hot partitions are
     detected from O(1) load counters and the state is replayed under a
     cooler partitioning (see :mod:`repro.ingest.rebalance`).
   * :class:`AsyncIngestor` stacks a transport on any of the above:
     bounded queues + worker threads overlap blocking chunk delivery with
     sampler CPU (see :mod:`repro.ingest.pipeline`).

Anything that can hand chunks of
:class:`~repro.relational.stream.StreamTuple` to one of these participates
in the fast path; every mode preserves the same guarantee — the reservoir
is an exactly uniform sample without replacement of the join results of the
stream prefix at every chunk boundary.

Turnstile streams ride the same seam: chunks may mix
:class:`~repro.relational.stream.StreamDelete` retractions between the
inserts when the hosted sampler is deletion-capable
(:class:`~repro.core.turnstile.TurnstileReservoirJoin`,
:class:`~repro.core.turnstile.WindowedSampler`).  ``chunk_apply`` probes
``ingest_batch`` first, so the turnstile samplers segment mixed chunks
themselves; the sharded router hash-routes each retraction to the shard
owning the row (broadcast relations broadcast their deletes), and the
worker-pool transport ships ``StreamDelete`` items through unchanged.  The
boundary guarantee becomes: exactly uniform over the *surviving* join
results of the prefix.

Chunk boundaries are also the durability points: every ingestor
checkpoints (``save(path)``) and restores (``Ingestor.restore``) itself,
pickled whole, through the versioned file format of
:mod:`repro.ingest.checkpoint`, with
bit-identical resumption — the restored run consumes exactly the random
stream an uninterrupted run would have.
"""

from .batch import BatchIngestor, chunked
from .checkpoint import (
    CheckpointCodec,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointVersionError,
    PeriodicCheckpointer,
)
from .engine import DEFAULT_CHUNK_SIZE, EngineLane, IngestionEngine
from .fanout import FanoutIngestor
from .pipeline import AsyncIngestor
from .pool import ShardWorkerPool, WorkerCrashError
from .rebalance import RebalancingIngestor, SkewMonitor, plan_partition, simulate_partition
from .shard import ShardedIngestor, partition_attribute, stable_shard_hash

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "IngestionEngine",
    "EngineLane",
    "BatchIngestor",
    "chunked",
    "ShardedIngestor",
    "ShardWorkerPool",
    "WorkerCrashError",
    "FanoutIngestor",
    "RebalancingIngestor",
    "SkewMonitor",
    "AsyncIngestor",
    "CheckpointCodec",
    "CheckpointError",
    "CheckpointCorruptError",
    "CheckpointVersionError",
    "CheckpointMismatchError",
    "PeriodicCheckpointer",
    "partition_attribute",
    "plan_partition",
    "simulate_partition",
    "stable_shard_hash",
]
