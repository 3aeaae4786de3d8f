"""Async pipelined transport: overlap chunk delivery with sampler CPU.

Synchronous ingestion interleaves two costs that have no business waiting on
each other: *transport* (the blocking wait for the next chunk — a network
fetch, a Kafka poll, a paginated scan) and *sampler CPU* (index maintenance
plus reservoir work).  :class:`AsyncIngestor` splits them across threads: the
producer thread iterates the (possibly blocking) source and enqueues chunks
onto bounded buffers, and worker threads pop chunks and drive the samplers —
so while the producer sleeps on the transport, the workers chew through the
backlog, and end-to-end wall clock approaches
``max(transport_seconds, cpu_seconds)`` instead of their sum.

Topology
--------
* **Sharded target** (:class:`~repro.ingest.shard.ShardedIngestor`): one
  bounded queue + one worker per shard.  The producer validates and
  partitions each chunk (all-or-nothing, exactly like the serial path) and
  enqueues every non-empty sub-chunk on its shard's queue; each worker owns
  its shard's :class:`~repro.ingest.batch.BatchIngestor` exclusively.
  Because each queue is FIFO, every shard replica sees *exactly* the
  sub-chunk sequence the serial path would have fed it — with equal seeds
  the final shard reservoirs are bit-identical to serial ingestion, not just
  distribution-equal.
* **Any other target** (a plain sampler, a
  :class:`~repro.ingest.rebalance.RebalancingIngestor`): a single queue +
  worker driving ``ingest_batch``/``insert_batch`` chunks in arrival order —
  same stream semantics as synchronous batched ingestion.  (A rebalancing
  target must be single-worker: a rebalance swaps out every shard at once.)
  A sharded target whose :class:`~repro.ingest.pool.ShardWorkerPool` is
  live also takes this path: its ``ingest_batch`` already scatters to the
  worker processes, so the single thread overlaps blocking transport with
  pool submission — async-over-pool composition, threads for transport and
  processes for CPU, without double-driving the per-shard ingestors.

Backpressure and boundaries
---------------------------
Queues are bounded at ``buffer_chunks``; when the samplers fall behind, the
producer blocks in :meth:`submit` — bounded memory, honest flow control.
The chunk-boundary uniformity guarantee is preserved: after :meth:`drain`
(or :meth:`ingest`'s return) every submitted chunk has been fully absorbed,
so that point *is* a chunk boundary and sampling/merging is safe.
:meth:`merged_sample`/:meth:`sample` drain first for exactly that reason.

A worker failure is not lost, and it is *sticky*: the first exception
poisons the pipeline — every subsequent :meth:`submit`, :meth:`drain`,
:meth:`merged_sample` or :meth:`sample` re-raises it, because after a
worker died mid-stream the shard states have seen different chunk prefixes
and no sample drawn from them is trustworthy.  A clean ``with`` exit also
re-raises an undrained failure; only a direct :meth:`close` call (the
cleanup path, typically after the failure was already caught) shuts the
workers down without raising.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.backend import chunk_apply
from ..relational.stream import StreamTuple, chunk_stream
from .batch import DEFAULT_CHUNK_SIZE
from .checkpoint import Checkpointable
from .shard import ShardedIngestor

#: Default bound on each worker queue, in chunks.
DEFAULT_BUFFER_CHUNKS = 8

_STOP = object()  # queue sentinel: worker shutdown

#: The attributes an :class:`AsyncIngestor` pickles; the rest is rebuilt.
_PICKLED = (
    "target",
    "chunk_size",
    "buffer_chunks",
    "chunks_submitted",
    "tuples_submitted",
    "producer_stall_seconds",
    "max_queue_depth",
)


class _Worker:
    """One consumer thread bound to one bounded chunk queue."""

    def __init__(self, name: str, apply, buffer_chunks: int) -> None:
        self.queue: "queue.Queue" = queue.Queue(maxsize=buffer_chunks)
        self.busy_seconds = 0.0
        self.chunks_processed = 0
        self.error: Optional[BaseException] = None
        self.poisoned = False
        self._apply = apply
        self.thread = threading.Thread(target=self._run, name=name, daemon=True)

    def _run(self) -> None:
        while True:
            item = self.queue.get()
            try:
                if item is _STOP:
                    return
                if self.poisoned:
                    continue  # discard the backlog; do not count it as work
                start = time.perf_counter()
                try:
                    self._apply(item)
                finally:
                    self.busy_seconds += time.perf_counter() - start
                self.chunks_processed += 1
            except BaseException as error:  # surfaced via _raise_pending
                self.poisoned = True
                self.error = error
            finally:
                self.queue.task_done()


class AsyncIngestor(Checkpointable):
    """Pipelined chunk ingestion behind bounded per-shard queues.

    Parameters
    ----------
    target:
        Where chunks land.  A :class:`ShardedIngestor` gets one worker per
        shard; any other target gets a single worker driving the capability
        probe of :func:`repro.core.backend.chunk_apply` — ``ingest_batch``
        (a :class:`~repro.ingest.batch.BatchIngestor`, a
        :class:`~repro.ingest.rebalance.RebalancingIngestor`, a
        :class:`~repro.ingest.fanout.FanoutIngestor`), else ``insert_batch``
        (a sampler's bulk path), else the per-tuple fallback.
    chunk_size:
        Chunk size used by :meth:`ingest` when handed a flat stream.
    buffer_chunks:
        Bound of each worker queue, in chunks — the backpressure knob.
    """

    def __init__(
        self,
        target,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        buffer_chunks: int = DEFAULT_BUFFER_CHUNKS,
    ) -> None:
        if buffer_chunks <= 0:
            raise ValueError("buffer_chunks must be positive")
        self.target = target
        self.chunk_size = chunk_size
        self.buffer_chunks = buffer_chunks
        self.chunks_submitted = 0
        self.tuples_submitted = 0
        self.producer_stall_seconds = 0.0
        self.max_queue_depth = 0
        self._closed = False  # no further submits (closed or failed)
        self._stopped = False  # worker threads joined
        self._failure: Optional[BaseException] = None  # first worker error, sticky
        self._boundary_hooks: List = []
        self._chunks_at_last_boundary = 0
        # A sharded target with a live worker pool already owns its own
        # process-level parallelism and chunk pipelining: drive it through
        # the single-worker path below (ingest_batch scatters to the pool),
        # overlapping transport with *pool submission* instead of competing
        # with the pool for the per-shard ingestors.  Only a pool-less
        # sharded target gets the thread-per-shard topology.
        self._sharded = isinstance(target, ShardedIngestor) and not getattr(
            target, "pool_active", False
        )
        if self._sharded:
            # The chunk-boundary barrier does not exist here (shards run
            # ahead of each other), so the target cannot measure a critical
            # path; its per-shard busy accumulators stay real because each
            # worker owns exactly one shard's slot.
            target.timing_incomplete = True

            def shard_apply(shard: int, ingestor):
                busy = target.shard_busy_seconds

                def apply(part) -> None:
                    start = time.perf_counter()
                    try:
                        ingestor.ingest_batch(part)
                    finally:
                        busy[shard] += time.perf_counter() - start

                return apply

            self._workers = [
                _Worker(
                    f"async-ingest-shard-{shard}",
                    shard_apply(shard, ingestor),
                    buffer_chunks,
                )
                for shard, ingestor in enumerate(target.ingestors)
            ]
        else:
            # The shared capability probe: ingestor (ingest_batch) before
            # sampler bulk path (insert_batch) before the per-tuple fallback.
            apply, _ = chunk_apply(target)
            self._workers = [_Worker("async-ingest", apply, buffer_chunks)]
        for worker in self._workers:
            worker.thread.start()

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #
    def submit(self, items: Sequence) -> int:
        """Enqueue one chunk; blocks when the buffers are full (backpressure).

        For a sharded target the chunk is validated and partitioned here, on
        the producer thread — a bad chunk raises before anything is enqueued,
        so shards never diverge.  Returns the number of stream tuples
        accepted.
        """
        self._raise_pending()
        if self._closed:
            raise RuntimeError("this AsyncIngestor is closed")
        items = list(items)
        if not items:
            return 0
        if self._sharded:
            start = time.perf_counter()
            parts = self.target._route(items)
            self.target.partition_seconds += time.perf_counter() - start
            for worker, part in zip(self._workers, parts):
                if part:
                    self._put(worker, part)
            self.target.note_chunk(len(items), sum(map(len, parts)))
        else:
            self._put(self._workers[0], items)
        self.chunks_submitted += 1
        self.tuples_submitted += len(items)
        return len(items)

    def _put(self, worker: _Worker, part: List) -> None:
        start = time.perf_counter()
        worker.queue.put(part)
        self.producer_stall_seconds += time.perf_counter() - start
        depth = worker.queue.qsize()
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth

    def ingest(self, stream: Iterable[StreamTuple]) -> "AsyncIngestor":
        """Chunk a flat stream, submit every chunk, drain; returns ``self``."""
        return self.ingest_chunks(chunk_stream(stream, self.chunk_size))

    def ingest_chunks(self, chunks: Iterable[Sequence]) -> "AsyncIngestor":
        """Submit ready-made chunks (e.g. a
        :class:`~repro.relational.stream.ThrottledChunkSource`), then drain.

        This is the pipelined loop: while the source blocks producing the
        next chunk, the workers ingest the buffered ones.
        """
        for chunk in chunks:
            self.submit(chunk)
        return self.drain()

    # ------------------------------------------------------------------ #
    # Synchronisation
    # ------------------------------------------------------------------ #
    def drain(self) -> "AsyncIngestor":
        """Block until every submitted chunk is fully ingested.

        On return the target sits at a chunk boundary — its reservoirs are
        uniform over the join of everything submitted — and any worker
        error has been re-raised.
        """
        for worker in self._workers:
            worker.queue.join()
        self._raise_pending()
        if self.chunks_submitted > self._chunks_at_last_boundary:
            self._chunks_at_last_boundary = self.chunks_submitted
            for hook in self._boundary_hooks:
                hook(None, None)
        return self

    @property
    def at_boundary(self) -> bool:
        """Whether every submitted chunk has been absorbed at a drain point.

        ``False`` means chunks are in flight (or drained behind the last
        boundary dispatch) and the target's state is not a uniform cut.
        """
        return self.chunks_submitted == self._chunks_at_last_boundary

    def add_boundary_hook(self, hook):
        """Register ``hook(items, parts)`` to run at every chunk boundary.

        An async pipeline only *has* chunk boundaries at drain points, so
        hooks fire once per :meth:`drain` that absorbed new chunks (with
        ``items``/``parts`` as ``None`` — multiple chunks may have passed
        since the last drain).  Between drains, shards run ahead of each
        other and no uniform cut exists to observe.
        """
        self._boundary_hooks.append(hook)
        return hook

    def close(self) -> None:
        """Stop the workers and join their threads (idempotent).

        The cleanup path: drains healthy pipelines, but — unlike every other
        method — does not re-raise a sticky failure, so it is always safe to
        call (e.g. from a ``finally`` after the failure was already caught).
        """
        if self._stopped:
            return
        self._closed = True
        try:
            for worker in self._workers:
                worker.queue.join()
        finally:
            self._stopped = True
            for worker in self._workers:
                worker.queue.put(_STOP)
            for worker in self._workers:
                worker.thread.join()
        self._collect_failure()

    def _collect_failure(self) -> None:
        for worker in self._workers:
            if worker.error is not None:
                if self._failure is None:
                    self._failure = worker.error
                worker.error = None
        if self._failure is not None:
            self._closed = True  # a broken pipeline must not eat chunks

    def _raise_pending(self) -> None:
        self._collect_failure()
        if self._failure is not None:
            raise self._failure

    def __enter__(self) -> "AsyncIngestor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
            if self._failure is not None:
                # A clean `with` exit must not swallow a worker failure the
                # caller never drained for — surface it here, once the
                # threads are already down.
                raise self._failure
            return
        # Error path: never mask the original exception with a drain-raise,
        # but do stop the workers and *join* them — the backlog is bounded
        # by the buffers, and joining leaves the target quiescent (and at a
        # chunk boundary) for whoever catches the exception.
        self._closed = True
        if not self._stopped:
            self._stopped = True
            for worker in self._workers:
                worker.queue.put(_STOP)
            for worker in self._workers:
                worker.thread.join()
        self._collect_failure()

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> Dict[str, object]:
        """Drain, then pickle the quiescent target plus pipeline counters.

        An async pipeline only has well-defined state at a chunk boundary —
        mid-flight, the workers hold sub-chunks the target has not absorbed.
        :meth:`drain` *is* the chunk boundary (and re-raises any pending
        worker failure, so a poisoned pipeline refuses to checkpoint).
        Worker threads and boundary hooks are not state: the restored
        pipeline builds fresh workers and resumes the suffix
        bit-identically, because all randomness lives in the target.
        """
        self.drain()
        state = {name: getattr(self, name) for name in _PICKLED}
        state["worker_chunks_processed"] = [
            worker.chunks_processed for worker in self._workers
        ]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__init__(state["target"], state["chunk_size"], state["buffer_chunks"])
        for name in _PICKLED:
            setattr(self, name, state[name])
        # The worker topology is a function of the target type, so the
        # counts line up.
        for worker, processed in zip(self._workers, state["worker_chunks_processed"]):
            worker.chunks_processed = processed
        self._chunks_at_last_boundary = self.chunks_submitted

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def merged_sample(self, k: Optional[int] = None, rng=None) -> List[dict]:
        """Drain, then draw the target's merged sample (sharded targets)."""
        self.drain()
        return self.target.merged_sample(k, rng=rng)

    @property
    def sample(self) -> List[Dict[str, object]]:
        """Drain, then expose the target sampler's reservoir."""
        self.drain()
        return self.target.sample

    def statistics(self) -> Dict[str, object]:
        """Pipeline counters merged over the target's statistics.

        Exact once :meth:`drain` has returned; mid-flight reads see the
        tuples the producer has *accepted*, some of which workers are still
        absorbing.
        """
        stats: Dict[str, object] = {}
        if hasattr(self.target, "statistics"):
            stats.update(self.target.statistics())
        stats.update(
            {
                "async_workers": len(self._workers),
                "async_buffer_chunks": self.buffer_chunks,
                "async_chunks_submitted": self.chunks_submitted,
                "async_tuples_submitted": self.tuples_submitted,
                "async_producer_stall_seconds": round(self.producer_stall_seconds, 4),
                "async_max_queue_depth": self.max_queue_depth,
                "async_worker_busy_seconds": [
                    round(worker.busy_seconds, 4) for worker in self._workers
                ],
                "async_chunks_processed": [
                    worker.chunks_processed for worker in self._workers
                ],
            }
        )
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AsyncIngestor({type(self.target).__name__}, "
            f"workers={len(self._workers)}, buffer={self.buffer_chunks}, "
            f"chunks={self.chunks_submitted})"
        )
