"""Persistent shard worker pool: long-lived processes, cheap chunk handoff.

The original ``ShardedIngestor.ingest_parallel`` materialised the whole
stream, spawned a fresh ``multiprocessing.Pool`` per call, and pickled each
shard's *entire* sub-stream to a one-shot worker — the measured wall clock
was ~2.7× the serial sharded total on a single-CPU box, and worse, the call
discarded the live shard samplers afterwards (no further ingestion, no
checkpointing).  This module replaces that with the runtime the sharded
executor literature (Photon-style long-lived workers, morsel-driven
parallelism) actually describes:

* **Long-lived workers.**  :class:`ShardWorkerPool` spawns one process per
  shard, *once*.  Each worker unpickles its shard's
  :class:`~repro.ingest.batch.BatchIngestor` — the same pickle a checkpoint
  holds — so worker-side state is exactly the parent-side state, including
  the replica's RNG, bit for bit.
* **Cheap chunk handoff.**  The parent routes each chunk with the same hash
  router as serial ingestion and ships each shard *the exact sub-chunk
  sequence the serial path would have fed it*, inline over a persistent
  duplex pipe per worker.  On the wire a sub-chunk is the list of
  ``(relation, row)`` pairs every ingest seam normalises to (``as_relation_rows``) —
  logically identical to the StreamTuples the serial lane sees, but far
  cheaper to pickle.  Workers apply each sub-chunk through the same
  ``BatchIngestor.ingest_batch`` call the serial per-shard lane uses, so a
  pool-fed replica is **bit-identical** to its serial counterpart — not
  merely set-equal.
* **Pipelined scatter, explicit barriers.**  ``submit`` returns once the
  sub-chunks are handed off (bounded by :data:`DEFAULT_MAX_PENDING` in
  flight per worker — honest backpressure); :meth:`drain` is the chunk
  boundary.  Acks carry per-chunk worker busy seconds, so the parent can
  report measured per-worker busy time and a per-chunk critical path
  (slowest worker per chunk) instead of the ``None`` placeholders the
  one-shot pool left behind.
* **Sticky poison.**  The first worker failure (an exception shipped back,
  or the process dying outright) poisons the pool in the
  :class:`~repro.ingest.pipeline.AsyncIngestor` style: every subsequent
  ``submit``/``drain``/state read re-raises the same
  :class:`WorkerCrashError`, because shards that saw different chunk
  prefixes can no longer produce a trustworthy merged sample.
* **Live-state round trips.**  At any drain point the parent can pull each
  worker's reservoir + exact local count (for ``merged_sample`` against
  live workers) or the worker's pickled per-shard ingestor (for
  checkpoints taken *through* the pool) — the capability the one-shot path
  structurally lacked.

The pool is deliberately sampler-agnostic: anything picklable can live in a
worker — which is how cyclic replicas and custom factories ride the
parallel path now.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
import weakref
from multiprocessing import connection
from typing import Dict, List, Optional, Sequence, Tuple

from ..relational.join import count_results
from ..relational.stream import StreamDelete, StreamTuple, as_relation_rows

#: Maximum sub-chunks in flight per worker before ``submit`` blocks on acks
#: — the same bounded-buffer backpressure idea as the async transport.
DEFAULT_MAX_PENDING = 8


class WorkerCrashError(RuntimeError):
    """A pool worker failed (exception or process death); the pool is
    poisoned — shard replicas have seen different chunk prefixes, so no
    sample drawn across them is trustworthy.  Carries the shard index and
    the worker-side traceback (or death notice)."""

    def __init__(self, shard: int, description: str) -> None:
        super().__init__(
            f"shard worker {shard} failed; the pool is poisoned (every shard "
            f"must see its full sub-chunk sequence for the merge to be "
            f"uniform) — close the pool and rebuild from the last "
            f"checkpoint.\n--- worker {shard} ---\n{description}"
        )
        self.shard = shard


def _worker_statistics(sampler) -> Dict[str, object]:
    try:
        return dict(sampler.statistics())
    except Exception:  # pragma: no cover - statistics are best-effort
        return {}


def _pool_worker_main(conn, shard: int, init_payload: bytes) -> None:
    """One worker's service loop: unpickle the shard's ingestor once, then
    serve sub-chunks, state reads and snapshot requests until ``close``.

    Every failure — a bad init payload, an exception inside
    ``ingest_batch`` — is reported back as an ``("error", traceback)``
    message and latches the worker into a poisoned state that answers
    everything but ``close`` with the same error (the parent raises it as
    :class:`WorkerCrashError`).
    """
    ingestor = None
    poisoned: Optional[str] = None
    try:
        ingestor = pickle.loads(init_payload)
    except BaseException:
        poisoned = traceback.format_exc()
        try:
            conn.send(("error", poisoned))
        except (OSError, BrokenPipeError):
            return
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        tag = message[0]
        if tag == "close":
            break
        try:
            if poisoned is not None:
                conn.send(("error", poisoned))
                continue
            if tag == "chunk":
                seq, part = message[1], message[2]
                # CPU time, not wall: on a box with fewer cores than
                # workers, wall-in-worker counts time spent preempted and
                # the busy sum comes out several times the true work (and
                # the derived critical path exceeds the wall clock).
                start = time.process_time()
                ingestor.ingest_batch(part)
                conn.send(("ok", seq, time.process_time() - start))
            elif tag == "state":
                sampler = ingestor.sampler
                index = getattr(sampler, "index", None)
                count = (
                    count_results(index.query, index.database)
                    if index is not None
                    else None
                )
                conn.send(
                    (
                        "state",
                        (
                            list(sampler.sample),
                            count,
                            getattr(sampler, "k", None),
                            _worker_statistics(sampler),
                            ingestor.tuples_ingested,
                        ),
                    )
                )
            elif tag == "snapshot":
                conn.send(("snapshot", ingestor))  # the pipe pickles it
            else:
                raise ValueError(f"unknown pool command {tag!r}")
        except BaseException:
            poisoned = traceback.format_exc()
            try:
                conn.send(("error", poisoned))
            except (OSError, BrokenPipeError):
                break
    try:
        conn.close()
    except OSError:  # pragma: no cover - already gone
        pass


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = (
        "shard",
        "process",
        "conn",
        "pending_acks",
        "delivered_tuples",
        "chunks_shipped",
    )

    def __init__(self, shard: int, process, conn) -> None:
        self.shard = shard
        self.process = process
        self.conn = conn
        self.pending_acks: List[int] = []
        self.delivered_tuples = 0
        self.chunks_shipped = 0


def _terminate_processes(processes) -> None:
    """Finalizer: make sure orphaned worker processes never outlive their
    pool (daemon processes would die with the parent anyway; this reclaims
    them as soon as the pool is garbage collected)."""
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        if process.is_alive():
            process.join(timeout=5)


class ShardWorkerPool:
    """One long-lived worker process per shard, fed sub-chunks over a
    persistent pipe.

    Parameters
    ----------
    worker_inits:
        One pickled :class:`~repro.ingest.batch.BatchIngestor` per shard.
        Workers unpickle it, so a pool started mid-stream (or from a
        restored checkpoint) continues exactly where the parent-side
        replicas stood.
    max_pending:
        Sub-chunks in flight per worker before :meth:`submit` blocks.
    """

    def __init__(
        self,
        worker_inits: Sequence[bytes],
        max_pending: int = DEFAULT_MAX_PENDING,
    ) -> None:
        if not worker_inits:
            raise ValueError("a worker pool needs at least one shard")
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        self.max_pending = max_pending
        self._failure: Optional[WorkerCrashError] = None
        self._closed = False
        self._seq = 0
        #: seq -> {"remaining": set(shards), "max_busy": float, "route": float}
        self._inflight: Dict[int, Dict[str, object]] = {}
        #: accounting deltas since the owner last folded them
        self._busy_delta: List[float] = [0.0] * len(worker_inits)
        self._critical_delta = 0.0
        self.workers: List[_WorkerHandle] = []
        for shard, init in enumerate(worker_inits):
            parent_conn, child_conn = multiprocessing.Pipe()
            process = multiprocessing.Process(
                target=_pool_worker_main,
                args=(child_conn, shard, init),
                name=f"shard-pool-{shard}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self.workers.append(_WorkerHandle(shard, process, parent_conn))
        self._finalizer = weakref.finalize(
            self, _terminate_processes, [w.process for w in self.workers]
        )

    # ------------------------------------------------------------------ #
    # Liveness
    # ------------------------------------------------------------------ #
    @property
    def active(self) -> bool:
        return not self._closed

    @property
    def poisoned(self) -> bool:
        return self._failure is not None

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    def _poison(self, error: WorkerCrashError) -> None:
        if self._failure is None:
            self._failure = error
        raise self._failure

    def _raise_pending(self) -> None:
        if self._failure is not None:
            raise self._failure
        if self._closed:
            raise RuntimeError("this ShardWorkerPool is closed")

    # ------------------------------------------------------------------ #
    # Receive path
    # ------------------------------------------------------------------ #
    def _dispatch(self, handle: _WorkerHandle, message: Tuple) -> None:
        tag = message[0]
        if tag == "ok":
            seq, busy = message[1], message[2]
            if handle.pending_acks and handle.pending_acks[0] == seq:
                handle.pending_acks.pop(0)
            self._busy_delta[handle.shard] += busy
            entry = self._inflight.get(seq)
            if entry is not None:
                entry["remaining"].discard(handle.shard)
                if busy > entry["max_busy"]:
                    entry["max_busy"] = busy
                self._settle(seq, entry)
            return
        if tag == "error":
            self._poison(WorkerCrashError(handle.shard, message[1]))
        raise ValueError(f"unexpected pool reply {tag!r}")  # pragma: no cover

    def _settle(self, seq: int, entry: Dict[str, object]) -> None:
        if not entry["remaining"]:
            self._critical_delta += entry["route"] + entry["max_busy"]
            del self._inflight[seq]

    def _receive(self, handle: _WorkerHandle, block: bool) -> bool:
        """Absorb one message from ``handle``; returns whether one arrived.

        Blocks (when asked) on both the pipe and the worker's death
        sentinel, so a hard-killed worker surfaces as a
        :class:`WorkerCrashError` instead of a hang.
        """
        while True:
            try:
                if handle.conn.poll(0):
                    self._dispatch(handle, handle.conn.recv())
                    return True
            except (EOFError, OSError):
                self._poison(
                    WorkerCrashError(
                        handle.shard,
                        f"worker process died (exitcode "
                        f"{handle.process.exitcode})",
                    )
                )
            if not block:
                return False
            ready = connection.wait([handle.conn, handle.process.sentinel])
            if handle.conn not in ready:
                # The process died; one final poll catches a racing last
                # message (e.g. the error report) before declaring death.
                if not handle.conn.poll(0):
                    self._poison(
                        WorkerCrashError(
                            handle.shard,
                            f"worker process died (exitcode "
                            f"{handle.process.exitcode})",
                        )
                    )

    def collect(self) -> None:
        """Absorb every ack that is already waiting (non-blocking)."""
        if self._failure is not None or self._closed:
            return
        for handle in self.workers:
            while self._receive(handle, block=False):
                pass

    # ------------------------------------------------------------------ #
    # Send path
    # ------------------------------------------------------------------ #
    def _send(self, handle: _WorkerHandle, message: Tuple) -> None:
        # A worker that died with the pipe idle surfaces on the *send* side
        # first (EPIPE); report it as the same WorkerCrashError the receive
        # path raises instead of leaking a BrokenPipeError.
        try:
            handle.conn.send(message)
        except (BrokenPipeError, OSError):
            self._poison(
                WorkerCrashError(
                    handle.shard,
                    f"worker process died (exitcode "
                    f"{handle.process.exitcode})",
                )
            )

    def _send_chunk(self, handle: _WorkerHandle, seq: int, part: List) -> None:
        # Normalise to the ``(relation, row)`` pairs every ingest seam
        # accepts (see ``chunk_apply``): the logical items are identical —
        # backends normalise StreamTuples to exactly these pairs anyway —
        # but they pickle an order of magnitude cheaper, which is most of
        # the pool's IPC tax on a chunk.  ``ShardedIngestor._route`` already
        # emits pair form, so the common case is a type scan, not a rebuild.
        if not all(type(item) is tuple for item in part):
            if any(isinstance(item, StreamDelete) for item in part):
                # Turnstile sub-chunks: retractions must arrive at the worker
                # as retractions (and in stream order), so inserts are
                # normalised item-by-item around the StreamDelete objects.
                part = [
                    item
                    if isinstance(item, StreamDelete)
                    else (item.relation, item.row)
                    if isinstance(item, StreamTuple)
                    else (item[0], tuple(item[1]))
                    for item in part
                ]
            else:
                part = as_relation_rows(part)
        self._send(handle, ("chunk", seq, part))
        handle.pending_acks.append(seq)
        handle.chunks_shipped += 1
        handle.delivered_tuples += len(part)
        while len(handle.pending_acks) > self.max_pending:
            self._receive(handle, block=True)

    def submit(self, parts: Sequence[List], route_seconds: float = 0.0) -> int:
        """Scatter one routed chunk (``parts[shard]`` per worker).

        Empty parts are skipped exactly as the serial engine skips them, so
        every worker sees the serial path's sub-chunk sequence verbatim.
        Returns the chunk's sequence number.  Pipelined: workers may still
        be ingesting when this returns — :meth:`drain` is the barrier.
        """
        self._raise_pending()
        if len(parts) != len(self.workers):
            raise ValueError(
                f"routed chunk has {len(parts)} parts for {len(self.workers)} "
                "pool workers"
            )
        self.collect()
        seq = self._seq
        self._seq += 1
        shards = {shard for shard, part in enumerate(parts) if part}
        entry = {"remaining": shards, "max_busy": 0.0, "route": route_seconds}
        self._inflight[seq] = entry
        # No defensive copy: the pipe serialises the part before
        # returning, so the caller may reuse its buffers immediately after.
        for shard in sorted(shards):
            self._send_chunk(self.workers[shard], seq, parts[shard])
        self._settle(seq, entry)  # all-empty chunks settle immediately
        return seq

    # ------------------------------------------------------------------ #
    # Barriers and state round trips
    # ------------------------------------------------------------------ #
    def drain(self) -> None:
        """Block until every scattered sub-chunk is fully ingested — the
        pool's chunk boundary.  Re-raises a sticky failure."""
        self._raise_pending()
        for handle in self.workers:
            while handle.pending_acks:
                self._receive(handle, block=True)

    def _request(self, handle: _WorkerHandle, message: Tuple, expect: str):
        self._send(handle, message)
        while True:
            try:
                reply = handle.conn.recv()
            except (EOFError, OSError):
                self._poison(
                    WorkerCrashError(
                        handle.shard,
                        f"worker process died (exitcode "
                        f"{handle.process.exitcode})",
                    )
                )
            if reply[0] == expect:
                return reply[1]
            self._dispatch(handle, reply)

    def shard_states(self) -> List[Tuple[List[dict], Optional[int], Optional[int], Dict[str, object], int]]:
        """Drain, then fetch ``(sample, exact_count, capacity, statistics,
        tuples_ingested)`` from every live worker — what ``merged_sample``
        needs, read at a chunk boundary."""
        self.drain()
        return [
            self._request(handle, ("state",), "state") for handle in self.workers
        ]

    def snapshots(self) -> List:
        """Drain, then fetch a copy of each worker's per-shard
        :class:`~repro.ingest.batch.BatchIngestor` (pickled over the pipe)
        — replica and engine accounting, exactly what a serial checkpoint
        pickles."""
        self.drain()
        return [
            self._request(handle, ("snapshot",), "snapshot") for handle in self.workers
        ]

    # ------------------------------------------------------------------ #
    # Accounting hand-off
    # ------------------------------------------------------------------ #
    def take_busy_deltas(self) -> List[float]:
        """Per-worker busy seconds accumulated since the last take."""
        deltas = list(self._busy_delta)
        self._busy_delta = [0.0] * len(self.workers)
        return deltas

    def take_critical_delta(self) -> float:
        """Sum over completed chunks of (route + slowest worker) since the
        last take — the pool's contribution to the critical path."""
        delta = self._critical_delta
        self._critical_delta = 0.0
        return delta

    @property
    def delivered_tuples(self) -> List[float]:
        """Stream tuples shipped per worker so far (broadcasts included)."""
        return [handle.delivered_tuples for handle in self.workers]

    def statistics(self) -> Dict[str, object]:
        return {
            "workers": len(self.workers),
            "max_pending": self.max_pending,
            "chunks_shipped": [h.chunks_shipped for h in self.workers],
            "tuples_shipped": [h.delivered_tuples for h in self.workers],
            "poisoned": self.poisoned,
        }

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop the workers and release every IPC resource (idempotent).

        A healthy pool is drained first so no scattered chunk is silently
        dropped; a poisoned pool skips the drain (its backlog is
        meaningless) and just reclaims the processes.  Never raises the
        sticky failure — this is the cleanup path.
        """
        if self._closed:
            return
        self._closed = True
        if self._failure is None:
            try:
                for handle in self.workers:
                    while handle.pending_acks:
                        self._receive(handle, block=True)
            except WorkerCrashError:
                pass
        for handle in self.workers:
            try:
                handle.conn.send(("close",))
            except (OSError, BrokenPipeError):
                pass
        for handle in self.workers:
            handle.process.join(timeout=5)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.terminate()
                handle.process.join(timeout=5)
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
        self._finalizer.detach()

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "poisoned" if self.poisoned else ("closed" if self._closed else "live")
        return (
            f"ShardWorkerPool(workers={len(self.workers)}, {state})"
        )


__all__ = [
    "DEFAULT_MAX_PENDING",
    "WorkerCrashError",
    "ShardWorkerPool",
]
