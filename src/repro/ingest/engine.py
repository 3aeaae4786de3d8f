"""The :class:`IngestionEngine`: one chunk-dispatch loop for every ingestor.

Historically each ingestion mode re-implemented the same skeleton — cut the
stream into chunks, hand each chunk to one or more delivery targets, time
the dispatch honestly, keep counters — with small policy differences
(how a chunk is split across targets, what happens at a chunk boundary).
This module extracts that skeleton once.  The public ingestors are now thin
policies over it:

* :class:`~repro.ingest.batch.BatchIngestor` — one lane, no routing;
* :class:`~repro.ingest.shard.ShardedIngestor` — one lane per shard, a
  hash-partitioning router;
* :class:`~repro.ingest.fanout.FanoutIngestor` — one lane per registered
  backend, broadcast routing (every lane sees every chunk);
* :class:`~repro.ingest.rebalance.RebalancingIngestor` and
  :class:`~repro.ingest.pipeline.AsyncIngestor` stack *on top* of
  engine-backed ingestors (a chunk-boundary policy and a transport,
  respectively) instead of forming parallel class hierarchies.

Anatomy of one ``ingest_batch`` call
------------------------------------
1. **Route** — the chunk is materialised and split into per-lane parts by
   the ``router`` (identity for a single lane, hash partitioning for
   shards, broadcast for fan-out).  A routing policy that validates (the
   sharded hash router validates the whole chunk) raises here, *before*
   any lane mutates — all-or-nothing.  Routerless policies delegate
   whole-chunk validation to each backend's own pre-mutation contract
   (``insert_batch`` validates before mutating; the probed per-tuple
   fallback of :func:`repro.core.backend.chunk_apply` validates against
   the backend's query when it exposes one).
2. **Dispatch** — each non-empty part is applied to its lane, timed
   individually.  A lane's apply may return :data:`SKIPPED` to signal it
   deliberately absorbed nothing (a quarantined fan-out backend); skipped
   deliveries are excluded from the lane's counters and timing.
3. **Account** — the engine accumulates the routing cost
   (``route_seconds``), each lane's busy time (``lane_busy_seconds``, a
   live list that transport drivers may also write into), and the
   *critical path*: per chunk, routing cost plus the **slowest** lane.
   Lanes share no mutable state, so that sum is the wall clock of a
   one-worker-per-lane deployment — the honest scale-out figure a
   single-core box can still measure.
4. **Hooks** — ``after_chunk(items, parts)`` callbacks run at the chunk
   boundary (where the uniformity guarantee holds): counter roll-ups,
   skew monitoring, cache invalidation.

Error semantics: an exception raised while routing leaves every lane
untouched; an exception raised by a lane's ``apply`` aborts the dispatch
loop mid-chunk (earlier lanes have absorbed the part, later ones have not)
and no boundary hook runs.  Policies that must survive a lane failure wrap
their ``apply`` callables (fan-out's isolation mode) or poison the whole
pipeline (the async transport); the engine itself never hides a failure.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, List, Optional, Sequence

from ..relational.stream import chunk_stream

#: Default number of stream tuples per ingested chunk.  Large enough to
#: amortise per-batch dispatch, small enough that samples stay fresh and a
#: chunk of join deltas fits comfortably in memory.
DEFAULT_CHUNK_SIZE = 1024

#: Sentinel a lane's ``apply`` may return to signal that it deliberately
#: absorbed nothing (e.g. delivery to a quarantined fan-out backend).  The
#: engine then leaves the lane's counters, busy time and the chunk's
#: critical path untouched — the lane did no work and must not report any.
SKIPPED = object()


class EngineLane:
    """One delivery target of an :class:`IngestionEngine`.

    ``apply`` takes one chunk part and absorbs it whole — typically a bound
    ``BatchIngestor.ingest_batch``, a sampler's ``insert_batch``, or the
    probed fallback from :func:`repro.core.backend.chunk_apply`.  It may
    return :data:`SKIPPED` to tell the engine the delivery was a deliberate
    no-op; ``chunks_applied`` / ``tuples_applied`` count only real
    deliveries.
    """

    __slots__ = ("name", "apply", "chunks_applied", "tuples_applied")

    def __init__(self, name: str, apply: Callable[[Sequence], object]) -> None:
        self.name = name
        self.apply = apply
        self.chunks_applied = 0
        self.tuples_applied = 0

    # ``apply`` is bound to the owner's backend (sometimes as a closure), so
    # a pickled lane carries only its counters; the owning ingestor's
    # ``__setstate__`` binds ``apply`` again.
    def __getstate__(self):
        return self.name, self.chunks_applied, self.tuples_applied

    def __setstate__(self, state) -> None:
        self.name, self.chunks_applied, self.tuples_applied = state
        self.apply = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EngineLane({self.name!r}, chunks={self.chunks_applied})"


class IngestionEngine:
    """Chunked dispatch across lanes with honest critical-path accounting.

    Parameters
    ----------
    lanes:
        The delivery targets, in routing order.
    chunk_size:
        How many stream tuples :meth:`ingest` cuts per chunk.  The
        uniformity guarantee of every backend holds at chunk boundaries.
    router:
        ``router(items) -> List[parts]`` splitting one chunk into per-lane
        parts (``len(parts) == len(lanes)``; empty parts are skipped).
        ``None`` broadcasts: every lane receives the whole chunk — which
        for a single lane is plain pass-through.  The router runs before
        any lane is touched, so it is also the whole-chunk validation
        point.
    after_chunk:
        Callbacks ``hook(items, parts)`` run after every successfully
        dispatched chunk — the chunk boundary.

    Attributes
    ----------
    batches_ingested / tuples_ingested:
        Chunks / stream tuples dispatched so far (tuples counted once,
        before any broadcast replication by the router).
    route_seconds / critical_path_seconds / lane_busy_seconds:
        The accounting described in the module docstring.
        ``lane_busy_seconds`` is a live, mutable list indexed like
        ``lanes`` — transport drivers that bypass :meth:`ingest_batch`
        (the async workers) add their own lane timings into it.
    """

    def __init__(
        self,
        lanes: Iterable[EngineLane],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        router: Optional[Callable[[List], List[List]]] = None,
        after_chunk: Iterable[Callable[[List, List[List]], None]] = (),
    ) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk size must be positive")
        self.lanes: List[EngineLane] = list(lanes)
        self.chunk_size = chunk_size
        self.router = router
        self.after_chunk: List[Callable] = list(after_chunk)
        # The owner's own hooks come first; the rest were registered through
        # add_boundary_hook by outside observers (see __getstate__).
        self._own_hooks = len(self.after_chunk)
        self.batches_ingested = 0
        self.tuples_ingested = 0
        self.route_seconds = 0.0
        self.critical_path_seconds = 0.0
        self.lane_busy_seconds: List[float] = [0.0] * len(self.lanes)

    # ------------------------------------------------------------------ #
    # Lane management
    # ------------------------------------------------------------------ #
    def add_lane(self, lane: EngineLane) -> EngineLane:
        """Append a lane (only meaningful before ingestion starts)."""
        self.lanes.append(lane)
        self.lane_busy_seconds.append(0.0)
        return lane

    # ------------------------------------------------------------------ #
    # Boundary hooks
    # ------------------------------------------------------------------ #
    def add_boundary_hook(
        self, hook: Callable[[List, List[List]], None]
    ) -> Callable[[List, List[List]], None]:
        """Register ``hook(items, parts)`` to run at every chunk boundary.

        The public registration point for everything that must observe the
        stream exactly where the uniformity guarantee holds: the serving
        layer's epoch cuts, timer-based background checkpointing, skew
        monitors.  Hooks run in registration order, after the chunk has been
        fully dispatched; a hook that raises aborts the ``ingest_batch``
        call (the chunk itself is already absorbed).  Returns ``hook`` so it
        can be registered inline.  A pickled copy of the engine (a
        checkpoint, a served cut) does not carry hooks registered here.
        """
        self.after_chunk.append(hook)
        return hook

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def ingest_batch(self, items: Sequence) -> int:
        """Route one chunk across the lanes and apply every non-empty part.

        Returns the number of stream tuples dispatched (before any
        broadcast replication).  An empty chunk is a no-op and does not
        count as a batch.  On return every lane sits at a chunk boundary.
        """
        items = list(items)
        # Snapshot the size before dispatch: a backend may legally consume
        # its part destructively, and counters/return value must describe
        # what was delivered, not what the backend left behind.
        tuples = len(items)
        if not tuples:
            return 0
        start = time.perf_counter()
        if self.router is not None:
            parts = self.router(items)
        elif len(self.lanes) == 1:
            parts = [items]
        else:
            # Broadcast: each lane gets its own shallow copy, so a backend
            # that consumes its argument destructively cannot corrupt the
            # delivery to later lanes (bit-identity depends on every lane
            # seeing the full chunk).
            parts = [list(items) for _ in self.lanes]
        route_seconds = time.perf_counter() - start
        slowest = 0.0
        busy = self.lane_busy_seconds
        for position, (lane, part) in enumerate(zip(self.lanes, parts)):
            part_tuples = len(part)
            if not part_tuples:
                continue
            start = time.perf_counter()
            outcome = lane.apply(part)
            elapsed = time.perf_counter() - start
            if outcome is SKIPPED:
                continue
            busy[position] += elapsed
            lane.chunks_applied += 1
            lane.tuples_applied += part_tuples
            if elapsed > slowest:
                slowest = elapsed
        self.route_seconds += route_seconds
        self.critical_path_seconds += route_seconds + slowest
        self.batches_ingested += 1
        self.tuples_ingested += tuples
        for hook in self.after_chunk:
            hook(items, parts)
        return tuples

    def ingest(self, stream: Iterable, sink: Optional[Callable[[List], int]] = None) -> "IngestionEngine":
        """Cut ``stream`` into chunks and push them all through ``sink``.

        ``sink`` defaults to :meth:`ingest_batch`; policies with their own
        per-chunk guard or bookkeeping (the sharded frozen check, the
        rebalancing boundary hook) pass their public ``ingest_batch`` so a
        flat-stream ingest is exactly a loop of it.
        """
        push = sink if sink is not None else self.ingest_batch
        for chunk in chunk_stream(stream, self.chunk_size):
            push(chunk)
        return self

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Pickle without the hooks outside observers registered through
        :meth:`add_boundary_hook` (a server's epoch counter, a periodic
        checkpointer): they watch this live object, not a restored copy.
        The owner's own hooks are kept, in order."""
        state = self.__dict__.copy()
        state["after_chunk"] = self.after_chunk[: self._own_hooks]
        return state

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def statistics(self) -> dict:
        """The engine's own counters (policies merge these with their own)."""
        return {
            "batches_ingested": self.batches_ingested,
            "tuples_ingested": self.tuples_ingested,
            "chunk_size": self.chunk_size,
            "lanes": len(self.lanes),
            "route_seconds": round(self.route_seconds, 4),
            "critical_path_seconds": round(self.critical_path_seconds, 4),
            "lane_busy_seconds": [round(s, 4) for s in self.lane_busy_seconds],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IngestionEngine(lanes={len(self.lanes)}, "
            f"chunk_size={self.chunk_size}, batches={self.batches_ingested})"
        )


__all__ = ["DEFAULT_CHUNK_SIZE", "SKIPPED", "EngineLane", "IngestionEngine"]
