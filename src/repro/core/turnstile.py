"""Turnstile (insert + delete) and sliding-window reservoir sampling.

The paper's machinery is insert-only: every prefix of the stream only ever
grows the join.  This module extends it to *turnstile* streams — interleaved
inserts and retractions — and to sliding windows (retraction by age), while
keeping the per-chunk-boundary guarantee every other ingestion mode offers:

    after each chunk boundary the reservoir is a uniform sample without
    replacement of size ``min(k, |Q'|)`` of the *surviving* join results
    ``Q'`` (the join of everything inserted and not yet retracted).

Uniformity argument (resample-on-eviction)
------------------------------------------
Let ``R`` be the reservoir before a delete-run, a uniform size-``min(k,|Q|)``
sample without replacement of the join ``Q``, and let ``D ⊆ Q`` be the
results killed by the retractions (a result dies iff any of its constituent
rows is deleted — ``D`` is determined by the deletes, not by the sample).

1. *Survivors are uniform.*  Conditioned on ``|R ∩ (Q \\ D)| = s``, the
   surviving set ``R ∩ (Q \\ D)`` is a uniform size-``s`` sample without
   replacement of ``Q \\ D``: for a uniform subset, the conditional law of
   its intersection with any fixed set is uniform over that set's subsets of
   the realised size.
2. *Refill preserves it.*  Drawing uniformly from ``(Q \\ D) \\ current``
   (rejection sampling through the dynamic index's full-join ``sample``,
   rejecting members already held) until the reservoir holds
   ``min(k, |Q \\ D|)`` results yields a uniform sample of that size — the
   standard coupon construction of a uniform subset.
3. *The skip state is re-anchored.*  Algorithm 4's running ``w`` after ``r``
   real items is the ``k``-th largest of ``r`` i.i.d. uniforms —
   ``Beta(k, r - k + 1)`` — independent of which items occupy the reservoir.
   :meth:`~repro.core.batch_reservoir.BatchedPredicateReservoir
   .rebase_population` therefore redraws ``w ~ Beta(k, |Q'| - k + 1)`` (or
   returns to the fill-phase sentinel when ``|Q'| < k``), after which the
   sampler is statistically indistinguishable from a fresh run that saw
   exactly the surviving population.  Subsequent inserts then keep uniformity
   by the insert-only argument.

Tombstone lifecycle
-------------------
Streams are set-semantics, but retractions may arrive *before* their insert
(out-of-order feeds).  A delete of a live row applies immediately; a delete
of an absent row becomes a **pending tombstone** that annihilates the next
insert of that row (multiset counts, so ``n`` early deletes absorb ``n``
inserts).  A live row never also carries a pending tombstone — deletes of
live rows never pend — so the two states are mutually exclusive, and a
double-delete of a live row applies once and pends once.  The reference
semantics live in :func:`repro.relational.stream.surviving_rows`.

Cost: the exact surviving count ``|Q'|`` is kept up to date, never
recounted.  Every applied insert or delete of ``t`` into ``R`` adds or
subtracts ``|ΔQ(R, t)|``, an exact count over the index's join tree rooted
at ``R`` (:func:`~repro.relational.join.delta_counter`) whose cost is
proportional to the rows that join with ``t``.  A delete-run then costs an
``O(k)`` filter of the reservoir against the run's deleted rows, hashable
result identities only when a refill is needed, and expected
``O(evicted)`` full-join draws.  Snapshots carry the count, so a restore
is ``O(1)`` in the join size.  With deletions the index's approximate
counters can also shrink, which voids the insert-only amortised
``O(log N)`` update bound under adversarial oscillation across a
power-of-two boundary; correctness is unaffected.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

# count_results: perfbench/tracing.py patches this module's name for the per-layer split.
from ..relational.join import count_results, delta_counter  # noqa: F401
from ..relational.query import JoinQuery
from ..relational.schema import tuple_getter
from ..relational.stream import StreamDelete, StreamTuple
from .reservoir_join import ReservoirJoin

#: Safety valve for the refill rejection loop, mirroring
#: ``TreeIndex.sample``'s cap: the loop is expected to finish in
#: ``O(target · log target)`` draws, so hitting this means the index's
#: density invariant is broken, not that we were unlucky.
_MAX_REFILL_ATTEMPTS = 200_000


class TurnstileReservoirJoin(ReservoirJoin):
    """:class:`~repro.core.reservoir_join.ReservoirJoin` over turnstile streams.

    Accepts :class:`~repro.relational.stream.StreamDelete` items alongside
    inserts — per tuple (:meth:`delete`), per run (:meth:`delete_batch`) or
    mixed into chunks (:meth:`ingest_batch`, which the ingestion seam's
    :func:`~repro.core.backend.chunk_apply` probes first, so this sampler
    composes under the batched, sharded, fan-out, async, checkpointing and
    serving modes like any other backend).

    Differences from the insert-only sampler:

    * ``maintain_root`` is forced on — eviction refills draw uniformly from
      the surviving full join, and the exact surviving count anchors the
      reservoir's skip state (see the module docstring);
    * the foreign-key combiner is rejected — it rewrites tuples into merged
      relations, and retracting a merged row is not well defined;
    * deletes of absent rows become pending tombstones that annihilate the
      matching later insert (see "Tombstone lifecycle" above).
    """

    def __init__(
        self,
        query: JoinQuery,
        k: int,
        rng: Optional[random.Random] = None,
        grouping: bool = False,
        foreign_key: bool = False,
        maintain_root: bool = True,
    ) -> None:
        if foreign_key:
            raise ValueError(
                "the foreign-key combiner is insert-only (it merges tuples "
                "across relations); TurnstileReservoirJoin requires "
                "foreign_key=False"
            )
        if not maintain_root:
            raise ValueError(
                "TurnstileReservoirJoin requires maintain_root=True: "
                "eviction refills sample the surviving full join"
            )
        super().__init__(
            query, k, rng=rng, grouping=grouping, foreign_key=False, maintain_root=True
        )
        # spawn() rebuilds through this; foreign_key and
        # maintain_root are forced by the constructor, so only grouping is a
        # free parameter.
        self._config = {"grouping": grouping}
        self._pending: Dict[Tuple[str, tuple], int] = {}
        self._pending_total = 0
        #: exact surviving-join size ``|Q'|``, kept up to date by delta counts.
        self._population = 0
        #: per relation: exact ``row -> |ΔQ(R, t)|`` counter (built on first use).
        self._delta_counters: Dict[str, Callable[[tuple], int]] = {}
        self.deletes_applied = 0
        self.annihilations = 0
        self.evictions = 0
        self.refills = 0

    # ------------------------------------------------------------------ #
    # Streaming interface
    # ------------------------------------------------------------------ #
    def insert(self, relation: str, row: Sequence) -> None:
        """Process one insert, honouring pending tombstones."""
        row = tuple(row)
        if not self._annihilate(relation, row):
            super().insert(relation, row)

    def delete(self, relation: str, row: Sequence) -> bool:
        """Process one retraction; returns whether a live row was removed.

        A retraction of an absent row returns ``False`` and records a
        pending tombstone.  The reservoir is re-uniformised immediately
        (single-item "chunk"), so the per-boundary guarantee holds after
        every call.
        """
        return self._apply_delete_pairs([(relation, tuple(row))]) == 1

    def delete_batch(self, items: Iterable) -> int:
        """Process a run of retractions; returns how many removed live rows.

        ``items`` are :class:`~repro.relational.stream.StreamDelete`
        instances or plain ``(relation, row)`` pairs.  Dead join results are
        evicted and the reservoir refilled from the surviving population
        once, at the end of the run.
        """
        pairs: List[Tuple[str, tuple]] = []
        for item in items:
            if isinstance(item, StreamDelete):
                pairs.append((item.relation, item.row))
            elif isinstance(item, StreamTuple):
                raise TypeError(
                    "delete_batch received an insert item; use ingest_batch "
                    "for mixed turnstile chunks"
                )
            else:
                relation, row = item
                pairs.append((relation, tuple(row)))
        return self._apply_delete_pairs(pairs)

    def ingest_batch(self, items: Sequence) -> int:
        """Absorb one mixed insert/delete chunk; returns new tuples absorbed.

        The chunk is cut into maximal insert-runs and delete-runs in stream
        order.  Insert-runs ride the insert-only bulk fast path; each
        delete-run ends with one evict-refill-re-anchor pass.  Uniformity
        over the surviving join therefore holds at every run boundary, and
        in particular at the chunk boundary — the same contract
        ``insert_batch`` honours for insert-only chunks.
        """
        absorbed = 0
        run: List = []
        run_is_delete = False
        for item in items:
            is_delete = isinstance(item, StreamDelete)
            if run and is_delete != run_is_delete:
                absorbed += self._flush_run(run, run_is_delete)
                run = []
            run_is_delete = is_delete
            run.append(item)
        if run:
            absorbed += self._flush_run(run, run_is_delete)
        return absorbed

    def process(self, stream: Iterable) -> "TurnstileReservoirJoin":
        """Process a whole (possibly turnstile) stream; returns ``self``."""
        for item in stream:
            if isinstance(item, StreamDelete):
                self.delete(item.relation, item.row)
            elif isinstance(item, StreamTuple):
                self.insert(item.relation, item.row)
            else:
                relation, row = item
                self.insert(relation, row)
        return self

    def _flush_run(self, run: List, is_delete: bool) -> int:
        if is_delete:
            self._apply_delete_pairs(
                [(item.relation, item.row) for item in run]
            )
            return 0
        survivors: List = []
        for item in run:
            if isinstance(item, StreamTuple):
                relation, row = item.relation, item.row
            else:
                relation, row = item
                row = tuple(row)
            if not self._annihilate(relation, row):
                survivors.append((relation, row))
        if not survivors:
            return 0
        return super().insert_batch(survivors)

    def _annihilate(self, relation: str, row: tuple) -> bool:
        """Consume one pending tombstone of ``row``; ``False`` when it has none."""
        key = (relation, row)
        outstanding = self._pending.get(key, 0)
        if not outstanding:
            return False
        if outstanding == 1:
            del self._pending[key]
        else:
            self._pending[key] = outstanding - 1
        self._pending_total -= 1
        self.annihilations += 1
        self.tuples_processed += 1
        return True

    # ------------------------------------------------------------------ #
    # The exact surviving count
    # ------------------------------------------------------------------ #
    def _delta_counter(self, relation: str) -> Callable[[tuple], int]:
        counter = self._delta_counters.get(relation)
        if counter is None:
            counter = delta_counter(self.index.trees[relation].tree, self.index.database)
            self._delta_counters[relation] = counter
        return counter

    def _insert_rewritten(self, relation: str, row: tuple) -> bool:
        if not super()._insert_rewritten(relation, row):
            return False
        self._population += self._delta_counter(relation)(row)
        return True

    def _absorb(self, relation: str, rows: List[tuple]) -> List[tuple]:
        # Each result holds exactly one row per relation, so the new rows'
        # delta counts never overlap; counting each group right after it is
        # stored (in insert order) counts every new result exactly once.
        new_rows = super()._absorb(relation, rows)
        if new_rows:
            self._population += sum(map(self._delta_counter(relation), new_rows))
        return new_rows

    # ------------------------------------------------------------------ #
    # Eviction and refill
    # ------------------------------------------------------------------ #
    def _apply_delete_pairs(self, pairs: List[Tuple[str, tuple]]) -> int:
        applied = 0
        killed: Dict[str, Set[tuple]] = {}
        for relation, row in pairs:
            if relation not in self.index.database:
                raise KeyError(
                    f"relation {relation!r} is not part of query "
                    f"{self.original_query.name!r}"
                )
            if self.index.delete(relation, row):
                # The delta count reads only the other relations, so it is
                # the same just before and just after the row leaves R.
                self._population -= self._delta_counter(relation)(row)
                killed.setdefault(relation, set()).add(row)
                applied += 1
            else:
                key = (relation, row)
                self._pending[key] = self._pending.get(key, 0) + 1
                self._pending_total += 1
        if applied:
            self.deletes_applied += applied
            self._resample_after_deletes(killed)
        return applied

    def _resample_after_deletes(self, killed: Dict[str, Set[tuple]]) -> None:
        """Evict dead results, refill from the survivors, re-anchor the skip.

        Implements steps 1–3 of the module-docstring uniformity argument.
        Every held result was alive before the run, so it is dead exactly
        when its row of some relation is among the run's applied deletes
        ``killed`` — an ``O(k)`` filter against small sets, never a scan of
        the database.
        """
        population = self._population
        held = self.reservoir.sample
        live = held
        for relation, rows in killed.items():
            # tuple_getter indexes with whatever keys it is given: attribute
            # names project a result dict onto the relation's row tuple.
            project = tuple_getter(self.query.relation(relation).attrs)
            live = [result for result in live if project(result) not in rows]
        self.evictions += len(held) - len(live)
        target = min(self.k, population)
        if len(live) < target:
            identity = tuple_getter(self.query.output_attrs())
            seen = {identity(result) for result in live}
            attempts = 0
            while len(live) < target:
                attempts += 1
                if attempts > _MAX_REFILL_ATTEMPTS:
                    raise RuntimeError(
                        "refill rejection sampling failed; the index density "
                        "invariant is broken"
                    )
                draw = self.index.sample(self._rng)
                if draw is None:
                    raise RuntimeError(
                        "full-join sampling returned empty while the exact "
                        f"surviving count is {population}"
                    )
                key = identity(draw)
                if key in seen:
                    continue
                seen.add(key)
                live.append(draw)
                self.refills += 1
        self.reservoir.rebase_population(live, population)

    # ------------------------------------------------------------------ #
    # Replication
    # ------------------------------------------------------------------ #
    def spawn(self, rng: Optional[random.Random] = None) -> "TurnstileReservoirJoin":
        """A fresh, empty, identically configured turnstile replica."""
        return type(self)(self.original_query, self.k, rng=rng, **self._config)

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    @property
    def tombstones_pending(self) -> int:
        """Outstanding early retractions awaiting their insert (O(1))."""
        return self._pending_total

    def statistics(self) -> Dict[str, int]:
        stats = super().statistics()
        stats.update(
            deletes_applied=self.deletes_applied,
            tombstones_pending=self.tombstones_pending,
            annihilations=self.annihilations,
            evictions=self.evictions,
            refills=self.refills,
        )
        return stats


class WindowedSampler:
    """Sliding-window uniform sampling over joins.

    Wraps a :class:`TurnstileReservoirJoin` and retracts rows by age: after
    every chunk boundary the reservoir is a uniform sample of the join of
    the rows still inside the window.  Two window notions:

    ``mode="count"``
        The window covers the last ``window`` stream *items* this sampler
        absorbed (its local clock).  Under sharding each replica keeps its
        own clock, so count windows are per-replica — use timestamp windows
        when shards must agree on the horizon.
    ``mode="timestamp"``
        The window covers rows whose *newest* admission timestamp exceeds
        ``watermark - window``, where the watermark is the monotone maximum
        of the :class:`~repro.relational.stream.StreamTuple` timestamps
        seen.  Out-of-order items keep their own event-time stamps — the
        watermark never rewinds — so a late item landing at or behind the
        horizon is retracted again at the very next chunk boundary, and a
        late duplicate of a live row never ages it (stamps only move
        forward).  Plain ``(relation, row)`` pairs are stamped at the
        current watermark (they never advance it).

    Re-inserting a live row refreshes its stamp (set semantics: the relation
    does not change, only the row's age).  Expiry runs at chunk boundaries —
    the admission log is a lazily invalidated min-heap ordered by stamp:
    entries are popped while the heap top is at or behind the horizon, and
    entries superseded by a newer admission of the same row are skipped.
    The resulting retractions go through the inner sampler's delete path, so
    the eviction/uniformity argument above covers window expiry too.
    Explicit :class:`~repro.relational.stream.StreamDelete` items compose
    with the window (a turnstile stream can also be windowed).
    """

    def __init__(
        self,
        query: JoinQuery,
        k: int,
        window: int,
        rng: Optional[random.Random] = None,
        mode: str = "count",
        grouping: bool = False,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if mode not in ("count", "timestamp"):
            raise ValueError(f"unknown window mode {mode!r}")
        self.window = window
        self.mode = mode
        self._inner = TurnstileReservoirJoin(query, k, rng=rng, grouping=grouping)
        self._config = {"mode": mode, "grouping": grouping}
        #: newest admission stamp per live-or-refreshed (relation, row).
        self._stamps: Dict[Tuple[str, tuple], int] = {}
        #: admission log: a min-heap of ``(stamp, seq, relation, row)``
        #: (``seq`` breaks stamp ties without comparing rows).  Entries whose
        #: stamp is no longer the row's newest are stale and skipped on pop.
        self._log: List[Tuple[int, int, str, tuple]] = []
        self._log_seq = 0
        self._clock = 0
        self._watermark = 0
        self.expirations = 0

    # -- identity the ingestion seam reads ----------------------------- #
    @property
    def original_query(self) -> JoinQuery:
        return self._inner.original_query

    @property
    def query(self) -> JoinQuery:
        return self._inner.query

    @property
    def k(self) -> int:
        return self._inner.k

    @property
    def index(self):
        return self._inner.index

    @property
    def sample(self) -> List[dict]:
        return self._inner.sample

    @property
    def sample_size(self) -> int:
        return self._inner.sample_size

    @property
    def tuples_processed(self) -> int:
        return self._inner.tuples_processed

    @property
    def duplicates_ignored(self) -> int:
        return self._inner.duplicates_ignored

    # ------------------------------------------------------------------ #
    # Streaming interface
    # ------------------------------------------------------------------ #
    def _stamp_of(self, item) -> int:
        if self.mode == "count":
            self._clock += 1
            return self._clock
        timestamp = item.timestamp if isinstance(item, StreamTuple) else self._watermark
        if timestamp > self._watermark:
            self._watermark = timestamp
        return timestamp

    def _admit(self, item) -> None:
        if isinstance(item, StreamTuple):
            key = (item.relation, item.row)
        else:
            relation, row = item
            key = (relation, tuple(row))
        stamp = self._stamp_of(item)
        # An out-of-order admission never ages a live row: its effective
        # stamp is the newest timestamp it was ever admitted at.  The log
        # entry is still pushed; the pop-side staleness check skips it.
        if stamp >= self._stamps.get(key, stamp):
            self._stamps[key] = stamp
        self._log_seq += 1
        heapq.heappush(self._log, (stamp, self._log_seq, key[0], key[1]))

    def _horizon(self) -> int:
        reference = self._clock if self.mode == "count" else self._watermark
        return reference - self.window

    def _expire(self) -> int:
        """Retract every row whose newest stamp fell behind the horizon.

        The log is a min-heap on stamp, so out-of-order admissions (a
        timestamp below the current watermark) are still drained as soon
        as they fall at or behind the horizon — including items that were
        already behind it on arrival.
        """
        horizon = self._horizon()
        expired: List[Tuple[str, tuple]] = []
        log = self._log
        while log and log[0][0] <= horizon:
            stamp, _seq, relation, row = heapq.heappop(log)
            key = (relation, row)
            if self._stamps.get(key) != stamp:
                continue  # refreshed by a newer admission; entry is stale
            del self._stamps[key]
            # Annihilated or explicitly deleted rows are no longer live;
            # retracting them again would plant a spurious tombstone.
            if row in self._inner.index.database[relation]:
                expired.append(key)
        if expired:
            self._inner.delete_batch(expired)
            self.expirations += len(expired)
        return len(expired)

    def insert(self, relation: str, row: Sequence) -> None:
        """Absorb one insert; the window advances and expires immediately."""
        self.ingest_batch([(relation, tuple(row))])

    def delete(self, relation: str, row: Sequence) -> bool:
        """Explicit retraction, composed with the window."""
        removed = self._inner.delete(relation, row)
        self._expire()
        return removed

    def delete_batch(self, items: Iterable) -> int:
        removed = self._inner.delete_batch(items)
        self._expire()
        return removed

    def ingest_batch(self, items: Sequence) -> int:
        """Absorb one mixed chunk, then expire rows that left the window."""
        items = list(items)
        for item in items:
            if not isinstance(item, StreamDelete):
                self._admit(item)
        absorbed = self._inner.ingest_batch(items)
        self._expire()
        return absorbed

    def process(self, stream: Iterable) -> "WindowedSampler":
        """Process a whole stream item by item; returns ``self``."""
        for item in stream:
            self.ingest_batch([item])
        return self

    # ------------------------------------------------------------------ #
    # Replication
    # ------------------------------------------------------------------ #
    def spawn(self, rng: Optional[random.Random] = None) -> "WindowedSampler":
        """A fresh, empty, identically configured windowed replica."""
        return type(self)(
            self.original_query, self.k, self.window, rng=rng, **self._config
        )

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    @property
    def rows_in_window(self) -> int:
        """Live rows currently inside the window.

        Counted against the stored database, not the raw stamp table — a
        stamp may outlive its row (explicit retraction, tombstone
        annihilation) until the window slides past it.
        """
        database = self._inner.index.database
        return sum(
            1
            for relation, row in self._stamps
            if row in database[relation]
        )

    def statistics(self) -> Dict[str, int]:
        stats = self._inner.statistics()
        stats.update(
            window=self.window,
            rows_in_window=self.rows_in_window,
            expirations=self.expirations,
        )
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WindowedSampler({self.original_query.name!r}, k={self.k}, "
            f"window={self.window}, mode={self.mode!r}, "
            f"|sample|={self.sample_size})"
        )
