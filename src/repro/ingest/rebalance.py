"""Skew-aware shard rebalancing for the sharded ingestion seam.

Hash partitioning is only as good as the value distribution it is handed:
one hot join value (a celebrity node, a best-selling item) routes a
disproportionate share of the stream — and a superlinear share of the join
work — to a single shard, and the chunk-boundary barrier makes every chunk
as slow as that hottest shard.  This module closes the loop the ROADMAP
left open: it *watches* the O(1) per-shard load counters the
:class:`~repro.ingest.shard.ShardedIngestor` already exposes, *detects* a
hot partition against a configurable imbalance threshold, and *rebalances*
by re-partitioning on a better attribute and/or splitting the shard set,
replaying the shard-local relation state into fresh replicas.

Why the replay preserves the distributional contract
----------------------------------------------------
The property harness's invariant — *sharded ≡ unsharded,
distribution-wise, at every chunk boundary* — survives a rebalance because
of three facts:

1. **The stored state is stream-equivalent.**  Duplicate stream tuples
   never reach a reservoir (the dynamic index drops them before delta
   generation), so the deduplicated union of shard-local relation states
   (:meth:`~repro.ingest.shard.ShardedIngestor.stored_rows`) induces
   exactly the join-result set of the original stream prefix.
2. **Fresh replicas, derived seeds.**  The replay drives that state —
   chunked like any other stream — into a *new* :class:`ShardedIngestor`
   whose replicas are fresh reservoirs seeded from the master RNG.  By the
   per-sampler guarantee each new shard reservoir is uniform over its local
   result set at every replay chunk boundary; the old reservoirs are
   discarded, so no stale inclusion probabilities leak through.
3. **The merge argument is partition-agnostic.**  Exact-count-weighted
   subsampling (:meth:`~repro.ingest.shard.ShardedIngestor.merged_sample`)
   is uniform for *any* partitioning of the result set — it never cared
   which attribute did the partitioning.

So after a rebalance the merged sample is exactly uniform over the same
global result set as before, and subsequent chunks extend the same
guarantee under the new, cooler partitioning.

Choosing the new partitioning
-----------------------------
:func:`plan_partition` scores every candidate ``(attribute, shard_count)``
pair against a *window of recently delivered stream tuples* — duplicates
included, because per-chunk shard work is paid per delivery, not per
distinct row, and hot values are hot precisely because they repeat.
Relations containing the attribute are hash-simulated onto shards with the
real router's hash, the rest are broadcast to every shard, and the plan's
cost is its hottest shard's delivery count.  Re-partitioning onto a
uniformly distributed attribute fixes single-hot-value skew; doubling the
shard count ("splitting") fixes several warm values that merely collide
under the current modulus.  A plan is only adopted when it beats the
same-window simulation of the *current* partitioning by a configurable
margin, so a stream that is merely noisy never thrashes.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.backend import derive_seed
from ..relational.query import JoinQuery
from ..relational.schema import tuple_getter
from ..relational.stream import StreamTuple, as_relation_rows, chunk_stream
from .batch import DEFAULT_CHUNK_SIZE
from .checkpoint import Checkpointable
from .shard import DEFAULT_NUM_SHARDS, ShardedIngestor, route_rows

#: Hottest-shard load over mean load beyond which a partitioning counts as
#: skewed.  1.5 means "the hot shard does 50% more work than average".
DEFAULT_IMBALANCE_THRESHOLD = 1.5

#: A candidate plan must cut the simulated hottest-shard cost to at most
#: this fraction of the current partitioning's simulated cost.
DEFAULT_IMPROVEMENT_FACTOR = 0.8


@dataclass(frozen=True)
class SkewReport:
    """One skew-monitor observation of a sharded ingestor."""

    shard_loads: Tuple[int, ...]
    imbalance: float
    hot_shard: int
    threshold: float
    triggered: bool


@dataclass(frozen=True)
class RebalancePlan:
    """A scored candidate partitioning, simulated over the stored rows."""

    partition_attr: str
    num_shards: int
    predicted_loads: Tuple[float, ...]

    @property
    def max_load(self) -> float:
        """Simulated hottest-shard load — the plan's cost."""
        return max(self.predicted_loads) if self.predicted_loads else 0.0

    @property
    def total_load(self) -> float:
        """Simulated load across all shards (broadcast included)."""
        return sum(self.predicted_loads)

    @property
    def predicted_imbalance(self) -> float:
        total = self.total_load
        if total == 0:
            return 1.0
        return self.max_load * self.num_shards / total


@dataclass(frozen=True)
class RebalanceEvent:
    """A completed rebalance: what triggered it, what it chose, what it cost."""

    at_tuples: int
    observed_imbalance: float
    old_attr: str
    new_attr: str
    old_shards: int
    new_shards: int
    predicted_imbalance: float
    replayed_tuples: int
    plan_seconds: float
    replay_seconds: float


class SkewMonitor:
    """Detect hot partitions from the O(1) per-shard load counters.

    Parameters
    ----------
    threshold:
        Load imbalance (hottest shard / mean) at or above which a
        partitioning counts as skewed.  Must exceed 1.0 — an imbalance of
        exactly 1.0 is a perfectly even split.
    min_tuples:
        Do not trigger before this many stream tuples have been ingested;
        early chunks are all noise.
    cooldown_chunks:
        After a planning episode — whether it rebalanced or rejected every
        candidate — wait this many ingested chunks before planning again,
        so one burst cannot cause thrash and *inherent* skew (no cooler
        partitioning exists) does not pay the O(window) simulation on
        every chunk forever.
    """

    def __init__(
        self,
        threshold: float = DEFAULT_IMBALANCE_THRESHOLD,
        min_tuples: int = 4096,
        cooldown_chunks: int = 4,
    ) -> None:
        if threshold <= 1.0:
            raise ValueError("imbalance threshold must exceed 1.0")
        if min_tuples < 0:
            raise ValueError("min_tuples must be non-negative")
        if cooldown_chunks < 0:
            raise ValueError("cooldown_chunks must be non-negative")
        self.threshold = threshold
        self.min_tuples = min_tuples
        self.cooldown_chunks = cooldown_chunks

    def report(
        self, ingestor: ShardedIngestor, stream_tuples: Optional[int] = None
    ) -> SkewReport:
        """Observe ``ingestor`` (O(1): reads the per-shard load counters).

        ``stream_tuples`` is the tuple count the ``min_tuples`` guard is
        held against; it defaults to the ingestor's own counter, but a
        wrapper whose inner ingestor restarts (rebalancing replays reset
        the per-generation counter to the replayed row count) passes its
        cumulative stream figure instead.
        """
        loads = tuple(ingestor.shard_loads())
        imbalance = ingestor.load_imbalance()
        hot = max(range(len(loads)), key=loads.__getitem__) if loads else 0
        if stream_tuples is None:
            stream_tuples = ingestor.tuples_ingested
        triggered = stream_tuples >= self.min_tuples and imbalance >= self.threshold
        return SkewReport(loads, imbalance, hot, self.threshold, triggered)


def simulate_partition(
    query: JoinQuery,
    deliveries: Iterable,
    partition_attr: str,
    num_shards: int,
) -> RebalancePlan:
    """Predict per-shard loads if ``deliveries`` were partitioned so.

    ``deliveries`` is a sample of *delivered* stream tuples
    (:class:`~repro.relational.stream.StreamTuple` or ``(relation, row)``
    pairs), duplicates included — per-chunk shard work is paid per delivery,
    and hot values are hot precisely because they repeat, so simulating over
    deduplicated stored state would systematically underrate them.  Tuples
    of relations containing ``partition_attr`` are routed with the real
    router's stable hash; the rest are broadcast, adding one delivery to
    every shard.  O(sample size), paid only when the monitor has already
    flagged skew.
    """
    return _simulate(query, as_relation_rows(deliveries), partition_attr, num_shards)


def _simulate(
    query: JoinQuery,
    pairs: Sequence[Tuple[str, tuple]],
    partition_attr: str,
    num_shards: int,
) -> RebalancePlan:
    """:func:`simulate_partition` over already-normalised pairs.

    Routes through the same :func:`~repro.ingest.shard.route_rows` rule the
    live router uses, so it cannot predict a shard the router would not
    pick.
    """
    getters: Dict[str, object] = {}
    for schema in query.relations:
        if partition_attr in schema.attr_set:
            getters[schema.name] = tuple_getter(schema.positions_of((partition_attr,)))
    loads = [0] * num_shards
    broadcast = 0
    for assignment in route_rows(pairs, getters, num_shards):
        if assignment < 0:
            broadcast += 1
        else:
            loads[assignment] += 1
    return RebalancePlan(
        partition_attr, num_shards, tuple(load + broadcast for load in loads)
    )


def plan_partition(
    query: JoinQuery,
    deliveries: Sequence,
    candidate_attrs: Optional[Iterable[str]] = None,
    shard_counts: Sequence[int] = (DEFAULT_NUM_SHARDS,),
) -> RebalancePlan:
    """The cheapest candidate partitioning of a delivery sample.

    Scores every ``(attribute, shard_count)`` combination with
    :func:`simulate_partition` and returns the plan with the smallest
    hottest-shard load, breaking ties towards fewer total deliveries (less
    broadcast replication), then fewer shards, then canonical attribute
    order — so the choice is deterministic.
    """
    candidates = tuple(candidate_attrs) if candidate_attrs else query.output_attrs()
    if not candidates:
        raise ValueError("no candidate partition attributes")
    pairs = as_relation_rows(deliveries)  # normalise once, simulate many
    plans = [
        _simulate(query, pairs, attr, shards)
        for attr in sorted(candidates)
        for shards in shard_counts
    ]
    return min(
        plans,
        key=lambda plan: (
            plan.max_load,
            plan.total_load,
            plan.num_shards,
            plan.partition_attr,
        ),
    )


class RebalancingIngestor(Checkpointable):
    """A :class:`ShardedIngestor` that re-partitions itself when a shard runs hot.

    Drives an inner sharded ingestor chunk by chunk; at every chunk boundary
    a :class:`SkewMonitor` inspects the O(1) per-shard loads, and when a hot
    partition is flagged the ingestor simulates candidate partitionings over
    the stored relation state, picks the coolest (see :func:`plan_partition`)
    and — if it beats the current partitioning by ``improvement_factor`` —
    replays the state into a fresh inner ingestor under the new scheme.  The
    merged sample stays *exactly* uniform over the global join at every
    chunk boundary, before, during and after a rebalance (module docstring).

    Parameters
    ----------
    query, k, num_shards, chunk_size, partition_attr, rng:
        As for :class:`ShardedIngestor` (the initial partitioning).
    monitor:
        The :class:`SkewMonitor` to poll at chunk boundaries (default: one
        with the default threshold).
    candidate_attrs:
        Attributes eligible as re-partitioning targets (default: every
        query attribute).
    allow_split:
        Also consider doubling the shard count, up to ``max_shards``.
    improvement_factor:
        Adopt a plan only when its simulated hottest-shard cost is at most
        this fraction of the current partitioning's simulated cost.
    window_tuples:
        How many of the most recently delivered stream tuples to keep as
        the planning sample (duplicates included) — the planner's picture
        of "current traffic".  A bounded window also means the planner
        adapts when the hot value drifts.
    """

    def __init__(
        self,
        query: JoinQuery,
        k: int,
        num_shards: int = DEFAULT_NUM_SHARDS,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        partition_attr: Optional[str] = None,
        monitor: Optional[SkewMonitor] = None,
        rng: Optional[random.Random] = None,
        candidate_attrs: Optional[Sequence[str]] = None,
        allow_split: bool = True,
        max_shards: int = 16,
        improvement_factor: float = DEFAULT_IMPROVEMENT_FACTOR,
        window_tuples: int = 8192,
    ) -> None:
        if not 0.0 < improvement_factor <= 1.0:
            raise ValueError("improvement_factor must be in (0, 1]")
        if max_shards < num_shards:
            raise ValueError("max_shards must be at least num_shards")
        if window_tuples <= 0:
            raise ValueError("window_tuples must be positive")
        self.query = query
        self.k = k
        self.chunk_size = chunk_size
        self.monitor = monitor if monitor is not None else SkewMonitor()
        self.candidate_attrs = tuple(candidate_attrs) if candidate_attrs else None
        self.allow_split = allow_split
        self.max_shards = max_shards
        self.improvement_factor = improvement_factor
        self._rng = rng if rng is not None else random.Random()
        self.inner = self._build_inner(num_shards, partition_attr)
        self.rebalances: List[RebalanceEvent] = []
        self.plans_attempted = 0
        self.tuples_ingested = 0
        self.batches_ingested = 0
        self._chunks_since_plan = 0
        # Window entries are (relation, row, recorded_shard) triples: the
        # shard the live router assigned at delivery time (-1 = broadcast),
        # or None when no valid record exists (entries invalidated by a
        # rebalance — the partitioning they were routed under no longer
        # holds).  Recorded entries let plan() score the
        # *current* partitioning without re-hashing the window.
        self._window: Deque[Tuple[str, tuple, Optional[int]]] = deque(
            maxlen=window_tuples
        )
        # Boundary hooks live on the *wrapper*, not the inner engine: a
        # rebalance swaps self.inner (fresh engine included), which would
        # silently drop engine-level registrations.
        self._boundary_hooks: List = []
        # Critical-path/partition/busy seconds of retired inner generations,
        # plus the serial rebalance overhead (state reassembly + planning).
        self._retired_critical_seconds = 0.0
        self._retired_partition_seconds = 0.0
        self.rebalance_seconds = 0.0

    def _build_inner(
        self, num_shards: int, partition_attr: Optional[str]
    ) -> ShardedIngestor:
        return ShardedIngestor(
            self.query,
            self.k,
            num_shards=num_shards,
            chunk_size=self.chunk_size,
            partition_attr=partition_attr,
            rng=random.Random(derive_seed(self._rng)),
        )

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def ingest_batch(self, items: Sequence) -> int:
        """Ingest one chunk, then let the monitor inspect the shard loads."""
        # Normalise once; the inner ingestor's re-normalisation of plain
        # pairs is cheap (tuple() of a tuple is the identity), and the
        # planning window shares the result.
        pairs = as_relation_rows(items)
        pushed = self.inner.ingest_batch(pairs)
        if pushed == 0:
            return 0
        recorded = self.inner.take_last_assignments()
        if recorded is not None and len(recorded) == len(pairs):
            self._window.extend(
                (relation, row, shard)
                for (relation, row), shard in zip(pairs, recorded)
            )
        else:
            self._window.extend((relation, row, None) for relation, row in pairs)
        self.tuples_ingested += pushed
        self.batches_ingested += 1
        self._chunks_since_plan += 1
        self.maybe_rebalance()
        for hook in self._boundary_hooks:
            hook(pairs, None)
        return pushed

    def ingest(self, stream: Iterable[StreamTuple]) -> "RebalancingIngestor":
        """Cut ``stream`` into chunks and ingest them all; returns ``self``."""
        for chunk in chunk_stream(stream, self.chunk_size):
            self.ingest_batch(chunk)
        return self

    def add_boundary_hook(self, hook):
        """Register ``hook(items, parts)`` to run at every chunk boundary.

        Hooks are held by the wrapper and fire from its own
        :meth:`ingest_batch` — *after* any rebalance the chunk triggered, so
        a hook always observes a settled (possibly re-partitioned) inner
        ingestor.  ``parts`` is ``None``: the wrapper does not expose the
        inner routing.  Hooks survive rebalances, which replace the inner
        ingestor and its engine wholesale.
        """
        self._boundary_hooks.append(hook)
        return hook

    # ------------------------------------------------------------------ #
    # Rebalancing
    # ------------------------------------------------------------------ #
    @property
    def partition_attr(self) -> str:
        """The partition attribute currently in force."""
        return self.inner.partition_attr

    @property
    def num_shards(self) -> int:
        """The shard count currently in force."""
        return self.inner.num_shards

    def skew_report(self) -> SkewReport:
        """The monitor's current view of the inner ingestor (O(1)).

        The ``min_tuples`` guard is held against the cumulative *stream*
        count, not the current inner generation's counter (which restarts
        at the replayed row count after every rebalance).
        """
        return self.monitor.report(self.inner, stream_tuples=self.tuples_ingested)

    def _window_pairs(self) -> List[Tuple[str, tuple]]:
        """The planning window as plain ``(relation, row)`` pairs."""
        return [(relation, row) for relation, row, _ in self._window]

    def _simulate_current(self) -> RebalancePlan:
        """The current partitioning's plan, reusing recorded routing.

        Most window entries carry the shard the live router assigned at
        delivery time, so scoring the *current* partitioning is mostly a
        counting pass; only entries without a valid record (pre-rebalance
        leftovers) are re-hashed — through the
        same :func:`~repro.ingest.shard.route_rows` rule, so the result is
        identical to simulating the whole window from scratch.
        """
        num_shards = self.inner.num_shards
        loads = [0] * num_shards
        broadcast = 0
        unrecorded: List[Tuple[str, tuple]] = []
        for relation, row, shard in self._window:
            if shard is None:
                unrecorded.append((relation, row))
            elif shard < 0:
                broadcast += 1
            else:
                loads[shard] += 1
        if unrecorded:
            partial = _simulate(
                self.query, unrecorded, self.inner.partition_attr, num_shards
            )
            loads = [
                load + extra for load, extra in zip(loads, partial.predicted_loads)
            ]
        return RebalancePlan(
            self.inner.partition_attr,
            num_shards,
            tuple(load + broadcast for load in loads),
        )

    def plan(self) -> Tuple[RebalancePlan, RebalancePlan]:
        """Simulate candidate partitionings; ``(best, current)`` plans.

        Both are scored over the same recent-delivery window (O(window) per
        candidate), so the comparison is apples to apples.  ``best`` may
        equal ``current``'s configuration when nothing cooler exists.  The
        current plan reuses the shard assignments recorded at delivery time
        (:meth:`_simulate_current`) instead of re-hashing the window.
        """
        shard_counts = [self.inner.num_shards]
        if self.allow_split and self.inner.num_shards * 2 <= self.max_shards:
            shard_counts.append(self.inner.num_shards * 2)
        best = plan_partition(
            self.query, self._window_pairs(), self.candidate_attrs, tuple(shard_counts)
        )
        current = self._simulate_current()
        return best, current

    def maybe_rebalance(self) -> Optional[RebalanceEvent]:
        """Rebalance iff the monitor triggers and a plan clearly improves.

        The cheap O(1) skew check runs first; only a flagged imbalance pays
        for the O(window) planning pass, and every planning episode —
        adopted *or* rejected — starts the monitor's cooldown, so inherent
        skew (no cooler partitioning exists) costs one simulation per
        cooldown period, not one per chunk.  Returns the event when a
        rebalance happened, ``None`` otherwise.
        """
        if self.plans_attempted and self._chunks_since_plan < self.monitor.cooldown_chunks:
            return None
        report = self.skew_report()
        if not report.triggered:
            return None
        start = time.perf_counter()
        best, current = self.plan()
        plan_seconds = time.perf_counter() - start
        self.rebalance_seconds += plan_seconds
        self.plans_attempted += 1
        self._chunks_since_plan = 0
        same_config = (
            best.partition_attr == self.inner.partition_attr
            and best.num_shards == self.inner.num_shards
        )
        if same_config or best.max_load > current.max_load * self.improvement_factor:
            return None  # nothing clearly cooler; keep the current partitioning
        return self._apply(best, report, plan_seconds)

    def rebalance(
        self,
        partition_attr: Optional[str] = None,
        num_shards: Optional[int] = None,
    ) -> RebalanceEvent:
        """Force a rebalance to an explicit (or freshly planned) partitioning."""
        start = time.perf_counter()
        if partition_attr is None and num_shards is None:
            best, _ = self.plan()
        else:
            best = _simulate(
                self.query,
                self._window_pairs(),
                partition_attr or self.inner.partition_attr,
                num_shards or self.inner.num_shards,
            )
        plan_seconds = time.perf_counter() - start
        self.rebalance_seconds += plan_seconds
        self.plans_attempted += 1
        return self._apply(best, self.skew_report(), plan_seconds)

    def _apply(
        self, plan: RebalancePlan, report: SkewReport, plan_seconds: float
    ) -> RebalanceEvent:
        """Replay the stored state into a fresh inner ingestor under ``plan``."""
        start = time.perf_counter()
        stored = self.inner.stored_rows()
        pairs = [
            (name, row)
            for name in self.query.relation_names
            for row in stored[name]
        ]
        reassembly_seconds = time.perf_counter() - start
        self.rebalance_seconds += reassembly_seconds

        old = self.inner
        self._retired_critical_seconds += old.critical_path_seconds
        self._retired_partition_seconds += old.partition_seconds
        fresh = self._build_inner(plan.num_shards, plan.partition_attr)
        replay_start = time.perf_counter()
        fresh.ingest(pairs)
        replay_seconds = time.perf_counter() - replay_start
        self.inner = fresh
        self._chunks_since_plan = 0
        # The replay consumed the fresh router's delivery record, and the
        # window's recorded shards were routed under the *old* partitioning
        # — invalidate them so future planning re-hashes these entries.
        fresh.take_last_assignments()
        self._window = deque(
            ((relation, row, None) for relation, row, _ in self._window),
            maxlen=self._window.maxlen,
        )

        event = RebalanceEvent(
            at_tuples=self.tuples_ingested,
            observed_imbalance=report.imbalance,
            old_attr=old.partition_attr,
            new_attr=plan.partition_attr,
            old_shards=old.num_shards,
            new_shards=plan.num_shards,
            predicted_imbalance=plan.predicted_imbalance,
            replayed_tuples=len(pairs),
            plan_seconds=plan_seconds + reassembly_seconds,
            replay_seconds=replay_seconds,
        )
        self.rebalances.append(event)
        return event

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> Dict[str, object]:
        """Pickle without the wrapper-level boundary hooks: they belong to
        outside observers of this live object, not to a restored copy."""
        state = self.__dict__.copy()
        state["_boundary_hooks"] = []
        return state

    # ------------------------------------------------------------------ #
    # Sampling and statistics (delegated to the current inner ingestor)
    # ------------------------------------------------------------------ #
    def merged_sample(
        self, k: Optional[int] = None, rng: Optional[random.Random] = None
    ) -> List[dict]:
        """A uniform sample of the global join (see ``ShardedIngestor``)."""
        return self.inner.merged_sample(k, rng=rng)

    def shard_counts(self) -> List[int]:
        """Exact local result counts under the current partitioning."""
        return self.inner.shard_counts()

    def total_results(self) -> int:
        """Exact global ``|Q(R)|`` (invariant across rebalances)."""
        return self.inner.total_results()

    @property
    def critical_path_seconds(self) -> float:
        """Wall-clock a one-worker-per-shard deployment would have paid.

        Sum over every chunk (of every inner generation, replay chunks
        included) of partitioning cost plus the slowest shard, plus the
        serial rebalance overhead (state reassembly and planning).
        """
        return (
            self._retired_critical_seconds
            + self.inner.critical_path_seconds
            + self.rebalance_seconds
        )

    def statistics(self) -> Dict[str, object]:
        """Wrapper counters + rebalance history + the inner ingestor's stats.

        Same O(1) contract as ``ShardedIngestor.statistics()``: per-shard
        loads and timing only, never the O(N) exact counts.  Scalar timing
        and tuple counters are *cumulative* across rebalances; the
        per-shard lists (``shard_tuples``, ``shard_busy_seconds``) and
        ``relation_deliveries`` describe the current generation only — the
        shard count can change at a rebalance, so the lists are not
        summable across generations.
        """
        stats = self.inner.statistics()
        stats.update(
            {
                "tuples_ingested": self.tuples_ingested,
                "batches_ingested": self.batches_ingested,
                "partition_seconds": round(
                    self._retired_partition_seconds + self.inner.partition_seconds, 4
                ),
                "rebalances": len(self.rebalances),
                "plans_attempted": self.plans_attempted,
                "rebalance_seconds": round(self.rebalance_seconds, 4),
                "replayed_tuples": sum(e.replayed_tuples for e in self.rebalances),
                "critical_path_seconds": round(self.critical_path_seconds, 4),
                "imbalance_threshold": self.monitor.threshold,
                "planning_window_tuples": len(self._window),
                "rebalance_events": [
                    {
                        "at_tuples": event.at_tuples,
                        "observed_imbalance": round(event.observed_imbalance, 4),
                        "partitioning": (
                            f"{event.old_attr}/{event.old_shards}"
                            f" -> {event.new_attr}/{event.new_shards}"
                        ),
                        "predicted_imbalance": round(event.predicted_imbalance, 4),
                        "replayed_tuples": event.replayed_tuples,
                        "replay_seconds": round(event.replay_seconds, 4),
                    }
                    for event in self.rebalances
                ],
            }
        )
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RebalancingIngestor({self.query.name!r}, k={self.k}, "
            f"shards={self.num_shards}, partition_attr={self.partition_attr!r}, "
            f"rebalances={len(self.rebalances)})"
        )
